"""Complete sets of mutually unbiased bases for small prime-power dimensions.

A full set of d+1 bases exists when d is a prime power. Dimensions 3, 5, 7
use the quadratic Weyl-Heisenberg construction over Z_p; dimension 9 uses the
same formula over GF(9); dimensions 4 and 8 use the Galois-ring GR(4, m)
construction with fourth roots of unity. Dimension 2 is the familiar triple
of Pauli eigenbases. Every returned basis is a unitary whose columns are the
basis vectors, and the first basis is always the identity matrix.
"""

from functools import lru_cache

import numpy as np

SUPPORTED_MUB_DIMS = (2, 3, 4, 5, 7, 8, 9)

_ODD_PRIMES = (3, 5, 7)


def mub_bases(d: int) -> list[np.ndarray]:
    """Return the d+1 mutually unbiased bases of dimension d.

    Raises ValueError for dimensions outside the supported prime-power set.
    """
    if d not in SUPPORTED_MUB_DIMS:
        raise ValueError(
            f"no MUB construction for d={d}: outside the MUB-supported "
            f"prime-power dimensions {SUPPORTED_MUB_DIMS}")
    return [u.copy() for u in _mub_cached(d)]


@lru_cache(maxsize=None)
def _mub_cached(d: int) -> tuple[np.ndarray, ...]:
    if d == 2:
        bases = _qubit_mubs()
    elif d in _ODD_PRIMES:
        bases = _prime_mubs(d)
    elif d == 9:
        bases = _gf9_mubs()
    else:  # 4, 8
        bases = _galois_ring_mubs({4: 2, 8: 3}[d])
    for u in bases:
        u.setflags(write=False)
    return tuple(bases)


def _qubit_mubs() -> list[np.ndarray]:
    s2 = 1.0 / np.sqrt(2.0)
    z = np.eye(2, dtype=complex)
    x = np.array([[1, 1], [1, -1]], dtype=complex) * s2
    y = np.array([[1, 1], [1j, -1j]], dtype=complex) * s2
    return [z, x, y]


def _prime_mubs(p: int) -> list[np.ndarray]:
    # Columns indexed by b, rows by x: entries omega^(a x^2 + b x) / sqrt(p).
    omega = np.exp(2j * np.pi / p)
    xs = np.arange(p)
    bases = [np.eye(p, dtype=complex)]
    for a in range(p):
        exponents = (a * xs[:, None] ** 2 + xs[:, None] * xs[None, :]) % p
        bases.append(omega ** exponents / np.sqrt(p))
    return bases


# --- GF(9) = Z3[x] / (x^2 + 1) ---------------------------------------------

def _gf9_mul(a, b):
    # (a0 + a1 u)(b0 + b1 u) with u^2 = -1 = 2 (mod 3)
    return ((a[0] * b[0] + 2 * a[1] * b[1]) % 3, (a[0] * b[1] + a[1] * b[0]) % 3)


def _gf9_trace(y) -> int:
    # absolute trace to GF(3): y + y^3 (Frobenius is cubing)
    y3 = _gf9_mul(_gf9_mul(y, y), y)
    t = ((y[0] + y3[0]) % 3, (y[1] + y3[1]) % 3)
    assert t[1] == 0, "field trace must land in the prime field"
    return t[0]


def _gf9_mubs() -> list[np.ndarray]:
    omega = np.exp(2j * np.pi / 3)
    elems = [(c0, c1) for c1 in range(3) for c0 in range(3)]
    d = 9
    bases = [np.eye(d, dtype=complex)]
    for a in elems:
        u = np.empty((d, d), dtype=complex)
        for col, b in enumerate(elems):
            for row, x in enumerate(elems):
                x2 = _gf9_mul(x, x)
                ax2 = _gf9_mul(a, x2)
                bx = _gf9_mul(b, x)
                arg = ((ax2[0] + bx[0]) % 3, (ax2[1] + bx[1]) % 3)
                u[row, col] = omega ** _gf9_trace(arg)
        bases.append(u / np.sqrt(d))
    return bases


# --- GR(4, m) = Z4[x] / (f) for d = 2^m -------------------------------------
#
# Elements are coefficient tuples (low order first) reduced mod 4 and mod the
# basic irreducible f. The Teichmueller set T consists of 0 and the powers of
# an element of multiplicative order 2^m - 1; every ring element decomposes
# uniquely as a + 2b with a, b in T, which defines the Frobenius map
# phi(a + 2b) = a^2 + 2 b^2 and the trace down to Z4. Basis vectors carry
# phases i^trace((a + 2b) x) over positions x in T.

_GR_MODULI = {2: (1, 1, 1), 3: (3, 1, 2, 1)}  # x^2+x+1 and x^3+2x^2+x+3


class _GaloisRing:
    def __init__(self, m: int):
        self.m = m
        self.f = _GR_MODULI[m]
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self.teichmueller = self._build_teichmueller()
        self._decomp = {}
        for a in self.teichmueller:
            for b in self.teichmueller:
                self._decomp[self.add(a, self.scale(2, b))] = (a, b)
        assert len(self._decomp) == 4**m, "2-adic decomposition must cover the ring"

    def add(self, a, b):
        return tuple((x + y) % 4 for x, y in zip(a, b))

    def scale(self, c, a):
        return tuple((c * x) % 4 for x in a)

    def mul(self, a, b):
        m = self.m
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for k in range(2 * m - 2, m - 1, -1):
            c = conv[k] % 4
            conv[k] = 0
            for i in range(m):
                conv[k - m + i] = (conv[k - m + i] - c * self.f[i]) % 4
        return tuple(x % 4 for x in conv[:m])

    def _build_teichmueller(self):
        target = 2**self.m - 1
        for start in self._units():
            powers = [self.one]
            e = start
            while e != self.one and len(powers) <= target:
                powers.append(e)
                e = self.mul(e, start)
            if e == self.one and len(powers) == target:
                return [self.zero] + powers
        raise RuntimeError("no Teichmueller generator found")  # pragma: no cover

    def _units(self):
        # candidate generators: try x first (works for the chosen moduli)
        yield (0, 1) + (0,) * (self.m - 2)
        for idx in range(1, 4**self.m):
            coeffs = []
            k = idx
            for _ in range(self.m):
                coeffs.append(k % 4)
                k //= 4
            yield tuple(coeffs)

    def frobenius(self, y):
        a, b = self._decomp[y]
        return self.add(self.mul(a, a), self.scale(2, self.mul(b, b)))

    def trace(self, y) -> int:
        acc = y
        t = y
        for _ in range(self.m - 1):
            t = self.frobenius(t)
            acc = self.add(acc, t)
        assert all(c == 0 for c in acc[1:]), "ring trace must land in Z4"
        return acc[0]


def _galois_ring_mubs(m: int) -> list[np.ndarray]:
    ring = _GaloisRing(m)
    ts = ring.teichmueller
    d = 2**m
    bases = [np.eye(d, dtype=complex)]
    for a in ts:
        u = np.empty((d, d), dtype=complex)
        for col, b in enumerate(ts):
            phase_elem = ring.add(a, ring.scale(2, b))
            for row, x in enumerate(ts):
                u[row, col] = 1j ** ring.trace(ring.mul(phase_elem, x))
        bases.append(u / np.sqrt(d))
    return bases
