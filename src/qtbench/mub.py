"""Complete sets of mutually unbiased bases for small prime-power dimensions.

A full set of d+1 bases exists when d = p^m is a prime power. Every set here
is built in one ring R = Z_q[x]/(f), f monic of degree m, with q = p for odd
p and q = 4 for p = 2. The constructions need from R only addition,
multiplication and the trace tr(y) = sum_i [x^i y]_i mod q, where [z]_i is
the coefficient of x^i in z: the trace of y as a Z_q-linear map on R.

- Odd p (Wootters and Fields, Ann. Phys. 191, 363 (1989)): R is the field
  GF(p^m). Basis a has entries omega^tr(a x^2 + b x) / sqrt(d) with
  omega = exp(2 pi i / p), rows x and columns b running over R.
- p = 2 (Klappenecker and Roetteler, LNCS 2948, 137 (2004)): R is the Galois
  ring GR(4, m). Rows x, columns b and sets a run over the Teichmueller set
  {0, 1, x, x^2, ..., x^(d-2)}, with entries i^tr((a + 2b) x) / sqrt(d).

Every returned basis is a unitary whose columns are the basis vectors, and
the first basis is always the identity matrix.
"""

from functools import lru_cache

import numpy as np

# d -> (p, f), f monic with coefficients low order first; f = x makes R = Z_q.
# For p = 2 and m > 1, f is basic irreducible with a root x of order 2^m - 1.
_RINGS = {
    2: (2, (0, 1)),
    3: (3, (0, 1)),
    4: (2, (1, 1, 1)),      # x^2 + x + 1
    5: (5, (0, 1)),
    7: (7, (0, 1)),
    8: (2, (3, 1, 2, 1)),   # x^3 + 2x^2 + x + 3
    9: (3, (1, 0, 1)),      # x^2 + 1
}
SUPPORTED_MUB_DIMS = tuple(sorted(_RINGS))


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
    p, f = _RINGS[d]
    q = 4 if p == 2 else p
    m = len(f) - 1
    # Ring elements are integer arrays (..., m) of coefficients. The powers
    # x^k, k < d - 1, hold every product x^i x^j with i, j < m and, for
    # p = 2, the Teichmueller set; x y shifts y up and replaces x^m by
    # -(f_0 + f_1 x + ... + f_(m-1) x^(m-1)).
    low = np.array(f[:m])
    powers = [np.eye(m, dtype=int)[0]]
    while len(powers) < d - 1:
        y = powers[-1]
        powers.append((np.concatenate(([0], y[:-1])) - y[-1] * low) % q)
    # x^i x^j = sum_k table[i, j, k] x^k
    table = np.array([[powers[i + j] for j in range(m)] for i in range(m)])

    def mul(a, b):
        return np.einsum("...i,...j,ijk->...k", a, b, table) % q

    def tr(y):  # sum_i [x^i y]_i
        return np.einsum("...j,iji->...", y, table) % q

    if q == p:
        # all of R, lowest coefficient fastest
        elems = np.arange(d)[:, None] // p ** np.arange(m) % p
        quad = tr(mul(elems[:, None], mul(elems, elems)[None, :]))  # [a, x]
        lin = tr(mul(elems[:, None], elems[None, :]))               # [x, b]
        exponents = (quad[:, :, None] + lin[None, :, :]) % q        # [a, x, b]
        roots = np.exp(2j * np.pi / p) ** np.arange(p)
    else:
        teich = np.array([np.zeros(m, dtype=int)] + powers)
        phase = (teich[:, None] + 2 * teich[None, :]) % q           # [a, b]
        exponents = tr(mul(phase[:, None], teich[None, :, None]))   # [a, x, b]
        roots = 1j ** np.arange(4)
    bases = [np.eye(d, dtype=complex), *(roots[exponents] / np.sqrt(d))]
    for u in bases:
        u.setflags(write=False)
    return tuple(bases)
