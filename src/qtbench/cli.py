"""Command-line front end: campaign orchestration, persistence and reports.

Three commands:
  analyze    run a campaign and stream raw per-run results to a JSON-lines file
  report     turn raw files into the benchmark table (CSV/JSON) plus plot data
  lowerbound print the theoretical lower bound for a test

Progress goes to stderr; data goes to files and stdout. Exit codes: 0 success,
1 campaign failure, 2 usage or configuration error.
"""

import argparse
import os
import sys

import numpy as np

from .engine import (
    CampaignConfig,
    CampaignError,
    ConfigError,
    check_dims,
    default_grid,
    format_method,
    method_is_factorized,
    parse_method,
    raw_line,
    parse_raw_line,
    run_campaign,
    validate_method,
)
from .states import TestKind
from .stats import (
    build_curve,
    chi2_icdf,
    compile_report,
    lower_bound_NB,
    lower_bound_report,
    nu,
    percentile,
    rank_for_test,
    report_rows,
    write_curve_csv,
    write_report_csv,
    write_report_json,
)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"invalid dims {text!r}; expected e.g. '2,2'") from None
    return check_dims(dims)


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        sizes = [float(x) for x in text.split(",")]
        if all(n.is_integer() for n in sizes):  # '1e4' yes; '1500.5', inf no
            return tuple(int(n) for n in sizes)
    except ValueError:
        pass
    raise ConfigError(f"invalid grid {text!r}; expected whole sample sizes, "
                      f"e.g. '100,1000'")


MANIFEST_KEYS = ("dims", "test", "method", "fb", "grid", "runs", "seed")


def _read_config_file(path: str) -> dict:
    """Flat key=value campaign manifest; '#' starts a comment line."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, value = map(str.strip, line.partition("="))
            if key not in MANIFEST_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}; "
                                  f"expected one of {MANIFEST_KEYS}")
            values[key] = value
    return values


def _build_config(args) -> CampaignConfig:
    """The manifest's values with the flags given laid over them; what
    neither gives takes CampaignConfig's default."""
    values = _read_config_file(args.config) if args.config else {}
    values.update((key, getattr(args, key)) for key in MANIFEST_KEYS
                  if getattr(args, key) is not None)
    if not {"dims", "test", "method"} <= values.keys():
        raise ConfigError("dims, test and method are required (flags or config file)")
    dims = _parse_dims(values["dims"])
    test = TestKind(values["test"])
    protocol, estimator = parse_method(values["method"])
    given = {field: cast(values[key]) for key, field, cast in (
        ("fb", "f_target", float), ("runs", "runs_per_n", int),
        ("seed", "base_seed", int)) if key in values}
    grid = (_parse_grid(values["grid"]) if values.get("grid") else default_grid(
        test, dims, given.get("f_target", CampaignConfig.f_target)))
    return CampaignConfig(dims=dims, test=test, protocol=protocol,
                          estimator=estimator, n_grid=grid, **given)


def _file_stem(method: str) -> str:
    """A method identifier as it appears in output file names."""
    return method.replace("+", "-").replace(":", "")


def _raw_path(out_dir: str, config: CampaignConfig) -> str:
    return os.path.join(out_dir, f"raw_{config.test.value}_"
                        f"{_file_stem(config.method)}.jsonl")


def cmd_analyze(args) -> int:
    config = _build_config(args)
    if args.workers < 1:
        raise ConfigError(f"need at least one worker, got {args.workers}")
    os.makedirs(args.out, exist_ok=True)
    path = _raw_path(args.out, config)
    total = len(config.n_grid) * config.runs_per_n
    print(f"analyze: {config.method} / {config.test.value} on dims="
          f"{list(config.dims)}, grid={list(config.n_grid)}, "
          f"{config.runs_per_n} runs per N ({total} runs) -> {path}",
          file=sys.stderr)

    with open(path, "w") as fh:
        def on_batch(n, batch):
            for res in batch:
                fh.write(raw_line(config, res) + "\n")
            fh.flush()
            ok = [r for r in batch if not r.failed]
            failed = len(batch) - len(ok)
            unconverged = sum(r.converged is False for r in batch)
            note = f", {failed} failed" if failed else ""
            note += f", {unconverged} unconverged" if unconverged else ""
            p95 = percentile([1.0 - r.fidelity for r in ok]) if ok else float("nan")
            print(f"  N={n}: {len(batch)} runs{note}, [1-F]_95={p95:.3e}",
                  file=sys.stderr)

        try:
            run_campaign(config, workers=args.workers, on_batch=on_batch)
        except CampaignError as exc:
            print(f"campaign failed: {exc}", file=sys.stderr)
            return 1
    return 0


def _load_raw(paths):
    campaigns = []
    for path in paths:
        context = None
        results = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    ctx, res = parse_raw_line(line)
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"{path}:{lineno}: malformed raw record "
                                      f"({type(exc).__name__}: {exc})") from None
                if context is None:
                    context = ctx
                elif ctx != context:
                    raise ConfigError(f"{path}: mixed campaigns in one raw file")
                results.append(res)
        if context is None:
            raise ConfigError(f"{path}: empty raw file")
        campaigns.append((context, results))
    return campaigns


def cmd_report(args) -> int:
    campaigns = _load_raw(args.raw)
    first = campaigns[0][0]
    for ctx, _ in campaigns[1:]:
        if (ctx["test"], ctx["dims"]) != (first["test"], first["dims"]):
            raise ConfigError("raw files mix different tests or dimensions")
    methods = []
    for ctx, _ in campaigns:
        validate_method(ctx["protocol"], ctx["estimator"], ctx["dims"])
        method = format_method(ctx["protocol"], ctx["estimator"])
        if method in methods:
            raise ConfigError(f"duplicate method row {method!r}")
        methods.append(method)

    test = TestKind(first["test"])
    dims = first["dims"]
    d = int(np.prod(dims))
    r_true = rank_for_test(test, d)
    os.makedirs(args.out, exist_ok=True)

    reports = [lower_bound_report(args.fb, d, r_true)]
    for method, (ctx, results) in zip(methods, campaigns):
        factorized = method_is_factorized(ctx["protocol"], dims)
        curve = build_curve(results)
        reports.append(compile_report(curve, args.fb, d, r_true,
                                      method=method, factorized=factorized))
        write_curve_csv(curve, os.path.join(
            args.out, f"curve_{_file_stem(method)}.csv"))

    write_report_csv(reports, os.path.join(args.out, "report.csv"))
    write_report_json(reports, os.path.join(args.out, "report.json"))
    for row in report_rows(reports):
        cells = [f"{row['method']:<18}"]
        cells.append(f"N_B={row['N_B']:.6g}")
        if row["M95"] is not None:
            cells.append(f"M95={row['M95']:.6g}")
        if row["eta"] is not None:
            cells.append(f"eta={row['eta']:.3g}")
        if row["extrapolated"]:
            cells.append("(extrapolated)")
        print("  ".join(cells))
    return 0


def cmd_lowerbound(args) -> int:
    dims = _parse_dims(args.dims)
    test = TestKind(args.test)
    d = int(np.prod(dims))
    r = rank_for_test(test, d)
    v = nu(d, r)
    n_b = lower_bound_NB(args.fb, d, r)
    d0 = v / (4.0 * n_b * (d - 1))
    print(f"test={test.value} dims={list(dims)} d={d} r={r} nu={v}")
    print(f"N_B={n_b:.1f}  (chi2 icdf at 0.95, dof={v}: {chi2_icdf(0.95, v):.4f})")
    print(f"d0 at N_B = {d0:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtbench",
        description="Benchmarking engine for quantum state tomography methods")
    sub = parser.add_subparsers(dest="command", required=True)
    test_ids = " | ".join(kind.value for kind in TestKind)

    p_an = sub.add_parser("analyze", help="run a campaign, write raw JSON-lines")
    p_an.add_argument("--dims", help="subsystem dimensions, e.g. 2,2")
    p_an.add_argument("--test", help=test_ids)
    p_an.add_argument("--method", help="protocol+estimator (e.g. fmub+trml:1) or sgqt")
    p_an.add_argument("--fb", type=float, default=None,
                      help="target fidelity (default 0.999)")
    p_an.add_argument("--grid", help="comma-separated sample sizes "
                      "(default: powers of 10 around the lower bound)")
    p_an.add_argument("--runs", type=int, default=None,
                      help="runs per sample size (default 1000)")
    p_an.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    p_an.add_argument("--workers", type=int, default=1,
                      help="parallel workers (default 1)")
    p_an.add_argument("--out", default=".", help="output directory")
    p_an.add_argument("--config", help="key=value campaign manifest "
                      "(flags take precedence)")
    p_an.set_defaults(func=cmd_analyze)

    p_rep = sub.add_parser("report", help="benchmark table from raw files")
    p_rep.add_argument("raw", nargs="+", help="raw JSON-lines files")
    p_rep.add_argument("--fb", type=float, default=0.999, help="target fidelity")
    p_rep.add_argument("--out", default=".", help="output directory")
    p_rep.set_defaults(func=cmd_report)

    p_lb = sub.add_parser("lowerbound", help="theoretical lower bound")
    p_lb.add_argument("--dims", required=True)
    p_lb.add_argument("--test", required=True, help=test_ids)
    p_lb.add_argument("--fb", type=float, default=0.999)
    p_lb.set_defaults(func=cmd_lowerbound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
