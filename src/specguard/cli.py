"""Command-line front end: generate | edmd | sweep | test | cluster | oracle-check.

Every artifact embeds a manifest with the tool version, the command
(``specguard`` followed by the arguments ``main`` parsed, whatever the entry
point), the RNG algorithm and seed (when randomness was used), the resolved
covariance kernel, and a SHA-256 digest of the input file.  All JSON is
emitted with sorted keys and no wall-clock time, so identical commands
produce bit-identical output.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 numeric/resource
error.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import re
import sys

import numpy as np

from . import __version__, _blas
from .charmatrix import _series_fit
from .errors import InsufficientDataError, SpecguardError, UsageError
from .generators import (
    RNG_ALGORITHM,
    Lorenz63Spec,
    gen_expanding_map,
    gen_lorenz63,
    gen_var,
    var_benchmark_7d,
)
from .ingest import (
    DictionarySpec,
    SnapshotSeries,
    delay_embed,
    evaluate_dictionary,
    load_snapshots,
    write_snapshots,
)
from .oracle import run_oracle_checks
from .pseudospec import (
    STATUS_AT_EIGENVALUE,
    STATUS_CONVERGED,
    STATUS_DEGENERATE_S,
    STATUS_MAX_ITERS,
    GridSpec,
    PowerIterSettings,
    SweepResult,
    _series_estimates,
    sweep,
)
from .stats import _check_alphas, _check_level, cluster_eigenvalues, eig_test, spectrum_test
from .variance import KernelSpec, default_mu_list, estimate_tau, window_length

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

#: delay-embedding layout used for Lorenz-63 trajectories.
_LORENZ_DICT = dict(max_degree=3, n_delays=10, state_dim=3)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(
    kind: str,
    args: argparse.Namespace,
    seed: int | None = None,
    kernel: KernelSpec | None = None,
    input_path: str | None = None,
    warnings: list[str] | None = None,
    extra: dict | None = None,
) -> dict:
    man = {
        "schema": f"specguard/v1/{kind}",
        "tool_version": __version__,
        "command": " ".join(["specguard", *args.argv]),
        "rng": {
            "algorithm": RNG_ALGORITHM if seed is not None else None,
            "seed": seed,
        },
        "kernel": kernel.to_json_dict() if kernel is not None else None,
        "input": (
            {"path": input_path, "sha256": _sha256(input_path)}
            if input_path is not None
            else None
        ),
        "warnings": warnings or [],
    }
    if extra:
        man.update(extra)
    return man


def _write_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        raise UsageError(f"cannot parse complex number from {text!r}") from None
    if not cmath.isfinite(value):
        raise UsageError(f"complex number {text!r} is not finite")
    return value


def _settings(args: argparse.Namespace) -> PowerIterSettings:
    return PowerIterSettings(rel_tol=args.tol, max_iters=args.max_iters)


# ---------------------------------------------------------------------------
# Kernel flag resolution (shared by sweep/test/cluster)
# ---------------------------------------------------------------------------


def _resolve_kernel(
    args: argparse.Namespace, series: SnapshotSeries
) -> tuple[KernelSpec, list[str]]:
    """The kernel the flags ask for and the warnings it raised."""
    warnings: list[str] = []
    if args.iid:
        if args.mu:
            raise UsageError("--mu is meaningless with --iid")
        if series.sampling_kind == "trajectory":
            warnings.append(
                "iid kernel requested on trajectory-kind data; serial "
                "correlation will be ignored"
            )
        return KernelSpec.iid(), warnings

    mu_list: tuple[complex, ...] = ()
    if args.mu:
        if args.mu.startswith("auto:"):
            try:
                top_k = int(args.mu.split(":", 1)[1])
            except ValueError:
                raise UsageError(f"bad --mu value {args.mu!r}") from None
            modes, _ = _series_fit(series, args.rcond_floor)
            mu_list, notes = default_mu_list([m.eigenvalue for m in modes], top_k)
            warnings.extend(notes)
        else:
            mu_list = tuple(_parse_complex(tok) for tok in args.mu.split(","))

    if args.LM is not None:
        if args.LM < 0:
            raise UsageError(f"--LM must be >= 0, got {args.LM}")
        l_window = args.LM
    else:
        if args.tau == "auto":
            with _blas.single_thread():
                tau = estimate_tau(series)
            warnings.append(f"estimated correlation time tau={tau:.4g}")
        else:
            try:
                tau = float(args.tau)
            except ValueError:
                raise UsageError(f"bad --tau value {args.tau!r}") from None
        l_window = window_length(tau, series.M)
    kernel = KernelSpec.windowed(l_window, mu_list)
    if kernel.mode == "windowed" and series.sampling_kind == "iid":
        warnings.append("windowed kernel on iid-kind data; the iid kernel would be tighter")
    return kernel, warnings


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    given = [flag for flag, value in (("--mode", args.mode), ("--N", args.N)) if value is not None]
    if given and args.system != "map1d":
        raise UsageError(f"{given[0]} applies only to --system map1d")
    if args.M < 2:
        raise InsufficientDataError(f"--M {args.M}: need at least 2 snapshot pairs")
    if args.system == "var":
        spec = var_benchmark_7d(seed=args.seed)
        x, y = gen_var(spec, args.M)
        series = evaluate_dictionary(x, y, DictionarySpec.identity(7), "iid")
        extra = {"system": "var"}
    elif args.system == "map1d":
        mode, n_obs = args.mode or "iid", 10 if args.N is None else args.N
        x, y = gen_expanding_map(args.M, mode=mode, seed=args.seed)
        series = evaluate_dictionary(x, y, DictionarySpec.trig(n_obs), sampling_kind=mode)
        extra = {"system": "map1d", "mode": mode, "n_obs": n_obs}
    else:  # lorenz63
        lorenz = Lorenz63Spec(seed=args.seed)
        dict_spec = DictionarySpec.monomial_delay(**_LORENZ_DICT)
        raw = gen_lorenz63(lorenz, args.M + dict_spec.n_delays)
        series = delay_embed(raw, dict_spec, step=1, dt=lorenz.dt_sample)
        extra = {"system": "lorenz63", "dt_sample": lorenz.dt_sample}

    out = args.out or f"{args.system}_M{args.M}_seed{args.seed}.csv"
    write_snapshots(series, out, format="json" if out.endswith(".json") else "csv")
    extra.update({"m_samples": series.M, "n_obs": series.N})
    man = _manifest("manifest", args, seed=args.seed, extra=extra)
    man["output"] = {"path": out, "sha256": _sha256(out)}
    _write_json(man, out + ".manifest.json")
    print(f"wrote {series.M} x {series.N} snapshot pairs to {out}")
    return EXIT_OK


def cmd_edmd(args: argparse.Namespace) -> int:
    series = load_snapshots(args.data)
    modes, rcond = _series_fit(series, args.rcond_floor)
    artifact = {
        "schema": "specguard/v1/edmd",
        "manifest": _manifest("edmd", args, input_path=args.data),
        "rcond": rcond,
        "m_samples": series.M,
        "eigenvalues": [
            {
                "index": i,
                "re": m.eigenvalue.real,
                "im": m.eigenvalue.imag,
                "residual": m.residual,
            }
            for i, m in enumerate(modes)
        ],
    }
    _write_json(artifact, args.out)
    print(f"EDMD fit: N={series.N}, rcond={rcond:.3e}; wrote {args.out}")
    return EXIT_OK


def _grid_sweep(
    args: argparse.Namespace,
) -> tuple[SnapshotSeries, KernelSpec, list[str], SweepResult]:
    """The sweep/cluster prelude: load -> kernel -> settings -> grid -> sweep."""
    series = load_snapshots(args.data)
    kernel, warnings = _resolve_kernel(args, series)
    grid = GridSpec(args.re_min, args.re_max, args.n_re, args.im_min, args.im_max, args.n_im)
    result = sweep(grid, series, kernel, _settings(args), floor=args.rcond_floor)
    return series, kernel, warnings, result


def _status_counts(result: SweepResult) -> str:
    """How many grid points ended in each status, e.g. "7 converged, 2 max_iters, ..."."""
    statuses = (STATUS_CONVERGED, STATUS_MAX_ITERS, STATUS_AT_EIGENVALUE, STATUS_DEGENERATE_S)
    return ", ".join(f"{int(np.sum(result.status == s))} {s}" for s in statuses)


def cmd_sweep(args: argparse.Namespace) -> int:
    _, kernel, warnings, result = _grid_sweep(args)
    artifact = {
        "schema": "specguard/v1/sweep",
        "manifest": _manifest(
            "sweep", args, kernel=kernel, input_path=args.data, warnings=warnings
        ),
        "grid": result.to_json_dict(),
    }
    _write_json(artifact, args.out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(result.to_csv_text())
    print(f"swept {args.n_re}x{args.n_im} grid: {_status_counts(result)}; wrote {args.out}")
    return EXIT_OK


def cmd_test(args: argparse.Namespace) -> int:
    if not args.eigs and not args.point:
        raise UsageError("nothing to test: pass --eigs and/or --lambda")
    series = load_snapshots(args.data)
    kernel, warnings = _resolve_kernel(args, series)
    settings = _settings(args)
    alphas = tuple(args.alpha) if args.alpha else (0.05, 0.01)
    _check_alphas(alphas)

    rows = []
    if args.eigs:
        report = spectrum_test(series, kernel, settings, alphas=alphas, floor=args.rcond_floor)
        body = report.to_json_dict()
        for row in body["eigenvalues"]:
            row["source"] = "eigs"
            rows.append(row)
    if args.point:
        # All user points are one batch, estimated after the EDMD eigenvalues'.
        lams = [_parse_complex(text) for text in args.point]
        ests = _series_estimates(series, kernel, lams, settings, args.rcond_floor)
        for lam, est in zip(lams, ests):
            res = eig_test(lam, est, series.M, alphas=alphas)
            rows.append({"index": None, "residual": None, **res.to_json_dict(), "source": "user"})
    artifact = {
        "schema": "specguard/v1/report",
        "manifest": _manifest(
            "report", args, kernel=kernel, input_path=args.data, warnings=warnings
        ),
        "m_samples": series.M,
        "alphas": list(alphas),
        "results": rows,
    }
    _write_json(artifact, args.out)
    n_rej = sum(1 for r in rows if r["reject"].get(f"{alphas[0]:g}"))
    print(f"tested {len(rows)} points; {n_rej} rejected at alpha={alphas[0]}")
    return EXIT_OK


def cmd_cluster(args: argparse.Namespace) -> int:
    _check_level(args.level)
    series, kernel, warnings, result = _grid_sweep(args)
    modes, _ = _series_fit(series, args.rcond_floor)
    eigs = [m.eigenvalue for m in modes]
    report = cluster_eigenvalues(result, eigs, args.level, series.M)
    artifact = {
        "schema": "specguard/v1/clusters",
        "manifest": _manifest(
            "clusters", args, kernel=kernel, input_path=args.data, warnings=warnings
        ),
        "eigenvalues": [{"re": z.real, "im": z.imag} for z in eigs],
        "report": report.to_json_dict(),
        "grid": result.to_json_dict(),
    }
    _write_json(artifact, args.out)
    sizes = [len(c.eig_indices) for c in report.clusters]
    print(
        f"{len(report.clusters)} clusters at level {args.level:g} "
        f"(eigenvalue counts {sizes}); {len(report.unresolved)} unresolved; "
        f"grid: {_status_counts(result)}"
    )
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    results = run_oracle_checks(perturb=args.perturb, seeds=args.seeds)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    if args.out:
        artifact = {
            "schema": "specguard/v1/oracle-check",
            "manifest": _manifest("oracle-check", args),
            "perturb": args.perturb,
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }
        _write_json(artifact, args.out)
    if all(r.passed for r in results):
        print(f"oracle-check: {len(results)} checks passed")
        return EXIT_OK
    n_bad = sum(1 for r in results if not r.passed)
    print(f"oracle-check: {n_bad}/{len(results)} checks FAILED", file=sys.stderr)
    return EXIT_CHECK_FAILURE


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads -1e-3, -inf or -0.5+0.5j after a long option as its value, as argparse does not."""

    def parse_known_args(self, args=None, namespace=None):
        joined = [""]
        for tok in sys.argv[1:] if args is None else args:
            if re.match(r"-(\d|\.\d|inf|nan)", tok, re.I) and re.fullmatch(r"--[\w-]+", joined[-1]):
                joined[-1] += "=" + tok
            else:
                joined.append(tok)
        return super().parse_known_args(joined[1:], namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specguard",
        description="Certified pseudospectrum estimation for data-driven spectral analysis.",
    )
    parser.add_argument("--version", action="version", version=f"specguard {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared between subcommands, each defined once in a parent parser.
    io = argparse.ArgumentParser(add_help=False)   # edmd, sweep, test, cluster
    io.add_argument("--data", required=True,
                    help="snapshot file, CSV or JSON (told apart by its content)")
    io.add_argument("--rcond-floor", type=float, default=None,
                    help="override the singularity floor (default 1e-10*N) on the rcond of the "
                         "equilibrated Psi_XX and of C(lambda) in the whitened working basis")
    io.add_argument("--out", required=True, help="JSON output path")

    est = argparse.ArgumentParser(add_help=False)  # sweep, test, cluster
    kernel = est.add_mutually_exclusive_group(required=True)
    kernel.add_argument("--iid", action="store_true",
                        help="independent snapshot pairs (no window)")
    kernel.add_argument("--LM", type=int, metavar="L", help="window half-width L_M, directly")
    kernel.add_argument("--tau", metavar="T",
                        help="correlation time for the plug-in window ('auto' to estimate)")
    est.add_argument("--mu", metavar="SPEC",
                     help="slow modes to deflate: 'auto:K' picks the top K non-unit EDMD "
                          "eigenvalues; otherwise a comma-separated complex list")
    est.add_argument("--tol", type=float, default=0.1, help="bracket relative width")
    est.add_argument("--max-iters", type=int, default=200)

    grid = argparse.ArgumentParser(add_help=False)  # sweep, cluster
    grid.add_argument("--re-min", type=float, required=True)
    grid.add_argument("--re-max", type=float, required=True)
    grid.add_argument("--n-re", type=int, required=True)
    grid.add_argument("--im-min", type=float, required=True)
    grid.add_argument("--im-max", type=float, required=True)
    grid.add_argument("--n-im", type=int, required=True)

    p_gen = sub.add_parser("generate", help="sample a built-in system to a snapshot file")
    p_gen.add_argument("--system", choices=("var", "map1d", "lorenz63"), required=True)
    p_gen.add_argument("--mode", choices=("iid", "trajectory"),
                       help="sampling mode, map1d only (default iid)")
    p_gen.add_argument("--N", type=int,
                       help="trig dictionary size, map1d only (even; default 10)")
    p_gen.add_argument("--M", type=int, required=True, help="number of snapshot pairs")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="output path, JSON if it ends in .json, else CSV "
                                     "(default derived from flags, .csv)")
    p_gen.set_defaults(func=cmd_generate)

    p_edmd = sub.add_parser("edmd", parents=[io],
                            help="fit the EDMD matrix and report its spectrum")
    p_edmd.set_defaults(func=cmd_edmd)

    p_sweep = sub.add_parser("sweep", parents=[io, est, grid],
                             help="bracket the pseudospectrum over a grid, with "
                                  "log(lambda)/dt coordinates when the data has a dt")
    p_sweep.add_argument("--csv", help="optional CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_test = sub.add_parser("test", parents=[io, est],
                            help="eigenvalue tests at chosen spectral points")
    p_test.add_argument("--eigs", action="store_true",
                        help="test at every EDMD eigenvalue")
    p_test.add_argument("--lambda", dest="point", action="append", metavar="Z",
                        help="complex point to test (repeatable)")
    p_test.add_argument("--alpha", type=float, action="append",
                        help="test levels (repeatable; default 0.05 and 0.01)")
    p_test.set_defaults(func=cmd_test)

    p_clus = sub.add_parser("cluster", parents=[io, est, grid],
                            help="group eigenvalues by bracket sublevel sets")
    p_clus.add_argument("--level", type=float, required=True,
                        help="threshold on M * lower")
    p_clus.set_defaults(func=cmd_cluster)

    p_orc = sub.add_parser("oracle-check", help="run the internal consistency suite")
    p_orc.add_argument("--perturb", type=float, default=0.0,
                       help="negative control: perturb references by this factor")
    p_orc.add_argument("--seeds", type=int, default=1)
    p_orc.add_argument("--out", help="optional JSON report path")
    p_orc.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SpecguardError, OSError) as exc:  # OSError: a file that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
