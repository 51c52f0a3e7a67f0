#!/usr/bin/env python3
"""specguard benchmark: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/NOTES.md for why each exists):

    map1d-cluster    `specguard cluster` on a 41x41 grid, map1d N=10, M=3000
    phat-large-m     library `p_hat` at 4 user points, map1d M=100,000
    lorenz-windowed  Lorenz-63 N=151 EDMD fit + windowed 3x3 sweep; not
                     listed in BENCHMARK.json because its wall time follows
                     the seed's iteration count (see NOTES.md)

Run from the root of a source checkout; the package is imported from
``src/``.  The inputs are generated from ``--seed``.  The timed section is
repeated until ``--seconds`` have passed (at least once) and the medians
are reported.  Outputs are checked against independent reference paths
after timing; a failed check makes the run exit 1.

With ``--trace 0`` the result line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` one more execution runs with span
wrappers installed, a one-BLAS-thread baseline runs in a subprocess, and
the result line carries the per-layer metrics.  Every metric is printed
by name and unit before the result line, which is the last line of
standard output.  A full record (environment, samples, spans) is written
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Set-up (import + input generation) is done this many times per run.
SETUP_REPEATS = 3
#: One invocation, baseline subprocess included, must end within 180 s.
RUN_BUDGET_S = 170.0
OK_STATUSES = ("converged", "at_eigenvalue")

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import specguard.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="specguard benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one untraced execution, reported as JSON, for the
    # one-BLAS-thread baseline of a traced run.
    parser.add_argument("--baseline-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import specguard from the checkout's ``src/``; return the import time."""
    if not os.path.isfile(os.path.join(SRC, "specguard", "__init__.py")):
        raise BenchError(f"no specguard sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import specguard.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    import specguard

    if not os.path.abspath(specguard.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported specguard from {specguard.__file__}, not {SRC}")
    return elapsed


def _child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def import_time_fresh() -> float:
    """Import time of specguard in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=_child_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.split()[-1])


def _usage() -> tuple[float, float, int]:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime, r.ru_stime, r.ru_minflt


def timed_execution(workload, inputs):
    cpu0, sys0, flt0 = _usage()
    start = time.perf_counter()
    outcome = workload.execute(inputs)
    wall = time.perf_counter() - start
    cpu1, sys1, flt1 = _usage()
    return outcome, {
        "wall_s": wall, "cpu_s": cpu1 - cpu0, "sys_s": sys1 - sys0, "minor_faults": flt1 - flt0,
        "iterations": outcome.iterations,
    }


def measure(workload, inputs, seconds: float):
    """Repeat the timed section until ``seconds`` have passed (at least once)."""
    outcomes, samples = [], []
    start = time.perf_counter()
    while True:
        outcome, sample = timed_execution(workload, inputs)
        outcomes.append(outcome)
        samples.append(sample)
        if time.perf_counter() - start >= seconds:
            return outcomes, samples


def traced_execution(workload, inputs):
    from tracing import Tracer

    tracer = Tracer()
    with tracer.install():
        outcome, sample = timed_execution(workload, inputs)
    return tracer, outcome, sample


def run_baseline(script: str, args: argparse.Namespace, deadline: float) -> dict:
    """One untraced execution in a subprocess with OPENBLAS_NUM_THREADS=1."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("no time left for the one-BLAS-thread baseline")
    cmd = [sys.executable, script, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--baseline-child"]
    try:
        out = subprocess.run(cmd, env=_child_env({"OPENBLAS_NUM_THREADS": "1"}),
                             capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"one-BLAS-thread baseline exceeded {timeout:.0f} s") from None
    if out.returncode != 0:
        raise BenchError(f"one-BLAS-thread baseline failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def baseline_child(workload, seed: int, workdir: str) -> int:
    from envinfo import loaded_openblas

    inputs = workload.setup(seed, workdir)
    outcome, sample = timed_execution(workload, inputs)
    sample["artifact_sha256"] = _sha256(outcome.artifact)
    sample["blas"] = loaded_openblas()
    print(json.dumps(sample))
    return 0


def layer_metrics(workload, inputs, tracer, outcome, traced, untraced_wall, first, baseline, env):
    """Per-layer metrics of a traced run, as name -> (value, unit)."""
    from envinfo import blas_threads
    from workloads import STATUSES, variance_apply_cost

    summary = tracer.summary(traced["wall_s"])
    m: dict[str, tuple[float, str]] = {}
    for layer, calls in summary["calls"].items():
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (summary["self_s"][layer], "s")
    m["pseudospec.power_iterate.iterations"] = (summary["iterations"], "count")
    m["pseudospec.power_iterate.warm_starts"] = (summary["warm_starts"], "count")
    for status in STATUSES:
        m[f"pseudospec.status.{status}"] = (outcome.statuses.count(status), "count")
    flops, nbytes = variance_apply_cost(*workload.kernel_shape(inputs, outcome))
    m["variance.variance_apply.gflop_computed"] = (flops / 1e9, "gflop/call")
    m["variance.variance_apply.gbyte_computed"] = (nbytes / 1e9, "gbyte/call")
    m["proc.minor_faults"] = (first["minor_faults"], "count")
    m["proc.sys_s"] = (first["sys_s"], "s")
    m["trace.wall_s"] = (traced["wall_s"], "s")
    m["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    m["trace.coverage_frac"] = (summary["coverage_frac"], "fraction")
    m["blas1.wall_s"] = (baseline["wall_s"], "s")
    m["blas1.cpu_s"] = (baseline["cpu_s"], "s")
    m["env.nproc"] = (env["nproc"], "count")
    m["env.openblas64_threads"] = (blas_threads(env["blas"], "libscipy_openblas64_"), "count")
    m["env.openblas_threads"] = (blas_threads(env["blas"], "libscipy_openblas-"), "count")
    return m


def select_metrics(produced: dict, section: str) -> dict:
    """The metrics BENCHMARK.json names in ``section``, with their units checked."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)[section]
    out = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name not in produced:
            raise BenchError(f"metric {name} named in BENCHMARK.json was not produced")
        value, got_unit = produced[name]
        if got_unit != unit:
            raise BenchError(f"metric {name} has unit {got_unit}, BENCHMARK.json says {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def run(args: argparse.Namespace, registry: dict | None, script: str) -> int:
    started = time.perf_counter()
    # specguard (with numpy and scipy) is imported before any benchmark
    # module, so the in-process import time is comparable to a fresh one.
    import_s = [import_program()]
    from envinfo import environment_record

    if registry is None:
        from workloads import WORKLOADS as registry
    if args.workload not in registry:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(registry)}")
    workload = registry[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    try:
        if args.baseline_child:
            return baseline_child(workload, args.seed, workdir)

        gen_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            gen_s.append(time.perf_counter() - t0)
        import_s += [import_time_fresh() for _ in range(SETUP_REPEATS - 1)]

        outcomes, samples = measure(workload, inputs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = list(outcomes)
        if args.trace:
            tracer, traced_outcome, traced = traced_execution(workload, inputs)
            checked.append(traced_outcome)
        problems = workload.check(inputs, checked)
        env = environment_record(ROOT)
        if args.trace:
            baseline = run_baseline(script, args, started + RUN_BUDGET_S)
            if outcomes[0].artifact and baseline["artifact_sha256"] != _sha256(outcomes[0].artifact):
                problems.append("one-BLAS-thread artifact differs from the in-process artifact")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [s["wall_s"] for s in samples]
    statuses = [s for o in outcomes for s in o.statuses]
    attempted = len(statuses)
    failed = attempted if problems else sum(s not in OK_STATUSES for s in statuses)
    produced = {
        "wall_s": (statistics.median(walls), "s"),
        "points_per_s": (statistics.median(workload.points / w for w in walls), "1/s"),
        "cpu_s": (statistics.median(s["cpu_s"] for s in samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(import_s) + statistics.median(gen_s), "s"),
        "failed_frac": (failed / attempted, "fraction"),
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup": {"import_s": import_s, "gen_s": gen_s},
        "samples": samples, "problems": problems,
    }
    if args.trace:
        produced.update(layer_metrics(
            workload, inputs, tracer, traced_outcome, traced,
            produced["wall_s"][0], samples[0], baseline, env,
        ))
        record.update(baseline=baseline, traced_sample=traced, spans=tracer.span_records())
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in produced.items()}
    metrics = select_metrics(produced, "per_layer" if args.trace else "end_to_end")

    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in sorted(produced.items()):
        print(f"{name} = {value:.6g} {unit}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 1 if problems else 0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str] | None = None, registry: dict | None = None, script: str = __file__) -> int:
    args = parse_args(argv)
    try:
        return run(args, registry, script)
    except BenchError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
