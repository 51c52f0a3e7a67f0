#!/usr/bin/env python3
"""Self-test of the benchmark: its checks bite and it emits every metric.

    python3 bench/selftest.py

Runs each workload at a small size and asserts that

1. unmodified outputs pass every check;
2. each perturbed bracket or artifact below fails its workload's check;
3. ``run.main`` with ``--trace 0`` and ``--trace 1`` prints a result line
   carrying exactly the metrics BENCHMARK.json lists, with their units;
4. ``run.main`` exits 1 with ``"correct": false`` when the timed code
   returns a wrong bracket;
5. in a directory holding only BENCHMARK.json and bench/, the benchmark
   exits nonzero without printing a result.

Exits 0 when all of them hold.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
from workloads import LorenzWindowed, Map1dCluster, PhatLargeM

SMALL = {
    w.name: w
    for w in (
        Map1dCluster(name="map1d-cluster-selftest", m_samples=400, n_grid=9),
        PhatLargeM(name="phat-large-m-selftest", m_samples=3000),
        LorenzWindowed(name="lorenz-windowed-selftest", m_samples=400, n_delays=3,
                       l_window=5, top_k=3, naive_samples=40),
    )
}
SEED = 5


@dataclasses.dataclass(frozen=True)
class ShiftedPhat(PhatLargeM):
    """Returns a converged-looking bracket three times too high."""

    def execute(self, inputs):
        out = super().execute(inputs)
        out.lower[0] *= 3.0
        out.upper[0] *= 3.0
        return out


def _edit(outcome, field: str, idx: int, value):
    out = copy.deepcopy(outcome)
    getattr(out, field)[idx] = value
    return out


def perturbations(workload, good) -> dict[str, list]:
    """Output sets, each with one defect the workload's check must catch."""
    i = next(k for k, s in enumerate(good.statuses) if s == "converged")
    cases = {
        "upper below lower": [_edit(good, "upper", i, good.lower[i] * 0.5)],
        "converged bracket too wide": [
            _edit(good, "upper", i, good.lower[i] * (2.0 + workload.rel_tol))
        ],
    }
    if isinstance(workload, Map1dCluster):
        j = workload.sample_cells()[0]
        shifted = _edit(good, "lower", j, good.lower[j] * 3)
        cases["sampled cell off the reference"] = [_edit(shifted, "upper", j, good.upper[j] * 3)]
        flipped = copy.deepcopy(good)
        flipped.artifact = good.artifact.replace(b"converged", b"convergeD", 1)
        cases["second artifact differs"] = [good, flipped]
        failed_cli = copy.deepcopy(good)
        failed_cli.extra["exit_code"] = 3
        cases["cli exit code"] = [failed_cli]
        moved = copy.deepcopy(good)
        moved.extra["eigenvalues"][0]["re"] += 1e-6
        cases["eigenvalue moved"] = [moved]
    else:
        cases["second execution differs"] = [
            good, _edit(good, "lower", i, good.lower[i] * (1 + 1e-12))
        ]
    if isinstance(workload, PhatLargeM):
        shifted = _edit(good, "lower", 0, good.lower[0] * 3)
        cases["bracket off the reference"] = [_edit(shifted, "upper", 0, good.upper[0] * 3)]
    if isinstance(workload, LorenzWindowed):
        c = workload.points // 2
        cases["centre cell not at_eigenvalue"] = [
            _edit(_edit(good, "statuses", c, "converged"), "upper", c, 1e-3)
        ]
    return cases


def check_perturbations(failures: list[str]) -> None:
    import specguard.variance as variance

    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        for workload in SMALL.values():
            inputs = workload.setup(SEED, workdir)
            good = workload.execute(inputs)
            problems = workload.check(inputs, [good, workload.execute(inputs)])
            if problems:
                failures.append(f"{workload.name}: clean outputs fail: {problems[:3]}")
                continue
            for label, outcomes in perturbations(workload, good).items():
                if not workload.check(inputs, outcomes):
                    failures.append(f"{workload.name}: check passed a perturbed output ({label})")
            if isinstance(workload, LorenzWindowed):
                original = variance.variance_apply

                def skewed(*args, **kwargs):
                    res = original(*args, **kwargs)
                    return dataclasses.replace(res, result=res.result * (1 + 1e-8))

                variance.variance_apply = skewed
                try:
                    if not workload.check(inputs, [good]):
                        failures.append(f"{workload.name}: check passed a skewed variance_apply")
                finally:
                    variance.variance_apply = original
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_main(registry: dict, name: str, trace: int) -> tuple[int, dict | None]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(
            ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
            registry=registry, script=os.path.abspath(__file__),
        )
    lines = buf.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else None


def check_emission(failures: list[str]) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for name in SMALL:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = _run_main(SMALL, name, trace)
            if code != 0 or result is None:
                failures.append(f"{name} trace {trace}: exit {code}")
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(want))} mismatch")
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
                failures.append(f"{name} trace {trace}: bad result keys or incorrect: {sorted(result)}")
    broken = ShiftedPhat(name="phat-shifted-selftest", m_samples=3000)
    code, result = _run_main({broken.name: broken}, broken.name, 0)
    if code != 1 or result is None or result["correct"] or result["failed"] != result["attempted"]:
        failures.append(f"a wrong bracket did not fail the run (exit {code}, result {result})")


def check_bare_directory(failures: list[str]) -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "phat-large-m", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        if out.returncode == 0 or '"correct"' in out.stdout:
            failures.append(f"bare directory run exited {out.returncode} with output {out.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    failures: list[str] = []
    run.import_program()
    check_perturbations(failures)
    check_emission(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    if "--baseline-child" in sys.argv:
        # Baseline subprocess of a traced run started by check_emission.
        sys.exit(run.main(sys.argv[1:], registry=SMALL, script=os.path.abspath(__file__)))
    sys.exit(main())
