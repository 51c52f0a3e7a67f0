"""BLAS thread control: one thread over each sweep, estimate and fit, the
caller's counts restored afterwards, and results that do not depend on the
thread setting the process started with.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import specguard
from specguard import _blas, charmatrix, cli, pseudospec, stats, variance
from specguard.charmatrix import gram_matrices
from specguard.cli import main
from specguard.ingest import SnapshotSeries
from specguard.pseudospec import (
    GridSpec,
    PowerIterSettings,
    _estimate_points,
    p_hat,
    sweep,
)
from specguard.variance import KernelSpec

COPIES = _blas._discover()
FEW_ITERS = PowerIterSettings(rel_tol=1e-12, max_iters=3)
pytestmark = pytest.mark.skipif(
    not COPIES, reason="no OpenBLAS copy with a known thread-count symbol is loaded"
)


def _counts() -> list[int]:
    return [get() for get, _ in COPIES]


@pytest.fixture
def two_threads():
    """Every copy at 2 threads for the test; the original counts after."""
    original = _counts()
    for _, set_ in COPIES:
        set_(2)
    yield
    for (_, set_), count in zip(COPIES, original):
        set_(count)


def _series(m=400, n=4, seed=0, real=False):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n)) + (0 if real else 1j) * rng.normal(size=(m, n))
    b = rng.normal(size=(m, n)) + (0 if real else 1j) * rng.normal(size=(m, n))
    return SnapshotSeries(a, b, "iid")


def _estimate(v, settings=None, lam=1.3 + 0.2j):
    """The one estimate at ``lam`` on a fixed series, with V = ``v``, so that S[Q] = v(W)."""
    (est,) = _estimate_points(gram_matrices(_series()), lambda lams, c_hat: v, [lam], settings)
    return est


def test_every_mapped_openblas_file_is_found():
    # Discovery and the maps are read at the same moment: a later import
    # (scipy's own OpenBLAS, say) can map another copy after collection.
    found = _blas._discover()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.rsplit(" ", 1)[-1].strip() for line in fh}
    mapped = {p for p in paths if "openblas" in os.path.basename(p)}
    assert len(found) == len(mapped)


def test_v_runs_on_one_thread(two_threads):
    seen = []

    def v(w):
        seen.append(_counts())
        return w

    est = _estimate(v, FEW_ITERS)
    assert len(seen) == est.iterations > 1
    assert all(counts == [1] * len(COPIES) for counts in seen)
    assert _counts() == [2] * len(COPIES)


def test_the_series_memo_fills_on_one_thread(two_threads):
    series, seen = _series(real=True), []
    series._memo.get_or_build("probe", lambda: seen.append(_counts()))
    series._memo.get_or_build("probe", lambda: seen.append(_counts()))
    assert seen == [[1] * len(COPIES)]
    assert _counts() == [2] * len(COPIES)


def test_restored_after_p_hat(two_threads):
    p_hat(1.3 + 0.2j, _series(), KernelSpec.iid())
    assert _counts() == [2] * len(COPIES)


def test_row_pool_runs_on_one_thread_and_restores(two_threads, monkeypatch):
    seen = []
    streamed = variance._streamed

    def recording_streamed(*args):
        bind = streamed(*args)

        def recording_bind(lams, c_hat):
            half = bind(lams, c_hat)

            def recording_half(w):
                seen.extend([_counts()] * len(w))
                return half(w)

            return recording_half

        return recording_bind

    monkeypatch.setattr(variance, "_streamed", recording_streamed)
    result = sweep(GridSpec(1.1, 1.5, 4, -0.3, 0.3, 6), _series(), KernelSpec.iid())
    assert result.iterations.sum() == len(seen) > 0
    assert all(counts == [1] * len(COPIES) for counts in seen)
    assert _counts() == [2] * len(COPIES)


@pytest.mark.parametrize("entry", ["sweep", "p_hat", "spectrum_test"])
def test_fit_and_char_context_run_on_one_thread(two_threads, monkeypatch, entry):
    seen = {}

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            seen.setdefault(name, []).append(_counts())
            return fn(*args, **kwargs)

        return wrapped

    for module in (charmatrix, pseudospec, stats):
        for name in ("gram_matrices", "char_contexts", "edmd_matrix", "eigensystem"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    series = _series(real=True)
    if entry == "sweep":
        sweep(GridSpec(1.1, 1.5, 3, -0.3, 0.3, 3), series, KernelSpec.iid())
    elif entry == "p_hat":
        p_hat(1.3 + 0.2j, series, KernelSpec.iid())
    else:
        stats.spectrum_test(series, KernelSpec.iid())
    # Every entry point inverts its characteristic matrices through char_contexts.
    assert {"gram_matrices", "char_contexts"} <= set(seen)
    if entry == "spectrum_test":
        assert {"edmd_matrix", "eigensystem"} <= set(seen)
    assert all(counts == [1] * len(COPIES) for calls in seen.values() for counts in calls)
    assert _counts() == [2] * len(COPIES)


GRID_3X3 = ["--re-min", "-1", "--re-max", "1", "--n-re", "3",
            "--im-min", "-1", "--im-max", "1", "--n-im", "3"]


@pytest.mark.parametrize("argv, fits", [
    pytest.param(["cluster", "--iid", "--level", "1.0", *GRID_3X3],
                 ["edmd_matrix", "eigensystem"], id="cluster"),
    pytest.param(["sweep", "--LM", "3", "--mu", "auto:2", *GRID_3X3],
                 ["edmd_matrix", "eigensystem"], id="sweep-mu-auto"),
    pytest.param(["test", "--tau", "auto", "--lambda", "1.3"], ["estimate_tau"],
                 id="test-tau-auto"),
    pytest.param(["edmd"], ["edmd_matrix", "eigensystem"], id="edmd"),
])
def test_every_cli_fit_runs_on_one_thread(two_threads, monkeypatch, tmp_path, argv, fits):
    data = tmp_path / "map.csv"
    assert main(["generate", "--system", "map1d", "--M", "300", "--N", "4",
                 "--seed", "4", "--out", str(data)]) == 0
    seen = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            seen.append((name, _counts()))
            return fn(*args, **kwargs)

        return wrapped

    for module, name in ((charmatrix, "edmd_matrix"), (charmatrix, "eigensystem"),
                         (cli, "estimate_tau")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    command, *flags = argv
    assert main([command, "--data", str(data), *flags, "--out", str(tmp_path / "a.json")]) == 0
    assert seen == [(name, [1] * len(COPIES)) for name in fits]
    assert _counts() == [2] * len(COPIES)


def test_restored_when_the_estimate_raises(two_threads):
    def fail(*_):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        _estimate(fail)
    assert _counts() == [2] * len(COPIES)


def test_nested_scopes_restore_at_the_outermost_exit(two_threads):
    with _blas.single_thread():
        with _blas.single_thread():
            assert _counts() == [1] * len(COPIES)
        assert _counts() == [1] * len(COPIES)
    assert _counts() == [2] * len(COPIES)


def test_concurrent_scopes_never_restore_early(two_threads):
    errors = []

    def worker():
        for _ in range(200):
            with _blas.single_thread():
                with _blas.single_thread():
                    if _counts() != [1] * len(COPIES):
                        errors.append(_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    assert _blas._depth == 0
    assert _counts() == [2] * len(COPIES)


def test_no_copy_found_is_a_no_op(two_threads, monkeypatch):
    monkeypatch.setattr(_blas, "_libraries", None)
    monkeypatch.setattr(_blas, "_discover", lambda: [])
    with _blas.single_thread():
        assert _counts() == [2] * len(COPIES)
    est = _estimate(lambda w: w, FEW_ITERS)
    assert est.iterations == FEW_ITERS.max_iters
    assert _counts() == [2] * len(COPIES)


def test_artifacts_do_not_depend_on_the_starting_thread_count(tmp_path):
    data = tmp_path / "map.csv"
    assert main(["generate", "--system", "map1d", "--M", "1000", "--N", "8",
                 "--seed", "4", "--out", str(data)]) == 0
    src = str(Path(specguard.__file__).resolve().parents[1])
    outputs = []
    for count in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "SPECGUARD_THREADS"}
        env["OPENBLAS_NUM_THREADS"] = count
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run_dir = tmp_path / f"threads{count}"
        run_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "specguard", "sweep", "--data", str(data),
             "--re-min", "-1.2", "--re-max", "1.2", "--n-re", "7",
             "--im-min", "-1.2", "--im-max", "1.2", "--n-im", "5",
             "--iid", "--out", "s.json", "--csv", "s.csv"],
            cwd=run_dir, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(((run_dir / "s.json").read_bytes(), (run_dir / "s.csv").read_bytes()))
    assert outputs[0] == outputs[1]
