"""Top-level acceptance suite: one test (and one pass/fail line under
``pytest -v``) per shipping criterion, plus smoke runs of the two example
pipelines.

Each criterion test asserts both the numeric tolerance and its wall-clock
budget, and prints the measured statistic for the record.
"""

from __future__ import annotations

import json
import time

import numpy as np
from numpy.testing import assert_allclose

from specguard.charmatrix import char_contexts, edmd_matrix, eigensystem, gram_matrices
from specguard.cli import main
from specguard.generators import (
    Lorenz63Spec,
    VarSpec,
    expanding_map_f,
    gen_expanding_map,
    gen_lorenz63,
    gen_var,
    var_benchmark_7d,
)
from specguard.ingest import (
    DictionarySpec,
    SnapshotSeries,
    delay_embed,
    evaluate_dictionary,
    write_snapshots,
)
from specguard.oracle import (
    QuadratureMoments,
    s_matrix_bruteforce,
    s_star_apply,
    var_p_exact,
    var_p_power,
)
from specguard.pseudospec import (
    STATUS_AT_EIGENVALUE,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    GridSpec,
    PowerIterSettings,
    _covariance,
    _s_at,
    p_hat,
    power_iterate,
    sweep,
)
from specguard.stats import cluster_eigenvalues
from specguard.variance import (
    KernelSpec,
    _RealIidCovariance,
    variance_apply,
    variance_apply_naive,
)

IID = KernelSpec.iid()


def _complex_randn(rng, m, n):
    return rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))


def _random_psd(rng, n):
    w = _complex_randn(rng, n, n)
    return w @ w.conj().T / n


def _map1d_series(m, seed, n_obs=10):
    x, y = gen_expanding_map(m, mode="iid", seed=seed)
    return evaluate_dictionary(
        x.reshape(-1, 1), y.reshape(-1, 1), DictionarySpec.trig(n_obs)
    )


def _scalar_ar_series(m, seed):
    spec = VarSpec(
        np.array([[0.5]]), np.array([[4.0 / 3.0]]), np.array([[1.0]]), seed=seed
    )
    x, y = gen_var(spec, m)
    return SnapshotSeries(x.astype(complex), y.astype(complex), "iid")


def _geometric_mid(est):
    return float(np.sqrt(max(est.lower, 0.0) * max(est.upper, 0.0)))


def test_c1_var_analytic_end_to_end():
    """Exact-operator power iteration brackets the VAR closed form."""
    t0 = time.monotonic()
    spec = var_benchmark_7d()
    eigs = np.linalg.eigvals(spec.a_matrix.T)
    settings = PowerIterSettings(rel_tol=1e-6, max_iters=1000)
    rng = np.random.default_rng(2024)
    worst_width = 0.0
    n_pts = 0
    while n_pts < 20:
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if not 0.9 <= abs(lam) <= 1.5 or np.min(np.abs(eigs - lam)) < 0.05:
            continue
        n_pts += 1
        est = var_p_power(spec, lam, settings)
        exact = var_p_exact(spec, lam)
        assert est.converged, f"no convergence at lam={lam:.4g}"
        ratio = est.upper / est.lower
        assert ratio <= 1.0 + 1e-6, f"bracket ratio {ratio} at lam={lam:.4g}"
        assert est.lower * (1 - 1e-9) <= exact <= est.upper * (1 + 1e-9), (
            f"closed form {exact:.9g} outside [{est.lower:.9g}, {est.upper:.9g}] "
            f"at lam={lam:.4g}"
        )
        worst_width = max(worst_width, ratio - 1.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"
    print(f"criterion 1: 20 points bracketed, worst ratio-1 {worst_width:.2e}, {elapsed:.1f}s")


def test_c2_bruteforce_operator_equivalence():
    """Certified data-path bracket contains 1/rho of the engine's dense S matrix.

    Each dataset runs as given, stored real, so S takes the real-iid tensor
    route; then times a common unit phase, stored complex, so S takes the
    per-point route.  The phase cancels in every C_m, so P is the same.
    """
    t0 = time.monotonic()
    for k in range(50):
        rng = np.random.default_rng(5000 + k)
        n = 2 + k % 5
        m = 200
        t = rng.uniform(-0.6, 0.6, size=(n, n))
        a = rng.normal(size=(m, n))
        b = a @ t.T + 0.3 * rng.normal(size=(m, n))
        lam = rng.uniform(1.0, 1.4) * np.exp(2j * np.pi * rng.uniform())
        phase = np.exp(2j * np.pi * rng.uniform())
        for route, factor in (("real", 1.0), ("complex", phase)):
            series = SnapshotSeries(factor * a, factor * b, "iid")
            assert (series.a.dtype == complex) == (route == "complex")
            _, rho = s_matrix_bruteforce(_s_at(series, IID, lam), n)
            est = p_hat(lam, series, IID)
            assert est.status in (STATUS_CONVERGED, STATUS_MAX_ITERS)
            target = 1.0 / rho
            assert est.lower * (1 - 1e-9) <= target <= est.upper * (1 + 1e-9), (
                f"dataset {k} (N={n}, {route}): 1/rho={target:.9g} outside "
                f"[{est.lower:.9g}, {est.upper:.9g}]"
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s (budget 60s)"
    print(f"criterion 2: 50/50 brackets contain 1/rho on both routes, {elapsed:.1f}s")


def _engine_v(q, lam, series, kernel):
    """V[Q] at one point as the estimates apply it, through the engine's covariance."""
    lams, c_hat, _, _, _ = char_contexts(gram_matrices(series), [lam])
    return _covariance(series, kernel)(lams, c_hat)(np.zeros(1, dtype=int), q[np.newaxis])[0]


def test_c3_fast_vs_naive_variance():
    """The engine's V equals the materialized reference estimator on both routes.

    20 complex windowed configs take the per-point kernel route; 20 real
    iid configs take the real-iid tensor route.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(40):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(200, 501))
        if k < 20:
            l_window = int(rng.integers(0, 21))
            mus = (float(rng.uniform(-0.7, 0.7)),) if k % 2 else ()
            kernel = KernelSpec.windowed(l_window, mus)
            series = SnapshotSeries(
                _complex_randn(rng, m, n), _complex_randn(rng, m, n), "trajectory"
            )
        else:
            l_window, kernel = 0, IID
            series = SnapshotSeries(rng.normal(size=(m, n)), rng.normal(size=(m, n)), "iid")
            assert _RealIidCovariance.applies(series, kernel)
        lam = complex(rng.uniform(-1.3, 1.3), rng.uniform(-1.3, 1.3))
        h = _complex_randn(rng, n, n)
        q = h + h.conj().T
        fast = _engine_v(q, lam, series, kernel)
        naive = variance_apply_naive(q, lam, series, kernel).result
        scale = max(float(np.linalg.norm(naive)), 1e-300)
        rel = float(np.linalg.norm(fast - naive)) / scale
        worst = max(worst, rel)
        assert rel <= 1e-10, f"config {k} (N={n}, M={m}, L={l_window}): rel {rel:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s (budget 30s)"
    print(f"criterion 3: 40 configs, worst rel deviation {worst:.2e}, {elapsed:.1f}s")


def test_c4_test_calibration():
    """Size of the eigenvalue test at the spectrum; power growth off it."""
    t0 = time.monotonic()
    n_reps = 2000
    stats = np.empty(n_reps)
    for rep in range(n_reps):
        series = _scalar_ar_series(2000, seed=rep)
        est = p_hat(0.5 + 0.0j, series, IID)
        stats[rep] = 2000 * max(est.lower, 0.0)
    freq = float(np.mean(stats > 3.84))
    assert freq <= 0.065, f"rejection frequency {freq:.4f} exceeds 0.065"

    medians = []
    for m in (500, 2000, 8000):
        vals = [
            m * max(p_hat(1.0 + 0.0j, _scalar_ar_series(m, seed=40_000 + rep), IID).lower, 0.0)
            for rep in range(200)
        ]
        medians.append(float(np.median(vals)))
    for lo, hi in zip(medians, medians[1:]):
        assert hi >= 3.0 * lo, f"median growth {medians} below 3x per 4x step"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s (budget 300s)"
    print(
        f"criterion 4: size {freq:.4f} at nominal 0.05; medians under H1 "
        f"{[round(v, 1) for v in medians]}, {elapsed:.1f}s"
    )


def test_c5_zero_at_eigenvalue():
    """p_hat pins an exact zero at every EDMD eigenvalue."""
    t0 = time.monotonic()
    series = _map1d_series(3000, seed=0)
    k_hat, _ = edmd_matrix(gram_matrices(series))
    for mode in eigensystem(k_hat):
        est = p_hat(mode.eigenvalue, series, IID)
        assert est.status == STATUS_AT_EIGENVALUE, (
            f"lam={mode.eigenvalue:.6g}: status {est.status}"
        )
        assert est.lower == 0.0 and est.upper == 0.0
        assert est.iterations == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.1f}s (budget 30s)"
    print(f"criterion 5: 10/10 eigenvalues pinned at zero, {elapsed:.1f}s")


def test_c6_consistency_of_the_estimator():
    """Relative error against the quadrature-exact value shrinks with M."""
    t0 = time.monotonic()
    lam = 1.3 + 0.0j
    qm = QuadratureMoments(expanding_map_f, DictionarySpec.trig(10), 160)
    ref = qm.p_exact(lam, PowerIterSettings(rel_tol=1e-8, max_iters=2000))
    assert ref.converged
    p_ref = _geometric_mid(ref)

    settings = PowerIterSettings(rel_tol=0.01, max_iters=500)
    medians = []
    for block, m in enumerate((1_000, 10_000, 100_000)):
        errs = []
        for rep in range(20):
            series = _map1d_series(m, seed=1 + 100 * block + rep)
            est = p_hat(lam, series, IID, settings)
            errs.append(abs(_geometric_mid(est) - p_ref) / p_ref)
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2], f"medians not decreasing: {medians}"
    assert medians[2] <= 0.15, f"median at M=1e5 is {medians[2]:.3f} > 0.15"
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"criterion 6 took {elapsed:.1f}s (budget 600s)"
    print(
        f"criterion 6: median rel errors {[round(v, 4) for v in medians]} "
        f"at M=1e3/1e4/1e5, {elapsed:.1f}s"
    )


def test_c7_clustering_reproduction():
    """The two leftmost eigenvalues resolve away from the bulk in most runs.

    Success means both eigenvalues land in sublevel clusters disjoint from
    the bulk component.  Whether the pair shares a single cluster at this
    level is a coin flip by construction: the inter-well cell sits at a true
    height of M*P ~ 0.8, and the estimator fluctuates by O(1) there (the
    same fluctuation scale the eigenvalue test is built on), so that
    stricter event holds in only about half the realizations.
    """
    t0 = time.monotonic()
    grid = GridSpec(-1.2, 1.2, 41, -1.2, 1.2, 41)
    resolved = paired = 0
    for seed in range(10):
        series = _map1d_series(3000, seed=seed)
        k_hat, _ = edmd_matrix(gram_matrices(series))
        eigs = [mode.eigenvalue for mode in eigensystem(k_hat)]
        result = sweep(grid, series, IID)
        report = cluster_eigenvalues(result, eigs, level=1.0, m_samples=series.M)
        i, j = sorted(range(len(eigs)), key=lambda k: eigs[k].real)[:2]
        ci, cj = report.cluster_of(i), report.cluster_of(j)
        off_bulk = (
            ci is not None
            and cj is not None
            and ci != report.bulk_index
            and cj != report.bulk_index
        )
        resolved += int(off_bulk)
        paired += int(off_bulk and ci == cj)
    assert resolved >= 7, f"leftmost pair resolved from bulk in only {resolved}/10 runs"
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0, f"criterion 7 took {elapsed:.1f}s (budget 900s)"
    print(
        f"criterion 7: leftmost pair resolved from bulk in {resolved}/10 runs "
        f"(sharing one cluster in {paired}/10), {elapsed:.1f}s"
    )


def test_c8_property_suites():
    """Structural invariants: PSD, linearity, adjointness, kernel spectra,
    bracket monotonicity, quadrature self-convergence."""
    t0 = time.monotonic()

    # PSD preservation of variance_apply, 200 trials
    rng = np.random.default_rng(808)
    for trial in range(200):
        n = 2 + trial % 4
        m = 120 + 40 * (trial % 3)
        series = SnapshotSeries(
            _complex_randn(rng, m, n), _complex_randn(rng, m, n), "trajectory"
        )
        kernel = IID if trial % 2 else KernelSpec.windowed(1 + trial % 3)
        lam = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        q = _random_psd(rng, n)
        out = variance_apply(q, lam, series, kernel).result
        floor = -1e-10 * max(1.0, float(np.linalg.norm(out)))
        assert np.linalg.eigvalsh(out)[0] >= floor, f"variance trial {trial}"

    # PSD preservation of the engine's S, 200 trials
    for trial in range(200):
        n = 2 + trial % 4
        series = SnapshotSeries(
            _complex_randn(rng, 150, n), _complex_randn(rng, 150, n), "trajectory"
        )
        kernel = IID if trial % 2 else KernelSpec.windowed(1 + trial % 2)
        lam = 1.2 * np.exp(2j * np.pi * rng.uniform())
        out = _s_at(series, kernel, lam)(_random_psd(rng, n))
        floor = -1e-10 * max(1.0, float(np.linalg.norm(out)))
        assert np.linalg.eigvalsh(out)[0] >= floor, f"S trial {trial}"

    # real-linearity of variance_apply
    for trial in range(20):
        n = 2 + trial % 3
        series = SnapshotSeries(
            _complex_randn(rng, 200, n), _complex_randn(rng, 200, n), "iid"
        )
        lam = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        h1, h2 = _complex_randn(rng, n, n), _complex_randn(rng, n, n)
        q1, q2 = h1 + h1.conj().T, h2 + h2.conj().T
        alpha, beta = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combo = variance_apply(alpha * q1 + beta * q2, lam, series, IID).result
        parts = (
            alpha * variance_apply(q1, lam, series, IID).result
            + beta * variance_apply(q2, lam, series, IID).result
        )
        scale = max(1.0, float(np.linalg.norm(parts)))
        assert float(np.linalg.norm(combo - parts)) <= 1e-11 * scale

    # adjointness of the oracle's S* against the engine's S
    for trial in range(20):
        n = 2 + trial % 3
        series = SnapshotSeries(
            _complex_randn(rng, 180, n), _complex_randn(rng, 180, n), "iid"
        )
        lam = 1.25 * np.exp(2j * np.pi * rng.uniform())
        q1, q2 = _random_psd(rng, n), _random_psd(rng, n)
        lhs = np.trace(_s_at(series, IID, lam)(q1).conj().T @ q2)
        rhs = np.trace(q1.conj().T @ s_star_apply(q2, lam, series, IID))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    # kernel Fourier non-negativity
    for l_window in (1, 2, 5, 10, 20):
        for mus in ((), (0.5,), (-0.6,), (0.2 + 0.7j, 0.2 - 0.7j), (0.3, -0.4)):
            kernel = KernelSpec.windowed(l_window, mus)
            assert kernel.min_fourier() >= -1e-8, f"L={l_window}, mu={mus}"

    # bracket monotonicity statistic across power iterations
    total = monotone = 0
    for trial in range(30):
        n = 2 + trial % 4
        series = SnapshotSeries(
            _complex_randn(rng, 200, n), _complex_randn(rng, 200, n), "iid"
        )
        lam = 1.2 * np.exp(2j * np.pi * rng.uniform())
        history: list = []
        power_iterate(
            _s_at(series, IID, lam),
            n,
            PowerIterSettings(rel_tol=1e-4, max_iters=300),
            history,
        )
        for (lo0, hi0), (lo1, hi1) in zip(history, history[1:]):
            total += 1
            monotone += int(lo1 >= lo0 * (1 - 1e-9) and hi1 <= hi0 * (1 + 1e-9))
    stat = monotone / total
    assert stat >= 0.95, f"bracket monotonicity statistic {stat:.3f} < 0.95"

    # quadrature self-convergence under node doubling
    dict_spec = DictionarySpec.trig(10)
    coarse = QuadratureMoments(expanding_map_f, dict_spec, 8 * 10)
    fine = QuadratureMoments(expanding_map_f, dict_spec, 16 * 10)
    drift = max(
        float(np.max(np.abs(coarse.psi_xx - fine.psi_xx))),
        float(np.max(np.abs(coarse.psi_xy - fine.psi_xy))),
    )
    assert drift < 1e-10, f"quadrature drift {drift:.2e}"

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 8 took {elapsed:.1f}s (budget 120s)"
    print(
        f"criterion 8: 400 PSD trials, monotonicity {stat:.3f}, "
        f"quadrature drift {drift:.2e}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# Example pipelines (documented in docs/; smoke-level assertions only)
# ---------------------------------------------------------------------------


def test_lorenz63_pipeline_smoke():
    """Chaotic-attractor pipeline completes and pins the neutral mode."""
    lorenz = Lorenz63Spec(seed=3)
    dict_spec = DictionarySpec.monomial_delay(3, 10, 3)
    raw = gen_lorenz63(lorenz, 2000 + dict_spec.n_delays)
    series = delay_embed(raw, dict_spec, step=1, dt=lorenz.dt_sample)
    assert series.N == 151 and series.M == 2000

    floor = 1e-12
    k_hat, rcond = edmd_matrix(gram_matrices(series), floor)
    assert rcond >= floor
    modes = eigensystem(k_hat)
    assert abs(modes[0].eigenvalue - 1.0) < 1e-8  # constant observable

    from specguard.variance import default_mu_list

    mus, _ = default_mu_list([m.eigenvalue for m in modes], 9)
    kernel = KernelSpec.windowed(20, mus)
    grid = GridSpec(0.9, 1.1, 3, -0.1, 0.1, 3)
    result = sweep(
        grid, series, kernel, PowerIterSettings(rel_tol=0.5, max_iters=60), floor=floor
    )
    statuses = set(result.status.ravel())
    assert statuses <= {"converged", "max_iters", "at_eigenvalue", "degenerate_s"}
    assert int(np.sum(result.status == "converged")) >= 6
    # eigenvalue #0 (lambda ~ 1) sits in a zero-P-hat cell at the grid center
    assert result.status[1, 1] == STATUS_AT_EIGENVALUE
    assert result.lower[1, 1] == 0.0 and result.upper[1, 1] == 0.0


def test_external_snapshot_pipeline_smoke(tmp_path, capsys):
    """The documented external-data workflow (ingest -> edmd -> sweep) runs
    end to end on a trajectory file with a neutral mode."""
    rng = np.random.default_rng(11)
    steps = 800
    decay = np.array([0.8, 0.6, 0.35])
    z = np.zeros((steps + 1, 3))
    z[0] = rng.normal(size=3)
    for t in range(steps):
        z[t + 1] = decay * z[t] + 0.3 * rng.normal(size=3)
    feats = np.column_stack([np.ones(steps + 1), z])
    series = SnapshotSeries(feats[:-1], feats[1:], "trajectory", dt=0.05)
    data = tmp_path / "external.csv"
    write_snapshots(series, str(data), format="csv")

    edmd_out = tmp_path / "edmd.json"
    assert main(["edmd", "--data", str(data), "--out", str(edmd_out)]) == 0
    lead = json.loads(edmd_out.read_text())["eigenvalues"][0]
    assert_allclose(complex(lead["re"], lead["im"]), 1.0 + 0.0j, atol=1e-12)

    sweep_out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep", "--data", str(data),
            "--re-min", "0.9", "--re-max", "1.1", "--n-re", "3",
            "--im-min", "-0.1", "--im-max", "0.1", "--n-im", "3",
            "--tau", "auto", "--mu", "auto:3", "--tol", "0.5",
            "--log-time", "0.05", "--out", str(sweep_out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    grid = json.loads(sweep_out.read_text())["grid"]
    flat = {s for row in grid["status"] for s in row}
    assert flat <= {"converged", "max_iters", "at_eigenvalue", "degenerate_s"}
    # the neutral mode's cell reports an exact zero bracket
    assert grid["status"][1][1] == "at_eigenvalue"
    assert grid["lower"][1][1] == 0.0
