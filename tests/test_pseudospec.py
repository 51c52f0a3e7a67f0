"""Certified power iteration, the operator appliers, and grid sweeps."""

from __future__ import annotations

import gc
import json
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from specguard.charmatrix import edmd_matrix, eigensystem, gram_matrices
from specguard.errors import (
    AtEigenvalueError,
    FormatError,
    NumericError,
    ShapeError,
    UnsupportedModeError,
    WindowTooLargeError,
)
from specguard.generators import gen_expanding_map
from specguard.ingest import DictionarySpec, SnapshotSeries, evaluate_dictionary
from specguard.oracle import s_matrix_bruteforce, s_star_apply
from specguard.pseudospec import (
    GridSpec,
    PEstimate,
    PowerIterSettings,
    STATUS_AT_EIGENVALUE,
    STATUS_CONVERGED,
    STATUS_DEGENERATE_S,
    STATUS_MAX_ITERS,
    _pencil,
    _s_at,
    p_hat,
    power_iterate,
    sweep,
)
from specguard import charmatrix, pseudospec, stats, variance
from specguard.charmatrix import char_contexts
from specguard.cli import main
from specguard.variance import (
    KernelSpec,
    _covariance,
    _RealIidCovariance,
    variance_apply,
    variance_apply_naive,
)


def _series(m, n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    b = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    return SnapshotSeries(a, b, "iid")


def _random_psd(n, seed, definite=True):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    out = w @ w.conj().T / n
    if definite:
        out += 1e-6 * np.eye(n)
    return out


def _one_point(series, kernel, lam, settings, start):
    """The estimate at ``lam`` alone, as a one-point batch that starts from ``start``.

    Like every estimate it runs on the series' whitened working copy.
    """
    work = charmatrix._working(series)[0]
    v = _covariance(work, kernel)
    gram = charmatrix._series_gram(work)
    (est,) = pseudospec._estimate_points(gram, v, [lam], settings, starts=[start])
    return est


def _sample_arrays(obj, series, seen=None):
    """Arrays with a dimension of M that ``obj`` holds, through containers, memos and
    attributes, other than the series' own a and b."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj] if series.M in obj.shape and obj is not series.a and obj is not series.b else []
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        children = vars(obj).values() if hasattr(obj, "__dict__") else ()
    return [x for child in children for x in _sample_arrays(child, series, seen)]


def _congruence_operator(n, seed, terms=4):
    """Random PSD-preserving map Q -> sum_k D_k^* Q D_k."""
    rng = np.random.default_rng(seed)
    ds = [
        (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        for _ in range(terms)
    ]

    def apply_s(q):
        return sum(d.conj().T @ q @ d for d in ds)

    return apply_s


def _bracket(q: np.ndarray, s_of_q: np.ndarray) -> tuple[float, float]:
    """The pencil's (lower, upper) for one pair, on one-point stacks; S[Q] must factor."""
    lo, hi, _, failed, _ = _pencil(np.asarray(q, complex)[None], np.asarray(s_of_q, complex)[None])
    assert not failed[0]
    return float(lo[0]), float(hi[0])


def _edit_the_stream(monkeypatch, edit):
    """Pass each stack of halves P of ``variance._streamed`` through ``edit(lams, w, halves)``."""
    streamed = variance._streamed

    def edited(*args):
        bind = streamed(*args)

        def edited_bind(lams, c_hat):
            half = bind(lams, c_hat)
            return lambda w: edit(lams, w, half(w))

        return edited_bind

    monkeypatch.setattr(variance, "_streamed", edited)


def _half_by_the_expansion(q, ut, vt, c_hat, kernel):
    """P of U = P + P^* at one point, summed over all M samples at once from the (N, M) factors.

    P = (1/M) sum_m ( sum_l kt(l) (u_{m+l}^* Q u_m) v_{m+l} ) v_m^*
        + (1/M) sum_{j=1}^{Lt} w_j ( C_j^* Q C + C^* Q C_{M-j+1} ),  w_j = sum_{l >= j} kt(l).
    """
    m = ut.shape[1]
    kt, lt = kernel.tilde_weights(), kernel.half_width
    qu = q @ ut
    acc = np.zeros_like(vt)
    for lag in range(lt + 1):
        inner = np.sum(ut[:, lag:].conj() * qu[:, : m - lag], axis=0)
        acc[:, : m - lag] += kt[lag] * (vt[:, lag:] * inner[np.newaxis, :])
    half = acc @ vt.conj().T / m
    if lt > 0:
        w = np.cumsum(kt[::-1])[::-1][1:]
        head = (vt[:, :lt] * w[np.newaxis, :]) @ (ut[:, :lt].conj().T @ (q @ c_hat))
        idx = m - 1 - np.arange(lt)
        tail = ((c_hat.conj().T @ q @ ut[:, idx]) * w[np.newaxis, :]) @ vt[:, idx].conj().T
        half += (head + tail) / m
    return half


class TestBracket:
    def test_an_indefinite_s_fails_the_pencil(self):
        # Positive trace, so the round-off ridge is tried, and fails.
        s = np.diag([2.0, -1.0]).astype(complex)
        _, _, ridged, failed, _ = _pencil(np.eye(2, dtype=complex)[None] / 2, s[None])
        assert failed[0] and ridged[0]

    def test_fixed_direction_collapses(self):
        s = _random_psd(3, 1)
        lo, hi = _bracket(s, s)
        assert_allclose([lo, hi], [1.0, 1.0], atol=1e-12)

    def test_diagonal_pin(self):
        q = np.diag([1.0, 2.0]).astype(complex)
        lo, hi = _bracket(q, np.eye(2, dtype=complex))
        assert_allclose([lo, hi], [1.0, 2.0], atol=1e-12)

    def test_scaling_in_s(self):
        q = _random_psd(4, 2)
        s = _random_psd(4, 3)
        lo, hi = _bracket(q, s)
        lo2, hi2 = _bracket(q, 2.0 * s)
        assert_allclose([lo2, hi2], [lo / 2.0, hi / 2.0], rtol=1e-11)

    def test_contains_reciprocal_spectral_radius(self):
        """Pencil endpoints must straddle 1/rho(S) for PSD-preserving S."""
        for seed in range(20):
            n = 2 + seed % 4
            apply_s = _congruence_operator(n, seed)
            _, rho = s_matrix_bruteforce(apply_s, n)
            q = _random_psd(n, 1000 + seed)
            lo, hi = _bracket(q, apply_s(q))
            assert lo <= 1.0 / rho <= hi, (seed, lo, 1.0 / rho, hi)


class TestPowerIterate:
    def test_scalar_multiple_converges_immediately(self):
        est = power_iterate(lambda q: 2.5 * q, dim=3)
        assert est.status == STATUS_CONVERGED
        assert est.iterations == 1
        assert_allclose([est.lower, est.upper], [0.4, 0.4], atol=1e-13)

    def test_congruence_operator_bracket(self):
        for seed in (0, 7, 42):
            n = 3
            apply_s = _congruence_operator(n, seed)
            _, rho = s_matrix_bruteforce(apply_s, n)
            est = power_iterate(apply_s, n, PowerIterSettings(rel_tol=1e-8, max_iters=500))
            assert est.status == STATUS_CONVERGED
            assert est.lower <= 1.0 / rho <= est.upper
            assert est.upper / est.lower <= 1.0 + 1e-8

    @pytest.mark.parametrize(
        "settings, status",
        [
            (PowerIterSettings(rel_tol=0.05), STATUS_CONVERGED),
            (PowerIterSettings(rel_tol=1e-12, max_iters=3), STATUS_MAX_ITERS),
        ],
        ids=["converged", "max_iters"],
    )
    def test_q_final_certifies_returned_bracket(self, settings, status):
        apply_s = _congruence_operator(4, 5)
        est = power_iterate(apply_s, 4, settings)
        assert est.status == status
        lo, hi = _bracket(est.q_final, apply_s(est.q_final))
        assert_allclose([max(lo, 0.0), hi], [est.lower, est.upper], rtol=1e-10)

    def test_iterates_stay_trace_one_psd(self):
        apply_s = _congruence_operator(3, 9)
        est = power_iterate(apply_s, 3, PowerIterSettings(rel_tol=1e-6, max_iters=300))
        q = est.q_final
        assert_allclose(np.trace(q).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(q)[0] >= -1e-12

    def test_history_and_monotone_tightening(self):
        hist: list = []
        apply_s = _congruence_operator(5, 11)
        est = power_iterate(
            apply_s, 5, PowerIterSettings(rel_tol=1e-9, max_iters=400), history=hist
        )
        assert len(hist) == est.iterations
        lows = np.array([h[0] for h in hist])
        ups = np.array([h[1] for h in hist])
        steps = len(hist) - 1
        good = np.sum(np.diff(lows) >= -1e-12) + np.sum(np.diff(ups) <= 1e-12)
        assert good >= 0.95 * 2 * steps

    def test_max_iters_status_keeps_valid_bracket(self):
        apply_s = _congruence_operator(4, 13)
        _, rho = s_matrix_bruteforce(apply_s, 4)
        est = power_iterate(apply_s, 4, PowerIterSettings(rel_tol=1e-12, max_iters=3))
        assert est.status == STATUS_MAX_ITERS
        assert est.iterations == 3
        assert est.lower <= 1.0 / rho <= est.upper

    def test_zero_operator_degenerates(self):
        est = power_iterate(lambda q: np.zeros_like(q), dim=3)
        assert est.status == STATUS_DEGENERATE_S
        assert est.lower == 0.0
        assert est.upper == float("inf")

    def test_negative_operator_degenerates(self):
        est = power_iterate(lambda q: -q, dim=2)
        assert est.status == STATUS_DEGENERATE_S

    def test_ridged_step_reports_no_upper_bound(self):
        # A rank-one S[Q] has no Cholesky factor until ridged; the ridged
        # pencil's sigma_max undercuts the true one, so it is no bound.
        u = np.array([1.0, 1.0j])
        p = np.outer(u, u.conj())
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(p)
        lo, hi = _bracket(np.eye(2, dtype=complex) / 2, p)
        assert hi == float("inf")
        assert_allclose(lo, 0.25, rtol=1e-10)
        hist: list = []
        est = power_iterate(
            lambda q: np.trace(q).real * p, 2, PowerIterSettings(max_iters=4), history=hist
        )
        # Step 2 pins Q to S[Q]: without the inf upper it would "converge".
        assert [h[1] for h in hist] == [float("inf")] * 4
        assert not est.converged
        assert est.status == STATUS_MAX_ITERS
        assert est.upper == float("inf") and est.lower > 0.0
        assert est.jitter_applied

    def test_ridge_in_a_batch_leaves_the_other_points_alone(self):
        u = np.array([1.0, 1.0j])
        q = np.stack([np.eye(2, dtype=complex) / 2, _random_psd(2, 3)])
        s = np.stack([np.outer(u, u.conj()), _random_psd(2, 4)])
        lo, hi, ridged, failed, _ = _pencil(q, s)
        assert ridged.tolist() == [True, False] and not failed.any()
        assert hi[0] == float("inf")
        alone = _bracket(q[1], s[1])
        assert (lo[1], hi[1]) == alone

    def test_a_mixed_batch_gives_each_point_its_lone_estimate(self):
        """Points that leave one batch at different steps, in different ways, match their lone runs."""
        n = 3
        rng = np.random.default_rng(1)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        p = _random_psd(n, 5)
        u = np.array([1.0, 1.0j, -1.0])
        exits = [  # (applier, status, iterations, jitter_applied)
            (_congruence_operator(n, 4, terms=8), STATUS_MAX_ITERS, 8, False),
            (lambda q: 2.5 * q, STATUS_CONVERGED, 1, False),
            # Rank one: every step's S[Q] factors only once ridged.
            (lambda q: np.trace(q).real * np.outer(u, u.conj()), STATUS_MAX_ITERS, 8, True),
            # Definite at I / N; at the next iterate indefinite, with a positive trace.
            (
                lambda q: a @ q @ a.conj().T - 100.0 * (q - np.trace(q) * np.eye(n) / n),
                STATUS_DEGENERATE_S, 2, False,
            ),
            (_congruence_operator(n, 9), STATUS_CONVERGED, 8, False),
            (lambda q: np.zeros_like(q), STATUS_DEGENERATE_S, 1, False),
            (lambda q: np.trace(q).real * p, STATUS_CONVERGED, 2, False),
        ]
        settings = PowerIterSettings(rel_tol=1e-3, max_iters=8)

        def run(points):
            def bind(live):
                return lambda q: np.stack(
                    [pseudospec._hermitize(exits[points[i]][0](q[k])) for k, i in enumerate(live)]
                )

            start = np.stack([np.eye(n, dtype=complex) / n] * len(points))
            return pseudospec._iterate(bind, start, settings)

        batch = run(range(len(exits)))
        for i, (est, (_, status, iterations, jitter)) in enumerate(zip(batch, exits)):
            (alone,) = run([i])
            fields = (est.lower, est.upper, est.iterations, est.status, est.jitter_applied)
            assert fields[2:] == (iterations, status, jitter), i
            assert fields == (
                alone.lower, alone.upper, alone.iterations, alone.status, alone.jitter_applied
            ), i
            assert est.q_final.tobytes() == alone.q_final.tobytes(), i

    def test_settings_validation(self):
        with pytest.raises(ShapeError):
            PowerIterSettings(rel_tol=0.0)
        with pytest.raises(ShapeError):
            PowerIterSettings(max_iters=0)
        for rel_tol in (np.nan, np.inf):
            with pytest.raises(ShapeError, match="rel_tol must be positive and finite"):
                PowerIterSettings(rel_tol=rel_tol)

    def test_equal_settings_compare_and_hash_equal(self):
        a, b = PowerIterSettings(rel_tol=0.05, max_iters=7), PowerIterSettings(0.05, 7)
        assert a == b and hash(a) == hash(b)
        assert a != PowerIterSettings(rel_tol=0.05, max_iters=8)


class TestAppliers:
    def test_s_apply_raises_at_eigenvalue(self):
        s = _series(90, 3, seed=20)
        g = gram_matrices(s)
        k_hat, _ = edmd_matrix(g)
        lam = eigensystem(k_hat)[0].eigenvalue
        assert pseudospec.char_contexts(g, [lam])[4][0]
        with pytest.raises(AtEigenvalueError, match="S is undefined"):
            _s_at(s, KernelSpec.iid(), lam)
        with pytest.raises(AtEigenvalueError, match="S\\* is undefined"):
            s_star_apply(np.eye(3), lam, s, KernelSpec.iid())

    def test_adjointness(self):
        """<S[A], B> = <A, S*[B]> in the Frobenius inner product."""
        s = _series(60, 4, seed=21)
        lam = 1.2 + 0.5j
        apply_s = _s_at(s, KernelSpec.iid(), lam)
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = 0.5 * (a + a.conj().T)
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = 0.5 * (b + b.conj().T)
            sa = apply_s(a)
            sb = s_star_apply(b, lam, s, KernelSpec.iid())
            lhs = np.trace(sa.conj().T @ b)
            rhs = np.trace(a.conj().T @ sb)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst < 1e-12

    def test_s_star_rejects_windowed_kernel(self):
        s = _series(50, 3, seed=23)
        with pytest.raises(UnsupportedModeError):
            s_star_apply(np.eye(3), 1.5, s, KernelSpec.windowed(2))

    def test_s_apply_psd_preserving(self):
        s = _series(120, 3, seed=24)
        apply_s = _s_at(s, KernelSpec.iid(), 1.1 - 0.7j)
        for seed in range(10):
            q = _random_psd(3, 300 + seed)
            out = apply_s(q)
            assert np.linalg.eigvalsh(out)[0] >= -1e-10 * np.linalg.norm(out)


class TestPHat:
    def test_basic_bracket(self):
        s = _series(150, 3, seed=30)
        est = p_hat(1.3 + 0.4j, s, KernelSpec.iid(), PowerIterSettings(rel_tol=1e-6, max_iters=500))
        assert est.status == STATUS_CONVERGED
        assert 0 < est.lower <= est.upper
        assert est.upper / est.lower <= 1.0 + 1e-6

    def test_zero_exactly_at_eigenvalue(self):
        s = _series(100, 4, seed=31)
        g = gram_matrices(s)
        k_hat, _ = edmd_matrix(g)
        for mode in eigensystem(k_hat):
            est = p_hat(mode.eigenvalue, s, KernelSpec.iid())
            assert est.status == STATUS_AT_EIGENVALUE
            assert est.lower == 0.0 and est.upper == 0.0
            assert est.iterations == 0

    def test_agrees_with_bruteforce_radius(self):
        s = _series(140, 3, seed=32)
        lam = 1.25 + 0.3j
        _, rho = s_matrix_bruteforce(_s_at(s, KernelSpec.iid(), lam), 3)
        est = p_hat(lam, s, KernelSpec.iid(), PowerIterSettings(rel_tol=1e-8, max_iters=800))
        assert est.lower <= 1.0 / rho <= est.upper

    def test_windowed_kernel_supported(self):
        s = _series(200, 3, seed=33)
        est = p_hat(1.4, s, KernelSpec.windowed(3, (-0.5,)))
        assert est.status in (STATUS_CONVERGED, STATUS_MAX_ITERS)
        assert est.upper >= est.lower >= 0.0

    def test_a_window_too_large_raises_also_at_an_eigenvalue(self):
        s = _series(50, 2, seed=34)
        lam = eigensystem(edmd_matrix(gram_matrices(s))[0])[0].eigenvalue
        assert p_hat(lam, s, KernelSpec.windowed(3)).status == STATUS_AT_EIGENVALUE
        for point in (lam, 1.3 + 0.2j):
            with pytest.raises(WindowTooLargeError, match="half-width 60 >= M=50"):
                p_hat(point, s, KernelSpec.windowed(60))

    def test_at_an_eigenvalue_of_a_real_series_no_tensor_is_built(self, monkeypatch):
        def forbidden(self, series):
            raise AssertionError("tensor built for an at-eigenvalue estimate")

        monkeypatch.setattr(_RealIidCovariance, "_build_tensor", forbidden)
        rng = np.random.default_rng(35)
        a = rng.normal(size=(120, 3))
        s = SnapshotSeries(a, a @ rng.uniform(-0.6, 0.6, size=(3, 3)).T, "iid")
        lam = eigensystem(edmd_matrix(gram_matrices(s))[0])[0].eigenvalue
        assert p_hat(lam, s, KernelSpec.iid()).status == STATUS_AT_EIGENVALUE
        assert "real_iid" not in charmatrix._working(s)[0]._memo._values

    @pytest.mark.parametrize("mode", ["iid", "trajectory"])
    def test_a_change_of_dictionary_basis_leaves_the_estimate_as_it_is(self, mode):
        # P_hat does not depend on the dictionary's basis, and the estimates
        # run in a whitened one: a random invertible T that keeps the constant
        # observable gives the same statuses and iterations, and brackets
        # equal to round-off (in the caller's basis they differed by up to
        # 4.5e-7 relative, with different iteration counts).
        x, y = gen_expanding_map(3000, mode=mode, seed=300)
        s = evaluate_dictionary(x, y, DictionarySpec.trig(10), sampling_kind=mode)
        t = np.random.default_rng(7).normal(size=(10, 10))
        t[:, 0] = np.eye(10)[0]
        moved = SnapshotSeries(s.a @ t, s.b @ t, mode)
        kernel = KernelSpec.iid() if mode == "iid" else KernelSpec.windowed(5)
        settings = PowerIterSettings(rel_tol=1e-10, max_iters=2000)
        for lam in (1.3 + 0.1j, 0.5 + 0.5j, -1.1 + 0.2j, 0.2 - 0.9j, 0.8 + 0j):
            got, want = p_hat(lam, moved, kernel, settings), p_hat(lam, s, kernel, settings)
            assert (got.status, got.iterations) == (want.status, want.iterations), lam
            assert want.status == STATUS_CONVERGED
            assert_allclose([got.lower, got.upper], [want.lower, want.upper], rtol=1e-12)


class TestGridSpec:
    def test_axes(self):
        grid = GridSpec(-1.0, 1.0, 5, 0.0, 2.0, 3)
        re, im = grid.axes()
        assert_allclose(re, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert_allclose(im, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("bound, n", [(1.2, 41), (1.0, 41), (1.5, 61)])
    def test_symmetric_bounds_give_an_exactly_symmetric_imaginary_axis(self, bound, n):
        re, im = GridSpec(-bound, bound, n, -bound, bound, n).axes()
        ref = np.linspace(-bound, bound, n)
        assert np.array_equal(im, -im[::-1])
        assert (im[0], im[-1]) == (-bound, bound)
        assert np.max(np.abs(im - ref)) <= 2 * np.spacing(bound)
        assert np.array_equal(re, ref)

    def test_asymmetric_bounds_keep_linspace(self):
        _, im = GridSpec(0.0, 1.0, 2, -1.2, 1.3, 41).axes()
        assert np.array_equal(im, np.linspace(-1.2, 1.3, 41))

    def test_validation(self):
        with pytest.raises(ShapeError):
            GridSpec(0, 1, 0, 0, 1, 2)
        with pytest.raises(ShapeError):
            GridSpec(1, 0, 2, 0, 1, 2)

    @pytest.mark.parametrize("field", ["re_min", "re_max", "im_min", "im_max"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_bound_rejected(self, field, value):
        bounds = dict(re_min=-1.0, re_max=1.0, n_re=3, im_min=-1.0, im_max=1.0, n_im=3)
        bounds[field] = value
        with pytest.raises(ShapeError, match="finite"):
            GridSpec(**bounds)


class TestSweep:
    def _small_sweep(self):
        s = _series(120, 3, seed=60)
        grid = GridSpec(1.1, 1.5, 3, -0.2, 0.2, 2)
        return sweep(grid, s, KernelSpec.iid(), PowerIterSettings(rel_tol=0.05))

    def test_shapes_and_statuses(self):
        res = self._small_sweep()
        assert res.shape == (2, 3)
        assert set(np.unique(res.status)) <= {
            STATUS_CONVERGED,
            STATUS_MAX_ITERS,
            STATUS_AT_EIGENVALUE,
            STATUS_DEGENERATE_S,
        }
        conv = res.status == STATUS_CONVERGED
        assert np.all(res.lower[conv] > 0)
        assert np.all(res.upper[conv] >= res.lower[conv])

    def test_single_point_grid_at_eigenvalue(self):
        s = _series(100, 3, seed=61)
        lam = eigensystem(edmd_matrix(gram_matrices(s))[0])[0].eigenvalue
        grid = GridSpec(lam.real, lam.real, 1, lam.imag, lam.imag, 1)
        res = sweep(grid, s, KernelSpec.iid())
        assert res.status[0, 0] == STATUS_AT_EIGENVALUE
        assert res.lower[0, 0] == 0.0 and res.upper[0, 0] == 0.0

    def test_json_dict_round_trip_fields(self):
        res = self._small_sweep()
        doc = res.to_json_dict()
        assert len(doc["re_axis"]) == 3 and len(doc["im_axis"]) == 2
        assert len(doc["lower"]) == 2 and len(doc["lower"][0]) == 3
        assert "log_lambda_re" not in doc

    def test_log_time_coordinates(self):
        s = _series(120, 2, seed=62)
        s = SnapshotSeries(s.a, s.b, "iid", dt=0.2)
        grid = GridSpec(0.0, 1.0, 2, 0.0, 0.0, 1)  # contains lambda = 0
        res = sweep(grid, s, KernelSpec.iid())
        assert res.dt == 0.2
        doc = res.to_json_dict()
        assert doc["log_time"] == 0.2
        # log(0) is -inf -> serialized as null
        assert doc["log_lambda_re"][0][0] is None
        assert_allclose(doc["log_lambda_re"][0][1], 0.0, atol=1e-12)
        lines = res.to_csv_text().splitlines()
        assert lines[0] == "re,im,lower,upper,iterations,status,log_re,log_im"
        assert lines[2].split(",")[6:] == ["0.0", "0.0"]

    @pytest.mark.parametrize("log_time", [np.nan, 0.0, -0.5, np.inf])
    def test_log_time_must_be_a_positive_finite_step(self, log_time):
        # The step of log(lambda)/dt is the series' dt, refused where it enters.
        s = _series(120, 3, seed=60)
        with pytest.raises(FormatError, match="dt must be positive and finite"):
            SnapshotSeries(s.a, s.b, "trajectory", dt=log_time)

    def test_csv_layout(self):
        res = self._small_sweep()
        text = res.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "re,im,lower,upper,iterations,status"
        assert len(lines) == 1 + 2 * 3

    def test_window_too_large_raises_instead_of_marking_cells(self):
        s = _series(50, 2, seed=64)
        with pytest.raises(WindowTooLargeError, match="half-width 60 >= M=50"):
            sweep(GridSpec(1.1, 1.3, 3, 0.0, 0.2, 3), s, KernelSpec.windowed(60))


class TestSweepEngine:
    """The column-batched sweep against one-point p_hat calls."""

    @staticmethod
    def _data(kind):
        rng = np.random.default_rng(70)
        m, n = 300, 3
        t = rng.uniform(-0.6, 0.6, size=(n, n))
        if kind == "complex":
            a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            b = a @ t.T + 0.3 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n)))
        else:
            a = rng.normal(size=(m, n))
            b = a @ t.T + 0.3 * rng.normal(size=(m, n))
        series = SnapshotSeries(a, b, "trajectory")
        kernel = KernelSpec.windowed(2, (-0.3,)) if kind == "windowed" else KernelSpec.iid()
        return series, kernel

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_a_window_with_no_weight_past_lag_zero_is_the_iid_kernel(self, kind):
        # windowed(0) and windowed(1) (kappa_w vanishes at |x| = 1) take iid()'s route.
        series, iid = self._data(kind)
        grid = GridSpec(0.9, 1.5, 4, -0.3, 0.3, 3)
        settings = PowerIterSettings(rel_tol=0.05)
        ref = sweep(grid, series, iid, settings)
        assert np.sum(ref.status == STATUS_CONVERGED) >= 8
        for l_window in (0, 1):
            res = sweep(grid, series, KernelSpec.windowed(l_window), settings)
            assert np.array_equal(res.status, ref.status)
            assert np.array_equal(res.iterations, ref.iterations)
            for got, want in ((res.lower, ref.lower), (res.upper, ref.upper)):
                if kind == "real":
                    assert np.array_equal(got, want), l_window
                else:
                    assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["real", "complex", "windowed"])
    def test_cells_match_p_hat_with_the_same_warm_start(self, kind):
        series, kernel = self._data(kind)
        eig = eigensystem(edmd_matrix(gram_matrices(series))[0])[0].eigenvalue
        d = 0.35
        grid = GridSpec(eig.real - d, eig.real + d, 5, eig.imag - d, eig.imag + d, 3)
        settings = PowerIterSettings(rel_tol=0.05)
        res = sweep(grid, series, kernel, settings)
        assert res.status[1, 2] == STATUS_AT_EIGENVALUE
        assert np.sum(res.status == STATUS_CONVERGED) >= 10
        warm = [None] * grid.n_im
        for j in range(grid.n_re):
            for i in range(grid.n_im):
                est = _one_point(series, kernel, res.point(i, j), settings, warm[i])
                assert res.status[i, j] == est.status, (i, j)
                assert res.iterations[i, j] == est.iterations, (i, j)
                assert_allclose(
                    [res.lower[i, j], res.upper[i, j]], [est.lower, est.upper], rtol=1e-10
                )
                warm[i] = est.q_final if est.converged else None

    def test_a_cell_without_a_converged_neighbour_starts_from_identity(self):
        # A one-column sweep has no left neighbours, so every cell starts
        # from I/N, as p_hat does.
        series, kernel = self._data("complex")
        settings = PowerIterSettings(rel_tol=0.05)
        res = sweep(GridSpec(1.3, 1.3, 1, -0.2, 0.2, 3), series, kernel, settings)
        for i in range(3):
            est = p_hat(res.point(i, 0), series, kernel, settings)
            assert (res.iterations[i, 0], res.status[i, 0]) == (est.iterations, est.status)
            assert (res.lower[i, 0], res.upper[i, 0]) == (est.lower, est.upper)

    def test_real_iid_sweep_skips_the_complex_factors(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("complex path used")

        monkeypatch.setattr(variance, "_sample_factors", forbidden)
        monkeypatch.setattr(variance, "_streamed", forbidden)
        series, kernel = self._data("real")
        res = sweep(GridSpec(1.1, 1.5, 3, -0.2, 0.2, 3), series, kernel)
        assert np.all(res.status == STATUS_CONVERGED)

    @pytest.mark.parametrize("kind", ["complex", "windowed"])
    def test_the_engine_applies_v_as_variance_apply_does(self, kind):
        # Every application, the first and a repeated one alike, is the
        # public variance_apply bit for bit: both centre on the Gram pencil.
        series, kernel = self._data(kind)
        lams, c_hat, _, _, _ = char_contexts(gram_matrices(series), [1.3 + 0.1j, 0.9 - 0.4j])
        v = _covariance(series, kernel)
        w = np.stack([_random_psd(3, 80 + k) for k in range(len(lams))])
        for _ in range(2):
            out = v(lams, c_hat)(w)
            for k, lam in enumerate(lams):
                expected = variance_apply(w[k], lam, series, kernel).result
                assert_allclose(out[k], expected, rtol=0, atol=0)

    @pytest.mark.parametrize("kind", ["real", "complex", "windowed"])
    def test_v_centres_on_the_c_it_is_given(self, kind):
        series, kernel = self._data(kind)
        lams, c_hat, _, _, _ = char_contexts(gram_matrices(series), [1.3 + 0.1j, 0.9 - 0.4j])
        c2 = c_hat * (1 + 1e-3)
        v = _covariance(series, kernel)
        w = np.stack([_random_psd(3, 90 + k) for k in range(len(lams))])
        shifted = v(lams, c2)(w)
        assert not np.allclose(shifted, v(lams, c_hat)(w), rtol=1e-6, atol=0)
        if kind == "real":
            return
        # Each point of the batch centres on its own C, as it does alone.
        for k in range(len(lams)):
            expected = v(lams[k : k + 1], c2[k : k + 1])(w[k : k + 1])[0]
            assert_allclose(shifted[k], expected, rtol=0, atol=0)
        # The half P reads that C too (a windowed kernel's boundary terms),
        # checked against the expansion written out below, not the stream's
        # blocked sums, so to round-off.
        halves = variance._streamed(series, kernel)(lams, c2)(w)
        for k, lam in enumerate(lams):
            ut, vt = variance._sample_factors(series, lam)
            expected = _half_by_the_expansion(w[k], ut, vt, c2[k], kernel)
            assert_allclose(halves[k], expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["real", "complex", "windowed"])
    def test_s_is_v_at_the_congruence(self, kind):
        # S[Q] is V at the computed W = C^{-*} Q C^{-1}, centred on C^* W C.
        series, kernel = self._data(kind)
        lams, c_hat, c_inv, _, _ = char_contexts(gram_matrices(series), [1.3 + 0.1j, 0.9 - 0.4j])
        cov = _covariance(series, kernel)
        q = np.stack([_random_psd(3, 100 + k) for k in range(len(lams))])
        s = pseudospec._batch_s(cov, lams, c_hat, c_inv)(np.arange(len(lams)))(q)
        assert np.array_equal(s, s.conj().swapaxes(-1, -2))
        w = pseudospec._congruence(variance._ct(c_inv), c_inv, q)
        assert np.array_equal(s, cov(lams, c_hat)(w))
        for k, lam in enumerate(lams):
            naive = variance_apply_naive(w[k], lam, series, kernel).result
            assert np.linalg.norm(s[k] - naive) <= 1e-10 * np.linalg.norm(naive)

    def test_a_one_point_estimate_binds_its_constants_once(self, monkeypatch):
        # k iterations: one inversion, one covariance lookup and k pencils.
        contexts = self._count(monkeypatch, pseudospec, "char_contexts")
        pencils = self._count(monkeypatch, pseudospec, "_pencil")
        lookups, of = [], _RealIidCovariance.of

        def counting_of(cls, series):
            lookups.append(series)
            return of(series)

        monkeypatch.setattr(_RealIidCovariance, "of", classmethod(counting_of))
        series, kernel = self._data("real")
        est = p_hat(1.3 + 0.1j, series, kernel, PowerIterSettings(rel_tol=1e-6))
        assert est.status == STATUS_CONVERGED and est.iterations > 3
        assert (len(contexts), len(lookups), len(pencils)) == (1, 1, est.iterations)

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        fn = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    def test_estimates_on_one_series_share_one_gram_and_one_tensor(self, monkeypatch):
        builds = self._count(monkeypatch, _RealIidCovariance, "_build_tensor")
        grams = self._count(monkeypatch, charmatrix, "gram_matrices")
        series, kernel = self._data("real")
        for lam in (1.3 + 0.1j, 1.2 - 0.2j, -1.3 + 0j, 0.9j):
            assert p_hat(lam, series, kernel).status == STATUS_CONVERGED
        res = sweep(GridSpec(1.1, 1.5, 3, -0.2, 0.2, 3), series, kernel)
        assert np.all(res.status == STATUS_CONVERGED)
        # One Gram pass for the series, which its whitening reads, and one
        # for the working copy that the estimates read.
        assert (len(builds), len(grams)) == (1, 2)
        stats.spectrum_test(series, kernel)
        assert (len(builds), len(grams)) == (1, 2)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_a_warm_memo_gives_the_cold_estimate_bit_for_bit(self, kind):
        series, kernel = self._data(kind)
        lam = 1.3 + 0.1j
        cold = p_hat(lam, series, kernel)
        assert p_hat(-1.2 + 0.4j, series, kernel).status == STATUS_CONVERGED
        sweep(GridSpec(1.1, 1.5, 3, -0.2, 0.2, 3), series, kernel)
        warm = p_hat(lam, series, kernel)
        assert (warm.lower, warm.upper, warm.iterations, warm.status) == (
            cold.lower, cold.upper, cold.iterations, cold.status
        )
        assert np.array_equal(warm.q_final, cold.q_final)

    def test_the_memo_does_not_keep_its_series_alive(self):
        series, kernel = self._data("real")
        p_hat(1.3 + 0.1j, series, kernel)
        work = charmatrix._working(series)[0]    # the estimate built its tensor there
        memo, covariance = work._memo, _RealIidCovariance.of(work)
        refs = weakref.ref(series), weakref.ref(work)
        del series, work
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert memo.get_or_build("real_iid", None) is covariance
        # Once T is built, no sample array, and no copy of one, is held.
        assert covariance.tensor is not None
        assert all(covariance.m not in np.shape(x) for x in vars(covariance).values())

    @pytest.mark.parametrize("kind", ["real", "windowed", "complex"])
    def test_a_series_holds_its_samples_once(self, kind):
        # The working basis is read in row blocks, each whitened as it is read:
        # the first estimate, which builds the Gram pairs, the basis and (real
        # iid) the tensor, allocates no whitened (M, N) array, and no memo keeps one.
        rng = np.random.default_rng(72)
        m, n = 20_000, 10
        a = rng.normal(size=(m, n)) + (1j * rng.normal(size=(m, n)) if kind == "complex" else 0)
        b = a @ rng.uniform(-0.3, 0.3, size=(n, n)).T + 0.3 * rng.normal(size=(m, n))
        series = SnapshotSeries(a, b, "trajectory" if kind == "windowed" else "iid")
        kernel = KernelSpec.windowed(2, (-0.3,)) if kind == "windowed" else KernelSpec.iid()
        tracemalloc.start()
        try:
            assert p_hat(1.3 + 0.1j, series, kernel).status == STATUS_CONVERGED
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (series.a.nbytes + series.b.nbytes) / 2
        assert ("real_iid" in charmatrix._working(series)[0]._memo._values) == (kind == "real")
        assert _sample_arrays(series._memo, series) == []

    @pytest.mark.parametrize("kind", ["complex", "windowed"])
    def test_complex_or_windowed_series_never_build_the_tensor(self, kind, monkeypatch):
        def forbidden(self, series):
            raise AssertionError("tensor built off the real iid path")

        monkeypatch.setattr(_RealIidCovariance, "_build_tensor", forbidden)
        series, kernel = self._data(kind)
        assert p_hat(1.3 + 0.1j, series, kernel).status == STATUS_CONVERGED
        res = sweep(GridSpec(1.1, 1.5, 3, -0.2, 0.2, 3), series, kernel)
        assert np.all(res.status == STATUS_CONVERGED)

    def test_concurrent_first_estimates_build_the_tensor_once(self, monkeypatch):
        lams = [1.3 + 0.1j, 1.2 - 0.2j, -1.3 + 0j, 0.9j] * 3
        series, kernel = self._data("real")
        expected = [p_hat(lam, series, kernel) for lam in lams[:4]]
        builds = self._count(monkeypatch, _RealIidCovariance, "_build_tensor")
        series, _ = self._data("real")
        results = [None] * len(lams)
        barrier = threading.Barrier(len(lams))

        def worker(k):
            barrier.wait(timeout=60)
            results[k] = p_hat(lams[k], series, kernel)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker, args=(k,)) for k in range(len(lams))]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert len(builds) == 1
        for k, est in enumerate(results):
            ref = expected[k % 4]
            assert (est.lower, est.upper, est.iterations) == (ref.lower, ref.upper, ref.iterations)

    def test_each_column_is_factored_by_one_char_contexts_call(self, monkeypatch):
        columns = []
        build = pseudospec.char_contexts

        def recording(gram, lams, floor=None):
            columns.append(lams)
            return build(gram, lams, floor)

        # The sweep module has no per-point factorization to reach.
        assert not hasattr(pseudospec, "char_context")
        monkeypatch.setattr(pseudospec, "char_contexts", recording)
        series, kernel = self._data("real")
        grid = GridSpec(1.1, 1.5, 41, -0.2, 0.2, 3)
        res = sweep(grid, series, kernel, PowerIterSettings(max_iters=1))
        re_axis, im_axis = grid.axes()
        assert len(columns) == 41
        # A real series passes only the rows on or above the real axis.
        for re, lams in zip(re_axis, columns):
            assert np.array_equal(lams, [complex(re, im) for im in im_axis if im >= 0.0])
        assert np.all(res.iterations == 1)

    @staticmethod
    def _rotation_data(kernel):
        """A real series whose EDMD matrix has a conjugate eigenvalue pair."""
        rng = np.random.default_rng(71)
        m = 300
        t = np.array([[0.5, -0.4, 0.0], [0.4, 0.5, 0.0], [0.0, 0.1, -0.3]])
        a = rng.normal(size=(m, 3))
        b = a @ t.T + 0.3 * rng.normal(size=(m, 3))
        series = SnapshotSeries(a, b, "trajectory")
        eig = next(
            mode.eigenvalue
            for mode in eigensystem(edmd_matrix(gram_matrices(series))[0])
            if mode.eigenvalue.imag > 0.1
        )
        y = abs(eig.imag)
        grid = GridSpec(eig.real - 0.3, eig.real + 0.3, 5, -y, y, 3)
        kernels = {"iid": KernelSpec.iid(), "windowed": KernelSpec.windowed(2, (-0.3,))}
        return series, kernels[kernel], grid

    @pytest.mark.parametrize("kernel", ["iid", "windowed"])
    def test_mirrored_cells_match_p_hat_with_the_same_warm_start(self, kernel):
        series, kernel, grid = self._rotation_data(kernel)
        settings = PowerIterSettings(rel_tol=0.05)
        res = sweep(grid, series, kernel, settings)
        # Row 0 mirrors row 2; the conjugate pair sits in the middle column.
        assert res.status[0, 2] == res.status[2, 2] == STATUS_AT_EIGENVALUE
        assert np.sum(res.status == STATUS_CONVERGED) >= 10
        for field in (res.lower, res.upper, res.iterations, res.status):
            assert np.array_equal(field[0], field[2])
        warm = None
        for j in range(grid.n_re):
            est = _one_point(series, kernel, res.point(0, j), settings, warm)
            assert res.status[0, j] == est.status, j
            assert res.iterations[0, j] == est.iterations, j
            assert_allclose([res.lower[0, j], res.upper[0, j]], [est.lower, est.upper], rtol=1e-10)
            warm = est.q_final if est.converged else None

    @pytest.mark.parametrize("kind", ["real", "complex", "tiny"])
    def test_only_a_real_series_skips_the_mirrored_rows(self, kind, monkeypatch):
        series, kernel = self._data("complex" if kind == "complex" else "real")
        if kind == "tiny":
            a = series.a.astype(complex)
            a[7, 1] += 1e-300j
            series = SnapshotSeries(a, series.b, "iid")
        columns = self._count(monkeypatch, pseudospec, "char_contexts")
        points = []
        build = pseudospec._estimate_points
        monkeypatch.setattr(
            pseudospec, "_estimate_points",
            lambda gram, v, lams, *args: points.extend(lams) or build(gram, v, lams, *args),
        )
        res = sweep(GridSpec(1.1, 1.5, 3, -0.2, 0.2, 3), series, kernel)
        assert np.all(res.status == STATUS_CONVERGED)
        assert len(columns) == 3
        assert len(points) == (6 if kind == "real" else 9)

    @pytest.mark.parametrize("kind", ["real", "complex", "windowed"])
    @pytest.mark.parametrize("floor", [None, 1e-300])
    def test_spectrum_test_is_one_batch_that_matches_p_hat(self, kind, floor, monkeypatch):
        # Under the default floor every EDMD eigenvalue is at_eigenvalue; a
        # floor of 1e-300 puts them off the spectrum, where they iterate.
        series, kernel = self._data(kind)
        columns = self._count(monkeypatch, pseudospec, "char_contexts")
        report = stats.spectrum_test(series, kernel, floor=floor)
        assert len(columns) == 1
        modes, _ = charmatrix._series_fit(series, floor)
        for mode, res in zip(modes, report.results):
            est = p_hat(mode.eigenvalue, series, kernel, floor=floor)
            expected = STATUS_AT_EIGENVALUE if floor is None else STATUS_CONVERGED
            assert res.status == est.status == expected
            assert_allclose(res.m_p_hat, series.M * est.lower, rtol=1e-10)

    def test_no_estimate_builds_a_per_point_context(self, tmp_path):
        # The engine reads the stacks of char_contexts (test_surface keeps the
        # per-point context's names gone); every estimate route still runs.
        for kind in ("real", "windowed"):
            series, kernel = self._data(kind)
            res = sweep(GridSpec(1.1, 1.5, 3, -0.2, 0.2, 3), series, kernel)
            assert np.all(res.status == STATUS_CONVERGED), kind
            assert p_hat(1.3 + 0.1j, series, kernel).converged, kind
            report = stats.spectrum_test(series, kernel, floor=1e-300)
            assert all(r.status == STATUS_CONVERGED for r in report.results), kind
        data, out = tmp_path / "m.csv", tmp_path / "t.json"
        assert main(["generate", "--system", "map1d", "--M", "300", "--N", "4",
                     "--seed", "4", "--out", str(data)]) == 0
        points = ["1.3", "0.5+0.5j", "-1.2"]
        assert main(["test", "--data", str(data), "--iid", "--out", str(out),
                     *(arg for text in points for arg in ("--lambda", text))]) == 0
        assert len(json.loads(out.read_text())["results"]) == len(points)

    def test_an_overflowing_characteristic_matrix_fails_the_sweep(self):
        series, kernel = self._data("real")
        with pytest.raises(NumericError, match="non-finite"):
            sweep(GridSpec(1.7e308, 1.7e308, 1, 1.7e308, 1.7e308, 1), series, kernel)

    def test_a_real_iid_sweep_builds_the_tensor_once(self, monkeypatch):
        builds = []
        build = _RealIidCovariance._build_tensor

        def counting(self, series):
            builds.append(self)
            return build(self, series)

        monkeypatch.setattr(_RealIidCovariance, "_build_tensor", counting)
        series, kernel = self._data("real")
        res = sweep(GridSpec(1.1, 1.5, 3, -0.2, 0.2, 3), series, kernel)
        assert np.all(res.status == STATUS_CONVERGED)
        assert len(builds) == 1

    def test_a_negative_v_makes_p_hat_degenerate(self, monkeypatch):
        # V[W] -> -V[W]: S[Q] is negative definite, so its Cholesky fails
        # even after the round-off ridge, on the stream and the tensor route.
        real = _RealIidCovariance.bind

        def negated_real(self, *args):
            half = real(self, *args)
            return lambda w: -half(w)

        _edit_the_stream(monkeypatch, lambda lams, w, halves: -halves)
        monkeypatch.setattr(_RealIidCovariance, "bind", negated_real)
        for kind in ("complex", "real"):
            series, kernel = self._data(kind)
            est = p_hat(1.3 + 0.1j, series, kernel)
            assert est.status == STATUS_DEGENERATE_S
            assert 0.0 <= est.lower <= est.upper
            assert est.iterations == 1

    def test_a_failed_point_leaves_its_column_alone(self, monkeypatch):
        series, kernel = self._data("complex")
        grid = GridSpec(1.1, 1.5, 3, -0.2, 0.2, 3)
        clean = sweep(grid, series, kernel)
        # The point is told by its lambda, which no other grid point shares.
        bad = clean.point(2, 1)

        def negated_at_bad(lams, w, halves):
            return np.where((lams == bad)[:, np.newaxis, np.newaxis], -halves, halves)

        _edit_the_stream(monkeypatch, negated_at_bad)
        res = sweep(grid, series, kernel)
        assert res.status[2, 1] == STATUS_DEGENERATE_S
        assert (res.lower[2, 1], res.upper[2, 1], res.iterations[2, 1]) == (0.0, float("inf"), 1)
        others = np.ones(res.shape, dtype=bool)
        others[2, 1:] = False    # the failed cell, and its right neighbour's warm start
        assert np.array_equal(res.status[others], clean.status[others])
        assert_allclose(res.lower[others], clean.lower[others], rtol=1e-12)
        assert_allclose(res.upper[others], clean.upper[others], rtol=1e-12)

    def test_tiny_imaginary_parts_take_the_complex_path(self, monkeypatch):
        series, kernel = self._data("real")
        a = series.a.astype(complex)
        a[7, 1] += 1e-300j
        tiny = SnapshotSeries(a, series.b, "iid")
        assert tiny.a.dtype == tiny.b.dtype == complex
        calls = []

        def recording(lams, w, halves):
            calls.extend([1] * len(w))
            return halves

        _edit_the_stream(monkeypatch, recording)
        sweep(GridSpec(1.1, 1.5, 2, -0.2, 0.2, 2), series, kernel)
        assert calls == []
        res = sweep(GridSpec(1.1, 1.5, 2, -0.2, 0.2, 2), tiny, kernel)
        assert len(calls) == res.iterations.sum() > 0
