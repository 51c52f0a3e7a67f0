"""Ground-truth oracles: VAR closed forms, quadrature moments, brute-force S.

The closed forms are themselves validated here against plain Monte Carlo so
that the estimator tests downstream rest on checked references.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from specguard.charmatrix import char_contexts, edmd_matrix, eigensystem, gram_matrices
from specguard.errors import CostGuardError, ResolutionGuardError, ShapeError
from specguard.generators import VarSpec, expanding_map_f, var_benchmark_7d
from specguard.ingest import DictionarySpec, SnapshotSeries, evaluate_dictionary
from specguard.oracle import (
    CheckResult,
    QuadratureMoments,
    VarMoments,
    hermitian_basis,
    run_oracle_checks,
    s_matrix_bruteforce,
    var_p_exact,
    var_p_power,
    var_v_exact,
)
from specguard.pseudospec import (
    STATUS_AT_EIGENVALUE,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    PowerIterSettings,
    _s_at,
    p_hat,
)
from specguard.variance import KernelSpec, variance_apply


def _scalar_spec(a=0.5, sx=1.0, sxi=1.0):
    return VarSpec(np.array([[a]]), np.array([[sx]]), np.array([[sxi]]))


def _random_psd(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return w @ w.conj().T / n


class TestVarPExact:
    def test_scalar_pin(self):
        # N=1, a=0.5, Sigma_X = Sigma_xi = 1, lam = 1:
        # R = 2, trace term = 4, P = 1 / (1 + 1 + 4) = 1/6.
        assert_allclose(var_p_exact(_scalar_spec(), 1.0 + 0.0j), 1.0 / 6.0, rtol=1e-15)

    def test_noiseless_limit(self):
        spec = VarSpec(0.3 * np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert_allclose(
            var_p_exact(spec, 1.1 + 0.2j), 1.0 / 3.0, rtol=1e-14
        )

    def test_zero_at_transition_eigenvalue(self):
        assert var_p_exact(_scalar_spec(a=0.5), 0.5 + 0.0j) == 0.0


class TestVarVExact:
    def test_zero_q_maps_to_zero(self):
        spec = var_benchmark_7d()
        out = var_v_exact(spec, 1.1 + 0.3j, np.zeros((7, 7)))
        assert_allclose(out, np.zeros((7, 7)), atol=0.0)

    def test_shape_guard(self):
        with pytest.raises(ShapeError, match="q shape"):
            var_v_exact(var_benchmark_7d(), 1.0, np.eye(3))

    def test_hermitian_and_psd_preserving(self):
        spec = var_benchmark_7d()
        for seed in range(5):
            q = _random_psd(7, seed)
            out = var_v_exact(spec, 1.1 + 0.3j, q)
            assert_allclose(out, out.conj().T, atol=1e-13)
            w = np.linalg.eigvalsh(out)
            assert w[0] >= -1e-12 * max(1.0, w[-1])

    def test_real_linear(self):
        spec = var_benchmark_7d()
        lam = 0.95 - 0.4j
        q1, q2 = _random_psd(7, 1), _random_psd(7, 2)
        combo = var_v_exact(spec, lam, 2.0 * q1 - 0.7 * q2)
        parts = 2.0 * var_v_exact(spec, lam, q1) - 0.7 * var_v_exact(spec, lam, q2)
        assert_allclose(combo, parts, atol=1e-12)

    def test_matches_monte_carlo(self):
        a = np.array([[0.5, 0.1], [0.0, 0.3]])
        sx = np.array([[1.0, 0.2], [0.2, 0.8]])
        sxi = 0.5 * np.eye(2)
        spec = VarSpec(a, sx, sxi)
        lam = 1.2 + 0.1j
        q = _random_psd(2, 9) + 0.5 * np.eye(2)

        rng = np.random.default_rng(17)
        m = 400_000
        x = rng.normal(size=(m, 2)) @ np.linalg.cholesky(sx).T
        y = x @ a.T + rng.normal(size=(m, 2)) @ np.linalg.cholesky(sxi).T
        u = x.astype(complex)
        v = np.conj(lam) * u - y

        quad = np.einsum("mi,ij,mj->m", u.conj(), q, u).real
        second_mc = (v.T * quad) @ v.conj() / m
        c_mc = u.T @ v.conj() / m
        v_mc = second_mc - c_mc.conj().T @ q @ c_mc

        exact = var_v_exact(spec, lam, q)
        assert np.linalg.norm(v_mc - exact) < 0.02 * np.linalg.norm(exact)

        moments = VarMoments(spec)
        second = moments.expected_chc(lam, q)
        assert np.linalg.norm(second_mc - second) < 0.02 * np.linalg.norm(second)


class TestVarPPower:
    def test_bracket_contains_closed_form(self):
        spec = var_benchmark_7d()
        lam = 1.1 + 0.3j
        est = var_p_power(spec, lam, PowerIterSettings(rel_tol=1e-8, max_iters=800))
        exact = var_p_exact(spec, lam)
        assert est.converged
        assert est.lower * (1 - 1e-9) <= exact <= est.upper * (1 + 1e-9)
        assert est.upper / est.lower - 1.0 <= 1e-7

    def test_exact_eigenvalue_short_circuits(self):
        est = var_p_power(_scalar_spec(a=0.5), 0.5 + 0.0j)
        assert est.status == STATUS_AT_EIGENVALUE
        assert est.lower == est.upper == 0.0
        assert est.iterations == 0


class TestQuadratureMoments:
    def test_identity_map_gram_pin(self):
        qm = QuadratureMoments(lambda x: x, DictionarySpec.trig(6), 48)
        assert_allclose(qm.psi_xx, np.diag([1.0, 0.5, 0.5, 0.5, 0.5, 0.5]), atol=1e-14)
        assert_allclose(qm.psi_xy, qm.psi_xx, atol=1e-14)

    def test_expanding_map_leading_eigenvalue_is_one(self):
        qm = QuadratureMoments(expanding_map_f, DictionarySpec.trig(10), 80)
        modes = eigensystem(edmd_matrix(qm.gram())[0])
        assert abs(modes[0].eigenvalue - 1.0) < 1e-10

    def test_node_doubling_self_convergence(self):
        dict_spec = DictionarySpec.trig(8)
        coarse = QuadratureMoments(expanding_map_f, dict_spec, 8 * 8)
        fine = QuadratureMoments(expanding_map_f, dict_spec, 16 * 8)
        assert np.max(np.abs(coarse.psi_xx - fine.psi_xx)) < 1e-10
        assert np.max(np.abs(coarse.psi_xy - fine.psi_xy)) < 1e-10

    def test_resolution_guard(self):
        with pytest.raises(ResolutionGuardError, match="under-resolves"):
            QuadratureMoments(expanding_map_f, DictionarySpec.trig(10), 39)

    def test_requires_trig_dictionary(self):
        with pytest.raises(ShapeError, match="trig"):
            QuadratureMoments(expanding_map_f, DictionarySpec.identity(3), 100)

    def test_expected_chc_psd_and_linear(self):
        qm = QuadratureMoments(expanding_map_f, DictionarySpec.trig(6), 48)
        lam = 1.3 + 0.2j
        q1, q2 = _random_psd(6, 3), _random_psd(6, 4)
        out = qm.expected_chc(lam, q1)
        assert_allclose(out, out.conj().T, atol=1e-13)
        assert np.linalg.eigvalsh(out)[0] >= -1e-12
        combo = qm.expected_chc(lam, 1.5 * q1 - 0.25 * q2)
        assert_allclose(
            combo,
            1.5 * qm.expected_chc(lam, q1) - 0.25 * qm.expected_chc(lam, q2),
            atol=1e-12,
        )

    def test_variance_on_node_data_matches_exact(self):
        # Feeding the quadrature nodes through the data path as "samples"
        # must reproduce the exact moments and the exact V application.
        dict_spec = DictionarySpec.trig(6)
        n_nodes = 24
        qm = QuadratureMoments(expanding_map_f, dict_spec, n_nodes)
        nodes = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
        series = evaluate_dictionary(
            nodes.reshape(-1, 1), expanding_map_f(nodes).reshape(-1, 1), dict_spec
        )
        gram = gram_matrices(series)
        assert_allclose(gram.psi_xx, qm.psi_xx, atol=1e-14)
        assert_allclose(gram.psi_xy, qm.psi_xy, atol=1e-14)

        lam = 1.3 + 0.2j
        q = _random_psd(6, 5) + 0.1 * np.eye(6)
        app = variance_apply(q, lam, series, KernelSpec.iid())
        assert_allclose(app.result, qm.exact_v(lam, q), atol=1e-11)

    def test_p_exact_off_spectrum_and_at_one(self):
        qm = QuadratureMoments(expanding_map_f, DictionarySpec.trig(8), 64)
        est = qm.p_exact(1.3 + 0.0j, PowerIterSettings(rel_tol=1e-6, max_iters=400))
        assert est.converged
        assert 0.0 < est.lower <= est.upper
        # the constant observable makes C(1) exactly singular
        pinned = qm.p_exact(1.0 + 0.0j)
        assert pinned.status == STATUS_AT_EIGENVALUE
        assert pinned.upper == 0.0


class TestHermitianBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthonormal_hermitian_family(self, n):
        basis = hermitian_basis(n)
        assert len(basis) == n * n
        for i, bi in enumerate(basis):
            assert_allclose(bi, bi.conj().T, atol=0.0)
            for j, bj in enumerate(basis):
                ip = float(np.trace(bi.conj().T @ bj).real)
                assert_allclose(ip, 1.0 if i == j else 0.0, atol=1e-15)

    def test_order_pin_n2(self):
        basis = hermitian_basis(2)
        rt2 = np.sqrt(2.0)
        assert_allclose(basis[0], [[1, 0], [0, 0]], atol=0.0)
        assert_allclose(basis[1], [[0, 0], [0, 1]], atol=0.0)
        assert_allclose(basis[2], [[0, 1 / rt2], [1 / rt2, 0]], atol=1e-16)
        assert_allclose(basis[3], [[0, 1j / rt2], [-1j / rt2, 0]], atol=1e-16)


class TestSMatrixBruteforce:
    def test_identity_operator(self):
        mat, rho = s_matrix_bruteforce(lambda q: q, 3)
        assert_allclose(mat, np.eye(9), atol=1e-14)
        assert_allclose(rho, 1.0, rtol=1e-12)

    def test_scalar_multiple(self):
        _, rho = s_matrix_bruteforce(lambda q: 2.5 * q, 2)
        assert_allclose(rho, 2.5, rtol=1e-12)

    def test_congruence_radius_is_squared_spectral_radius(self):
        # For S[Q] = A^* Q A the eigenvalues are products of pairs of
        # eigenvalues of A, so rho(S) = rho(A)^2 even for non-normal A.
        a = np.array([[0.9, 1.0], [0.0, 0.5]], dtype=complex)
        _, rho = s_matrix_bruteforce(lambda q: a.conj().T @ q @ a, 2)
        assert_allclose(rho, 0.81, rtol=1e-10)

    def test_matrix_reproduces_applier(self):
        rng = np.random.default_rng(12)
        ds = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]

        def applier(q):
            return sum(d.conj().T @ q @ d for d in ds) / 3.0

        mat, _ = s_matrix_bruteforce(applier, 3)
        basis = hermitian_basis(3)
        q = _random_psd(3, 13)
        coeffs = np.array([float(np.trace(b.conj().T @ q).real) for b in basis])
        image_coeffs = mat @ coeffs
        rebuilt = sum(c * b for c, b in zip(image_coeffs, basis))
        assert_allclose(rebuilt, applier(q), atol=1e-12)

    def test_cost_guard(self):
        with pytest.raises(CostGuardError, match="n <= 8"):
            s_matrix_bruteforce(lambda q: q, 9)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        l_window=st.integers(1, 7),
        mus=st.lists(st.floats(-0.6, 0.6, exclude_min=True, exclude_max=True), max_size=2),
        radius=st.floats(1.0, 1.4),
        angle=st.floats(0.0, 2.0 * np.pi),
    )
    def test_windowed_bracket_contains_bruteforce_radius(
        self, seed, n, l_window, mus, radius, angle
    ):
        # A stationary VAR trajectory (spectral radius <= 0.8), the setting
        # the windowed covariance assumes.
        rng = np.random.default_rng(seed)
        m = 300
        t = rng.normal(size=(n, n))
        t *= min(1.0, 0.8 / float(np.max(np.abs(np.linalg.eigvals(t)))))
        x = np.empty((m + 1, n))
        x[0] = rng.normal(size=n)
        for k in range(m):
            x[k + 1] = t @ x[k] + rng.normal(size=n)
        series = SnapshotSeries(x[:-1].astype(complex), x[1:].astype(complex), "trajectory")
        kernel = KernelSpec.windowed(l_window, tuple(mus))
        lam = radius * np.exp(1j * angle)
        assume(not char_contexts(gram_matrices(series), [lam])[4][0])
        _, rho = s_matrix_bruteforce(_s_at(series, kernel, lam), n)
        est = p_hat(lam, series, kernel)
        assert est.status in (STATUS_CONVERGED, STATUS_MAX_ITERS)
        assert est.lower * (1 - 1e-9) <= 1.0 / rho <= est.upper * (1 + 1e-9), (
            f"1/rho={1.0 / rho:.9g} outside [{est.lower:.9g}, {est.upper:.9g}]"
        )

    def test_an_explosive_draw_converges_and_contains_the_bruteforce_radius(self):
        # A non-stationary draw (spectral radius 1.034, values up to 5.8e4,
        # rcond of C 7.8e-10 in the caller's basis): there the bracket
        # stalled at max_iters and the dense operator read 1/rho = 0.0032.
        # In the whitened working basis both agree with 1/rho = 0.0284306.
        rng = np.random.default_rng(9034)
        n = int(rng.integers(1, 9))
        t = rng.normal(size=(n, n)) / np.sqrt(n)
        x = np.empty((301, n))
        x[0] = rng.normal(size=n)
        for k in range(300):
            x[k + 1] = t @ x[k] + rng.normal(size=n)
        l_window, n_mus = int(rng.integers(1, 8)), int(rng.integers(0, 3))
        lam = rng.uniform(1.0, 1.4) * np.exp(2j * np.pi * rng.uniform())
        assert (n, l_window, n_mus, round(lam.real, 4), round(lam.imag, 4)) == (
            6, 5, 0, 0.8633, 0.7933
        )
        series = SnapshotSeries(x[:-1], x[1:], "trajectory")
        kernel = KernelSpec.windowed(l_window)
        est = p_hat(lam, series, kernel, PowerIterSettings(rel_tol=1e-10, max_iters=2000))
        assert est.status == STATUS_CONVERGED
        _, rho = s_matrix_bruteforce(_s_at(series, kernel, lam), n)
        assert est.lower * (1 - 1e-12) <= 1.0 / rho <= est.upper * (1 + 1e-12)
        assert_allclose(1.0 / rho, 0.0284305984721, rtol=1e-9)


class TestRunOracleChecks:
    def test_default_suite_passes(self):
        results = run_oracle_checks()
        assert [r.name for r in results] == [
            "var_end_to_end",
            "var_trace_identity",
            "bruteforce_rho",
            "quadrature_selfconv",
        ]
        for res in results:
            assert isinstance(res, CheckResult)
            assert res.passed, f"{res.name}: {res.detail}"
            assert res.detail

    def test_perturbation_is_detected_per_seed(self):
        results = run_oracle_checks(perturb=1e-3, seeds=2)
        assert len(results) == 8
        assert {r.name.split("[")[1] for r in results} == {"seed=0]", "seed=1000]"}
        assert not any(r.passed for r in results)

    def test_seed_validation(self):
        with pytest.raises(ShapeError, match="seeds"):
            run_oracle_checks(seeds=0)
