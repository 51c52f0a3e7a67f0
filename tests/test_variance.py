"""Lag-window kernels and the kernel-weighted covariance estimator.

The binding contract here is that the O(M N^2) rank-one evaluation agrees
with the materialized reference to round-off for every kernel shape, and
that both preserve positive semidefiniteness.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from specguard.errors import ShapeError, UnstableKernelError, WindowTooLargeError
from specguard.charmatrix import _series_gram, char_contexts, gram_matrices
from specguard.ingest import _ROW_BLOCK, SnapshotSeries
from specguard import charmatrix, variance
from specguard.variance import (
    KernelSpec,
    _covariance,
    _RealIidCovariance,
    _sample_factors,
    _streamed,
    default_mu_list,
    estimate_tau,
    kappa_w,
    metastability_kernel,
    variance_apply,
    variance_apply_naive,
    window_length,
)


def _series(m, n, seed=0, complex_data=True):
    rng = np.random.default_rng(seed)
    if complex_data:
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        b = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    else:
        a = rng.normal(size=(m, n)).astype(complex)
        b = rng.normal(size=(m, n)).astype(complex)
    return SnapshotSeries(a, b, "iid")


def _closed_over(fn):
    """The values held by the closure cells of ``fn`` and of the functions among them."""
    values, todo, seen = [], [fn], set()
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for cell in getattr(f, "__closure__", None) or ():
            values.append(cell.cell_contents)
            if callable(cell.cell_contents):
                todo.append(cell.cell_contents)
    return values


def _held_copies_of_the_samples(v, s):
    """Arrays that ``v`` (an object, or a function through its closure) holds with a
    dimension of M, other than the series' own a and b."""
    held = []
    for value in _closed_over(v) if callable(v) else vars(v).values():
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, np.ndarray) and s.M in x.shape and x is not s.a and x is not s.b:
                held.append(x)
    return held


def _random_psd(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return w @ w.conj().T / n


class TestKappaW:
    def test_pins(self):
        assert kappa_w(0.0) == 1.0
        assert kappa_w(1.0) == 0.0
        assert kappa_w(-1.0) == 0.0
        assert kappa_w(2.7) == 0.0
        assert_allclose(kappa_w(0.5), 1.0 / np.pi, rtol=1e-15)

    def test_even(self):
        x = np.linspace(0, 1.2, 301)
        assert_allclose(kappa_w(x), kappa_w(-x), rtol=0, atol=0)

    def test_flat_top_curvature(self):
        # second derivative at zero is -pi^2
        h = 1e-5
        d2 = (kappa_w(h) - 2.0 * kappa_w(0.0) + kappa_w(-h)) / h**2
        assert_allclose(d2, -np.pi**2, rtol=1e-4)

    def test_continuous_at_edges(self):
        assert abs(kappa_w(1.0 - 1e-9)) < 1e-7


class TestMetastabilityKernel:
    def test_empty(self):
        assert_allclose(metastability_kernel(()), [1.0])

    def test_mu_minus_one_pin(self):
        assert_allclose(metastability_kernel((-1.0,)), [0.25, 0.5, 0.25], rtol=1e-15)

    def test_weights_sum_to_one(self):
        for mu_list in [(-0.5,), (0.3, -0.8), (0.4 + 0.5j, 0.4 - 0.5j)]:
            kp = metastability_kernel(mu_list)
            assert_allclose(kp.sum(), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "mu_list",
        [(-0.7,), (0.5, -0.4), (0.3 + 0.6j, 0.3 - 0.6j), (-0.9, 0.2 + 0.1j, 0.2 - 0.1j)],
    )
    def test_annihilates_geometric_tails(self, mu_list):
        """Convolving with d_mu kills W mu^|l| beyond the kernel support.

        Valid output lags are those whose full kernel support falls inside
        the sampled gamma window; there the convolution must vanish for
        |l| >= K + 1 (K factors widen the annihilated core by one lag each).
        """
        kp = metastability_kernel(mu_list)
        k = len(mu_list)
        for mu in mu_list:
            lags = np.arange(-k - 8, k + 9)
            gamma = 3.7 * mu ** np.abs(lags)  # pure geometric tail
            out = np.convolve(kp, gamma)
            center = len(out) // 2
            for ell in range(k + 1, 9):
                assert abs(out[center + ell]) < 1e-12, (mu, ell)
                assert abs(out[center - ell]) < 1e-12, (mu, ell)

    def test_mu_near_one_rejected(self):
        with pytest.raises(UnstableKernelError, match="unstable"):
            metastability_kernel((0.96,))

    def test_unpaired_complex_rejected(self):
        with pytest.raises(UnstableKernelError, match="conjugate"):
            metastability_kernel((0.3 + 0.4j,))


class TestKernelSpec:
    def test_iid(self):
        k = KernelSpec.iid()
        assert k.mode == "iid"
        assert k.half_width == 0
        assert k.weight(0) == 1.0
        assert k.weight(1) == 0.0

    def test_windowed_zero_matches_iid_weights(self):
        k = KernelSpec.windowed(0)
        assert k.mode == "iid"
        assert_allclose(k.kappa_m, KernelSpec.iid().kappa_m)

    def test_mode_reads_the_lag_weights(self):
        assert KernelSpec.windowed(1).mode == "iid"    # kappa_w vanishes at |x| = 1
        assert KernelSpec.windowed(2).mode == "windowed"
        assert KernelSpec.windowed(0, (-0.5,)).mode == "windowed"

    def test_the_caller_sets_only_the_window_and_the_slow_modes(self):
        assert [f.name for f in dataclasses.fields(KernelSpec) if f.init] == ["l_window", "mu_list"]
        k = KernelSpec(3, [-0.5])
        assert k.mu_list == (-0.5 + 0j,)
        assert not k.kappa_p.flags.writeable and not k.kappa_m.flags.writeable
        with pytest.raises(ShapeError, match="l_window must be >= 0"):
            KernelSpec(-1, ())

    @pytest.mark.parametrize(
        "kernel",
        [
            KernelSpec.iid(),
            KernelSpec.windowed(0),
            KernelSpec.windowed(1),
            KernelSpec.windowed(5, (-0.6, 0.2 + 0.7j, 0.2 - 0.7j)),
        ],
        ids=["iid", "windowed0", "windowed1", "windowed5-mus"],
    )
    def test_the_weights_equal_the_general_derivation(self, kernel):
        # Without slow modes the weights skip the deflation and the
        # convolution; they must be what the general derivation gives.
        lw = kernel.l_window
        kp = metastability_kernel(kernel.mu_list)
        km = np.convolve(kp, kappa_w(np.arange(-lw, lw + 1) / max(lw, 1)))
        mode = "windowed" if np.delete(km, kernel.half_width).any() else "iid"
        assert kernel.kappa_p.tobytes() == kp.tobytes()
        assert kernel.kappa_m.tobytes() == km.tobytes()
        assert kernel.mode == mode
        assert kernel.to_json_dict() == {
            "mode": mode,
            "l_window": lw,
            "mu_list": [{"re": m.real, "im": m.imag} for m in kernel.mu_list],
            "kappa_p": kp.tolist(),
            "kappa_m": km.tolist(),
        }

    def test_weight_symmetric(self):
        k = KernelSpec.windowed(4, (-0.5,))
        for lag in range(k.half_width + 2):
            assert k.weight(lag) == k.weight(-lag)

    def test_tilde_weights_halve_lag_zero(self):
        k = KernelSpec.windowed(3)
        kt = k.tilde_weights()
        assert_allclose(kt[0], 0.5 * k.weight(0))
        assert_allclose(kt[1:], [k.weight(l) for l in range(1, 4)])

    @pytest.mark.parametrize("l_window", [1, 2, 5, 20])
    @pytest.mark.parametrize("mu_list", [(), (-0.6,), (0.2 + 0.7j, 0.2 - 0.7j)])
    def test_fourier_nonnegative(self, l_window, mu_list):
        """The combined lag weights must have a non-negative transform."""
        k = KernelSpec.windowed(l_window, mu_list)
        assert k.min_fourier() >= -1e-8

    def test_json_round_trip_fields(self):
        k = KernelSpec.windowed(2, (-0.5,))
        d = k.to_json_dict()
        assert d["mode"] == "windowed"
        assert d["l_window"] == 2
        assert len(d["kappa_m"]) == 2 * k.half_width + 1


class TestWindowLength:
    def test_reference_point(self):
        # tau = 1 makes the growth constant 16/pi^4, so M = round(16 pi^4)
        # puts the raw length at 10^(1/5) exactly; rounding gives 3... the
        # closed form: (16*1559/pi^4)^(1/5) = 2.998 -> 3
        assert window_length(1.0, 1559) == 3

    def test_floor(self):
        assert window_length(1e-6, 1000) == 1

    def test_cap_at_sqrt_m(self):
        assert window_length(1e6, 100) == 10

    def test_monotone_in_tau(self):
        lengths = [window_length(t, 10_000) for t in (0.5, 1.0, 2.0, 4.0)]
        assert lengths == sorted(lengths)

    def test_bad_inputs(self):
        with pytest.raises(ShapeError):
            window_length(0.0, 100)
        with pytest.raises(ShapeError):
            window_length(1.0, 1)
        for tau in (np.nan, np.inf):
            with pytest.raises(ShapeError, match="tau must be positive and finite"):
                window_length(tau, 100)


class TestEstimateTau:
    @staticmethod
    def _ar_series(phi, m, seed=0):
        rng = np.random.default_rng(seed)
        x = np.empty(m + 1)
        x[0] = rng.normal() / np.sqrt(1 - phi**2)
        for t in range(m):
            x[t + 1] = phi * x[t] + rng.normal()
        return SnapshotSeries(x[:-1, None], x[1:, None], "trajectory")

    def test_recovers_decay_scale(self):
        # trace autocovariances of the per-sample products decay like
        # phi^(2 l); the matching timescale is -1/(2 ln phi) = 2.24
        s = self._ar_series(0.8, 40_000)
        tau = estimate_tau(s, lam=2.0)
        assert 1.0 < tau < 3.5

    def test_monotone_in_correlation(self):
        weak = estimate_tau(self._ar_series(0.3, 20_000, seed=1), lam=2.0)
        strong = estimate_tau(self._ar_series(0.95, 20_000, seed=1), lam=2.0)
        assert strong > weak

    def test_iid_falls_back_small(self):
        s = _series(4000, 2, seed=5)
        assert estimate_tau(s) == 0.5

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_the_fit_reads_the_materialized_autocovariances(self, kind, monkeypatch):
        # r(l) = (1/M) sum_m Re tr((C_{m+l} - C)^* (C_m - C)), at lags that
        # straddle the blocks of rows the estimate walks.
        rng = np.random.default_rng(49)
        m, n = 3000, 3
        noise = rng.normal(size=(m, n)) + (1j * rng.normal(size=(m, n)) if kind == "complex" else 0)
        z = np.zeros((m + 1, n), dtype=noise.dtype)
        for t in range(m):
            z[t + 1] = 0.9 * z[t] + noise[t]
        s = SnapshotSeries(z[:-1], z[1:], "trajectory")
        lam = 1.2 - 0.3j if kind == "complex" else 2.0
        fitted, polyfit = [], np.polyfit
        monkeypatch.setattr(np, "polyfit", lambda x, y, deg: fitted.append(np.exp(y)) or polyfit(x, y, deg))
        estimate_tau(s, lam)
        ut, vt = _sample_factors(s, lam)
        g = gram_matrices(s)
        d = np.einsum("im,jm->mij", ut, vt.conj()) - (lam * g.psi_xx - g.psi_xy)
        r = [np.vdot(d[lag:], d[: m - lag]).real / m for lag in range(len(fitted[0]))]
        assert len(r) >= 10
        assert_allclose(fitted[0], r, rtol=1e-10)

    def test_reads_the_series_in_row_blocks(self):
        rng = np.random.default_rng(48)
        a = rng.normal(size=(20_000, 8))
        s = SnapshotSeries(a, 0.5 * a + rng.normal(size=a.shape), "trajectory")
        _series_gram(s)
        tracemalloc.start()
        try:
            estimate_tau(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (s.a.nbytes + s.b.nbytes) / 4


class TestDefaultMuList:
    def test_skips_unit_mode_with_note(self):
        eigs = [1.0 + 0j, 0.9, -0.8, 0.5]
        mus, notes = default_mu_list(eigs, top_k=2)
        assert mus == (0.9 + 0j, -0.8 + 0j)
        assert len(notes) == 1 and "skipped" in notes[0]

    def test_conjugate_closure(self):
        eigs = [0.7 + 0.5j, 0.2]
        mus, _ = default_mu_list(eigs, top_k=1)
        assert 0.7 - 0.5j in mus

    def test_zero_k(self):
        mus, notes = default_mu_list([0.9, 0.5], top_k=0)
        assert mus == ()
        assert notes == []


KERNEL_CASES = [
    KernelSpec.iid(),
    KernelSpec.windowed(1),
    KernelSpec.windowed(5),
    KernelSpec.windowed(3, (-0.6,)),
    KernelSpec.windowed(2, (0.3 + 0.5j, 0.3 - 0.5j)),
]


def test_sample_factors_average_to_c_hat():
    s = _series(50, 4, seed=18)
    g = gram_matrices(s)
    lam = 0.7 + 0.9j
    ut, vt = _sample_factors(s, lam)
    assert ut.shape == vt.shape == (4, 50)
    assert ut.flags.c_contiguous and vt.flags.c_contiguous
    c_sum = np.zeros((4, 4), dtype=complex)
    for m in range(s.M):
        c_sum += np.outer(ut[:, m], vt[:, m].conj())
    assert_allclose(c_sum / s.M, lam * g.psi_xx - g.psi_xy, atol=1e-12)


class TestVarianceApply:
    @pytest.mark.parametrize("kernel", KERNEL_CASES)
    def test_fast_equals_naive(self, kernel):
        s = _series(180, 4, seed=21)
        lam = 1.1 + 0.3j
        q = _random_psd(4, 22)
        fast = variance_apply(q, lam, s, kernel).result
        slow = variance_apply_naive(q, lam, s, kernel).result
        denom = np.linalg.norm(slow)
        assert np.linalg.norm(fast - slow) <= 1e-10 * denom

    def test_fast_equals_naive_indefinite_q(self):
        s = _series(120, 3, seed=23)
        rng = np.random.default_rng(24)
        q = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q = 0.5 * (q + q.conj().T)  # Hermitian but indefinite
        kernel = KernelSpec.windowed(4, (-0.5,))
        fast = variance_apply(q, 0.8 - 0.6j, s, kernel).result
        slow = variance_apply_naive(q, 0.8 - 0.6j, s, kernel).result
        assert_allclose(fast, slow, atol=1e-12 * np.linalg.norm(slow))

    def test_iid_reduces_to_lag_zero(self):
        s = _series(90, 3, seed=25)
        lam = 1.3 + 0.1j
        q = _random_psd(3, 26)
        out = variance_apply(q, lam, s, KernelSpec.iid()).result
        ut, vt = _sample_factors(s, lam)
        g = gram_matrices(s)
        c_hat = lam * g.psi_xx - g.psi_xy
        gamma0 = np.zeros((3, 3), dtype=complex)
        for m in range(s.M):
            c_m = np.outer(ut[:, m], vt[:, m].conj()) - c_hat
            gamma0 += c_m.conj().T @ q @ c_m
        assert_allclose(out, gamma0 / s.M, atol=1e-12)

    def test_result_hermitian(self):
        s = _series(100, 5, seed=27)
        out = variance_apply(_random_psd(5, 28), 1.2, s, KernelSpec.windowed(3)).result
        assert_allclose(out, out.conj().T, rtol=0, atol=0)

    def test_psd_preserved(self):
        """PSD test matrices must map to PSD results (spot check)."""
        for seed in range(30):
            n = 2 + seed % 4
            s = _series(80 + seed, n, seed=100 + seed)
            kernel = KERNEL_CASES[seed % len(KERNEL_CASES)]
            q = _random_psd(n, 200 + seed)
            out = variance_apply(q, 1.15 + 0.25j, s, kernel)
            wmin = np.linalg.eigvalsh(out.result)[0]
            assert wmin >= -1e-10 * np.linalg.norm(out.result)

    def test_real_linear_in_q(self):
        s = _series(70, 3, seed=29)
        kernel = KernelSpec.windowed(2, (-0.4,))
        q1 = _random_psd(3, 30)
        q2 = _random_psd(3, 31)
        lam = 1.4 - 0.2j
        a1 = variance_apply(q1, lam, s, kernel)
        a2 = variance_apply(q2, lam, s, kernel)
        combo = variance_apply(2.0 * q1 - 0.7 * q2, lam, s, kernel)
        assert_allclose(
            combo.result, 2.0 * a1.result - 0.7 * a2.result, atol=1e-11
        )

    def test_window_too_large(self):
        s = _series(10, 2, seed=34)
        with pytest.raises(WindowTooLargeError):
            variance_apply(np.eye(2), 1.0, s, KernelSpec.windowed(10))


def _no_tensor(self, series):
    raise AssertionError("tensor built past the cap")


class TestRealIidCovariance:
    """The real-arithmetic iid V against the materialized reference."""

    BLOCK = _ROW_BLOCK
    M = 2 * BLOCK + 37    # a partial last block
    LAMS = np.array([1.1 + 0.3j, -0.7 + 0.9j, 0.4 - 1.3j])

    def _setup(self, m=M):
        s = _series(m, 4, seed=40, complex_data=False)
        assert _RealIidCovariance.applies(s, KernelSpec.iid())
        return s, _RealIidCovariance.of(s)

    @staticmethod
    def _assert_matches_naive(v, s, lams, seed):
        gram = gram_matrices(s)
        c_hat = char_contexts(gram, lams)[1]
        w = np.stack([_random_psd(4, seed + k) for k in range(len(lams))])
        if v is not None:
            assert _RealIidCovariance.of(s) is v
        fast = _covariance(s, KernelSpec.iid())(lams, c_hat)(w)
        for k, lam in enumerate(lams):
            slow = variance_apply_naive(w[k], lam, s, KernelSpec.iid()).result
            assert np.linalg.norm(fast[k] - slow) <= 1e-10 * np.linalg.norm(slow)
        return w

    @pytest.mark.parametrize(
        "batch, form, m",
        [
            pytest.param(1, "direct", M, id="1-direct"),
            pytest.param(3, "blocks", M, id="3-blocks"),
            pytest.param(3, "direct per W", M, id="3-direct per W"),
            pytest.param(1, "direct", BLOCK - 100, id="1-direct-one partial block"),
            pytest.param(3, "direct per W", BLOCK - 100, id="3-direct per W-one partial block"),
            pytest.param(1, "direct", 3 * BLOCK + 37, id="1-direct-3 blocks + 37"),
            pytest.param(3, "direct per W", 3 * BLOCK + 37, id="3-direct per W-3 blocks + 37"),
        ],
    )
    def test_equals_naive(self, batch, form, m, monkeypatch):
        if form != "blocks":
            # Past one Khatri-Rao block, as a large N is: no tensor, but the
            # direct form of the stream.
            monkeypatch.setattr(_RealIidCovariance, "MAX_BLOCK_ENTRIES", 1)
            monkeypatch.setattr(_RealIidCovariance, "_build_tensor", _no_tensor)
        s = _series(m, 4, seed=40, complex_data=False)
        assert _RealIidCovariance.applies(s, KernelSpec.iid()) == (form == "blocks")
        v = _RealIidCovariance.of(s) if form == "blocks" else None
        w = self._assert_matches_naive(v, s, self.LAMS[:batch], seed=41)
        if batch > 1:
            # The stream and the tensor give the same halves P on the same stack.
            monkeypatch.undo()
            lams = self.LAMS[:batch]
            c_hat = char_contexts(gram_matrices(s), lams)[1]
            direct = _streamed(s, KernelSpec.iid())(lams, c_hat)(w)
            tensor = _RealIidCovariance(s).bind(lams, c_hat)(w)
            for k in range(batch):
                err = np.linalg.norm(direct[k] - tensor[k])
                assert err <= 1e-12 * np.linalg.norm(tensor[k])

    def test_a_lone_w_builds_no_temporary_that_grows_with_m(self, monkeypatch):
        # The stream's direct form, which a dictionary too large for the tensor takes.
        monkeypatch.setattr(_RealIidCovariance, "MAX_BLOCK_ENTRIES", 1)
        s = _series(20_000, 10, seed=43, complex_data=False)
        assert not _RealIidCovariance.applies(s, KernelSpec.iid())
        lams = self.LAMS[:1]
        half = _streamed(s, KernelSpec.iid())(lams, char_contexts(gram_matrices(s), lams)[1])
        # It reads the series through its block reader and holds no (2N, M) copy of it.
        held = _closed_over(half)
        assert any(x is s for x in held)
        assert not _held_copies_of_the_samples(half, s)
        w = _random_psd(10, 44)[np.newaxis]
        tracemalloc.start()
        try:
            half(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (s.a.nbytes + s.b.nbytes) / 4

    def test_the_tensor_build_holds_no_second_tensor(self):
        # One Khatri-Rao block (M <= BLOCK): its product is written into T itself.
        s = _series(300, 40, seed=47, complex_data=False)
        tracemalloc.start()
        try:
            v = _RealIidCovariance(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.tensor is not None
        assert peak < 1.6 * v.tensor.nbytes

    def test_a_lone_w_takes_the_tensor_like_any_stack(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("stream used under the cap")

        monkeypatch.setattr(variance, "_streamed", forbidden)
        s, v = self._setup()
        assert v.tensor is not None
        for k in range(len(self.LAMS)):
            self._assert_matches_naive(v, s, self.LAMS[k : k + 1], seed=50 + k)

    def test_the_tensor_is_packed(self):
        # Upper-triangle pairs on both sides: N(N+1)/2 rows, N(2N+1) columns.
        s, v = self._setup()
        assert v.tensor.shape == (4 * 5 // 2, 4 * 9)

    def test_after_the_build_no_application_reads_the_samples(self):
        s, v = self._setup()
        assert v.tensor is not None
        assert not _held_copies_of_the_samples(v, s)
        self._assert_matches_naive(v, s, self.LAMS[:2], seed=60)
        self._assert_matches_naive(v, s, self.LAMS, seed=61)
        self._assert_matches_naive(v, s, self.LAMS[2:], seed=62)

    def test_only_iid_on_real_data(self):
        real = _series(50, 2, seed=42, complex_data=False)
        assert not _RealIidCovariance.applies(real, KernelSpec.windowed(2))
        assert not _RealIidCovariance.applies(_series(50, 2, seed=42), KernelSpec.iid())

    def test_past_the_khatri_rao_cap_the_stream_takes_over(self):
        # One block of 512 rows at N(2N+1) packed pairs: N = 31 fits in 2^20 entries, 32 does not.
        for n, tensor in ((31, True), (32, False)):
            s = SnapshotSeries(np.ones((self.BLOCK, n)), np.ones((self.BLOCK, n)), "iid")
            assert _RealIidCovariance.applies(s, KernelSpec.iid()) == tensor


def test_v_allocates_nothing_of_length_m():
    # A windowed kernel on a real trajectory, its point bound before tracing:
    # one application reads the samples in blocks and copies none of them.
    rng = np.random.default_rng(45)
    m, n = 20_000, 8
    a = rng.normal(size=(m, n))
    b = a @ rng.uniform(-0.5, 0.5, size=(n, n)).T + 0.3 * rng.normal(size=(m, n))
    s = SnapshotSeries(a, b, "trajectory")
    lams = np.array([1.1 + 0.3j])
    v = _covariance(s, KernelSpec.windowed(3))(lams, char_contexts(gram_matrices(s), lams)[1])
    w = _random_psd(n, 46)[np.newaxis]
    tracemalloc.start()
    try:
        v(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("kind", ["real iid", "windowed", "complex"])
def test_the_working_basis_read_in_blocks_matches_a_whitened_copy(kind):
    # Two blocks and a partial one of rows, each whitened as it is read, give
    # what a materialised whitened copy of the series gives: the Gram pair, the
    # real iid tensor, and the stream's V (complex: iid kernel, complex rows).
    m, n = 2 * _ROW_BLOCK + 37, 4
    rng = np.random.default_rng(62)
    scales = np.array([1.0, 10.0, 0.1, 3.0])    # a basis that whitening changes
    a = rng.normal(size=(m, n)) + (1j * rng.normal(size=(m, n)) if kind == "complex" else 0)
    b = (a @ rng.uniform(-0.5, 0.5, size=(n, n)).T + 0.3 * rng.normal(size=(m, n))) * scales
    series = SnapshotSeries(a * scales, b, "trajectory")
    work = charmatrix._working(series)[0]
    copy = SnapshotSeries(*work._rows(0, m), "trajectory")
    gram = gram_matrices(work)
    for got, want in ((gram.psi_xx, copy.a.T @ copy.a.conj()), (gram.psi_xy, copy.a.T @ copy.b.conj())):
        assert np.linalg.norm(got - want / m) <= 1e-13 * np.linalg.norm(want / m)
    if kind == "real iid":
        got, want = _RealIidCovariance(work).tensor, _RealIidCovariance(copy).tensor
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        return
    kernel = KernelSpec.windowed(3, (-0.4,)) if kind == "windowed" else KernelSpec.iid()
    assert not _RealIidCovariance.applies(work, kernel)
    lams = np.array([1.1 + 0.3j, -0.7 + 0.9j])
    w = np.stack([_random_psd(n, 63 + k) for k in range(len(lams))])
    fast = _covariance(work, kernel)(lams, char_contexts(gram, lams)[1])(w)
    for k, lam in enumerate(lams):
        slow = variance_apply_naive(w[k], lam, copy, kernel).result
        assert np.linalg.norm(fast[k] - slow) <= 1e-10 * np.linalg.norm(slow)


class TestPsdRepairPolicy:
    """V repairs nothing; positivity is tested on S[Q] by the pencil."""

    def test_indefinite_input_passes_through(self):
        s = _series(150, 3, seed=45)
        rng = np.random.default_rng(46)
        basis = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        q = (basis * np.array([1.0, 0.0, -1.0])) @ basis.conj().T
        lam = 1.1 + 0.3j
        fast = variance_apply(q, lam, s, KernelSpec.iid()).result
        slow = variance_apply_naive(q, lam, s, KernelSpec.iid()).result
        assert np.linalg.norm(fast - slow) <= 1e-10 * np.linalg.norm(slow)
        w_fast, w_slow = np.linalg.eigvalsh(fast), np.linalg.eigvalsh(slow)
        assert w_slow[0] < -0.1 * w_slow[-1]
        assert_allclose(w_fast, w_slow, rtol=0, atol=1e-10 * np.linalg.norm(slow))
