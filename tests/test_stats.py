"""Eigenvalue tests, confidence regions, clustering, and concentration
diagnostics.

Grid-level functions are exercised on synthetic SweepResult objects so the
expected memberships and cluster layouts can be written down by hand.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats as scipy_stats
from scipy.special import erfc

from specguard.charmatrix import gram_matrices
from specguard.errors import AtEigenvalueError, NotSPDError, ShapeError, WindowTooLargeError
from specguard.ingest import SnapshotSeries
from specguard.pseudospec import (
    PEstimate,
    STATUS_AT_EIGENVALUE,
    STATUS_CONVERGED,
    STATUS_DEGENERATE_S,
    STATUS_MAX_ITERS,
    SweepResult,
)
from specguard.stats import (
    _label_components,
    chi2_cdf,
    cluster_eigenvalues,
    confidence_region,
    counting_exponent,
    eig_test,
    p_value_from_mphat,
    r_estimate,
    sample_size_advice,
    spectrum_test,
)
from specguard.variance import KernelSpec

CHI1_CRIT_95 = 3.841458820694124  # 95% quantile of chi-square(1)


def _series(m, n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    b = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    return SnapshotSeries(a, b, "iid")


def _estimate(lower, upper=None, status=STATUS_CONVERGED, n=2, iterations=5):
    return PEstimate(
        lower=lower,
        upper=lower if upper is None else upper,
        iterations=iterations,
        q_final=np.eye(n, dtype=complex) / n,
        status=status,
    )


def _grid_result(lower, status=None, step=0.1, m_samples=100):
    """SweepResult over a small grid with cell centers at k * step."""
    lower = np.asarray(lower, dtype=float)
    n_im, n_re = lower.shape
    if status is None:
        status = np.full(lower.shape, STATUS_CONVERGED, dtype=object)
    return SweepResult(
        re_axis=step * np.arange(n_re),
        im_axis=step * np.arange(n_im),
        lower=lower,
        upper=1.5 * lower + 1e-3,
        iterations=np.ones(lower.shape, dtype=int),
        status=np.asarray(status, dtype=object),
        m_samples=m_samples,
        rel_tol=0.1,
        kernel=KernelSpec.iid(),
    )


class TestPValue:
    def test_zero_gives_one(self):
        assert p_value_from_mphat(0.0) == 1.0

    def test_chi1_branch_at_critical_value(self):
        # erfc(sqrt(c/2)) is exactly the chi-square(1) tail.
        assert_allclose(p_value_from_mphat(CHI1_CRIT_95), 0.05, rtol=1e-12)

    def test_exp_branch_binds_for_small_c(self):
        assert_allclose(p_value_from_mphat(0.5), math.exp(-0.5), rtol=1e-15)
        assert erfc(math.sqrt(0.25)) < math.exp(-0.5)

    def test_erfc_branch_binds_for_large_c(self):
        assert_allclose(p_value_from_mphat(20.0), erfc(math.sqrt(10.0)), rtol=1e-13)
        assert math.exp(-20.0) < erfc(math.sqrt(10.0))

    def test_monotone_decreasing(self):
        c = np.linspace(0.0, 50.0, 501)
        p = p_value_from_mphat(c)
        assert np.all(np.diff(p) <= 0.0)
        assert np.all((p > 0.0) & (p <= 1.0))

    def test_scalar_and_array_types(self):
        assert isinstance(p_value_from_mphat(1.0), float)
        out = p_value_from_mphat(np.array([0.0, 1.0]))
        assert isinstance(out, np.ndarray)
        assert out.shape == (2,)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            p_value_from_mphat(-1e-3)


class TestChi2Cdf:
    def test_closed_form_pins(self):
        assert chi2_cdf(1, 0.0) == 0.0
        assert chi2_cdf(2, 0.0) == 0.0
        assert_allclose(chi2_cdf(1, CHI1_CRIT_95), 0.95, rtol=1e-12)
        assert_allclose(chi2_cdf(2, 2.0 * math.log(2.0)), 0.5, rtol=1e-15)

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_scipy(self, k):
        x = np.linspace(0.0, 20.0, 81)
        assert_allclose(chi2_cdf(k, x), scipy_stats.chi2.cdf(x, df=k), atol=1e-14)

    def test_scalar_and_array_types(self):
        assert isinstance(chi2_cdf(1, 2.0), float)
        assert isinstance(chi2_cdf(2, np.array([1.0, 2.0])), np.ndarray)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="x >= 0"):
            chi2_cdf(1, -0.1)
        with pytest.raises(ValueError, match="k must be 1 or 2"):
            chi2_cdf(3, 1.0)


class TestEigTest:
    def test_zero_bracket_never_rejects(self):
        res = eig_test(1.0 + 0.0j, _estimate(0.0), m_samples=500)
        assert res.testable
        assert res.m_p_hat == 0.0
        assert res.p_value == 1.0
        assert res.reject_at == ((0.05, False), (0.01, False))
        assert not res.rejects(0.05)
        assert not res.conjectured_bound

    def test_negative_lower_clipped_to_zero(self):
        res = eig_test(1.0, _estimate(-1e-12, upper=1e-12), m_samples=100)
        assert res.m_p_hat == 0.0
        assert res.p_value == 1.0

    def test_large_bracket_rejects_at_both_levels(self):
        res = eig_test(2.0, _estimate(0.02, upper=0.03), m_samples=1000)
        assert_allclose(res.m_p_hat, 20.0, rtol=1e-15)
        assert_allclose(res.p_value, erfc(math.sqrt(10.0)), rtol=1e-13)
        assert res.rejects(0.05) and res.rejects(0.01)

    def test_unknown_alpha_lookup_raises(self):
        res = eig_test(1.0, _estimate(0.0), m_samples=10)
        with pytest.raises(KeyError, match="alpha=0.5"):
            res.rejects(0.5)

    def test_custom_alphas(self):
        res = eig_test(1.0, _estimate(0.01), m_samples=100, alphas=(0.5,))
        assert res.reject_at == ((0.5, math.exp(-1.0) <= 0.5),)
        assert res.rejects(0.5)

    def test_degenerate_bracket_is_untestable(self):
        est = _estimate(0.0, upper=math.inf, status=STATUS_DEGENERATE_S)
        res = eig_test(1.0, est, m_samples=100, multiplicity=2)
        assert not res.testable
        assert res.m_p_hat is None and res.p_value is None
        assert res.reject_at == ()
        assert res.status == STATUS_DEGENERATE_S
        assert res.conjectured_bound

    def test_max_iters_bracket_still_testable(self):
        res = eig_test(1.0, _estimate(0.001, upper=0.5, status=STATUS_MAX_ITERS), 100)
        assert res.testable
        assert_allclose(res.m_p_hat, 0.1, rtol=1e-15)

    def test_multiplicity_marks_conjectured_bound(self):
        assert eig_test(1.0, _estimate(0.0), 10, multiplicity=2).conjectured_bound
        assert not eig_test(1.0, _estimate(0.0), 10, multiplicity=1).conjectured_bound

    def test_bad_sample_count(self):
        with pytest.raises(ShapeError, match="m_samples"):
            eig_test(1.0, _estimate(0.0), m_samples=0)


class TestSpectrumTest:
    def test_edmd_eigenvalues_are_never_rejected(self):
        series = _series(300, 3, seed=5)
        report = spectrum_test(series, KernelSpec.iid())
        assert len(report.results) == 3
        assert report.m_samples == 300
        for res in report.results:
            assert res.status == STATUS_AT_EIGENVALUE
            assert res.m_p_hat == 0.0
            assert res.p_value == 1.0
            assert not res.rejects(0.05)
        assert max(report.eigen_residuals) < 1e-8

    def test_window_too_large_raises(self):
        # Every EDMD eigenvalue is at_eigenvalue and never applies the kernel,
        # so the window must be checked up front.
        series = _series(50, 3, seed=5)
        with pytest.raises(WindowTooLargeError, match="half-width 60 >= M=50"):
            spectrum_test(series, KernelSpec.windowed(60))

    def test_repeated_eigenvalue_flags_conjecture(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
        series = SnapshotSeries(a, 0.5 * a, "iid")
        report = spectrum_test(series, KernelSpec.iid())
        for res in report.results:
            assert_allclose(res.lam, 0.5 + 0.0j, atol=1e-12)
            assert res.conjectured_bound

    def test_json_dict_layout(self):
        series = _series(150, 2, seed=7)
        report = spectrum_test(series, KernelSpec.iid())
        doc = report.to_json_dict()
        assert set(doc) == {"eigenvalues", "rcond", "m_samples", "kernel"}
        assert doc["m_samples"] == 150
        assert doc["kernel"] == KernelSpec.iid().to_json_dict()
        row = doc["eigenvalues"][0]
        assert row["index"] == 0
        assert set(row["reject"]) == {"0.05", "0.01"}
        assert "cluster_id" not in row
        assert row["testable"] is True
        assert isinstance(row["lambda"]["re"], float)


class TestConfidenceRegion:
    def test_membership_rule(self):
        # c = 100 * lower: 0 -> p = 1, 0.2 -> p = e^-0.2, 100 -> p ~ 1e-23.
        lower = np.array([[0.0, 0.002, 1.0], [0.0, 1.0, 0.002]])
        status = np.full((2, 3), STATUS_CONVERGED, dtype=object)
        status[1, 0] = STATUS_MAX_ITERS
        region = confidence_region(_grid_result(lower, status), 100, alpha=0.05)
        assert_array_equal(
            region.member, [[True, True, False], [False, False, True]]
        )
        assert region.n_members == 3

    def test_at_eigenvalue_status_is_trusted(self):
        status = np.full((1, 2), STATUS_AT_EIGENVALUE, dtype=object)
        region = confidence_region(
            _grid_result(np.zeros((1, 2)), status), 100, alpha=0.05
        )
        assert region.member.all()

    def test_alpha_one_gives_empty_region(self):
        region = confidence_region(_grid_result(np.zeros((2, 2))), 100, alpha=1.0)
        assert region.n_members == 0
        assert region.bbox is None

    def test_regions_nest_as_alpha_decreases(self):
        rng = np.random.default_rng(3)
        lower = rng.uniform(0.0, 0.08, size=(6, 6))
        result = _grid_result(lower, m_samples=100)
        inner = confidence_region(result, 100, alpha=0.2).member
        outer = confidence_region(result, 100, alpha=0.01).member
        assert np.all(outer[inner])
        assert outer.sum() > inner.sum()

    def test_bbox_spans_members(self):
        lower = np.full((3, 3), 1.0)
        lower[0, 1] = lower[2, 1] = lower[1, 2] = 0.0
        region = confidence_region(_grid_result(lower), 100, alpha=0.05)
        assert_allclose(region.bbox, (0.1, 0.2, 0.0, 0.2), atol=1e-12)

    def test_eigenvalue_containment_and_warnings(self):
        lower = np.full((3, 3), 1.0)
        lower[1, 1] = 0.0
        eigs = [0.1 + 0.1j, 0.2 + 0.0j, 50.0 + 0.0j]
        region = confidence_region(_grid_result(lower), 100, 0.05, eigenvalues=eigs)
        assert region.eig_inside == (True, False, False)
        assert len(region.warnings) == 1
        assert "outside the grid" in region.warnings[0]

    def test_no_eigenvalues_means_no_flags(self):
        region = confidence_region(_grid_result(np.zeros((2, 2))), 50, 0.1)
        assert region.eig_inside is None
        assert region.warnings == ()

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.1])
    def test_alpha_validation(self, alpha):
        with pytest.raises(ShapeError, match="alpha"):
            confidence_region(_grid_result(np.zeros((2, 2))), 100, alpha)


class TestClusterEigenvalues:
    def test_islands_resolve_but_bulk_does_not(self):
        vals = np.full((5, 7), 1.8)
        vals[:, :2] = 0.1          # 10-cell bulk component
        vals[1, 4] = 0.2           # island A
        vals[3, 6] = 0.2           # island B
        eigs = [0.4 + 0.1j, 0.6 + 0.3j, 0.0 + 0.2j, 99.0 + 99.0j]
        report = cluster_eigenvalues(
            _grid_result(vals / 100.0), eigs, level=1.0, m_samples=100
        )
        assert len(report.clusters) == 3
        assert report.bulk_index == 0
        assert len(report.clusters[0].cells) == 10
        assert report.clusters[1].cells == ((1, 4),)
        assert report.clusters[2].cells == ((3, 6),)
        assert report.cluster_of(0) == 1
        assert report.cluster_of(1) == 2
        assert report.cluster_of(2) == 0
        assert report.cluster_of(3) is None
        assert report.unresolved == (2, 3)
        assert len(report.warnings) == 1
        assert "outside the grid" in report.warnings[0]

    def test_eigenvalue_cell_is_force_included(self):
        vals = np.full((3, 3), 5.0)
        report = cluster_eigenvalues(
            _grid_result(vals / 100.0), [0.1 + 0.1j], level=1e-6, m_samples=100
        )
        assert len(report.clusters) == 1
        assert report.clusters[0].cells == ((1, 1),)
        assert report.clusters[0].eig_indices == (0,)
        # the lone cluster is the bulk, so the eigenvalue stays unresolved
        assert report.unresolved == (0,)

    def test_diagonal_cells_are_separate_clusters(self):
        vals = np.full((3, 3), 5.0)
        vals[0, 0] = vals[1, 1] = 0.1
        report = cluster_eigenvalues(
            _grid_result(vals / 100.0), [0.0 + 0.0j, 0.1 + 0.1j], 1.0, 100
        )
        assert len(report.clusters) == 2
        assert report.clusters[0].cells == ((0, 0),)  # tie broken by first cell
        assert report.bulk_index == 0
        assert report.unresolved == (0,)
        assert report.cluster_of(1) == 1

    def test_raising_level_merges_clusters(self):
        vals = np.array([[0.1, 0.5, 3.0, 0.5, 0.1]])
        eigs = [0.0 + 0.0j, 0.4 + 0.0j]
        sweep_result = _grid_result(vals / 100.0)
        low = cluster_eigenvalues(sweep_result, eigs, level=1.0, m_samples=100)
        high = cluster_eigenvalues(sweep_result, eigs, level=5.0, m_samples=100)
        assert len(low.clusters) == 2
        assert len(high.clusters) == 1
        assert high.clusters[0].eig_indices == (0, 1)
        assert high.unresolved == (0, 1)

    def test_under_resolution_warning(self):
        vals = np.full((3, 3), 1.0)
        vals[1, 2] = 15.0
        report = cluster_eigenvalues(
            _grid_result(vals / 100.0), [0.1 + 0.1j], level=2.0, m_samples=100
        )
        assert any("under-resolve eigenvalue 0" in w for w in report.warnings)
        assert any("15.0x" in w for w in report.warnings)

    def test_no_warning_at_exact_eigenvalue_cell(self):
        vals = np.full((3, 3), 1.0)
        vals[1, 1] = 0.0      # the eigenvalue cell itself is exact
        vals[1, 2] = 15.0
        report = cluster_eigenvalues(
            _grid_result(vals / 100.0), [0.1 + 0.1j], level=2.0, m_samples=100
        )
        assert report.warnings == ()

    def test_no_warning_for_gentle_gradient(self):
        vals = np.full((3, 3), 1.0)
        vals[1, 2] = 9.0
        report = cluster_eigenvalues(
            _grid_result(vals / 100.0), [0.1 + 0.1j], level=2.0, m_samples=100
        )
        assert report.warnings == ()

    def test_sample_count_validation(self):
        with pytest.raises(ShapeError, match="m_samples"):
            cluster_eigenvalues(_grid_result(np.zeros((2, 2))), [0.0j], 1.0, 0)

    def test_json_dict_layout(self):
        vals = np.full((3, 3), 5.0)
        vals[0, 0] = 0.1
        report = cluster_eigenvalues(
            _grid_result(vals / 100.0), [0.0 + 0.0j], level=1.0, m_samples=100
        )
        doc = report.to_json_dict()
        assert set(doc) == {"level", "bulk_index", "unresolved", "warnings", "clusters"}
        assert doc["clusters"][0] == {
            "id": 0,
            "eigenvalues": [0],
            "n_cells": 1,
            "cells": [[0, 0]],
        }


class TestLabelComponents:
    @pytest.mark.parametrize("seed", range(6))
    def test_partition_matches_scipy_ndimage(self, seed):
        from scipy import ndimage

        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 30, size=2))
        mask = rng.random(shape) < rng.uniform(0.2, 0.8)
        labels = _label_components(mask)
        ref, n_ref = ndimage.label(mask)
        assert_array_equal(labels > 0, mask)
        pairs = set(zip(labels[mask].tolist(), ref[mask].tolist()))
        assert len(pairs) == n_ref == labels.max()

    def test_importing_the_cli_loads_neither_ndimage_nor_special(self, tmp_path):
        """No scipy module at all, after the import and after running commands."""
        import specguard
        from specguard.cli import main

        assert main(["generate", "--system", "map1d", "--M", "200", "--N", "4",
                     "--seed", "4", "--out", str(tmp_path / "map.csv")]) == 0
        commands = [
            ["cluster", "--data", "map.csv", "--iid", "--level", "1.0",
             "--re-min", "-1", "--re-max", "1", "--n-re", "3",
             "--im-min", "-1", "--im-max", "1", "--n-im", "3", "--out", "c.json"],
            ["edmd", "--data", "map.csv", "--out", "e.json"],
            ["test", "--data", "map.csv", "--lambda", "0.5+0.5j", "--iid", "--out", "t.json"],
        ]
        src = str(Path(specguard.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (
            "import json, sys, specguard.cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "after_import = scipy_modules()\n"
            "codes = [specguard.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([after_import, codes, scipy_modules()]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(commands)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        after_import, codes, after_runs = json.loads(proc.stdout.strip().splitlines()[-1])
        assert codes == [0, 0, 0]
        assert after_import == after_runs == []


def _dense_radius(lam, q, series):
    """Reference max_m ||Q^{1/2}(C^{-1}C_m - I)Q^{-1/2}||_2 via full SVDs."""
    gram = gram_matrices(series)
    c_hat = lam * gram.psi_xx - gram.psi_xy
    qh = 0.5 * (np.asarray(q, dtype=complex) + np.asarray(q, dtype=complex).conj().T)
    w, vecs = np.linalg.eigh(qh)
    root = (vecs * np.sqrt(w)) @ vecs.conj().T
    inv_root = (vecs / np.sqrt(w)) @ vecs.conj().T
    cinv = np.linalg.inv(c_hat)
    eye = np.eye(series.N)
    best = 0.0
    for m in range(series.M):
        u = series.a[m]
        v = np.conj(lam) * series.a[m] - series.b[m]
        mat = root @ cinv @ np.outer(u, v.conj()) @ inv_root - eye
        best = max(best, float(np.linalg.svd(mat, compute_uv=False)[0]))
    return best


class TestREstimate:
    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(21)
        series = _series(40, 3, seed=21)
        w = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q = w @ w.conj().T / 3 + 0.1 * np.eye(3)
        lam = 1.7 + 0.3j
        assert_allclose(
            r_estimate(lam, q, series), _dense_radius(lam, q, series), rtol=1e-10
        )

    def test_matches_dense_oracle_without_complement(self):
        # N = 2: every per-sample matrix is full size, no padded direction.
        series = _series(60, 2, seed=8)
        q = np.diag([1.0, 3.0]).astype(complex)
        lam = 2.0 - 0.5j
        assert_allclose(
            r_estimate(lam, q, series), _dense_radius(lam, q, series), rtol=1e-10
        )

    def test_scalar_branch(self):
        series = _series(50, 1, seed=2)
        q = np.array([[2.0]], dtype=complex)
        lam = 1.3 + 0.0j
        assert_allclose(
            r_estimate(lam, q, series), _dense_radius(lam, q, series), rtol=1e-12
        )

    def test_complement_direction_floors_at_one(self):
        series = _series(30, 4, seed=9)
        q = np.eye(4, dtype=complex)
        r = r_estimate(2.5 + 0.0j, q, series)
        assert r >= 1.0
        assert_allclose(r, _dense_radius(2.5 + 0.0j, q, series), rtol=1e-10)

    def test_hermitizes_q(self):
        rng = np.random.default_rng(4)
        series = _series(40, 3, seed=4)
        q = np.eye(3) + 0.2 * np.diag([1.0, 2.0, 3.0])
        skew = rng.normal(size=(3, 3))
        skew = skew - skew.T
        assert_allclose(
            r_estimate(1.5, q + skew, series),
            r_estimate(1.5, q, series),
            rtol=1e-12,
        )

    def test_at_eigenvalue_raises(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(80, 2)) + 1j * rng.normal(size=(80, 2))
        series = SnapshotSeries(a, a * np.array([0.5, 0.8]), "iid")
        with pytest.raises(AtEigenvalueError, match="eigenvalue"):
            r_estimate(0.5 + 0.0j, np.eye(2), series)

    def test_indefinite_q_rejected(self):
        series = _series(40, 2, seed=1)
        with pytest.raises(NotSPDError, match="positive definite"):
            r_estimate(1.5, np.diag([1.0, -1.0]), series)
        with pytest.raises(NotSPDError, match="positive definite"):
            r_estimate(1.5, np.diag([1.0, 0.0]), series)


class TestCountingExponent:
    def test_pin_without_concentration_penalty(self):
        bound = counting_exponent(0.01, 0.0, 1000)
        assert_allclose(bound.exponent, 5.0, rtol=1e-15)
        assert_allclose(bound.probability_bound, math.exp(-5.0), rtol=1e-15)

    def test_pin_with_radius(self):
        bound = counting_exponent(0.05, 3.0, 500)
        # (0.025 * 500) / (1 + 0.05 * 3 / 3) = 12.5 / 1.05
        assert_allclose(bound.exponent, 12.5 / 1.05, rtol=1e-14)

    def test_radius_only_weakens_the_bound(self):
        base = counting_exponent(0.05, 0.0, 500)
        worse = counting_exponent(0.05, 10.0, 500)
        assert worse.exponent < base.exponent
        assert worse.probability_bound > base.probability_bound

    def test_note_states_independence_assumption(self):
        assert "independent" in counting_exponent(0.1, 1.0, 100).note

    def test_validation(self):
        with pytest.raises(ShapeError, match="p_star"):
            counting_exponent(0.0, 1.0, 100)
        with pytest.raises(ShapeError, match="r_est"):
            counting_exponent(0.1, -1.0, 100)
        with pytest.raises(ShapeError, match="m_samples"):
            counting_exponent(0.1, 1.0, 0)


class TestSampleSizeAdvice:
    @pytest.mark.parametrize(
        "p_star, n_dim, expected",
        [
            (0.01, 100, (200, 200, 200)),
            (0.04, 16, (50, 40, 50)),
            (1.0, 1, (2, 2, 2)),
        ],
    )
    def test_pins(self, p_star, n_dim, expected):
        advice = sample_size_advice(p_star, n_dim)
        assert (advice.m_variance, advice.m_dimension, advice.recommended) == expected

    def test_dimension_term_can_dominate(self):
        advice = sample_size_advice(0.5, 100)
        assert advice.m_variance == 4
        assert advice.m_dimension == math.ceil(2.0 * math.sqrt(200.0))
        assert advice.recommended == advice.m_dimension

    def test_validation(self):
        with pytest.raises(ShapeError, match="p_star"):
            sample_size_advice(0.0, 4)
        with pytest.raises(ShapeError, match="n_dim"):
            sample_size_advice(0.1, 0)
