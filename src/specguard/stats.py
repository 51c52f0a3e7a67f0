"""Statistical tests and diagnostics built on the certified brackets.

The central quantity is M * P_hat(lambda): under the hypothesis that
``lambda`` belongs to the spectrum of the underlying operator, its tail is
dominated by the worse of a chi-square(1) and a scaled chi-square(2) tail,
which gives a conservative p-value

    p(c) = max( 1 - F_chi2_1(c),  1 - F_chi2_2(2 c) )
         = max( erfc(sqrt(c / 2)), exp(-c) ).

Everything downstream (eigenvalue tests, confidence regions, spectral-gap
clustering) consumes the certified lower endpoint of the bracket, so the
conclusions remain valid even when the power iteration stopped early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blas
from .charmatrix import _fit, char_context
from .errors import ShapeError
from .ingest import SnapshotSeries
from .pseudospec import (
    STATUS_AT_EIGENVALUE,
    STATUS_CONVERGED,
    STATUS_DEGENERATE_S,
    PEstimate,
    PowerIterSettings,
    SweepResult,
    _check_off_spectrum,
    _series_estimates,
    _series_gram,
    _spd_root,
)
from .variance import KernelSpec, _check_window, _hermitize, _sample_factors

__all__ = [
    "chi2_cdf",
    "p_value_from_mphat",
    "EigTestResult",
    "eig_test",
    "SpectralReport",
    "spectrum_test",
    "ConfidenceRegion",
    "confidence_region",
    "Cluster",
    "ClusterReport",
    "cluster_eigenvalues",
    "r_estimate",
    "CountingBound",
    "counting_exponent",
    "SampleSizeAdvice",
    "sample_size_advice",
]

#: ratio of neighboring bracket values that flags a possibly under-resolved grid.
UNDER_RESOLUTION_RATIO = 10.0

_erf = np.vectorize(math.erf, otypes=[float])
_erfc = np.vectorize(math.erfc, otypes=[float])


def chi2_cdf(k: int, x: np.ndarray | float) -> np.ndarray | float:
    """Chi-square CDF for k in {1, 2} via closed forms.

    F_1(x) = erf(sqrt(x/2)), F_2(x) = 1 - exp(-x/2).
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise ValueError("chi2_cdf requires x >= 0")
    if k == 1:
        out = _erf(np.sqrt(xa / 2.0))
    elif k == 2:
        out = 1.0 - np.exp(-xa / 2.0)
    else:
        raise ValueError(f"k must be 1 or 2, got {k}")
    return out if np.ndim(x) else float(out)


def p_value_from_mphat(c: np.ndarray | float) -> np.ndarray | float:
    """Conservative eigenvalue-test p-value from c = M * P_hat(lambda).

    p = max(erfc(sqrt(c/2)), exp(-c)); p(0) = 1.  The exp(-c) branch binds
    for small c, while the chi-square(1) tail erfc(sqrt(c/2)) decays only
    like exp(-c/2) and therefore binds for large c.
    """
    ca = np.asarray(c, dtype=float)
    if np.any(ca < 0.0):
        raise ValueError("M * P_hat must be >= 0")
    out = np.maximum(_erfc(np.sqrt(ca / 2.0)), np.exp(-ca))
    return out if np.ndim(c) else float(out)


@dataclass(frozen=True, eq=False)
class EigTestResult:
    """Outcome of testing one candidate eigenvalue.

    ``testable`` is False when the bracket degenerated and no certified
    lower endpoint exists; ``m_p_hat`` and ``p_value`` are then None.
    ``conjectured_bound`` marks eigenvalues with numerical multiplicity
    greater than one, where the tail bound is supported only empirically.
    """

    lam: complex
    m_p_hat: float | None
    p_value: float | None
    reject_at: tuple[tuple[float, bool], ...]
    status: str
    testable: bool = True
    conjectured_bound: bool = False

    def to_json_dict(self) -> dict:
        """The result as a report row, without the row's index or residual."""
        return {
            "lambda": {"re": self.lam.real, "im": self.lam.imag},
            "m_p_hat": self.m_p_hat,
            "p_value": self.p_value,
            "reject": {f"{a:g}": bool(r) for a, r in self.reject_at},
            "status": self.status,
            "testable": self.testable,
            "conjectured_bound": self.conjectured_bound,
        }

    def rejects(self, alpha: float) -> bool:
        for a, flag in self.reject_at:
            if a == alpha:
                return flag
        raise KeyError(f"no decision recorded for alpha={alpha}")


def eig_test(
    lam: complex,
    estimate: PEstimate,
    m_samples: int,
    multiplicity: int = 1,
    alphas: tuple[float, ...] = (0.05, 0.01),
) -> EigTestResult:
    """Test H0: ``lam`` is a spectral point, from a certified bracket.

    Uses the certified lower endpoint, so a bracket that merely ran out of
    iterations still yields a valid (if weaker) test.  A degenerate bracket
    is reported as not testable rather than silently accepted.
    """
    if m_samples < 1:
        raise ShapeError(f"m_samples must be >= 1, got {m_samples}")
    if estimate.status == STATUS_DEGENERATE_S:
        return EigTestResult(
            lam=complex(lam),
            m_p_hat=None,
            p_value=None,
            reject_at=(),
            status=estimate.status,
            testable=False,
            conjectured_bound=multiplicity > 1,
        )
    c = m_samples * max(estimate.lower, 0.0)
    p = float(p_value_from_mphat(c))
    return EigTestResult(
        lam=complex(lam),
        m_p_hat=c,
        p_value=p,
        reject_at=tuple((float(a), p <= a) for a in alphas),
        status=estimate.status,
        testable=True,
        conjectured_bound=multiplicity > 1,
    )


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Per-eigenvalue test results for one snapshot series."""

    results: tuple[EigTestResult, ...]
    eigen_residuals: tuple[float, ...]
    rcond: float
    m_samples: int
    kernel: KernelSpec

    def to_json_dict(self) -> dict:
        rows = [
            {"index": i, "residual": residual, **res.to_json_dict()}
            for i, (res, residual) in enumerate(zip(self.results, self.eigen_residuals))
        ]
        return {
            "eigenvalues": rows,
            "rcond": self.rcond,
            "m_samples": self.m_samples,
            "kernel": self.kernel.to_json_dict(),
        }


def spectrum_test(
    series: SnapshotSeries,
    kernel: KernelSpec,
    settings: PowerIterSettings | None = None,
    alphas: tuple[float, ...] = (0.05, 0.01),
    floor: float | None = None,
) -> SpectralReport:
    """Run the eigenvalue test at every eigenvalue of the EDMD matrix.

    A kernel window that does not fit the sample raises before the fit,
    even though at-eigenvalue points never apply the kernel.  The fit and
    the estimates run with BLAS on one thread (see :mod:`specguard._blas`)
    and share the series' Gram matrices; the estimates at all eigenvalues
    are one batch, whose characteristic matrices are inverted in one call.
    """
    _check_window(kernel, series.M)
    modes, rcond = _fit(_series_gram(series), floor)
    vals = np.array([m.eigenvalue for m in modes])
    ests = _series_estimates(series, kernel, vals, settings, floor)
    results = []
    for mode, est in zip(modes, ests):
        mult = int(
            np.sum(np.abs(vals - mode.eigenvalue) <= 1e-8 * max(1.0, abs(mode.eigenvalue)))
        )
        results.append(eig_test(mode.eigenvalue, est, series.M, multiplicity=mult, alphas=alphas))
    return SpectralReport(
        results=tuple(results),
        eigen_residuals=tuple(mode.residual for mode in modes),
        rcond=rcond,
        m_samples=series.M,
        kernel=kernel,
    )


# ---------------------------------------------------------------------------
# Grid-based region statements
# ---------------------------------------------------------------------------


def _nearest_cell(
    re_axis: np.ndarray, im_axis: np.ndarray, z: complex
) -> tuple[int, int] | None:
    """Indices (i_im, j_re) of the cell containing z, or None if outside.

    Grid points are treated as cell centers; a point further than half a
    grid step beyond the boundary belongs to no cell.  One-point axes
    accept any coordinate along that axis.
    """

    def locate(axis: np.ndarray, x: float) -> int | None:
        idx = int(np.argmin(np.abs(axis - x)))
        if len(axis) == 1:
            return idx
        half = 0.5 * float(axis[1] - axis[0])
        if abs(x - float(axis[idx])) <= half + 1e-12 * max(1.0, abs(x)):
            return idx
        return None

    j = locate(re_axis, z.real)
    i = locate(im_axis, z.imag)
    if i is None or j is None:
        return None
    return i, j


@dataclass(frozen=True, eq=False)
class ConfidenceRegion:
    """Grid cells not rejected at level alpha, i.e. a confidence set for
    the spectrum at confidence 1 - alpha."""

    alpha: float
    member: np.ndarray                 # bool, (n_im, n_re)
    bbox: tuple[float, float, float, float] | None
    eig_inside: tuple[bool, ...] | None
    warnings: tuple[str, ...]

    @property
    def n_members(self) -> int:
        return int(self.member.sum())


def confidence_region(
    sweep_result: SweepResult,
    m_samples: int,
    alpha: float,
    eigenvalues: list[complex] | np.ndarray | None = None,
) -> ConfidenceRegion:
    """Threshold a sweep into a confidence region for the spectrum.

    A cell is a member when its bracket is trustworthy (converged, or
    exactly at an EDMD eigenvalue) and the eigenvalue test does not reject
    there: p(M * lower) > alpha.  At alpha = 1 the region is empty; as
    alpha decreases the region grows.
    """
    if not 0.0 < alpha <= 1.0:
        raise ShapeError(f"alpha must be in (0, 1], got {alpha}")
    vals = m_samples * np.clip(sweep_result.lower, 0.0, None)
    pvals = np.asarray(p_value_from_mphat(vals))
    trusted = np.isin(
        sweep_result.status, (STATUS_CONVERGED, STATUS_AT_EIGENVALUE)
    )
    member = trusted & (pvals > alpha)

    bbox = None
    if member.any():
        ii, jj = np.nonzero(member)
        bbox = (
            float(sweep_result.re_axis[jj.min()]),
            float(sweep_result.re_axis[jj.max()]),
            float(sweep_result.im_axis[ii.min()]),
            float(sweep_result.im_axis[ii.max()]),
        )

    eig_inside = None
    warnings: list[str] = []
    if eigenvalues is not None:
        flags = []
        for k, z in enumerate(eigenvalues):
            cell = _nearest_cell(sweep_result.re_axis, sweep_result.im_axis, complex(z))
            if cell is None:
                warnings.append(f"eigenvalue {k} at {complex(z):.4g} lies outside the grid")
                flags.append(False)
            else:
                flags.append(bool(member[cell]))
        eig_inside = tuple(flags)
    return ConfidenceRegion(
        alpha=float(alpha),
        member=member,
        bbox=bbox,
        eig_inside=eig_inside,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True, eq=False)
class Cluster:
    """One connected low-bracket component and the eigenvalues inside it."""

    cells: tuple[tuple[int, int], ...]     # (i_im, j_re) grid indices
    eig_indices: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ClusterReport:
    """Spectral clustering of eigenvalues by connected sublevel sets of
    M * lower.  ``bulk_index`` points at the largest-footprint cluster;
    eigenvalues inside it (or outside the grid) are ``unresolved``."""

    level: float
    clusters: tuple[Cluster, ...]
    bulk_index: int | None
    unresolved: tuple[int, ...]
    warnings: tuple[str, ...]

    def cluster_of(self, eig_index: int) -> int | None:
        for cid, cluster in enumerate(self.clusters):
            if eig_index in cluster.eig_indices:
                return cid
        return None

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "bulk_index": self.bulk_index,
            "unresolved": list(self.unresolved),
            "warnings": list(self.warnings),
            "clusters": [
                {
                    "id": cid,
                    "eigenvalues": list(c.eig_indices),
                    "n_cells": len(c.cells),
                    "cells": [[int(i), int(j)] for i, j in c.cells],
                }
                for cid, c in enumerate(self.clusters)
            ],
        }


def cluster_eigenvalues(
    sweep_result: SweepResult,
    eigenvalues: list[complex] | np.ndarray,
    level: float,
    m_samples: int,
) -> ClusterReport:
    """Group eigenvalues by 4-connected components of {M * lower < level}.

    Each eigenvalue's own cell is force-included so every in-grid
    eigenvalue belongs to exactly one cluster even at tiny levels; raising
    the level only merges clusters.  Eigenvalues falling in the bulk
    component (the largest by footprint) cannot be separated from the
    essential-spectrum approximation and are reported as unresolved, as are
    eigenvalues outside the grid entirely.
    """
    if m_samples < 1:
        raise ShapeError(f"m_samples must be >= 1, got {m_samples}")
    vals = m_samples * np.clip(sweep_result.lower, 0.0, None)
    mask = vals < level

    warnings: list[str] = []
    cells: list[tuple[int, int] | None] = []
    for k, z in enumerate(eigenvalues):
        cell = _nearest_cell(sweep_result.re_axis, sweep_result.im_axis, complex(z))
        cells.append(cell)
        if cell is None:
            warnings.append(
                f"eigenvalue {k} at {complex(z):.4g} lies outside the grid; unresolved"
            )
        else:
            mask[cell] = True
            warnings.extend(_under_resolution_note(sweep_result, vals, cell, k))

    labels = _label_components(mask)
    by_label: dict[int, list[tuple[int, int]]] = {}
    for i, j in zip(*np.nonzero(labels)):
        by_label.setdefault(int(labels[i, j]), []).append((int(i), int(j)))
    eig_by_label: dict[int, list[int]] = {}
    for k, cell in enumerate(cells):
        if cell is not None:
            eig_by_label.setdefault(int(labels[cell]), []).append(k)

    ordered = sorted(
        by_label.items(), key=lambda kv: (-len(kv[1]), min(kv[1]))
    )
    clusters = tuple(
        Cluster(cells=tuple(sorted(cell_list)), eig_indices=tuple(eig_by_label.get(lab, ())))
        for lab, cell_list in ordered
    )
    bulk_index = 0 if clusters else None
    unresolved = [k for k, cell in enumerate(cells) if cell is None]
    if bulk_index is not None:
        unresolved.extend(clusters[bulk_index].eig_indices)
    return ClusterReport(
        level=float(level),
        clusters=clusters,
        bulk_index=bulk_index,
        unresolved=tuple(sorted(set(unresolved))),
        warnings=tuple(warnings),
    )


def _label_components(mask: np.ndarray) -> np.ndarray:
    """Label the 4-connected components of a boolean grid.

    Background cells get 0 and the components 1, 2, ... in the raster
    order of their first cell.
    """
    n_im, n_re = mask.shape
    cells = mask.tolist()
    labels = np.zeros(mask.shape, dtype=int)
    count = 0
    for start in zip(*np.nonzero(mask)):
        if labels[start]:
            continue
        count += 1
        labels[start] = count
        stack = [start]
        while stack:
            i, j = stack.pop()
            for ii, jj in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if 0 <= ii < n_im and 0 <= jj < n_re and cells[ii][jj] and not labels[ii, jj]:
                    labels[ii, jj] = count
                    stack.append((ii, jj))
    return labels


def _under_resolution_note(
    sweep_result: SweepResult, vals: np.ndarray, cell: tuple[int, int], k: int
) -> list[str]:
    """Flag steep bracket gradients right next to an eigenvalue's cell."""
    i, j = cell
    if sweep_result.status[i, j] != STATUS_CONVERGED or vals[i, j] <= 0.0:
        return []
    n_im, n_re = vals.shape
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ii, jj = i + di, j + dj
        if not (0 <= ii < n_im and 0 <= jj < n_re):
            continue
        if sweep_result.status[ii, jj] != STATUS_CONVERGED or vals[ii, jj] <= 0.0:
            continue
        if vals[ii, jj] / vals[i, j] > UNDER_RESOLUTION_RATIO:
            return [
                f"grid may under-resolve eigenvalue {k}: bracket jumps by "
                f"{vals[ii, jj] / vals[i, j]:.1f}x at a neighboring cell"
            ]
    return []


# ---------------------------------------------------------------------------
# Concentration diagnostics
# ---------------------------------------------------------------------------


@_blas.single_thread()
def r_estimate(
    lam: complex, q: np.ndarray, series: SnapshotSeries, floor: float | None = None
) -> float:
    """Empirical concentration radius max_m ||Q^{1/2}(C^{-1}C_m - I)Q^{-1/2}||.

    Each per-sample matrix is a rank-one update of -I, so its norm reduces
    to a 2x2 block on span{a_m, v_m} (plus 1 whenever a complement
    direction exists); total cost O(M N^2) instead of M singular value
    decompositions.  Runs with BLAS on one thread (see :mod:`specguard._blas`).
    """
    ctx = char_context(_series_gram(series), lam, floor)
    _check_off_spectrum(ctx, "the concentration radius")
    root, w, vecs = _spd_root(_hermitize(np.asarray(q, dtype=complex)), "q")
    inv_root = (vecs / np.sqrt(w)) @ vecs.conj().T

    n, m = series.N, series.M
    ut, vt = _sample_factors(series, lam)
    a_cols = root @ ctx.solve(ut)      # Q^{1/2} C^{-1} u_m
    v_cols = inv_root @ vt             # Q^{-1/2} v_m

    if n == 1:
        return float(np.max(np.abs(a_cols[0] * v_cols[0].conj() - 1.0)))

    n1 = np.linalg.norm(a_cols, axis=0)
    n2 = np.linalg.norm(v_cols, axis=0)
    ip = np.sum(a_cols.conj() * v_cols, axis=0)           # <a_m, v_m>
    safe_n1 = np.where(n1 > 0.0, n1, 1.0)
    resid2 = np.clip(n2**2 - np.abs(ip) ** 2 / safe_n1**2, 0.0, None)
    off = np.where(n1 > 0.0, n1 * np.sqrt(resid2), 0.0)
    diag = np.where(n1 > 0.0, ip.conj() - 1.0, -1.0)

    blocks = np.zeros((m, 2, 2), dtype=complex)
    blocks[:, 0, 0] = diag
    blocks[:, 0, 1] = off
    blocks[:, 1, 1] = -1.0
    sigmas = np.linalg.svd(blocks, compute_uv=False)[:, 0]
    best = float(np.max(sigmas))
    if n > 2:
        best = max(best, 1.0)
    return best


@dataclass(frozen=True)
class CountingBound:
    """Exponential bound on the probability of a spurious eigenvalue."""

    exponent: float
    probability_bound: float
    note: str


def counting_exponent(p_star: float, r_est: float, m_samples: int) -> CountingBound:
    """Tail exponent for observing an eigenvalue where P >= p_star.

    exponent = (p_star / 2) * M / (1 + p_star * r_est / 3); the probability
    of a spurious eigenvalue in that region is at most a constant times
    exp(-exponent).  Requires independent snapshot pairs.
    """
    if p_star <= 0.0:
        raise ShapeError(f"p_star must be positive, got {p_star}")
    if r_est < 0.0:
        raise ShapeError(f"r_est must be >= 0, got {r_est}")
    if m_samples < 1:
        raise ShapeError(f"m_samples must be >= 1, got {m_samples}")
    exponent = (p_star / 2.0) * m_samples / (1.0 + p_star * r_est / 3.0)
    return CountingBound(
        exponent=float(exponent),
        probability_bound=float(math.exp(-exponent)),
        note=(
            "bound holds up to an absolute constant prefactor and assumes "
            "independent snapshot pairs"
        ),
    )


@dataclass(frozen=True)
class SampleSizeAdvice:
    """Minimum sample sizes for a target pseudospectrum resolution."""

    m_variance: int      # 2 / p_star: resolve P ~ p_star against noise
    m_dimension: int     # 2 sqrt(N / p_star): dimension-dependent floor
    recommended: int


def sample_size_advice(p_star: float, n_dim: int) -> SampleSizeAdvice:
    """Advise on M for resolving pseudospectrum values of size ``p_star``."""
    if p_star <= 0.0:
        raise ShapeError(f"p_star must be positive, got {p_star}")
    if n_dim < 1:
        raise ShapeError(f"n_dim must be >= 1, got {n_dim}")
    m1 = math.ceil(2.0 / p_star - 1e-12)
    m2 = math.ceil(2.0 * math.sqrt(n_dim / p_star) - 1e-12)
    return SampleSizeAdvice(m_variance=m1, m_dimension=m2, recommended=max(m1, m2))
