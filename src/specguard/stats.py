"""Statistical tests built on the certified brackets.

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

from .charmatrix import _series_fit
from .errors import ShapeError
from .ingest import SnapshotSeries
from .pseudospec import (
    STATUS_AT_EIGENVALUE,
    STATUS_CONVERGED,
    STATUS_DEGENERATE_S,
    PEstimate,
    PowerIterSettings,
    SweepResult,
    _series_estimates,
)
from .variance import KernelSpec, _check_window

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


def _check_level(level: float) -> None:
    """Raise ShapeError unless the clustering level is finite."""
    if not np.isfinite(level):
        raise ShapeError(f"level must be finite, got {level}")


def _check_alphas(alphas) -> None:
    """Raise ShapeError unless every test level lies in (0, 1]."""
    for alpha in alphas:
        if not 0.0 < alpha <= 1.0:
            raise ShapeError(f"alpha must be in (0, 1], got {alpha}")


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
    is reported as not testable rather than silently accepted.  Every
    level in ``alphas`` must lie in (0, 1].
    """
    _check_alphas(alphas)
    if m_samples < 1:
        raise ShapeError(f"m_samples must be >= 1, got {m_samples}")
    testable = estimate.status != STATUS_DEGENERATE_S
    c = m_samples * max(estimate.lower, 0.0) if testable else None
    p = float(p_value_from_mphat(c)) if testable else None
    return EigTestResult(
        lam=complex(lam),
        m_p_hat=c,
        p_value=p,
        reject_at=tuple((float(a), p <= a) for a in alphas) if testable else (),
        status=estimate.status,
        testable=testable,
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
    in the series' whitened working basis; the fit is the series' memoised
    one (``charmatrix._series_fit``); the estimates at all eigenvalues
    are one batch, whose characteristic matrices are inverted in one call.
    A level in ``alphas`` outside (0, 1] raises before the fit too.
    """
    _check_alphas(alphas)
    _check_window(kernel, series.M)
    modes, rcond = _series_fit(series, floor)
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
    _check_alphas((alpha,))
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
    eigenvalues outside the grid entirely.  A non-finite level raises ShapeError.
    """
    _check_level(level)
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
