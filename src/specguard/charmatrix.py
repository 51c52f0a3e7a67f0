"""Gram matrices, the EDMD operator, and inverted characteristic matrices.

The characteristic matrix at a complex point ``lam`` is

    C(lam) = lam * Psi_XX - Psi_XY,

which is singular exactly when ``lam`` is an eigenvalue of the EDMD matrix
``K = Psi_XX^{-1} Psi_XY``.  Downstream code only ever needs C(lam)^{-1}
applied to small N x N or (N, M) blocks, many times at each point, so this
module inverts each characteristic matrix once, so that every later solve
is a matrix product.

Observable dictionaries routinely mix scales (a constant next to cubed state
variables), which makes the raw Gram look far more singular than it is.
Every inverse and condition number is therefore taken of the symmetrically
equilibrated matrix ``D^{-1/2} A D^{-1/2}`` with ``D = diag(Psi_XX)``;
reported ``rcond`` values refer to the equilibrated system, i.e. they
measure intrinsic near-dependence between observables rather than scale
imbalance.  ``rcond`` is the exact reciprocal 1-norm condition number
``1 / (||A||_1 ||A^{-1}||_1)``, taken from the inverse, not an estimate.

:func:`char_contexts` inverts many points at once, as a grid sweep needs
them a column at a time, and returns stacks that the batched estimator of
:mod:`specguard.pseudospec` reads directly; a single point is a stack of
one.  :func:`edmd_matrix` takes the rcond of Psi_XX the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _blas
from .errors import IllConditionedGramError, InsufficientDataError, NumericError, ShapeError
from .ingest import SnapshotSeries

__all__ = [
    "GramPair",
    "EigenMode",
    "gram_matrices",
    "edmd_matrix",
    "char_contexts",
    "eigensystem",
    "rcond_floor",
]

#: rcond below ``RCOND_FLOOR_COEFF * N`` is treated as numerically singular.
RCOND_FLOOR_COEFF = 1e-10


def rcond_floor(n: int) -> float:
    """Dimension-scaled reciprocal-condition threshold for singularity."""
    return RCOND_FLOOR_COEFF * n


@dataclass(frozen=True)
class GramPair:
    """Empirical Gram matrices of a snapshot series.

    ``psi_xx`` is Hermitian by construction.  Both are float64 when both
    inputs are real, as for a real series, so that the EDMD fit solves a
    real problem; else complex128.  An oracle supplies exact (population)
    moments in the same form.
    """

    psi_xx: np.ndarray
    psi_xy: np.ndarray

    def __post_init__(self) -> None:
        xx, xy = np.asarray(self.psi_xx), np.asarray(self.psi_xy)
        dtype = np.result_type(xx, xy, float)
        xx, xy = np.ascontiguousarray(xx, dtype=dtype), np.ascontiguousarray(xy, dtype=dtype)
        if xx.ndim != 2 or xx.shape[0] != xx.shape[1]:
            raise ShapeError(f"psi_xx must be square, got shape {xx.shape}")
        if xy.shape != xx.shape:
            raise ShapeError(f"psi_xy shape {xy.shape} != psi_xx shape {xx.shape}")
        xx = 0.5 * (xx + xx.conj().T)
        object.__setattr__(self, "psi_xx", xx)
        object.__setattr__(self, "psi_xy", xy)

    @property
    def dim(self) -> int:
        return self.psi_xx.shape[0]


def gram_matrices(series: SnapshotSeries) -> GramPair:
    """Compute (1/M) sum a_m a_m^*, (1/M) sum a_m b_m^* from snapshots."""
    if series.M < 2:
        raise InsufficientDataError(
            f"Gram matrices need at least 2 snapshot pairs, got {series.M}"
        )
    a, b = series.a, series.b
    psi_xx = a.T @ a.conj() / series.M
    psi_xy = a.T @ b.conj() / series.M
    return GramPair(psi_xx, psi_xy)


def _series_gram(series: SnapshotSeries) -> GramPair:
    """The series' Gram pair, computed on first use and kept with the series."""
    return series._memo.get_or_build("gram", lambda: gram_matrices(series))


def _char_matrix(gram: GramPair, lams) -> np.ndarray:
    """C(lam) = lam Psi_XX - Psi_XY: one matrix at a scalar ``lams``, a stack at a 1-d array."""
    return np.asarray(lams)[..., np.newaxis, np.newaxis] * gram.psi_xx - gram.psi_xy


def _equil_scale(psi_xx: np.ndarray) -> np.ndarray:
    """Per-observable scale factors sqrt(diag Psi_XX), clipped away from zero."""
    return np.sqrt(np.maximum(psi_xx.diagonal().real, np.finfo(float).tiny))


def edmd_matrix(gram: GramPair, floor: float | None = None) -> tuple[np.ndarray, float]:
    """Solve Psi_XX K = Psi_XY for the EDMD matrix.

    Parameters
    ----------
    gram : GramPair
    floor : float, optional
        Override for the singularity threshold; defaults to
        ``rcond_floor(N)``.  Large delay dictionaries are legitimately
        ill-conditioned and may need a lower floor.

    Returns
    -------
    k_hat : ndarray, shape (N, N)
    rcond : float
        Reciprocal 1-norm condition number of the equilibrated Psi_XX.

    Raises
    ------
    IllConditionedGramError
        If rcond falls below the floor, or is 0 (Psi_XX exactly singular);
        rcond is attached to the exception.
    """
    s = _equil_scale(gram.psi_xx)
    ss = np.outer(s, s)
    eq = gram.psi_xx / ss
    _, (rc,) = _invert_stack(eq[np.newaxis])
    if _is_singular(rc, gram.dim, floor):
        raise IllConditionedGramError(
            f"Psi_XX numerically singular (rcond={rc:.3e}); "
            "reduce the dictionary or collect more data",
            rcond=rc,
        )
    # K = S^{-1} K_tilde S undoes the equilibration of both Gram matrices.  K
    # comes from a backward-stable solve, not the inverse: its constant mode
    # must sit at eigenvalue 1 to near round-off.
    k_hat = np.linalg.solve(eq, gram.psi_xy / ss) * (s[np.newaxis, :] / s[:, np.newaxis])
    return k_hat, float(rc)


def _invert_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and reciprocal 1-norm condition number of each matrix of a stack.

    rcond is exact, ``1 / (||A||_1 ||A^{-1}||_1)``, so it never exceeds
    LAPACK's ``gecon`` estimate.  The stack is inverted in one call; only
    when that raises (some matrix is exactly singular) is it inverted one
    matrix at a time, and an exactly singular matrix gets rcond 0 and an
    inverse of NaNs.  An inverse that overflows also gets rcond 0.  At
    N = 1 rcond is exactly 1 unless the matrix is exactly 0.
    """
    anorm = np.abs(mats).sum(axis=1).max(axis=1)
    if not np.all(np.isfinite(anorm)):
        raise NumericError("cannot invert a matrix with non-finite entries")
    try:
        inv = np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        inv = np.full_like(mats, np.nan)
        for k, mat in enumerate(mats):
            try:
                inv[k] = np.linalg.inv(mat)
            except np.linalg.LinAlgError:
                pass
    if mats.shape[1] == 1:
        return inv, np.where(mats[:, 0, 0] != 0.0, 1.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        cond = anorm * np.abs(inv).sum(axis=1).max(axis=1)
        rcond = np.where(np.isfinite(cond), 1.0 / cond, 0.0)
    return inv, rcond


def _is_singular(rcond, n: int, floor: float | None):
    """Whether each rcond (a scalar or an array) puts its matrix on the singular set.

    An exactly singular matrix (rcond 0) is singular under any floor; a
    floor that is not finite is rejected.
    """
    limit = rcond_floor(n) if floor is None else float(floor)
    if not np.isfinite(limit):
        raise ShapeError(f"rcond floor must be finite, got {floor}")
    return (rcond < limit) | (rcond == 0.0)


def char_contexts(gram: GramPair, lams, floor: float | None = None) -> tuple[np.ndarray, ...]:
    """Invert C(lam) at each point of ``lams`` for repeated solves there.

    All points are done in one pass: the equilibration scale once, then the
    characteristic and equilibrated matrices, their 1-norms and their
    inverses, each as one stack.  ``floor`` overrides the default
    ``rcond_floor(N)`` singularity threshold.  Returns the stacks
    ``(lams, c_hat, inv, rcond, singular)``, one entry per point: the
    points; C(lam); C(lam)^{-1}, the inverse of the equilibrated matrix
    S^{-1} C S^{-1} (``S = diag(Psi_XX)^{1/2}``) scaled back by S^{-1} on
    both sides; rcond, the exact reciprocal 1-norm condition number of the
    equilibrated matrix; and the singular flags, set where rcond puts the
    point numerically on the EDMD spectrum.  Solves are meaningless there
    (at an exactly singular C the inverse is all NaN), so callers branch
    before using them.

    Raises
    ------
    ShapeError
        If a point is not finite, or the floor is not.
    NumericError
        If C(lam) overflows at a point.
    """
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(lams)):
        bad = lams[~np.isfinite(lams)][0]
        raise ShapeError(f"spectral point {bad} is not finite")
    s = _equil_scale(gram.psi_xx)
    ss = np.outer(s, s)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        c_hat = _char_matrix(gram, lams)
        eq = c_hat / ss
    inv_eq, rcond = _invert_stack(eq)
    return lams, c_hat, inv_eq / ss, rcond, _is_singular(rcond, gram.dim, floor)


class EigenMode(NamedTuple):
    eigenvalue: complex
    right_vec: np.ndarray
    residual: float        # ||K v - lam v|| / ||v||


def eigensystem(k_hat: np.ndarray) -> list[EigenMode]:
    """Eigenvalues and right eigenvectors of the EDMD matrix.

    Modes are sorted by descending modulus of the eigenvalue; ties keep the
    dense solver's original ordering so results are reproducible.
    """
    try:
        vals, vecs = np.linalg.eig(k_hat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(-np.abs(vals), kind="stable")
    modes = []
    for idx in order:
        v = vecs[:, idx]
        nrm = np.linalg.norm(v)
        if nrm == 0.0:  # pragma: no cover - dense eig never returns zero vectors
            raise NumericError("eigensolver returned a zero eigenvector")
        v = v / nrm
        res = float(np.linalg.norm(k_hat @ v - vals[idx] * v))
        modes.append(EigenMode(complex(vals[idx]), v, res))
    return modes


def _fit(gram: GramPair, floor: float | None = None) -> tuple[list[EigenMode], float]:
    """The EDMD modes of ``gram`` and the rcond of its Psi_XX, with BLAS on one thread.

    :func:`edmd_matrix` then :func:`eigensystem`, whose errors it raises.
    """
    with _blas.single_thread():
        k_hat, rcond = edmd_matrix(gram, floor)
        return eigensystem(k_hat), rcond


def _series_fit(
    series: SnapshotSeries, floor: float | None = None
) -> tuple[list[EigenMode], float]:
    """:func:`_fit` of the series' Gram pair under ``floor``, made once and kept with the series.

    Every command that needs the EDMD modes reads them here, so no command fits twice.
    """
    return series._memo.get_or_build(f"fit:{floor!r}", lambda: _fit(_series_gram(series), floor))
