"""Gram matrices, the EDMD operator, and factorized characteristic matrices.

The characteristic matrix at a complex point ``lam`` is

    C(lam) = lam * Psi_XX - Psi_XY,

which is singular exactly when ``lam`` is an eigenvalue of the EDMD matrix
``K = Psi_XX^{-1} Psi_XY``.  Downstream code only ever needs solves with
C(lam) and its condition estimate, so this module hands out an LU context
rather than an inverse.

Observable dictionaries routinely mix scales (a constant next to cubed state
variables), which makes the raw Gram look far more singular than it is.  All
factorizations therefore work on the symmetrically equilibrated matrix
``D^{-1/2} A D^{-1/2}`` with ``D = diag(Psi_XX)``; reported ``rcond`` values
refer to the equilibrated system, i.e. they measure intrinsic near-dependence
between observables rather than scale imbalance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .errors import IllConditionedGramError, InsufficientDataError, NumericError, ShapeError
from .ingest import SnapshotSeries

__all__ = [
    "GramPair",
    "CharContext",
    "EigenMode",
    "gram_matrices",
    "edmd_matrix",
    "char_context",
    "eigensystem",
    "snapshot_factors",
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

    ``psi_xx`` is Hermitian by construction; ``m_samples = 0`` marks
    exact (population) moments supplied by an oracle rather than data.
    """

    psi_xx: np.ndarray
    psi_xy: np.ndarray
    m_samples: int

    def __post_init__(self) -> None:
        xx = np.ascontiguousarray(self.psi_xx, dtype=complex)
        xy = np.ascontiguousarray(self.psi_xy, dtype=complex)
        if xx.ndim != 2 or xx.shape[0] != xx.shape[1]:
            raise ShapeError(f"psi_xx must be square, got shape {xx.shape}")
        if xy.shape != xx.shape:
            raise ShapeError(f"psi_xy shape {xy.shape} != psi_xx shape {xx.shape}")
        if self.m_samples < 0:
            raise ShapeError(f"m_samples must be >= 0, got {self.m_samples}")
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
    return GramPair(psi_xx, psi_xy, series.M)


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
        Reciprocal 1-norm condition estimate of the equilibrated Psi_XX.

    Raises
    ------
    IllConditionedGramError
        If rcond falls below the floor; the estimate is attached to the
        exception.
    """
    s = _equil_scale(gram.psi_xx)
    ss = np.outer(s, s)
    lu, piv, rc = _factor_with_rcond(gram.psi_xx / ss)
    limit = rcond_floor(gram.dim) if floor is None else float(floor)
    if rc < limit:
        raise IllConditionedGramError(
            f"Psi_XX numerically singular (rcond={rc:.3e}); "
            "reduce the dictionary or collect more data",
            rcond=rc,
        )
    # K = S^{-1} K_tilde S undoes the equilibration of both Gram matrices.
    k_hat = lu_solve((lu, piv), gram.psi_xy / ss) * (s[np.newaxis, :] / s[:, np.newaxis])
    return k_hat, rc


def _factor_with_rcond(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """LU-factor ``mat`` and estimate its reciprocal 1-norm condition."""
    if mat.shape == (1, 1):
        # LAPACK's estimator is vacuous at N=1: rcond is 1 unless exactly 0.
        val = mat[0, 0]
        rc = 1.0 if val != 0.0 else 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lu, piv = lu_factor(mat)
        return lu, piv, rc
    anorm = np.linalg.norm(mat, 1)
    with warnings.catch_warnings():
        # scipy warns on exactly-zero pivots; singularity is reported via rcond.
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(mat)
    if anorm == 0.0:
        return lu, piv, 0.0
    gecon, = get_lapack_funcs(("gecon",), (lu,))
    rc, info = gecon(lu, anorm, norm="1")
    if info < 0:
        raise NumericError(f"gecon failed with info={info}")
    return lu, piv, float(rc)


@dataclass(frozen=True)
class CharContext:
    """LU-factorized characteristic matrix C(lam) = lam Psi_XX - Psi_XY.

    The factorization is of the equilibrated matrix S^{-1} C S^{-1} with
    ``S = diag(scale)``; :meth:`solve` folds the scales back in, so to
    callers this behaves exactly like a factorization of ``c_hat``.

    ``singular_flag`` is set when the condition estimate puts ``lam``
    numerically on the spectrum of the EDMD matrix; solves are then
    meaningless and callers should branch before using them.
    """

    lam: complex
    c_hat: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    scale: np.ndarray
    rcond: float
    singular_flag: bool

    @property
    def dim(self) -> int:
        return self.c_hat.shape[0]

    def _scaled(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.ndim == 1:
            return rhs / self.scale
        return rhs / self.scale[:, np.newaxis]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve C x = rhs."""
        return self._scaled(lu_solve((self.lu, self.piv), self._scaled(rhs)))


def char_context(gram: GramPair, lam: complex, floor: float | None = None) -> CharContext:
    """Factor C(lam) once for repeated solves at a fixed spectral point.

    ``floor`` overrides the default ``rcond_floor(N)`` singularity threshold.
    """
    c_hat = lam * gram.psi_xx - gram.psi_xy
    s = _equil_scale(gram.psi_xx)
    lu, piv, rc = _factor_with_rcond(c_hat / np.outer(s, s))
    limit = rcond_floor(gram.dim) if floor is None else float(floor)
    return CharContext(
        lam=complex(lam),
        c_hat=c_hat,
        lu=lu,
        piv=piv,
        scale=s,
        rcond=rc,
        singular_flag=rc < limit,
    )


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


def snapshot_factors(series: SnapshotSeries, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """Rank-one factors of the per-sample characteristic matrices.

    Each sample contributes C_m = u_m v_m^* with u_m = a_m and
    v_m = conj(lam) a_m - b_m, so that (1/M) sum_m C_m = C(lam).

    Returns
    -------
    u, v : ndarray, shape (M, N)
        Row m holds u_m (resp. v_m).
    """
    u = series.a
    v = np.conj(lam) * series.a - series.b
    return u, v
