"""Gram matrices, the EDMD operator, and inverted characteristic matrices.

The characteristic matrix at a complex point ``lam`` is

    C(lam) = lam * Psi_XX - Psi_XY,

which is singular exactly when ``lam`` is an eigenvalue of the EDMD matrix
``K = Psi_XX^{-1} Psi_XY``.  Downstream code only ever needs C(lam)^{-1}
applied to small N x N or (N, M) blocks, many times at each point, so this
module inverts each characteristic matrix once, so that every later solve
is a matrix product.

Every estimate runs in a whitened working basis of its series, whose
Psi_XX is I, so that scale imbalance between observables (a constant next
to cubed state variables) never reaches a solve.  The basis keeps R, not
the whitened rows: its readers take them in row blocks, each whitened as
it is read from the series' own rows (:class:`_WorkingBasis`), so a series
holds its samples once.  The rcond of Psi_XX is
the reciprocal 2-norm condition number of ``D^{-1/2} Psi_XX D^{-1/2}``
(``D = diag(Psi_XX)``), whose one ``eigh`` gives the basis; the rcond at a
point is the exact ``1 / (||A||_1 ||A^{-1}||_1)`` of C(lam), from its inverse.

:func:`char_contexts` inverts many points at once, as a grid sweep needs
them a column at a time, and returns stacks that the batched estimator of
:mod:`specguard.pseudospec` reads directly; a single point is a stack of
one.  :func:`edmd_matrix` takes its rcond and its fit from the whitening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _blas
from .errors import IllConditionedGramError, InsufficientDataError, NumericError, ShapeError
from .ingest import SnapshotSeries, _Memo, _row_blocks

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
    """Compute (1/M) sum a_m a_m^*, (1/M) sum a_m b_m^* from snapshots, a block of rows at a time."""
    if series.M < 2:
        raise InsufficientDataError(
            f"Gram matrices need at least 2 snapshot pairs, got {series.M}"
        )
    psi_xx = psi_xy = 0.0
    for _, a, b in _row_blocks(series):
        psi_xx += a.T @ a.conj()
        psi_xy += a.T @ b.conj()
    return GramPair(psi_xx / series.M, psi_xy / series.M)


def _series_gram(series) -> GramPair:
    """The series' Gram pair, computed on first use and kept with the series."""
    return series._memo.get_or_build("gram", lambda: gram_matrices(series))


def _char_matrix(gram: GramPair, lams) -> np.ndarray:
    """C(lam) = lam Psi_XX - Psi_XY: one matrix at a scalar ``lams``, a stack at a 1-d array."""
    return np.asarray(lams)[..., np.newaxis, np.newaxis] * gram.psi_xx - gram.psi_xy


def _whitening(psi_xx: np.ndarray) -> tuple[np.ndarray, float]:
    """W = D^{-1/2} U diag(mu)^{-1/2}, so that W^* Psi_XX W = I, and rcond = mu_min / mu_max.

    ``D^{-1/2} Psi_XX D^{-1/2} = U diag(mu) U^*`` with ``D = diag(Psi_XX)``;
    W is real for a real Psi_XX.  Where mu_min <= 0 there is no W: rcond is 0, and this raises.
    """
    d = np.sqrt(np.maximum(psi_xx.diagonal().real, np.finfo(float).tiny))
    mu, u = np.linalg.eigh(psi_xx / np.outer(d, d))
    rcond = float(mu[0] / mu[-1]) if mu[0] > 0.0 else 0.0
    _check_gram(rcond, len(mu), 0.0)
    return u / d[:, np.newaxis] / np.sqrt(mu), rcond


def _check_gram(rcond: float, n: int, floor: float | None) -> None:
    """Raise IllConditionedGramError where rcond puts Psi_XX on the singular set."""
    if _is_singular(rcond, n, floor):
        raise IllConditionedGramError(
            f"Psi_XX numerically singular (rcond={rcond:.3e}); "
            "reduce the dictionary or collect more data",
            rcond=rcond,
        )


def edmd_matrix(gram: GramPair, floor: float | None = None) -> tuple[np.ndarray, float]:
    """The EDMD matrix K = Psi_XX^{-1} Psi_XY, through :func:`_whitening`.

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
        Reciprocal 2-norm condition number of the equilibrated Psi_XX.

    Raises
    ------
    IllConditionedGramError
        If rcond falls below the floor, or is 0 (Psi_XX exactly singular);
        rcond is attached to the exception.
    """
    w, rcond = _whitening(gram.psi_xx)
    _check_gram(rcond, gram.dim, floor)
    return w @ (w.conj().T @ gram.psi_xy), rcond    # Psi_XX^{-1} = W W^*


def _invert_stack(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and reciprocal 1-norm condition number of each matrix of a stack.

    rcond is exact, ``1 / (||A||_1 ||A^{-1}||_1)``, so it never exceeds
    LAPACK's ``gecon`` estimate.  The stack is inverted in one LAPACK call
    (:func:`specguard._blas.inv`): an exactly singular matrix comes back
    as an inverse of NaNs, whose norm gives it rcond 0, and its neighbours
    keep their inverses.  An inverse that overflows also gets rcond 0.  At
    N = 1 rcond is exactly 1 unless the matrix is exactly 0.
    """
    anorm = np.abs(mats).sum(axis=1).max(axis=1)
    if not np.isfinite(anorm).all():
        raise NumericError("cannot invert a matrix with non-finite entries")
    with np.errstate(all="ignore"):
        inv, _ = _blas.inv(mats)
        if mats.shape[1] == 1:
            return inv, np.where(mats[:, 0, 0] != 0.0, 1.0, 0.0)
        cond = anorm * np.abs(inv).sum(axis=1).max(axis=1)
        return inv, np.where(np.isfinite(cond), 1.0 / cond, 0.0)


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

    All points are done in one pass, C(lam) as given (an estimate's Gram pair
    is its working basis'); ``floor`` overrides the default ``rcond_floor(N)``
    singularity threshold.  Returns the stacks ``(lams, c_hat, inv, rcond,
    singular)``, one entry per point: the points, C(lam), C(lam)^{-1}, the
    exact reciprocal 1-norm condition number, and the flags set where rcond
    puts the point numerically on the EDMD spectrum.  Solves are meaningless
    there (at an exactly singular C the inverse is all NaN), so callers
    branch before using them.

    A batch is real when the Gram pair is real (a real series' working
    basis) and every point has a zero imaginary part: its points, C(lam)
    and C(lam)^{-1} are then float64, so that the estimate runs in real
    arithmetic.  Any other batch is complex128, a real point in it too.

    Raises
    ------
    ShapeError
        If a point is not finite, or the floor is not.
    NumericError
        If C(lam) overflows at a point.
    """
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    if not np.isfinite(lams).all():
        bad = lams[~np.isfinite(lams)][0]
        raise ShapeError(f"spectral point {bad} is not finite")
    if gram.psi_xx.dtype.kind == "f" and not lams.imag.any():
        lams = lams.real.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow raises below
        c_hat = _char_matrix(gram, lams)
    inv, rcond = _invert_stack(c_hat)
    return lams, c_hat, inv, rcond, _is_singular(rcond, gram.dim, floor)


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


class _WorkingBasis:
    """A series in its whitened working basis: what every estimate reads.

    Its rows are ``a R`` and ``b R`` with R = conj(W) of :func:`_whitening`,
    so its Psi_XX is I to round-off, and a real series stays real.  It keeps
    R, not those rows: :meth:`_rows` whitens a block of the series' own
    read-only rows as it is read, and it has no ``a`` or ``b``, so a reader
    that bypasses the block reader fails.  It holds the series' arrays, not
    the series, whose memo keeps it; its own memo keeps its Gram pair, EDMD
    fit, real iid covariance and covariance routes.  ``_dtype`` is the
    dtype of its rows: float64 for a real series.
    """

    def __init__(self, series: SnapshotSeries, r: np.ndarray) -> None:
        r.setflags(write=False)
        self._a, self._b, self._r = series.a, series.b, r
        self._dtype = np.result_type(series.a, r)
        self.M, self.N = series.M, series.N
        self.sampling_kind, self.dt = series.sampling_kind, series.dt
        self._memo = _Memo()

    def _rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows start..stop-1 of a R and b R."""
        return self._a[start:stop] @ self._r, self._b[start:stop] @ self._r


def _working(series: SnapshotSeries, floor: float | None = None) -> tuple[_WorkingBasis, float]:
    """The series' whitened working basis, which every estimate reads, and the rcond of Psi_XX.

    Made once, kept with the series; raises IllConditionedGramError where
    Psi_XX is singular under ``floor``.
    """

    def whiten() -> tuple[_WorkingBasis, float]:
        w, rcond = _whitening(_series_gram(series).psi_xx)
        return _WorkingBasis(series, w.conj()), rcond

    work, rcond = series._memo.get_or_build("work", whiten)
    _check_gram(rcond, series.N, floor)
    return work, rcond


def _series_fit(
    series: SnapshotSeries, floor: float | None = None
) -> tuple[list[EigenMode], float]:
    """The working basis' EDMD modes, fit once whatever the floor, and the rcond of Psi_XX."""
    work, rcond = _working(series, floor)
    modes = work._memo.get_or_build("fit", lambda: eigensystem(edmd_matrix(_series_gram(work))[0]))
    return modes, rcond
