"""Certified estimation of the sampling pseudospectrum P(lambda).

The estimator is the reciprocal spectral radius of the positive operator

    S[Q] = V[ C^{-*} Q C^{-1} ],

where C = C(lam) is the characteristic matrix and V the kernel-weighted
covariance from :mod:`specguard.variance`.  Power iteration on S produces,
at every step, a two-sided bracket on 1/rho(S) from the generalized pencil
Q v = sigma S[Q] v; iteration stops once the bracket is relatively tight.
The bracket endpoints are valid bounds for P(lambda-hat) at every iterate,
converged or not.

Every estimate enters the iteration through :func:`_estimate_points`,
which runs a batch of points in lockstep: a sweep's grid column, every
EDMD eigenvalue of a spectrum test, or one point.  It inverts the batch's
characteristic matrices in one :func:`~specguard.charmatrix.char_contexts`
call, pins the points on the spectrum to ``at_eigenvalue`` and iterates
the rest on the S that :func:`_batch_s` composes from that call's stacks
(the oracle applies it at one point through :func:`_s_at`).  V comes
from :func:`specguard.variance._covariance`, which composes it, centred
on the C(lam) stack of that same call; :func:`_batch_s` applies it at
the computed W = C^{-*} Q C^{-1}, so that S[Q] is Hermitian by
construction.  A step is the congruence with the stored inverse, V and
the pencil bracket, all stacked numpy calls, except that V's
sample-dependent part is one blocked pass over the samples on every
route but the real iid tensor, where it is one GEMM.  What depends on the batch's points alone
(C^{-*}, C^*, |lam|^2, conj(lam), the series' real iid covariance) is
bound once and indexed again only when points leave the batch.

Positivity is tested in one place: the pencil's Cholesky factorization of
S[Q].  An S[Q] that fails it by round-off gets a ridge of 1e-12 tr/N (its
upper endpoint becomes inf); one that fails it even then ends its point as
``degenerate_s``.  V itself repairs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _blas
from .charmatrix import GramPair, _series_gram, _working, char_contexts
from .errors import AtEigenvalueError, ShapeError
from .ingest import SnapshotSeries
from .variance import KernelSpec, _Binder, _covariance, _ct, _hermitize, _is_real

__all__ = [
    "STATUS_CONVERGED",
    "STATUS_MAX_ITERS",
    "STATUS_AT_EIGENVALUE",
    "STATUS_DEGENERATE_S",
    "PowerIterSettings",
    "PEstimate",
    "GridSpec",
    "SweepResult",
    "power_iterate",
    "p_hat",
    "sweep",
]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_AT_EIGENVALUE = "at_eigenvalue"
STATUS_DEGENERATE_S = "degenerate_s"

#: relative ridge added to S[Q] when its Cholesky fails on round-off.
_JITTER_REL = 1e-12


@dataclass(frozen=True)
class PowerIterSettings:
    """Stopping control for the certified power iteration.

    ``rel_tol`` bounds the final bracket width: iteration stops when
    upper/lower <= 1 + rel_tol.  Iterates are always trace-normalized.
    Where an iteration starts is not a setting: a sweep cell starts from
    its converged left neighbour's ``q_final``, every other point from I / N.
    """

    rel_tol: float = 0.1
    max_iters: int = 200

    def __post_init__(self) -> None:
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ShapeError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if self.max_iters < 1:
            raise ShapeError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True, eq=False)
class PEstimate:
    """Certified bracket for P(lambda) at one spectral point.

    ``lower <= P <= upper`` whenever status is "converged" or "max_iters";
    "at_eigenvalue" pins both endpoints to 0; "degenerate_s" means S[Q]
    stopped being positive definite and only a partial bracket (possibly
    (0, inf)) is available.  ``q_final`` is in the series' whitened working basis.
    """

    lower: float
    upper: float
    iterations: int
    q_final: np.ndarray
    status: str
    jitter_applied: bool = False

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def _ridged_cholesky(s_of_q: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool, bool]:
    """Cholesky factor of one S[Q], ridged by round-off if needed.

    Returns (factor, s_used, ridged, failed); a failed factor is the identity.
    """
    n = s_of_q.shape[0]
    try:
        return np.linalg.cholesky(s_of_q), s_of_q, False, False
    except np.linalg.LinAlgError:
        pass
    ridge = _JITTER_REL * max(float(np.trace(s_of_q).real), 0.0) / n
    if ridge <= 0.0:
        return np.eye(n, dtype=complex), s_of_q, False, True
    s_used = s_of_q + ridge * np.eye(n)
    try:
        return np.linalg.cholesky(s_used), s_used, True, False
    except np.linalg.LinAlgError:
        return np.eye(n, dtype=complex), s_used, True, True


def _pencil(
    q: np.ndarray, s_of_q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Extreme generalized eigenvalues of Q_k v = sigma S[Q_k] v over a stack.

    Returns (sigma_min, sigma_max, ridged, failed, s_used) per matrix.
    When S[Q_k] has no Cholesky factor it is ridged by round-off; sigma_min
    of the ridged pencil is still a lower bound, but sigma_max is not an
    upper one, so it is reported as inf.  ``failed`` marks an S[Q_k] that
    stays indefinite after the ridge; its endpoints are meaningless.  The
    Cholesky factorization and eigvalsh read the lower triangle only.
    """
    ridged = np.zeros(len(q), dtype=bool)
    failed = np.zeros(len(q), dtype=bool)
    s_used = s_of_q
    try:
        chol = np.linalg.cholesky(s_of_q)
    except np.linalg.LinAlgError:
        chol = np.empty_like(s_of_q)
        s_used = s_of_q.copy()
        for k in range(len(q)):
            chol[k], s_used[k], ridged[k], failed[k] = _ridged_cholesky(s_of_q[k])
    # L^{-1} Q L^{-*} shares the pencil's eigenvalues and is Hermitian.
    chol_inv = np.linalg.inv(chol)
    sig = np.linalg.eigvalsh(chol_inv @ q @ _ct(chol_inv))
    upper = np.where(ridged, np.inf, sig[:, -1])
    return sig[:, 0], upper, ridged, failed, s_used


#: ``bind(live)``: the applier ``q -> S[Q]`` of the batch points ``live``,
#: for their iterates ``q`` (k, N, N); S[Q] must be Hermitian.
_BatchApply = Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]


def _iterate(
    bind: _BatchApply,
    q: np.ndarray,
    settings: PowerIterSettings,
    history: list | None = None,
) -> list[PEstimate]:
    """The certified power iteration, run in lockstep over a batch of points.

    ``q`` (B, N, N) holds each point's starting iterate.  The state holds
    only the points still iterating, in batch order: ``live`` (their
    indices into the batch), the iterates ``q``, their last ``lower`` and
    ``upper``, ``jitter`` and the applier bound to ``live``.  A point
    leaves when it converges or degenerates (its S[Q] does not factor even
    after a round-off ridge, or has no positive trace), and what is left
    after ``max_iters`` steps stops there.  Each step computes one stop
    mask; only a step where some point stops finishes points, compacts
    the state to the rest and binds the applier again, so the
    bookkeeping costs scale with these events.  ``history``, for
    one-point batches, receives every step's (lower, upper).

    ``q_final`` is the trace-one iterate whose pencil produced the returned
    bracket, so it can seed a warm start at a nearby spectral point; a
    ``degenerate_s`` point keeps the iterate whose S[Q] failed.
    """
    q = np.array(q, dtype=complex)
    out: list[PEstimate | None] = [None] * len(q)
    live = np.arange(len(q))
    apply_s = bind(live)
    lower = np.zeros(len(q))
    upper = np.full(len(q), np.inf)
    jitter = np.zeros(len(q), dtype=bool)
    tol = 1.0 + settings.rel_tol

    def finish(mask: np.ndarray, status: str) -> None:
        for k in np.flatnonzero(mask):
            out[live[k]] = PEstimate(
                lower=float(lower[k]),
                upper=float(upper[k]),
                iterations=iterations,
                q_final=q[k].copy(),
                status=status,
                jitter_applied=bool(jitter[k]),
            )

    with np.errstate(divide="ignore", invalid="ignore"):
        for iterations in range(1, settings.max_iters + 1):
            lo, hi, ridged, failed, s_used = _pencil(q, apply_s(q))
            lo = np.maximum(lo, 0.0)
            if history is not None:
                history.extend(zip(lo[~failed].tolist(), hi[~failed].tolist()))
            trace = np.trace(s_used, axis1=-2, axis2=-1).real
            done = (lo > 0.0) & (hi / lo <= tol)
            stop = failed | done | ~((trace > 0.0) & (trace < np.inf))
            if stop.any():
                # A failed point keeps the bracket of its last good step.
                finish(failed, STATUS_DEGENERATE_S)
                lower, upper, jitter = lo, hi, jitter | ridged
                finish(done & ~failed, STATUS_CONVERGED)
                finish(stop & ~(failed | done), STATUS_DEGENERATE_S)
                keep = ~stop
                if not keep.any():
                    return out
                live, lower, upper, jitter = live[keep], lower[keep], upper[keep], jitter[keep]
                q, s_used, trace = q[keep], s_used[keep], trace[keep]
                apply_s = bind(live)
            else:
                lower, upper, jitter = lo, hi, jitter | ridged
            if iterations == settings.max_iters:
                break
            q = s_used / trace[:, np.newaxis, np.newaxis]
    finish(np.ones(len(live), dtype=bool), STATUS_MAX_ITERS)
    return out


def power_iterate(
    apply_s: Callable[[np.ndarray], np.ndarray],
    dim: int,
    settings: PowerIterSettings | None = None,
    history: list | None = None,
) -> PEstimate:
    """Run the certified power iteration against an arbitrary S-applier.

    The iteration starts from I / N.

    Parameters
    ----------
    apply_s : callable
        Maps a Hermitian PSD (N, N) array to S[Q].
    dim : int
        Matrix dimension N.
    history : list, optional
        If given, the per-iteration (lower, upper) pairs are appended.
    """
    if settings is None:
        settings = PowerIterSettings()
    (est,) = _iterate(
        lambda live: lambda q: _hermitize(apply_s(q[0]))[np.newaxis],
        np.eye(dim, dtype=complex)[np.newaxis] / dim,
        settings,
        history,
    )
    return est


def _congruence(c_inv_h: np.ndarray, c_inv: np.ndarray, q: np.ndarray) -> np.ndarray:
    """C^{-*} Q C^{-1} from the stored inverse and its conjugate transpose, for a stack or one."""
    return c_inv_h @ (q @ c_inv)


def _batch_s(
    cov: _Binder, lams: np.ndarray, c_hat: np.ndarray, c_inv: np.ndarray
) -> _BatchApply:
    """S[Q] = V[C^{-*} Q C^{-1}] at off-spectrum points: the one S the estimates iterate on.

    V is ``cov`` bound at the points (see
    :func:`~specguard.variance._covariance`) and applied to the computed
    W, its centring term C^* W C included, so S[Q] is Hermitian by
    construction.  Since C^* W C = Q in exact arithmetic, centring on Q would save the
    centring products, but it adds a multiple of F^* Q + Q F + F^* Q F,
    with F = C~^{-1} C - I of size about eps cond(C), a term that scales
    with Q rather than S[Q] and need not be positive; on cells with
    cond(C) ~ 1e10 it also sat further from an extended-precision S.
    The batch constants, C^{-*} and what ``cov`` binds at the points, are
    indexed by ``live`` once per binding.
    """
    c_inv_h = _ct(c_inv)

    def bind(live: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        v = cov(lams[live], c_hat[live])
        ci, ci_h = c_inv[live], c_inv_h[live]
        return lambda q: v(_congruence(ci_h, ci, q))

    return bind


def _inverse_at(series: SnapshotSeries, lam: complex, op: str) -> tuple:
    """The working basis and its ``(lams, c_hat, inv)`` at ``lam``, where ``op`` must be defined."""
    work, _ = _working(series)
    lams, c_hat, c_inv, rcond, singular = char_contexts(_series_gram(work), [lam])
    if singular[0]:
        raise AtEigenvalueError(
            f"lambda={lams[0]:.6g} is numerically an EDMD eigenvalue "
            f"(rcond={rcond[0]:.3e}); {op} is undefined there"
        )
    return work, lams, c_hat, c_inv


def _s_at(
    series: SnapshotSeries, kernel: KernelSpec, lam: complex
) -> Callable[[np.ndarray], np.ndarray]:
    """``q -> S[Q]`` at one point: a one-point :func:`_batch_s` on :func:`p_hat`'s route.

    Q and S[Q] are in the series' working basis, as every ``q_final`` is.  C(lam)
    is inverted with BLAS on one thread, as in :func:`_estimate_points`, so that the
    inverse, like the memos' data, is the one :func:`p_hat` reads.  Raises
    AtEigenvalueError on the spectrum, and WindowTooLargeError if the kernel
    window does not fit the sample.
    """
    with _blas.single_thread():
        work, *stacks = _inverse_at(series, lam, "S")
        apply_s = _batch_s(_covariance(work, kernel), *stacks)(np.zeros(1, dtype=int))
    return lambda q: apply_s(np.asarray(q, dtype=complex)[np.newaxis])[0]


def _estimate_points(
    gram: GramPair,
    cov: _Binder,
    lams,
    settings: PowerIterSettings | None = None,
    floor: float | None = None,
    starts: list[np.ndarray | None] | None = None,
) -> list[PEstimate]:
    """Certified estimates of P at the points ``lams``: the one way into :func:`_iterate`.

    The characteristic matrices of all points are inverted by one
    :func:`char_contexts` call, whose stacks the batch reads directly.  A
    point where C(lam) is numerically singular is an EDMD eigenvalue,
    where P vanishes exactly: its estimate is ``at_eigenvalue`` with both
    endpoints 0 and no iterations.  The other points run power iteration
    on S[Q] = V[C^{-*} Q C^{-1}] in lockstep (:func:`_batch_s`), with V
    from ``cov`` bound to their points and C(lam) stacks; ``cov`` is
    bound only when some point is off the spectrum, so a real iid series
    whose points are all on it builds no tensor.  ``starts[k]`` is
    point k's first iterate, such as a neighbour's ``q_final``; a None
    entry, or ``starts=None``, means I / N.  Everything runs with BLAS on one thread (see
    :mod:`specguard._blas`).
    """
    if settings is None:
        settings = PowerIterSettings()
    with _blas.single_thread():
        lams, c_hat, c_inv, _, singular = char_contexts(gram, lams, floor)
        default = np.eye(gram.dim, dtype=complex) / gram.dim
        out: list[PEstimate | None] = [None] * len(lams)
        for k in np.flatnonzero(singular):
            out[k] = PEstimate(0.0, 0.0, 0, default.copy(), STATUS_AT_EIGENVALUE)
        off = np.flatnonzero(~singular)
        if len(off):
            starts = starts or [None] * len(lams)
            q = np.stack([default if starts[k] is None else starts[k] for k in off])
            ests = _iterate(_batch_s(cov, lams[off], c_hat[off], c_inv[off]), q, settings)
            for k, est in zip(off, ests):
                out[k] = est
    return out


def _series_estimates(
    series: SnapshotSeries,
    kernel: KernelSpec,
    lams,
    settings: PowerIterSettings | None = None,
    floor: float | None = None,
) -> list[PEstimate]:
    """:func:`_estimate_points` at ``lams`` on a series, as one batch from I / N.

    The kernel window is checked first, on the spectrum too.
    """
    work, _ = _working(series, floor)
    return _estimate_points(_series_gram(work), _covariance(work, kernel), lams, settings, floor)


def p_hat(
    lam: complex,
    series: SnapshotSeries,
    kernel: KernelSpec,
    settings: PowerIterSettings | None = None,
    floor: float | None = None,
) -> PEstimate:
    """Certified bracket for the sampling pseudospectrum at one point.

    Returns an ``at_eigenvalue`` estimate with both endpoints 0 when
    C(lam) is numerically singular, i.e. lam is an eigenvalue of the
    EDMD matrix; P vanishes exactly on the spectrum.  A kernel window that
    does not fit the sample raises :class:`~specguard.errors.WindowTooLargeError`
    at every lam, on the spectrum too, and a numerically singular Psi_XX
    raises IllConditionedGramError.  The iteration starts from I / N in the
    series' whitened working basis.  Runs with BLAS on one thread (see
    :mod:`specguard._blas`).

    The data work that depends on the series alone is done once per
    series and shared by every later estimate on it: the working basis
    (R, not the whitened rows, which are read in row blocks), its
    Gram matrices and, for the iid kernel on a real series, the
    fourth-moment tensor of its real-arithmetic covariance (see
    :mod:`specguard.variance`).  The result does not depend on which
    estimates ran before.  A point whose S[Q] loses positivity returns a
    ``degenerate_s`` estimate; it does not raise.
    """
    (est,) = _series_estimates(series, kernel, [lam], settings, floor)
    return est


# ---------------------------------------------------------------------------
# Grid sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid in the complex plane, inclusive of endpoints."""

    re_min: float
    re_max: float
    n_re: int
    im_min: float
    im_max: float
    n_im: int

    def __post_init__(self) -> None:
        if self.n_re < 1 or self.n_im < 1:
            raise ShapeError("grid needs at least one point per axis")
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not np.all(np.isfinite(bounds)):
            raise ShapeError(f"grid bounds must be finite, got {bounds}")
        if self.re_max < self.re_min or self.im_max < self.im_min:
            raise ShapeError("grid bounds must satisfy max >= min")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The real and imaginary grid axes, each ``np.linspace`` of its bounds.

        When im_min == -im_max the imaginary axis is made exactly symmetric,
        so that a sweep of a real series can mirror the rows below the real
        axis: its lower half is the negated upper half and an odd midpoint
        is 0.  That moves no value by more than 2 ulp of im_max.
        """
        im_axis = np.linspace(self.im_min, self.im_max, self.n_im)
        if self.im_min == -self.im_max:
            half = self.n_im // 2
            im_axis[:half] = -im_axis[::-1][:half]
            if self.n_im % 2:
                im_axis[half] = 0.0
        return np.linspace(self.re_min, self.re_max, self.n_re), im_axis


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Certified bracket field over a grid; arrays are (n_im, n_re).

    dt is the swept series' sampling step; when it is set, the JSON and CSV
    forms add each cell's continuous-time coordinates log(lambda)/dt.
    """

    re_axis: np.ndarray
    im_axis: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    iterations: np.ndarray
    status: np.ndarray           # dtype=object of status strings
    m_samples: int
    rel_tol: float
    kernel: KernelSpec
    dt: float | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.lower.shape

    def point(self, i_im: int, i_re: int) -> complex:
        return complex(self.re_axis[i_re], self.im_axis[i_im])

    def to_json_dict(self) -> dict:
        def clean(x: float) -> float | None:
            return float(x) if np.isfinite(x) else None

        out = {
            "re_axis": [float(v) for v in self.re_axis],
            "im_axis": [float(v) for v in self.im_axis],
            "lower": [[clean(v) for v in row] for row in self.lower],
            "upper": [[clean(v) for v in row] for row in self.upper],
            "iterations": [[int(v) for v in row] for row in self.iterations],
            "status": [[str(v) for v in row] for row in self.status],
            "m_samples": self.m_samples,
            "rel_tol": self.rel_tol,
            "kernel": self.kernel.to_json_dict(),
        }
        if self.dt is not None:
            logs = self._logs()
            out["log_time"] = self.dt
            out["log_lambda_re"] = [[clean(v) for v in row] for row in logs.real]
            out["log_lambda_im"] = [[clean(v) for v in row] for row in logs.imag]
        return out

    def _logs(self) -> np.ndarray:
        """Continuous-time coordinates log(lambda)/dt per grid cell (DMD's convention)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(self.re_axis[np.newaxis, :] + 1j * self.im_axis[:, np.newaxis]) / self.dt

    def to_csv_text(self) -> str:
        cols = ["re", "im", "lower", "upper", "iterations", "status"]
        if self.dt is not None:
            cols += ["log_re", "log_im"]
            logs = self._logs()
        lines = [",".join(cols)]
        for (i, j), status in np.ndenumerate(self.status):
            cells = [self.re_axis[j], self.im_axis[i], self.lower[i, j], self.upper[i, j]]
            row = [*(repr(float(x)) for x in cells), str(int(self.iterations[i, j])), str(status)]
            if self.dt is not None:
                row += [repr(float(logs[i, j].real)), repr(float(logs[i, j].imag))]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _mirror_partners(im_axis: np.ndarray) -> np.ndarray:
    """Row k's partner: the row whose imaginary part is exactly -im_axis[k] > 0, else k."""
    upper_rows = {float(v): i for i, v in enumerate(im_axis) if v > 0.0}
    return np.array([upper_rows.get(-float(v), k) for k, v in enumerate(im_axis)], dtype=int)


def sweep(
    grid: GridSpec,
    series: SnapshotSeries,
    kernel: KernelSpec,
    settings: PowerIterSettings | None = None,
    floor: float | None = None,
) -> SweepResult:
    """Evaluate the certified bracket over a complex grid.

    The grid is marched column by column, left to right, and each column
    is one call of the batched estimator: its characteristic matrices are
    inverted by one :func:`char_contexts` call, and its off-spectrum points
    iterate together as one batch.  Each point starts from the final
    iterate (``q_final``) of its left neighbour when that one converged,
    else from I / N.  The whole sweep runs with BLAS on
    one thread (see :mod:`specguard._blas`).  How each point's iteration
    ended is recorded in the status field and never aborts the sweep;
    configuration errors, such as a kernel window that does not fit the
    sample, raise before any point is evaluated, and a characteristic
    matrix that overflows raises :class:`~specguard.errors.NumericError`.

    On a real series (every imaginary part exactly zero) the estimator is
    symmetric about the real axis: C(conj lam) = conj C(lam) for the mean
    and for every sample, and the kernel weights are real, so
    S_{conj lam}[conj Q] = conj S_lam[Q] and the bracket, status and
    iteration count at conj lam are those at lam.  The sweep then
    evaluates only the upper half-plane: a row whose imaginary part is
    the exact negative of another row's is not evaluated, and its cells
    are copied from that partner row, ``iterations`` included.
    :meth:`GridSpec.axes` makes a grid with im_min == -im_max exactly
    symmetric.  A complex series evaluates every row.
    """
    if settings is None:
        settings = PowerIterSettings()
    re_axis, im_axis = grid.axes()
    shape = (grid.n_im, grid.n_re)
    lower = np.zeros(shape)
    upper = np.zeros(shape)
    iters = np.zeros(shape, dtype=int)
    status = np.empty(shape, dtype=object)

    with _blas.single_thread():
        work, _ = _working(series, floor)
        partner = _mirror_partners(im_axis) if _is_real(work) else np.arange(grid.n_im)
        evaluated = np.flatnonzero(partner == np.arange(grid.n_im))
        gram = _series_gram(work)
        cov = _covariance(work, kernel)
        warm: list[np.ndarray | None] = [None] * grid.n_im
        for j, re in enumerate(re_axis):
            lams = np.full(len(evaluated), re, dtype=complex)
            lams.imag = im_axis[evaluated]
            starts = [warm[i] for i in evaluated]
            ests = _estimate_points(gram, cov, lams, settings, floor, starts)
            for i, est in zip(evaluated, ests):
                lower[i, j], upper[i, j] = est.lower, est.upper
                iters[i, j] = est.iterations
                status[i, j] = est.status
                warm[i] = est.q_final if est.converged else None

    lower, upper, iters, status = (field[partner] for field in (lower, upper, iters, status))
    return SweepResult(
        re_axis=re_axis,
        im_axis=im_axis,
        lower=lower,
        upper=upper,
        iterations=iters,
        status=status,
        m_samples=series.M,
        rel_tol=settings.rel_tol,
        kernel=kernel,
        dt=series.dt,
    )
