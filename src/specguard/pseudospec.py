"""Certified estimation of the sampling pseudospectrum P(lambda).

The estimator is the reciprocal spectral radius of the positive operator

    S[Q] = V[ C^{-*} Q C^{-1} ],

where C = C(lam) is the characteristic matrix and V the kernel-weighted
covariance from :mod:`specguard.variance`.  Power iteration on S produces,
at every step, a two-sided bracket on 1/rho(S) from the generalized pencil
Q v = sigma S[Q] v; iteration stops once the bracket is relatively tight.
The bracket endpoints are valid bounds for P(lambda-hat) at every iterate,
converged or not.

There is one iteration loop, and it runs a batch of points in lockstep: a
grid sweep batches each column of the grid, and every other estimate is a
batch of one.  Within a batch the congruence with C^{-1}, the application
of V and the pencil bracket are stacked numpy linalg calls, except that
V goes point by point from the per-sample factors of
:mod:`specguard.variance` on every route but the real iid one
(see :class:`_Covariance`).

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
from .charmatrix import CharContext, GramPair, char_context, char_contexts, gram_matrices
from .errors import (
    AtEigenvalueError,
    DegenerateSError,
    NotSPDError,
    ShapeError,
    UnsupportedModeError,
)
from .ingest import SnapshotSeries
from .variance import (
    KernelSpec,
    _check_window,
    _ct,
    _factor_mean,
    _hermitize,
    _is_real,
    _RealIidCovariance,
    _sample_factors,
    _variance_apply,
    variance_apply,
)

__all__ = [
    "STATUS_CONVERGED",
    "STATUS_MAX_ITERS",
    "STATUS_AT_EIGENVALUE",
    "STATUS_DEGENERATE_S",
    "PowerIterSettings",
    "PEstimate",
    "GridSpec",
    "SweepResult",
    "bracket",
    "power_iterate",
    "s_apply",
    "s_star_apply",
    "p_hat",
    "p_sym_fixed_q",
    "p_sym_lower",
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
    """

    rel_tol: float = 0.1
    max_iters: int = 200
    warm_start: np.ndarray | None = None   # PSD, trace 1; e.g. q_final of a neighbor

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0:
            raise ShapeError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_iters < 1:
            raise ShapeError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True, eq=False)
class PEstimate:
    """Certified bracket for P(lambda) at one spectral point.

    ``lower <= P <= upper`` whenever status is "converged" or "max_iters";
    "at_eigenvalue" pins both endpoints to 0; "degenerate_s" means S[Q]
    stopped being positive definite and only a partial bracket (possibly
    (0, inf)) is available.
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
    stays indefinite after the ridge; its endpoints are meaningless.
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
    reduced = chol_inv @ q @ _ct(chol_inv)
    sig = np.linalg.eigvalsh(_hermitize(reduced))
    upper = np.where(ridged, np.inf, sig[:, -1])
    return sig[:, 0], upper, ridged, failed, s_used


def bracket(q: np.ndarray, s_of_q: np.ndarray) -> tuple[float, float]:
    """Two-sided bounds on 1/rho(S) from a single application S[Q].

    For PSD Q and PD S[Q], every point of the pseudospectrum estimate lies
    between the extreme generalized eigenvalues of Q v = sigma S[Q] v.
    If Q happens to be a fixed direction (S[Q] proportional to Q) the two
    endpoints coincide.  An S[Q] that needed a round-off ridge to factor
    keeps its lower endpoint and gets an upper endpoint of inf.

    Raises
    ------
    DegenerateSError
        If S[Q] is not positive definite even after a round-off ridge.
    """
    lo, hi, _, failed, _ = _pencil(
        np.asarray(q, complex)[np.newaxis], np.asarray(s_of_q, complex)[np.newaxis]
    )
    if failed[0]:
        raise DegenerateSError("S[Q] is not positive definite, even after a round-off ridge")
    return float(lo[0]), float(hi[0])


#: ``apply_s(live, q)``: S[Q] for the iterates ``q`` (k, N, N) of the batch
#: points ``live``.
_BatchApply = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _iterate(
    apply_s: _BatchApply,
    q: np.ndarray,
    settings: PowerIterSettings,
    history: list | None = None,
) -> list[PEstimate]:
    """The certified power iteration, run in lockstep over a batch of points.

    ``q`` (B, N, N) holds each point's starting iterate.  A point leaves
    the batch when it converges or degenerates (its S[Q] does not factor
    even after a round-off ridge, or has no positive trace); the rest stop
    at ``max_iters``.
    ``history``, for one-point batches, receives every step's
    (lower, upper).

    ``q_final`` is the trace-one iterate whose pencil produced the returned
    bracket, so it can seed a warm start at a nearby spectral point.
    """
    q = np.array(q, dtype=complex)
    out: list[PEstimate | None] = [None] * len(q)
    lower = np.zeros(len(q))
    upper = np.full(len(q), np.inf)
    jitter = np.zeros(len(q), dtype=bool)

    def finish(points: np.ndarray, iterations: int, status: str) -> None:
        for i in points:
            out[i] = PEstimate(
                lower=float(lower[i]),
                upper=float(upper[i]),
                iterations=iterations,
                q_final=q[i].copy(),
                status=status,
                jitter_applied=bool(jitter[i]),
            )

    live = np.arange(len(q))
    iterations = 0
    for iterations in range(1, settings.max_iters + 1):
        if not len(live):
            break
        lo, hi, ridged, failed, s_used = _pencil(q[live], _hermitize(apply_s(live, q[live])))
        finish(live[failed], iterations, STATUS_DEGENERATE_S)
        live, lo, hi, s_used = live[~failed], lo[~failed], hi[~failed], s_used[~failed]
        lower[live] = np.maximum(lo, 0.0)
        upper[live] = hi
        jitter[live] |= ridged[~failed]
        if history is not None:
            history.extend((float(lower[i]), float(upper[i])) for i in live)
        with np.errstate(divide="ignore", invalid="ignore"):
            done = (lower[live] > 0.0) & (upper[live] / lower[live] <= 1.0 + settings.rel_tol)
        finish(live[done], iterations, STATUS_CONVERGED)
        live, s_used = live[~done], s_used[~done]
        trace = np.trace(s_used, axis1=-2, axis2=-1).real
        bad = ~np.isfinite(trace) | (trace <= 0.0)
        finish(live[bad], iterations, STATUS_DEGENERATE_S)
        live = live[~bad]
        q[live] = s_used[~bad] / trace[~bad, np.newaxis, np.newaxis]
    finish(live, iterations, STATUS_MAX_ITERS)
    return out


def _start(settings: PowerIterSettings, dim: int) -> np.ndarray:
    """The first iterate: the validated warm start, else I / N."""
    if settings.warm_start is None:
        return np.eye(dim, dtype=complex) / dim
    q = np.array(settings.warm_start, dtype=complex)
    if q.shape != (dim, dim):
        raise ShapeError(f"warm_start shape {q.shape} != ({dim}, {dim})")
    if abs(np.trace(q).real - 1.0) > 1e-8:
        raise ShapeError("warm_start must have unit trace")
    q = _hermitize(q)
    if float(np.linalg.eigvalsh(q)[0]) < -1e-8:
        raise ShapeError("warm_start must be positive semidefinite")
    return q


def power_iterate(
    apply_s: Callable[[np.ndarray], np.ndarray],
    dim: int,
    settings: PowerIterSettings | None = None,
    history: list | None = None,
) -> PEstimate:
    """Run the certified power iteration against an arbitrary S-applier.

    Parameters
    ----------
    apply_s : callable
        Maps a Hermitian PSD (N, N) array to S[Q].
    dim : int
        Matrix dimension N.
    history : list, optional
        If given, the per-iteration (lower, upper) pairs are appended.

    Notes
    -----
    ``q_final`` is the trace-one iterate whose pencil produced the returned
    bracket, so it can seed a warm start at a nearby spectral point.
    """
    if settings is None:
        settings = PowerIterSettings()
    (est,) = _iterate(
        lambda live, q: apply_s(q[0])[np.newaxis],
        _start(settings, dim)[np.newaxis],
        settings,
        history,
    )
    return est


def _check_off_spectrum(ctx: CharContext, op: str) -> None:
    """Raise AtEigenvalueError where C(lam) is singular and ``op`` is undefined."""
    if ctx.singular_flag:
        raise AtEigenvalueError(
            f"lambda={ctx.lam:.6g} is numerically an EDMD eigenvalue "
            f"(rcond={ctx.rcond:.3e}); {op} is undefined there"
        )


def s_apply(
    q: np.ndarray, ctx: CharContext, series: SnapshotSeries, kernel: KernelSpec
) -> np.ndarray:
    """One application S[Q] = V[C^{-*} Q C^{-1}] at ctx's spectral point.

    V is :func:`~specguard.variance.variance_apply`, which builds the
    per-sample factors at ctx's point.
    """
    _check_off_spectrum(ctx, "S")
    w = _congruence([ctx])(np.array([0]), np.asarray(q, dtype=complex)[np.newaxis])[0]
    return variance_apply(w, ctx.lam, series, kernel).result


def s_star_apply(
    q: np.ndarray, ctx: CharContext, series: SnapshotSeries, kernel: KernelSpec
) -> np.ndarray:
    """Adjoint application S*[Q] = (1/M) sum_m D_m Q D_m^* (iid sampling only).

    D_m = C^{-1}(C_m - C); adjointness <S[A], B> = <A, S*[B]> holds in the
    Frobenius inner product.  The expansion is only the adjoint of S when
    the covariance kernel is the iid one, hence the mode guard.  The
    factors u, v come from :func:`~specguard.variance._sample_factors`.
    """
    if kernel.mode != "iid":
        raise UnsupportedModeError(
            "S* is implemented for the iid kernel only; windowed covariance "
            "has no rank-one adjoint expansion here"
        )
    _check_off_spectrum(ctx, "S*")
    q = np.asarray(q, dtype=complex)
    m = series.M
    ut, vt = _sample_factors(series, ctx.lam)
    # D_m = g_m v_m^* - I with g_m = C^{-1} u_m.
    g = ctx.solve(ut)
    s_vals = np.sum(vt.conj() * (q @ vt), axis=0).real
    t1 = (g * s_vals[np.newaxis, :]) @ g.conj().T
    t2 = g @ (q @ vt).conj().T
    return _hermitize((t1 - t2 - t2.conj().T) / m + q)


def _congruence(ctxs: list[CharContext]) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``(live, q) -> C^{-*} Q C^{-1}`` at the batch points ``live``.

    Each point's C^{-1} is stacked once, from its context, and every
    application is two stacked matrix products.
    """
    c_inv = np.stack([ctx.inv for ctx in ctxs])

    def apply(live: np.ndarray, q: np.ndarray) -> np.ndarray:
        c = c_inv[live]
        return _ct(c) @ (q @ c)

    return apply


def _series_gram(series: SnapshotSeries) -> GramPair:
    """The series' Gram pair, computed on first use and kept with the series."""
    return series._memo.get_or_build("gram", lambda: gram_matrices(series))


class _Covariance:
    """The covariance application V for one series and kernel.

    The iid kernel on a real-valued series (every imaginary part exactly
    zero) runs in real arithmetic through the series' shared
    :class:`_RealIidCovariance`.  Every other series or kernel applies
    :func:`~specguard.variance._variance_apply` point by point to the
    factors of :func:`~specguard.variance._sample_factors`, building u once
    per estimate, each point's N x N mean once per point and v for every
    application, so that a batch keeps no (N, M) array per point.  The
    kernel window is checked once, on construction.
    """

    def __init__(self, series: SnapshotSeries, kernel: KernelSpec) -> None:
        _check_window(kernel, series.M)
        self.series = series
        self.kernel = kernel
        self.real = None
        self.ut = None
        if _RealIidCovariance.applies(series, kernel):
            self.real = _RealIidCovariance.of(series)

    def at(self, ctxs: list[CharContext]) -> _BatchApply:
        """``(live, w) -> V[W]`` stack at the points of ``ctxs``."""
        lam = np.array([ctx.lam for ctx in ctxs])
        if self.real is not None:
            c_hat = np.stack([ctx.c_hat for ctx in ctxs])
            return lambda live, w: self.real(lam[live], c_hat[live], w)

        c_mean: list[np.ndarray | None] = [None] * len(ctxs)

        def apply_each(live: np.ndarray, w: np.ndarray):
            result = np.empty_like(w)
            for pos, i in enumerate(live):
                self.ut, vt = _sample_factors(self.series, lam[i], self.ut)
                if c_mean[i] is None:
                    c_mean[i] = _factor_mean(self.ut, vt)
                result[pos] = _variance_apply(w[pos], self.ut, vt, c_mean[i], self.kernel)
            return result

        return apply_each


def _estimate(
    ctxs: list[CharContext],
    apply_v: _BatchApply,
    starts: np.ndarray,
    settings: PowerIterSettings,
    history: list | None = None,
) -> list[PEstimate]:
    """Power iteration on S[Q] = V[C^{-*} Q C^{-1}] at off-spectrum points."""
    congruence = _congruence(ctxs)
    return _iterate(
        lambda live, q: apply_v(live, congruence(live, q)), starts, settings, history
    )


def _estimate_one(
    ctx: CharContext,
    apply_v: _BatchApply,
    settings: PowerIterSettings | None,
    history: list | None,
) -> PEstimate:
    """:func:`_estimate` at one point."""
    if settings is None:
        settings = PowerIterSettings()
    (est,) = _estimate([ctx], apply_v, _start(settings, ctx.dim)[np.newaxis], settings, history)
    return est


def _at_eigenvalue(n: int) -> PEstimate:
    """The estimate where C(lam) is singular: P is exactly 0 there."""
    return PEstimate(
        lower=0.0,
        upper=0.0,
        iterations=0,
        q_final=np.eye(n, dtype=complex) / n,
        status=STATUS_AT_EIGENVALUE,
    )


def p_hat(
    lam: complex,
    series: SnapshotSeries,
    kernel: KernelSpec,
    settings: PowerIterSettings | None = None,
    history: list | None = None,
    floor: float | None = None,
) -> PEstimate:
    """Certified bracket for the sampling pseudospectrum at one point.

    Returns an ``at_eigenvalue`` estimate with both endpoints 0 when
    C(lam) is numerically singular, i.e. lam is an eigenvalue of the
    EDMD matrix; P vanishes exactly on the spectrum.  Runs with BLAS on
    one thread (see :mod:`specguard._blas`).

    The data work that depends on the series alone is done once per
    series and shared by every later estimate on it: the Gram matrices
    and, for the iid kernel on a real series, the fourth-moment tensor of
    :class:`~specguard.variance._RealIidCovariance`.  The first estimate
    on such a series pays for the tensor; the result does not depend on
    which estimates ran before.  A point whose S[Q] loses positivity
    returns a ``degenerate_s`` estimate; it does not raise.
    """
    with _blas.single_thread():
        ctx = char_context(_series_gram(series), lam, floor)
        if ctx.singular_flag:
            return _at_eigenvalue(ctx.dim)
        return _estimate_one(ctx, _Covariance(series, kernel).at([ctx]), settings, history)


def _certified_estimate(
    ctx: CharContext,
    make_v: Callable[[], Callable[[np.ndarray], np.ndarray]],
    settings: PowerIterSettings | None = None,
    history: list | None = None,
) -> PEstimate:
    """Power iteration on S[Q] = V[C^{-*} Q C^{-1}] at ctx's spectral point.

    ``make_v`` returns the covariance application V of one matrix; it is
    called only off the spectrum, so its set-up is skipped where C(lam) is
    singular and the estimate is pinned to ``at_eigenvalue`` with both
    endpoints 0.  V's set-up and the iteration run with BLAS on one thread
    (see :mod:`specguard._blas`); the caller's thread counts are restored
    after.
    """
    if ctx.singular_flag:
        return _at_eigenvalue(ctx.dim)
    with _blas.single_thread():
        v = make_v()
        return _estimate_one(ctx, lambda live, w: v(w[0])[np.newaxis], settings, history)


def p_sym_fixed_q(
    lam: complex,
    q: np.ndarray,
    series: SnapshotSeries,
    kernel: KernelSpec,
    floor: float | None = None,
) -> float:
    """Symmetrized fixed-direction lower bound on the pseudospectrum.

    Evaluates min over the primal and adjoint Rayleigh bounds

        1 / lambda_max(Q^{-1/2} S[Q] Q^{-1/2}),
        1 / lambda_max(Q^{1/2} S*[Q^{-1}] Q^{1/2}),

    for a fixed positive definite Q.  Supported for iid sampling kernels
    only (the adjoint expansion requires it); for N = 1 both branches
    collapse to the plain estimator.  The primal bound is the lower
    endpoint of :func:`bracket` at Q.

    Raises
    ------
    DegenerateSError
        If S[Q] is not positive definite, even after a round-off ridge.
    """
    if kernel.mode != "iid":
        raise UnsupportedModeError("p_sym_fixed_q requires an iid kernel")
    ctx = char_context(_series_gram(series), lam, floor)
    if ctx.singular_flag:
        return 0.0

    q = _hermitize(np.asarray(q, dtype=complex))
    w, vecs = np.linalg.eigh(q)
    if w[0] <= 0.0:
        raise NotSPDError(f"test matrix must be positive definite (min eig {w[0]:.3e})")
    root = (vecs * np.sqrt(w)) @ vecs.conj().T
    q_inv = (vecs / w) @ vecs.conj().T

    primal, _ = bracket(q, s_apply(q, ctx, series, kernel))

    s_star_qinv = s_star_apply(q_inv, ctx, series, kernel)
    dual = np.linalg.eigvalsh(_hermitize(root @ s_star_qinv @ root))[-1]
    return min(primal, 1.0 / dual if dual > 0.0 else float("inf"))


def p_sym_lower(
    lam: complex,
    series: SnapshotSeries,
    kernel: KernelSpec,
    settings: PowerIterSettings | None = None,
    floor: float | None = None,
) -> float:
    """Best symmetrized lower bound over candidate test directions.

    Tries the converged power iterate (ridged to positive definite) and the
    normalized identity, and reports the larger bound.  The result is a
    lower bound on the symmetrized pseudospectrum, not a two-sided bracket.
    """
    est = p_hat(lam, series, kernel, settings, floor=floor)
    if est.status == STATUS_AT_EIGENVALUE:
        return 0.0
    n = est.q_final.shape[0]
    candidates = [np.eye(n, dtype=complex) / n]
    if est.status in (STATUS_CONVERGED, STATUS_MAX_ITERS):
        ridge = 1e-10 * float(np.trace(est.q_final).real) / n
        candidates.append(est.q_final + ridge * np.eye(n))
    return max(p_sym_fixed_q(lam, q, series, kernel, floor) for q in candidates)


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
    """Certified bracket field over a grid; arrays are (n_im, n_re)."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    iterations: np.ndarray
    status: np.ndarray           # dtype=object of status strings
    m_samples: int
    rel_tol: float
    kernel: KernelSpec

    @property
    def shape(self) -> tuple[int, int]:
        return self.lower.shape

    def point(self, i_im: int, i_re: int) -> complex:
        return complex(self.re_axis[i_re], self.im_axis[i_im])

    def to_json_dict(self, log_time: float | None = None) -> dict:
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
        if log_time is not None:
            log_re, log_im = self._log_axes(log_time)
            out["log_time"] = log_time
            out["log_lambda_re"] = [[clean(v) for v in row] for row in log_re]
            out["log_lambda_im"] = [[clean(v) for v in row] for row in log_im]
        return out

    def _log_axes(self, log_time: float) -> tuple[np.ndarray, np.ndarray]:
        """Continuous-time coordinates log(lambda)/dt per grid cell."""
        lam = self.re_axis[np.newaxis, :] + 1j * self.im_axis[:, np.newaxis]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(lam.astype(complex)) / log_time
        return logs.real, logs.imag

    def to_csv_text(self, log_time: float | None = None) -> str:
        cols = ["re", "im", "lower", "upper", "iterations", "status"]
        if log_time is not None:
            cols += ["log_re", "log_im"]
            log_re, log_im = self._log_axes(log_time)
        lines = [",".join(cols)]
        for i in range(len(self.im_axis)):
            for j in range(len(self.re_axis)):
                row = [
                    repr(float(self.re_axis[j])),
                    repr(float(self.im_axis[i])),
                    repr(float(self.lower[i, j])),
                    repr(float(self.upper[i, j])),
                    str(int(self.iterations[i, j])),
                    str(self.status[i, j]),
                ]
                if log_time is not None:
                    row += [repr(float(log_re[i, j])), repr(float(log_im[i, j]))]
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

    The grid is marched column by column, left to right.  Each column's
    characteristic matrices are inverted by one :func:`char_contexts`
    call; its off-spectrum points then iterate together as one batch, and
    each starts from the final iterate of its left neighbour when that one
    converged.  The whole sweep runs with BLAS on one thread (see
    :mod:`specguard._blas`).  How each point's iteration ended is recorded
    in the status field and never aborts the sweep; configuration errors,
    such as a kernel window that does not fit the sample, raise before any
    point is evaluated, and a characteristic matrix that overflows raises
    :class:`~specguard.errors.NumericError`.

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
        partner = _mirror_partners(im_axis) if _is_real(series) else np.arange(grid.n_im)
        evaluated = np.flatnonzero(partner == np.arange(grid.n_im))
        gram = _series_gram(series)
        covariance = _Covariance(series, kernel)
        n = gram.dim
        warm: list[np.ndarray | None] = [None] * grid.n_im
        for j, re in enumerate(re_axis):
            lams = np.full(len(evaluated), re, dtype=complex)
            lams.imag = im_axis[evaluated]
            rows, ctxs, starts = [], [], []
            for i, ctx in zip(evaluated, char_contexts(gram, lams, floor)):
                start, warm[i] = warm[i], None
                if ctx.singular_flag:
                    status[i, j] = STATUS_AT_EIGENVALUE
                    continue
                rows.append(i)
                ctxs.append(ctx)
                starts.append(np.eye(n, dtype=complex) / n if start is None else start)
            if not rows:
                continue
            ests = _estimate(ctxs, covariance.at(ctxs), np.stack(starts), settings)
            for i, est in zip(rows, ests):
                lower[i, j], upper[i, j] = est.lower, est.upper
                iters[i, j] = est.iterations
                status[i, j] = est.status
                if est.converged:
                    warm[i] = est.q_final

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
    )
