"""Certified estimation of the sampling pseudospectrum P(lambda).

The estimator is the reciprocal spectral radius of the positive operator

    S[Q] = V[ C^{-*} Q C^{-1} ],

where C = C(lam) is the characteristic matrix and V the kernel-weighted
covariance from :mod:`specguard.variance`.  Power iteration on S produces,
at every step, a two-sided bracket on 1/rho(S) from the generalized pencil
Q v = sigma S[Q] v; iteration stops once the bracket is relatively tight.
The bracket endpoints are valid bounds for P(lambda-hat) at every iterate,
converged or not.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from . import _blas
from .charmatrix import CharContext, GramPair, char_context, gram_matrices
from .errors import (
    AtEigenvalueError,
    DegenerateSError,
    NotSPDError,
    NumericError,
    ShapeError,
    UnsupportedModeError,
)
from .ingest import SnapshotSeries
from .variance import (
    FactorCache,
    KernelSpec,
    _check_window,
    _hermitize,
    prepare_factors,
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


def _pencil_bracket(
    q: np.ndarray, s_of_q: np.ndarray
) -> tuple[float, float, bool, np.ndarray]:
    """Extreme generalized eigenvalues of Q v = sigma S[Q] v.

    Returns (sigma_min, sigma_max, jitter_applied, s_used) where ``s_used``
    is the (possibly ridged) matrix whose Cholesky factor was used.
    """
    s_used = s_of_q
    jittered = False
    try:
        chol = np.linalg.cholesky(s_used)
    except np.linalg.LinAlgError:
        n = s_of_q.shape[0]
        ridge = _JITTER_REL * max(float(np.trace(s_of_q).real), 0.0) / n
        if ridge <= 0.0:
            raise DegenerateSError(
                "S[Q] is not positive definite and has non-positive trace"
            ) from None
        s_used = s_of_q + ridge * np.eye(n)
        jittered = True
        try:
            chol = np.linalg.cholesky(s_used)
        except np.linalg.LinAlgError:
            raise DegenerateSError(
                "S[Q] is not positive definite (Cholesky failed after ridge)"
            ) from None
    # L^{-1} Q L^{-*} shares the pencil's eigenvalues and is Hermitian.
    half = solve_triangular(chol, q, lower=True)
    reduced = solve_triangular(chol, half.conj().T, lower=True).conj().T
    sig = np.linalg.eigvalsh(_hermitize(reduced))
    return float(sig[0]), float(sig[-1]), jittered, s_used


def bracket(q: np.ndarray, s_of_q: np.ndarray) -> tuple[float, float]:
    """Two-sided bounds on 1/rho(S) from a single application S[Q].

    For PSD Q and PD S[Q], every point of the pseudospectrum estimate lies
    between the extreme generalized eigenvalues of Q v = sigma S[Q] v.
    If Q happens to be a fixed direction (S[Q] proportional to Q) the two
    endpoints coincide.

    Raises
    ------
    DegenerateSError
        If S[Q] is not positive definite even after a round-off ridge.
    """
    lo, hi, _, _ = _pencil_bracket(np.asarray(q, complex), np.asarray(s_of_q, complex))
    return lo, hi


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
    if settings.warm_start is not None:
        q = np.array(settings.warm_start, dtype=complex)
        if q.shape != (dim, dim):
            raise ShapeError(f"warm_start shape {q.shape} != ({dim}, {dim})")
        if abs(np.trace(q).real - 1.0) > 1e-8:
            raise ShapeError("warm_start must have unit trace")
        q = _hermitize(q)
        if float(np.linalg.eigvalsh(q)[0]) < -1e-8:
            raise ShapeError("warm_start must be positive semidefinite")
    else:
        q = np.eye(dim, dtype=complex) / dim

    lower, upper = 0.0, float("inf")
    jitter_any = False
    iterations = 0
    for iterations in range(1, settings.max_iters + 1):
        r = _hermitize(apply_s(q))
        try:
            lo, hi, jittered, s_used = _pencil_bracket(q, r)
        except DegenerateSError:
            return PEstimate(
                lower=lower,
                upper=upper,
                iterations=iterations,
                q_final=q,
                status=STATUS_DEGENERATE_S,
                jitter_applied=jitter_any,
            )
        jitter_any = jitter_any or jittered
        lower, upper = max(lo, 0.0), hi
        if history is not None:
            history.append((lower, upper))
        if lower > 0.0 and upper / lower <= 1.0 + settings.rel_tol:
            return PEstimate(
                lower=lower,
                upper=upper,
                iterations=iterations,
                q_final=q,
                status=STATUS_CONVERGED,
                jitter_applied=jitter_any,
            )
        trace = float(np.trace(s_used).real)
        if not np.isfinite(trace) or trace <= 0.0:
            return PEstimate(
                lower=lower,
                upper=upper,
                iterations=iterations,
                q_final=q,
                status=STATUS_DEGENERATE_S,
                jitter_applied=jitter_any,
            )
        q = s_used / trace
    return PEstimate(
        lower=lower,
        upper=upper,
        iterations=iterations,
        q_final=q,
        status=STATUS_MAX_ITERS,
        jitter_applied=jitter_any,
    )


def _off_spectrum_factors(
    ctx: CharContext, series: SnapshotSeries, factors: FactorCache | None, op: str
) -> FactorCache:
    """Factors at ctx's point; raises AtEigenvalueError where ``op`` is undefined."""
    if ctx.singular_flag:
        raise AtEigenvalueError(
            f"lambda={ctx.lam:.6g} is numerically an EDMD eigenvalue "
            f"(rcond={ctx.rcond:.3e}); {op} is undefined there"
        )
    return prepare_factors(series, ctx.lam) if factors is None else factors


def s_apply(
    q: np.ndarray,
    ctx: CharContext,
    series: SnapshotSeries,
    kernel: KernelSpec,
    factors: FactorCache | None = None,
) -> np.ndarray:
    """One application S[Q] = V[C^{-*} Q C^{-1}] at ctx's spectral point."""
    factors = _off_spectrum_factors(ctx, series, factors, "S")
    w = ctx.inv_congruence(np.asarray(q, dtype=complex))
    return variance_apply(w, ctx.lam, series, kernel, factors).result


def s_star_apply(
    q: np.ndarray,
    ctx: CharContext,
    series: SnapshotSeries,
    kernel: KernelSpec | None = None,
    factors: FactorCache | None = None,
) -> np.ndarray:
    """Adjoint application S*[Q] = (1/M) sum_m D_m Q D_m^* (iid sampling only).

    D_m = C^{-1}(C_m - C); adjointness <S[A], B> = <A, S*[B]> holds in the
    Frobenius inner product.  The expansion is only the adjoint of S when
    the covariance kernel is the iid one, hence the mode guard.
    """
    if kernel is not None and kernel.mode != "iid":
        raise UnsupportedModeError(
            "S* is implemented for the iid kernel only; windowed covariance "
            "has no rank-one adjoint expansion here"
        )
    factors = _off_spectrum_factors(ctx, series, factors, "S*")
    q = np.asarray(q, dtype=complex)
    m = factors.m_samples
    # D_m = g_m v_m^* - I with g_m = C^{-1} u_m.
    g = ctx.solve(factors.ut)
    vt = factors.vt
    s_vals = np.sum(vt.conj() * (q @ vt), axis=0).real
    t1 = (g * s_vals[np.newaxis, :]) @ g.conj().T
    t2 = g @ (q @ vt).conj().T
    return _hermitize((t1 - t2 - t2.conj().T) / m + q)


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
    EDMD matrix; P vanishes exactly on the spectrum.
    """
    gram = gram_matrices(series)
    return _p_hat_from_gram(gram, lam, series, kernel, settings, history, floor)


def _certified_estimate(
    ctx: CharContext,
    make_v: Callable[[], Callable[[np.ndarray], np.ndarray]],
    settings: PowerIterSettings | None = None,
    history: list | None = None,
) -> PEstimate:
    """Power iteration on S[Q] = V[C^{-*} Q C^{-1}] at ctx's spectral point.

    ``make_v`` returns the covariance application V; it is called only off
    the spectrum, so its set-up is skipped where C(lam) is singular and the
    estimate is pinned to ``at_eigenvalue`` with both endpoints 0.  V's
    set-up and the iteration run with BLAS on one thread (see
    :mod:`specguard._blas`); the caller's thread counts are restored after.
    """
    n = ctx.dim
    if ctx.singular_flag:
        return PEstimate(
            lower=0.0,
            upper=0.0,
            iterations=0,
            q_final=np.eye(n, dtype=complex) / n,
            status=STATUS_AT_EIGENVALUE,
        )
    with _blas.single_thread():
        v = make_v()
        return power_iterate(lambda q: v(ctx.inv_congruence(q)), n, settings, history)


def _p_hat_from_gram(
    gram: GramPair,
    lam: complex,
    series: SnapshotSeries,
    kernel: KernelSpec,
    settings: PowerIterSettings | None = None,
    history: list | None = None,
    floor: float | None = None,
) -> PEstimate:
    def make_v() -> Callable[[np.ndarray], np.ndarray]:
        factors = prepare_factors(series, lam)
        return lambda w: variance_apply(w, lam, series, kernel, factors).result

    return _certified_estimate(char_context(gram, lam, floor), make_v, settings, history)


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
    collapse to the plain estimator.
    """
    if kernel.mode != "iid":
        raise UnsupportedModeError("p_sym_fixed_q requires an iid kernel")
    gram = gram_matrices(series)
    ctx = char_context(gram, lam, floor)
    if ctx.singular_flag:
        return 0.0
    factors = prepare_factors(series, lam)

    q = _hermitize(np.asarray(q, dtype=complex))
    w, vecs = np.linalg.eigh(q)
    if w[0] <= 0.0:
        raise NotSPDError(f"test matrix must be positive definite (min eig {w[0]:.3e})")
    root = (vecs * np.sqrt(w)) @ vecs.conj().T
    inv_root = (vecs / np.sqrt(w)) @ vecs.conj().T
    q_inv = (vecs / w) @ vecs.conj().T

    s_q = s_apply(q, ctx, series, kernel, factors)
    primal = np.linalg.eigvalsh(_hermitize(inv_root @ s_q @ inv_root))[-1]

    s_star_qinv = s_star_apply(q_inv, ctx, series, kernel, factors)
    dual = np.linalg.eigvalsh(_hermitize(root @ s_star_qinv @ root))[-1]

    branches = [1.0 / v if v > 0.0 else float("inf") for v in (primal, dual)]
    return min(branches)


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
        if self.re_max < self.re_min or self.im_max < self.im_min:
            raise ShapeError("grid bounds must satisfy max >= min")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.re_min, self.re_max, self.n_re),
            np.linspace(self.im_min, self.im_max, self.n_im),
        )


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


def sweep(
    grid: GridSpec,
    series: SnapshotSeries,
    kernel: KernelSpec,
    settings: PowerIterSettings | None = None,
    threads: int = 1,
    floor: float | None = None,
) -> SweepResult:
    """Evaluate the certified bracket over a complex grid.

    Rows (fixed imaginary part) are processed left to right with the
    previous point's final iterate as a warm start; distinct rows may run
    on a thread pool.  Per-point numerical failures are recorded in the
    status field and never abort the sweep; configuration errors, such as
    a kernel window that does not fit the sample, raise before any point
    is evaluated.
    """
    if settings is None:
        settings = PowerIterSettings()
    if threads < 1:
        raise ShapeError(f"threads must be >= 1, got {threads}")
    _check_window(kernel, series.M)
    gram = gram_matrices(series)
    re_axis, im_axis = grid.axes()
    shape = (grid.n_im, grid.n_re)
    lower = np.zeros(shape)
    upper = np.zeros(shape)
    iters = np.zeros(shape, dtype=int)
    status = np.empty(shape, dtype=object)

    def run_row(i: int) -> None:
        warm: np.ndarray | None = None
        for j, re in enumerate(re_axis):
            lam = complex(re, im_axis[i])
            point_settings = dataclasses.replace(settings, warm_start=warm)
            try:
                est = _p_hat_from_gram(gram, lam, series, kernel, point_settings, floor=floor)
            except NumericError:
                lower[i, j], upper[i, j] = 0.0, float("inf")
                iters[i, j] = 0
                status[i, j] = STATUS_DEGENERATE_S
                warm = None
                continue
            lower[i, j], upper[i, j] = est.lower, est.upper
            iters[i, j] = est.iterations
            status[i, j] = est.status
            warm = est.q_final if est.converged else None

    if threads == 1:
        for i in range(grid.n_im):
            run_row(i)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_row, range(grid.n_im)))

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
