"""Long-run covariance application for snapshot statistics.

Given Hermitian Q, this module evaluates the kernel-weighted long-run
covariance

    V[Q] = sum_{|l| <= L'} kappa_M(l) * Gamma_l[Q],
    Gamma_l[Q] = (1/M) sum_{m=1}^{M-l} (C_{m+l} - C)^* Q (C_m - C),

where C_m = u_m v_m^* are the rank-one per-sample characteristic matrices
and C is their mean.  Negative lags are defined by Gamma_{-l} = Gamma_l^*.

The rank-one structure gives V in O(L * M * N + M * N^2) time.  Every
route writes V as

    V[W] = U[W] - kappa C^* W C,   U = P + P^*,

where U is V without its centring term, kappa = 2 sum_l kt(l) (M + l)/M
that term's weight (1 for iid) and P the "half" a route computes, so V
is Hermitian by construction.  Every mean C is the Gram pencil
C(lam) = lam Psi_XX - Psi_XY of :mod:`specguard.charmatrix`.
`_covariance` is the one V that the estimates apply: ``bind(lams,
c_hat)`` fixes a stack of points, centred on the C(lam) stack it is
given, and returns V itself for stacks of W; `_centred` composes it from
a route's P.  The kernel's lag weights choose the route: one with no
weight past lag 0 is the iid kernel (`KernelSpec.mode`).  The stream,
`_streamed`, serves every series and kernel: one pass over the series'
rows per stack of W, in cache-sized blocks, with no temporary that
grows with M.  Every reader here, the tensor build and `estimate_tau`
too, takes rows through the series' block reader (`ingest._row_blocks`),
so an estimate's working basis is read in row blocks, each whitened as
it is read, and never held whole.  What V takes from the series and
kernel alone (the window check, kappa and the route) is kept in the
series' memo per kernel value, so repeated estimates do not redo it.
A real batch of points, bound on a real series, gets a real P from
either route, so its S[Q] is float64.  For the iid kernel on real-valued
data, which a series stores as float64, `_RealIidCovariance` computes P
in real arithmetic for a whole batch of points at once: U[W] is linear
in Re(W) through a fourth-moment tensor of the data over upper-triangle
pairs, built once per series from the M samples, with the pair weights
and the 1/M scales folded in, and kept with the series, so that a stack
of W costs one GEMM and no application reads the samples again.  A series whose tensor
would be too large to build takes the stream.  `variance_apply` is the
stream at one ``lam``, and `variance_apply_naive` a reference that
materializes the centered snapshot matrices; the routes agree with it to
a 1e-10 relative Frobenius bound.  V[Q] comes back as computed, never
repaired for positivity (V is linear in Q): the certified estimates test
positivity once, on S[Q], when the pencil of :mod:`specguard.pseudospec`
Cholesky-factors it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .charmatrix import _char_matrix, _series_gram
from .errors import ShapeError, UnstableKernelError, WindowTooLargeError
from .ingest import _ROW_BLOCK, SnapshotSeries, _row_blocks

__all__ = [
    "KernelSpec",
    "VarianceApplication",
    "kappa_w",
    "metastability_kernel",
    "window_length",
    "estimate_tau",
    "default_mu_list",
    "variance_apply",
    "variance_apply_naive",
]

#: mu within this distance of 1 makes the deflation factor blow up.
MU_GUARD = 0.05


def kappa_w(x: np.ndarray | float) -> np.ndarray | float:
    """Flat-top lag window with non-negative Fourier transform.

    kappa_w(x) = (1/pi) sin(pi |x|) + (1 - |x|) cos(pi x)  for |x| < 1,
    and 0 outside.  kappa_w(0) = 1 and the window is even.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    inside = ax < 1.0
    out = np.zeros_like(x)
    xi = ax[inside]
    out[inside] = np.sin(np.pi * xi) / np.pi + (1.0 - xi) * np.cos(np.pi * xi)
    return out if out.ndim else float(out)


def metastability_kernel(mu_list: tuple[complex, ...] | list[complex]) -> np.ndarray:
    """Convolve the lag-1 deflation factors for each slow mode mu.

    Each factor has weights d(0) = (1 + mu^2)/(1 - mu)^2 and
    d(+-1) = -mu/(1 - mu)^2, which sum to one and annihilate pure
    geometric correlation tails W mu^l beyond lag 1.

    Returns the combined weights on lags -K..K (K = len(mu_list)) as a
    real array of length 2K + 1.

    Raises
    ------
    UnstableKernelError
        If some |1 - mu| < MU_GUARD (weights blow up), or if a complex mu
        lacks its conjugate partner so the combined kernel is not real.
    """
    kp = np.array([1.0 + 0.0j])
    for mu in mu_list:
        mu = complex(mu)
        if abs(1.0 - mu) < MU_GUARD:
            raise UnstableKernelError(
                f"mu={mu:.4g} is within {MU_GUARD} of 1; deflation weights "
                "are unstable (drop it from mu_list)"
            )
        denom = (1.0 - mu) ** 2
        d = np.array([-mu, 1.0 + mu * mu, -mu]) / denom
        kp = np.convolve(kp, d)
    resid = float(np.abs(kp.imag).max(initial=0.0))
    if resid > 1e-10 * max(1.0, float(np.abs(kp).max(initial=0.0))):
        raise UnstableKernelError(
            "combined kernel is not real; complex entries of mu_list must "
            f"come in conjugate pairs (imaginary residue {resid:.3e})"
        )
    return kp.real.copy()


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Covariance kernel: the window half-width and the slow modes it deflates.

    The read-only lag weights derive from them: ``kappa_p`` the deflation
    weights on lags -K..K (K = len(mu_list)), ``kappa_m`` the smoothed
    weights on lags -(K + l_window)..(K + l_window), and :attr:`mode` reads
    them, once.  With no slow mode they are [1.0] and the window itself.
    """

    l_window: int                 # L_M, half-width of the smoothing window
    mu_list: tuple[complex, ...]
    kappa_p: np.ndarray = field(init=False)
    kappa_m: np.ndarray = field(init=False)
    #: ``"iid"`` when no lag but 0 has a nonzero weight (it is then 1), else ``"windowed"``.
    mode: str = field(init=False)

    def __post_init__(self) -> None:
        if self.l_window < 0:
            raise ShapeError(f"l_window must be >= 0, got {self.l_window}")
        mu_list, lw = tuple(complex(m) for m in self.mu_list), self.l_window
        kp = metastability_kernel(mu_list) if mu_list else np.ones(1)
        window = kappa_w(np.arange(-lw, lw + 1) / lw) if lw else np.ones(1)
        km = np.convolve(kp, window) if mu_list else window
        kp.flags.writeable = False
        km.flags.writeable = False
        # Some lag but 0 has a weight when more weights than lag 0's are nonzero.
        mode = "windowed" if np.count_nonzero(km) > (km[len(mu_list) + lw] != 0.0) else "iid"
        object.__setattr__(self, "mu_list", mu_list)
        object.__setattr__(self, "kappa_p", kp)
        object.__setattr__(self, "kappa_m", km)
        object.__setattr__(self, "mode", mode)

    @staticmethod
    def iid() -> "KernelSpec":
        """Kernel for independent snapshot pairs: a unit mass at lag 0."""
        return KernelSpec(0, ())

    @staticmethod
    def windowed(
        l_window: int, mu_list: tuple[complex, ...] | list[complex] = ()
    ) -> "KernelSpec":
        """Kernel for serially correlated snapshots.

        kappa_w vanishes at |x| = 1, so ``windowed(0)`` and ``windowed(1)``
        have no weight past lag 0: they are the iid kernel, on its route.
        """
        return KernelSpec(l_window, tuple(mu_list))

    @property
    def half_width(self) -> int:
        """Largest lag with (possibly zero) weight: len(mu_list) + l_window."""
        return len(self.mu_list) + self.l_window

    def weight(self, lag: int) -> float:
        """kappa_M at an integer lag (0 outside the support)."""
        h = self.half_width
        if abs(lag) > h:
            return 0.0
        return float(self.kappa_m[lag + h])

    def tilde_weights(self) -> np.ndarray:
        """One-sided weights for the folded evaluation: lag 0 halved."""
        h = self.half_width
        kt = self.kappa_m[h:].copy()
        kt[0] *= 0.5
        return kt

    def min_fourier(self) -> float:
        """Minimum of the discrete Fourier transform of the lag weights, on 4096 points.

        The window and deflation factors are constructed so this is
        non-negative up to round-off; large negative values indicate a
        broken kernel.
        """
        h, n_grid = self.half_width, 4096
        if n_grid < 2 * h + 1:
            raise ShapeError(f"n_grid={n_grid} too small for half-width {h}")
        arr = np.zeros(n_grid)
        for lag in range(-h, h + 1):
            arr[lag % n_grid] += self.kappa_m[lag + h]
        return float(np.fft.fft(arr).real.min())

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "l_window": self.l_window,
            "mu_list": [{"re": m.real, "im": m.imag} for m in self.mu_list],
            "kappa_p": [float(v) for v in self.kappa_p],
            "kappa_m": [float(v) for v in self.kappa_m],
        }


def window_length(tau: float, m_samples: int) -> int:
    """Plug-in window half-width from a correlation-time estimate.

    L = round((16 M tau^4 / pi^4)^(1/5)), floored at 1 and capped at
    floor(sqrt(M)).
    """
    if not (np.isfinite(tau) and tau > 0.0):
        raise ShapeError(f"tau must be positive and finite, got {tau}")
    if m_samples < 2:
        raise ShapeError(f"m_samples must be >= 2, got {m_samples}")
    raw = (16.0 * m_samples * tau**4 / np.pi**4) ** 0.2
    length = max(1, int(round(raw)))
    return min(length, int(np.sqrt(m_samples)))


def estimate_tau(series: SnapshotSeries, lam: complex = 1.0) -> float:
    """Correlation time of the snapshot stream from trace autocovariances.

    Fits an exponential decay to r(l) = tr Gamma_l (with Q = I), at lags
    up to max(1, min(50, M // 10)), over the leading run of positive
    values, by least squares on log r.  Returns a conservative large value
    when no decay is detectable and a small value when correlation is
    immeasurable; both ends are safe inputs to ``window_length``.

    As t_m = u_m^* C v_m sum to M ||C||^2, M r(l) = Re[sum_m (u_{m+l}^* u_m)
    (v_m^* v_{m+l}) + sum_{m < l} t_m + sum_{m >= M-l} t_m] - (M + l) ||C||^2.
    The t-sums read the first and last max_lag rows, and the products the
    series' row blocks (:func:`~specguard.ingest._row_blocks`) with the
    max_lag rows after each: nothing grows with M, and a real series at a
    real ``lam`` stays real.
    """
    m = series.M
    if m < 2:
        raise ShapeError(f"need at least 2 snapshot pairs, got {m}")
    max_lag = max(1, min(50, m // 10))
    c_hat = _char_matrix(_series_gram(series), lam)
    cnorm2 = float(np.linalg.norm(c_hat) ** 2)

    lags = np.arange(max_lag + 1)
    r = -(m + lags) * cnorm2
    head, tail = series._rows(0, max_lag), series._rows(m - max_lag, m)
    for u, b in (head, (x[::-1] for x in tail)):    # the first and the last max_lag rows
        t = np.einsum("mi,mi->m", u.conj(), (np.conj(lam) * u - b) @ c_hat.T)
        r[1:] += np.cumsum(t.real)
    for size, u, b in _row_blocks(series, max_lag):
        v = np.conj(lam) * u - b    # u_m = a_m and v_m = conj(lam) a_m - b_m
        u_h, v_h = u.conj(), v.conj()
        for lag in lags:
            n_rows = max(min(size, len(u) - lag), 0)
            alpha = np.einsum("mi,mi->m", u_h[lag : lag + n_rows], u[:n_rows])
            beta = np.einsum("mi,mi->m", v_h[:n_rows], v[lag : lag + n_rows])
            r[lag] += (alpha @ beta).real
    r /= m

    # Leading run of positive autocovariance traces.
    k = 0
    while k <= max_lag and r[k] > 0.0:
        k += 1
    if k < 2:
        return 0.5
    slope = np.polyfit(lags[:k], np.log(r[:k]), 1)[0]
    if slope >= -1e-12:
        return float(max_lag)
    return float(max(-1.0 / slope, 1e-2))


def default_mu_list(
    eigenvalues: list[complex] | np.ndarray, top_k: int
) -> tuple[tuple[complex, ...], list[str]]:
    """Pick slow modes for the deflation kernel from EDMD eigenvalues.

    Takes the ``top_k`` eigenvalues of largest modulus, skipping any within
    ``MU_GUARD`` of 1 (typically the trivial constant mode), then closes the
    list under conjugation so the combined kernel stays real.

    Returns the mu tuple and a list of warning strings for skipped modes.
    """
    if top_k < 0:
        raise ShapeError(f"top_k must be >= 0, got {top_k}")
    ordered = sorted(
        (complex(v) for v in eigenvalues), key=lambda z: -abs(z)
    )
    chosen: list[complex] = []
    notes: list[str] = []
    for mu in ordered:
        if len(chosen) >= top_k:
            break
        if abs(1.0 - mu) < MU_GUARD:
            notes.append(
                f"skipped eigenvalue {mu:.4g}: within {MU_GUARD} of 1, "
                "deflation weights would be unstable"
            )
            continue
        chosen.append(mu)
    # Close under conjugation so the convolved kernel is real.
    out = list(chosen)
    for mu in chosen:
        if abs(mu.imag) > 1e-12 and not any(
            abs(mu.conjugate() - other) <= 1e-9 * max(1.0, abs(mu)) for other in out
        ):
            out.append(mu.conjugate())
    return tuple(out), notes


@dataclass(frozen=True, eq=False)
class VarianceApplication:
    """Result of applying V[.] to one Hermitian matrix."""

    result: np.ndarray


def _sample_factors(series: SnapshotSeries, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """Rank-one factors of the per-sample characteristic matrices at ``lam``.

    Each sample contributes C_m = u_m v_m^* with u_m = a_m and
    v_m = conj(lam) a_m - b_m.  Returns u and v as C-contiguous (N, M)
    complex arrays, column m for sample m: the materialised rows of the
    reference paths, read in one piece.
    """
    a, b = series._rows(0, series.M)
    ut = np.ascontiguousarray(a.T, dtype=complex)
    vt = np.conj(lam) * ut
    vt -= b.T
    return ut, vt


def _is_real(series) -> bool:
    """True for a real-valued series, which :class:`SnapshotSeries` stores as float64
    and its working basis reads as float64 (their ``_dtype``)."""
    return series._dtype.kind == "f"


def _check_window(kernel: KernelSpec, m_samples: int) -> None:
    if kernel.half_width >= m_samples:
        raise WindowTooLargeError(
            f"kernel half-width {kernel.half_width} >= M={m_samples}; "
            "shorten the window or provide more data"
        )


def _ct(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return mat.conj().swapaxes(-1, -2)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + _ct(mat))


def _kappa(kernel: KernelSpec, m_samples: int) -> float:
    """The weight kappa = 2 sum_l kt(l) (M + l)/M of V's centring term C^* W C (1 for iid)."""
    lags = np.arange(kernel.half_width + 1)
    return 2.0 * float(np.sum(kernel.tilde_weights() * (m_samples + lags) / m_samples))


def variance_apply(
    q: np.ndarray, lam: complex, series: SnapshotSeries, kernel: KernelSpec
) -> VarianceApplication:
    """Apply the kernel-weighted covariance V[Q] via the rank-one expansion.

    The stream :func:`_streamed`, for every series, bound at ``lam`` and
    centred on the Gram pencil C(lam) of the series' Gram memo; raises
    WindowTooLargeError if the kernel's window does not fit the M samples.
    """
    _check_window(kernel, series.M)
    c_hat = _char_matrix(_series_gram(series), lam)[np.newaxis]
    v = _centred(_streamed(series, kernel), _kappa(kernel, series.M))(np.array([lam]), c_hat)
    return VarianceApplication(v(np.asarray(q, dtype=complex)[np.newaxis])[0])


class _RealIidCovariance:
    """U[W] of the iid kernel on a real-valued series, in real arithmetic.

    With u_m = a_m and v_m = conj(lam) a_m - b_m for real a_m, b_m, the iid
    estimator (1/M) sum_m (u_m^* W u_m) v_m v_m^* - C^* W C is U - C^* W C
    (kappa = 1) with

        U = (1/M)(|lam|^2 X_aa - conj(lam) X_ab - lam X_ba + X_bb) = P + P^*,
        X = sum_m s_m z_m z_m^T,  z_m = [a_m; b_m],  s_m = a_m^T Re(W) a_m,

    so the real samples serve every lambda.  X is symmetric, so
    P = (|lam|^2 X_aa + X_bb) / 2M - conj(lam) X_ab / M, whose X_ab^T
    comes back through P^*, and X_aa and X_bb are read from their upper
    triangles.  X is linear in the packed (upper-triangle) pairs r of
    Re(W) + Re(W)^T, through the fourth-moment tensor

        T = sum_m (a_m (x) a_m)_packed (z_m (x) z_m)_packed^T,

    an (N(N+1)/2, N(2N+1)) real matrix that depends on the data alone.
    Construction reads the series' float64 row blocks
    (:func:`~specguard.ingest._row_blocks`) into one (2N, ``_ROW_BLOCK``)
    buffer of z columns, builds T from
    Khatri-Rao products of these blocks and scales its rows and columns
    once (a diagonal pair of r counts R_ii twice; the pairs of X take
    ``scale``); it keeps no reference to the samples.  So every stack of W
    costs one gather of r, one GEMM to the scaled packed X and one gather
    of its X_aa and X_bb pairs into P, and no pass over the M samples,
    whatever the batch size or the order of the calls.  :meth:`of` keeps
    one instance per series, so every estimate on the series shares one T.
    :meth:`applies` takes this route only while a Khatri-Rao block fits in
    ``MAX_BLOCK_ENTRIES`` (N <= 31 once M >= 512); a larger series gets the
    same X from :func:`_streamed`, in one pass over the samples per stack.
    """

    #: largest Khatri-Rao block, in float64 entries (8 MB).
    MAX_BLOCK_ENTRIES = 1 << 20

    def __init__(self, series: SnapshotSeries) -> None:
        n = series.N
        self.n = n
        self.m = series.M
        # Packed pairs (i, j), i <= j, as runs j = j0..j1-1 for each i:
        # a-a first, then a-b, then b-b.
        self.runs = (
            [(i, i, n) for i in range(n)]
            + [(i, n, 2 * n) for i in range(n)]
            + [(n + i, n + i, 2 * n) for i in range(n)]
        )
        rows = np.concatenate([np.full(j1 - j0, i) for i, j0, j1 in self.runs])
        cols = np.concatenate([np.arange(j0, j1) for _, j0, j1 in self.runs])
        n_aa = self.n_aa = n * (n + 1) // 2
        #: the a-a pairs' entries (i, j) of a flattened (N, N) matrix, then their (j, i).
        self.upper_lower = np.concatenate(
            [rows[:n_aa] * n + cols[:n_aa], cols[:n_aa] * n + rows[:n_aa]]
        )
        #: the a-a pair {i, j} of each entry (i, j) of a flattened (N, N) matrix.
        symmetric = np.empty((n, n), dtype=int)
        symmetric[rows[:n_aa], cols[:n_aa]] = symmetric[cols[:n_aa], rows[:n_aa]] = np.arange(n_aa)
        self.symmetric = symmetric.ravel()
        #: the scales of the packed pairs of X: 1/2M for X_aa and X_bb, 1/M for X_ab.
        self.scale = np.where((rows < n) & (cols >= n), 1.0, 0.5) / self.m
        self.block = min(_ROW_BLOCK, self.m)
        self.tensor = self._build_tensor(series)
        self.tensor *= np.where(rows[:n_aa] == cols[:n_aa], 0.5, 1.0)[:, np.newaxis]
        self.tensor *= self.scale

    @classmethod
    def applies(cls, series: SnapshotSeries, kernel: KernelSpec) -> bool:
        """True for the iid kernel on a real-valued series (see :func:`_is_real`) whose
        Khatri-Rao block of N(2N+1) packed pairs fits in ``MAX_BLOCK_ENTRIES``."""
        block = min(_ROW_BLOCK, series.M) * series.N * (2 * series.N + 1)
        return kernel.mode == "iid" and _is_real(series) and block <= cls.MAX_BLOCK_ENTRIES

    @classmethod
    def of(cls, series: SnapshotSeries) -> "_RealIidCovariance":
        """The covariance of a real series, built on first use and kept with it."""
        return series._memo.get_or_build("real_iid", lambda: cls(series))

    def _build_tensor(self, series: SnapshotSeries) -> np.ndarray:
        """T = sum_m (a_m (x) a_m)_packed (z_m (x) z_m)_packed^T, one block of rows at a time.

        The first block's product is T itself: a one-block build holds no second T.
        """
        n, tensor = self.n, None
        z_buf = np.empty((2 * n, self.block))
        kr_buf = np.empty((len(self.scale), self.block))
        for size, a, b in _row_blocks(series):
            zb = z_buf[:, :size]
            zb[:n] = a.T
            zb[n:] = b.T
            kr = kr_buf[:, :size]
            pos = 0
            for i, j0, j1 in self.runs:
                np.multiply(zb[i], zb[j0:j1], out=kr[pos : pos + j1 - j0])
                pos += j1 - j0
            product = kr[: self.n_aa] @ kr.T
            tensor = product if tensor is None else np.add(tensor, product, out=tensor)
        return tensor

    def second_moments(self, w: np.ndarray) -> np.ndarray:
        """The packed pairs of X of each W of the stack, scaled by ``scale``: (k, N(2N+1))."""
        # Taken along the transpose: r stays F-ordered, the layout the GEMM's rounding rests on.
        r = w.real.reshape(len(w), -1).T.take(self.upper_lower, axis=0).T
        return (r[:, : self.n_aa] + r[:, self.n_aa :]) @ self.tensor

    def bind(self, lams: np.ndarray, c_hat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``half(w)``: P of U = P + P^* for a stack ``w`` at the points ``lams``.

        |lam|^2 and conj(lam) are taken here, once; ``c_hat`` is not read,
        as U does not depend on C (:func:`_centred` adds the centring term).
        """
        n_aa, n_ab = self.n_aa, self.n_aa + self.n * self.n
        lam2 = (lams.real**2 + lams.imag**2)[:, np.newaxis]
        minus_lam_conj = -lams.conj()[:, np.newaxis]

        def half(w: np.ndarray) -> np.ndarray:
            y = self.second_moments(w)
            p = minus_lam_conj * y[:, n_aa:n_ab]
            p += (lam2 * y[:, :n_aa] + y[:, n_ab:]).take(self.symmetric, axis=1)
            return p.reshape(w.shape)

        return half


#: ``bind(lams, c_hat)`` -> applier to stacks of (N, N) W, one per point, where C(lam) = c_hat.
_Binder = Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]]


def _streamed(series: SnapshotSeries, kernel: KernelSpec) -> _Binder:
    """The halves P of U = P + P^*, for any series and kernel, in one pass over the samples.

    Expanding the centered products and folding negative lags yields

        V[Q] = T + T^*,   T = P - (kappa / 2) C^* Q C,
        P = (1/M) sum_m ( sum_l kt(l) (u_{m+l}^* Q u_m) v_{m+l} ) v_m^*
            + (1/M) sum_{j=1}^{Lt} w_j ( C_j^* Q C + C^* Q C_{M-j+1} ),

    with the factors u_m = a_m and v_m = conj(lam) a_m - b_m of
    :func:`_sample_factors`, one-sided weights kt from the kernel (lag 0
    halved), boundary weights w_j = sum_{l >= j} kt(l) and
    kappa = 2 sum_l kt(l) (M + l)/M (:func:`_kappa`).  For the iid kernel
    this reduces to the single-lag estimator
    (1/M) sum (u_m^* Q u_m) v_m v_m^* - C^* Q C.

    Each stack of W walks the series' row blocks
    (:func:`~specguard.ingest._row_blocks`), each with the Lt rows after
    it, and takes each point in turn
    while the block is in cache: per lag one row-wise quadratic form and one
    accumulate, then one (N, b) x (b, N) product.  The boundary terms, the
    only part of P that reads C, read the first and last Lt rows.  Each
    block is cast once to the result type of the batch's C and W, so a
    real batch (a real series at real points, from real W) stays real.  A real
    series under the iid kernel, one with no weight past lag 0
    (:attr:`KernelSpec.mode`), stays real at every point: X = sum_m s_m z_m z_m^T as in
    :class:`_RealIidCovariance`, s_m = a_m^T Re(W) a_m, and
    P = kt(0) (|lam|^2 X_aa + X_bb - 2 conj(lam) X_ab) / M, real at real
    points.  No temporary grows with M.
    """
    m = series.M
    kt, lt = kernel.tilde_weights(), kernel.half_width
    lags = [(lag, kt[lag]) for lag in range(lt + 1) if kt[lag] != 0.0]
    # w_j = sum_{l >= j} kt(l) for 1-based j = 1..Lt, and the rows 1..Lt and M..M-Lt+1.
    edge = np.cumsum(kt[::-1])[::-1][1:, np.newaxis]
    head_a, head_b = series._rows(0, lt)
    tail_a, tail_b = (x[::-1] for x in series._rows(m - lt, m))

    def real_half(lams: np.ndarray, w: np.ndarray) -> np.ndarray:
        r = np.ascontiguousarray(w.real)
        x_aa, x_ab, x_bb = (np.zeros(r.shape) for _ in range(3))
        for _, ab, bb in _row_blocks(series):
            for k in range(len(w)):
                s = np.einsum("mi,mi->m", ab @ r[k], ab)[:, np.newaxis]
                sb = s * bb
                x_aa[k] += ab.T @ (s * ab)
                x_ab[k] += ab.T @ sb
                x_bb[k] += bb.T @ sb
        lam2 = (lams.real**2 + lams.imag**2)[:, np.newaxis, np.newaxis]
        p = lam2 * x_aa + x_bb - 2.0 * lams.conj()[:, np.newaxis, np.newaxis] * x_ab
        return (kt[0] / m) * p

    def lagged_half(lams: np.ndarray, c_hat: np.ndarray, w: np.ndarray) -> np.ndarray:
        dtype = np.result_type(c_hat, w)    # float64 only for a real batch at real W
        out = np.zeros(w.shape, dtype=dtype)
        for size, rows, rows_b in _row_blocks(series, lt):
            # One copy of the block in the batch's type for every point: mixed
            # real-complex products are slower.
            rows = np.asarray(rows, dtype)
            rows_h = rows.conj()
            for k, lam in enumerate(lams):
                v = np.conj(lam) * rows
                v -= rows_b
                qu = rows[:size] @ w[k].T    # row m is (W u_m)^T
                acc = np.zeros_like(qu)
                for lag, weight in lags:
                    n_rows = max(min(size, len(rows) - lag), 0)
                    inner = np.einsum("mi,mi->m", rows_h[lag : lag + n_rows], qu[:n_rows])
                    inner *= weight
                    acc[:n_rows] += inner[:, np.newaxis] * v[lag : lag + n_rows]
                out[k] += acc.T @ v[:size].conj()
        for k, lam in enumerate(lams if lt else ()):    # the boundary terms of a window
            head_v, tail_v = np.conj(lam) * head_a - head_b, np.conj(lam) * tail_a - tail_b
            out[k] += (head_v * edge).T @ (head_a.conj() @ (w[k] @ c_hat[k]))
            out[k] += ((tail_a @ (_ct(c_hat[k]) @ w[k]).T) * edge).T @ tail_v.conj()
        return out / m

    if kernel.mode == "iid" and _is_real(series):
        return lambda lams, c_hat: lambda w: real_half(lams, w)
    return lambda lams, c_hat: lambda w: lagged_half(lams, c_hat, w)


def _centred(halves: _Binder, kappa: float) -> _Binder:
    """V[W] = P + P^* - kappa C^* W C from a binder of the half P of U = P + P^*.

    Hermitian by construction.  C^* is taken once, when the points are bound.
    """

    def bind(lams: np.ndarray, c_hat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        half, c_hat_h = halves(lams, c_hat), _ct(c_hat)

        def v(w: np.ndarray) -> np.ndarray:
            t = half(w) - 0.5 * kappa * (c_hat_h @ (w @ c_hat))
            return t + _ct(t)

        return v

    return bind


def _route(series: SnapshotSeries, kernel: KernelSpec) -> tuple[float, bool]:
    """What V takes from the series and kernel alone: kappa, and whether the tensor applies.

    Checks the kernel window first.
    """
    _check_window(kernel, series.M)
    return _kappa(kernel, series.M), _RealIidCovariance.applies(series, kernel)


def _covariance(series: SnapshotSeries, kernel: KernelSpec) -> _Binder:
    """V for one series and kernel, stateless from one batch of points to the next.

    ``bind(lams, c_hat)`` returns V[W] for stacks of W, centred on ``c_hat``.
    P takes one of two routes.  Where :meth:`_RealIidCovariance.applies`,
    it comes from the tensor of the series' :class:`_RealIidCovariance`,
    looked up in its memo when a batch is bound, so that the tensor is
    built at the first off-spectrum batch and shared by every later
    estimate; every other series or kernel takes the stream
    :func:`_streamed`.  The kernel window is checked at once.  The window
    check, kappa and the route (:func:`_route`) are made once per series
    and kernel value, (l_window, mu_list), and kept in the series' memo as
    plain values, so an equal kernel built anew reuses them.
    """
    key = ("route", kernel.l_window, kernel.mu_list)
    kappa, tensor = series._memo.get_or_build(key, lambda: _route(series, kernel))
    if tensor:
        return _centred(lambda lams, c_hat: _RealIidCovariance.of(series).bind(lams, c_hat), kappa)
    return _centred(_streamed(series, kernel), kappa)


def variance_apply_naive(
    q: np.ndarray,
    lam: complex,
    series: SnapshotSeries,
    kernel: KernelSpec,
) -> VarianceApplication:
    """Reference evaluation of V[Q] from materialized matrices, centred on their own mean.

    Computes every Gamma_l by direct summation and combines them with the
    kernel weights; negative lags enter through Gamma_{-l} = Gamma_l^*.
    Quadratic in memory (M x N x N); intended for validation, not production.
    """
    m, n = series.M, series.N
    _check_window(kernel, m)
    q = np.asarray(q, dtype=complex)
    ut, vt = _sample_factors(series, lam)
    c_stack = np.einsum("im,jm->mij", ut, vt.conj())
    d_stack = c_stack - c_stack.mean(axis=0)

    total = np.zeros((n, n), dtype=complex)
    for lag in range(kernel.half_width + 1):
        wgt = kernel.weight(lag)
        if wgt == 0.0:
            continue
        gam = (
            np.einsum(
                "mba,bc,mcd->ad",
                d_stack[lag:].conj(),
                q,
                d_stack[: m - lag],
                optimize=True,
            )
            / m
        )
        total += wgt * gam
        if lag > 0:
            total += wgt * gam.conj().T
    return VarianceApplication(_hermitize(total))

