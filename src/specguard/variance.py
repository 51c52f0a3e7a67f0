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
is Hermitian by construction.  The core, `_variance_half`, reads the
per-sample factors v (one (N, M) column per sample, with u = a^T) of
`_sample_factors` and their mean C, which every caller takes from the
Gram pencil C(lam) = lam Psi_XX - Psi_XY of :mod:`specguard.charmatrix`.
`_covariance` is the one V that the estimates apply: ``bind(lams,
c_hat)`` fixes a stack of points, centred on the C(lam) stack it is
given, and returns V itself for stacks of W; `_centred` composes it from
a route's P.  `variance_apply` is the point-by-point route at one
``lam``, and `variance_apply_naive` a reference that materializes the
centered snapshot matrices; the two agree to a 1e-10 relative Frobenius
bound.
V[Q] comes back as computed, never repaired for positivity (V is linear
in Q): the certified estimates test positivity once, on S[Q], when the
pencil of :mod:`specguard.pseudospec` Cholesky-factors it.  For the iid
kernel on real-valued data, which a series stores as float64,
`_covariance` computes P in real arithmetic for a whole batch of points
at once (`_RealIidCovariance`), held to the same bound.  There U[W] is
linear in Re(W) through a fourth-moment tensor of the data over
upper-triangle pairs, built once per series from the M samples, with
the pair weights and the 1/M scales folded in, and kept with the series,
so that a stack of W costs one GEMM and no application reads the
samples again.  Only when the tensor is too large to build does each
application stream once through the series' own samples, in cache-sized
blocks, with no temporary that grows with M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charmatrix import _char_matrix, _series_gram
from .errors import ShapeError, UnstableKernelError, WindowTooLargeError
from .ingest import SnapshotSeries

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
    """Fully resolved covariance kernel: mode, window length, slow modes,
    and the combined lag weights.

    ``kappa_p`` holds the deflation weights on lags -K..K and ``kappa_m``
    the window-smoothed weights on lags -(K + l_window)..(K + l_window).
    Use the constructors; the raw constructor performs validation only.
    """

    mode: str                     # "iid" | "windowed"
    l_window: int                 # L_M, half-width of the smoothing window
    mu_list: tuple[complex, ...]
    kappa_p: np.ndarray
    kappa_m: np.ndarray

    def __post_init__(self) -> None:
        if self.mode not in ("iid", "windowed"):
            raise ShapeError(f"mode must be 'iid' or 'windowed', got {self.mode!r}")
        if self.l_window < 0:
            raise ShapeError(f"l_window must be >= 0, got {self.l_window}")
        kp = np.array(self.kappa_p, dtype=float)
        km = np.array(self.kappa_m, dtype=float)
        k = len(self.mu_list)
        if kp.shape != (2 * k + 1,):
            raise ShapeError(f"kappa_p length {kp.shape} != 2*{k}+1")
        if km.shape != (2 * (k + self.l_window) + 1,):
            raise ShapeError("kappa_m length inconsistent with mu_list and l_window")
        if abs(kp.sum() - 1.0) > 1e-10:
            raise ShapeError(f"kappa_p must sum to 1, got {kp.sum():.6g}")
        if self.mode == "iid" and (k > 0 or self.l_window > 0):
            raise ShapeError("iid mode requires an empty mu_list and l_window == 0")
        kp.flags.writeable = False
        km.flags.writeable = False
        object.__setattr__(self, "kappa_p", kp)
        object.__setattr__(self, "kappa_m", km)
        object.__setattr__(self, "mu_list", tuple(complex(m) for m in self.mu_list))

    @staticmethod
    def iid() -> "KernelSpec":
        """Kernel for independent snapshot pairs: a unit mass at lag 0."""
        return KernelSpec("iid", 0, (), np.array([1.0]), np.array([1.0]))

    @staticmethod
    def windowed(
        l_window: int, mu_list: tuple[complex, ...] | list[complex] = ()
    ) -> "KernelSpec":
        """Kernel for serially correlated snapshots.

        ``l_window = 0`` degenerates the smoothing window to a unit mass at
        lag 0, so ``windowed(0)`` matches the iid weights while keeping the
        windowed-mode label.
        """
        kp = metastability_kernel(tuple(mu_list))
        if l_window == 0:
            win = np.array([1.0])
        else:
            lags = np.arange(-l_window, l_window + 1)
            win = np.asarray(kappa_w(lags / l_window))
        km = np.convolve(kp, win)
        return KernelSpec("windowed", l_window, tuple(mu_list), kp, km)

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
    """
    m = series.M
    if m < 2:
        raise ShapeError(f"need at least 2 snapshot pairs, got {m}")
    max_lag = max(1, min(50, m // 10))

    ut, vt = _sample_factors(series, lam)
    c_hat = _char_matrix(_series_gram(series), lam)
    # t_m = tr(C_m^* C) = u_m^* C v_m
    tvec = np.sum(ut.conj() * (c_hat @ vt), axis=0)
    cnorm2 = float(np.linalg.norm(c_hat) ** 2)

    r = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        alpha = np.sum(ut[:, lag:].conj() * ut[:, : m - lag], axis=0)
        beta = np.sum(vt[:, : m - lag].conj() * vt[:, lag:], axis=0)
        total = (
            np.sum(alpha * beta)
            - np.sum(tvec[lag:])
            - np.sum(tvec[: m - lag].conj())
            + (m - lag) * cnorm2
        )
        r[lag] = total.real / m

    # Leading run of positive autocovariance traces.
    k = 0
    while k <= max_lag and r[k] > 0.0:
        k += 1
    if k < 2:
        return 0.5
    lags = np.arange(k)
    slope = np.polyfit(lags, np.log(r[:k]), 1)[0]
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


def _sample_factors(
    series: SnapshotSeries, lam: complex, ut: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-one factors of the per-sample characteristic matrices at ``lam``.

    Each sample contributes C_m = u_m v_m^* with u_m = a_m and
    v_m = conj(lam) a_m - b_m.  Returns u and v as C-contiguous (N, M)
    arrays, column m for sample m.  u = a^T does not depend on lam: pass
    it as ``ut``, C-contiguous, to skip transposing ``a`` for every lam.
    """
    if ut is None:
        ut = np.ascontiguousarray(series.a.T, dtype=complex)
    vt = np.conj(lam) * ut
    vt -= series.b.T
    return ut, vt


def _is_real(series: SnapshotSeries) -> bool:
    """True for a real-valued series, which :class:`SnapshotSeries` stores as float64."""
    return series.a.dtype.kind == "f"


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

    The point-by-point route of :func:`_covariance`, real series
    included, bound at ``lam`` and centred on the Gram pencil C(lam) of
    the series' Gram memo; raises WindowTooLargeError if the kernel's
    window does not fit the M samples.
    """
    _check_window(kernel, series.M)
    c_hat = _char_matrix(_series_gram(series), lam)[np.newaxis]
    v = _centred(_pointwise(series, kernel), _kappa(kernel, series.M))(np.array([lam]), c_hat)
    return VarianceApplication(v(np.asarray(q, dtype=complex)[np.newaxis])[0])


def _variance_half(
    q: np.ndarray, ut: np.ndarray, vt: np.ndarray, c_hat: np.ndarray, kernel: KernelSpec
) -> np.ndarray:
    """P with U = P + P^*, where U is V without its centring term, from the factors of
    :func:`_sample_factors` and their mean ``c_hat``.

    Expanding the centered products and folding negative lags yields

        V[Q] = T + T^*,   T = P - (kappa / 2) C^* Q C,
        P = (1/M) sum_m ( sum_l kt(l) (u_{m+l}^* Q u_m) v_{m+l} ) v_m^*
            + (1/M) sum_{j=1}^{Lt} w_j ( C_j^* Q C + C^* Q C_{M-j+1} ),

    with one-sided weights kt from the kernel (lag 0 halved), boundary
    weights w_j = sum_{l >= j} kt(l) and kappa = 2 sum_l kt(l) (M + l)/M
    (:func:`_kappa`).  For the iid kernel this reduces to the single-lag
    estimator (1/M) sum (u_m^* Q u_m) v_m v_m^* - C^* Q C.  P still reads
    C through the boundary terms of a windowed kernel.
    """
    m = ut.shape[1]
    q = np.asarray(q, dtype=complex)
    kt = kernel.tilde_weights()
    lt = kernel.half_width

    qu = q @ ut
    acc = np.zeros_like(vt)
    for lag in range(lt + 1):
        if kt[lag] == 0.0:
            continue
        inner = np.sum(ut[:, lag:].conj() * qu[:, : m - lag], axis=0)
        acc[:, : m - lag] += kt[lag] * (vt[:, lag:] * inner[np.newaxis, :])
    tilde = acc @ vt.conj().T / m

    if lt > 0:
        # w_j = sum_{l >= j} kt(l) for 1-based j = 1..Lt.
        w = np.cumsum(kt[::-1])[::-1][1:]
        head = (vt[:, :lt] * w[np.newaxis, :]) @ (ut[:, :lt].conj().T @ (q @ c_hat))
        idx = m - 1 - np.arange(lt)
        cq = c_hat.conj().T @ q
        tail = ((cq @ ut[:, idx]) * w[np.newaxis, :]) @ vt[:, idx].conj().T
        tilde += (head + tail) / m
    return tilde


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

    an (N(N+1)/2, N(2N+1)) real matrix that depends on the data alone.  A
    pass over the samples reads ``BLOCK`` rows of the series' own float64
    a and b at a time into one (2N, ``BLOCK``) buffer of z columns; no copy
    of the samples is kept.  Construction builds T from Khatri-Rao
    products of these blocks, scales its rows and columns once (a diagonal
    pair of r counts R_ii twice; the pairs of X take ``scale``), and then
    drops its reference to a and b.  So every stack of W costs one gather
    of r, one GEMM to the scaled packed X and one gather of its X_aa and
    X_bb pairs into P, and no pass over the M samples, whatever the batch
    size or the order of the calls.  :meth:`of` keeps one instance per series, so every
    estimate on the series shares one T.  When a Khatri-Rao block would
    exceed ``MAX_BLOCK_ENTRIES`` (N >= 32 once M >= 512) T is never built
    and each W takes the direct form X = z^T diag(s) z: one pass over the
    sample blocks, each W of the stack in turn while a block is in cache:
    s from R^T a into an (N, ``BLOCK``) buffer, z diag(s) into a (2N,
    ``BLOCK``) buffer, and one small GEMM added to X.
    """

    #: samples per block, for the tensor build and the direct form alike.
    BLOCK = 512
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
        #: the packed pairs' entries of a flattened (2N, 2N) X.
        self.pairs = rows * 2 * n + cols
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
        self.block = min(self.BLOCK, self.m)
        self.samples: tuple[np.ndarray, np.ndarray] | None = (series.a, series.b)
        self.tensor: np.ndarray | None = None
        if self.block * len(self.pairs) <= self.MAX_BLOCK_ENTRIES:
            self.tensor = self._build_tensor()
            self.tensor *= np.where(rows[:n_aa] == cols[:n_aa], 0.5, 1.0)[:, np.newaxis]
            self.tensor *= self.scale
            self.samples = None

    @staticmethod
    def applies(series: SnapshotSeries, kernel: KernelSpec) -> bool:
        """True for the iid kernel on a real-valued series (see :func:`_is_real`)."""
        return kernel.mode == "iid" and _is_real(series)

    @classmethod
    def of(cls, series: SnapshotSeries) -> "_RealIidCovariance":
        """The covariance of a real series, built on first use and kept with it."""
        return series._memo.get_or_build("real_iid", lambda: cls(series))

    def _sample_blocks(self):
        """The (2N, <= ``block``) column blocks of z, in sample order, in one reused buffer."""
        n, (a, b) = self.n, self.samples
        buf = np.empty((2 * n, self.block))
        for start in range(0, self.m, self.block):
            zb = buf[:, : min(self.block, self.m - start)]
            zb[:n] = a[start : start + self.block].T
            zb[n:] = b[start : start + self.block].T
            yield zb

    def _build_tensor(self) -> np.ndarray:
        """T = sum_m (a_m (x) a_m)_packed (z_m (x) z_m)_packed^T, one block at a time.

        The first block's product is T itself: a one-block build holds no second T.
        """
        tensor = None
        kr_buf = np.empty((len(self.pairs), self.block))
        for zb in self._sample_blocks():
            kr = kr_buf[:, : zb.shape[1]]
            pos = 0
            for i, j0, j1 in self.runs:
                np.multiply(zb[i], zb[j0:j1], out=kr[pos : pos + j1 - j0])
                pos += j1 - j0
            product = kr[: self.n_aa] @ kr.T
            tensor = product if tensor is None else np.add(tensor, product, out=tensor)
        return tensor

    def _direct(self, r: np.ndarray) -> np.ndarray:
        """X = z^T diag(s) z for each R of the stack, in one pass over the blocks."""
        n = self.n
        out = np.zeros((len(r), 2 * n, 2 * n))
        y_buf = np.empty((n, self.block))
        zs_buf = np.empty((2 * n, self.block))
        for zb in self._sample_blocks():
            ab = zb[:n]
            y, zs = y_buf[:, : zb.shape[1]], zs_buf[:, : zb.shape[1]]
            for k in range(len(r)):
                np.matmul(r[k].T, ab, out=y)
                np.multiply(zb, np.einsum("im,im->m", y, ab), out=zs)
                out[k] += zb @ zs.T
        return out

    def second_moments(self, w: np.ndarray) -> np.ndarray:
        """The packed pairs of X of each W of the stack, scaled by ``scale``: (k, N(2N+1))."""
        if self.tensor is not None:
            r = w.real.reshape(len(w), -1)[:, self.upper_lower]
            return (r[:, : self.n_aa] + r[:, self.n_aa :]) @ self.tensor
        x = self._direct(np.ascontiguousarray(w.real))
        return x.reshape(len(w), -1)[:, self.pairs] * self.scale

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
            p += (lam2 * y[:, :n_aa] + y[:, n_ab:])[:, self.symmetric]
            return p.reshape(w.shape)

        return half


#: ``bind(lams, c_hat)`` -> applier to stacks of (N, N) W, one per point, where C(lam) = c_hat.
_Binder = Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]]


def _pointwise(series: SnapshotSeries, kernel: KernelSpec) -> _Binder:
    """The halves P of :func:`_variance_half`, point by point.

    u is built once here (complex, so that no application casts it) and v
    for every application, so that no (N, M) array is kept per point.
    """
    ut = np.ascontiguousarray(series.a.T, dtype=complex)

    def bind(lams: np.ndarray, c_hat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        def half(w: np.ndarray) -> np.ndarray:
            out = np.empty_like(w)
            for k, lam in enumerate(lams):
                _, vt = _sample_factors(series, lam, ut)
                out[k] = _variance_half(w[k], ut, vt, c_hat[k], kernel)
            return out

        return half

    return bind


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


def _covariance(series: SnapshotSeries, kernel: KernelSpec) -> _Binder:
    """V for one series and kernel, stateless from one batch of points to the next.

    ``bind(lams, c_hat)`` returns V[W] for stacks of W, centred on ``c_hat``.
    The iid kernel on a real-valued (float64) series computes P through
    the series' :class:`_RealIidCovariance`, looked up in its memo when a
    batch is bound, so that its tensor is built at the first off-spectrum
    batch and shared by every later estimate; every other series or
    kernel takes :func:`_pointwise`.  The kernel window is checked at once.
    """
    _check_window(kernel, series.M)
    kappa = _kappa(kernel, series.M)
    if not _RealIidCovariance.applies(series, kernel):
        return _centred(_pointwise(series, kernel), kappa)
    return _centred(lambda lams, c_hat: _RealIidCovariance.of(series).bind(lams, c_hat), kappa)


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

