"""Reference data generators: VAR(1) processes, a 1D expanding circle map,
and the Lorenz-63 system.

All stochastic draws go through ``numpy.random.Generator(Philox(seed))`` so
that outputs are reproducible bit-for-bit across platforms for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IntegratorError, NotSPDError, ShapeError

__all__ = [
    "RNG_ALGORITHM",
    "VarSpec",
    "Lorenz63Spec",
    "gen_var",
    "gen_expanding_map",
    "gen_lorenz63",
    "expanding_map_f",
    "var_benchmark_7d",
]

# Counter-based generator: stream is reproducible across OS/BLAS builds.
RNG_ALGORITHM = "numpy.random.Philox4x32-10"


def make_rng(seed: int) -> np.random.Generator:
    """Seeded Philox generator used by every sampling routine in the package."""
    return np.random.Generator(np.random.Philox(seed))


def _check_spd(mat: np.ndarray, name: str, *, allow_singular: bool) -> None:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-12 * max(1.0, float(np.abs(mat).max(initial=0.0)))):
        raise NotSPDError(f"{name} must be symmetric")
    w = np.linalg.eigvalsh(mat)
    floor = -1e-12 * max(1.0, float(w[-1]))
    if allow_singular:
        if w[0] < floor:
            raise NotSPDError(f"{name} must be positive semidefinite (min eig {w[0]:.3e})")
    else:
        if w[0] <= 0.0:
            raise NotSPDError(f"{name} must be positive definite (min eig {w[0]:.3e})")


@dataclass(frozen=True)
class VarSpec:
    """Order-1 vector autoregression ``Y = A X + xi``.

    X is drawn i.i.d. from N(0, Sigma_X) and xi independently from
    N(0, Sigma_xi); Sigma_xi may be singular (including exactly zero).
    """

    a_matrix: np.ndarray          # (N, N) real transition matrix
    sigma_x: np.ndarray           # (N, N) SPD state covariance
    sigma_xi: np.ndarray          # (N, N) PSD innovation covariance
    seed: int = 0

    def __post_init__(self) -> None:
        a = np.asarray(self.a_matrix, dtype=float)
        sx = np.asarray(self.sigma_x, dtype=float)
        sxi = np.asarray(self.sigma_xi, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"a_matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        if sx.shape != (n, n) or sxi.shape != (n, n):
            raise ShapeError(
                f"covariance shapes {sx.shape}, {sxi.shape} do not match state dim {n}"
            )
        _check_spd(sx, "sigma_x", allow_singular=False)
        _check_spd(sxi, "sigma_xi", allow_singular=True)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "sigma_x", sx)
        object.__setattr__(self, "sigma_xi", sxi)

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[0]


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """Factor B with B B^T = mat for a PSD matrix (eigh-based, singular OK)."""
    w, vecs = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return vecs * np.sqrt(w)


def gen_var(spec: VarSpec, m_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``m_samples`` i.i.d. pairs (X, Y) with Y = A X + xi.

    Returns
    -------
    x_states, y_states : ndarray, shape (m_samples, N)
        Real state samples, one row per draw.
    """
    if m_samples < 1:
        raise ShapeError(f"m_samples must be >= 1, got {m_samples}")
    rng = make_rng(spec.seed)
    n = spec.dim
    # X first, then xi, so adding noise never reshuffles the X stream.
    z_x = rng.standard_normal((m_samples, n))
    z_e = rng.standard_normal((m_samples, n))
    x_states = z_x @ np.linalg.cholesky(spec.sigma_x).T
    xi = z_e @ _psd_factor(spec.sigma_xi).T
    y_states = x_states @ spec.a_matrix.T + xi
    return x_states, y_states


def var_benchmark_7d(seed: int = 0) -> VarSpec:
    """Packaged 7-dimensional VAR benchmark with a mix of stable and
    marginally stable modes; Sigma_X = I, Sigma_xi = 0.1 I."""
    a = np.array(
        [
            [-0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.1, -0.3, -0.4, 0.0, 0.0, 0.0, 0.1],
            [0.1, 0.4, -0.3, 0.1, 0.0, 0.0, 0.0],
            [0.1, 0.0, 0.0, 0.5, 0.0, 0.1, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.5, 0.0, 0.1],
            [0.1, 0.0, 0.0, 0.0, 0.9, 0.5, 0.1],
            [0.0, 0.0, 0.0, 0.1, 0.1, 0.9, 0.5],
        ]
    )
    return VarSpec(a, np.eye(7), 0.1 * np.eye(7), seed=seed)


# ---------------------------------------------------------------------------
# 1D expanding circle map
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * np.pi


def expanding_map_f(x: np.ndarray | float) -> np.ndarray | float:
    """Degree-2 expanding circle map on [0, 2*pi).

    f(x) = 2x + 2*pi*(-0.03 + 0.04 sin x + 0.03 cos 3x - 0.03 sin 3x) mod 2*pi.
    The perturbation vanishes at x = 0, so f(0) = 0.
    """
    x = np.asarray(x, dtype=float)
    bump = -0.03 + 0.04 * np.sin(x) + 0.03 * np.cos(3.0 * x) - 0.03 * np.sin(3.0 * x)
    out = np.mod(2.0 * x + _TWO_PI * bump, _TWO_PI)
    return out if out.ndim else float(out)


def gen_expanding_map(
    m_samples: int, mode: str = "iid", seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (x, f(x)) pairs from the expanding circle map.

    Parameters
    ----------
    m_samples : int
        Number of snapshot pairs.
    mode : {"iid", "trajectory"}
        "iid" draws x uniformly on [0, 2*pi) for each pair; "trajectory"
        draws one uniform initial point and iterates the map.
    seed : int
        Philox stream seed.

    Returns
    -------
    x_states, y_states : ndarray, shape (m_samples, 1)
    """
    if m_samples < 1:
        raise ShapeError(f"m_samples must be >= 1, got {m_samples}")
    rng = make_rng(seed)
    if mode == "iid":
        x = rng.uniform(0.0, _TWO_PI, size=m_samples)
        y = expanding_map_f(x)
    elif mode == "trajectory":
        x = np.empty(m_samples)
        y = np.empty(m_samples)
        cur = rng.uniform(0.0, _TWO_PI)
        for m in range(m_samples):
            x[m] = cur
            cur = expanding_map_f(cur)
            y[m] = cur
    else:
        raise ShapeError(f"mode must be 'iid' or 'trajectory', got {mode!r}")
    return x.reshape(-1, 1), y.reshape(-1, 1)


# ---------------------------------------------------------------------------
# Lorenz-63
# ---------------------------------------------------------------------------

LORENZ_SIGMA = 10.0
LORENZ_RHO = 28.0
LORENZ_BETA = 8.0 / 3.0


@dataclass(frozen=True)
class Lorenz63Spec:
    """Sampling configuration for the Lorenz-63 system.

    The vector field parameters are the classical (sigma, rho, beta) =
    (10, 28, 8/3) and are not configurable.
    """

    dt_sample: float = 0.2        # time between recorded samples
    substeps: int = 20            # RK4 substeps per sample interval
    burn_in: int = 500            # samples discarded before recording
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dt_sample <= 0.0:
            raise ShapeError(f"dt_sample must be positive, got {self.dt_sample}")
        if self.substeps < 1:
            raise ShapeError(f"substeps must be >= 1, got {self.substeps}")
        if self.burn_in < 0:
            raise ShapeError(f"burn_in must be >= 0, got {self.burn_in}")
        h = self.dt_sample / self.substeps
        if h > 0.01 + 1e-15:
            raise IntegratorError(
                f"RK4 step {h:.4g} too coarse for Lorenz-63; need "
                f"dt_sample/substeps <= 0.01"
            )


def _lorenz_rhs(state: np.ndarray) -> np.ndarray:
    x, y, z = state
    return np.array(
        [
            LORENZ_SIGMA * (y - x),
            x * (LORENZ_RHO - z) - y,
            x * y - LORENZ_BETA * z,
        ]
    )


def _rk4_sample(state: np.ndarray, dt: float, substeps: int) -> np.ndarray:
    h = dt / substeps
    for _ in range(substeps):
        k1 = _lorenz_rhs(state)
        k2 = _lorenz_rhs(state + 0.5 * h * k1)
        k3 = _lorenz_rhs(state + 0.5 * h * k2)
        k4 = _lorenz_rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def gen_lorenz63(
    spec: Lorenz63Spec, m_samples: int, initial_state: np.ndarray | None = None
) -> np.ndarray:
    """Integrate Lorenz-63 and return ``m_samples + 1`` recorded states.

    The default initial condition is (1, 1, 1) plus N(0, 1e-6) jitter drawn
    from the seeded stream; ``burn_in`` recorded intervals are discarded
    before the trajectory that is returned.

    Returns
    -------
    ndarray, shape (m_samples + 1, 3)
        Consecutive rows are separated by ``spec.dt_sample`` time units, so
        the rows support ``m_samples`` snapshot pairs.

    Raises
    ------
    IntegratorError
        If the state becomes non-finite; the message names the failing
        sample index.
    """
    if m_samples < 1:
        raise ShapeError(f"m_samples must be >= 1, got {m_samples}")
    if initial_state is None:
        rng = make_rng(spec.seed)
        state = np.array([1.0, 1.0, 1.0]) + 1e-3 * rng.standard_normal(3)
    else:
        state = np.asarray(initial_state, dtype=float).copy()
        if state.shape != (3,):
            raise ShapeError(f"initial_state must have shape (3,), got {state.shape}")

    total = spec.burn_in + m_samples + 1
    out = np.empty((m_samples + 1, 3))
    for step in range(total):
        if step >= spec.burn_in:
            out[step - spec.burn_in] = state
        if step == total - 1:
            break
        state = _rk4_sample(state, spec.dt_sample, spec.substeps)
        if not np.all(np.isfinite(state)):
            raise IntegratorError(f"Lorenz-63 state non-finite at sample {step + 1}")
    return out
