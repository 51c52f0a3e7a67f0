"""Independent ground-truth computations for validating the estimator.

Three oracles live here; their closed forms and moments share no code with
the estimation path (only the certified power iteration that brackets them):

* closed forms for Gaussian VAR(1) processes (pseudospectrum value and the
  exact covariance application),
* quadrature-exact dictionary moments for 1D circle maps (spectrally
  accurate equispaced rule),
* a brute-force dense matrix representation of any S-operator on the real
  vector space of Hermitian matrices, and the adjoint S* of the iid data
  operator, from its rank-one sample expansion.

The `run_oracle_checks` suite cross-validates the estimation engine against
all three and powers the ``oracle-check`` CLI subcommand.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charmatrix import GramPair, edmd_matrix, eigensystem
from .errors import CostGuardError, ResolutionGuardError, ShapeError, UnsupportedModeError
from .generators import VarSpec, expanding_map_f, var_benchmark_7d
from .ingest import DictionarySpec, SnapshotSeries, _trig_eval
from .pseudospec import (
    PEstimate,
    PowerIterSettings,
    _estimate_points,
    _inverse_at,
    _s_at,
    p_hat,
)
from .variance import KernelSpec, _hermitize, _sample_factors

__all__ = [
    "var_p_exact",
    "var_v_exact",
    "VarMoments",
    "var_p_power",
    "QuadratureMoments",
    "hermitian_basis",
    "s_matrix_bruteforce",
    "s_star_apply",
    "CheckResult",
    "run_oracle_checks",
]


# ---------------------------------------------------------------------------
# VAR(1) closed forms
# ---------------------------------------------------------------------------


def _r_inverse(spec: VarSpec, lam: complex) -> np.ndarray:
    """R^{-1} = lam I - A^T (A real, so conjugate transpose is transpose)."""
    return lam * np.eye(spec.dim) - spec.a_matrix.T.astype(complex)


def var_p_exact(spec: VarSpec, lam: complex) -> float:
    """Population pseudospectrum of a Gaussian VAR(1) with identity dictionary:

        P(lam)^{-1} = N + 1 + tr( Sigma_xi R Sigma_X^{-1} R^* ),
        R = (lam I - A^*)^{-1}.

    Returns 0 when lam is exactly an eigenvalue of A^T (R fails to exist).
    """
    rinv = _r_inverse(spec, lam)
    try:
        r = np.linalg.inv(rinv)
    except np.linalg.LinAlgError:
        return 0.0
    t = np.trace(spec.sigma_xi @ r @ np.linalg.solve(spec.sigma_x, r.conj().T))
    return 1.0 / (spec.dim + 1.0 + float(t.real))


def var_v_exact(spec: VarSpec, lam: complex, q: np.ndarray) -> np.ndarray:
    """Exact covariance application for the Gaussian VAR(1) model:

        V[Q] = tr(Sigma_X Q) (R^{-*} Sigma_X R^{-1} + Sigma_xi)
               + R^{-*} Sigma_X Q^T Sigma_X R^{-1},

    where Q^T is the entrywise transpose WITHOUT conjugation.  Follows from
    the Gaussian fourth-moment identity
    E[(X^T Q X) X X^T] = tr(Sigma Q) Sigma + Sigma Q Sigma + Sigma Q^T Sigma.
    """
    q = np.asarray(q, dtype=complex)
    if q.shape != (spec.dim, spec.dim):
        raise ShapeError(f"q shape {q.shape} != ({spec.dim}, {spec.dim})")
    rinv = _r_inverse(spec, lam)
    rinvh = rinv.conj().T
    sx = spec.sigma_x.astype(complex)
    trq = float(np.trace(sx @ q).real)
    out = trq * (rinvh @ sx @ rinv + spec.sigma_xi) + rinvh @ sx @ q.T @ sx @ rinv
    return 0.5 * (out + out.conj().T)


@dataclass(frozen=True, eq=False)
class VarMoments:
    """Exact population moments of a VAR spec: its Gram pair, C(lam) and E[C_w^* Q C_w]."""

    spec: VarSpec

    def gram(self) -> GramPair:
        """Population Gram pair; m_samples = 0 marks exact moments."""
        sx = self.spec.sigma_x
        return GramPair(sx, sx @ self.spec.a_matrix.T, 0)

    def c_matrix(self, lam: complex) -> np.ndarray:
        return self.spec.sigma_x @ _r_inverse(self.spec, lam)

    def expected_chc(self, lam: complex, q: np.ndarray) -> np.ndarray:
        """E[C_w^* Q C_w] for one random snapshot of the VAR process."""
        q = np.asarray(q, dtype=complex)
        rinv = _r_inverse(self.spec, lam)
        rinvh = rinv.conj().T
        sx = self.spec.sigma_x.astype(complex)
        trq = float(np.trace(sx @ q).real)
        inner = trq * sx + sx @ q @ sx + sx @ q.T @ sx
        return rinvh @ inner @ rinv + trq * self.spec.sigma_xi


def _exact_estimate(
    gram: GramPair,
    v: Callable[[np.ndarray], np.ndarray],
    lam: complex,
    settings: PowerIterSettings | None,
) -> PEstimate:
    """The certified estimate at ``lam`` whose V, exact, is ``v`` of one matrix."""
    (est,) = _estimate_points(
        gram, lambda lams, c_hat: lambda live, w: v(w[0])[np.newaxis], [lam], settings
    )
    return est


def var_p_power(
    spec: VarSpec, lam: complex, settings: PowerIterSettings | None = None
) -> PEstimate:
    """Certified bracket from power iteration on the EXACT VAR operator.

    Runs the same engine as the data path, but with var_v_exact supplying
    the covariance application; the bracket must contain var_p_exact.
    """
    v = functools.partial(var_v_exact, spec, lam)
    return _exact_estimate(VarMoments(spec).gram(), v, lam, settings)


# ---------------------------------------------------------------------------
# Quadrature-exact moments for 1D circle maps
# ---------------------------------------------------------------------------


class QuadratureMoments:
    """Exact trigonometric-dictionary moments of a smooth circle map.

    Averages over equispaced nodes on [0, 2*pi), which is spectrally
    accurate for smooth periodic integrands; ``n_nodes >= 4 N`` is enforced
    and node doubling is the standard self-convergence check.

    Exposes ``psi_xx``/``psi_xy``, ``c_matrix`` and ``expected_chc``, from
    which ``exact_v`` forms the population covariance.
    """

    def __init__(
        self,
        map_f: Callable[[np.ndarray], np.ndarray],
        dict_spec: DictionarySpec,
        n_nodes: int,
    ) -> None:
        if dict_spec.variant != "trig":
            raise ShapeError(
                f"quadrature moments require the trig dictionary, got {dict_spec.variant!r}"
            )
        n_obs = dict_spec.n_obs
        if n_nodes < 4 * n_obs:
            raise ResolutionGuardError(
                f"n_nodes={n_nodes} under-resolves N={n_obs} observables; "
                f"need at least {4 * n_obs}"
            )
        self.dict_spec = dict_spec
        self.n_nodes = int(n_nodes)
        nodes = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
        u = _trig_eval(nodes, n_obs)                  # (n_nodes, N), real
        b = _trig_eval(np.asarray(map_f(nodes)), n_obs)
        self._ut = u.T.astype(complex)
        self._bt = b.T.astype(complex)
        self.psi_xx = (u.T @ u / n_nodes).astype(complex)
        self.psi_xx = 0.5 * (self.psi_xx + self.psi_xx.conj().T)
        self.psi_xy = (u.T @ b / n_nodes).astype(complex)

    def gram(self) -> GramPair:
        return GramPair(self.psi_xx, self.psi_xy, 0)

    def c_matrix(self, lam: complex) -> np.ndarray:
        return lam * self.psi_xx - self.psi_xy

    def expected_chc(self, lam: complex, q: np.ndarray) -> np.ndarray:
        """E[C_w^* Q C_w] = average of (u^* Q u) v v^* over the nodes."""
        q = np.asarray(q, dtype=complex)
        vt = np.conj(lam) * self._ut - self._bt
        s = np.sum(self._ut.conj() * (q @ self._ut), axis=0).real
        return (vt * s[np.newaxis, :]) @ vt.conj().T / self.n_nodes

    def exact_v(self, lam: complex, q: np.ndarray) -> np.ndarray:
        """Population covariance V[Q] = E[C_w^* Q C_w] - C^* Q C."""
        c = self.c_matrix(lam)
        return _hermitize(self.expected_chc(lam, q) - c.conj().T @ np.asarray(q, complex) @ c)

    def p_exact(
        self, lam: complex, settings: PowerIterSettings | None = None
    ) -> PEstimate:
        """Certified bracket for the population pseudospectrum of the map."""
        return _exact_estimate(self.gram(), functools.partial(self.exact_v, lam), lam, settings)


# ---------------------------------------------------------------------------
# Brute-force dense representation of S
# ---------------------------------------------------------------------------


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Frobenius-orthonormal real basis of the Hermitian n x n matrices.

    Order: diagonal units E_ii; then (E_ij + E_ji)/sqrt(2) for i < j; then
    i(E_ij - E_ji)/sqrt(2) for i < j (row-major over pairs).
    """
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    inv_rt2 = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = inv_rt2
            e[j, i] = inv_rt2
            basis.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1j * inv_rt2
            e[j, i] = -1j * inv_rt2
            basis.append(e)
    return basis


def s_matrix_bruteforce(
    s_applier: Callable[[np.ndarray], np.ndarray], n: int
) -> tuple[np.ndarray, float]:
    """Dense matrix of a Hermitian-space operator and its spectral radius.

    Applies ``s_applier`` to each of the n^2 basis matrices and reads off
    Frobenius coefficients; the spectral radius comes from a dense
    eigensolve of that real n^2 x n^2 matrix.

    Raises
    ------
    CostGuardError
        For n > 8 (the dense representation grows as n^4).
    """
    if n > 8:
        raise CostGuardError(f"brute-force S matrix limited to n <= 8, got n={n}")
    basis = hermitian_basis(n)
    dim = len(basis)
    mat = np.empty((dim, dim))
    for k, bk in enumerate(basis):
        image = s_applier(bk)
        for j, bj in enumerate(basis):
            mat[j, k] = float(np.trace(bj.conj().T @ image).real)
    rho = float(np.max(np.abs(np.linalg.eigvals(mat))))
    return mat, rho


def s_star_apply(
    q: np.ndarray, lam: complex, series: SnapshotSeries, kernel: KernelSpec
) -> np.ndarray:
    """Adjoint application S*[Q] = (1/M) sum_m D_m Q D_m^* (iid sampling only).

    D_m = C^{-1}(C_m - C) at ``lam``, so <S[A], B> = <A, S*[B]> in the Frobenius
    inner product; under any other kernel the expansion is not the adjoint of S.
    """
    if kernel.mode != "iid":
        raise UnsupportedModeError(
            "S* is implemented for the iid kernel only; windowed covariance "
            "has no rank-one adjoint expansion here"
        )
    (lam,), _, (c_inv,) = _inverse_at(series, lam, "S*")
    q = np.asarray(q, dtype=complex)
    ut, vt = _sample_factors(series, lam)
    # D_m = g_m v_m^* - I with g_m = C^{-1} u_m.
    g, qv = c_inv @ ut, q @ vt
    s_vals = np.sum(vt.conj() * qv, axis=0).real
    t1 = (g * s_vals[np.newaxis, :]) @ g.conj().T
    t2 = g @ qv.conj().T
    return _hermitize((t1 - t2 - t2.conj().T) / series.M + q)


# ---------------------------------------------------------------------------
# Consistency suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_var_end_to_end(perturb: float, seed: int) -> CheckResult:
    """Power iteration on the exact VAR operator must bracket the closed form."""
    spec = var_benchmark_7d()
    eigs = np.linalg.eigvals(spec.a_matrix.T)
    rng = np.random.Generator(np.random.Philox(seed))
    settings = PowerIterSettings(rel_tol=1e-6, max_iters=500)
    worst = 0.0
    n_pts = 0
    while n_pts < 20:
        lam = complex(*rng.uniform(-1.5, 1.5, size=2))
        if not 0.9 <= abs(lam) <= 1.5:
            continue
        if np.min(np.abs(eigs - lam)) < 0.05:
            continue
        n_pts += 1
        exact = var_p_exact(spec, lam) * (1.0 + perturb)
        est = var_p_power(spec, lam, settings)
        if not est.converged:
            return CheckResult(
                "var_end_to_end", False, f"no convergence at lam={lam:.4g}"
            )
        if not est.lower * (1 - 1e-9) <= exact <= est.upper * (1 + 1e-9):
            return CheckResult(
                "var_end_to_end",
                False,
                f"closed form {exact:.9g} outside bracket "
                f"[{est.lower:.9g}, {est.upper:.9g}] at lam={lam:.4g}",
            )
        worst = max(worst, est.upper / max(est.lower, 1e-300) - 1.0)
    return CheckResult(
        "var_end_to_end", True, f"20 points bracketed; worst rel width {worst:.2e}"
    )


def _check_trace_identity(perturb: float, seed: int) -> CheckResult:
    """tr(Sigma_X S'[Q]) = tr(Sigma_X Q) / P(lam) for the exact VAR operator."""
    spec = var_benchmark_7d()
    rng = np.random.Generator(np.random.Philox(seed + 1))
    lam = 1.1 + 0.3j
    moments = VarMoments(spec)
    c = moments.c_matrix(lam)
    c_inv = np.linalg.inv(c)
    sx = spec.sigma_x
    worst = 0.0
    for _ in range(5):
        q0 = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal(
            (spec.dim, spec.dim)
        )
        q = q0 @ q0.conj().T
        s_prime = c_inv.conj().T @ var_v_exact(spec, lam, q) @ c_inv
        lhs = float(np.trace(sx @ s_prime).real) * (1.0 + perturb)
        rhs = float(np.trace(sx @ q).real) / var_p_exact(spec, lam)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    passed = worst <= 1e-10
    return CheckResult("var_trace_identity", passed, f"worst rel error {worst:.2e}")


def _check_bruteforce_rho(perturb: float, seed: int) -> CheckResult:
    """1/rho of the engine's dense S matrix must fall inside the data-path bracket."""
    rng = np.random.Generator(np.random.Philox(seed + 2))
    m, n = 150, 4
    a = rng.standard_normal((m, n))
    b = a @ rng.uniform(-0.6, 0.6, size=(n, n)).T + 0.3 * rng.standard_normal((m, n))
    series = SnapshotSeries(a.astype(complex), b.astype(complex), "iid")
    kernel = KernelSpec.iid()
    lam = 1.15 + 0.25j
    _, rho = s_matrix_bruteforce(_s_at(series, kernel, lam), n)
    target = (1.0 / rho) * (1.0 + perturb)
    est = p_hat(lam, series, kernel, PowerIterSettings(rel_tol=1e-6, max_iters=500))
    if not est.converged:
        return CheckResult("bruteforce_rho", False, "power iteration did not converge")
    passed = est.lower * (1 - 1e-9) <= target <= est.upper * (1 + 1e-9)
    return CheckResult(
        "bruteforce_rho",
        passed,
        f"1/rho={target:.9g} vs bracket [{est.lower:.9g}, {est.upper:.9g}]",
    )


def _check_quadrature_selfconv(perturb: float, seed: int) -> CheckResult:
    """Node doubling must leave the trig moments unchanged to 1e-10."""
    dict_spec = DictionarySpec.trig(10)
    coarse = QuadratureMoments(expanding_map_f, dict_spec, 8 * dict_spec.n_obs)
    fine = QuadratureMoments(expanding_map_f, dict_spec, 16 * dict_spec.n_obs)
    diff = max(
        float(np.max(np.abs(coarse.psi_xx * (1.0 + perturb) - fine.psi_xx))),
        float(np.max(np.abs(coarse.psi_xy * (1.0 + perturb) - fine.psi_xy))),
    )
    modes = eigensystem(edmd_matrix(fine.gram())[0])
    lead_err = abs(modes[0].eigenvalue - 1.0)
    passed = diff < 1e-10 and lead_err < 1e-10
    return CheckResult(
        "quadrature_selfconv",
        passed,
        f"moment drift {diff:.2e}; leading eigenvalue error {lead_err:.2e}",
    )


def run_oracle_checks(perturb: float = 0.0, seeds: int = 1) -> list[CheckResult]:
    """Run the full oracle consistency suite.

    ``perturb`` multiplies reference values by (1 + perturb) before the
    comparisons; a non-zero value is a negative control that must fail.
    Each of ``seeds`` replications draws independent random inputs;
    replication k draws them from seed 1000 k.
    """
    if seeds < 1:
        raise ShapeError(f"seeds must be >= 1, got {seeds}")
    checks = (
        _check_var_end_to_end,
        _check_trace_identity,
        _check_bruteforce_rho,
        _check_quadrature_selfconv,
    )
    results = []
    for rep in range(seeds):
        seed = 1000 * rep
        for fn in checks:
            res = fn(perturb, seed)
            if seeds > 1:
                res = CheckResult(f"{res.name}[seed={seed}]", res.passed, res.detail)
            results.append(res)
    return results
