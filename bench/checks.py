"""Output checks that do not share the timed code path.

The reference bracket below re-derives the characteristic matrix from the
raw snapshots, inverts it densely, applies ``variance_apply_naive`` (which
materializes the per-sample matrices instead of using the rank-one
expansion) and takes the pencil's extreme eigenvalues with scipy's
generalized ``eigh``.  It shares none of ``char_context``,
``inv_congruence``, ``variance_apply`` or ``power_iterate`` with the
workloads, so a wrong bracket from any of them shows up as a bracket that
does not overlap the reference.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

STATUSES = ("converged", "max_iters", "at_eigenvalue", "degenerate_s")

#: Slack for comparing two valid bounds computed in different orders.
OVERLAP_RTOL = 1e-8


def reference_bracket(series, lam: complex, kernel, rel_tol: float, max_iters: int):
    """Cold-start certified bracket on 1/rho(S) at ``lam`` from the naive path."""
    from specguard.variance import variance_apply_naive

    a, b = series.a, series.b
    m, n = a.shape
    c = lam * (a.T @ a.conj()) / m - (a.T @ b.conj()) / m
    c_inv = np.linalg.inv(c)
    q = np.eye(n, dtype=complex) / n
    lower, upper = 0.0, math.inf
    for _ in range(max_iters):
        w = c_inv.conj().T @ q @ c_inv
        s = variance_apply_naive(w, lam, series, kernel).result
        s = 0.5 * (s + s.conj().T)
        sig = scipy.linalg.eigh(q, s, eigvals_only=True)
        lower, upper = max(float(sig[0]), 0.0), float(sig[-1])
        if lower > 0.0 and upper / lower <= 1.0 + rel_tol:
            break
        q = s / float(np.trace(s).real)
    return lower, upper


def overlaps(lo1: float, hi1: float, lo2: float, hi2: float) -> bool:
    """True when two brackets of the same quantity share a point."""
    return max(lo1, lo2) <= min(hi1, hi2) * (1.0 + OVERLAP_RTOL)


def bracket_problems(where: str, lower: float, upper: float, status: str, rel_tol: float) -> list[str]:
    """Invariants every reported bracket must satisfy."""
    if status not in STATUSES:
        return [f"{where}: unknown status {status!r}"]
    if not lower <= upper:
        return [f"{where}: lower {lower!r} > upper {upper!r}"]
    if status == "at_eigenvalue" and (lower != 0.0 or upper != 0.0):
        return [f"{where}: at_eigenvalue bracket [{lower!r}, {upper!r}] is not [0, 0]"]
    if status == "converged" and not (lower > 0.0 and upper / lower <= 1.0 + rel_tol):
        return [f"{where}: converged bracket [{lower!r}, {upper!r}] wider than 1+{rel_tol}"]
    return []


def relative_frobenius(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))
