"""The three benchmark workloads.

Each workload has a set-up step (input generation, not timed), a timed
``execute`` step that goes through specguard's public API or CLI, and a
``check`` step that compares the outputs against a path the timed code does
not share.  Workloads only call specguard through module attributes
(``pseudospec.p_hat``, ``cli.main``, ...), so the wrappers that
``tracing.Tracer`` installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from checks import (
    STATUSES,
    bracket_problems,
    overlaps,
    reference_bracket,
    relative_frobenius,
)


def variance_apply_cost(n: int, m: int, lags: list[int]) -> tuple[float, float]:
    """Computed flops and bytes of one ``variance_apply`` call.

    Counts the two complex (N, N) x (N, M) products (8 flops per complex
    multiply-add), the per-lag elementwise passes over the (N, M - l)
    factor slices (about 18 flops per entry), and three (N, N) products.
    Bytes count one read or write of each complex (N, M) operand per pass:
    four for the two products and five per lag.  Temporaries, the final
    eigendecomposition and cache behaviour are ignored; these are model
    counts, not measurements.
    """
    lag_entries = sum(m - lag for lag in lags)
    flops = 16.0 * n * n * m + 18.0 * n * lag_entries + 24.0 * n**3
    nbytes = 16.0 * n * (4.0 * m + 5.0 * lag_entries)
    return flops, nbytes


@dataclass
class Outcome:
    """What one timed execution produced."""

    statuses: list[str]
    lower: list[float]
    upper: list[float]
    iterations: int               # S applications over all points
    artifact: bytes = b""
    extra: dict = field(default_factory=dict)


def _flatten(rows: list[list]) -> list[float]:
    """Row-major cells of an artifact grid; JSON null stands for +inf."""
    return [math.inf if v is None else v for row in rows for v in row]


# ---------------------------------------------------------------------------
# map1d-cluster: the README `cluster` command, in-process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Map1dCluster:
    """41x41 iid `specguard cluster` sweep on a map1d N=10, M=3000 CSV."""

    name: str = "map1d-cluster"
    n_obs: int = 10
    m_samples: int = 3000
    n_grid: int = 41
    extent: float = 1.2
    rel_tol: float = 0.1          # the CLI default for --tol
    max_iters: int = 200          # the CLI default for --max-iters
    data_file: str = "map1d.csv"
    out_file: str = "clusters.json"

    @property
    def points(self) -> int:
        return self.n_grid * self.n_grid

    def argv(self) -> list[str]:
        e, n = repr(self.extent), str(self.n_grid)
        return [
            "cluster", "--data", self.data_file, "--iid", "--level", "1.0",
            "--re-min", "-" + e, "--re-max", e, "--n-re", n,
            "--im-min", "-" + e, "--im-max", e, "--n-im", n,
            "--out", self.out_file,
        ]

    def setup(self, seed: int, workdir: str):
        from specguard.generators import gen_expanding_map
        from specguard.ingest import DictionarySpec, evaluate_dictionary, write_snapshots

        x, y = gen_expanding_map(self.m_samples, mode="iid", seed=seed)
        series = evaluate_dictionary(x, y, DictionarySpec.trig(self.n_obs), sampling_kind="iid")
        write_snapshots(series, os.path.join(workdir, self.data_file), format="csv")
        return {"series": series, "workdir": workdir, "seed": seed}

    def execute(self, inputs) -> Outcome:
        from specguard import cli

        argv = self.argv()
        saved_argv, saved_cwd = sys.argv, os.getcwd()
        # Relative paths and a fixed command line keep the artifact
        # independent of where and how the benchmark itself was started.
        os.chdir(inputs["workdir"])
        sys.argv = ["specguard", *argv]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            with open(self.out_file, "rb") as fh:
                artifact = fh.read()
        finally:
            sys.argv = saved_argv
            os.chdir(saved_cwd)
        doc = json.loads(artifact)
        grid = doc["grid"]
        return Outcome(
            statuses=[s for row in grid["status"] for s in row],
            lower=_flatten(grid["lower"]),
            upper=_flatten(grid["upper"]),
            iterations=sum(sum(row) for row in grid["iterations"]),
            artifact=artifact,
            extra={"exit_code": code, "eigenvalues": doc["eigenvalues"],
                   "shape": (len(grid["im_axis"]), len(grid["re_axis"]))},
        )

    def kernel_shape(self, inputs, outcome) -> tuple[int, int, list[int]]:
        return self.n_obs, self.m_samples, [0]

    def sample_cells(self) -> list[int]:
        """Fixed flat indices re-bracketed by the reference path."""
        n, mid, q = self.n_grid, self.n_grid // 2, self.n_grid // 4
        cells = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1),
                 (mid, 0), (0, mid), (q, 3 * q), (3 * q, q)]
        return [i * n + j for i, j in cells]

    def check(self, inputs, outcomes: list[Outcome]) -> list[str]:
        from specguard.variance import KernelSpec

        problems: list[str] = []
        first = outcomes[0]
        for k, out in enumerate(outcomes):
            if out.extra["exit_code"] != 0:
                problems.append(f"execution {k}: cluster exited {out.extra['exit_code']}")
            if out.extra["shape"] != (self.n_grid, self.n_grid) or len(out.statuses) != self.points:
                problems.append(f"execution {k}: grid shape {out.extra['shape']}")
                continue
            for idx, (s, lo, hi) in enumerate(zip(out.statuses, out.lower, out.upper)):
                problems += bracket_problems(f"execution {k} cell {idx}", lo, hi, s, self.rel_tol)
            if out.artifact != first.artifact:
                problems.append(f"execution {k}: artifact differs from execution 0")
        if problems:
            return problems

        series = inputs["series"]
        a, b = series.a, series.b
        k_ref = np.linalg.solve(a.T @ a.conj(), a.T @ b.conj())
        ref_eigs = np.linalg.eigvals(k_ref)
        got = np.array([complex(e["re"], e["im"]) for e in first.extra["eigenvalues"]])
        if got.shape != ref_eigs.shape:
            problems.append(f"{got.size} eigenvalues reported, expected {ref_eigs.size}")
        else:
            worst = max(float(np.min(np.abs(got - z))) for z in ref_eigs)
            if worst > 1e-8:
                problems.append(f"reported eigenvalues differ from a dense solve by {worst:.3e}")

        axis = np.linspace(-self.extent, self.extent, self.n_grid)
        for idx in self.sample_cells():
            if first.statuses[idx] != "converged":
                continue
            lam = complex(axis[idx % self.n_grid], axis[idx // self.n_grid])
            lo, hi = reference_bracket(series, lam, KernelSpec.iid(), self.rel_tol, self.max_iters)
            if not overlaps(first.lower[idx], first.upper[idx], lo, hi):
                problems.append(
                    f"cell {idx} (lambda={lam}): bracket [{first.lower[idx]!r}, "
                    f"{first.upper[idx]!r}] misses reference [{lo!r}, {hi!r}]"
                )
        return problems


# ---------------------------------------------------------------------------
# phat-large-m: library p_hat at fixed user points, M = 100,000
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhatLargeM:
    """`p_hat` at four off-spectrum points on a map1d iid series, M=1e5."""

    name: str = "phat-large-m"
    n_obs: int = 10
    m_samples: int = 100_000
    lambdas: tuple[complex, ...] = (1.3 + 0j, -1.3 + 0j, 1.3j, -0.9 - 0.9j)
    rel_tol: float = 0.01
    max_iters: int = 500

    @property
    def points(self) -> int:
        return len(self.lambdas)

    def setup(self, seed: int, workdir: str):
        from specguard.generators import gen_expanding_map
        from specguard.ingest import DictionarySpec, evaluate_dictionary

        x, y = gen_expanding_map(self.m_samples, mode="iid", seed=seed)
        series = evaluate_dictionary(x, y, DictionarySpec.trig(self.n_obs), sampling_kind="iid")
        return {"series": series, "seed": seed}

    def execute(self, inputs) -> Outcome:
        from specguard import pseudospec
        from specguard.variance import KernelSpec

        settings = pseudospec.PowerIterSettings(rel_tol=self.rel_tol, max_iters=self.max_iters)
        kernel = KernelSpec.iid()
        ests = [pseudospec.p_hat(lam, inputs["series"], kernel, settings) for lam in self.lambdas]
        return Outcome(
            statuses=[e.status for e in ests],
            lower=[e.lower for e in ests],
            upper=[e.upper for e in ests],
            iterations=sum(e.iterations for e in ests),
        )

    def kernel_shape(self, inputs, outcome) -> tuple[int, int, list[int]]:
        return self.n_obs, self.m_samples, [0]

    def check(self, inputs, outcomes: list[Outcome]) -> list[str]:
        from specguard.variance import KernelSpec

        problems: list[str] = []
        first = outcomes[0]
        for k, out in enumerate(outcomes):
            for lam, s, lo, hi in zip(self.lambdas, out.statuses, out.lower, out.upper):
                problems += bracket_problems(f"execution {k} lambda={lam}", lo, hi, s, self.rel_tol)
            if (out.lower, out.upper, out.statuses) != (first.lower, first.upper, first.statuses):
                problems.append(f"execution {k}: brackets differ from execution 0")
        if problems:
            return problems
        # One naive reference per invocation, computed after the timed section.
        for lam, lo, hi in zip(self.lambdas, first.lower, first.upper):
            r_lo, r_hi = reference_bracket(
                inputs["series"], lam, KernelSpec.iid(), self.rel_tol, self.max_iters
            )
            if not overlaps(lo, hi, r_lo, r_hi):
                problems.append(
                    f"lambda={lam}: bracket [{lo!r}, {hi!r}] misses reference [{r_lo!r}, {r_hi!r}]"
                )
        return problems


# ---------------------------------------------------------------------------
# lorenz-windowed: the docs/lorenz63_pipeline.md chain from the library
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LorenzWindowed:
    """Lorenz-63, 151 delay monomials, M=2000, windowed 3x3 sweep near 1."""

    name: str = "lorenz-windowed"
    m_samples: int = 2000
    max_degree: int = 3
    n_delays: int = 10
    l_window: int = 20
    top_k: int = 9
    rel_tol: float = 0.5
    max_iters: int = 60
    floor: float = 1e-12
    n_grid: int = 3
    naive_samples: int = 80      # subsample for the fast-vs-naive identity
    naive_rtol: float = 1e-10

    @property
    def points(self) -> int:
        return self.n_grid * self.n_grid

    def setup(self, seed: int, workdir: str):
        from specguard.generators import Lorenz63Spec, gen_lorenz63
        from specguard.ingest import DictionarySpec, delay_embed

        spec = Lorenz63Spec(seed=seed)
        dict_spec = DictionarySpec.monomial_delay(self.max_degree, self.n_delays, 3)
        raw = gen_lorenz63(spec, self.m_samples + dict_spec.n_delays)
        series = delay_embed(raw, dict_spec, step=1, dt=spec.dt_sample)
        return {"series": series, "seed": seed}

    def grid(self):
        from specguard.pseudospec import GridSpec

        return GridSpec(0.9, 1.1, self.n_grid, -0.1, 0.1, self.n_grid)

    def execute(self, inputs) -> Outcome:
        from specguard import charmatrix, pseudospec, variance

        series = inputs["series"]
        gram = charmatrix.gram_matrices(series)
        k_hat, _ = charmatrix.edmd_matrix(gram, floor=self.floor)
        modes = charmatrix.eigensystem(k_hat)
        mus, _ = variance.default_mu_list([m.eigenvalue for m in modes], self.top_k)
        kernel = variance.KernelSpec.windowed(self.l_window, mus)
        settings = pseudospec.PowerIterSettings(rel_tol=self.rel_tol, max_iters=self.max_iters)
        result = pseudospec.sweep(self.grid(), series, kernel, settings, floor=self.floor)
        return Outcome(
            statuses=[str(s) for s in result.status.ravel()],
            lower=[float(v) for v in result.lower.ravel()],
            upper=[float(v) for v in result.upper.ravel()],
            iterations=int(result.iterations.sum()),
            extra={"kernel": kernel},
        )

    def kernel_shape(self, inputs, outcome) -> tuple[int, int, list[int]]:
        series = inputs["series"]
        kt = outcome.extra["kernel"].tilde_weights()
        return series.N, series.M, [lag for lag, w in enumerate(kt) if w != 0.0]

    def check(self, inputs, outcomes: list[Outcome]) -> list[str]:
        from specguard.ingest import SnapshotSeries
        from specguard.variance import variance_apply, variance_apply_naive

        problems: list[str] = []
        first = outcomes[0]
        centre = self.points // 2
        for k, out in enumerate(outcomes):
            for idx, (s, lo, hi) in enumerate(zip(out.statuses, out.lower, out.upper)):
                problems += bracket_problems(f"execution {k} cell {idx}", lo, hi, s, self.rel_tol)
            if out.statuses[centre] != "at_eigenvalue" or (out.lower[centre], out.upper[centre]) != (0.0, 0.0):
                problems.append(
                    f"execution {k}: centre cell is {out.statuses[centre]} "
                    f"[{out.lower[centre]!r}, {out.upper[centre]!r}], expected at_eigenvalue [0, 0]"
                )
            if (out.lower, out.upper, out.statuses) != (first.lower, first.upper, first.statuses):
                problems.append(f"execution {k}: brackets differ from execution 0")

        # The naive path at full size needs ~1.5 GB, so compare on a prefix
        # of the series with the same windowed kernel.
        series = inputs["series"]
        sub = SnapshotSeries(
            series.a[: self.naive_samples], series.b[: self.naive_samples], "trajectory"
        )
        kernel = first.extra["kernel"]
        rng = np.random.default_rng(inputs["seed"])
        z = rng.standard_normal((series.N, series.N)) + 1j * rng.standard_normal((series.N, series.N))
        q = z @ z.conj().T
        q /= np.trace(q).real
        lam = complex(0.9, 0.1)
        fast = variance_apply(q, lam, sub, kernel).result
        naive = variance_apply_naive(q, lam, sub, kernel).result
        err = relative_frobenius(fast, naive)
        if not err <= self.naive_rtol:
            problems.append(f"fast vs naive variance_apply differ by {err:.3e} (limit {self.naive_rtol})")
        return problems


WORKLOADS = {w.name: w for w in (Map1dCluster(), PhatLargeM(), LorenzWindowed())}

__all__ = ["STATUSES", "WORKLOADS", "Outcome", "variance_apply_cost",
           "Map1dCluster", "PhatLargeM", "LorenzWindowed"]
