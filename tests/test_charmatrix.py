"""Gram assembly, the EDMD solve, and factorized characteristic matrices."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from specguard.charmatrix import (
    GramPair,
    char_contexts,
    edmd_matrix,
    eigensystem,
    gram_matrices,
    rcond_floor,
)
from specguard.errors import (
    IllConditionedGramError,
    InsufficientDataError,
    NumericError,
    ShapeError,
)
from specguard.ingest import SnapshotSeries
from specguard.pseudospec import _congruence
from specguard.variance import _ct


def _series(m=60, n=4, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    b = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    return SnapshotSeries(a, b, "iid")


class TestGram:
    def test_matches_naive_sums(self):
        s = _series(m=15, n=3, seed=1)
        g = gram_matrices(s)
        xx = sum(np.outer(s.a[m], s.a[m].conj()) for m in range(s.M)) / s.M
        xy = sum(np.outer(s.a[m], s.b[m].conj()) for m in range(s.M)) / s.M
        assert_allclose(g.psi_xx, xx, atol=1e-13)
        assert_allclose(g.psi_xy, xy, atol=1e-13)

    def test_a_real_series_takes_real_products(self):
        rng = np.random.default_rng(3)
        s = SnapshotSeries(rng.normal(size=(500, 6)), rng.normal(size=(500, 6)), "iid")
        assert s.a.dtype == float
        g = gram_matrices(s)
        a, b = s.a.astype(complex), s.b.astype(complex)
        for got, want in ((g.psi_xx, a.T @ a.conj() / s.M), (g.psi_xy, a.T @ b.conj() / s.M)):
            assert got.dtype == float
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_psi_xx_hermitian(self):
        g = gram_matrices(_series(seed=2))
        assert_allclose(g.psi_xx, g.psi_xx.conj().T, rtol=0, atol=0)

    def test_needs_two_pairs(self):
        one = SnapshotSeries(np.ones((1, 2)), np.ones((1, 2)), "iid")
        with pytest.raises(InsufficientDataError):
            gram_matrices(one)

    def test_grampair_validates_shapes(self):
        with pytest.raises(ShapeError):
            GramPair(np.eye(3), np.eye(2))


class TestEdmdMatrix:
    def test_solves_normal_equations(self):
        g = gram_matrices(_series(m=80, n=5, seed=3))
        k_hat, rc = edmd_matrix(g)
        assert_allclose(g.psi_xx @ k_hat, g.psi_xy, atol=1e-12)
        assert 0 < rc <= 1

    def test_rank_deficient_raises(self):
        # M < N makes the empirical Gram singular
        s = _series(m=3, n=6, seed=4)
        with pytest.raises(IllConditionedGramError) as err:
            edmd_matrix(gram_matrices(s))
        assert err.value.rcond < rcond_floor(6)

    def test_rcond_ignores_observable_scale(self):
        """Rescaling an observable by 1e6 must not change rcond.

        Conditioning is measured after symmetric diagonal equilibration, so
        only intrinsic near-dependence between observables counts.
        """
        s = _series(m=100, n=4, seed=5)
        scale = np.array([1.0, 1e6, 1e-3, 1.0])
        scaled = SnapshotSeries(s.a * scale, s.b * scale, "iid")
        _, rc_plain = edmd_matrix(gram_matrices(s))
        _, rc_scaled = edmd_matrix(gram_matrices(scaled))
        assert_allclose(rc_scaled, rc_plain, rtol=1e-6)

    def test_eigenvalues_invariant_under_rescaling(self):
        s = _series(m=100, n=4, seed=6)
        scale = np.array([1.0, 3e4, 2e-2, 7.0])
        scaled = SnapshotSeries(s.a * scale, s.b * scale, "iid")
        k1, _ = edmd_matrix(gram_matrices(s))
        k2, _ = edmd_matrix(gram_matrices(scaled))
        e1 = np.sort_complex(np.linalg.eigvals(k1))
        e2 = np.sort_complex(np.linalg.eigvals(k2))
        assert_allclose(e1, e2, atol=1e-10)

    def test_floor_override(self):
        # two nearly parallel observables: intrinsically ill-conditioned
        rng = np.random.default_rng(7)
        base = rng.normal(size=120)
        a = np.column_stack([base, base + 1e-6 * rng.normal(size=120)])
        s = SnapshotSeries(a, np.roll(a, 1, axis=0), "iid")
        g = gram_matrices(s)
        with pytest.raises(IllConditionedGramError):
            edmd_matrix(g)
        k_hat, rc = edmd_matrix(g, floor=1e-15)
        assert rc < rcond_floor(2)
        assert np.all(np.isfinite(k_hat))

    def test_exactly_singular_raises_under_any_floor(self):
        g = GramPair(np.ones((2, 2)), np.eye(2))
        with pytest.raises(IllConditionedGramError) as err:
            edmd_matrix(g, floor=0.0)
        assert err.value.rcond == 0.0


def _one_point(g: GramPair, lam, floor=None):
    """``(lam, c_hat, inv, rcond, singular)`` of a one-point :func:`char_contexts` call."""
    (lam,), (c_hat,), (inv,), (rcond,), (singular,) = char_contexts(g, [lam], floor)
    return lam, c_hat, inv, float(rcond), bool(singular)


class TestCharContext:
    """One point of :func:`char_contexts`: its inverse, rcond and singular flag."""

    def test_solve_matches_dense(self):
        g = gram_matrices(_series(m=70, n=5, seed=8))
        lam = 1.2 + 0.4j
        _, c_hat, inv, _, singular = _one_point(g, lam)
        assert not singular
        c = lam * g.psi_xx - g.psi_xy
        assert_allclose(c_hat, c, rtol=0, atol=0)
        rng = np.random.default_rng(9)
        b1 = rng.normal(size=5) + 1j * rng.normal(size=5)
        b2 = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        assert_allclose(inv @ b1, np.linalg.solve(c, b1), atol=1e-11)
        assert_allclose(inv @ b2, np.linalg.solve(c, b2), atol=1e-11)

    def test_inv_congruence(self):
        """The engine's C^{-*} Q C^{-1}, built from the stored inverse, against dense inverses."""
        g = gram_matrices(_series(m=70, n=4, seed=10))
        _, c_hat, inv, _, _ = _one_point(g, 0.9 - 0.2j)
        rng = np.random.default_rng(11)
        q = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q = q @ q.conj().T
        c_inv = np.linalg.inv(c_hat)
        expected = c_inv.conj().T @ q @ c_inv
        got = _congruence(_ct(inv), inv, q)
        assert_allclose(got, expected, atol=1e-11)

    @pytest.mark.parametrize("seed", [30, 31, 32, 33])
    def test_congruence_near_an_eigenvalue(self, seed):
        """The stored-inverse congruence keeps its accuracy as C(lam) nears singular.

        Walk lam toward an EDMD eigenvalue until rcond falls below a drawn
        target in [1e-7, 1e-3], then compare with C^{-*} Q C^{-1} formed by
        two backward-stable solves.
        """
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 11))
        g = gram_matrices(_series(m=20 * n, n=n, seed=seed))
        eig = eigensystem(edmd_matrix(g)[0])[int(rng.integers(n))].eigenvalue
        target = 10.0 ** -rng.uniform(3, 7)
        step = 0.1 * np.exp(2j * np.pi * rng.uniform())
        for _ in range(60):
            _, c_hat, inv, rcond, _ = _one_point(g, eig + step)
            if rcond <= target:
                break
            step /= 2
        assert 1e-8 <= rcond <= 1e-3
        q = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q = q @ q.conj().T
        c_h = c_hat.conj().T
        left = np.linalg.solve(c_h, q)                            # C^{-*} Q
        expected = np.linalg.solve(c_h, left.conj().T).conj().T   # C^{-*} Q C^{-1}
        got = _congruence(_ct(inv), inv, q)
        err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
        assert err <= 1e-13 / rcond

    def test_residual_backward_stable(self):
        """Solves with the stored inverse must reproduce C to near round-off."""
        g = gram_matrices(_series(m=90, n=6, seed=12))
        _, c_hat, inv, _, _ = _one_point(g, 1.4 + 0.1j)
        rng = np.random.default_rng(13)
        b = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        x = inv @ b
        resid = np.linalg.norm(c_hat @ x - b)
        bound = 1e-12 * np.linalg.norm(c_hat) * np.linalg.norm(x)
        assert resid <= bound

    def test_singular_at_every_eigenvalue(self):
        """C(lam) is singular exactly on the EDMD spectrum (N <= 12)."""
        for n in (2, 5, 12):
            s = _series(m=30 * n, n=n, seed=n)
            g = gram_matrices(s)
            k_hat, _ = edmd_matrix(g)
            for mode in eigensystem(k_hat):
                _, _, _, rcond, singular = _one_point(g, mode.eigenvalue)
                assert singular, (n, mode.eigenvalue, rcond)

    def test_not_singular_off_spectrum(self):
        g = gram_matrices(_series(m=100, n=4, seed=14))
        k_hat, _ = edmd_matrix(g)
        eigs = np.linalg.eigvals(k_hat)
        lam = 2.0 + 2.0j
        assert np.min(np.abs(eigs - lam)) > 0.5
        assert not _one_point(g, lam)[4]

    def test_large_lambda_well_conditioned(self):
        g = gram_matrices(_series(m=100, n=5, seed=15))
        rc_far = _one_point(g, 1e6)[3]
        assert rc_far > 1e-3

    def test_scalar_rcond_is_binary(self):
        a = np.ones((4, 1)) * 2.0
        s = SnapshotSeries(a, a, "iid")
        g = gram_matrices(s)
        # lam = 1 makes C = psi_xx - psi_xy = 0 exactly
        assert _one_point(g, 1.0)[3:] == (0.0, True)
        assert _one_point(g, 1.0, floor=0.0)[4]
        assert _one_point(g, 1.5)[3:] == (1.0, False)

    def test_floor_override_controls_flag(self):
        g = gram_matrices(_series(m=100, n=3, seed=16))
        _, _, _, rcond, singular = _one_point(g, 1.1 + 0.2j)
        assert not singular
        assert _one_point(g, 1.1 + 0.2j, floor=2 * rcond)[4]


def _complex(g: GramPair) -> GramPair:
    """``g`` as complex128: its one-point calls are complex batches, real points included."""
    return GramPair(g.psi_xx.astype(complex), g.psi_xy.astype(complex))


def _same_point(stacks, k: int, want: tuple) -> None:
    """Point k of the stacks of char_contexts equals a one-point call's, bit for bit."""
    lams, c_hat, inv, rcond, singular = stacks
    lam, want_c_hat, want_inv, want_rcond, want_singular = want
    assert lams[k] == lam
    assert (rcond[k], singular[k]) == (want_rcond, want_singular)
    for got, ref in ((c_hat[k], want_c_hat), (inv[k], want_inv)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


class TestCharContexts:
    def test_a_column_across_an_eigenvalue_matches_each_point(self):
        g = gram_matrices(_series(m=80, n=5, seed=20))
        k_hat, _ = edmd_matrix(g)
        eig = eigensystem(k_hat)[1].eigenvalue
        lams = [complex(eig.real, y) for y in np.linspace(-1.5, 1.5, 12)]
        lams.insert(5, eig)
        stacks = char_contexts(g, lams)
        _, _, inv, rcond, singular = stacks
        assert [len(stack) for stack in stacks] == [len(lams)] * 5
        assert np.flatnonzero(singular).tolist() == [5]
        for k, lam in enumerate(lams):
            _same_point(stacks, k, _one_point(g, lam))
            # The per-point reference: numpy's inverse and exact 1-norm condition
            # number of C(lam) as given.
            c = lam * g.psi_xx - g.psi_xy
            assert inv[k].tobytes() == np.linalg.inv(c).tobytes()
            assert rcond[k] == 1.0 / np.linalg.cond(c, 1)

    def test_floor_applies_to_every_point(self):
        g = gram_matrices(_series(m=100, n=3, seed=16))
        lams = [1.1 + 0.2j, 1.3 - 0.4j]
        rcs = char_contexts(g, lams)[3]
        assert rcs[0] != rcs[1]
        flags = char_contexts(g, lams, floor=np.mean(rcs))[4]
        assert flags.tolist() == [rc == min(rcs) for rc in rcs]

    @pytest.mark.parametrize("floor", [np.nan, np.inf, -np.inf])
    def test_non_finite_floor_rejected(self, floor):
        # A NaN floor would otherwise flag no point and no Gram as singular.
        g = gram_matrices(_series(m=100, n=3, seed=16))
        with pytest.raises(ShapeError, match="rcond floor must be finite"):
            char_contexts(g, [1.1 + 0.2j], floor=floor)
        with pytest.raises(ShapeError, match="rcond floor must be finite"):
            edmd_matrix(g, floor=floor)

    def test_scalar_case(self):
        # A real point in a complex batch is complex, as in a complex one-point call.
        a = np.ones((4, 1)) * 2.0
        g = gram_matrices(SnapshotSeries(a, a, "iid"))
        lams = [0.5, 1.0, 1.5 + 1j]
        stacks = char_contexts(g, lams)
        assert stacks[3].tolist() == [1.0, 0.0, 1.0]
        for k, lam in enumerate(lams):
            _same_point(stacks, k, _one_point(_complex(g), lam))

    def test_all_zero_gram(self):
        g = GramPair(np.zeros((3, 3)), np.zeros((3, 3)))
        stacks = char_contexts(g, [0.5, 2j])
        assert list(zip(stacks[3].tolist(), stacks[4].tolist())) == [(0.0, True), (0.0, True)]
        for k, lam in enumerate([0.5, 2j]):
            _same_point(stacks, k, _one_point(_complex(g), lam))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [float, complex], ids=["float", "complex"])
    def test_an_exactly_singular_point_leaves_its_neighbours_alone(self, dtype):
        # C(0.5) = diag(0, -1.5) is exactly singular: its inverse is NaN and
        # its rcond 0, the points beside it keep numpy's inverse, and no
        # warning escapes.
        g = GramPair(np.eye(2, dtype=dtype), np.diag([0.5, 2.0]).astype(dtype))
        lams = [0.3, 0.5, 1.0]
        _, c_hat, inv, rcond, singular = char_contexts(g, lams)
        assert singular.tolist() == [False, True, False]
        assert np.isnan(inv[1]).all() and rcond[1] == 0.0
        for k in (0, 2):
            assert inv[k].tobytes() == np.linalg.inv(c_hat[k]).tobytes()
            assert rcond[k] == 1.0 / np.linalg.cond(c_hat[k], 1)

    def test_a_real_batch_is_real(self):
        # A real Gram pair at real points gives float64 stacks, each point a
        # real one-point call's; one complex point, or a complex Gram pair,
        # makes the whole batch complex.
        rng = np.random.default_rng(21)
        g = gram_matrices(SnapshotSeries(rng.normal(size=(80, 4)), rng.normal(size=(80, 4)), "iid"))
        lams = [0.3, -1.1, 2.0]
        stacks = char_contexts(g, lams)
        assert [x.dtype for x in stacks[:3]] == [np.dtype(float)] * 3
        for k, lam in enumerate(lams):
            _same_point(stacks, k, _one_point(g, lam))
            inv = _one_point(_complex(g), lam)[2]
            assert np.linalg.norm(stacks[2][k] - inv) <= 1e-12 * np.linalg.norm(inv)
        for mixed, gram in (([*lams, 1j], g), (lams, _complex(g))):
            assert [x.dtype for x in char_contexts(gram, mixed)[:3]] == [np.dtype(complex)] * 3

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf), -np.inf])
    def test_non_finite_point_rejected(self, bad):
        g = gram_matrices(_series())
        with pytest.raises(ShapeError, match="not finite"):
            char_contexts(g, [1.0, bad])
        with pytest.raises(ShapeError, match="not finite"):
            char_contexts(g, [bad])

    def test_overflowing_matrix_raises(self):
        with pytest.raises(NumericError, match="non-finite"):
            char_contexts(gram_matrices(_series()), [1.7e308 + 1.7e308j])


class TestEigensystem:
    def test_sorted_and_normalized(self):
        g = gram_matrices(_series(m=120, n=6, seed=17))
        k_hat, _ = edmd_matrix(g)
        modes = eigensystem(k_hat)
        mods = [abs(m.eigenvalue) for m in modes]
        assert mods == sorted(mods, reverse=True)
        for m in modes:
            assert_allclose(np.linalg.norm(m.right_vec), 1.0, atol=1e-12)
            assert m.residual < 1e-10

    def test_a_real_series_gives_exactly_real_eigenvalues_and_exact_pairs(self):
        rng = np.random.default_rng(18)
        a = rng.normal(size=(400, 6))
        s = SnapshotSeries(a, a @ rng.normal(size=(6, 6)) + 0.1 * rng.normal(size=(400, 6)), "iid")
        k_hat, _ = edmd_matrix(gram_matrices(s))
        assert k_hat.dtype == float
        vals = [m.eigenvalue for m in eigensystem(k_hat)]
        real = [z for z in vals if z.imag == 0.0]
        pairs = [z for z in vals if z.imag != 0.0]
        assert real and pairs
        # A pair is listed together, its member with positive imaginary part first.
        for first, second in zip(pairs[::2], pairs[1::2]):
            assert first.imag > 0 and second == first.conjugate()
            assert vals.index(second) == vals.index(first) + 1
        assert edmd_matrix(gram_matrices(_series(seed=19)))[0].dtype == complex

    def test_residual_definition(self):
        k = np.diag([2.0, 1.0]).astype(complex)
        k[0, 1] = 0.3
        modes = eigensystem(k)
        for m in modes:
            direct = np.linalg.norm(k @ m.right_vec - m.eigenvalue * m.right_vec)
            assert_allclose(m.residual, direct, atol=1e-15)
