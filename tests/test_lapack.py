"""The stacked LAPACK entry points of specguard._blas, pinned to np.linalg.

They call numpy's private linalg gufuncs, so these tests are what fails
first if a numpy release changes them: results must equal np.linalg's to
the byte, and a matrix whose call fails must come back all NaN and
flagged while its neighbours keep their values.
"""

from __future__ import annotations

import numpy as np
import pytest

from specguard import _blas

DTYPES = [np.float64, np.complex128]


def _random(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    if dtype is np.complex128:
        a = a + 1j * rng.normal(size=shape)
    return a


def _hermitian_pd(b, n, dtype, seed):
    a = _random((b, n, n), dtype, seed)
    return a @ a.conj().swapaxes(-1, -2) + n * np.eye(n)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "complex128"])
@pytest.mark.parametrize("b", [1, 21])
@pytest.mark.parametrize("n", [1, 2, 10])
def test_each_entry_point_is_np_linalg_to_the_byte(dtype, b, n):
    spd = _hermitian_pd(b, n, dtype, seed=10 * n + b)
    general = _random((b, n, n), dtype, seed=10 * n + b + 1)
    for name, x in (("cholesky", spd), ("inv", general), ("eigvalsh", spd)):
        got, failed = getattr(_blas, name)(x)
        want = getattr(np.linalg, name)(x)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert failed.shape == (b,) and not failed.any(), name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "complex128"])
def test_a_failed_matrix_is_nan_and_flagged_and_its_neighbours_are_not(dtype):
    n = 4
    spd = _hermitian_pd(3, n, dtype, seed=5)
    indefinite = spd.copy()
    indefinite[1] = np.diag([2.0, -1.0, 1.0, 1.0])
    singular = _random((3, n, n), dtype, seed=6)
    singular[1, :, 2] = 0.0
    holds_nan = spd.copy()
    holds_nan[1, 3, 1] = np.nan
    cases = [  # (entry point, stack, whether LAPACK fails on the middle matrix)
        ("cholesky", indefinite, True),
        ("inv", singular, True),
        ("cholesky", holds_nan, False),    # OpenBLAS factors past a NaN: the flag catches it
        ("eigvalsh", holds_nan, False),
    ]
    for name, x, fails in cases:
        with np.errstate(invalid="ignore"):    # a failed call raises the invalid flag only
            got, failed = getattr(_blas, name)(x)
        assert failed.tolist() == [False, True, False], name
        assert np.isnan(got[1]).all() or not fails, name
        want = getattr(np.linalg, name)(x[[0, 2]])
        assert got[[0, 2]].tobytes() == want.tobytes(), name
