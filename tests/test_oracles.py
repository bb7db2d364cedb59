import numpy as np

from oracles import central_difference


def test_central_difference_reaches_a_fortran_ordered_input():
    # the private copy must be C-ordered, or ravel() copies it and the
    # perturbations never reach fn
    weights = np.arange(1.0, 7.0).reshape(2, 3)
    x = np.asfortranarray(np.ones((2, 3)))

    def fn(arr):
        return float((weights * arr * arr).sum())

    np.testing.assert_allclose(central_difference(fn, x), 2.0 * weights * x, rtol=1e-8)
