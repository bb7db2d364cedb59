import numpy as np
import pytest

from trustrec.scatter import add_rows


class TestAddRows:
    def test_matches_add_at_with_repeated_rows(self):
        rng = np.random.default_rng(5)
        target = rng.normal(size=(7, 4))
        rows = rng.integers(0, 7, size=200)  # every row repeated many times
        values = rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-8, 8, size=(200, 1))
        expected = target.copy()
        np.add.at(expected, rows, values)
        add_rows(target, rows, values)
        np.testing.assert_array_equal(target, expected)

    def test_accepts_transposed_values(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(3, 50)).T  # a non-contiguous (50, 3) view
        rows = rng.integers(0, 5, size=50)
        expected = np.zeros((5, 3))
        np.add.at(expected, rows, values)
        target = np.zeros((5, 3))
        add_rows(target, rows, values)
        np.testing.assert_array_equal(target, expected)

    def test_rejects_a_non_contiguous_target(self):
        with pytest.raises(ValueError):
            add_rows(np.zeros((3, 4)).T, np.array([0]), np.ones((1, 3)))
