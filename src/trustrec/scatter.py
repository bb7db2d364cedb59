"""The one scatter-add primitive the training loops share."""

import numpy as np


def add_rows(target, rows, values):
    """``target[rows[j]] += values[j]`` for every j, repeats accumulating.

    Equivalent to ``np.add.at(target, rows, values)`` on a C-contiguous 2-D
    ``target``, bit for bit: each element receives its additions in the
    order of ``rows``.  It runs as one 1-D ``np.add.at`` over flat indices,
    which numpy executes much faster than the row-indexed form.
    """
    if not target.flags.c_contiguous:
        raise ValueError("add_rows needs a C-contiguous target")
    d = target.shape[1]
    flat = (np.asarray(rows, dtype=np.int64)[:, None] * d + np.arange(d)).ravel()
    np.add.at(target.reshape(-1), flat, np.asarray(values).reshape(-1))
