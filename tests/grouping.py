"""Reference grouping of a LocalDesign's rows by window, for the tests
that check the Lebesgue kernel's own (vectorised) grouping."""

import numpy as np


def windows(local):
    """Yield (cols, rows) per window of `local`: the window's columns and
    its row indices, windows by first column, rows in order."""
    order = np.argsort(local.cols[:, 0], kind="stable")
    cuts = np.flatnonzero(np.diff(local.cols[order, 0])) + 1
    for rows in np.split(order, cuts):
        yield local.cols[rows[0]], rows
