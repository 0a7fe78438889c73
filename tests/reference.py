"""Hand-rolled reference implementations and helpers shared by the test modules.

Everything here is deliberately naive and independent of the library's
LAPACK-backed code paths.
"""

import json

import numpy as np


def gauss_jordan_inverse(a):
    """Explicit inverse by Gauss-Jordan elimination with partial pivoting."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    aug = np.hstack([a.copy(), np.eye(n)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot_row, col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def doctor_run_csv(run_dir, column, row, value):
    """Overwrite one cell of the first run CSV with at least row + 1 rows."""
    for entry in json.loads((run_dir / "summary.json").read_text())["runs"]:
        path = run_dir / entry["csv"]
        lines = path.read_text().splitlines()
        if len(lines) > row + 1:
            header = lines[0].split(",")
            fields = lines[row + 1].split(",")
            fields[header.index(column)] = value
            lines[row + 1] = ",".join(fields)
            path.write_text("\n".join(lines) + "\n")
            return path
    raise AssertionError("no run CSV is long enough")
