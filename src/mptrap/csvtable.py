"""The one writer of the package's CSV artifacts: a header line and the rows
of a 2-d table, comma-separated."""

import numpy as np


def write_csv(path, header, table, fmt="%.16e", newline="\n"):
    """Write a header line and the rows of a 2-d table, each value as `fmt`,
    comma-separated, each line ended by `newline`: the bytes of
    np.savetxt(path, table, fmt, ",", newline, header, comments=""), made
    by one `%` over the whole table instead of one per row."""
    n_rows, n_cols = np.shape(table)
    line = ",".join([fmt] * n_cols) + newline
    with open(path, "w", newline="") as fh:
        fh.write(header + newline
                 + (line * n_rows) % tuple(np.ravel(table).tolist()))
