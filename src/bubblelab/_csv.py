"""The one CSV table writer behind every output file.

Format: a header row, then one row per record; comma-separated, CRLF line
ends, numbers as ``%.17g`` (round-trip exact) and text columns as ``%s``.
"""

from __future__ import annotations

import numpy as np

_WRITE_BLOCK_ROWS = 4096


def write_csv(path, header, columns) -> None:
    """Write ``header`` and the equal-length ``columns`` to ``path``.

    A column of strings is written as text; every other column as
    ``%.17g``, which gives the bytes of a per-value ``format(float(v),
    '.17g')``.  Rows are formatted a block at a time with one ``%`` over
    the block's values; the fixed block size bounds the text held in
    memory.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%s" if c.dtype.kind in "US" else "%.17g" for c in columns) + "\r\n"
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, _WRITE_BLOCK_ROWS):
            block = [c[start:start + _WRITE_BLOCK_ROWS] for c in columns]
            cells = [None] * (len(block[0]) * len(block))
            for j, c in enumerate(block):
                cells[j::len(block)] = c.tolist()
            fh.write(row * len(block[0]) % tuple(cells))
