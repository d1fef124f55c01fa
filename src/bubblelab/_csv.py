"""The one CSV table writer behind every output file.

Format: a header row, then one row per record; comma-separated, CRLF line
ends, numbers as ``%.17g`` (round-trip exact) and text columns as ``%s``.

Rows are written a block of ``_WRITE_BLOCK_ROWS`` at a time, which bounds
the text held in memory.  A block of at least ``_KERNEL_MIN_ROWS`` rows
whose columns are all bool, integer, float32 or float64 is formatted at
once by a numpy kernel; any other block (a short one, or one with a text
or object column) by one ``%`` over its values.  Both give the bytes of a
per-value ``'%.17g' % v``.

The kernel casts every value to float64, as ``%`` casts a Python int.  For
1e-280 < |x| < 1e280 it takes k = floor(log10|x|) and forms
y = |x|·10^(16−k) as a double-double: Dekker's TwoProduct on Veltkamp
halves (T. J. Dekker, Numer. Math. 18 (1971) 224–242) against 10^q stored
as a (hi, lo) pair that Python's correctly rounded int arithmetic builds.
k is corrected by ±1 where y falls outside [10^16, 10^17).  The error in y
is about 1e-14, so the 17-digit D = round(y) is the correctly rounded one
unless y's fraction lies within ``_TIE_BAND`` of one half; a D of 10^17
becomes 10^16 with k + 1.  Falling back to the per-value ``%`` are those
values in doubt (the exact ties, which ``%`` rounds half to even, among
them), zeros, non-finite values and magnitudes outside the table.

The text follows ``%g``: scientific notation iff k < −4 or k ≥ 17,
trailing zeros and a bare point stripped, an exponent with its sign and at
least two digits.  Each value fills 48 fixed byte cells (sign, a ``0.000``
prefix, the 17 digits each with a point slot after it, ``e±hhh``, the
separator), written as six uint64 words from lookup tables; unused cells
are NUL, and one ``bytes.translate`` deletes them.  The tables are built on
first use, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

_WRITE_BLOCK_ROWS = 4096
# Smallest block the kernel formats.  On a 2-vCPU host, for two float
# columns, it took 0.19 ms on 256 rows against 0.40 ms by ``%`` and 1.7 ms
# on 4096 rows against 4.3-6.9 ms; the two break even near 100 rows of two
# columns or 50 of four, and 256 leaves a margin.
_KERNEL_MIN_ROWS = 256
# |frac(y) − 1/2| below which the rounding of y is in doubt; the
# double-double error is about 1e-14.
_TIE_BAND = 1e-9
# 10^q is tabulated for q in [_Q_MIN, _Q_MAX]: |x| in (1e-280, 1e280)
# needs q = 16 − k in [−264, 297], after a ±1 correction of k.
_Q_MIN, _Q_MAX = -270, 300
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for doubles

# The 48 byte cells of one value, six uint64 words: the sign, a ``0.000``
# prefix, digit 0 and its point slot; digits 1..16 with their point slots
# (digit i at byte 6 + 2i, its slot after it); ``e±hhh`` and the two
# separator cells.
_CELLS, _SEP = 48, 45
_EXP_SPAN = 400  # exponents tabulated in [-_EXP_SPAN, _EXP_SPAN]


def write_csv(path, header, columns) -> None:
    """Write ``header`` and the equal-length ``columns`` to ``path``.

    A column of strings is written as text; every other column as
    ``%.17g``, which gives the bytes of a per-value ``format(float(v),
    '.17g')``.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%s" if c.dtype.kind in "US" else "%.17g" for c in columns) + "\r\n"
    rows = len(columns[0]) if columns else 0
    numeric = all(c.dtype.kind in "biu" or c.dtype in (np.float32, np.float64)
                  for c in columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, _WRITE_BLOCK_ROWS):
            block = [c[start:start + _WRITE_BLOCK_ROWS] for c in columns]
            if numeric and len(block[0]) >= _KERNEL_MIN_ROWS:
                fh.write(_format_block(block))
                continue
            cells = [None] * (len(block[0]) * len(block))
            for j, c in enumerate(block):
                cells[j::len(block)] = c.tolist()
            fh.write(row * len(block[0]) % tuple(cells))


def _split(a):
    """Veltkamp's split of ``a`` into halves of at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers_of_ten():
    """10^q for q in [_Q_MIN, _Q_MAX] as the correctly rounded hi, the
    correctly rounded remainder lo = 10^q − hi, and hi's Veltkamp halves.

    Python's int-to-float conversion and int true division both round
    correctly; for q = −j, hi = m / 2^e gives lo = (2^e − m·10^j) / (10^j·2^e).
    """
    hi, lo = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            h = float(10**q)
            hi.append(h)
            lo.append(float(10**q - int(h)))
        else:
            d = 10**-q
            h = 1 / d
            m, e = h.as_integer_ratio()
            hi.append(h)
            lo.append((e - m * d) / (d * e))
    hi, lo = np.array(hi), np.array(lo)
    return (hi, lo, *_split(hi))


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables for D's leading digit and its four 4-digit groups.

    ``leads[10 * sign + digit]`` is a uint64 word with ``-`` (if sign) at
    byte 0 and the leading digit at byte 6.  ``words[c * 10000 + g]`` is
    the first ``c`` digits of ``g`` (``%04d``) at the even bytes of a uint64
    word, NUL elsewhere: the odd bytes are point slots.  ``ends[i, g]`` is
    the number of D's digits up to the last nonzero one of ``g`` when ``g``
    is its group ``i`` (0 for g = 0).  ``offsets[i, m]`` is ``c * 10000``
    for group ``i`` when D's first ``m`` digits are written.
    """
    leads = np.zeros((20, 8), np.uint8)
    leads[10:, 0] = ord("-")
    leads[:, 6] = np.tile(np.arange(10), 2) + ord("0")
    g = np.arange(10_000)
    text = g[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    words = np.zeros((5, len(g), 8), np.uint8)
    for c in range(1, 5):
        words[c, :, 0:2 * c:2] = text[:, :c]
    zeros = sum((g % 10**j == 0).astype(int) for j in range(1, 4))
    i = np.arange(4)[:, None]
    ends = np.where(g > 0, 5 + 4 * i - zeros, 0).astype(np.int8)
    offsets = np.clip(np.arange(18) - 1 - 4 * i, 0, 4) * len(g)
    return (leads.view(np.uint64).ravel(), words.view(np.uint64).ravel(), ends,
            offsets)


@functools.cache
def _by_exponent() -> tuple[np.ndarray, ...]:
    """Per decimal exponent k in [-_EXP_SPAN, _EXP_SPAN] (entry k + _EXP_SPAN),
    what ``%g`` writes around D's digits.

    ``prefix``: a uint64 word with ``0.`` and -k - 1 zeros at bytes 1.. for
    -4 <= k < 0, else 0.  ``exponent``: ``e±hh[h]`` at bytes 0.. where k < -4
    or k >= 17, else 0.  ``integer``: the digits written even when zero,
    k + 1 for 0 <= k < 17, else 1.  ``before_point``: the digits before the
    point, 18 (never) for k < 0 in fixed notation; a point is written only
    when more digits than that are written.
    """
    ks = range(-_EXP_SPAN, _EXP_SPAN + 1)
    prefix = np.zeros((len(ks), 8), np.uint8)
    exponent = np.zeros((len(ks), 8), np.uint8)
    integer, before_point = np.ones(len(ks), np.int64), np.ones(len(ks), np.int64)
    for i, k in enumerate(ks):
        if k < -4 or k >= 17:
            text = f"e{k:+03d}".encode()
            exponent[i, :len(text)] = np.frombuffer(text, np.uint8)
        elif k < 0:
            prefix[i, 1:2 - k] = np.frombuffer(b"0.000"[:1 - k], np.uint8)
            before_point[i] = 18
        else:
            integer[i] = before_point[i] = k + 1
    return (prefix.view(np.uint64).ravel(), exponent.view(np.uint64).ravel(), integer,
            before_point)


def _scaled(a, k):
    """a·10^(16−k) as a double-double (hi, lo), |lo| <= ulp(hi)/2."""
    hi, lo, hh, hl = _powers_of_ten()
    q = 16 - k - _Q_MIN
    th, tl, thh, thl = hi[q], lo[q], hh[q], hl[q]
    p = a * th
    ah, al = _split(a)
    s = (((ah * thh - p) + ah * thl + al * thh) + al * thl) + a * tl
    yh = p + s
    return yh, s - (yh - p)


def _format_block(block) -> str:
    """The rows of the equal-length numeric columns ``block`` as ``%.17g``
    CSV text, byte for byte."""
    x = np.empty((len(block[0]), len(block)))
    for j, c in enumerate(block):
        x[:, j] = c
    return _cells(x.ravel(), len(block)).tobytes().translate(None, b"\0").decode("ascii")


def _decimal(x):
    """(D, k, fallback): |x| ≈ D·10^(k−16) with D the correctly rounded
    17-digit integer, and the indices of the values ``%`` must format; D
    is 10^16 there."""
    a = np.abs(x)
    ok = (a > 1e-280) & (a < 1e280)
    a[~ok] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    yh, yl = _scaled(a, k)
    # log10 may put k one off near a power of ten: rescale those values
    low = (yh < 1e16) | ((yh == 1e16) & (yl < 0))
    high = (yh > 1e17) | ((yh == 1e17) & (yl >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += np.where(high[fix], 1, -1)
        yh[fix], yl[fix] = _scaled(a[fix], k[fix])
    whole = np.floor(yl)
    frac = yl - whole
    d = yh.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    k[carry] += 1
    fallback = np.flatnonzero(~ok | (np.abs(frac - 0.5) < _TIE_BAND)
                              | (d < 10**16) | (d >= 10**17))
    d[fallback] = 10**16  # keeps the table lookups in range
    return d, k, fallback


def _cells(x, cols) -> np.ndarray:
    """The (len(x), _CELLS) byte cells of the values ``x``, row by row of
    ``cols`` columns: the text of each value and its separator, NUL-padded."""
    d, k, fallback = _decimal(x)
    # D = lead·10^16 + four 4-digit groups
    lead, d = np.divmod(d, 10**16)
    hi8, lo8 = np.divmod(d, 10**8)
    groups = np.divmod(hi8, 10**4) + np.divmod(lo8, 10**4)
    leads, group_words, ends, offsets = _digit_tables()
    prefix, exponent, integer, before_point = _by_exponent()
    k += _EXP_SPAN
    # digits written: the significant ones, and every integer digit
    kept = integer[k]
    for i, g in enumerate(groups):
        np.maximum(kept, ends[i][g], out=kept)

    cells = np.empty((len(x), _CELLS), np.uint8)
    words = cells.view(np.uint64)
    words[:, 0] = prefix[k] | leads[np.signbit(x) * 10 + lead]
    for i, g in enumerate(groups):
        words[:, 1 + i] = group_words[offsets[i][kept] + g]
    separators = np.frombuffer(b"\0\0\0\0\0,\0\0" * (cols - 1) + b"\0\0\0\0\0\r\n\0",
                               np.uint64)
    words[:, 5] = (exponent[k].reshape(-1, cols) | separators).ravel()
    before_point = before_point[k]
    at = np.flatnonzero(kept > before_point)
    cells[at, 5 + 2 * before_point[at]] = ord(".")
    for i in fallback.tolist():
        text = ("%.17g" % x[i]).encode()
        cells[i, :_SEP] = 0
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cells
