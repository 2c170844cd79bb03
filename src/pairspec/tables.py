"""The one writer of each output format: `write_csv` for every CSV table and
`write_json` for every JSON file. A CSV cell is the bytes of Python's `fmt %
cell`; numpy builds the two kinds that fill the large tables as whole 64-bit
words (`_cell_slots`), and Python's `%` writes every other cell."""

from __future__ import annotations

import json

import numpy as np

CSV_BLOCK_CELLS = 1 << 13  # cells per formatted block: its temporaries stay under 2 MB
# The four ASCII digits of each of 0 .. 9999, one little-endian uint32 each.
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    -1).view("<u4").ravel()
_POW10 = 10.0 ** np.arange(-99, 108)  # _POW10[99 + k] = 10**k
# The word cells' tables are built as bytes: numpy's ufuncs would page in about
# 0.25 MB of numpy's code at import, which every run would carry.
# A %d cell of 0 .. 9999 is one uint64 word: its four digits, the end and NULs.
# _WIDTH4 holds each of 0 .. 9999's width - 1, and _INT_WORD_MASKS, by that, the
# bytes of the word the width keeps: its last 1 .. 4 digits and the end.
_WIDTH4 = np.frombuffer(bytes(10) + b"\1" * 90 + b"\2" * 900 + b"\3" * 9000, np.uint8)
_INT_WORD_MASKS = np.frombuffer(bytes(255 if 3 - w <= i <= 4 else 0
                                      for w in range(4) for i in range(8)), "<u8")
# The trailing zeros of each of 0 .. 9999 written with four digits (4 for 0).
_TZ4 = bytearray(10000)
for _zeros in range(1, 5):
    _TZ4[::10 ** _zeros] = bytes([_zeros]) * (10000 // 10 ** _zeros)
_TZ4 = np.frombuffer(_TZ4, np.uint8)
# A word cell's 16 slots, "-1.23456789e+12" and the end, are two little-endian
# uint64 words. "e+12" is bytes 3 .. 6 of the second word, by exponent -99 .. 99:
_EXP_WORDS = np.frombuffer(b"".join(b"\0\0\0e%+03d\0" % k for k in range(-99, 100)), "<u8")
# The words' byte masks by the trailing zeros z of the 8 fraction digits (slots
# 3 .. 10), which they drop, with the point (slot 2) when all 8 are zeros.
_WORD_MASKS = np.frombuffer(bytes(0 if 10 - z < i < 11 or i == 2 and z == 8 else 255
                                  for z in range(9) for i in range(16)), "<u8").reshape(9, 2)


def write_csv(path, table, comments=(), header=None, fmt="%.9g"):
    """Write a CSV table the one way every table is: a `# ` line per comment, the
    header if any, then the rows in blocks of CSV_BLOCK_CELLS cells, each cell the
    bytes of Python's `fmt % cell` (see `_cell_slots`). `table` is a 2-d array in
    one fmt, or for a tuple of fmts a sequence of 1-d columns."""
    groups = ([(np.asarray(table), fmt)] if isinstance(fmt, str) else
              [(np.asarray(column)[:, None], f) for column, f in zip(table, fmt, strict=True)])
    with open(path, "wb") as fh:
        head = [f"# {comment}\n" for comment in comments] + [f"{header}\n"] * (header is not None)
        fh.write("".join(head).encode())
        fh.writelines(_blocks(groups))


def csv_cells(values, fmt="%.9g"):
    """The cells of a 1-d array joined by commas, as write_csv writes a row."""
    return b"".join(_blocks([(np.asarray(values)[None, :], fmt)])).decode()[:-1]


def write_json(path, payload):
    """Write a JSON file the one way every output does: keys sorted,
    two-space indent, a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _blocks(groups):
    """The bytes of the rows of (2-d values, fmt) groups of columns, in blocks of
    at most CSV_BLOCK_CELLS cells: whole rows, or for a row of one group longer
    than that, chunks of its cells, of which only the last ends the line. Rows
    of no cells are empty lines, and no groups are no rows."""
    width = sum(values.shape[1] for values, _ in groups)
    if width == 0:
        yield b"\n" * (len(groups[0][0]) if groups else 0)
        return
    if width <= CSV_BLOCK_CELLS or len(groups) > 1:
        step = max(1, CSV_BLOCK_CELLS // width)
        for start in range(0, len(groups[0][0]), step):
            yield _format_rows([(values[start:start + step], f) for values, f in groups])
        return
    (values, fmt), = groups
    for row in values:
        for start in range(0, width, CSV_BLOCK_CELLS):
            stop = start + CSV_BLOCK_CELLS
            yield _format_rows([(row[None, start:stop], fmt)], 10 if stop >= width else 44)


def _format_rows(groups, end=10):
    """Rows, given as (2-d values, fmt) groups of columns, as the bytes of `fmt %
    cell` per cell: each cell's slots (`_cell_slots`), laid side by side, with
    their NULs deleted. Each row ends with `end`, a newline or a comma."""
    slots = []
    for i, (values, fmt) in enumerate(groups):
        ends = np.full(values.shape, 44, np.uint8)  # a comma, or `end` after a row
        ends[:, -1] = end if i == len(groups) - 1 else 44
        slots.append(_cell_slots(values.ravel(), fmt, ends.ravel()).reshape(len(values), -1))
    return (np.hstack(slots) if len(slots) > 1 else slots[0]).tobytes().translate(None, b"\0")


def _cell_slots(x, fmt, ends):
    """Each cell's text in a row of byte slots, ended by `ends`, with NUL in the
    slots it leaves out. A block of int64 %d cells all in 0 .. 9999 takes one word
    a cell (`_small_int_slots`). A %.Pg block with P <= 9 and no cell of a 3-digit
    exponent takes two (`_word_slots`), built from the P-digit rounded mantissa;
    its cells that the words cannot lay out (fixed notation, zero, non-finite,
    near a tie or a power of ten) go through `%` into their 16 slots. Every other
    block goes through `%` cell by cell (`_percent_slots`)."""
    if fmt == "%d":
        if not np.issubdtype(x.dtype, np.integer):
            raise ValueError(f"%d cells must be integers, got {x.dtype}")
        if x.dtype == np.int64 and x.size and x.view(np.uint64).max() <= 9999:
            # As uint64 a negative cell reads past 2**63.
            return _small_int_slots(x.view(np.uint64), ends)
        return _percent_slots(x, fmt, ends)
    if not (fmt[:2] == "%." and fmt[-1:] == "g" and fmt[2:-1].isdigit()
            and 0 < int(fmt[2:-1]) < 16):
        raise ValueError(f"unsupported CSV cell format {fmt!r}: only %.Pg (P <= 15) and %d")
    p, a = int(fmt[2:-1]), np.abs(x, dtype=float)
    slow = ~((a > 0.0) & (a < np.inf))  # zero and non-finite cells
    a[slow] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    if p > 9 or (np.abs(e) > 99).any():
        return _percent_slots(x, fmt, ends)
    # The `%` text of any other cell fits its 16 slots: it is e-notation with a
    # 2-digit exponent, fixed notation of at most "-0.000" and P digits, or
    # "1e+100" or "1e-99" after rounding up.
    y = a * _POW10[99 + p - 1 - e]  # the mantissa times 10**(P - 1), within about 1 ulp
    m = np.rint(y)
    slow |= (e > -5) & (e < p)  # fixed notation
    # Past 1e-5 * 10**(P - 9) from a tie, y's error cannot change its rounding. m
    # is out of range where it rounds up to 10**P or log10 is one off.
    slow |= np.abs(y - np.floor(y) - 0.5) < 1e-5 * 10.0 ** (p - 9)
    slow |= (m < 10.0 ** (p - 1)) | (m >= 10.0 ** p)
    slots = _word_slots(m.astype(np.int64) * 10 ** (9 - p), e, np.signbit(x), ends)
    cells = np.flatnonzero(slow)
    slots[cells] = _percent_slots(x[cells], fmt, ends[cells], 16)
    return slots


def _percent_slots(x, fmt, ends, width=None):
    """Each cell's `fmt % cell` (Python ints keep uint64 cells exact), NUL-padded to
    `width` - 1 slots (by default the longest text's; a longer one raises), then its end."""
    text = np.array([fmt % value for value in x.tolist()], "S")
    slots = np.zeros((x.size, width or text.itemsize + 1), np.uint8)
    slots[:, :-1][:, :text.itemsize] = text.view(np.uint8).reshape(x.size, text.itemsize)
    slots[:, -1] = ends
    return slots


def _small_int_slots(u, ends):
    """The 8 slots of %d cells of 0 .. 9999 (a uint64 array), ended by `ends`: the
    four digits, the end and NULs as one uint64 word, masked to the cell's width."""
    words = _DIGITS4.take(u).astype(np.uint64)
    words |= ends.astype(np.uint64) << np.uint64(32)
    words &= _INT_WORD_MASKS.take(_WIDTH4.take(u))
    return words.view(np.uint8).reshape(u.size, 8)


def _word_slots(m, e, negative, ends):
    """The 16 slots of e-notation cells with a 9-digit mantissa m (an integer
    array), exponent -99 <= e <= 99 and sign `negative`, ended by `ends`: the
    sign, the lead digit, the point and 8 fraction digits, then "e+12" and the
    end, as two uint64 words each. The fraction's trailing zeros pick the mask."""
    lead = m // 100000000
    high = m // 10000 - lead * 10000
    low = m % 10000
    high_digits, low_digits = (_DIGITS4.take(chunk).astype(np.uint64) for chunk in (high, low))
    head = negative * 45 + (lead + 48) * 256 + 46 * 65536  # "-" or NUL, the lead digit, "."
    words = np.empty((m.size, 2), "<u8")
    words[:, 0] = (head.astype(np.uint64) | high_digits << np.uint64(24)
                   | low_digits << np.uint64(56))
    words[:, 1] = (low_digits >> np.uint64(8) | _EXP_WORDS.take(e + 99)
                   | ends.astype(np.uint64) << np.uint64(56))
    words &= _WORD_MASKS.take(_TZ4.take(low) + _TZ4.take(high) * (low == 0), axis=0)
    return words.view(np.uint8)
