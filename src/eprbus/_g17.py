"""``"%.17g" % v`` for a whole float64 array at once.

:func:`format_g17` writes what ``"%.17g"`` writes, byte for byte, for every
value, without a dtoa call per value.  For ``|v|`` in ``[10**e, 10**(e+1))``
the 17 digits are ``|v| 10**(16 - e)`` rounded once to an integer:

* ``10**(16 - e)`` is tabled as ``hi + lo``, with ``hi`` the double nearest
  to it and ``lo`` the double nearest to the rest; ``hi`` is split in two
  halves of 26 bits beforehand.  ``|v| hi`` is then an exact pair of
  doubles by Dekker's product (Numer. Math. 18, 224 (1971)), and the scaled
  value is held as ``ph + err`` with ``ph`` an integer and an error below
  1e-14 over the range ``[1e16, 1e17)``.
* ``e`` starts from ``log10``, which may be one off next to a power of ten.
  Whether ``ph + err`` lies below ``1e16`` or at ``1e17`` or above is
  decided on the pair, as the sign of ``(ph - bound) + err``, never on its
  rounded sum, and a value outside moves ``e`` by one.  (Deciding on the
  rounded sum prints ``1e-280`` where ``%.17g`` prints
  ``9.9999999999999996e-281``.)
* ``ph + rint(err)`` is the rounded integer.  A value whose ``err`` lies
  within 1e-6 of a half, where the 1e-14 could flip the rounding, is left
  to ``%.17g``; so are NaN, the infinities and values outside
  ``[1e(E0 + 1), 1e(E1))``.  Their text is spliced back in place.  Zero,
  either sign, takes the fast path.

Each value is laid out in a row of 32 bytes, ``[pad, sign, "0.000", 18
bytes of digits and point, "e", exponent sign, three exponent digits,
separator, pad]``.  Layout tables of ``0xFF`` bytes, by exponent and by
the count of digits shown, leave every byte that ``%g`` does not print NUL:
the point moves with the exponent, trailing zeros of the fraction go, and
the exponent takes two digits or three.  The sign and the separators are
then set, and one ``bytes.translate`` over all rows deletes the NUL pad.
"""

from __future__ import annotations

import codecs
import functools

import numpy as np

#: Decimal exponents ``e`` whose scale ``10**(16 - e)`` is tabled: E0 keeps
#: ``_SPLIT * 10**(16 - E0)`` finite, E1 keeps ``_SPLIT * |v|`` finite.  The
#: fast path takes ``|v|`` in ``[1e(E0 + 1), 1e(E1))``, so that an exponent
#: one off from ``log10`` is still in the table.
E0, E1 = -274, 300
#: Veltkamp's splitting constant ``2**27 + 1``.
_SPLIT = 134217729.0
#: Scaled values at or within this of a half are rounded by ``%.17g``.
_TIE_MARGIN = 1e-6
#: First byte of the digits in a row: the first digit ends a 4-byte word, so
#: each group of four digits after it fills one ``uint32`` of the row.
_R0 = 7


@functools.cache
def _tables():
    """The power table by ``e - E0`` and the layout tables, built on first use."""
    powers = []
    for e in range(E0, E1 + 1):
        num, den = 10 ** max(16 - e, 0), 10 ** max(e - 16, 0)
        hi = num / den  # correctly rounded, as is the rest below
        p, q = hi.as_integer_ratio()
        powers.append((hi, (num * q - p * den) / (den * q)))
    hi, lo = np.array(powers).T
    t = _SPLIT * hi
    hi_head = t - (t - hi)
    powers = (hi, hi_head, hi - hi_head, lo)

    k = np.arange(10000)
    chars = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    quads = (chars + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    zeros = np.cumprod(chars[:, ::-1] == 0, axis=1).sum(axis=1)
    # digits up to the last nonzero one of group g, 0 if the group is 0
    ends = tuple(np.where(k == 0, 0, 5 + 4 * g - zeros).astype(np.int8) for g in range(4))

    # by the exponent X of the rounded value, index X - E0 (X up to E1 + 1)
    x = np.arange(E0, E1 + 2)
    ax = np.abs(x)
    expo = (x < -4) | (x >= 17)
    point = np.where(expo, 1, np.where(x < 0, 17, x + 1))  # digits before the point
    least = np.where(~expo & (x < 0), 1, point)  # digits kept even if zero
    lead = np.where(~expo & (x < 0), 1 - x, 0)  # characters of "0.000" kept
    j = np.arange(32)
    r = j - _R0  # index among the digits and the point
    text = np.zeros((len(x), 32), np.uint8)
    text[:, 2:7] = np.frombuffer(b"0.000", np.uint8)
    text[:, _R0:] = np.where(r[_R0:] == point[:, None], ord("."), 0)
    text[:, 25] = ord("e")
    text[:, 26] = np.where(x < 0, ord("-"), ord("+"))
    text[:, 27:30] = np.stack([ax // 100, ax // 10 % 10, ax % 10], axis=1) + ord("0")
    before = (r >= 0) & (r < point[:, None])
    after = (r > point[:, None]) & (r < 18)
    shown = (j >= 2) & (j < 2 + lead[:, None])
    shown |= expo[:, None] & (j >= 25) & (j < 30) & ((j != 27) | (ax >= 100)[:, None])
    by_x = tuple(_words(rows) for rows in (before, after, text, shown))
    digits_shown = _words((r >= 0) & (r < np.arange(19)[:, None]))
    return powers, quads, ends, point.astype(np.int8), least.astype(np.int8), by_x, digits_shown


def _words(rows: np.ndarray) -> np.ndarray:
    """Rows of 32 bytes as rows of four ``uint64`` words; a ``True`` is the
    byte ``0xFF``."""
    if rows.dtype == np.bool_:
        rows = rows * np.uint8(255)
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint64)


def _separators(separators: str) -> np.ndarray:
    """The separators as ``uint64`` words with the byte at bit 48, to OR into
    the last word of a row.  A NUL separator would be deleted with the pad,
    so each must lie in U+0001 .. U+00FF.
    """
    if "\0" in separators or max(separators, default="\0") > "\xff":
        raise ValueError(f"separators must lie in U+0001 .. U+00FF: {separators!r}")
    seps = separators.encode("latin-1")
    return np.frombuffer(seps, np.uint8).astype(np.uint64) << np.uint64(48)


def _scaled(a: np.ndarray, i: np.ndarray, powers) -> tuple[np.ndarray, np.ndarray]:
    """``a 10**(16 - e)`` as ``ph + err``, ``i = e - E0``."""
    hi, hi_head, hi_tail, lo = (p.take(i) for p in powers)
    ph = a * hi
    t = _SPLIT * a
    head = t - (t - a)
    tail = a - head
    err = head * hi_head - ph
    err += head * hi_tail
    err += tail * hi_head
    err += tail * hi_tail
    err += a * lo
    return ph, err


def _out_of_scale(ph: np.ndarray, err: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where ``ph + err`` is below ``1e16``, and where it is ``1e17`` or above."""
    return (ph - 1e16) + err < 0.0, (ph - 1e17) + err >= 0.0


def format_g17(values: np.ndarray, separators: str) -> str:
    """``"%.17g" % v`` followed by its separator, for every value in order.

    ``separators`` holds one character from U+0001 to U+00FF per value of
    the last axis of ``values``, or one for all of them.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    sep_words = _separators(separators)
    d, i, fast = _digits(v)
    buf, rows = _rows(d, i)
    rows.view(np.uint64).reshape(*np.shape(values), 4)[..., 3] |= sep_words
    np.copyto(rows[:, 1], ord("-"), where=np.signbit(v))
    slow = np.flatnonzero(~fast)
    rows[slow, 1:30] = 0
    written = codecs.latin_1_decode(buf.translate(None, b"\0"))[0]
    if not slow.size:
        return written
    # each slow value goes before its separator
    at = np.cumsum(np.count_nonzero(rows, axis=1))[slow] - 1
    parts, prev = [], 0
    for k, pos in zip(slow.tolist(), at.tolist()):
        parts += [written[prev:pos], "%.17g" % v[k]]
        prev = pos
    parts.append(written[prev:])
    return "".join(parts)


def _digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits of each ``v`` as an integer, the index ``X - E0`` of the
    exponent ``X`` they are written with, and where they give ``%.17g``'s
    text (``fast``): a zero, whose digits are 0, or a value of the fast path.
    Elsewhere the digits are 0 and the index is in range.
    """
    powers = _tables()[0]
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= 10.0 ** (E0 + 1)) & (a < 10.0**E1)
    np.copyto(a, 1.0, where=~fast)  # no warning from log10 on 0, NaN or inf
    i = np.floor(np.log10(a)).astype(np.intp) - E0
    ph, err = _scaled(a, i, powers)
    small, large = _out_of_scale(ph, err)
    off = np.flatnonzero(small | large)
    if off.size:
        i[off] += large[off] - small[off].astype(np.intp)
        ph[off], err[off] = _scaled(a[off], i[off], powers)
        small, large = _out_of_scale(ph[off], err[off])
        fast[off[small | large]] = False
    rounded = np.rint(err)
    fast &= np.abs(err - rounded) <= 0.5 - _TIE_MARGIN
    d = ph.astype(np.int64) + rounded.astype(np.int64)
    carry = d >= 10**17  # rounded up to 18 digits: one more in the exponent
    np.subtract(d, 9 * 10**16, out=d, where=carry)
    i += carry
    # zeros print "0"; slow values print nothing here, and index the tables in range
    np.copyto(d, 0, where=zero | ~fast)
    fast |= zero
    return d, i, fast


def _rows(d: np.ndarray, i: np.ndarray) -> tuple[bytearray, np.ndarray]:
    """The rows of the digits ``d`` written with the exponent index ``i``,
    every byte not shown NUL, and the sign and separator bytes left NUL.

    Returns the buffer, 8 NUL bytes followed by the rows, and the rows as an
    ``(n, 32)`` array over it.
    """
    _, quads, ends, point_x, least_x, by_x, digits_shown = _tables()
    n = len(d)
    # the digits: d0 and four groups of four, at bytes _R0 .. _R0 + 16 of a row
    high = d // 10**8
    d -= high * 10**8
    d0 = high // 10**8
    high -= d0 * 10**8
    g1 = high // 10**4
    high -= g1 * 10**4
    g3 = d // 10**4
    d -= g3 * 10**4
    groups = (g1, high, g3, d)
    buf = bytearray(32 * n + 8)
    rows = np.frombuffer(buf, np.uint8, offset=8).reshape(n, 32)
    rows[:, _R0] = d0 + ord("0")
    words = rows.view(np.uint32)
    for col, g in enumerate(groups, 2):
        words[:, col] = quads.take(g)
    shown = least_x.take(i)
    for end, g in zip(ends, groups):
        np.maximum(shown, end.take(g), out=shown)
    shown += shown > point_x.take(i)

    # digits before the point come from the row, those after it from the row
    # read one byte back, which moves each one place right, past the point
    before_x, after_x, text_x, shown_x = by_x
    row_words = rows.view(np.uint64)
    digits = np.take(before_x, i, axis=0)
    digits &= row_words
    mask = np.take(after_x, i, axis=0)  # the digits after the point, then the mask
    mask &= np.frombuffer(buf, np.uint64, 4 * n, offset=7).reshape(n, 4)
    digits |= mask
    # the row's place now takes the text; the bytes shown are the layout's
    # and the digits' up to the last one shown
    np.take(shown_x, i, axis=0, out=mask, mode="wrap")
    np.take(digits_shown, shown, axis=0, out=row_words, mode="wrap")
    mask |= row_words
    np.take(text_x, i, axis=0, out=row_words, mode="wrap")
    row_words |= digits
    row_words &= mask
    return buf, rows
