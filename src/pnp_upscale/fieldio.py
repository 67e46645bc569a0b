"""Grid dumps and atomic output writing.

Dump format: header line ``field <name> <N> <m>`` followed by m^N values in
row-major order, one per line, each printed as ``"%.17g" % v`` prints it, so
that every value round-trips.  All files are written to a temporary sibling
and renamed into place so a crashed run never leaves a truncated artifact.
A dump written to a file is streamed: each chunk's bytes go to the
temporary sibling as they are formatted, so no dump is held whole.

``format_field`` produces those bytes in numpy, ``CHUNK`` values per pass,
not one Python float at a time.  For each value it finds the decimal
exponent E and the exact 17-digit integer D = round(|x| 10^(16-E)) from a
double-double product with 10^(16-E) (Dekker's exact product, Numer. Math.
18 (1971) 224, used the fixed-precision way of Ryu printf, Adams, PLDI
2019); the error of that product is below 1e-14, far inside the margin by
which a value is taken as decided.  It then lays out each value's text in a
fixed-width byte row, as ``%g`` does: fixed notation for -4 <= E < 17,
``d.ddde±XX`` otherwise, trailing zeros of the fraction dropped.  The few
values the kernel does not decide go through ``"%.17g" % v``: zeros are
decided, but non-finite values, |x| outside [1e-270, 1e270], values within
1e-6 of a rounding tie, and values whose 17 digits come out as a power of ten
are not.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

#: values formatted per numpy pass.  The kernel's scratch memory is about
#: 100 bytes per value, so a 128^2 dump peaks below the per-value path's
#: tuple of floats (tracemalloc: 0.71 against 0.92 MB)
CHUNK = 4096

# magnitudes whose scaled products neither overflow nor leave the normal range
_MIN_DECIDED, _MAX_DECIDED = 1e-270, 1e270
# distance from a rounding tie below which a value goes to "%.17g" % v
_TIE_MARGIN = 1e-6
# Veltkamp's splitting constant 2^27 + 1 for float64
_SPLIT = 134217729.0
# decimal exponents E are stored with this offset in the per-exponent tables
_BIAS = 300

# One byte row per value, NUL where nothing is printed: the sign, the
# "0.000" of -4 <= E < 0, the leading digit, a slot for the decimal point,
# the other 16 digits, the "e+XXX" suffix, the newline.  A point after digit
# P > 0 moves digits 1..P one place left, into the slot.
_PREFIX, _DIGITS, _SUFFIX = 1, 6, 24
_WIDTH = 30


@contextmanager
def _replacing(path):
    """A binary file on a new sibling of ``path``, created with the mode a
    plain ``open(path, "w")`` gets under the process umask, renamed into
    place once the block ends; on any failure the sibling is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` (UTF-8) to a new sibling of ``path`` and rename it
    into place."""
    with _replacing(path) as f:
        f.write(text.encode())


def format_field(name: str, values: np.ndarray, path=None) -> str | None:
    """The dump of ``values`` as one str; with ``path``, the dump is written
    to ``path`` instead, atomically, each chunk as it is formatted, and None
    is returned."""
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    if values.shape != (m,) * values.ndim:
        raise ValueError(f"field grids must be square, got {values.shape}")
    flat = values.ravel()
    pieces = chain([f"field {name} {values.ndim} {m}\n".encode()],
                   (_format_chunk(flat[i:i + CHUNK]) for i in range(0, flat.size, CHUNK)))
    if path is None:
        return b"".join(pieces).decode()
    with _replacing(path) as f:
        f.writelines(pieces)
    return None


@cache
def _tables() -> dict:
    """Read-only lookup tables of the kernel, built on its first call."""
    g = np.arange(10_000, dtype=np.int16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    # the position 1..16 of the last nonzero digit of group k of a 16-digit
    # fraction, 0 for "0000"; row k for group k
    last = np.max((digits > 0) * np.arange(1, 5, dtype=np.int8), axis=1)
    last = np.stack([np.where(last > 0, last + 4 * k, 0) for k in range(4)])
    # row K keeps the digits at positions 1..K of a 16-digit fraction
    keep = np.arange(1, 17) <= np.arange(17)[:, None]
    E = np.arange(-_BIAS, _BIAS + 1)
    rows = np.zeros((E.size, _WIDTH), np.uint8)
    for i, e in enumerate(E.tolist()):
        if -4 <= e < 0:
            text, col = "0." + "0" * (-e - 1), _PREFIX
        elif e < -4 or e > 16:
            text, col = "e%+03d" % e, _SUFFIX
        else:
            continue
        rows[i, col:col + len(text)] = np.frombuffer(text.encode(), np.uint8)
    rows[:, -1] = ord("\n")
    point = np.where((E >= 0) & (E <= 16), E, 0)
    tables = {
        "chars": (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        "last": last,
        "keep": np.where(keep, 255, 0).astype(np.uint8).view(np.uint32),
        "rows": rows,
        # digit index after which the point goes: the integer part of fixed
        # notation, the leading digit of exponent notation
        "point": point.astype(np.int8),
        # the point is printed when the last nonzero digit lies beyond this;
        # 17 (never) where the prefix already holds it
        "point_if_after": np.where((E >= -4) & (E < 0), 17, point).astype(np.int8),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


@cache
def _power_of_ten(k: int) -> tuple:
    """10^k as a double-double (hi, lo), and hi split into 26-bit halves.

    Python's int / int is correctly rounded, so hi is 10^k rounded and lo
    the exact remainder 10^k - hi rounded."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    lo = (num * hi_den - hi_num * den) / (den * hi_den)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    return hi, lo, hi_hi, hi - hi_hi


def _scaled(a: np.ndarray, e: np.ndarray):
    """a * 10^(16-E) as an unevaluated sum p + r, p the rounded product;
    ``e`` holds E + _BIAS."""
    first = int(e.min())
    rows = np.zeros((4, int(e.max()) - first + 1))
    for i in np.flatnonzero(np.bincount(e - first)).tolist():
        rows[:, i] = _power_of_ten(16 + _BIAS - first - i)
    hi, lo, hi_hi, hi_lo = rows.take(e - first, axis=1)
    p = a * hi
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = ((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo
    return p, err + a * lo


def _format_chunk(x: np.ndarray) -> bytes:
    """The lines of ``"%.17g\\n" % v`` for every v in x, joined, as ASCII bytes."""
    t = _tables()
    n = x.size
    a = np.abs(x)
    decided = (a >= _MIN_DECIDED) & (a <= _MAX_DECIDED)
    a[~decided] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64) + _BIAS
    p, r = _scaled(a, e)
    # log10 may be one off near a power of ten: rescale so p is in [1e16, 1e17)
    off = np.flatnonzero((p < 1e16) | (p >= 1e17))
    if off.size:
        e[off] += np.where(p[off] < 1e16, -1, 1)
        p[off], r[off] = _scaled(a[off], e[off])
    whole = np.floor(r)
    r -= whole
    D = p.astype(np.int64) + whole.astype(np.int64) + (r > 0.5)
    decided &= np.abs(r - 0.5) >= _TIE_MARGIN
    decided &= (D > 10**16) & (D < 10**17)
    zero = x == 0
    decided |= zero
    D[zero] = 0
    e[zero] = _BIAS
    del a, p, r, whole  # the scratch memory of a chunk stays bounded
    # D as its leading digit and four groups of four
    upper = D // 10**8
    lower = (D - upper * 10**8).astype(np.int32)
    lead = upper // 10**8
    upper = (upper - lead * 10**8).astype(np.int32)
    groups = np.empty((n, 4), np.intp)
    for k, half in ((0, upper), (2, lower)):
        groups[:, k] = half // 10**4
        groups[:, k + 1] = half - groups[:, k] * 10**4
    del D, upper, lower
    # the last nonzero digit (1..16) after the leading one, 0 if none
    last = t["last"][0].take(groups[:, 0])
    for k in range(1, 4):
        np.maximum(last, t["last"][k].take(groups[:, k]), out=last)
    point = t["point"].take(e)
    chars = t["chars"].take(groups)
    chars &= t["keep"].take(np.maximum(last, point), axis=0)
    del groups
    text = bytearray(n * _WIDTH)
    row = np.frombuffer(text, np.uint8).reshape(n, _WIDTH)
    # e is in range: mode="clip" only lets take write into row unbuffered
    t["rows"].take(e, axis=0, out=row, mode="clip")
    row[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    row[:, _DIGITS] = lead + ord("0")
    row[:, _DIGITS + 2:_SUFFIX] = chars.view(np.uint8)
    dotted = last > t["point_if_after"].take(e)
    row[dotted & (point == 0), _DIGITS + 1] = ord(".")
    inner = np.flatnonzero(dotted & (point > 0))
    if inner.size:
        digits = row[inner, _DIGITS + 1:_SUFFIX]
        at = point[inner, None]
        cols = np.arange(_SUFFIX - _DIGITS - 1)
        digits[:, :-1] = np.where(cols[:-1] < at, digits[:, 1:], digits[:, :-1])
        digits[cols == at] = ord(".")
        row[inner, _DIGITS + 1:_SUFFIX] = digits
    undecided = np.flatnonzero(~decided)
    row[undecided] = 0
    del e, lead, last, point, chars, dotted, decided
    out = text.translate(None, b"\0")
    if not undecided.size:
        return out
    # the undecided rows are empty: put each value's own line in its place
    stops = np.cumsum(np.count_nonzero(row, axis=1)).tolist()
    pieces, start = [], 0
    for i in undecided.tolist():
        pieces.extend((out[start:stops[i]], b"%.17g\n" % x[i]))
        start = stops[i]
    pieces.append(out[start:])
    return b"".join(pieces)


def read_field(path) -> tuple[str, np.ndarray]:
    tokens = Path(path).read_text().split()
    if len(tokens) < 4 or tokens[0] != "field":
        raise ValueError(f"{path}: not a field dump")
    name = tokens[1]
    ndim, m = int(tokens[2]), int(tokens[3])
    n = m**ndim
    data = tokens[4:]
    if len(data) != n:
        raise ValueError(f"{path}: expected {n} values, found {len(data)}")
    values = np.array([float(t) for t in data]).reshape((m,) * ndim)
    return name, values
