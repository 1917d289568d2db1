"""Table text: rows of literal bytes and cells, with floats printed as `'%.17g' % v` by numpy.

`g17` gives each float 48 byte slots, `-0.000`, then the 17 significant digits
each followed by a point, then `e`, the exponent's sign and 3 digits and 3 pad
slots, and a keep mask whose kept slots spell `'%.17g' % v` exactly. The keep
row depends only on the sign, the last nonzero digit and the decimal exponent.

The digits are D = round(|v| 10^(16 - d)) for the decimal exponent d. 10^q is
held to 110 bits as (hi + lo) 2^s, and f hi, with |v| = f 2^e, as p + err by
Dekker's exact product (Dekker 1971, "A floating-point technique for extending
the available precision"), so the scaled value lies within about 1e-14 of
exact. Its rounding is then exact unless its fraction lies within 1e-9 of one
half; those cells, the exact ties among them, take their digits from `'%.16e'`.
"""

import numpy as np

# q = 16 - d over the finite doubles' decimal exponents d = -324 .. 308, one to spare each way
_Q0, _NQ = -293, 635
# hi, lo and hi's two 26-bit halves of each 10^q once first used (0 until then), and s
_TENS, _S = np.zeros((4, _NQ)), np.zeros(_NQ, np.intp)
# 2^(s + e): f hi lies in [2^108, 2^110) and the scaled value near [10^16, 10^17)
_K0 = -70
_TWOS = 2.0 ** np.arange(_K0, -30)

# Byte rows of 8 slots, six making a cell's 48: "-0.000" with the leading digit and its point,
# 4-digit groups with their points, and exponents "e-324" .. "e+308" with 3 pad slots
_exps = np.arange(-324, 309)
_POOL = np.full((10 + 10000 + _exps.size, 8), 46, np.uint8)
_POOL[:10, :6] = np.frombuffer(b"-0.000", np.uint8)
_POOL[:10, 6] = np.arange(48, 58)
_quads = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # the digits of each 4-digit group
_POOL[10:10010, 0::2] = _quads.T + 48
_POOL[10010:, 0], _POOL[10010:, 1] = ord("e"), np.where(_exps < 0, ord("-"), ord("+"))
_POOL[10010:, 2:5] = abs(_exps)[:, None] // [100, 10, 1] % 10 + 48
_POOL = _POOL.view(np.uint64).ravel()
_OFFSETS = np.array([0, 10, 10, 10, 10, 10010 + 324])[:, None]


def _keep_table():
    """Keep rows by [sign][last nonzero digit][notation]; notations: d = -4 .. 16, e+dd, e+ddd."""
    slot, last, d = np.arange(48), np.arange(17)[:, None, None], np.r_[-4:17, 17, 100][:, None]
    digit, sci = (slot - 6) // 2, d > 16
    # digits through the last nonzero one and through the point, which follows digit d in fixed
    # notation and digit 0 in scientific, and is kept if a digit follows it
    lead = np.where(sci, 0, d)
    keep = (slot >= 6) & (slot < 40) & np.where(slot % 2, (digit == lead) & (last > lead), digit <= np.maximum(lead, last))
    keep |= (d < 0) & (slot >= 1) & (slot <= 1 - d)  # "0." and -d - 1 zeros
    keep |= sci & (slot >= 40) & (slot < 45) & ((slot != 42) | (d >= 100))
    return np.stack([keep, keep | (slot == 0)]).reshape(-1, 48).view(np.uint64)


_KEEP = _keep_table()
# keep-row terms: each exponent's notation, and for each of D's four 4-digit groups its last nonzero
# digit as a digit of D (0 for a zero group: D's leading digit is never zero), times 23 notations
_NOTATION = np.select([abs(_exps) >= 100, (_exps < -4) | (_exps > 16)], [22, 21], _exps + 4)
_last4 = ((_quads > 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
_LAST = ((_last4 + np.arange(0, 16, 4, dtype=np.int16)[:, None]) * (_last4 > 0) * 23).ravel()
_LAST_OFFSETS = np.arange(0, 40000, 10000)[:, None] - 10


def _cache(j):
    """Store 10^q, q = _Q0 + j, to 110 bits."""
    num, den = 10 ** max(_Q0 + j, 0), 10 ** max(-_Q0 - j, 0)
    s = num.bit_length() - den.bit_length() - 110
    m = (num << max(-s, 0)) // (den << max(s, 0))
    hi = float(m)
    hh = hi * 134217729.0 - (hi * 134217729.0 - hi)
    _TENS[:, j], _S[j] = (hi, float(m - int(hi)), hh, hi - hh), s


def _scaled(f, e, d):
    """f 2^e 10^(16 - d) as yh + yl: yh a double holding an integer, |yl| below about 8."""
    i = 16 - d - _Q0
    hi, lo, hh, hl = _TENS.take(i, axis=1)
    if not hi.all():
        for j in set(i[hi == 0].tolist()):
            _cache(j)
        hi, lo, hh, hl = _TENS.take(i, axis=1)
    c = f * 134217729.0
    fh = c - (c - f)
    fl = f - fh
    p = f * hi
    err = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl
    scale = _TWOS.take(_S.take(i) + e - _K0)
    return p * scale, (err + f * lo) * scale


def _decade(a):
    """The decimal exponent d of each positive a, and a 10^(16 - d) as yh + yl in [10^16 - 0.01, 10^17)."""
    f, e = np.frexp(a)
    d = np.floor(np.log10(a)).astype(np.intp)
    yh, yl = _scaled(f, e, d)
    # log10 can miss the decade by one next to a power of ten: one move mends it, and the 0.01 band
    # keeps a value within rounding of 10^16 from moving down and back up
    off = np.flatnonzero(((yh - 1e16) + yl < -0.01) | ((yh - 1e17) + yl >= 0.0))
    if off.size:
        d[off] += np.where(yh[off] > 5e16, 1, -1)
        yh[off], yl[off] = _scaled(f[off], e[off], d[off])
    return d, yh, yl


def g17(x):
    """Byte slots (n, 48) and a keep mask (n, 48) spelling `'%.17g' % v` for each v of the finite float64 x."""
    a = np.abs(x)
    zero = np.flatnonzero(a == 0.0)
    a[zero] = 1.0  # laid out as 1, whose leading digit becomes 0 below
    d, yh, yl = _decade(a)
    r = np.floor(yl + 0.5)
    digits = yh.astype(np.int64) + r.astype(np.int64)
    for i in np.flatnonzero(np.abs(yl - r) >= 0.5 - 1e-9):
        text = "%.16e" % a[i]
        digits[i], d[i] = int(text[0] + text[2:18]), int(text[19:])
    carry = np.flatnonzero(digits == 10**17)
    digits[carry], d[carry] = 10**16, d[carry] + 1
    # pool rows: D's leading digit (0 for a zero), its four 4-digit groups and the exponent
    idx = np.empty((6, a.size), np.intp)
    np.floor_divide(digits, 10**8, out=idx[2])
    np.subtract(digits, idx[2] * 10**8, out=idx[4])
    for hi, lo in ((2, 1), (1, 0), (4, 3)):
        np.floor_divide(idx[hi], 10**4, out=idx[lo])
        idx[hi] -= idx[lo] * 10**4
    idx[0, zero] = 0
    idx[5] = d
    idx += _OFFSETS
    chars = _POOL.take(idx.T).view(np.uint8).reshape(a.size, 48)
    keep = _LAST.take(idx[1:5] + _LAST_OFFSETS).max(axis=0) + _NOTATION.take(idx[5] - 10010)
    keep += np.signbit(x) * (17 * 23)
    return chars, _KEEP.take(keep, axis=0).view(np.bool_)


# Float cells per chunk of `rows`: g17's arrays for a chunk then stay under 128 KiB, below which
# glibc reuses the memory the last chunk freed instead of mapping and faulting in fresh pages
_CHUNK_CELLS = 2048


def rows(texts, columns, length):
    """A table's rows as byte arrays, _CHUNK_CELLS float cells (or rows, if none) at a time.

    A row is texts[0], the cells of columns[0], texts[1], ... texts[-1]: literal bytes between
    the columns that vary. A column is a float array, laid out by `g17`, or a pair of byte slots
    and keep mask, one row per cell.
    """
    floats = [j for j, cells in enumerate(columns) if not isinstance(cells, tuple)]
    chunk = max(1, _CHUNK_CELLS // max(1, len(floats)))
    widths = [48 if j in floats else cells[0].shape[1] for j, cells in enumerate(columns)]
    starts = np.cumsum([0] + [len(t) + w for t, w in zip(texts, widths)])
    chars = np.zeros((min(length, chunk), starts[-1] + len(texts[-1])), np.uint8)
    keep = np.zeros(chars.shape, np.bool_)
    for start, text in zip(starts, texts):
        chars[:, start : start + len(text)] = np.frombuffer(text, np.uint8)
        keep[:, start : start + len(text)] = True
    slots = [slice(start + len(t), start + len(t) + w) for start, t, w in zip(starts, texts, widths)]
    for lo in range(0, length, chunk):
        n = min(chunk, length - lo)
        if floats:
            # one formatter call for every float column of the chunk, cut back into columns
            glyphs, kept = g17(np.array([columns[j][lo : lo + n] for j in floats], np.float64).ravel())
            blocks = zip(glyphs.reshape(-1, n, 48), kept.reshape(-1, n, 48))
        for j, cells in enumerate(columns):
            block = next(blocks) if j in floats else (cells[0][lo : lo + n], cells[1][lo : lo + n])
            chars[:n, slots[j]], keep[:n, slots[j]] = block
        yield np.compress(keep[:n].ravel(), chars[:n].ravel())
