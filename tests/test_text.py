"""The table formatter against Python's own `'%.17g' %`, cell by cell."""

import numpy as np

from qensemble import text


def _mismatches(values):
    """(value, written, expected) for each value g17 does not spell as '%.17g' does."""
    x = np.asarray(values, dtype=np.float64)
    written = b"".join(text.rows([b"", b"\n"], [x], x.size)).decode().split("\n")[:-1]
    return [(v, w, "%.17g" % v) for v, w in zip(x.tolist(), written) if w != "%.17g" % v]


def _neighbours(x):
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def test_random_bit_patterns():
    bits = np.random.default_rng(20261022).integers(0, 2**64, 101000, dtype=np.uint64)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)][:100000]
    assert x.size == 100000 and (x < 0).any() and (x > 0).any()
    assert _mismatches(x) == []


def test_powers_of_ten_and_their_neighbours():
    x = _neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)]))
    assert _mismatches(np.concatenate([x, -x])) == []


def test_powers_of_two_and_three_times_them():
    # 2^-1074 .. 2^1023: every binade, the subnormals included
    x = np.ldexp(1.0, np.arange(-1074, 1024))
    x = np.concatenate([x, 3.0 * x[:-1]])
    assert _mismatches(np.concatenate([x, -x])) == []


def test_exact_ties_round_half_even():
    # |v| 10^(16 - d) ends in .5 exactly, so these cells take their digits from '%.16e'
    assert _mismatches([*(1e14 + np.arange(4000) / 8), 1278675322477191.75, -1278675322477191.75]) == []


def test_zeros_and_extremes():
    assert _mismatches([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]) == []


def test_notation_switch_points():
    # '%g' is scientific below 1e-4 and from 1e17 on; 9.9999999999999998e16 rounds up to 1e17
    x = _neighbours(np.array([1e-5, 1e-4, 9.9999999999999998e16, 99999999999999999.0, 1e17, 1e100, 1e-100]))
    assert _mismatches(np.concatenate([x, -x])) == []


def test_one_decade_move_settles_every_power_of_ten():
    # log10 may miss a power of ten's decade by one; after g17's single move the scaled value lies
    # in the band that needs no other, so the correction cannot oscillate or run on
    x = _neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)]))
    _, yh, yl = text._decade(x)
    assert ((yh - 1e16) + yl >= -0.01).all() and ((yh - 1e17) + yl < 0.0).all()
