"""The vectorized grid dump prints every value as ``"%.17g" % v`` does.

Each case formats a field with ``fieldio.format_field`` and compares the
bytes with ``oracles.format_field_per_value``, which formats one numpy
scalar at a time.
"""

import os
import stat
import tracemalloc

import numpy as np
import pytest

from pnp_upscale import fieldio
from pnp_upscale.fieldio import atomic_write_text, format_field

import oracles


def assert_same_bytes(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        got = format_field("f", values)
    assert got.encode() == oracles.format_field_per_value("f", values).encode()


def ulp_neighbours(x, steps=2):
    """x and its `steps` nearest floats on either side."""
    out = [x]
    for target in (-np.inf, np.inf):
        y = x
        for _ in range(steps):
            y = np.nextafter(y, target)
            out.append(y)
    return out


def with_signs(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def test_powers_of_ten_and_their_ulp_neighbours():
    values = [v for k in range(-300, 301) for v in ulp_neighbours(float(f"1e{k}"))]
    assert_same_bytes(with_signs(values))


def test_half_integers_scaled_by_powers_of_two():
    rng = np.random.default_rng(18)
    k = np.floor(rng.uniform(1e15, 1e16, size=4000))
    half = k + 0.5
    assert_same_bytes(with_signs(np.concatenate([half, half * 8.0, half / 8.0])))


def test_exact_rounding_ties_round_half_even():
    # M / 2^s with M odd and M 5^s of 18 digits: the exact decimal ends in a
    # 5 just past the 17th digit, a tie that %.17g breaks to even
    rng = np.random.default_rng(19)
    values = []
    for s in range(1, 12):
        lo, hi = 10**17 // 5**s, min(10**18 // 5**s, 2**53)
        if lo >= hi:
            continue
        M = rng.integers(lo, hi, size=300) | 1
        values.extend(np.ldexp(M.astype(float), -s))
    assert_same_bytes(with_signs(values))


def test_random_bit_patterns():
    # includes NaN, infinities, subnormals and every exponent
    bits = np.random.default_rng(20).integers(0, 2**64, size=100_000, dtype=np.uint64)
    assert_same_bytes(bits.view(np.float64))


@pytest.mark.parametrize("value", [0.0, -0.0, 1.0, 1.0 - 2.0**-53])
def test_constant_fields(value):
    assert_same_bytes(np.full((33, 33), value))


def test_values_at_the_notation_switches():
    # %g prints fixed notation for -4 <= E < 17, exponent notation outside
    switches = [1e-4, 1e-5, 1e16, 1e17, 9.9999999999999995e-5, 9.99999999999999e16,
                99999999999999984.0, 0.00099999999999999999]
    values = [v for x in switches for v in ulp_neighbours(x, steps=3)]
    values += [12.5, 123456.789, 1234567890123456.8, 0.1, 0.5, 2.0**53, 1.0 / 3.0,
               1e22, 1e23, 2.0**-1022, np.finfo(float).max, 5e-324]
    assert_same_bytes(with_signs(values))


def test_fixed_notation_points_after_every_integer_digit():
    # 17 significant digits with the point after digit 1 .. 16, trailing
    # zeros of the fraction dropped and those of the integer part kept
    rng = np.random.default_rng(21)
    base = rng.uniform(1.0, 10.0, size=(17, 200))
    base[:, :50] = np.round(base[:, :50], 3)
    base[:, 50:60] = np.round(base[:, 50:60])
    assert_same_bytes(with_signs((base * 10.0 ** np.arange(17)[:, None]).ravel()))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chunk_boundaries(offset):
    values = np.random.default_rng(22).normal(size=fieldio.CHUNK + offset)
    values[::7] = np.nan
    values[::11] *= 1e-300
    assert_same_bytes(values)


def test_multidimensional_headers():
    values = np.random.default_rng(23).normal(size=(5, 5, 5))
    assert_same_bytes(values)
    assert format_field("zeta3_12", values).startswith("field zeta3_12 3 5\n")


def test_peak_memory_at_most_the_per_value_oracle():
    values = np.random.default_rng(24).normal(size=(256, 256)) * 1e-3

    def peak(fmt):
        tracemalloc.start()
        try:
            fmt("f", values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(format_field) <= peak(oracles.format_field_per_value)


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_an_atomic_write_gets_the_mode_of_a_plain_open(tmp_path, umask):
    # the temporary file's mode survives the rename into place
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "atomic.txt", "x\n")
        with open(tmp_path / "plain.txt", "w") as f:
            f.write("x\n")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("atomic.txt", "plain.txt")]
    assert modes[0] == modes[1] == 0o666 & ~umask
    assert sorted(path.name for path in tmp_path.iterdir()) == ["atomic.txt", "plain.txt"]
