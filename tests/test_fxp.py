import numpy as np
import pytest

from seqsvm.fxp import (
    U4_4,
    FxpFormat,
    FxpValue,
    fits,
    max_int,
    min_int,
    truncate_to_format,
    width_for_range,
    wrap,
)


def _width_oracle(lo, hi):
    # brute force over widths 1..32
    for w in range(1, 33):
        if min_int(w) <= lo and hi <= max_int(w):
            return w
    raise AssertionError("no width up to 32 fits")


def _wrap_oracle(value, width):
    half = 1 << (width - 1)
    return (value + half) % (1 << width) - half


class TestTruncate:
    def test_zero(self):
        assert truncate_to_format(0.0, U4_4).raw == 0

    def test_one_clamps_to_top_code(self):
        assert truncate_to_format(1.0, U4_4).raw == 15

    def test_point_three(self):
        # floor(0.3 * 16) = 4
        assert truncate_to_format(0.3, U4_4).raw == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            truncate_to_format(-0.01, U4_4)

    def test_rejects_signed_format(self):
        with pytest.raises(ValueError):
            truncate_to_format(0.5, FxpFormat(4, 3, signed=True))

    @pytest.mark.parametrize("fmt", [U4_4, FxpFormat(6, 3), FxpFormat(5, 5), FxpFormat(8, 8)])
    def test_roundtrip_every_code(self, fmt):
        for raw in range(fmt.raw_max + 1):
            value = FxpValue(raw, fmt)
            assert truncate_to_format(value.real, fmt).raw == raw


class TestFormats:
    def test_bad_total_bits(self):
        with pytest.raises(ValueError):
            FxpFormat(0, 0)

    def test_frac_exceeds_unsigned(self):
        with pytest.raises(ValueError):
            FxpFormat(4, 5)

    def test_frac_exceeds_signed(self):
        with pytest.raises(ValueError):
            FxpFormat(4, 4, signed=True)

    def test_signed_range(self):
        fmt = FxpFormat(4, 0, signed=True)
        assert (fmt.raw_min, fmt.raw_max) == (-8, 7)

    def test_value_outside_range_rejected(self):
        with pytest.raises(ValueError):
            FxpValue(16, U4_4)


class TestWidthForRange:
    def test_zero(self):
        assert width_for_range(0, 0) == 1

    def test_exact_four_bit(self):
        assert width_for_range(-8, 7) == 4

    def test_asymmetric(self):
        assert _width_oracle(-130, 90) == 9
        assert width_for_range(-130, 90) == 9

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            width_for_range(1, 0)

    def test_minimality_random(self):
        rng = np.random.default_rng(5)
        for _ in range(400):
            lo = int(rng.integers(-(1 << 20), 1 << 20))
            hi = int(rng.integers(lo, 1 << 20))
            w = width_for_range(lo, hi)
            assert w == _width_oracle(lo, hi)
            assert fits(lo, w) and fits(hi, w)
            if w > 1:
                assert not (fits(lo, w - 1) and fits(hi, w - 1))


class TestWrap:
    def test_examples(self):
        assert wrap(134, 8) == -122
        assert wrap(-130, 8) == 126
        assert wrap(-1, 4) == -1

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            v = int(rng.integers(-(1 << 16), 1 << 16))
            w = int(rng.integers(1, 17))
            assert wrap(v, w) == _wrap_oracle(v, w)
