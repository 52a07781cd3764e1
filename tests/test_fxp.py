import numpy as np
import pytest

from helpers import wrap
from seqsvm.fxp import (
    MAX_INPUT_BITS,
    U4_4,
    FxpFormat,
    fits,
    max_int,
    min_int,
    width_for_range,
)
from seqsvm.quant import QuantizedModel, quantize_inputs


def _width_oracle(lo, hi):
    # brute force over widths 1..32
    for w in range(1, 33):
        if min_int(w) <= lo and hi <= max_int(w):
            return w
    raise AssertionError("no width up to 32 fits")


def _wrap_oracle(value, width):
    half = 1 << (width - 1)
    return (value + half) % (1 << width) - half


def _truncate(value, fmt):
    """The code that input truncation gives one real in [0, 1]."""
    return int(quantize_inputs(np.array([[value]]), fmt)[0, 0])


class TestTruncate:
    def test_zero(self):
        assert _truncate(0.0, U4_4) == 0

    def test_one_clamps_to_top_code(self):
        assert _truncate(1.0, U4_4) == 15

    def test_point_three(self):
        # floor(0.3 * 16) = 4
        assert _truncate(0.3, U4_4) == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _truncate(-0.01, U4_4)

    @pytest.mark.parametrize("fmt", [U4_4, FxpFormat(6), FxpFormat(5), FxpFormat(8)])
    def test_roundtrip_every_code(self, fmt):
        for raw in range(fmt.raw_max + 1):
            assert _truncate(raw / fmt.scale, fmt) == raw


class TestFormats:
    def test_bad_total_bits(self):
        with pytest.raises(ValueError, match="^total_bits must be an integer in 1..16, got 0$"):
            FxpFormat(0)

    @pytest.mark.parametrize("bits", [17, 32, 63, 70])
    def test_too_wide_rejected(self, bits):
        # the integer kernels are exact in int64 only up to MAX_INPUT_BITS
        with pytest.raises(ValueError, match=f"^total_bits must be an integer in 1..16, got {bits}$"):
            FxpFormat(bits)
        assert FxpFormat(MAX_INPUT_BITS).raw_max == 65535

    def test_value_outside_range_rejected(self):
        qm = QuantizedModel(2, 1, U4_4, 4, [[0, 1]], [1.0])
        assert qm.input_codes([[15]]).tolist() == [[15]]
        with pytest.raises(ValueError, match="does not fit"):
            qm.input_codes([[16]])


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
    # the reference simulator's wrap, in tests/helpers.py: the library's own
    # is the DAG walk's mask on an offset accumulator
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
