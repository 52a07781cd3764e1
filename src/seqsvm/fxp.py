"""Two's-complement fixed-point primitives shared by the quantizer, the
reference classifier, and the cycle-accurate simulator."""

from __future__ import annotations

from dataclasses import dataclass


#: Widest unsigned input code the integer kernels accept. With parameter
#: words of at most 16 bits, every partial sum then stays below (m+1)*2**31
#: in magnitude, so int64 arithmetic is exact.
MAX_INPUT_BITS = 16


def min_int(width: int) -> int:
    return -(1 << (width - 1))


def max_int(width: int) -> int:
    return (1 << (width - 1)) - 1


def fits(value: int, width: int) -> bool:
    return min_int(width) <= value <= max_int(width)


def wrap(value, width: int):
    """Truncate an integer into width-bit two's complement (hardware wrap).

    Also wraps int64 arrays elementwise, for widths up to 63 bits.
    """
    half = 1 << (width - 1)
    return ((value + half) & ((1 << width) - 1)) - half


@dataclass(frozen=True)
class FxpFormat:
    """An unsigned, all-fractional input code of ``total_bits`` bits;
    real value = raw / 2**total_bits."""

    total_bits: int

    def __post_init__(self):
        if self.total_bits < 1:
            raise ValueError("total_bits must be >= 1")

    @property
    def raw_max(self) -> int:
        return (1 << self.total_bits) - 1

    @property
    def scale(self) -> int:
        return 1 << self.total_bits


#: Default input format: unsigned, 4 bits, all fractional.
U4_4 = FxpFormat(4)


def width_for_range(lo: int, hi: int) -> int:
    """Smallest two's-complement width whose range contains both lo and hi."""
    if lo > hi:
        raise ValueError(f"lo {lo} exceeds hi {hi}")
    width = 1
    while not (fits(lo, width) and fits(hi, width)):
        width += 1
    return width
