"""Two's-complement fixed-point primitives shared by the quantizer, the
reference classifier, and the cycle-accurate simulator, and the block size
of their array loops."""

from __future__ import annotations

from dataclasses import dataclass


#: Widest unsigned input code the integer kernels accept. With parameter
#: words of at most 16 bits, every partial sum then stays below (m+1)*2**31
#: in magnitude, so int64 arithmetic is exact.
MAX_INPUT_BITS = 16

#: Elements per block of every array loop whose work grows with the sample
#: count (the DAG walks, input quantization, prefix-sum profiling, float
#: scoring, the steps of the SGD lanes), so a block's temporaries take a few
#: hundred kB whatever the problem's size.
BLOCK_ELEMENTS = 1 << 15


def min_int(width: int) -> int:
    return -(1 << (width - 1))


def max_int(width: int) -> int:
    return (1 << (width - 1)) - 1


def fits(value: int, width: int) -> bool:
    return min_int(width) <= value <= max_int(width)


@dataclass(frozen=True)
class FxpFormat:
    """An unsigned, all-fractional input code of ``total_bits`` bits, 1 to
    MAX_INPUT_BITS; real value = raw / 2**total_bits."""

    total_bits: int

    def __post_init__(self):
        if not 1 <= self.total_bits <= MAX_INPUT_BITS:
            raise ValueError(f"input format must have 1..{MAX_INPUT_BITS} bits, got {self.total_bits}")

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
