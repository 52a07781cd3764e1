"""Two's-complement fixed-point primitives shared by the quantizer, the
reference classifier, and the cycle-accurate simulator."""

from __future__ import annotations

import math
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
    """Bit layout of a fixed-point code; real value = raw / 2**frac_bits."""

    total_bits: int
    frac_bits: int
    signed: bool = False

    def __post_init__(self):
        if self.total_bits < 1:
            raise ValueError("total_bits must be >= 1")
        if self.frac_bits < 0:
            raise ValueError("frac_bits must be >= 0")
        limit = self.total_bits - 1 if self.signed else self.total_bits
        if self.frac_bits > limit:
            raise ValueError(f"frac_bits {self.frac_bits} exceed the available bits")

    @property
    def raw_min(self) -> int:
        return min_int(self.total_bits) if self.signed else 0

    @property
    def raw_max(self) -> int:
        return max_int(self.total_bits) if self.signed else (1 << self.total_bits) - 1

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits


#: Default input format: unsigned, 4 bits, all fractional.
U4_4 = FxpFormat(total_bits=4, frac_bits=4, signed=False)


@dataclass(frozen=True)
class FxpValue:
    raw: int
    fmt: FxpFormat

    def __post_init__(self):
        if not self.fmt.raw_min <= self.raw <= self.fmt.raw_max:
            raise ValueError(f"raw {self.raw} outside {self.fmt}")

    @property
    def real(self) -> float:
        return self.raw / self.fmt.scale


def truncate_to_format(value: float, fmt: FxpFormat) -> FxpValue:
    """Truncate a real in [0, 1] down to an unsigned code.

    Values at (or marginally above) 1.0 clamp to the top code; normalized
    data legitimately hits 1.0 and must stay representable.
    """
    if fmt.signed:
        raise ValueError("input truncation is defined for unsigned formats only")
    if value < 0:
        raise ValueError(f"negative input {value!r} is not representable")
    raw = math.floor(value * fmt.scale)
    return FxpValue(min(raw, fmt.raw_max), fmt)


def width_for_range(lo: int, hi: int) -> int:
    """Smallest two's-complement width whose range contains both lo and hi."""
    if lo > hi:
        raise ValueError(f"lo {lo} exceeds hi {hi}")
    width = 1
    while not (fits(lo, width) and fits(hi, width)):
        width += 1
    return width
