"""Two's-complement fixed-point primitives shared by the quantizer, the
reference classifier, and the cycle-accurate simulator, the block size of
their array loops, and the library's one implementation of each argument
check: ``finite_number``, ``in_range`` and ``range_text``, ``check_int``,
which every integer argument goes through, and ``first_bad``, the scan of a
parameter table."""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np


#: Widest unsigned input code the integer kernels accept. With parameter
#: words of at most 16 bits, every partial sum then stays below (m+1)*2**31
#: in magnitude, so int64 arithmetic is exact. The kernels run in the
#: narrowest of int16, int32 and int64 that their model's row bound proves
#: exact (``ddag.kernel_words``), int64 being the widest they need.
MAX_INPUT_BITS = 16

#: Elements per block of every array loop whose work grows with the sample
#: count (the DAG walks, input quantization, prefix-sum profiling, float
#: scoring, the steps of the SGD lanes), so a block's temporaries take a few
#: hundred kB whatever the problem's size.
BLOCK_ELEMENTS = 1 << 15


def finite_number(value) -> bool:
    """Whether ``value`` is an int, a float or a numpy integer or floating
    scalar of at most 64 bits (no bool of either), finite in float64."""
    if isinstance(value, (np.integer, np.floating)):
        value = value.item()
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def in_range(value, lo, hi=None, kind=int) -> bool:
    """Whether ``value`` lies in the range (lo, hi, kind): an int (no bool,
    no numpy integer) in lo.. or lo..hi, or a finite number strictly between
    lo and hi."""
    if kind is float:
        return finite_number(value) and lo < value < hi
    return type(value) is int and value >= lo and (hi is None or value <= hi)


def range_text(lo, hi=None, kind=int) -> str:
    """The range (lo, hi, kind) in words: "strictly between 0 and 1", ">= 0" or "in 1..16"."""
    if kind is float:
        return f"strictly between {lo} and {hi}"
    return f">= {lo}" if hi is None else f"in {lo}..{hi}"


def check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Reject ``value`` unless it is an int (no bool) in lo.. or lo..hi, naming it ``name``."""
    if not in_range(value, lo, hi):
        raise ValueError(f"{name} must be an integer {range_text(lo, hi)}, got {value!r}")


def first_bad(rows, ok) -> tuple | None:
    """(r, p) for the first parameter p of ``rows`` (each [bias, w_1..w_m])
    that ``ok`` rejects, scanning row by row, each row's weights before its
    bias, where r is p's row; None if ``ok`` accepts every one."""
    return next(((r, p) for r, row in enumerate(rows) for p in (*row[1:], row[0]) if not ok(p)), None)


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
        check_int("total_bits", self.total_bits, 1, MAX_INPUT_BITS)

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
