"""Two's-complement fixed-point primitives shared by the quantizer, the
reference classifier, and the cycle-accurate simulator, the block size of
their array loops, and the library's one implementation of each argument
check: ``finite_number``, ``in_range`` and ``range_text``, ``check_int``,
which every integer argument goes through, ``check_array``, which every
sample matrix, model table and label or row vector goes through, and
``first_bad``, the scan of a parameter table; and ``MAX_ACCURACY_DROP``,
the one accuracy allowance of the width search and the input selection."""

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

#: Accepted accuracy drop, in accuracy fraction (0.5 percentage points):
#: ``quant.search_param_bits`` keeps the narrowest table, and
#: ``trainer.select_inputs`` the fewest inputs, whose accuracy is
#: ``within_drop`` of its reference.
MAX_ACCURACY_DROP = 0.005


def within_drop(reference: float, accuracy: float) -> bool:
    """Whether ``accuracy`` falls at most MAX_ACCURACY_DROP short of ``reference``."""
    return reference - accuracy <= MAX_ACCURACY_DROP + 1e-12


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


def check_array(name: str, values, kind: type, shape: tuple) -> np.ndarray:
    """``values`` as an int64 (``kind`` int) or float64 (``kind`` float)
    array of ``shape``, whose entries are lengths or words naming free ones;
    an array of the due dtype is returned as it is. Raises a ValueError
    naming ``name`` for another shape, and, with its index and value, for
    the first element that is not an int (no bool) that fits int64, or not a
    finite number (no bool, no string); an int past int64 is named exactly."""
    text, casts, dtype = ("an integer that fits int64", "iu", np.int64) if kind is int else (
        "a finite number", "iuf", np.float64)
    try:
        array = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    except ValueError as exc:  # a nesting numpy cannot even hold as objects
        raise ValueError(f"{name} is not an array: {exc}") from None
    if array.ndim != len(shape) or any(type(n) is int and n != k for n, k in zip(shape, array.shape)):
        dims = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ValueError(f"{name} must have shape ({dims}), got {array.shape}")
    if array.dtype.kind in casts and np.can_cast(array.dtype, dtype):
        array = array.astype(dtype, copy=False)
        # min and max carry any NaN or infinity without a samples-sized mask
        if kind is int or not array.size or np.isfinite([array.min(), array.max()]).all():
            return array
        items = array.ravel().tolist()
    else:
        items = [v.item() if isinstance(v, np.generic) else v for v in array.flat]
    ok = finite_number if kind is float else lambda v: in_range(v, min_int(64), max_int(64))
    bad = next((i for i, v in enumerate(items) if not ok(v)), None)
    if bad is None:
        return np.array(items, dtype=dtype).reshape(array.shape)
    index = ", ".join(map(str, np.unravel_index(bad, array.shape)))
    raise ValueError(f"{name}[{index}] must be {text}, got {items[bad]!r}")


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
