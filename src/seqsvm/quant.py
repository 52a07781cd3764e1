"""Post-training quantization: 4-bit input truncation, per-row min-max
scaling of the float table to the smallest precision that keeps accuracy,
and accumulator-width profiling."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .ddag import ddag_predict_float, ddag_predict_quant, kernel_words, row_pairs, score_table
from .fxp import (BLOCK_ELEMENTS, MAX_INPUT_BITS, U4_4, FxpFormat, check_int, finite_number, first_bad, fits, max_int,
                  min_int, width_for_range)
from .trainer import FloatSvmModel, read_only_table

#: Accepted accuracy drop, in accuracy fraction (0.5 percentage points).
MAX_ACCURACY_DROP = 0.005
#: Parameter widths the model, the HDL and the --max-param-bits flag accept.
MIN_PARAM_BITS, MAX_PARAM_BITS = 2, 16


def QuantVector(class_a: int, class_b: int, weights, bias: int) -> list[int]:
    """Word-table row [bias, w_1..w_m]; the pair is ignored, as row r of a
    table is the r-th pair of ``ddag.row_pairs``. Kept only for
    bench/shapes.py, until the benchmark next changes; new code writes the
    rows itself."""
    return [bias, *weights]


@dataclass(eq=False)
class QuantizedModel:
    """Integer OvO model as its word table, plus every width the hardware
    needs.

    ``words`` row r is [bias, w_1..w_m] of the r-th class pair in
    lexicographic order (``ddag.row_pairs``): memory row r, bias at word 0.
    It is int64 and read-only, range-checked once, here: an int64 array by
    its extremes, anything else value by value, exactly even past int64,
    and the first offender named either way. The bias code is
    left-shifted by ``bias_shift`` (the input's bits, all fractional) before
    accumulation so products and bias share one binary point; the shift is
    free wiring in bespoke logic.
    """

    n_classes: int
    n_features: int
    input_fmt: FxpFormat
    param_bits: int
    words: np.ndarray
    scales: list[float]  # one finite number > 0 per row
    acc_width: int = 0  # set by profile_accumulator

    def __post_init__(self):
        bits = self.param_bits
        check_int("param_bits", bits, MIN_PARAM_BITS, MAX_PARAM_BITS)  # before any word is looked at
        rows = len(row_pairs("ovo", self.n_classes))
        int64 = isinstance(self.words, np.ndarray) and self.words.dtype == np.int64
        # anything but an int64 array as Python ints, exact even past int64
        table = read_only_table(self.words, rows, self.n_features, np.int64 if int64 else object)
        if not int64 or table.min() < min_int(bits) or table.max() > max_int(bits):
            bad = first_bad(table.tolist(), lambda p: fits(p, bits))
            if bad:
                raise ValueError(f"vector {bad[0]}: parameter {bad[1]} exceeds {bits} bits")
        self.words = table if int64 else read_only_table(table, rows, self.n_features, np.int64)
        if not (isinstance(self.scales, list) and len(self.scales) == rows):
            raise ValueError(f"scales must be a list of one number per vector ({rows}), got {self.scales!r:.40}")
        bad = next((r for r, s in enumerate(self.scales) if not (finite_number(s) and s > 0)), None)
        if bad is not None:
            raise ValueError(f"vector {bad}: scale {self.scales[bad]!r} is not a finite number > 0")
        self.scales = [float(s) for s in self.scales]

    @property
    def bias_shift(self) -> int:
        return self.input_fmt.total_bits

    def input_codes(self, codes) -> np.ndarray:
        """``codes`` as an int64 samples x n_features matrix, rejecting any
        code outside the input format: the emitted Verilog keeps only the low
        input bits of each code, so such a code would run differently there."""
        X = np.asarray(codes, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"need a samples x {self.n_features} code matrix, got shape {X.shape}")
        if X.size and (X.min() < 0 or X.max() >= 1 << MAX_INPUT_BITS):
            raise ValueError(f"input codes must be unsigned {MAX_INPUT_BITS}-bit integers")
        if X.size and X.max() > self.input_fmt.raw_max:
            raise ValueError(
                f"input code {int(X.max())} does not fit the model's "
                f"{self.input_fmt.total_bits}-bit input format"
            )
        return X


@dataclass
class QuantReport:
    param_bits: int
    float_accuracy: float
    quantized_accuracy: float
    accuracy_drop: float
    acc_width: int
    partial_min: int
    partial_max: int
    max_precision_flag: bool


def quantize_inputs(ds_or_features, fmt: FxpFormat = U4_4) -> np.ndarray:
    """Elementwise truncation of normalized features to unsigned codes."""
    X = ds_or_features.features if isinstance(ds_or_features, Dataset) else ds_or_features
    X = np.asarray(X, dtype=np.float64)
    if X.size and X.min() < 0.0:
        raise ValueError("features must be normalized to [0, 1] before quantization")
    codes = np.empty(X.shape, dtype=np.int64)
    block = max(1, BLOCK_ELEMENTS // max(1, X[:1].size))  # samples per block
    for start in range(0, len(X), block):
        scaled = X[start:start + block] * fmt.scale
        part = codes[start:start + block]
        part[...] = np.floor(scaled, out=scaled)
        np.minimum(part, fmt.raw_max, out=part)
    return codes


def _scale_rows(coefs, param_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Min-max linear scaling of every row of ``coefs`` (one support vector's
    coefficients each) to signed param_bits codes, all rows at once.

    A row's scale maps its largest-magnitude coefficient onto
    2**(param_bits-1) - 1; rounding is half-to-even. An all-zero row keeps
    scale 1 and is flagged with one warning. A row whose scale overflows,
    its largest |coefficient| being too small, is rejected before any cast.
    Returns the int64 codes and the float64 scales.
    """
    C = np.asarray(coefs, dtype=np.float64)
    top = float((1 << (param_bits - 1)) - 1)
    peak = np.abs(C).max(axis=1, initial=0.0)
    zero = peak == 0.0
    for _ in range(np.count_nonzero(zero)):
        warnings.warn("all-zero support vector; quantizing to zeros with scale 1")
    with np.errstate(over="ignore"):
        scales = top / np.where(zero, top, peak)
    bad = np.flatnonzero(~np.isfinite(scales))
    if len(bad):
        raise ValueError(f"vector {bad[0]}: largest |coefficient| {float(peak[bad[0]])!r} is too small to "
                         f"scale to {param_bits} bits")
    return np.clip(np.rint(C * scales[:, None]), -top, top).astype(np.int64), scales


def quantize_model(fmodel: FloatSvmModel, param_bits: int, input_fmt: FxpFormat = U4_4) -> QuantizedModel:
    """Quantize every OvO row independently (per-row scale preserves signs)."""
    if fmodel.kind != "ovo":
        raise ValueError("only OvO models map onto the sequential architecture")
    check_int("param_bits", param_bits, MIN_PARAM_BITS, MAX_PARAM_BITS)
    codes, scales = _scale_rows(fmodel.coefs, param_bits)
    return QuantizedModel(fmodel.n_classes, fmodel.n_features, input_fmt, param_bits, codes, scales.tolist())


def partial_sum_extremes(qm: QuantizedModel, train_codes: np.ndarray) -> tuple[int, int]:
    """Extremes over every accumulator prefix: the shifted bias, then the value
    after each MAC, for every row on every sample.

    ddag.score_table sums the prefixes in the narrowest integer type that
    ``kernel_words`` proves exact for them.
    """
    X = qm.input_codes(train_codes)
    table = kernel_words(qm)
    # the bias load is a prefix even with no samples, and the same on every sample
    lo, hi = int(table[:, 0].min()), int(table[:, 0].max())
    for _, col, acc in score_table(table, X):
        if col:
            lo, hi = min(lo, int(acc.min())), max(hi, int(acc.max()))
    return lo, hi


def profile_accumulator(qm: QuantizedModel, train_codes: np.ndarray) -> tuple[int, int, int]:
    """Size the accumulator to the exact prefix-sum range seen on training
    data. Returns the width and the (lo, hi) extremes it was sized from.

    No guard bits: undersizing at test time is observable (the simulator wraps
    and flags), not silent.
    """
    lo, hi = partial_sum_extremes(qm, train_codes)
    qm.acc_width = width_for_range(lo, hi)
    return qm.acc_width, lo, hi


def search_param_bits(
    fmodel: FloatSvmModel,
    train: Dataset,
    test: Dataset,
    input_fmt: FxpFormat = U4_4,
    max_bits: int = 8,
) -> tuple[QuantizedModel, QuantReport]:
    """Try param_bits = MIN_PARAM_BITS..max_bits ascending; keep the first
    precision whose DDAG test accuracy sits within MAX_ACCURACY_DROP of the
    float DDAG test accuracy. Falls back to max_bits with the flag set."""
    check_int("max_bits", max_bits, MIN_PARAM_BITS, MAX_PARAM_BITS)
    float_acc = float(np.mean(ddag_predict_float(fmodel, test.features) == test.labels))
    test_codes = quantize_inputs(test, input_fmt)
    train_codes = quantize_inputs(train, input_fmt)

    flagged = False
    for bits in range(MIN_PARAM_BITS, max_bits + 1):
        chosen = quantize_model(fmodel, bits, input_fmt)
        chosen_acc = float(np.mean(ddag_predict_quant(chosen, test_codes) == test.labels))
        if float_acc - chosen_acc <= MAX_ACCURACY_DROP + 1e-12:
            break
    else:
        flagged = True  # the last try, at max_bits, stays chosen

    _, lo, hi = profile_accumulator(chosen, train_codes)
    report = QuantReport(
        param_bits=chosen.param_bits,
        float_accuracy=float_acc,
        quantized_accuracy=chosen_acc,
        accuracy_drop=float_acc - chosen_acc,
        acc_width=chosen.acc_width,
        partial_min=lo,
        partial_max=hi,
        max_precision_flag=flagged,
    )
    return chosen, report
