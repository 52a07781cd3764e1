"""Post-training quantization: 4-bit input truncation, per-vector min-max
scaling of weights and biases to the smallest precision that keeps accuracy,
and accumulator-width profiling."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .ddag import Ddag, build_ddag, check_codes, ddag_predict_float, ddag_predict_quant
from .fxp import MAX_INPUT_BITS, U4_4, FxpFormat, width_for_range
from .trainer import FloatSvmModel

#: Accepted accuracy drop, in accuracy fraction (0.5 percentage points).
MAX_ACCURACY_DROP = 0.005


@dataclass
class QuantVector:
    class_a: int
    class_b: int
    weights: list[int]
    bias: int  # stored at param_bits; engine consumes bias << bias_shift


def _check_input_fmt(fmt: FxpFormat) -> None:
    if fmt.total_bits > MAX_INPUT_BITS:
        raise ValueError(f"input format must have 1..{MAX_INPUT_BITS} bits, got {fmt}")


@dataclass
class QuantizedModel:
    """Integer OvO model plus every width the hardware needs.

    Vectors are ordered lexicographically by (class_a, class_b), matching
    memory row order. The bias code is left-shifted by ``bias_shift`` (the
    input's bits, all fractional) before accumulation so products and bias
    share one binary point; the shift is free wiring in bespoke logic.
    """

    n_classes: int
    n_features: int
    input_fmt: FxpFormat
    param_bits: int
    vectors: list[QuantVector]
    scales: list[float] = field(default_factory=list)
    acc_width: int = 0  # set by profile_accumulator

    def __post_init__(self):
        if not 2 <= self.param_bits <= 16:
            raise ValueError("param_bits out of range")
        _check_input_fmt(self.input_fmt)
        # the first offender in vector order, then weights before the bias
        ragged = [i for i, vec in enumerate(self.vectors) if len(vec.weights) != self.n_features]
        params = [[*vec.weights, vec.bias] for vec in self.vectors[:ragged[0] if ragged else None]]
        top = (1 << (self.param_bits - 1)) - 1
        table = np.array(params, ndmin=2)
        bad = np.argwhere(np.logical_not((table >= -top - 1) & (table <= top)))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"vector {i}: parameter {params[i][j]} exceeds {self.param_bits} bits")
        if ragged:
            raise ValueError(f"vector {ragged[0]}: wrong weight count")

    @property
    def bias_shift(self) -> int:
        return self.input_fmt.total_bits

    def profiled_acc_width(self) -> int:
        """``acc_width``, or an error if profile_accumulator has not sized it."""
        if self.acc_width < 1:
            raise ValueError("model has no accumulator width; run profile_accumulator first")
        return self.acc_width

    def word_table(self) -> np.ndarray:
        """The stored words: row r = [bias, w_1..w_m] of vector r."""
        return np.array([[v.bias, *v.weights] for v in self.vectors], dtype=np.int64)

    def input_codes(self, codes) -> np.ndarray:
        """``codes`` as an int64 samples x n_features matrix, rejecting any
        code outside the input format: the emitted Verilog keeps only the low
        input bits of each code, so such a code would run differently there."""
        X = check_codes(codes, self.n_features)
        if X.size and X.max() > self.input_fmt.raw_max:
            raise ValueError(
                f"input code {int(X.max())} does not fit the model's "
                f"{self.input_fmt.total_bits}-bit input format"
            )
        return X

    @property
    def n_vectors(self) -> int:
        return len(self.vectors)


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
    _check_input_fmt(fmt)
    codes = np.floor(X * fmt.scale).astype(np.int64)
    return np.minimum(codes, fmt.raw_max)


def _scale_rows(coefs, param_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Min-max linear scaling of every row of ``coefs`` (one support vector's
    coefficients each) to signed param_bits codes, all rows at once.

    A row's scale maps its largest-magnitude coefficient onto
    2**(param_bits-1) - 1; rounding is half-to-even. An all-zero row keeps
    scale 1 and is flagged with one warning. Returns the int64 codes and the
    float64 scales.
    """
    if param_bits < 2:
        raise ValueError("param_bits must be >= 2")
    C = np.asarray(coefs, dtype=np.float64)
    top = float((1 << (param_bits - 1)) - 1)
    peak = np.abs(C).max(axis=1, initial=0.0)
    zero = peak == 0.0
    for _ in range(np.count_nonzero(zero)):
        warnings.warn("all-zero support vector; quantizing to zeros with scale 1")
    scales = top / np.where(zero, top, peak)
    return np.clip(np.rint(C * scales[:, None]), -top, top).astype(np.int64), scales


def quantize_model(fmodel: FloatSvmModel, param_bits: int, input_fmt: FxpFormat = U4_4) -> QuantizedModel:
    """Quantize every OvO vector independently (per-vector scale preserves signs)."""
    if fmodel.kind != "ovo":
        raise ValueError("only OvO models map onto the sequential architecture")
    codes, scales = _scale_rows(fmodel.coef_table(), param_bits)
    vectors = [
        QuantVector(vec.class_a, vec.class_b, row[1:], row[0])
        for vec, row in zip(fmodel.vectors, codes.tolist())
    ]
    return QuantizedModel(
        fmodel.n_classes, fmodel.n_features, input_fmt, param_bits, vectors, scales.tolist()
    )


#: Samples x rows accumulator elements per block in partial_sum_extremes, so
#: its buffers take a few hundred kB whatever the model's size.
_BLOCK_ELEMENTS = 1 << 15


def partial_sum_extremes(qm: QuantizedModel, train_codes: np.ndarray) -> tuple[int, int]:
    """Extremes over every accumulator prefix: the shifted bias, then the value
    after each MAC, for every vector on every sample.

    The prefixes are summed column by column into preallocated buffers, a
    block of samples at a time, in int32 when no prefix can reach 2**31 (no
    row's |bias| << shift plus raw_max * sum|w| does) and in int64 otherwise.
    """
    X = qm.input_codes(train_codes)
    words = qm.word_table()
    biases = words[:, 0] << qm.bias_shift  # the bias load is a prefix even with no samples
    lo, hi = int(biases.min()), int(biases.max())
    bound = int((np.abs(biases) + qm.input_fmt.raw_max * np.abs(words[:, 1:]).sum(axis=1)).max())
    dtype = np.int32 if bound < 1 << 31 else np.int64
    weights = np.ascontiguousarray(words[:, 1:].T, dtype)  # row j: every vector's weight j
    Xt = np.ascontiguousarray(X.T, dtype)  # row j: every sample's code j
    block = max(1, _BLOCK_ELEMENTS // len(words))
    acc = np.empty((min(block, len(X)), len(words)), dtype)
    product = np.empty_like(acc)
    for start in range(0, len(X), block):
        x = Xt[:, start:start + block, None]
        a, p = acc[:x.shape[1]], product[:x.shape[1]]
        a[:] = biases
        for w, xj in zip(weights, x):
            np.multiply(xj, w, out=p)
            a += p
            lo, hi = min(lo, int(a.min())), max(hi, int(a.max()))
    return lo, hi


def profile_accumulator(qm: QuantizedModel, train_codes: np.ndarray) -> int:
    """Size the accumulator to the exact prefix-sum range seen on training data.

    No guard bits: undersizing at test time is observable (the simulator wraps
    and flags), not silent.
    """
    _size_accumulator(qm, train_codes)
    return qm.acc_width


def _size_accumulator(qm: QuantizedModel, train_codes: np.ndarray) -> tuple[int, int]:
    """Set ``qm.acc_width`` from the prefix-sum extremes on ``train_codes``;
    returns the extremes."""
    lo, hi = partial_sum_extremes(qm, train_codes)
    qm.acc_width = width_for_range(lo, hi)
    return lo, hi


def search_param_bits(
    fmodel: FloatSvmModel,
    train: Dataset,
    test: Dataset,
    input_fmt: FxpFormat = U4_4,
    max_bits: int = 8,
    dag: Ddag | None = None,
) -> tuple[QuantizedModel, QuantReport]:
    """Try param_bits = 2..max_bits ascending; keep the first precision whose
    DDAG test accuracy sits within MAX_ACCURACY_DROP of the float DDAG test
    accuracy. Falls back to max_bits with the flag set."""
    if max_bits < 2:
        raise ValueError("max_bits must be >= 2")
    if dag is None:
        dag = build_ddag(fmodel.n_classes)
    float_acc = float(np.mean(ddag_predict_float(fmodel, dag, test.features) == test.labels))
    test_codes = quantize_inputs(test, input_fmt)
    train_codes = quantize_inputs(train, input_fmt)

    flagged = False
    for bits in range(2, max_bits + 1):
        chosen = quantize_model(fmodel, bits, input_fmt)
        chosen_acc = float(np.mean(ddag_predict_quant(chosen, dag, test_codes) == test.labels))
        if float_acc - chosen_acc <= MAX_ACCURACY_DROP + 1e-12:
            break
    else:
        flagged = True  # the last try, at max_bits, stays chosen

    lo, hi = _size_accumulator(chosen, train_codes)
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
