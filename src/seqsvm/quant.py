"""Post-training quantization: 4-bit input truncation, per-row scaling of
the float table to the narrowest precision that keeps accuracy, and
accumulator-width profiling.

``table_words`` is the one rounding of a float table: row r times its
scale, rounded half to even and clipped to the width's symmetric range. It
takes the min-max scales (``quantize_model``), the calibrated ones
(``calibrate_model``: per row, the multiple of the min-max scale in
``MULTIPLES`` whose integer row agrees in sign with the float row on the
most training samples of its pair) and a model document's (``modelio``).
``search_param_bits`` finds the narrowest adequate min-max width, then walks
down from it while the calibrated tables stay adequate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .ddag import check_ovo, ddag_predict_float, ddag_predict_quant, kernel_words, row_pairs, score_table
from .fxp import (BLOCK_ELEMENTS, MAX_INPUT_BITS, U4_4, FxpFormat, check_array, check_int, first_bad, fits, max_int,
                  min_int, width_for_range, within_drop)
from .trainer import FloatSvmModel, read_only_table

#: Parameter widths the model, the HDL and the --max-param-bits flag accept.
MIN_PARAM_BITS, MAX_PARAM_BITS = 2, 16
#: Multiples of a row's min-max scale that the calibration tries: 1 to 4 in
#: quarter steps. Above 1, the row's largest coefficients clip (Banner et
#: al., NeurIPS 2019) and its small ones gain resolution.
MULTIPLES = tuple(1 + k / 4 for k in range(13))


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
    It is int64 and read-only, taken as ``fxp.check_array`` takes an int
    array and range-checked once, here, by its extremes, the first offender
    named; ``scales`` is a read-only float64 copy too. The bias code is left-shifted by ``bias_shift`` (the input's
    bits, all fractional) before accumulation so products and bias share one
    binary point; the shift is free wiring in bespoke logic.
    """

    n_classes: int
    n_features: int
    input_fmt: FxpFormat
    param_bits: int
    words: np.ndarray
    scales: np.ndarray  # float64, one finite number > 0 per row
    acc_width: int = 0  # set by profile_accumulator

    def __post_init__(self):
        bits = self.param_bits
        check_int("param_bits", bits, MIN_PARAM_BITS, MAX_PARAM_BITS)  # before any word is looked at
        rows = len(row_pairs("ovo", self.n_classes))
        self.words = read_only_table(self.words, rows, self.n_features, int)
        if self.words.min() < min_int(bits) or self.words.max() > max_int(bits):
            r, p = first_bad(self.words.tolist(), lambda p: fits(p, bits))
            raise ValueError(f"vector {r}: parameter {p} exceeds {bits} bits")
        self.scales = check_scales("scales", self.scales, rows).copy()
        self.scales.flags.writeable = False

    @property
    def bias_shift(self) -> int:
        return self.input_fmt.total_bits

    def input_codes(self, codes) -> np.ndarray:
        """``codes`` as an int64 samples x n_features matrix, rejecting any
        code outside the input format: the emitted Verilog keeps only the low
        input bits of each code, so such a code would run differently there."""
        X = check_array("codes", codes, int, ("samples", self.n_features))
        if X.size and (X.min() < 0 or X.max() >= 1 << MAX_INPUT_BITS):
            raise ValueError(f"input codes must be unsigned {MAX_INPUT_BITS}-bit integers")
        if X.size and X.max() > self.input_fmt.raw_max:
            raise ValueError(f"input code {X.max()} does not fit the model's "
                             f"{self.input_fmt.total_bits}-bit input format")
        return X


def check_scales(name: str, scales, rows: int) -> np.ndarray:
    """``scales`` as ``fxp.check_array`` takes them, one finite number per
    row, each also > 0, else a ValueError naming ``name`` and the first bad scale."""
    scales = check_array(name, scales, float, (rows,))
    if rows and scales.min() <= 0:
        bad = int(np.argmax(scales <= 0))
        raise ValueError(f"{name}[{bad}] must be > 0, got {scales[bad].item()!r}")
    return scales


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
    sign_flips: int


def quantize_inputs(ds_or_features, fmt: FxpFormat = U4_4) -> np.ndarray:
    """Elementwise truncation of normalized, finite features (samples x m) to
    unsigned codes, clamped in float so that any feature above 1 gives ``raw_max``."""
    X = ds_or_features.features if isinstance(ds_or_features, Dataset) else ds_or_features
    X = check_array("features", X, float, ("samples", "features"))
    if X.size and X.min() < 0.0:
        raise ValueError("features must be normalized to [0, 1] before quantization")
    codes = np.empty(X.shape, dtype=np.int64)
    block = max(1, BLOCK_ELEMENTS // max(1, X[:1].size))  # samples per block
    top = fmt.raw_max / fmt.scale  # exact, and truncates to raw_max like every feature from it up
    for start in range(0, len(X), block):
        scaled = np.minimum(X[start:start + block], top)
        codes[start:start + block] = np.floor(np.multiply(scaled, fmt.scale, out=scaled), out=scaled)
    return codes


def table_words(coefs: np.ndarray, scales: np.ndarray, param_bits: int) -> np.ndarray:
    """The int64 words of float table ``coefs`` at ``scales``, one per row
    (or a stack of such scale vectors, for a stack of tables): each row
    times its scale, rounded half to even, clipped to +-(2**(param_bits-1) - 1)."""
    top = float(max_int(param_bits))
    with np.errstate(over="ignore"):  # an infinite product clips like any other
        scaled = np.multiply(coefs, scales[..., None])
    return np.clip(np.rint(scaled, out=scaled), -top, top, out=scaled).astype(np.int64)


def _minmax_scales(coefs, param_bits: int) -> np.ndarray:
    """The min-max scale of every row of ``coefs`` (one support vector's
    coefficients each) at param_bits, all rows at once: the one that maps
    the row's largest |coefficient| onto 2**(param_bits-1) - 1.

    An all-zero row keeps scale 1 and is flagged with one warning. A row
    whose scale overflows, its largest |coefficient| being too small, is
    rejected before any cast.
    """
    top = float(max_int(param_bits))
    peak = np.abs(coefs).max(axis=1, initial=0.0)
    zero = peak == 0.0
    for _ in range(np.count_nonzero(zero)):
        warnings.warn("all-zero support vector; quantizing to zeros with scale 1")
    with np.errstate(over="ignore"):
        scales = top / np.where(zero, top, peak)
    bad = np.flatnonzero(~np.isfinite(scales))
    if len(bad):
        raise ValueError(f"vector {bad[0]}: largest |coefficient| {float(peak[bad[0]])!r} is too small to "
                         f"scale to {param_bits} bits")
    return scales


def quantize_model(fmodel: FloatSvmModel, param_bits: int, input_fmt: FxpFormat = U4_4,
                   scales=None) -> QuantizedModel:
    """Quantize every OvO row independently (a per-row scale > 0 keeps
    signs), at ``scales``, one per row, or at the min-max scales."""
    check_ovo(fmodel)
    check_int("param_bits", param_bits, MIN_PARAM_BITS, MAX_PARAM_BITS)
    if scales is None:
        scales = _minmax_scales(fmodel.coefs, param_bits)
    else:
        scales = check_scales("scales", scales, len(fmodel.coefs))
    words = table_words(fmodel.coefs, scales, param_bits)
    return QuantizedModel(fmodel.n_classes, fmodel.n_features, input_fmt, param_bits, words, scales)


def _training_signs(fmodel: FloatSvmModel, train: Dataset, input_fmt: FxpFormat) -> tuple:
    """What the calibration compares with: the training input codes, and per
    class c (c's samples, the table rows of c's pairs, and whether each of
    those float rows scores each of those samples >= 0, the DAG's verdict y
    for the pair's lower class, summed in ``score_table``'s fixed order)."""
    codes = quantize_inputs(train, input_fmt)
    pairs, m = np.array(row_pairs("ovo", fmodel.n_classes)), fmodel.n_features
    per_class = []
    for c in range(fmodel.n_classes):
        samples = np.flatnonzero(train.labels == c)
        rows = np.flatnonzero((pairs == c).any(axis=1))
        signs = np.empty((len(rows), len(samples)), dtype=bool)
        for start, col, acc in score_table(fmodel.coefs[rows], train.features[samples]):
            if col == m:
                np.greater_equal(acc, 0.0, out=signs[:, start:start + acc.shape[1]])
        per_class.append((samples, rows, signs))
    return codes, per_class


def _agreement(words: np.ndarray, bias_shift: int, training_signs: tuple) -> np.ndarray:
    """counts[k, r]: on how many training samples of row r's class pair
    integer row r of table k (``words`` is a stack of word tables) scores
    with the sign of float row r, both taking y = (score >= 0).

    The integer scores are exact: every |score| stays below (m+1)*2**31
    (see fxp.MAX_INPUT_BITS), so below 2**53, where float64 sums integers
    exactly in any order, BLAS's included. A class's samples are scored a
    block of BLOCK_ELEMENTS // (tables * (n-1)) at a time.
    """
    codes, per_class = training_signs
    k, rows, width = words.shape
    exact = np.float64 if width << 31 < 1 << 53 else np.int64
    table = words.astype(exact)
    table[:, :, 0] *= 1 << bias_shift
    counts = np.zeros((k, rows), dtype=np.int64)
    for samples, pair_rows, signs in per_class:
        tables = table[:, pair_rows].reshape(-1, width)  # (k * (n-1), m+1), table-major
        block = max(1, BLOCK_ELEMENTS // len(tables))
        for start in range(0, len(samples), block):
            x = codes[samples[start:start + block]].astype(exact)
            scores = x @ tables[:, 1:].T
            scores += tables[:, 0]
            y = (scores >= 0).reshape(len(x), k, len(pair_rows))
            counts[:, pair_rows] += (y == signs[:, start:start + block].T[:, None, :]).sum(axis=0)
    return counts


def _calibrated(fmodel: FloatSvmModel, param_bits: int, input_fmt: FxpFormat, training_signs: tuple):
    """``calibrate_model``'s table, given ``_training_signs``."""
    minmax = _minmax_scales(fmodel.coefs, param_bits)
    with np.errstate(over="ignore"):
        candidates = np.multiply.outer(MULTIPLES, minmax)  # (multiples, rows)
    overflows = ~np.isfinite(candidates)
    candidates = np.where(overflows, minmax, candidates)  # a finite stand-in, never chosen
    counts = _agreement(table_words(fmodel.coefs, candidates, param_bits), input_fmt.total_bits, training_signs)
    counts[overflows] = -1
    best = np.argmax(counts, axis=0)  # the first, smallest multiple of the most agreeing ones
    return quantize_model(fmodel, param_bits, input_fmt, candidates[best, np.arange(len(best))])


def calibrate_model(fmodel: FloatSvmModel, param_bits: int, train: Dataset, input_fmt: FxpFormat = U4_4):
    """``fmodel`` quantized to ``param_bits`` at calibrated scales: row r's
    scale is the multiple in MULTIPLES of its min-max scale whose integer
    row agrees in sign with float row r on the most samples of ``train``
    labelled with either class of its pair, the smallest such multiple on a
    tie, so the min-max scale stays unless it is strictly beaten. A multiple
    that overflows is skipped; an all-zero row keeps scale 1 and its warning."""
    check_ovo(fmodel)
    check_int("param_bits", param_bits, MIN_PARAM_BITS, MAX_PARAM_BITS)
    return _calibrated(fmodel, param_bits, input_fmt, _training_signs(fmodel, train, input_fmt))


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
    """The narrowest table whose DDAG test accuracy is ``fxp.within_drop``
    of the float DDAG test accuracy.

    Tries the min-max tables at param_bits = MIN_PARAM_BITS..max_bits
    ascending and keeps the first adequate one, of width w0; then walks down
    from w0-1, keeping each calibrated table (``calibrate_model``, on
    ``train``) while it stays adequate. So no table is wider than the
    min-max search's, and at w0 it is the min-max one. Falls back to the
    min-max table at max_bits with the flag set when no table qualifies.
    Each table's accuracy is one ``ddag_predict_quant`` walk of the whole test split."""
    check_int("max_bits", max_bits, MIN_PARAM_BITS, MAX_PARAM_BITS)
    if not test.n_samples:
        raise ValueError("the precision search needs test samples")
    float_acc = float(np.mean(ddag_predict_float(fmodel, test.features) == test.labels))
    test_codes = quantize_inputs(test, input_fmt)
    training_signs = _training_signs(fmodel, train, input_fmt)

    def accuracy(qm: QuantizedModel) -> float:
        return float(np.mean(ddag_predict_quant(qm, test_codes) == test.labels))

    flagged = False
    for bits in range(MIN_PARAM_BITS, max_bits + 1):
        chosen = quantize_model(fmodel, bits, input_fmt)
        chosen_acc = accuracy(chosen)
        if within_drop(float_acc, chosen_acc):
            break
    else:
        flagged = True  # the last try, at max_bits, stays chosen
    for bits in [] if flagged else range(chosen.param_bits - 1, MIN_PARAM_BITS - 1, -1):
        calibrated = _calibrated(fmodel, bits, input_fmt, training_signs)
        calibrated_acc = accuracy(calibrated)
        if not within_drop(float_acc, calibrated_acc):
            break
        chosen, chosen_acc = calibrated, calibrated_acc

    _, lo, hi = profile_accumulator(chosen, training_signs[0])
    # the (row, training sample of its pair) pairs whose integer sign is not the float one
    pairs = sum(signs.size for _, _, signs in training_signs[1])
    agreeing = int(_agreement(chosen.words[None], chosen.bias_shift, training_signs).sum())
    report = QuantReport(
        param_bits=chosen.param_bits,
        float_accuracy=float_acc,
        quantized_accuracy=chosen_acc,
        accuracy_drop=float_acc - chosen_acc,
        acc_width=chosen.acc_width,
        partial_min=lo,
        partial_max=hi,
        max_precision_flag=flagged,
        sign_flips=pairs - agreeing,
    )
    return chosen, report
