from functools import partial

import numpy as np
import pytest

from helpers import random_quantized_model
from seqsvm.dataset import Dataset
from seqsvm.ddag import ddag_predict_float, ddag_predict_quant
from seqsvm.fxp import U4_4, FxpFormat, fits
from seqsvm.quant import (
    MAX_ACCURACY_DROP,
    QuantizedModel,
    partial_sum_extremes,
    profile_accumulator,
    quantize_inputs,
    quantize_model,
    search_param_bits,
)
from seqsvm.trainer import FloatSvmModel


def _prefixes_oracle(qm, codes):
    """Independent pure-python prefix enumeration (bias first, then each MAC)."""
    out = []
    for bias, *weights in qm.words.tolist():
        for row in codes:
            acc = bias << qm.bias_shift
            out.append(acc)
            for w, x in zip(weights, row):
                acc += w * int(x)
                out.append(acc)
    return out


class TestQuantizeInputs:
    def test_zeros(self):
        assert np.all(quantize_inputs(np.zeros((3, 4))) == 0)

    def test_one_clamps(self):
        assert quantize_inputs(np.array([[1.0]]))[0, 0] == 15

    def test_point_fifty_five(self):
        # floor(0.55 * 16) = 8
        assert quantize_inputs(np.array([[0.55]]))[0, 0] == 8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            quantize_inputs(np.array([[-0.1]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_feature_that_is_not_finite(self, value):
        # NaN passed the normalization test and became the code -2**63
        features = np.full((2, 21), 0.5)
        features[1, 3] = value
        with pytest.raises(ValueError, match=rf"^features\[1, 3\] must be a finite number, got {value!r}$"):
            quantize_inputs(features)
        with pytest.raises(ValueError, match=rf"^features\[0, 0\] must be a finite number, got {value!r}$"):
            quantize_inputs(np.array([[value] * 21]))

    def test_accepts_dataset(self):
        ds = Dataset(np.array([[0.5, 1.0]]), np.array([0]), ["a", "b"])
        assert quantize_inputs(ds).tolist() == [[8, 15]]


def _scale_one(weights, bias, param_bits):
    """One support vector's (weights, bias, scale) as quantize_model scales it."""
    qm = quantize_model(FloatSvmModel("ovo", 2, len(weights), [[bias, *weights]]), param_bits)
    bias, *weights = qm.words[0].tolist()
    return weights, bias, qm.scales[0]


class TestScaleVector:
    def test_unit_weight(self):
        iw, ib, s = _scale_one([1.0], 0.0, 4)
        assert (iw, ib, s) == ([7], 0, 7.0)

    def test_hand_example_half_even(self):
        # s = 7; 0.5*7 = 3.5 rounds to even 4; 0.25*7 = 1.75 rounds to 2
        iw, ib, s = _scale_one([0.5, -1.0], 0.25, 4)
        assert iw == [4, -7]
        assert ib == 2
        assert s == 7.0

    def test_bias_can_set_the_peak(self):
        iw, ib, _ = _scale_one([0.5], -2.0, 4)
        assert ib == -7
        assert iw == [2]  # 0.5 * 3.5 = 1.75 -> 2

    def test_zero_vector_flagged(self):
        with pytest.warns(UserWarning, match="all-zero"):
            iw, ib, s = _scale_one([0.0, 0.0], 0.0, 4)
        assert (iw, ib, s) == ([0, 0], 0, 1.0)

    @pytest.mark.parametrize("bits", [1, 17])
    def test_width_checked_before_scaling(self, bits, recwarn):
        # an all-zero row warns only if scaling is reached
        with pytest.raises(ValueError, match=f"^param_bits must be an integer in 2..16, got {bits}$"):
            quantize_model(FloatSvmModel("ovo", 2, 1, [[0.0, 0.0]]), bits)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("peak, bits", [(1e-305, 16), (5e-324, 2), (5e-324, 16)])
    def test_row_too_small_to_scale_named(self, peak, bits, recwarn):
        # its scale overflows; 0 * inf would be NaN, and NaN casts to INT64_MIN
        rows = [[1.0, -2.0], [0.0, 0.5], [-peak, peak / 2]]
        with pytest.raises(ValueError, match=f"^vector 2: largest \\|coefficient\\| {peak!r} is too small to scale "
                                             f"to {bits} bits$"):
            quantize_model(FloatSvmModel("ovo", 3, 1, rows), bits)
        assert len(recwarn) == 0

    def test_tiny_row_scales_where_its_scale_is_finite(self):
        rows = [[1.0, -2.0], [0.0, 0.5], [-1e-305, 5e-306]]
        assert quantize_model(FloatSvmModel("ovo", 3, 1, rows), 8).words[2].tolist() == [-127, 64]

    def test_codes_fit_param_bits(self):
        rng = np.random.default_rng(0)
        for bits in range(2, 9):
            w = rng.normal(size=8)
            iw, ib, _ = _scale_one(w, float(rng.normal()), bits)
            top = (1 << (bits - 1)) - 1
            assert all(-top <= v <= top for v in iw + [ib])

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = rng.normal(size=5)
            b = float(rng.normal())
            base = _scale_one(w, b, 5)
            scaled = _scale_one(w * 7.0, b * 7.0, 5)
            assert base[0] == scaled[0] and base[1] == scaled[1]


def _float_model_from_weights(n, weight_rows, biases, m):
    return FloatSvmModel("ovo", n, m, np.column_stack([biases, weight_rows]))


def _dataset_on_grid(fmodel, n_samples, min_margin, seed):
    """Inputs on the 1/16 grid (input truncation is exact), margins above
    min_margin at every vector, labeled by the float DAG itself."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n_samples:
        x = rng.integers(0, 16, fmodel.n_features) / 16.0
        margins = [abs(float(x @ c[1:] + c[0])) for c in fmodel.coefs]
        if min(margins) > min_margin:
            rows.append(x)
    X = np.array(rows)
    labels = ddag_predict_float(fmodel, X)
    names = [str(c) for c in range(fmodel.n_classes)]
    ds = Dataset(X, labels, names)
    ds.normalization = [(0.0, 1.0)] * fmodel.n_features
    return ds


class TestSearchParamBits:
    def test_already_exact_in_two_bits(self):
        # weights/biases in {-1, 0, 1}: 2-bit codes are exact, so on grid
        # inputs every decision matches and the drop is exactly zero
        m, n = 4, 3
        weight_rows = [[1, -1, 0, 1], [0, 1, -1, -1], [1, 0, 1, -1]]
        biases = [-1, 1, 0]
        fmodel = _float_model_from_weights(n, weight_rows, biases, m)
        train = _dataset_on_grid(fmodel, 60, 0.01, seed=2)
        test = _dataset_on_grid(fmodel, 40, 0.01, seed=3)
        qm, report = search_param_bits(fmodel, train, test)
        assert report.param_bits == 2
        assert report.accuracy_drop == 0.0
        assert not report.max_precision_flag

    def test_returns_first_adequate_precision(self):
        # fine-structured weights: coarse codes mislabel, finer ones recover
        rng = np.random.default_rng(12)
        m, n = 6, 3
        weight_rows = rng.normal(size=(3, m))
        weight_rows[:, 0] *= 4.0  # one dominant weight starves the others of resolution
        biases = rng.normal(size=3) * 0.1
        fmodel = _float_model_from_weights(n, weight_rows, biases, m)
        # 0.25 margin floor guarantees the finest precision flips nothing,
        # while coarse codes still mislabel plenty
        train = _dataset_on_grid(fmodel, 150, 0.25, seed=4)
        test = _dataset_on_grid(fmodel, 150, 0.25, seed=5)

        # independent oracle: accuracy at every precision, brute force
        float_acc = float(np.mean(ddag_predict_float(fmodel, test.features) == test.labels))
        codes = quantize_inputs(test)
        per_bits = {}
        for bits in range(2, 9):
            cand = quantize_model(fmodel, bits)
            per_bits[bits] = float(np.mean(ddag_predict_quant(cand, codes) == test.labels))
        adequate = [b for b in range(2, 9) if float_acc - per_bits[b] <= MAX_ACCURACY_DROP + 1e-12]

        qm, report = search_param_bits(fmodel, train, test)
        assert adequate, "fixture defect: no adequate precision"
        assert report.param_bits == adequate[0]
        assert report.param_bits > 2, "fixture defect: too easy to quantize"
        assert report.quantized_accuracy == per_bits[report.param_bits]

    def test_flag_when_nothing_qualifies(self, blobs3_split, blobs3_model):
        train, test = blobs3_split
        qm, report = search_param_bits(blobs3_model, train, test, max_bits=2)
        # either 2 bits is fine or the flag is set; both honor the contract
        if report.max_precision_flag:
            assert report.accuracy_drop > MAX_ACCURACY_DROP
        assert report.param_bits == 2

    def test_profiles_the_chosen_model_once(self, blobs3_split, blobs3_model, monkeypatch):
        import seqsvm.quant as quant

        train, test = blobs3_split
        calls = []
        counted = lambda qm, codes: calls.append(qm) or partial_sum_extremes(qm, codes)  # noqa: E731
        monkeypatch.setattr(quant, "partial_sum_extremes", counted)
        qm, report = search_param_bits(blobs3_model, train, test)
        assert calls == [qm]
        codes = quantize_inputs(train, qm.input_fmt)
        assert (report.partial_min, report.partial_max) == partial_sum_extremes(qm, codes)
        assert report.acc_width == qm.acc_width == profile_accumulator(qm, codes)[0]

    @pytest.mark.parametrize("max_bits", [1, 17, 99])
    def test_max_bits_outside_the_model_widths_rejected(self, blobs3_split, blobs3_model, max_bits):
        train, test = blobs3_split
        with pytest.raises(ValueError, match=f"^max_bits must be an integer in 2..16, got {max_bits}$"):
            search_param_bits(blobs3_model, train, test, max_bits=max_bits)

    def test_rejects_ova(self, blobs3_split):
        from seqsvm.trainer import Hyper, train_ova

        train, test = blobs3_split
        ova = train_ova(train, Hyper(epochs=2), seed=0)
        with pytest.raises(ValueError, match="OvO"):
            search_param_bits(ova, train, test)


    def test_quantize_model_rejects_ova(self, blobs3_model):
        # check_ovo, the library's one OvO check, before the width is looked at
        ova = FloatSvmModel("ova", 3, blobs3_model.n_features, blobs3_model.coefs)
        with pytest.raises(ValueError, match="^a DAG walks OvO models only, not a 'ova' model$"):
            quantize_model(ova, 99)


class TestProfileAccumulator:
    def _single_vector_model(self, weights, bias):
        qm = QuantizedModel(2, len(weights), U4_4, 8, [[bias, *weights]], [1.0])
        return qm

    def test_all_zero_width_one(self):
        qm = self._single_vector_model([0, 0], 0)
        assert profile_accumulator(qm, np.zeros((4, 2), dtype=int))[0] == 1

    def test_single_weight_seven(self):
        # max prefix 7*15 = 105 -> fits s8, not s7
        qm = self._single_vector_model([7], 0)
        assert profile_accumulator(qm, np.array([[15], [3]]))[0] == 8

    def test_negative_heavy(self):
        # prefixes 0, -78, -169, -260; -260 needs 10 bits (s9 floor is -256)
        qm = self._single_vector_model([-6, -7, -7], 0)
        codes = np.array([[13, 13, 13]])
        oracle = _prefixes_oracle(qm, codes)
        assert min(oracle) == -260
        assert profile_accumulator(qm, codes)[0] == 10

    def test_matches_oracle_random(self):
        qm, codes = random_quantized_model(4, 5, 6, seed=21)
        oracle = _prefixes_oracle(qm, codes)
        lo, hi = partial_sum_extremes(qm, codes)
        assert (lo, hi) == (min(oracle), max(oracle))
        assert profile_accumulator(qm, codes) == (qm.acc_width, lo, hi)

    def test_no_overflow_at_width_and_overflow_below(self, blobs3_quant, blobs3_split):
        qm, _ = blobs3_quant
        train, _ = blobs3_split
        codes = quantize_inputs(train, qm.input_fmt)
        prefixes = _prefixes_oracle(qm, codes)
        assert all(fits(p, qm.acc_width) for p in prefixes)
        assert any(not fits(p, qm.acc_width - 1) for p in prefixes)


class TestQuantizedModelInvariants:
    def test_vector_order_matches_rows(self, blobs3_quant, blobs3_model):
        # row r of the word table is row r of the float table, scaled on its own
        qm, _ = blobs3_quant
        for r, coefs in enumerate(blobs3_model.coefs):
            one = quantize_model(FloatSvmModel("ovo", 2, blobs3_model.n_features, [coefs]), qm.param_bits)
            assert one.words[0].tolist() == qm.words[r].tolist()

    def test_aligned_bias_fits_accumulator(self, blobs3_quant):
        qm, _ = blobs3_quant
        for bias in qm.words[:, 0].tolist():
            assert fits(bias << qm.bias_shift, qm.acc_width)

    def test_report_consistent_with_recomputation(self, blobs3_quant, blobs3_split, blobs3_model):
        qm, report = blobs3_quant
        _, test = blobs3_split
        float_acc = float(np.mean(ddag_predict_float(blobs3_model, test.features) == test.labels))
        codes = quantize_inputs(test, qm.input_fmt)
        q_acc = float(np.mean(ddag_predict_quant(qm, codes) == test.labels))
        assert report.float_accuracy == float_acc
        assert report.quantized_accuracy == q_acc
        assert report.accuracy_drop == float_acc - q_acc
        assert report.accuracy_drop <= MAX_ACCURACY_DROP or report.max_precision_flag

    def test_prediction_invariant_under_prescale(self, blobs3_model, blobs3_split):
        _, test = blobs3_split
        scale = np.array([[1.0], [3.0], [1.0]])  # row 1 only
        scaled = FloatSvmModel("ovo", blobs3_model.n_classes, blobs3_model.n_features, blobs3_model.coefs * scale)
        base = quantize_model(blobs3_model, 5)
        other = quantize_model(scaled, 5)
        assert np.array_equal(base.words, other.words)

    def test_oversized_parameter_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            QuantizedModel(2, 1, U4_4, 4, [[0, 9]], [1.0])

    # (weights, bias) of vectors (0,1), (0,2), (1,2) at 4 bits: -8..7
    FIRST_OFFENDERS = [
        ((([1, 7], -8), ([8, -9], 9), ([-99, 0], 0)), "vector 1: parameter 8 exceeds 4 bits"),
        ((([1, 7], -8), ([7, -9], 9), ([-99, 0], 0)), "vector 1: parameter -9 exceeds 4 bits"),
        ((([1, 7], -8), ([7, -8], 9), ([-99, 0], 0)), "vector 1: parameter 9 exceeds 4 bits"),
        ((([1, 7], -8), ([7, -8], 9), ([0, 0], 99)), "vector 1: parameter 9 exceeds 4 bits"),
        ((([1, 7], -9), ([8, -8], 9), ([0, 0], 0)), "vector 0: parameter -9 exceeds 4 bits"),
        ((([1, 7], -8), ([7, -8], 0), ([0, 8], 0)), "vector 2: parameter 8 exceeds 4 bits"),
    ]

    @pytest.mark.parametrize(
        "params, message",
        FIRST_OFFENDERS + [
            ((([1, 7], -8), ([7, -8], 0), ([2**70, 0], 0)),
             rf"words\[2, 1\] must be an integer that fits int64, got {2**70}"),
            ((([1, 7], -8), ([7, -8], 0), ([0, 2**63], 0)),
             rf"words\[2, 2\] must be an integer that fits int64, got {2**63}"),
            ((([1, 7], -8), ([7, -8], 0), ([0, 0], -2**63 - 1)),
             rf"words\[2, 0\] must be an integer that fits int64, got {-2**63 - 1}"),
        ],
    )
    def test_first_offender_named(self, params, message):
        # vector order first, then the weights in order, then the bias; a
        # list's word past int64 is named exactly, by its index
        words = [[bias, *weights] for weights, bias in params]
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuantizedModel(3, 2, U4_4, 4, words, [1.0] * 3)

    @pytest.mark.parametrize(
        "params, message",
        FIRST_OFFENDERS + [
            ((([1, 7], -8), ([7, -8], 0), ([-2**63, 2**63 - 1], 0)), f"vector 2: parameter {-2**63} exceeds 4 bits"),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_an_array_names_the_first_offender_as_its_list_does(self, params, message, dtype):
        # an int64 array is range-checked by its extremes, then named as its
        # rows are; an array of any other dtype is checked value by value
        words = np.array([[bias, *weights] for weights, bias in params], dtype=dtype)
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuantizedModel(3, 2, U4_4, 4, words, [1.0] * 3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuantizedModel(3, 2, U4_4, 4, words.tolist(), [1.0] * 3)

    def test_weights_named_before_bias_in_memory(self):
        words = [[-8, 1, 7], [9, 8, -9], [0, -99, 0]]  # rows [bias, w_1, w_2]
        with pytest.raises(ValueError, match="^vector 1: parameter 8 exceeds 4 bits$"):
            QuantizedModel(3, 2, U4_4, 4, words, [1.0] * 3)

    @pytest.mark.parametrize("scales, message", [
        (np.array([1.0, -0.5, 1.0]), r"scales\[1\] must be > 0, got -0\.5"),
        ([1.0, 1.0], r"scales must have shape \(3,\), got \(2,\)"),
        ([1.0, 0.0, 1.0], r"scales\[1\] must be > 0, got 0\.0"),
        ([1.0, 1.0, float("inf")], r"scales\[2\] must be a finite number, got inf"),
        ([10**400, 1.0, 1.0], r"scales\[0\] must be a finite number, got 1000+"),
        ([1.0, False, 1.0], r"scales\[1\] must be a finite number, got False"),
        ([1.0, None, 1.0], r"scales\[1\] must be a finite number, got None"),
        ([1.0, np.bool_(True), 1.0], r"scales\[1\] must be a finite number, got True"),
        ([1.0, 1.0, np.float64("nan")], r"scales\[2\] must be a finite number, got nan"),
        ([np.int64(-2), 1.0, 1.0], r"scales\[0\] must be > 0, got -2\.0"),
        (["0.5", 1.0, 1.0], r"scales\[0\] must be a finite number, got '0\.5'"),
    ])
    def test_one_finite_positive_scale_per_row(self, scales, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuantizedModel(3, 1, U4_4, 4, [[0, 1]] * 3, scales)
        # ints are numbers too, and the model keeps its own float64 copy of a list
        given = [1, 0.5, 2]
        qm = QuantizedModel(3, 1, U4_4, 4, [[0, 1]] * 3, given)
        given[0] = -1
        assert qm.scales.dtype == np.float64 and qm.scales.tolist() == [1.0, 0.5, 2.0]
        # so are numpy integer and floating scalars, in a list, a tuple or an
        # array, of which the model keeps a read-only copy too
        for given in ([np.float64(0.17), np.int64(2), np.float32(0.5)], (0.17, 2, 0.5), np.array([0.17, 2.0, 0.5])):
            qm = QuantizedModel(3, 1, U4_4, 4, [[0, 1]] * 3, given)
            if not isinstance(given, tuple):
                given[0] = -1
            assert qm.scales.dtype == np.float64 and qm.scales.tolist() == [0.17, 2.0, 0.5]
            with pytest.raises(ValueError, match="read-only"):
                qm.scales[0] = 1.0


class TestInputFormatBounds:
    # FxpFormat itself rejects a width past 16 bits, so the format is built on
    # the way into each call: neither path can be handed one
    BAD = [partial(FxpFormat, 17), partial(FxpFormat, 63), partial(FxpFormat, 70), partial(FxpFormat, 32)]

    @pytest.mark.parametrize("fmt", BAD)
    def test_quantize_inputs_rejects(self, fmt):
        with pytest.raises(ValueError, match="^total_bits must be an integer in 1..16, got"):
            quantize_inputs(np.ones((2, 3)), fmt())

    @pytest.mark.parametrize("fmt", BAD)
    def test_model_rejects(self, fmt):
        with pytest.raises(ValueError, match="^total_bits must be an integer in 1..16, got"):
            QuantizedModel(2, 1, fmt(), 4, [[0, 1]], [1.0])

    def test_sixteen_bits_accepted(self):
        codes = quantize_inputs(np.array([[1.0, 0.5, 0.0]]), FxpFormat(16))
        assert codes.tolist() == [[65535, 32768, 0]]
