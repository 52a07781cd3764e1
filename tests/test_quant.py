import numpy as np
import pytest

from helpers import random_quantized_model
from seqsvm.dataset import Dataset
from seqsvm.ddag import build_ddag, ddag_predict_float, ddag_predict_quant, pair_index
from seqsvm.fxp import U4_4, FxpFormat, fits
from seqsvm.quant import (
    MAX_ACCURACY_DROP,
    QuantizedModel,
    QuantVector,
    partial_sum_extremes,
    profile_accumulator,
    quantize_inputs,
    quantize_model,
    search_param_bits,
)
from seqsvm.trainer import FloatSvmModel, SupportVector


def _prefixes_oracle(qm, codes):
    """Independent pure-python prefix enumeration (bias first, then each MAC)."""
    out = []
    for vec in qm.vectors:
        for row in codes:
            acc = vec.bias << qm.bias_shift
            out.append(acc)
            for w, x in zip(vec.weights, row):
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

    def test_accepts_dataset(self):
        ds = Dataset(np.array([[0.5, 1.0]]), np.array([0]), ["a", "b"])
        assert quantize_inputs(ds).tolist() == [[8, 15]]


def _scale_one(weights, bias, param_bits):
    """One support vector's (weights, bias, scale) as quantize_model scales it."""
    vec = SupportVector(0, 1, np.asarray(weights, dtype=float), bias)
    qm = quantize_model(FloatSvmModel("ovo", 2, len(vec.weights), [vec]), param_bits)
    return qm.vectors[0].weights, qm.vectors[0].bias, qm.scales[0]


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
    vectors = []
    k = 0
    for a in range(n):
        for b in range(a + 1, n):
            vectors.append(SupportVector(a, b, np.asarray(weight_rows[k], dtype=float), float(biases[k])))
            k += 1
    return FloatSvmModel("ovo", n, m, vectors)


def _dataset_on_grid(fmodel, dag, n_samples, min_margin, seed):
    """Inputs on the 1/16 grid (input truncation is exact), margins above
    min_margin at every vector, labeled by the float DAG itself."""
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n_samples:
        x = rng.integers(0, 16, fmodel.n_features) / 16.0
        margins = [abs(float(x @ v.weights + v.bias)) for v in fmodel.vectors]
        if min(margins) > min_margin:
            rows.append(x)
    X = np.array(rows)
    labels = ddag_predict_float(fmodel, dag, X)
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
        dag = build_ddag(n)
        train = _dataset_on_grid(fmodel, dag, 60, 0.01, seed=2)
        test = _dataset_on_grid(fmodel, dag, 40, 0.01, seed=3)
        qm, report = search_param_bits(fmodel, train, test, dag=dag)
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
        dag = build_ddag(n)
        # 0.25 margin floor guarantees the finest precision flips nothing,
        # while coarse codes still mislabel plenty
        train = _dataset_on_grid(fmodel, dag, 150, 0.25, seed=4)
        test = _dataset_on_grid(fmodel, dag, 150, 0.25, seed=5)

        # independent oracle: accuracy at every precision, brute force
        float_acc = float(np.mean(ddag_predict_float(fmodel, dag, test.features) == test.labels))
        codes = quantize_inputs(test)
        per_bits = {}
        for bits in range(2, 9):
            cand = quantize_model(fmodel, bits)
            per_bits[bits] = float(np.mean(ddag_predict_quant(cand, dag, codes) == test.labels))
        adequate = [b for b in range(2, 9) if float_acc - per_bits[b] <= MAX_ACCURACY_DROP + 1e-12]

        qm, report = search_param_bits(fmodel, train, test, dag=dag)
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
        assert report.acc_width == qm.acc_width == profile_accumulator(qm, codes)

    def test_rejects_ova(self, blobs3_split):
        from seqsvm.trainer import Hyper, train_ova

        train, test = blobs3_split
        ova = train_ova(train, Hyper(epochs=2))
        with pytest.raises(ValueError, match="OvO"):
            search_param_bits(ova, train, test)


class TestProfileAccumulator:
    def _single_vector_model(self, weights, bias):
        qm = QuantizedModel(2, len(weights), U4_4, 8, [QuantVector(0, 1, list(weights), bias)], [1.0])
        return qm

    def test_all_zero_width_one(self):
        qm = self._single_vector_model([0, 0], 0)
        assert profile_accumulator(qm, np.zeros((4, 2), dtype=int)) == 1

    def test_single_weight_seven(self):
        # max prefix 7*15 = 105 -> fits s8, not s7
        qm = self._single_vector_model([7], 0)
        assert profile_accumulator(qm, np.array([[15], [3]])) == 8

    def test_negative_heavy(self):
        # prefixes 0, -78, -169, -260; -260 needs 10 bits (s9 floor is -256)
        qm = self._single_vector_model([-6, -7, -7], 0)
        codes = np.array([[13, 13, 13]])
        oracle = _prefixes_oracle(qm, codes)
        assert min(oracle) == -260
        assert profile_accumulator(qm, codes) == 10

    def test_matches_oracle_random(self):
        qm, codes = random_quantized_model(4, 5, 6, seed=21)
        oracle = _prefixes_oracle(qm, codes)
        lo, hi = partial_sum_extremes(qm, codes)
        assert (lo, hi) == (min(oracle), max(oracle))

    def test_no_overflow_at_width_and_overflow_below(self, blobs3_quant, blobs3_split):
        qm, _, _ = blobs3_quant
        train, _ = blobs3_split
        codes = quantize_inputs(train, qm.input_fmt)
        prefixes = _prefixes_oracle(qm, codes)
        assert all(fits(p, qm.acc_width) for p in prefixes)
        assert any(not fits(p, qm.acc_width - 1) for p in prefixes)


class TestQuantizedModelInvariants:
    def test_vector_order_matches_rows(self, blobs3_quant):
        qm, _, _ = blobs3_quant
        for i, vec in enumerate(qm.vectors):
            assert pair_index(vec.class_a, vec.class_b, qm.n_classes) == i

    def test_aligned_bias_fits_accumulator(self, blobs3_quant):
        qm, _, _ = blobs3_quant
        for vec in qm.vectors:
            assert fits(vec.bias << qm.bias_shift, qm.acc_width)

    def test_report_consistent_with_recomputation(self, blobs3_quant, blobs3_split, blobs3_model):
        qm, report, dag = blobs3_quant
        _, test = blobs3_split
        float_acc = float(np.mean(ddag_predict_float(blobs3_model, dag, test.features) == test.labels))
        codes = quantize_inputs(test, qm.input_fmt)
        q_acc = float(np.mean(ddag_predict_quant(qm, dag, codes) == test.labels))
        assert report.float_accuracy == float_acc
        assert report.quantized_accuracy == q_acc
        assert report.accuracy_drop == float_acc - q_acc
        assert report.accuracy_drop <= MAX_ACCURACY_DROP or report.max_precision_flag

    def test_prediction_invariant_under_prescale(self, blobs3_model, blobs3_split):
        _, test = blobs3_split
        dag = build_ddag(blobs3_model.n_classes)
        scaled = FloatSvmModel(
            "ovo",
            blobs3_model.n_classes,
            blobs3_model.n_features,
            [
                SupportVector(v.class_a, v.class_b, v.weights * (3.0 if i == 1 else 1.0),
                              v.bias * (3.0 if i == 1 else 1.0))
                for i, v in enumerate(blobs3_model.vectors)
            ],
        )
        base = quantize_model(blobs3_model, 5)
        other = quantize_model(scaled, 5)
        for va, vb in zip(base.vectors, other.vectors):
            assert va.weights == vb.weights and va.bias == vb.bias

    def test_oversized_parameter_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            QuantizedModel(2, 1, U4_4, 4, [QuantVector(0, 1, [9], 0)], [1.0])

    @pytest.mark.parametrize(
        "params, message",
        [
            # (weights, bias) of vectors (0,1), (0,2), (1,2) at 4 bits: -8..7
            ((([1, 7], -8), ([8, -9], 9), ([-99, 0], 0)), "vector 1: parameter 8 exceeds 4 bits"),
            ((([1, 7], -8), ([7, -9], 9), ([-99, 0], 0)), "vector 1: parameter -9 exceeds 4 bits"),
            ((([1, 7], -8), ([7, -8], 9), ([-99, 0], 0)), "vector 1: parameter 9 exceeds 4 bits"),
            ((([1, 7], -8), ([7, -8], 9), ([0], 0)), "vector 1: parameter 9 exceeds 4 bits"),
            ((([1, 7], -8), ([7], 99), ([-99, 0], 0)), "vector 1: wrong weight count"),
            ((([1, 7], -8), ([7, 0, 0], 0), ([0, 0], 0)), "vector 1: wrong weight count"),
            ((([1, 7], -8), ([7, -8], 0), ([2**70, 0], 0)), f"vector 2: parameter {2**70} exceeds 4 bits"),
        ],
    )
    def test_first_offender_named(self, params, message):
        # vector order first, then the weights in order, then the bias
        vectors = [QuantVector(a, b, w, bias) for (a, b), (w, bias) in zip([(0, 1), (0, 2), (1, 2)], params)]
        with pytest.raises(ValueError, match=f"^{message}$"):
            QuantizedModel(3, 2, U4_4, 4, vectors, [1.0] * 3)


class TestInputFormatBounds:
    BAD = [FxpFormat(17), FxpFormat(63), FxpFormat(70), FxpFormat(32)]

    @pytest.mark.parametrize("fmt", BAD)
    def test_quantize_inputs_rejects(self, fmt):
        with pytest.raises(ValueError, match="1..16 bits"):
            quantize_inputs(np.ones((2, 3)), fmt)

    @pytest.mark.parametrize("fmt", BAD)
    def test_model_rejects(self, fmt):
        with pytest.raises(ValueError, match="1..16 bits"):
            QuantizedModel(2, 1, fmt, 4, [QuantVector(0, 1, [1], 0)], [1.0])

    def test_sixteen_bits_accepted(self):
        codes = quantize_inputs(np.array([[1.0, 0.5, 0.0]]), FxpFormat(16))
        assert codes.tolist() == [[65535, 32768, 0]]
