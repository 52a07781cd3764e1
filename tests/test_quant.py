from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_quantized_model
from seqsvm.dataset import Dataset, split
from seqsvm.ddag import ddag_predict_float, ddag_predict_quant, row_pairs
from seqsvm.fxp import MAX_ACCURACY_DROP, U4_4, FxpFormat, fits
from seqsvm.quant import (
    MULTIPLES,
    QuantizedModel,
    calibrate_model,
    partial_sum_extremes,
    profile_accumulator,
    quantize_inputs,
    quantize_model,
    search_param_bits,
    table_words,
)
from seqsvm.synth import BUNDLED, bundled_dataset
from seqsvm.trainer import FloatSvmModel, Hyper, train_ovo


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

    @pytest.mark.parametrize("bits", [1, 4, 16])
    def test_any_finite_feature_above_one_gives_raw_max(self, bits):
        # clamped in float before the cast: 1e300 became the code -2**63, with
        # a RuntimeWarning for the cast, and a product past float64 would overflow
        fmt = FxpFormat(bits)
        features = np.array([[1.0, 1.0 + 2.0 ** -52, 2.0, 1e300, np.finfo(np.float64).max]])
        assert quantize_inputs(features, fmt).tolist() == [[fmt.raw_max] * 5]


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
    return Dataset(X, labels, names, None, [(0.0, 1.0)] * fmodel.n_features)


def _test_accuracy(qm, test):
    return float(np.mean(ddag_predict_quant(qm, quantize_inputs(test, qm.input_fmt)) == test.labels))


def _adequate(fmodel, test, qm):
    float_acc = float(np.mean(ddag_predict_float(fmodel, test.features) == test.labels))
    return float_acc - _test_accuracy(qm, test) <= MAX_ACCURACY_DROP + 1e-12


def _minmax_search(fmodel, test, max_bits):
    """The first adequate min-max width, brute force, or None."""
    return next((b for b in range(2, max_bits + 1) if _adequate(fmodel, test, quantize_model(fmodel, b))), None)


def _assert_search_oracle(fmodel, train, test, max_bits, qm, report):
    """``search_param_bits``' result, ``qm`` and ``report``, is the narrowest
    table of the rule, brute force: the min-max table at the first adequate
    width w0, or the calibrated table at the lowest width b below w0 with
    every calibrated table from b to w0-1 adequate; the min-max table at
    max_bits, flagged, when no min-max width is adequate."""
    w0 = _minmax_search(fmodel, test, max_bits)
    want = quantize_model(fmodel, max_bits if w0 is None else w0)
    for bits in [] if w0 is None else range(w0 - 1, 1, -1):
        calibrated = calibrate_model(fmodel, bits, train)
        if not _adequate(fmodel, test, calibrated):
            break
        want = calibrated
    assert (qm.param_bits, qm.words.tolist(), qm.scales.tolist()) == (
        want.param_bits, want.words.tolist(), want.scales.tolist())
    assert report.max_precision_flag == (w0 is None)
    assert report.quantized_accuracy == _test_accuracy(want, test)


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
        qm, report = search_param_bits(fmodel, train, test)
        assert _minmax_search(fmodel, test, 8), "fixture defect: no adequate precision"
        assert report.param_bits > 2, "fixture defect: too easy to quantize"
        _assert_search_oracle(fmodel, train, test, 8, qm, report)

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

    def test_rejects_a_test_split_without_samples(self, blobs3_split, blobs3_model):
        # its accuracy would be 0/0: NaN, with numpy's warning, before
        train, test = blobs3_split
        empty = Dataset(test.features[:0], test.labels[:0], test.label_names)
        with pytest.raises(ValueError, match="^the precision search needs test samples$"):
            search_param_bits(blobs3_model, train, empty)

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


def _noisy(name="noisy6x11", seed=1):
    """A bundled noisy dataset's split and its OvO model: noise leaves rows
    whose signs a larger multiple of the min-max scale keeps better."""
    train, test = split(bundled_dataset(name, seed=seed), 0.8, seed)
    return train, test, train_ovo(train, Hyper(lam=0.02, epochs=12), seed=seed)


def _float_signs(row, features):
    """Float row ``row``'s verdicts (score >= 0) on ``features``, summed bias
    first, then one product per feature, as the DAG walk sums them."""
    signs = []
    for x in features:
        score = row[0]
        for w, v in zip(row[1:], x):
            score += w * v
        signs.append(score >= 0)
    return signs


def _agreements(row, scales, bits, features, codes, shift=4):
    """For each scale, on how many samples the integer row at that scale
    has the float row's sign: pure Python, words rounded half to even."""
    top = (1 << (bits - 1)) - 1
    floats = _float_signs(row, features)
    counts = []
    for scale in scales:
        words = [max(-top, min(top, round(c * scale))) for c in row]
        ints = [(words[0] << shift) + sum(w * x for w, x in zip(words[1:], code)) >= 0 for code in codes]
        counts.append(sum(i == f for i, f in zip(ints, floats)))
    return counts


class TestCalibration:
    def test_each_row_takes_the_first_multiple_of_the_most_agreement(self):
        train, _, fmodel = _noisy()
        bits, top = 3, 3
        qm = calibrate_model(fmodel, bits, train)
        features, codes, labels = train.features.tolist(), quantize_inputs(train).tolist(), train.labels.tolist()
        above_one = ties = 0
        for r, ((a, b), row) in enumerate(zip(row_pairs("ovo", fmodel.n_classes), fmodel.coefs.tolist())):
            minmax = top / max(map(abs, row))
            pair = [s for s, label in enumerate(labels) if label in (a, b)]
            counts = _agreements(row, [k * minmax for k in MULTIPLES], bits, [features[s] for s in pair],
                                 [codes[s] for s in pair])
            best = counts.index(max(counts))
            assert qm.scales[r] == MULTIPLES[best] * minmax, r
            above_one += best > 0
            ties += counts.count(max(counts)) > 1
        assert above_one and ties, "fixture defect: no row rescaled, or no tie to break"
        assert qm.words.tolist() == table_words(fmodel.coefs, qm.scales, bits).tolist()

    def test_a_multiple_that_overflows_is_skipped(self):
        # at 2 bits the bias -0.45 rounds to 0 at the min-max scale and to -1
        # from 1.25 times it on, which agrees with the float row on more of
        # these samples, 18 of 26 against 8
        X = np.array([[k / 16] for k in range(16)] + [[0.0]] * 10)
        train = Dataset(X, np.arange(26) % 2, ["a", "b"])
        normal = FloatSvmModel("ovo", 2, 1, [[-0.45, 1.0]])
        assert calibrate_model(normal, 2, train).scales.tolist() == [1.25]
        # the same row scaled down: its min-max scale, about 1.5e308, is
        # finite, and every larger multiple overflows
        tiny = FloatSvmModel("ovo", 2, 1, [[-0.45 / 1.5e308, 1 / 1.5e308]])
        minmax = quantize_model(tiny, 2).scales
        assert np.finfo(float).max / 1.25 < minmax[0] < np.inf
        assert calibrate_model(tiny, 2, train).scales.tolist() == minmax.tolist()

    def test_an_all_zero_row_keeps_scale_one_and_its_warning(self):
        train, _, fmodel = _noisy()
        coefs = fmodel.coefs.copy()
        coefs[2] = 0.0
        zeroed = FloatSvmModel("ovo", fmodel.n_classes, fmodel.n_features, coefs)
        with pytest.warns(UserWarning, match="all-zero"):
            qm = calibrate_model(zeroed, 3, train)
        assert qm.scales[2] == 1.0 and not qm.words[2].any()

    def test_below_the_minmax_width_the_calibrated_tables(self):
        # noisy7x11 at seed 5: min-max needs 5 bits, the calibrated tables
        # hold at 4 and 3
        train, test, fmodel = _noisy("noisy7x11", 5)
        qm, report = search_param_bits(fmodel, train, test)
        assert report.param_bits < _minmax_search(fmodel, test, 8) - 1, "fixture defect: no calibrated descent"
        _assert_search_oracle(fmodel, train, test, 8, qm, report)

    def test_each_table_tried_is_one_walk_of_the_whole_test_split(self, monkeypatch):
        # noisy7x11 at seed 5 tries min-max and calibrated tables (see the
        # descent test above): each is scored by one ddag_predict_quant call
        import seqsvm.quant as quant

        train, test, fmodel = _noisy("noisy7x11", 5)
        walks = []

        def counted(qm, codes):
            walks.append((qm.param_bits, qm.words.tolist(), len(codes)))
            return ddag_predict_quant(qm, codes)

        monkeypatch.setattr(quant, "ddag_predict_quant", counted)
        search_param_bits(fmodel, train, test)
        w0 = _minmax_search(fmodel, test, 8)
        tried = [quantize_model(fmodel, bits) for bits in range(2, w0 + 1)]
        for bits in range(w0 - 1, 1, -1):
            tried.append(calibrate_model(fmodel, bits, train))
            if not _adequate(fmodel, test, tried[-1]):
                break
        assert walks == [(qm.param_bits, qm.words.tolist(), test.n_samples) for qm in tried]

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(sorted(BUNDLED)), seed=st.integers(0, 30), max_bits=st.integers(2, 8))
    def test_never_wider_than_the_minmax_search_and_minmax_at_its_width(self, name, seed, max_bits):
        train, test, fmodel = _noisy(name, seed)
        qm, report = search_param_bits(fmodel, train, test, max_bits=max_bits)
        w0 = _minmax_search(fmodel, test, max_bits) or max_bits
        assert qm.param_bits <= w0
        if qm.param_bits == w0:
            minmax = quantize_model(fmodel, w0)
            assert qm.words.tolist() == minmax.words.tolist() and qm.scales.tolist() == minmax.scales.tolist()
        _assert_search_oracle(fmodel, train, test, max_bits, qm, report)

    def test_sign_flips_count_the_shipped_table(self):
        # a calibrated table ships here (see the descent test above)
        train, test, fmodel = _noisy("noisy7x11", 5)
        qm, report = search_param_bits(fmodel, train, test)
        features, codes, labels = train.features.tolist(), quantize_inputs(train).tolist(), train.labels.tolist()
        flips = 0
        for (a, b), row, scale in zip(row_pairs("ovo", fmodel.n_classes), fmodel.coefs.tolist(), qm.scales.tolist()):
            pair = [s for s, label in enumerate(labels) if label in (a, b)]
            flips += len(pair) - _agreements(row, [scale], qm.param_bits, [features[s] for s in pair],
                                             [codes[s] for s in pair])[0]
        assert report.sign_flips == flips > 0


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
