"""Model documents round-trip bit for bit: a model written by model_doc,
printed canonically and read back by read_model_doc is the same model, and
writing its parts again gives the same bytes. The loader reads the fields
nothing else determines first, then rejects any other difference from what
model_doc writes, naming its path."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from helpers import document
from seqsvm.ddag import row_pairs
from seqsvm.fxp import FxpFormat, max_int, min_int
from seqsvm.modelio import check_written, dumps_canonical, model_doc, quantized_from_dict, read_model_doc
from seqsvm.dataset import Dataset, split
from seqsvm.quant import calibrate_model, quantize_model, table_words
from seqsvm.synth import bundled_dataset
from seqsvm.trainer import FloatSvmModel, Hyper, train_ovo

#: Finite doubles: signed zeros, subnormals, the smallest and largest
#: normals, and magnitudes from 1e-300 to 1e300.
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                     1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308]),
    st.floats(-1e-300, 1e-300),  # mostly subnormal
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent, st.floats(-9.99, 9.99), st.integers(-300, 299)),
    st.floats(allow_nan=False, allow_infinity=False),
)


#: JSON scalars, and numbers that the encoder writes its own way: ints past
#: 2**64, NaN and the infinities, and float subclasses such as np.float64.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, 2**64 + 1, -(2**70), 10**40]),
    FLOATS,
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")]),
    st.floats().map(np.float64),
    st.text(),
    st.sampled_from(['"\\/\n\r\t\b\f', "\x00\x1f\x7f", "é☃\U0001d11e", "\ud800"]),
)

KEYS = st.one_of(st.text(), st.sampled_from(["", "\n", '"', "é", "\U0001d11e"]))

#: Nested dicts (str keys, or int keys), lists and tuples, empty ones too, and
#: lists of one number type, which the writer joins in one call.
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=3),
        st.lists(FLOATS | st.floats(), max_size=5),
        st.lists(st.integers(), max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(obj=JSON_VALUES)
def test_writer_is_the_stdlib_encoder(obj):
    assert dumps_canonical(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@st.composite
def float_models(draw):
    kind = draw(st.sampled_from(["ovo", "ova"]))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 5))
    size = len(row_pairs(kind, n)) * (m + 1)
    values = draw(st.lists(FLOATS, min_size=size, max_size=size))
    return FloatSvmModel(kind, n, m, np.array(values).reshape(-1, m + 1))


@st.composite
def quantizable_models(draw):
    """An OvO float model whose rows all scale to the drawn parameter bits,
    and those bits."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 5))
    size = len(row_pairs("ovo", n)) * (m + 1)
    model = FloatSvmModel("ovo", n, m, np.reshape(draw(st.lists(FLOATS, min_size=size, max_size=size)), (-1, m + 1)))
    bits = draw(st.integers(2, 16))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an all-zero row
            quantize_model(model, bits)
    except ValueError:  # a row too small to scale
        reject()
    return model, bits


@settings(max_examples=200, deadline=None)
@given(model=float_models())
def test_float_model_document_round_trip(model):
    doc = document(model)
    parts = read_model_doc(doc, quantized=False)
    back = parts[3]
    assert (back.kind, back.n_classes, back.n_features) == (model.kind, model.n_classes, model.n_features)
    assert back.coefs.tobytes() == model.coefs.tobytes()
    assert dumps_canonical(model_doc(*parts)) == dumps_canonical(doc)


@pytest.mark.filterwarnings("ignore:all-zero support vector")
@settings(max_examples=200, deadline=None)
@given(case=quantizable_models(), input_bits=st.integers(1, 16), acc_width=st.integers(1, 64))
def test_quantized_document_round_trip(case, input_bits, acc_width):
    # the loader quantizes the float model again, to the same words and scales
    model, bits = case
    doc = document(model, bits, input_bits, acc_width)
    parts = read_model_doc(doc, quantized=True)
    back, want = parts[4], quantize_model(model, bits, FxpFormat(input_bits))
    assert (back.input_fmt, back.param_bits, back.acc_width) == (want.input_fmt, bits, acc_width)
    assert back.words.tobytes() == want.words.tobytes()
    assert np.array(back.scales).tobytes() == np.array(want.scales).tobytes()
    assert dumps_canonical(model_doc(*parts)) == dumps_canonical(doc)


@pytest.mark.filterwarnings("ignore:all-zero support vector")
@settings(max_examples=200, deadline=None)
@given(case=quantizable_models(), data=st.data())
def test_a_changed_word_is_refused_at_its_path(case, data):
    # any other word that fits param_bits, the bias at index 0
    model, bits = case
    doc = document(model, bits)
    r = data.draw(st.integers(0, len(model.coefs) - 1))
    j = data.draw(st.integers(0, model.n_features))
    vector = doc["quantized"]["vectors"][r]
    holder, key, path = (vector, "bias", "bias") if j == 0 else (vector["weights"], j - 1, f"weights.{j - 1}")
    word = holder[key]
    holder[key] = data.draw(st.integers(min_int(bits), max_int(bits)).filter(lambda w: w != word))
    message = f"quantized.vectors.{r}.{path} is {holder[key]}, the model writes {word}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_model_doc(doc, quantized=True)


#: A 3-class, 2-feature model whose rows [bias, w_1, w_2] quantize at 4 bits
#: to [2, 4, -7], [2, 1, 7] and [-5, 7, 2], with scales 3.5, 7/3 and 3.5.
_FMODEL = FloatSvmModel("ovo", 3, 2, [[0.5, 1.0, -2.0], [1.0, 0.25, 3.0], [-1.5, 2.0, 0.5]])


def _model_json():
    """model.json of ``_FMODEL`` at 4 input and 4 parameter bits."""
    return document(_FMODEL, 4)


def _edit(*changes):
    """model.json with each (path, value) of ``changes`` set."""
    doc = _model_json()
    for path, value in changes:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


SWAPPED = (("quantized", "vectors", 2, "class_a"), 2), (("quantized", "vectors", 2, "class_b"), 1)
DERIVED = (("ddag", "state_bits"), 40), (("seed", ), 5), *SWAPPED, (("quantized", "bias_shift"), 3)


@pytest.mark.parametrize("doc, message", [
    # the fields nothing else determines first, each with its own check:
    # config, hyper, the float model (its table before the quantized
    # widths), the quantized widths, then the scales
    (_edit(*DERIVED, (("config", "input_bits"), 17)), "config input_bits 17 is not an integer in 1..16"),
    (_edit(*DERIVED, (("hyper", "lam"), 0)), "hyper: lam must be finite and > 0, got 0"),
    (_edit(*DERIVED, (("float_model", "n_features"), 2.0)), "n_features must be an integer >= 1, got 2.0"),
    (_edit(*DERIVED, (("quantized", "param_bits"), 17)), "quantized.param_bits must be an integer in 2..16, got 17"),
    (_edit(*DERIVED, (("quantized", "param_bits"), 17), (("float_model", "vectors", 0, "weights"), [0.0])),
     "vector 0: wrong weight count"),
    (_edit(*DERIVED, (("quantized", "scales", 1), 0), (("dataset", "label_names"), 5)),
     "quantized.scales[1] must be > 0, got 0.0"),
    # then the comparison with what model_doc writes, in sorted key order;
    # the dataset's names are written back as read, so other names that fit pass
    (_edit(*DERIVED, (("dataset", "label_names"), ["x", "y", "z"]), (("dataset", "feature_names"), ["u", "v"])),
     "ddag.state_bits is 40, the model writes 2"),
    (_edit(*DERIVED[1:]), "quantized.bias_shift is 3, the model writes 4"),
    (_edit(*SWAPPED, DERIVED[1]), "quantized.vectors.2.class_a is 2, the model writes 1"),
    (_edit(DERIVED[1]), "seed is 5, the model writes 0"),
    # the words are derived from the scales: at 4.0 instead of 7/3 row 1 is
    # [4, 1, 7], not [2, 1, 7]
    (_edit(DERIVED[1], (("quantized", "vectors", 0, "bias"), 3)), "quantized.vectors.0.bias is 3, the model writes 2"),
    (_edit(DERIVED[1], (("quantized", "scales", 1), 4.0)), "quantized.vectors.1.bias is 2, the model writes 4"),
    # the dataset's names and normalization, after the quantized widths and
    # before the comparison: each must fit the model
    (_edit(*DERIVED, (("quantized", "param_bits"), 17), (("dataset", "label_names"), 5)),
     "quantized.param_bits must be an integer in 2..16, got 17"),
    (_edit(*DERIVED, (("dataset", "label_names"), 5)), "label_names must be a list of distinct strings, got 5"),
    (_edit(*DERIVED, (("dataset", "label_names"), ["x", "y"])),
     "dataset.label_names has 2 names, the model 3 classes"),
    (_edit(*DERIVED, (("dataset", "feature_names"), ["a"])),
     "feature_names must be None or a list of 2 strings, got ['a']"),
    (_edit(*DERIVED, (("dataset", "normalization"), [[0.0, 1.0], [1.0, 0.5]])),
     "normalization[1] must be (min, max) with min <= max, got (1.0, 0.5)"),
    # a null name list or normalization, which model_doc never writes, after
    # the quantized widths and before the comparison
    (_edit(*DERIVED, (("quantized", "param_bits"), 17), (("dataset", "normalization"), None)),
     "quantized.param_bits must be an integer in 2..16, got 17"),
    (_edit(*DERIVED, (("dataset", "feature_names"), None)), "dataset.feature_names is null"),
    (_edit(*DERIVED, (("dataset", "normalization"), None)), "dataset.normalization is null"),
])
def test_loader_check_order(doc, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        read_model_doc(doc, quantized=True)


@pytest.mark.parametrize("key", ["feature_names", "normalization"])
def test_the_writer_refuses_a_dataset_without_names_or_ranges(key):
    # a document records a training split's, as split() makes them, so
    # model_doc writes no null that its loader would refuse
    fields = {"feature_names": ["u", "v"], "normalization": [(0.0, 1.0)] * 2, key: None}
    dataset = Dataset(np.empty((0, 2)), [], ["a", "b", "c"], **fields)
    config = {"dataset": "data.csv", "label_column": "label", "seed": 0, "train_fraction": 0.8, "budget": 1}
    with pytest.raises(ValueError, match=f"^dataset.{key} is null"):
        model_doc(config, dataset, Hyper(), _FMODEL)


def _quantized_doc(pairs, weights, param_bits=4, total_bits=4):
    return {
        "input_fmt": {"total_bits": total_bits, "frac_bits": total_bits, "signed": False},
        "bias_shift": total_bits,
        "param_bits": param_bits,
        "acc_width": 8,
        "scales": [1.0] * len(pairs),
        "vectors": [{"class_a": a, "class_b": b, "weights": w, "bias": 0} for (a, b), w in zip(pairs, weights)],
    }


@pytest.mark.parametrize("doc, message", [
    # the widths are checked; the vectors, a wrong weight count and 99 in 4 bits, are never read
    (_quantized_doc(row_pairs("ovo", 3), [[0], [99, 0], [0, 0]], param_bits=17),
     "quantized.param_bits must be an integer in 2..16, got 17"),
    (_quantized_doc(row_pairs("ovo", 3), [[0], [99, 0], [0, 0]], total_bits=17),
     "total_bits must be an integer in 1..16, got 17"),
])
def test_quantized_loader_check_order(doc, message):
    # read_model_doc passes config.input_bits, which model_doc writes as input_fmt.total_bits
    with pytest.raises(ValueError, match=f"^{message}"):
        quantized_from_dict(doc, _FMODEL, doc["input_fmt"]["total_bits"])


def test_quantized_loader_reads_the_widths_and_the_scales():
    # the words are the quantizer's output for the float model, which must be
    # the OvO model the DAG walks, at the read scales; the vectors are never read
    fields = {"param_bits": 4, "acc_width": 9, "scales": [3.5, 4, 1.75]}
    qm = quantized_from_dict(fields, _FMODEL, 3)
    assert (qm.input_fmt, qm.param_bits, qm.acc_width) == (FxpFormat(3), 4, 9)
    assert qm.scales.tolist() == [3.5, 4.0, 1.75]
    assert qm.words.tolist() == [[2, 4, -7], [4, 1, 7], [-3, 4, 1]]
    assert qm.words.tobytes() == quantize_model(_FMODEL, 4, FxpFormat(3), fields["scales"]).words.tobytes()
    with pytest.raises(ValueError, match="^a DAG walks OvO models only, not a 'ova' model$"):
        quantized_from_dict(fields, FloatSvmModel("ova", 3, 2, _FMODEL.coefs), 3)


@pytest.mark.parametrize("path, value, message", [
    (("scales", 1), 0, "quantized.scales[1] must be > 0, got 0.0"),
    (("scales", 1), -1.5, "quantized.scales[1] must be > 0, got -1.5"),
    (("scales", 1), float("nan"), "quantized.scales[1] must be a finite number, got nan"),
    (("scales", 1), True, "quantized.scales[1] must be a finite number, got True"),
    (("scales", 1), "1.0", "quantized.scales[1] must be a finite number, got '1.0'"),
    (("scales",), [], "quantized.scales must have shape (3,), got (0,)"),
])
def test_a_bad_scale_is_refused_by_name(path, value, message):
    # each before any word is derived from it, or compared
    doc = _edit((("quantized", *path), value), (("quantized", "vectors", 0, "bias"), 99))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_model_doc(doc, quantized=True)


@pytest.mark.filterwarnings("ignore:all-zero support vector")
@settings(max_examples=200, deadline=None)
@given(case=quantizable_models(), data=st.data())
def test_a_changed_scale_is_refused_at_its_first_derived_word(case, data):
    # a scale is read, so another one passes with its own words, and without
    # them is refused at the first word of its row that it derives otherwise
    model, bits = case
    doc = document(model, bits)
    r = data.draw(st.integers(0, len(model.coefs) - 1))
    scales = doc["quantized"]["scales"]
    scales[r] = data.draw(st.floats(1e-300, 1e300).filter(lambda scale: scale != scales[r]))
    vector = doc["quantized"]["vectors"][r]
    stored = [vector["bias"], *vector["weights"]]
    derived = table_words(model.coefs[r:r + 1], np.array(scales[r:r + 1]), bits)[0].tolist()
    if derived == stored:
        assert dumps_canonical(model_doc(*read_model_doc(doc, quantized=True))) == dumps_canonical(doc)
        return
    j = next(j for j, (got, want) in enumerate(zip(stored, derived)) if got != want)
    path = "bias" if j == 0 else f"weights.{j - 1}"
    message = f"quantized.vectors.{r}.{path} is {stored[j]}, the model writes {derived[j]}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_model_doc(doc, quantized=True)


def test_a_calibrated_document_round_trips():
    # noisy7x11 at 3 bits rescales rows, which a document keeps exactly
    train, _ = split(bundled_dataset("noisy7x11", seed=1), 0.8, 1)
    model = train_ovo(train, Hyper(lam=0.02, epochs=12), seed=1)
    qm = calibrate_model(model, 3, train)
    assert (qm.scales != quantize_model(model, 3).scales).any(), "fixture defect: nothing rescaled"
    doc = document(model, 3, scales=qm.scales)
    back = read_model_doc(doc, quantized=True)[4]
    assert back.words.tobytes() == qm.words.tobytes() and back.scales.tobytes() == qm.scales.tobytes()
    assert dumps_canonical(model_doc(*read_model_doc(doc, quantized=True))) == dumps_canonical(doc)


@pytest.mark.parametrize("kind", ["ovo", "ova"])
def test_float_loader_checks_weight_counts_before_pairs(kind):
    doc = document(FloatSvmModel(kind, 3, 2, np.zeros((3, 3))))
    vectors = doc["float_model"]["vectors"]
    vectors[0]["weights"] = [0.0]
    vectors[2]["class_a"] = 9
    with pytest.raises(ValueError, match="^vector 0: wrong weight count"):
        read_model_doc(doc, quantized=False)
    vectors[0]["weights"] = [0.0, 0.0]
    written = row_pairs(kind, 3)[2][0]
    with pytest.raises(ValueError, match=f"^float_model.vectors.2.class_a is 9, the model writes {written}$"):
        read_model_doc(doc, quantized=False)


WRITTEN = {"a": 1, "b": [1.0, {"c": [True, None, "x"]}], "d": {"e": 2.5}}


@pytest.mark.parametrize("doc, message", [
    ({**WRITTEN, "a": 1.0}, "a is 1.0, the model writes 1"),
    ({**WRITTEN, "a": True}, "a is True, the model writes 1"),
    # two types swapped keep the count of each type
    ({**WRITTEN, "b": [1, {"c": [True, None, "x"]}], "d": {"e": 2.5}, "a": 1.0}, "a is 1.0, the model writes 1"),
    ({**WRITTEN, "b": [1, {"c": [1.0, None, "x"]}]}, r"b.0 is 1, the model writes 1.0"),
    ({**WRITTEN, "b": [1, {"c": [True, None, "x"]}]}, r"b.0 is 1, the model writes 1.0"),
    ({**WRITTEN, "b": [1.0, {"c": [1, None, "x"]}]}, r"b.1.c.0 is 1, the model writes True"),
    ({**WRITTEN, "b": [1.0, {"c": [True, None]}]}, r"b.1.c has 2 entries, the model writes 3"),
    ({**WRITTEN, "d": {"e": 2.5, "f": 0}}, "d has an unknown key 'f'"),
    ({"a": 1, "b": WRITTEN["b"]}, "document has no key 'd'"),
    ({**WRITTEN, "z": 0}, "document has an unknown key 'z'"),
    ({**WRITTEN, "d": []}, r"d is \[\], the model writes \{'e': 2.5\}"),
    ([], r"document is \[\], the model writes"),
])
def test_check_written_compares_type_and_value_everywhere(doc, message):
    # == alone takes 1.0 and true for 1; the check does not
    check_written(json.loads(json.dumps(WRITTEN)), WRITTEN)
    with pytest.raises(ValueError, match=f"^{message}"):
        check_written(doc, WRITTEN)
