"""Model documents round-trip bit for bit: a table written by the
serializers, printed canonically and read back by the loaders is the same
table, and printing it again gives the same bytes. A document with more
than one fault is rejected for the one the loaders check first."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsvm.ddag import row_pairs
from seqsvm.fxp import FxpFormat, max_int, min_int
from seqsvm.modelio import (
    dumps_canonical,
    float_model_from_dict,
    float_model_to_dict,
    quantized_from_dict,
    quantized_to_dict,
)
from seqsvm.quant import QuantizedModel
from seqsvm.trainer import FloatSvmModel

#: Finite doubles: signed zeros, subnormals, the smallest and largest
#: normals, and magnitudes from 1e-300 to 1e300.
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                     1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308]),
    st.floats(-1e-300, 1e-300),  # mostly subnormal
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent, st.floats(-9.99, 9.99), st.integers(-300, 299)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def float_models(draw):
    kind = draw(st.sampled_from(["ovo", "ova"]))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 5))
    size = len(row_pairs(kind, n)) * (m + 1)
    values = draw(st.lists(FLOATS, min_size=size, max_size=size))
    return FloatSvmModel(kind, n, m, np.array(values).reshape(-1, m + 1))


@st.composite
def quantized_models(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 5))
    bits = draw(st.integers(2, 16))
    lo, hi = min_int(bits), max_int(bits)
    size = len(row_pairs("ovo", n)) * (m + 1)
    words = draw(st.lists(st.one_of(st.sampled_from([lo, hi, 0, -1]), st.integers(lo, hi)), min_size=size, max_size=size))
    words[0], words[-1] = lo, hi  # both extremes, in the first and last word
    rows = size // (m + 1)
    scales = draw(st.lists(FLOATS.map(abs).filter(lambda s: s > 0), min_size=rows, max_size=rows))
    qm = QuantizedModel(n, m, FxpFormat(draw(st.integers(1, 16))), bits, np.reshape(words, (-1, m + 1)), scales)
    qm.acc_width = draw(st.integers(1, 64))
    return qm


@settings(max_examples=200, deadline=None)
@given(model=float_models())
def test_float_model_document_round_trip(model):
    text = dumps_canonical(float_model_to_dict(model))
    back = float_model_from_dict(json.loads(text))
    assert (back.kind, back.n_classes, back.n_features) == (model.kind, model.n_classes, model.n_features)
    assert back.coefs.tobytes() == model.coefs.tobytes()
    assert dumps_canonical(float_model_to_dict(back)) == text


@settings(max_examples=200, deadline=None)
@given(qm=quantized_models())
def test_quantized_document_round_trip(qm):
    text = dumps_canonical(quantized_to_dict(qm))
    back = quantized_from_dict(json.loads(text), qm.n_classes, qm.n_features)
    assert (back.input_fmt, back.param_bits, back.acc_width) == (qm.input_fmt, qm.param_bits, qm.acc_width)
    assert back.words.tobytes() == qm.words.tobytes()
    assert np.array(back.scales).tobytes() == np.array(qm.scales).tobytes()
    assert dumps_canonical(quantized_to_dict(back)) == text


def _quantized_doc(pairs, weights, param_bits=4, total_bits=4):
    return {
        "input_fmt": {"total_bits": total_bits, "frac_bits": total_bits, "signed": False},
        "bias_shift": total_bits,
        "param_bits": param_bits,
        "acc_width": 8,
        "scales": [1.0] * len(pairs),
        "vectors": [{"class_a": a, "class_b": b, "weights": w, "bias": 0} for (a, b), w in zip(pairs, weights)],
    }


SWAPPED = [(0, 1), (0, 2), (2, 1)]


@pytest.mark.parametrize("doc, message", [
    # the widths come before the vectors
    (_quantized_doc(SWAPPED, [[0, 0]] * 3, param_bits=17), "param_bits out of range"),
    (_quantized_doc(SWAPPED, [[0, 0]] * 3, total_bits=17), "input format must have 1..16 bits"),
    # every pair comes before any weight count or range
    (_quantized_doc(SWAPPED, [[0], [99, 0], [0, 0]]), r"vector 2 carries pair \(2,1\), not \(1,2\) of row 2"),
    (_quantized_doc(SWAPPED, [[99, 0], [0, 0], [0, 0]]), r"vector 2 carries pair \(2,1\), not \(1,2\) of row 2"),
])
def test_quantized_loader_check_order(doc, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        quantized_from_dict(doc, 3, 2)


@pytest.mark.parametrize("kind", ["ovo", "ova"])
def test_float_loader_checks_every_pair_before_weight_counts(kind):
    vectors = [{"class_a": a, "class_b": b, "weights": [0.0, 0.0], "bias": 0.0} for a, b in row_pairs(kind, 3)]
    vectors[0]["weights"] = [0.0]
    vectors[2]["class_a"] = 9
    with pytest.raises(ValueError, match=r"^vector 2 carries pair \(9,"):
        float_model_from_dict({"kind": kind, "n_classes": 3, "n_features": 2, "vectors": vectors})
