"""Every integer argument the library takes is checked by ``fxp.check_int``:
an int (no bool, no numpy integer) in its range, or a ValueError that names
the argument. The widths become hardware, so a float, a bool or a numpy
integer must fail where it is passed, not in a later stage or a JSON writer.

Every array argument, a sample matrix, a model table or a label or row
vector, is checked by ``fxp.check_array`` before it is cast: a bool, a
string, a float where ints are due, a non-finite float or a wrong rank is
refused by name, never truncated or misread by a cast.

Two tests read ``src/seqsvm/*.py``, so that neither a hand-written
``type(x) is int`` check nor a cast of a parameter by ``np.asarray`` comes
back outside ``fxp.py``."""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from seqsvm.archsim import rtl, simulate, simulate_batch
from seqsvm.dataset import Dataset, split
from seqsvm.ddag import ddag_predict_float, ddag_predict_quant, row_pairs, walk_batch
from seqsvm.fxp import U4_4, FxpFormat, check_array
from seqsvm.hdlgen import emit_golden_vectors
from seqsvm.modelio import quantized_from_dict
from seqsvm.quant import (QuantizedModel, calibrate_model, partial_sum_extremes, quantize_inputs, quantize_model,
                          search_param_bits)
from seqsvm.trainer import FloatSvmModel, Hyper, fit_lanes, random_search

SRC = Path(__file__).resolve().parents[1] / "src" / "seqsvm"


#: entry point: (the name its message gives, lo, hi, call(value, fixtures)),
#: where fixtures holds blobs3_split, blobs3_model and blobs3_quant
ENTRIES = {
    "FxpFormat": ("total_bits", 1, 16, lambda v, f: FxpFormat(v)),
    "QuantizedModel": ("param_bits", 2, 16, lambda v, f: QuantizedModel(2, 1, U4_4, v, [[0, 1]], [1.0])),
    "quantize_model": ("param_bits", 2, 16, lambda v, f: quantize_model(f["blobs3_model"], v)),
    "calibrate_model": ("param_bits", 2, 16, lambda v, f: calibrate_model(f["blobs3_model"], v, f["blobs3_split"][0])),
    "search_param_bits": ("max_bits", 2, 16, lambda v, f: search_param_bits(f["blobs3_model"], *f["blobs3_split"],
                                                                           max_bits=v)),
    "Hyper": ("epochs", 0, None, lambda v, f: Hyper(epochs=v)),
    "random_search-budget": ("budget", 1, None, lambda v, f: random_search(f["blobs3_split"][0], v, 0)),
    "random_search-seed": ("seed", 0, None, lambda v, f: random_search(f["blobs3_split"][0], 1, v)),
    "FloatSvmModel": ("n_features", 1, None, lambda v, f: FloatSvmModel("ovo", 2, v, [[0.0, 1.0]])),
    "row_pairs": ("n_classes", 2, None, lambda v, f: row_pairs("ovo", v)),
    "fit_lanes": ("key", 0, None, lambda v, f: fit_lanes(f["blobs3_split"][0], [(np.arange(4), 0, (v,))], [Hyper()])),
    "emit_golden_vectors": ("count", 0, None, lambda v, f: emit_golden_vectors(
        f["blobs3_quant"][0], quantize_inputs(f["blobs3_split"][1]), v)),
    "rtl": ("acc_width", 1, None, lambda v, f: rtl(dataclasses.replace(f["blobs3_quant"][0], acc_width=v))),
    "split": ("seed", 0, None, lambda v, f: split(f["blobs3_split"][0], 0.8, v)),
    "quantized_from_dict-param_bits": ("quantized.param_bits", 2, 16, lambda v, f: quantized_from_dict(
        {"param_bits": v, "acc_width": 9}, f["blobs3_model"], 4)),
    "quantized_from_dict-acc_width": ("quantized.acc_width", 1, None, lambda v, f: quantized_from_dict(
        {"param_bits": 4, "acc_width": v}, f["blobs3_model"], 4)),
}

# a bool, a float and a numpy integer that would each pass a range check, and an int below the range
VALUES = {"True": lambda lo: True, "float": lambda lo: 4.0, "int64": lambda lo: np.int64(4), "below": lambda lo: lo - 1}


def _fixtures(request) -> dict:
    return {key: request.getfixturevalue(key) for key in ("blobs3_split", "blobs3_model", "blobs3_quant")}


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_integer_argument_is_an_int_in_range(entry, value, request):
    name, lo, hi, call = ENTRIES[entry]
    bad = VALUES[value](lo)
    with pytest.raises(ValueError) as info:
        call(bad, _fixtures(request))
    text, message = f">= {lo}" if hi is None else f"in {lo}..{hi}", str(info.value)
    assert name in message and message.endswith(f" must be an integer {text}, got {bad!r}"), message


def _hand_written_int_checks(text: str) -> list[str]:
    return re.findall(r"type\([^)]*\) is (?:not )?int\b", text)


def test_the_source_scan_sees_a_hand_written_check():
    # the pattern must match what it guards against, or the test below is vacuous
    assert _hand_written_int_checks("if type(n) is not int or n < 1:") == ["type(n) is not int"]
    assert _hand_written_int_checks("ok = type(value) is int and value >= lo") == ["type(value) is int"]
    assert _hand_written_int_checks("kind is int or type(v) is str") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_fxp_checks_for_an_int(path):
    # fxp.check_int is the one implementation; every other module calls it
    found = _hand_written_int_checks(path.read_text())
    assert path.name == "fxp.py" or not found, f"{path.name} checks {found} by hand; call fxp.check_int"


def _quant(f):
    return f["blobs3_quant"][0]


def _codes(f):
    return quantize_inputs(f["blobs3_split"][1], _quant(f).input_fmt)[:5]


def _features(f):
    return f["blobs3_split"][1].features[:5]


#: entry point: (the name its message gives, the kind due, a valid argument
#: of fixtures f, call(argument, f))
ARRAY_ENTRIES = {
    "Dataset-features": ("features", float, _features,
                         lambda v, f: Dataset(v, np.zeros(5, dtype=np.int64), ["a", "b", "c"])),
    "Dataset-labels": ("labels", int, lambda f: f["blobs3_split"][0].labels[:5],
                       lambda v, f: Dataset(np.zeros((5, 2)), v, ["a", "b", "c"])),
    "Dataset-normalization": ("normalization", float, lambda f: f["blobs3_split"][0].normalization,
                              lambda v, f: Dataset(np.zeros((5, 21)), np.zeros(5, dtype=np.int64), ["a"], None, v)),
    "FloatSvmModel": ("coefs", float, lambda f: f["blobs3_model"].coefs,
                      lambda v, f: FloatSvmModel("ovo", 3, 21, v)),
    "QuantizedModel": ("words", int, lambda f: _quant(f).words,
                       lambda v, f: QuantizedModel(3, 21, U4_4, _quant(f).param_bits, v, _quant(f).scales)),
    "QuantizedModel-scales": ("scales", float, lambda f: _quant(f).scales,
                              lambda v, f: QuantizedModel(3, 21, U4_4, _quant(f).param_bits, _quant(f).words, v)),
    "quantize_model-scales": ("scales", float, lambda f: _quant(f).scales,
                              lambda v, f: quantize_model(f["blobs3_model"], _quant(f).param_bits, U4_4, v)),
    "quantized_from_dict-scales": ("quantized.scales", float, lambda f: _quant(f).scales,
                                   lambda v, f: quantized_from_dict(
                                       {"param_bits": _quant(f).param_bits, "acc_width": 9, "scales": v},
                                       f["blobs3_model"], 4)),
    "walk_batch": ("codes", int, _codes, lambda v, f: walk_batch(_quant(f), v)),
    "ddag_predict_quant": ("codes", int, _codes, lambda v, f: ddag_predict_quant(_quant(f), v)),
    "simulate_batch-codes": ("codes", int, _codes,
                             lambda v, f: simulate_batch(_quant(f), v, np.zeros(5, dtype=np.int64))),
    "simulate_batch-labels": ("labels", int, lambda f: f["blobs3_split"][1].labels[:5],
                              lambda v, f: simulate_batch(_quant(f), _codes(f), v)),
    "emit_golden_vectors": ("codes", int, _codes, lambda v, f: emit_golden_vectors(_quant(f), v, 5)),
    "simulate": ("codes", int, _codes, lambda v, f: simulate(_quant(f), v)),
    "partial_sum_extremes": ("codes", int, _codes, lambda v, f: partial_sum_extremes(_quant(f), v)),
    "FloatSvmModel.predict": ("features", float, _features, lambda v, f: f["blobs3_model"].predict(v)),
    "ddag_predict_float": ("features", float, _features, lambda v, f: ddag_predict_float(f["blobs3_model"], v)),
    "quantize_inputs": ("features", float, _features, lambda v, f: quantize_inputs(v)),
    "fit_lanes": ("stream 0: rows", int, lambda f: np.arange(10),
                  lambda v, f: fit_lanes(f["blobs3_split"][0], [(v, 0, (0,))], [Hyper(epochs=1)])),
}

#: a bool, a float where ints are due, a numeric string and NaN, each put in
#: place of an argument's first element; the argument with one more axis;
#: and True in place of the whole argument
ARRAY_VALUES = {"True": True, "1.5": 1.5, "'0.5'": "0.5", "nan": math.nan, "rank": None, "scalar": None}


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry, (_, kind, _, _) in ARRAY_ENTRIES.items() for value in ARRAY_VALUES
    if not (kind is float and value == "1.5")  # a finite number
])
def test_array_argument_is_refused_by_name(entry, value, request):
    name, _, good, call = ARRAY_ENTRIES[entry]
    f = _fixtures(request)
    valid = np.asarray(good(f))
    call(valid.tolist(), f)  # the valid argument passes, as a list too
    if value == "rank":
        bad, prefix, ending = valid[None], f"{name} must have shape (", f"got {valid[None].shape}"
    elif value == "scalar":
        bad, prefix, ending = True, f"{name} must have shape (", "got ()"
    else:
        bad = valid.tolist()
        (bad[0] if valid.ndim == 2 else bad)[0] = ARRAY_VALUES[value]
        prefix, ending = f"{name}[{', '.join(['0'] * valid.ndim)}] must be ", f", got {ARRAY_VALUES[value]!r}"
    with pytest.raises(ValueError) as info:
        call(bad, f)
    message = str(info.value)
    assert message.startswith(prefix) and message.endswith(ending), message


def test_what_was_misread_at_the_parent_is_refused(blobs3_quant, blobs3_split):
    # each of these ran, and was wrong, before the array check
    qm, _ = blobs3_quant
    _, test = blobs3_split
    codes = quantize_inputs(test, qm.input_fmt)
    integer, number = "an integer that fits int64", "a finite number"
    cases = [
        # accuracy 0.0
        (lambda: simulate_batch(qm, codes, test.labels + 0.25), "labels[0]", integer, 0.25),
        # each 1.7 walked as a 1
        (lambda: ddag_predict_quant(qm, [[1.7] * 21]), "codes[0, 0]", integer, 1.7),
        # the row in class 0
        (lambda: Dataset([[0.5, 1.0]], [0.7], ["a"]), "labels[0]", integer, 0.7),
        # True read as 1.0, "0.5" as 0.5
        (lambda: FloatSvmModel("ovo", 2, 1, [[0.0, True]]), "coefs[0, 1]", number, True),
        (lambda: FloatSvmModel("ovo", 2, 1, [["0.5", 1.0]]), "coefs[0, 0]", number, "0.5"),
        # words truncated to [[0, 1]]
        (lambda: QuantizedModel(2, 1, U4_4, 4, np.array([[0.0, 1.5]]), [1.0]), "words[0, 0]", integer, 0.0),
        (lambda: QuantizedModel(2, 1, U4_4, 4, [[0, 1.5]], [1.0]), "words[0, 1]", integer, 1.5),
        (lambda: QuantizedModel(2, 1, U4_4, 4, [[0, True]], [1.0]), "words[0, 1]", integer, True),
    ]
    for call, element, due, value in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{element} must be {due}, got {value!r}')}$"):
            call()


@pytest.mark.parametrize("form", ["uint8", "int16", "int32", "list"])
def test_narrow_and_listed_codes_run_as_int64(form, blobs3_quant, blobs3_split):
    # what the integer entry points took before the array check, they take
    # still, with the classes, final states and overflows of int64 codes
    qm, _ = blobs3_quant
    _, test = blobs3_split
    codes = quantize_inputs(test, qm.input_fmt)
    given = codes.tolist() if form == "list" else codes.astype(form)
    narrow = dataclasses.replace(qm, acc_width=qm.acc_width - 2)  # an accumulator that wraps
    for model in (qm, narrow):
        for acc_width in (None, model.acc_width):
            expected = walk_batch(model, codes, acc_width)
            assert all(np.array_equal(a, b) for a, b in zip(walk_batch(model, given, acc_width), expected))
        batch, expected = simulate_batch(model, given, test.labels), simulate_batch(model, codes, test.labels)
        assert np.array_equal(batch.predictions, expected.predictions)
        assert (batch.accuracy, batch.overflows) == (expected.accuracy, expected.overflows)
        assert emit_golden_vectors(model, given, 10) == emit_golden_vectors(model, codes, 10)
    assert simulate_batch(narrow, codes, test.labels).overflows > 0


def test_int_features_score_as_their_float_copy(blobs3_model, blobs3_quant, blobs3_split):
    qm, _ = blobs3_quant
    X = quantize_inputs(blobs3_split[1], qm.input_fmt)  # an int64 matrix with classes of both kinds
    assert np.array_equal(ddag_predict_float(blobs3_model, X), ddag_predict_float(blobs3_model, X.astype(float)))
    assert np.array_equal(blobs3_model.predict(X), blobs3_model.predict(X.astype(float)))


def test_check_array_keeps_the_due_dtype_and_makes_empty_lists_of_it():
    for kind, dtype in ((int, np.int64), (float, np.float64)):
        given = np.zeros((3, 2), dtype=dtype)
        assert check_array("x", given, kind, ("samples", 2)) is given
        empty = check_array("x", [], kind, (0,))
        assert empty.dtype == dtype and empty.shape == (0,)
    assert check_array("x", np.arange(3, dtype=np.uint16), float, (3,)).dtype == np.float64
    # an int past int64 is named as given, and a ragged nesting by name
    with pytest.raises(ValueError, match=f"^x\\[1\\] must be an integer that fits int64, got {2**64}$"):
        check_array("x", [0, 2**64], int, (2,))
    with pytest.raises(ValueError, match=f"^x\\[0\\] must be an integer that fits int64, got {2**63}$"):
        check_array("x", np.array([2**63], dtype=np.uint64), int, (1,))
    with pytest.raises(ValueError, match="^x is not an array: "):
        check_array("x", [np.zeros((2, 2)), np.zeros(2)], float, ("samples", 2))


def _casts_of_parameters(text: str) -> list[str]:
    """Each ``np.asarray(p, dtype)`` or ``np.array(p, dtype)`` in ``text``,
    dtype given by keyword or position, whose ``p`` is a parameter of its
    function, or a field (``self.p``) in a dataclass's ``__post_init__``."""
    found = []
    for func in ast.walk(ast.parse(text)):
        if not isinstance(func, ast.FunctionDef):
            continue
        params = {arg.arg for arg in func.args.posonlyargs + func.args.args + func.args.kwonlyargs}
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.args
                    and isinstance(call.func.value, ast.Name) and call.func.value.id == "np"
                    and call.func.attr in ("asarray", "array")
                    and (len(call.args) > 1 or any(k.arg == "dtype" for k in call.keywords))):
                continue
            arg = call.args[0]
            field = isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name) and arg.value.id == "self"
            if isinstance(arg, ast.Name) and arg.id in params or field and func.name == "__post_init__":
                found.append(f"{func.name}: {ast.unparse(call)}")
    return found


#: the casts that four entry points made before the array check, as they read
PARENT_CASTS = {
    "ddag.float_features": "def float_features(fmodel, features):\n    X = np.asarray(features, dtype=np.float64)\n",
    "QuantizedModel.input_codes": (
        "class QuantizedModel:\n    def input_codes(self, codes):\n        X = np.asarray(codes, dtype=np.int64)\n"),
    "emit_golden_vectors": (
        "def emit_golden_vectors(qm, test_codes, count):\n    X = np.asarray(test_codes, dtype=np.int64)[:count]\n"),
    "read_only_table": (
        "def read_only_table(values, n_rows, n_features, dtype):\n    table = np.array(values, dtype=dtype)\n"),
    "Dataset": (
        "class Dataset:\n    def __post_init__(self):\n        self.labels = np.asarray(self.labels, np.int64)\n"),
}


@pytest.mark.parametrize("entry", PARENT_CASTS)
def test_the_cast_scan_sees_a_parameter_cast(entry):
    # the scan must match what it guards against, or the test below is vacuous
    assert len(_casts_of_parameters(PARENT_CASTS[entry])) == 1


def test_the_cast_scan_passes_a_local_or_a_dtype_free_cast():
    text = "def f(ds, rows):\n    order = [1]\n    a = np.array(order, dtype=np.int64)\n    return np.asarray(rows)\n"
    assert _casts_of_parameters(text) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_fxp_casts_an_array_argument(path):
    # fxp.check_array is the one implementation; every other module calls it
    found = _casts_of_parameters(path.read_text())
    assert path.name == "fxp.py" or not found, f"{path.name} casts {found} itself; call fxp.check_array"
