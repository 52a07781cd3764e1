"""Every integer argument the library takes is checked by ``fxp.check_int``:
an int (no bool, no numpy integer) in its range, or a ValueError that names
the argument. The widths become hardware, so a float, a bool or a numpy
integer must fail where it is passed, not in a later stage or a JSON writer.

The last test reads ``src/seqsvm/*.py`` as text, so that a hand-written
``type(x) is int`` check does not come back outside ``fxp.py``."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from seqsvm.archsim import rtl
from seqsvm.dataset import split
from seqsvm.ddag import row_pairs
from seqsvm.fxp import U4_4, FxpFormat
from seqsvm.hdlgen import emit_golden_vectors
from seqsvm.modelio import quantized_from_dict
from seqsvm.quant import QuantizedModel, quantize_inputs, quantize_model, search_param_bits
from seqsvm.trainer import FloatSvmModel, Hyper, fit_lanes, random_search

SRC = Path(__file__).resolve().parents[1] / "src" / "seqsvm"


#: entry point: (the name its message gives, lo, hi, call(value, fixtures)),
#: where fixtures holds blobs3_split, blobs3_model and blobs3_quant
ENTRIES = {
    "FxpFormat": ("total_bits", 1, 16, lambda v, f: FxpFormat(v)),
    "QuantizedModel": ("param_bits", 2, 16, lambda v, f: QuantizedModel(2, 1, U4_4, v, [[0, 1]], [1.0])),
    "quantize_model": ("param_bits", 2, 16, lambda v, f: quantize_model(f["blobs3_model"], v)),
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


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_integer_argument_is_an_int_in_range(entry, value, request):
    name, lo, hi, call = ENTRIES[entry]
    bad = VALUES[value](lo)
    fixtures = {key: request.getfixturevalue(key) for key in ("blobs3_split", "blobs3_model", "blobs3_quant")}
    with pytest.raises(ValueError) as info:
        call(bad, fixtures)
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
