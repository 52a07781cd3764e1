"""Model document (de)serialization.

One JSON document is the single source of truth consumed by the simulator,
the HDL generator, and the cost model. Serialization is canonical (sorted
keys, fixed separators, trailing newline) so identical models are
byte-identical on disk; floats round-trip exactly through repr.

Document layout (format "seqsvm/model", version 1):
  seed, config, config_hash              provenance
  dataset: {label_names, feature_names, normalization, split}
  hyper: {lam, epochs, seed}
  float_model: {kind, n_classes, n_features,
                vectors: [{class_a, class_b, weights, bias}]}, one per
                table row, in ``ddag.row_pairs`` order
  quantized (optional): {input_fmt, param_bits, acc_width, bias_shift,
                scales, vectors: [{class_a, class_b, weights, bias}]}
  ddag (optional): {n_classes, initial_state, state_bits, ordering,
                nodes: [{id, class_a, class_b, row, on_a, on_b}]}

The ``ddag`` object must be ``ddag_to_dict`` of the float model's class
count: the natural DAG, the one ``ddag.transitions`` lists. ``seed`` must be
an int >= 0, ``hyper`` a valid ``trainer.Hyper`` and ``config`` hold the
keys of ``_CONFIG_KEYS`` within the CLI's ranges. Quantized weights,
biases, ``param_bits`` and ``acc_width`` (>= 1) must be integers, float
weights and biases finite numbers, and ``scales`` one finite number > 0 per
vector.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .ddag import pair_index, row_pairs, state_bits_for, transitions
from .fxp import MAX_INPUT_BITS, FxpFormat
from .quant import MAX_PARAM_BITS, MIN_PARAM_BITS, QuantizedModel, check_params, check_widths
from .trainer import FloatSvmModel, Hyper, check_finite, finite_number

FORMAT = "seqsvm/model"
VERSION = 1


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def config_hash(config: dict) -> str:
    return hashlib.sha256(dumps_canonical(config).encode()).hexdigest()


def _table_to_list(table, kind: str, n_classes: int) -> list:
    """A model's table as JSON objects, one per row: its pair, weights and bias."""
    return [
        {"class_a": a, "class_b": b, "weights": row[1:], "bias": row[0]}
        for (a, b), row in zip(row_pairs(kind, n_classes), table.tolist())
    ]


def _table_rows(vectors: list, kind: str, n_classes: int, n_features: int, check=None) -> list:
    """The table rows [bias, w_1..w_m] of a document's ``vectors``. Rejects a
    wrong vector count, then any vector that is not its row's pair, then
    ``check``'s offender among the rows before the first vector without one
    weight per feature, then that vector."""
    pairs = row_pairs(kind, n_classes)
    if len(vectors) != len(pairs):
        raise ValueError(f"a {n_classes}-class model needs {len(pairs)} vectors, got {len(vectors)}")
    for r, (v, (a, b)) in enumerate(zip(vectors, pairs)):
        if (v["class_a"], v["class_b"]) != (a, b):
            raise ValueError(f"vector {r} carries pair ({v['class_a']},{v['class_b']}), not ({a},{b}) of row {r}")
    ragged = next((r for r, v in enumerate(vectors) if np.shape(v["weights"]) != (n_features,)), None)
    rows = [[v["bias"], *v["weights"]] for v in vectors[:ragged]]
    if ragged is not None:
        if check:
            check(rows)
        raise ValueError(f"vector {ragged}: wrong weight count")
    return rows


def float_model_to_dict(model: FloatSvmModel) -> dict:
    return {
        "kind": model.kind,
        "n_classes": model.n_classes,
        "n_features": model.n_features,
        "vectors": _table_to_list(model.coefs, model.kind, model.n_classes),
    }


def float_model_from_dict(doc: dict) -> FloatSvmModel:
    kind, n_classes, n_features = doc["kind"], doc["n_classes"], doc["n_features"]
    rows = _table_rows(doc["vectors"], kind, n_classes, n_features, check_finite)
    check_finite(rows)  # before the table casts "0.5" or true to a float
    return FloatSvmModel(kind, n_classes, n_features, rows)


def _input_fmt_doc(bits) -> dict:
    """The serialized input format: unsigned and all fractional."""
    return {"total_bits": bits, "frac_bits": bits, "signed": False}


def quantized_to_dict(qm: QuantizedModel) -> dict:
    return {
        "input_fmt": _input_fmt_doc(qm.input_fmt.total_bits),
        "param_bits": qm.param_bits,
        "acc_width": qm.acc_width,
        "bias_shift": qm.bias_shift,
        "scales": list(qm.scales),
        "vectors": _table_to_list(qm.words, "ovo", qm.n_classes),
    }


def quantized_from_dict(doc: dict, n_classes: int, n_features: int) -> QuantizedModel:
    fmt_doc, shift = doc["input_fmt"], doc.get("bias_shift")
    bits = fmt_doc.get("total_bits") if isinstance(fmt_doc, dict) else None
    if type(bits) is not int or fmt_doc != _input_fmt_doc(bits) or shift != bits:
        raise ValueError(
            f"input format {fmt_doc} with bias_shift {shift} is not supported: "
            "inputs must be unsigned and all fractional, and the bias shifts by the input bits"
        )
    for key in ("param_bits", "acc_width"):  # QuantizedModel checks param_bits' range
        if type(doc[key]) is not int or doc[key] < 1:
            raise ValueError(f"{key} {doc[key]!r} is not an integer of at least 1")
    for r, v in enumerate(doc["vectors"]):
        bad = [p for p in [*v["weights"], v["bias"]] if type(p) is not int]
        if bad:
            raise ValueError(f"vector {r}: parameter {bad[0]!r} is not an integer")
    param_bits = doc["param_bits"]
    check_widths(param_bits)  # before the input format and the vectors
    fmt = FxpFormat(bits)
    words = _table_rows(doc["vectors"], "ovo", n_classes, n_features, lambda rows: check_params(rows, param_bits))
    qm = QuantizedModel(n_classes, n_features, fmt, param_bits, words, doc["scales"])
    qm.acc_width = doc["acc_width"]
    return qm


def ddag_to_dict(n_classes: int) -> dict:
    return {
        "n_classes": n_classes,
        "initial_state": pair_index(0, n_classes - 1, n_classes),
        "state_bits": state_bits_for(n_classes),
        "ordering": "natural",
        "nodes": [
            {"id": state, "class_a": lo, "class_b": hi, "row": state, "on_a": list(on_a), "on_b": list(on_b)}
            for state, lo, hi, on_a, on_b in transitions(n_classes)
        ],
    }


def check_ddag_doc(doc: dict, n_classes: int) -> None:
    """Reject a ``ddag`` object other than ``ddag_to_dict(n_classes)``. The
    Verilog reads row = state, sizes the state register from the class count
    and compares class 0 with class n-1 first, so a wrong ``row``,
    ``state_bits`` or ``ordering`` is named first, then a DAG that is not the
    natural one of its own class count, then that count."""
    n = doc["n_classes"]
    want_bits = state_bits_for(n)
    if doc["state_bits"] != want_bits:
        raise ValueError(f"DAG state_bits {doc['state_bits']!r} is not {want_bits}, the width for {n} classes")
    if doc["ordering"] != "natural":
        raise ValueError(f"DAG ordering {doc['ordering']!r} is not supported; only \"natural\" is")
    for node in doc["nodes"]:
        if node["row"] != node["id"]:
            raise ValueError(f"DAG state {node['id']} reads row {node['row']}; the Verilog reads row = state")
    if doc != ddag_to_dict(n):
        raise ValueError(f"the DAG is not the natural DAG of {n} classes, the only one the Verilog runs")
    if n != n_classes:
        raise ValueError(f"a {n}-class DAG does not fit a {n_classes}-class model")


def _int_in(lo: int, hi: int | None = None):
    return lambda v: type(v) is int and v >= lo and (hi is None or v <= hi)


#: Each ``config`` key: whether every document has it (float_model.json has
#: no quantizer keys), its check and what the check asks for.
_CONFIG_KEYS = {
    "dataset": (True, lambda v: isinstance(v, str), "a string"),
    "label_column": (True, lambda v: isinstance(v, str), "a string"),
    "seed": (True, _int_in(0), "an integer >= 0"),
    "train_fraction": (True, lambda v: finite_number(v) and 0 < v < 1, "a number strictly between 0 and 1"),
    "budget": (True, _int_in(1), "an integer >= 1"),
    "input_bits": (False, _int_in(1, MAX_INPUT_BITS), f"an integer in 1..{MAX_INPUT_BITS}"),
    "max_param_bits": (
        False, _int_in(MIN_PARAM_BITS, MAX_PARAM_BITS), f"an integer in {MIN_PARAM_BITS}..{MAX_PARAM_BITS}"
    ),
}


def check_provenance(doc: dict) -> None:
    """Reject a document that lacks ``seed``, ``hyper`` or ``config``, or whose
    ``seed`` is not an int >= 0, ``hyper`` not exactly lam, epochs and seed that
    ``Hyper`` accepts, or ``config`` lacks a key or holds one ``_CONFIG_KEYS`` rejects."""
    missing = next((key for key in ("seed", "hyper", "config") if key not in doc), None)
    if missing:
        raise ValueError(f"document has no key {missing!r}")
    seed, hyper, config = doc["seed"], doc["hyper"], doc["config"]
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed {seed!r} is not a non-negative integer")
    if not (isinstance(hyper, dict) and sorted(hyper) == ["epochs", "lam", "seed"]):
        raise ValueError(f"hyper {hyper!r:.80} is not an object of lam, epochs and seed")
    try:
        Hyper(**hyper)
    except ValueError as exc:
        raise ValueError(f"hyper: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {config!r:.80} is not an object")
    for key, (required, ok, what) in _CONFIG_KEYS.items():
        if key not in config:
            if required:
                raise ValueError(f"config has no key {key!r}")
        elif not ok(config[key]):
            raise ValueError(f"config {key} {config[key]!r:.80} is not {what}")


def save_model_doc(path, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(doc))


def load_model_doc(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} document")
    if doc.get("version") != VERSION:
        raise ValueError(f"{path}: unsupported version {doc.get('version')}")
    return doc
