"""Model documents: their one writer, their loader, and canonical JSON.

One JSON document is the single source of truth consumed by the simulator,
the HDL generator, and the cost model. Serialization is canonical (sorted
keys, fixed separators, trailing newline) so identical models are
byte-identical on disk; floats round-trip exactly through repr.

Byte contract: ``dumps_canonical(obj)`` is exactly
``json.dumps(obj, indent=2, sort_keys=True) + "\n"``, in every JSON
artifact and in what ``config_hash`` hashes. Its own writer only avoids the
stdlib's pure-Python encoder, which ``indent`` selects.

``model_doc`` is the only builder of a document, format "seqsvm/model"
version 1 (README.md, "File formats", shows the layout). ``read_model_doc``
builds its parts back from the fields nothing else determines, checking
each, then ``check_written`` rejects the document unless it is exactly what
``model_doc`` writes for those parts. That one rule covers every derived
field: ``format``, ``version``, ``seed``, ``config_hash``,
``dataset.split``, ``hyper.seed``, each vector's pair, ``input_fmt``,
``bias_shift`` and the whole ``ddag``.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .dataset import Dataset
from .ddag import pair_index, row_pairs, state_bits_for, transitions
from .fxp import MAX_INPUT_BITS, FxpFormat
from .quant import MAX_PARAM_BITS, MIN_PARAM_BITS, QuantizedModel, check_params, check_widths
from .trainer import FloatSvmModel, Hyper, check_feature_count, check_parameters, finite_number

FORMAT = "seqsvm/model"
VERSION = 1


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, pad: str) -> str:
    """``obj`` as json.dumps(obj, indent=2, sort_keys=True) writes it where
    ``pad``, a newline and the indentation, starts each of its lines.

    Strings, plain ints and finite plain floats write their own text, and
    dicts of str keys, lists and tuples recurse, a list of only plain ints
    or only finite plain floats in one join. Anything else (None, a bool, a
    non-finite float, a subclass such as np.float64, other keys) is
    json.dumps' own text, re-indented, which is exact because JSON text
    holds no raw newline inside a string.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int or kind is float and math.isfinite(obj):
        return kind.__repr__(obj)
    inner = pad + "  "
    if kind is dict and obj and all(type(key) is str for key in obj):
        items = [f"{_quote(key)}: {_encode(obj[key], inner)}" for key in sorted(obj)]
        return "{" + inner + f",{inner}".join(items) + pad + "}"
    if (kind is list or kind is tuple) and obj:
        kinds = set(map(type, obj))
        if kinds == {int} or kinds == {float} and all(map(math.isfinite, obj)):
            items = map(kinds.pop().__repr__, obj)
        else:
            items = [_encode(value, inner) for value in obj]
        return "[" + inner + f",{inner}".join(items) + pad + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)


def config_hash(config: dict) -> str:
    return hashlib.sha256(dumps_canonical(config).encode()).hexdigest()


def _table_to_list(table, kind: str, n_classes: int) -> list:
    """A model's table as JSON objects, one per row: its pair, weights and bias."""
    return [
        {"class_a": a, "class_b": b, "weights": row[1:], "bias": row[0]}
        for (a, b), row in zip(row_pairs(kind, n_classes), table.tolist())
    ]


def model_doc(config: dict, dataset: Dataset, hyper: Hyper, fmodel: FloatSvmModel, qm: QuantizedModel | None = None):
    """The document of these parts: float_model.json, or model.json with
    ``qm``. Of ``dataset`` only the names and the normalization are written."""
    doc = {
        "format": FORMAT, "version": VERSION, "seed": config["seed"], "config": config,
        "config_hash": config_hash(config),
        "dataset": {"label_names": dataset.label_names, "feature_names": dataset.feature_names,
                    "normalization": dataset.normalization,
                    "split": {"train_fraction": config["train_fraction"], "seed": config["seed"]}},
        "hyper": {"lam": hyper.lam, "epochs": hyper.epochs, "seed": hyper.seed},
        "float_model": {
            "kind": fmodel.kind, "n_classes": fmodel.n_classes, "n_features": fmodel.n_features,
            "vectors": _table_to_list(fmodel.coefs, fmodel.kind, fmodel.n_classes),
        },
    }
    if qm is not None:
        bits = qm.input_fmt.total_bits
        doc["quantized"] = {
            "input_fmt": {"total_bits": bits, "frac_bits": bits, "signed": False},
            "param_bits": qm.param_bits, "acc_width": qm.acc_width, "bias_shift": qm.bias_shift,
            "scales": list(qm.scales), "vectors": _table_to_list(qm.words, "ovo", qm.n_classes),
        }
        doc["ddag"] = ddag_to_dict(qm.n_classes)
    return doc


def _field(obj, key: str, at: str):
    """``obj[key]``, naming ``obj`` by ``at`` if it is no object or has no ``key``."""
    if type(obj) is not dict:
        raise ValueError(f"{at} {obj!r:.80} is not an object")
    if key not in obj:
        raise ValueError(f"{at} has no key {key!r}")
    return obj[key]


def _table_rows(doc: dict, at: str, kind: str, n_classes: int, n_features: int, check) -> list:
    """The rows [bias, w_1..w_m] of the model object ``doc``, named ``at``.
    Rejects a bad class count, kind or feature count, a wrong vector count,
    then ``check``'s offender among the rows before the first vector without
    one weight per feature, then that vector."""
    rows = len(row_pairs(kind, n_classes))
    check_feature_count(n_features)
    vectors = _field(doc, "vectors", at)
    if type(vectors) is not list:
        raise ValueError(f"{at}.vectors {vectors!r:.80} is not a list")
    if len(vectors) != rows:
        raise ValueError(f"a {n_classes}-class model needs {rows} vectors, got {len(vectors)}")
    table = []
    for r, v in enumerate(vectors):
        weights = _field(v, "weights", f"{at}.vectors.{r}")
        if type(weights) is not list or len(weights) != n_features:
            break
        table.append([_field(v, "bias", f"{at}.vectors.{r}"), *weights])
    check(table)
    if len(table) < rows:
        raise ValueError(f"vector {len(table)}: wrong weight count")
    return table


def float_model_from_dict(doc: dict) -> FloatSvmModel:
    """The float model of a ``float_model`` object: kind, counts, weights, biases."""
    kind, n_classes, n_features = (_field(doc, key, "float_model") for key in ("kind", "n_classes", "n_features"))
    # checked before the table casts "0.5" or true to a float
    rows = _table_rows(doc, "float_model", kind, n_classes, n_features, check_parameters)
    return FloatSvmModel(kind, n_classes, n_features, rows)


def quantized_from_dict(doc: dict, n_classes: int, n_features: int, input_bits: int) -> QuantizedModel:
    """The quantized model of a ``quantized`` object (widths, scales, weights,
    biases) for inputs of ``input_bits``, the config's."""
    fmt = FxpFormat(input_bits)
    for key in ("param_bits", "acc_width"):  # QuantizedModel checks param_bits' range
        if not _int_in(1)(_field(doc, key, "quantized")):
            raise ValueError(f"{key} {doc[key]!r} is not an integer of at least 1")
    param_bits = doc["param_bits"]
    check_widths(param_bits)  # before the vectors

    def check(rows):  # types first: a float in range is no word
        check_parameters(rows, lambda p: type(p) is int, "an integer")
        check_params(rows, param_bits)

    words = _table_rows(doc, "quantized", "ovo", n_classes, n_features, check)
    qm = QuantizedModel(n_classes, n_features, fmt, param_bits, words, _field(doc, "scales", "quantized"))
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


def _int_in(lo: int, hi: int | None = None):
    return lambda v: type(v) is int and v >= lo and (hi is None or v <= hi)


#: Each ``config`` key: whether only model.json has it (float_model.json has
#: no quantizer keys), its check and what the check asks for.
_CONFIG_KEYS = {
    "dataset": (False, lambda v: isinstance(v, str), "a string"),
    "label_column": (False, lambda v: isinstance(v, str), "a string"),
    "seed": (False, _int_in(0), "an integer >= 0"),
    "train_fraction": (False, lambda v: finite_number(v) and 0 < v < 1, "a number strictly between 0 and 1"),
    "budget": (False, _int_in(1), "an integer >= 1"),
    "input_bits": (True, _int_in(1, MAX_INPUT_BITS), f"an integer in 1..{MAX_INPUT_BITS}"),
    "max_param_bits": (
        True, _int_in(MIN_PARAM_BITS, MAX_PARAM_BITS), f"an integer in {MIN_PARAM_BITS}..{MAX_PARAM_BITS}"
    ),
}


def read_model_doc(doc: dict, quantized: bool) -> tuple:
    """The parts (config, dataset, hyper, float model, quantized model or None)
    of ``doc``, model.json if ``quantized``. Reads and checks, in order,
    ``config`` (the keys of ``_CONFIG_KEYS`` the document takes, in range),
    ``hyper``'s lam and epochs, the models (``param_bits`` at most the
    config's ``max_param_bits``), and the dataset's names and
    normalization (a Dataset of no samples); then ``check_written``."""
    config = _field(doc, "config", "document")
    keys = [key for key, (quantizer, _, _) in _CONFIG_KEYS.items() if quantized or not quantizer]
    for key in keys:
        ok, what = _CONFIG_KEYS[key][1:]
        if not ok(_field(config, key, "config")):
            raise ValueError(f"config {key} {config[key]!r:.80} is not {what}")
    if set(config) - set(keys):
        raise ValueError(f"config has an unknown key {min(set(config) - set(keys))!r}")
    hyper = _field(doc, "hyper", "document")
    lam, epochs = _field(hyper, "lam", "hyper"), _field(hyper, "epochs", "hyper")
    try:
        hyper = Hyper(lam, epochs, config["seed"])
    except ValueError as exc:
        raise ValueError(f"hyper: {exc}") from None
    fmodel = float_model_from_dict(_field(doc, "float_model", "document"))
    qm = quantized_from_dict(_field(doc, "quantized", "document"), fmodel.n_classes, fmodel.n_features,
                             config["input_bits"]) if quantized else None
    if qm is not None and qm.param_bits > config["max_param_bits"]:
        raise ValueError(f"quantized.param_bits {qm.param_bits} exceeds config max_param_bits "
                         f"{config['max_param_bits']}")
    names = [_field(_field(doc, "dataset", "document"), key, "dataset")
             for key in ("label_names", "feature_names", "normalization")]
    dataset = Dataset(np.empty((0, fmodel.n_features)), [], *names)
    parts = (config, dataset, hyper, fmodel, qm)
    check_written(doc, model_doc(*parts))
    return parts


def _same_types(a: dict, b: dict) -> bool:
    """For ``a == b``: whether both hold the same type everywhere, one level's types in one step."""
    xs, ys = [a], [b]
    while xs:
        level_a, level_b = [], []
        for x, y in zip(xs, ys):
            if type(x) is dict:
                level_a += x.values()
                level_b += map(y.__getitem__, x)
            else:
                level_a += x
                level_b += y
        kinds = list(map(type, level_a))
        if kinds != list(map(type, level_b)):
            return False
        nested = list(map({dict: True, list: True}.get, kinds))
        xs, ys = list(compress(level_a, nested)), list(compress(level_b, nested))
    return True


def check_written(doc, written, path: str = "") -> None:
    """Reject ``doc`` unless it equals ``written``, what the writer writes for
    its parts, with the same type at every place, so that 1.0 or true never
    passes for 1. Names the first difference in sorted key order: a missing
    or unknown key, a list's length, or a value and what is written there."""
    if not path and type(doc) is dict and doc == written and _same_types(doc, written):
        return
    if type(doc) is dict and type(written) is dict:
        for key in sorted(doc.keys() | written.keys()):
            if key not in doc or key not in written:
                raise ValueError(f"{path or 'document'} has {'no' if key in written else 'an unknown'} key {key!r}")
            check_written(doc[key], written[key], f"{path}.{key}" if path else key)
    elif type(doc) is list and type(written) is list:
        if len(doc) != len(written):
            raise ValueError(f"{path} has {len(doc)} entries, the model writes {len(written)}")
        for i, (value, want) in enumerate(zip(doc, written)):
            check_written(value, want, f"{path}.{i}")
    elif doc is not written and (type(doc) is not type(written) or doc != written):
        raise ValueError(f"{path or 'document'} is {doc!r:.80}, the model writes {written!r:.80}")


def save_model_doc(path, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(doc))


def load_model_doc(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
