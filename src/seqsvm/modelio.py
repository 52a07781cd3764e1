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
``model_doc`` writes for those parts, in one walk over both. That one rule
covers every derived field: ``format``, ``version``, ``seed``,
``config_hash``, ``dataset.split``, ``hyper.seed``, each vector's pair,
``input_fmt``, ``bias_shift``, the quantized ``vectors`` (the words that
``quant.table_words`` derives from the float model and the read ``scales``)
and the whole ``ddag``, the FSM of ``archsim.rtl``. The checks of the read
fields are ``fxp``'s and ``quant.check_scales``; this module keeps only
``CONFIG_RANGES``, the ranges of the config's numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .archsim import rtl
from .dataset import Dataset
from .ddag import check_ovo, row_pairs
from .fxp import MAX_INPUT_BITS, FxpFormat, check_int, finite_number, first_bad, in_range, range_text
from .quant import MAX_PARAM_BITS, MIN_PARAM_BITS, QuantizedModel, check_scales, quantize_model
from .trainer import FloatSvmModel, Hyper

FORMAT = "seqsvm/model"
VERSION = 1


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, pad: str) -> str:
    """``obj`` as json.dumps(obj, indent=2, sort_keys=True) writes it where
    ``pad``, a newline and the indentation, starts each of its lines.

    Strings, plain ints and finite plain floats write their own text, and
    dicts of str keys, lists and tuples recurse, a list of only strings and
    plain ints or only finite plain floats in one join. Anything else
    (None, a bool, a non-finite float, a subclass such as np.float64, other
    keys) is json.dumps' own text, re-indented, which is exact because JSON
    text holds no raw newline inside a string.
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
        elif kinds <= {str, int}:
            items = [_quote(value) if type(value) is str else int.__repr__(value) for value in obj]
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
    ``qm``. Of ``dataset`` only the names and the normalization, never None, are written."""
    for key in ("feature_names", "normalization"):
        if getattr(dataset, key) is None:
            raise ValueError(f"dataset.{key} is null: a document records those of a training split")
    doc = {
        "format": FORMAT, "version": VERSION, "seed": config["seed"], "config": config,
        "config_hash": config_hash(config),
        "dataset": {"label_names": dataset.label_names, "feature_names": dataset.feature_names,
                    "normalization": dataset.normalization,
                    "split": {"train_fraction": config["train_fraction"], "seed": config["seed"]}},
        "hyper": {"lam": hyper.lam, "epochs": hyper.epochs, "seed": config["seed"]},
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
            "scales": qm.scales.tolist(), "vectors": _table_to_list(qm.words, "ovo", qm.n_classes),
        }
        doc["ddag"] = ddag_to_dict(qm)
    return doc


def _field(obj, key: str, at: str):
    """``obj[key]``, naming ``obj`` by ``at`` if it is no object or has no ``key``."""
    if type(obj) is not dict:
        raise ValueError(f"{at} {obj!r:.80} is not an object")
    if key not in obj:
        raise ValueError(f"{at} has no key {key!r}")
    return obj[key]


def float_model_from_dict(doc: dict) -> FloatSvmModel:
    """The float model of a ``float_model`` object: kind, counts, weights,
    biases. Rejects a bad class count, kind or feature count, a wrong vector
    count, then the first parameter that is no finite number among the rows
    before the first vector without one weight per feature, then that vector."""
    kind, n_classes, n_features = (_field(doc, key, "float_model") for key in ("kind", "n_classes", "n_features"))
    rows = len(row_pairs(kind, n_classes))
    check_int("n_features", n_features, 1)
    vectors = _field(doc, "vectors", "float_model")
    if type(vectors) is not list:
        raise ValueError(f"float_model.vectors {vectors!r:.80} is not a list")
    if len(vectors) != rows:
        raise ValueError(f"a {n_classes}-class model needs {rows} vectors, got {len(vectors)}")
    table = []
    for r, v in enumerate(vectors):
        weights = _field(v, "weights", f"float_model.vectors.{r}")
        if type(weights) is not list or len(weights) != n_features:
            break
        table.append([_field(v, "bias", f"float_model.vectors.{r}"), *weights])
    bad = first_bad(table, finite_number)  # by the document's vector, before a later one's weight count
    if bad:
        raise ValueError(f"vector {bad[0]}: parameter {bad[1]!r} is not a finite number")
    if len(table) < rows:
        raise ValueError(f"vector {len(table)}: wrong weight count")
    return FloatSvmModel(kind, n_classes, n_features, table)


def quantized_from_dict(doc: dict, fmodel: FloatSvmModel, input_bits: int) -> QuantizedModel:
    """The quantized model of a ``quantized`` object: ``fmodel``, which must
    be OvO, quantized to the object's ``param_bits`` at its ``scales`` for
    inputs of ``input_bits`` (the config's), with its ``acc_width``. The
    words are derived from the scales, so no other key is read."""
    check_int("quantized.param_bits", _field(doc, "param_bits", "quantized"), MIN_PARAM_BITS, MAX_PARAM_BITS)
    check_int("quantized.acc_width", _field(doc, "acc_width", "quantized"), 1)
    check_ovo(fmodel)
    scales = check_scales("quantized.scales", _field(doc, "scales", "quantized"), len(fmodel.coefs))
    qm = quantize_model(fmodel, doc["param_bits"], FxpFormat(input_bits), scales)
    qm.acc_width = doc["acc_width"]
    return qm


def ddag_to_dict(qm: QuantizedModel) -> dict:
    """The ``ddag`` object of ``qm``: ``rtl(qm)``'s FSM, each state with its row's class pair."""
    r = rtl(qm)
    return {
        "n_classes": qm.n_classes,
        "initial_state": r.initial_state,
        "state_bits": r.state_bits,
        "ordering": "natural",
        "nodes": [
            {"id": state, "class_a": lo, "class_b": hi, "row": state, "on_a": list(on_a), "on_b": list(on_b)}
            for state, ((lo, hi), (on_a, on_b)) in enumerate(zip(row_pairs("ovo", qm.n_classes), r.arms))
        ],
    }


#: The numeric ``config`` keys, each (lo, hi, kind): an int in lo.., or
#: lo..hi, or a float strictly between lo and hi. The CLI's flags for them
#: take the same ranges.
CONFIG_RANGES = {
    "seed": (0, None, int),
    "train_fraction": (0, 1, float),
    "budget": (1, None, int),
    "input_bits": (1, MAX_INPUT_BITS, int),
    "max_param_bits": (MIN_PARAM_BITS, MAX_PARAM_BITS, int),
}


#: The ``config`` keys in the order they are checked; only model.json has the
#: quantizer's two, the last.
_CONFIG_KEYS = ("dataset", "label_column", "seed", "train_fraction", "budget", "input_bits", "max_param_bits")


def read_model_doc(doc: dict, quantized: bool) -> tuple:
    """The parts (config, dataset, hyper, float model, quantized model or None)
    of ``doc``, model.json if ``quantized``. Reads and checks, in order,
    ``config`` (the keys of ``_CONFIG_KEYS`` the document takes, in range),
    ``hyper``'s lam and epochs, the float model, the quantized widths
    (``param_bits`` at most the config's ``max_param_bits``) and scales,
    and the dataset's names and normalization (a Dataset of no samples, with
    one label name per class, and no null that ``model_doc`` refuses); then
    ``check_written``, which compares the words derived from the scales too."""
    config = _field(doc, "config", "document")
    keys = _CONFIG_KEYS if quantized else _CONFIG_KEYS[:-2]
    for key in keys:
        value = _field(config, key, "config")
        if key not in CONFIG_RANGES:
            ok, what = isinstance(value, str), "a string"
        else:
            lo, hi, kind = CONFIG_RANGES[key]
            ok = in_range(value, lo, hi, kind)
            what = f"{'a number' if kind is float else 'an integer'} {range_text(lo, hi, kind)}"
        if not ok:
            raise ValueError(f"config {key} {value!r:.80} is not {what}")
    if set(config) - set(keys):
        raise ValueError(f"config has an unknown key {min(set(config) - set(keys))!r}")
    hyper = _field(doc, "hyper", "document")
    lam, epochs = _field(hyper, "lam", "hyper"), _field(hyper, "epochs", "hyper")
    try:
        hyper = Hyper(lam, epochs)
    except ValueError as exc:
        raise ValueError(f"hyper: {exc}") from None
    fmodel = float_model_from_dict(_field(doc, "float_model", "document"))
    qm = quantized_from_dict(_field(doc, "quantized", "document"), fmodel, config["input_bits"]) if quantized else None
    if qm is not None and qm.param_bits > config["max_param_bits"]:
        raise ValueError(f"quantized.param_bits {qm.param_bits} exceeds config max_param_bits "
                         f"{config['max_param_bits']}")
    names = [_field(_field(doc, "dataset", "document"), key, "dataset")
             for key in ("label_names", "feature_names", "normalization")]
    dataset = Dataset(np.empty((0, fmodel.n_features)), [], *names)
    if dataset.n_classes != fmodel.n_classes:
        raise ValueError(f"dataset.label_names has {dataset.n_classes} names, the model {fmodel.n_classes} classes")
    parts = (config, dataset, hyper, fmodel, qm)
    check_written(doc, model_doc(*parts))
    return parts


def check_written(doc, written, path: str = "") -> None:
    """Reject ``doc`` unless it equals ``written``, what the writer writes for
    its parts, with the same type at every place, so that 1.0 or true never
    passes for 1. One recursive walk, the library's only type-strict
    comparison, names the first difference in sorted key order: a missing
    or unknown key, a list's length, or a value and what is written there."""
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


def _unrepeated(pairs: list) -> dict:
    """One JSON object's (key, value) pairs as a dict, rejecting a repeated
    key, of which plain json.load would keep only the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"an object repeats the key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def load_model_doc(path) -> dict:
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unrepeated)
