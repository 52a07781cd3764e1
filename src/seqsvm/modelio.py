"""Model document (de)serialization.

One JSON document is the single source of truth consumed by the DAG builder,
the simulator, the HDL generator, and the cost model. Serialization is
canonical (sorted keys, fixed separators, trailing newline) so identical
models are byte-identical on disk; floats round-trip exactly through repr.

Document layout (format "seqsvm/model", version 1):
  seed, config, config_hash              provenance
  dataset: {label_names, feature_names, normalization, split}
  hyper: {lam, epochs, seed}
  float_model: {kind, n_classes, n_features,
                vectors: [{class_a, class_b, weights, bias}]}
  quantized (optional): {input_fmt, param_bits, acc_width, bias_shift,
                scales, vectors: [{class_a, class_b, weights, bias}]}
  ddag (optional): {n_classes, initial_state, state_bits, ordering,
                nodes: [{id, class_a, class_b, row, on_a, on_b}]}
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .ddag import Ddag, DdagNode, check_rows_are_states
from .fxp import FxpFormat
from .quant import QuantizedModel, QuantVector
from .trainer import FloatSvmModel, SupportVector

FORMAT = "seqsvm/model"
VERSION = 1


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def config_hash(config: dict) -> str:
    return hashlib.sha256(dumps_canonical(config).encode()).hexdigest()


def float_model_to_dict(model: FloatSvmModel) -> dict:
    return {
        "kind": model.kind,
        "n_classes": model.n_classes,
        "n_features": model.n_features,
        "vectors": [
            {
                "class_a": v.class_a,
                "class_b": v.class_b,
                "weights": [float(w) for w in v.weights],
                "bias": float(v.bias),
            }
            for v in model.vectors
        ],
    }


def float_model_from_dict(doc: dict) -> FloatSvmModel:
    vectors = [
        SupportVector(v["class_a"], v["class_b"], np.array(v["weights"]), v["bias"])
        for v in doc["vectors"]
    ]
    return FloatSvmModel(doc["kind"], doc["n_classes"], doc["n_features"], vectors)


def _input_fmt_doc(bits) -> dict:
    """The serialized input format: unsigned and all fractional."""
    return {"total_bits": bits, "frac_bits": bits, "signed": False}


def quantized_to_dict(qm: QuantizedModel) -> dict:
    return {
        "input_fmt": _input_fmt_doc(qm.input_fmt.total_bits),
        "param_bits": qm.param_bits,
        "acc_width": qm.acc_width,
        "bias_shift": qm.bias_shift,
        "scales": [float(s) for s in qm.scales],
        "vectors": [
            {
                "class_a": v.class_a,
                "class_b": v.class_b,
                "weights": [int(w) for w in v.weights],
                "bias": int(v.bias),
            }
            for v in qm.vectors
        ],
    }


def quantized_from_dict(doc: dict, n_classes: int, n_features: int) -> QuantizedModel:
    fmt_doc, shift = doc["input_fmt"], doc.get("bias_shift")
    bits = fmt_doc.get("total_bits") if isinstance(fmt_doc, dict) else None
    if type(bits) is not int or fmt_doc != _input_fmt_doc(bits) or shift != bits:
        raise ValueError(
            f"input format {fmt_doc} with bias_shift {shift} is not supported: "
            "inputs must be unsigned and all fractional, and the bias shifts by the input bits"
        )
    fmt = FxpFormat(bits)
    vectors = [
        QuantVector(v["class_a"], v["class_b"], [int(w) for w in v["weights"]], int(v["bias"]))
        for v in doc["vectors"]
    ]
    qm = QuantizedModel(n_classes, n_features, fmt, doc["param_bits"], vectors, list(doc["scales"]))
    qm.acc_width = doc["acc_width"]
    return qm


def ddag_to_dict(dag: Ddag) -> dict:
    return {
        "n_classes": dag.n_classes,
        "initial_state": dag.initial_state,
        "state_bits": dag.state_bits,
        "ordering": dag.ordering,
        "nodes": [
            {
                "id": node.state_id,
                "class_a": node.class_a,
                "class_b": node.class_b,
                "row": node.row_index,
                "on_a": list(node.on_a_wins),
                "on_b": list(node.on_b_wins),
            }
            for _, node in sorted(dag.nodes.items())
        ],
    }


def ddag_from_dict(doc: dict) -> Ddag:
    """The DAG of a model document; rejects a node whose row is not its id."""
    nodes = {
        n["id"]: DdagNode(
            n["id"], n["class_a"], n["class_b"], n["row"],
            (n["on_a"][0], n["on_a"][1]), (n["on_b"][0], n["on_b"][1]),
        )
        for n in doc["nodes"]
    }
    dag = Ddag(doc["n_classes"], nodes, doc["initial_state"], doc["state_bits"], doc["ordering"])
    check_rows_are_states(dag)
    return dag


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
