"""Shared builders for randomized and shape-pinned quantized models, model
documents, and the reference node graph of the DDAG; and the test-side
oracles that the library's one DAG walk, ``ddag._walk_table``, is held to:
the scalar walks and the max-wins vote. The cycle-by-cycle oracle is the
emitted Verilog, read back and stepped (tests/verilog.py)."""

import json
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from seqsvm.dataset import Dataset
from seqsvm.ddag import kernel_words, pair_index, row_pairs
from seqsvm.fxp import U4_4, FxpFormat
from seqsvm.modelio import dumps_canonical, model_doc
from seqsvm.quant import QuantizedModel, profile_accumulator, quantize_model
from seqsvm.trainer import FloatSvmModel, Hyper

# (n_classes, n_features) of the five benchmark shapes used throughout.
TABLE_SHAPES = {
    "cardio": (3, 21),
    "dermatology": (6, 33),
    "pendigits": (10, 17),
    "redwine": (6, 11),
    "whitewine": (7, 11),
}


def document(fmodel, param_bits=None, input_bits=4, acc_width=8, scales=None) -> dict:
    """float_model.json of ``fmodel``, or, given ``param_bits``, model.json
    with ``fmodel`` quantized to them at ``scales`` (None: the min-max ones)
    for inputs of ``input_bits``, under a fixed config, dataset and seed, as
    its JSON text reads back."""
    config = {"dataset": "data.csv", "label_column": "label", "seed": 0, "train_fraction": 0.8, "budget": 1}
    qm = None
    if param_bits is not None:
        config.update(input_bits=input_bits, max_param_bits=16)
        qm = quantize_model(fmodel, param_bits, FxpFormat(input_bits), scales)
        qm.acc_width = acc_width
    m = fmodel.n_features
    names = Dataset(np.empty((0, m)), [], [f"c{c}" for c in range(fmodel.n_classes)], [f"f{j}" for j in range(m)],
                    [(0.0, 1.0)] * m)
    return json.loads(dumps_canonical(model_doc(config, names, Hyper(), fmodel, qm)))


@dataclass(frozen=True)
class RefNode:
    state_id: int  # also the storage row this state reads
    class_a: int
    class_b: int
    on_a_wins: tuple  # ("node", state_id) or ("leaf", class_id)
    on_b_wins: tuple


@dataclass(frozen=True)
class RefGraph:
    n_classes: int
    nodes: dict
    initial_state: int


def reference_graph(n):
    """The natural DDAG over classes 0..n-1 as an explicit node graph, built
    pair by pair: the reference for the derived ``ddag.fsm_arms``."""
    nodes = {}
    for lo in range(n):
        for hi in range(lo + 1, n):
            sid = pair_index(lo, hi, n)
            if lo == hi - 1:
                a_edge = ("leaf", lo)
            else:
                a_edge = ("node", pair_index(lo, hi - 1, n))
            if lo + 1 == hi:
                b_edge = ("leaf", hi)
            else:
                b_edge = ("node", pair_index(lo + 1, hi, n))
            nodes[sid] = RefNode(sid, lo, hi, a_edge, b_edge)
    return RefGraph(n, nodes, pair_index(0, n - 1, n))


def wrap(value, width: int):
    """Truncate an integer into width-bit two's complement (hardware wrap)."""
    half = 1 << (width - 1)
    return ((value + half) & ((1 << width) - 1)) - half


# ---------------------------------------------------------------------------
# Reference: the scalar walks and the max-wins vote, in Python numbers.
# ---------------------------------------------------------------------------


def _interval_walk_oracle(qm, codes):
    """Independent re-implementation: walk the (lo, hi) interval rule directly."""
    lo, hi = 0, qm.n_classes - 1
    shift = qm.bias_shift
    while lo != hi:
        bias, *weights = qm.words[pair_index(lo, hi, qm.n_classes)].tolist()
        acc = (bias << shift) + sum(w * int(x) for w, x in zip(weights, codes))
        if acc >= 0:
            hi -= 1  # lower class won, top one eliminated
        else:
            lo += 1
    return lo


def _walk(n: int, decide) -> tuple[int, list[tuple[int, int]]]:
    """The scalar walk: ``decide(row)`` scores the row of pair (lo, hi) and
    returns whether the pair's lower class won. Returns the class and the
    (row, y) log of its n-1 evaluations."""
    lo, hi = 0, n - 1
    evaluations = []
    while lo < hi:
        row = pair_index(lo, hi, n)
        y = 1 if decide(row) else 0
        evaluations.append((row, y))
        if y:
            hi -= 1
        else:
            lo += 1
    return lo, evaluations


def _score_walk(n: int, table: np.ndarray, x: list) -> tuple[int, list[tuple[int, int]]]:
    """The scalar walk on ``table`` (the bias already at the products'
    binary point): each row read is scored on ``x`` in Python numbers, the
    bias, then one product per feature, in _walk_table's order."""

    def decide(row):
        acc, *weights = table[row].tolist()
        for w, xi in zip(weights, x):
            acc += w * xi
        return acc >= 0

    return _walk(n, decide)


def _vote_oracle(qm, codes):
    wins = [0] * qm.n_classes
    for (a, b), (bias, *weights) in zip(row_pairs("ovo", qm.n_classes), qm.words.tolist()):
        acc = (bias << qm.bias_shift) + sum(w * x for w, x in zip(weights, codes))
        wins[a if acc >= 0 else b] += 1
    return max(range(qm.n_classes), key=lambda c: (wins[c], -c))


def integer_twin(qm):
    """The float OvO model of qm's rows, each bias at the products' binary
    point: its scores on input codes are exact, so its votes are qm's."""
    return FloatSvmModel("ovo", qm.n_classes, qm.n_features, kernel_words(qm).astype(np.float64))


def random_quantized_model(n, m, param_bits, seed, n_profile=200, input_fmt=U4_4):
    """Random integer model profiled on (and returned with) its own input codes,
    so every returned code is overflow-free by construction."""
    rng = np.random.default_rng([seed, n, m, param_bits])
    top = (1 << (param_bits - 1)) - 1
    words = []
    for _ in range(n * (n - 1) // 2):  # per pair: its weights are drawn before its bias
        w = rng.integers(-top, top + 1, m)
        words.append([int(rng.integers(-top, top + 1)), *w])
    qm = QuantizedModel(n, m, input_fmt, param_bits, words, [1.0] * len(words))
    codes = rng.integers(0, input_fmt.raw_max + 1, (n_profile, m))
    profile_accumulator(qm, codes)
    return qm, codes


def shaped_model(name, param_bits=8, seed=0):
    n, m = TABLE_SHAPES[name]
    return random_quantized_model(n, m, param_bits, seed)


def bias_only_model(n, biases):
    """One bias per pair in lexicographic order, zero weights, one feature.

    bias >= 0 makes the pair's lower class win; handy for scripting exact
    comparison outcomes.
    """
    words = [[int(bias), 0] for bias in biases[:n * (n - 1) // 2]]
    qm = QuantizedModel(n, 1, U4_4, 8, words, [1.0] * len(words))
    qm.acc_width = 16
    return qm


def layouts(rows, dtype):
    """``rows`` as a C-ordered matrix, a Fortran-ordered one and a strided
    column view: the kernels must not depend on the input's memory layout."""
    a = np.array(rows, dtype=dtype)
    padded = np.zeros((len(a), 2 * a.shape[1]), dtype=dtype)
    padded[:, 1::2] = a
    return [a, np.asfortranarray(a), padded[:, 1::2]]


@st.composite
def profiled_cases(draw):
    """A random profiled model of any width the library accepts and its
    input codes; acc_width is the profiled width minus 0..6 bits, or an
    oversized 64."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 8))
    param_bits = draw(st.integers(2, 16))
    input_bits = draw(st.integers(1, 16))
    fmt = FxpFormat(input_bits)
    top = (1 << (param_bits - 1)) - 1
    coef = st.integers(-top - 1, top)
    words = []
    for _ in range(n * (n - 1) // 2):  # per pair: its weights are drawn before its bias
        weights = draw(st.lists(coef, min_size=m, max_size=m))
        words.append([draw(coef), *weights])
    qm = QuantizedModel(n, m, fmt, param_bits, words, [1.0] * len(words))
    code = st.integers(0, fmt.raw_max)
    codes = draw(st.lists(st.lists(code, min_size=m, max_size=m), min_size=1, max_size=12))
    profiled, _, _ = profile_accumulator(qm, np.array(codes))
    qm.acc_width = draw(st.one_of(st.integers(max(1, profiled - 6), profiled), st.just(64)))
    return qm, codes
