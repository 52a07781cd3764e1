"""Shared builders for randomized and shape-pinned quantized models, and the
reference node graph of the DDAG."""

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from seqsvm.ddag import pair_index
from seqsvm.fxp import U4_4, FxpFormat
from seqsvm.quant import QuantizedModel, profile_accumulator

# (n_classes, n_features) of the five benchmark shapes used throughout.
TABLE_SHAPES = {
    "cardio": (3, 21),
    "dermatology": (6, 33),
    "pendigits": (10, 17),
    "redwine": (6, 11),
    "whitewine": (7, 11),
}


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
    pair by pair: the reference for the derived ``ddag.transitions`` and for
    the walks."""
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
