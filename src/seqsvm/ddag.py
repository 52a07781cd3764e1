"""One-vs-one decision DAG: the control graph that picks a class with n-1
pairwise evaluations, plus inference over it.

One step loop walks every sample through the DAG at once: at each of the
n-1 steps it gathers the stored row that each sample's state points to and
scores it column by column, bias first. ``walk_batch`` runs it on integer
words, exactly or with the hardware's wrapping accumulator, for the
reference predictions, the batch simulator and the golden vectors;
``ddag_predict_float`` runs it on the float model. ``ddag_infer`` and
``ddag_infer_float`` are the scalar oracles: per-sample walks, summing in
the same order, with their (row, y) logs.

Each state carries an interval (lo, hi) of still-alive extreme classes and
evaluates the separator for pair (lo, hi). Engine output y=1 means the pair's
lower class (trained as +1) won, eliminating hi; y=0 eliminates lo. A state's
id doubles as the memory row index of its pair under lexicographic pair
ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fxp import MAX_INPUT_BITS, wrap

# An edge is ("node", state_id) or ("leaf", class_id).
Edge = tuple[str, int]

UNFINISHED_WALK = "DAG walk has not reached a leaf after {} evaluations"


@dataclass(frozen=True)
class DdagNode:
    state_id: int
    class_a: int
    class_b: int
    row_index: int
    on_a_wins: Edge
    on_b_wins: Edge


@dataclass
class Ddag:
    n_classes: int
    nodes: dict[int, DdagNode]
    initial_state: int
    state_bits: int
    ordering: str = "natural"  # root compares class 0 vs class n-1


def pair_count(n_classes: int) -> int:
    return n_classes * (n_classes - 1) // 2


def pair_index(a: int, b: int, n_classes: int) -> int:
    """Row index of pair (a, b), a < b, under lexicographic ordering."""
    if not 0 <= a < b < n_classes:
        raise ValueError(f"bad pair ({a},{b}) for {n_classes} classes")
    return a * (n_classes - 1) - a * (a - 1) // 2 + (b - a - 1)


def state_bits_for(n_classes: int) -> int:
    return max(1, math.ceil(math.log2(pair_count(n_classes))))


def build_ddag(n_classes: int) -> Ddag:
    """Classical DDAG over the natural class order [0..n-1]."""
    if n_classes < 2:
        raise ValueError("need at least two classes")
    n = n_classes
    nodes = {}
    for lo in range(n):
        for hi in range(lo + 1, n):
            sid = pair_index(lo, hi, n)
            if lo == hi - 1:
                a_edge: Edge = ("leaf", lo)
            else:
                a_edge = ("node", pair_index(lo, hi - 1, n))
            if lo + 1 == hi:
                b_edge: Edge = ("leaf", hi)
            else:
                b_edge = ("node", pair_index(lo + 1, hi, n))
            nodes[sid] = DdagNode(sid, lo, hi, sid, a_edge, b_edge)
    return Ddag(n, nodes, pair_index(0, n - 1, n), state_bits_for(n))


def check_rows_are_states(dag: Ddag) -> None:
    """Reject a DAG in which a state reads a row other than its own id: the
    emitted Verilog wires row = state, so such a DAG would classify
    differently in hardware than in the simulators."""
    for sid, node in sorted(dag.nodes.items()):
        if node.row_index != sid:
            raise ValueError(f"DAG state {sid} reads row {node.row_index}; the Verilog reads row = state")


def _walk(dag: Ddag, decide) -> tuple[int, list[tuple[int, int]]]:
    evaluations = []
    sid = dag.initial_state
    for _ in range(dag.n_classes - 1):
        node = dag.nodes[sid]
        y = 1 if decide(node) else 0
        evaluations.append((node.row_index, y))
        kind, target = node.on_a_wins if y else node.on_b_wins
        if kind == "leaf":
            return target, evaluations
        sid = target
    raise ValueError(UNFINISHED_WALK.format(dag.n_classes - 1))


def ddag_infer(qm, dag: Ddag, codes) -> tuple[int, list[tuple[int, int]]]:
    """Walk the DAG with exact integer arithmetic on quantized parameters.

    The scalar oracle of ddag_predict_quant. Returns the leaf class and the
    (row, y) log; always exactly n-1 entries.
    """
    codes = qm.input_codes([codes])[0].tolist()
    shift = qm.bias_shift

    def decide(node):
        vec = qm.vectors[node.row_index]
        acc = vec.bias << shift
        for w, x in zip(vec.weights, codes):
            acc += w * x
        return acc >= 0

    return _walk(dag, decide)


def _state_table(dag: Ddag, n_rows: int) -> np.ndarray:
    """Per state id: its row, its y=0 and its y=1 successor (leaf class c as -1-c)."""

    def code(kind: str, target: int) -> int:
        if kind == "leaf" and 0 <= target < dag.n_classes:
            return -1 - target
        if kind == "node" and target in dag.nodes:
            return target
        raise ValueError(f"DAG edge {(kind, target)} leads nowhere")

    table = np.zeros((max(dag.nodes) + 1, 3), dtype=np.int64)
    for sid, node in dag.nodes.items():
        if sid < 0 or not 0 <= node.row_index < n_rows:
            raise ValueError(f"DAG state {sid} reads row {node.row_index} of {n_rows}")
        table[sid] = node.row_index, code(*node.on_b_wins), code(*node.on_a_wins)
    code("node", dag.initial_state)
    return table


def check_codes(codes, n_features: int) -> np.ndarray:
    """``codes`` as an int64 samples x n_features matrix of the unsigned
    codes the integer kernels accept."""
    X = np.asarray(codes, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"need a samples x {n_features} code matrix, got shape {X.shape}")
    if X.size and (X.min() < 0 or X.max() >= 1 << MAX_INPUT_BITS):
        raise ValueError(f"input codes must be unsigned {MAX_INPUT_BITS}-bit integers")
    return X


def _walk_table(dag: Ddag, table: np.ndarray, X: np.ndarray, acc_width: int | None = None):
    """The DAG-walk step loop over every sample at once, on int64 words and
    codes or on float64 coefficients and features.

    ``table`` row r = [bias, w_1..w_m], the bias already at the products'
    binary point. Each of the n-1 steps gathers the row that each sample's
    state points to and carries the accumulator column by column: the bias,
    then one product per feature. With ``acc_width`` (integers only) it wraps
    after the bias load and after every MAC, and each wrap counts as one
    overflow, as in engine_step; with None the sums are exact integers or
    plain float arithmetic.

    Returns int64 (classes, final_states, overflows) per sample; the final
    state is the node whose verdict chose the leaf.
    """
    states = _state_table(dag, len(table))
    # Column-major copies, (m+1, rows) and (m, samples), so that each
    # multiply-add of a step reads contiguous memory whatever the inputs' layout.
    cols = np.ascontiguousarray(table.T)
    Xt = np.ascontiguousarray(X.T)
    # |partial sums| < 2**63 (see MAX_INPUT_BITS), so 64 or more bits never wrap
    wraps = acc_width is not None and acc_width < 64
    n_steps = dag.n_classes - 1
    state = target = np.full(len(X), dag.initial_state, dtype=np.int64)
    overflows = np.zeros(len(X), dtype=np.int64)
    for step in range(n_steps):
        row, on_b, on_a = states[state].T
        w = cols[:, row]
        acc = w[0]
        for col in range(len(w)):
            if col:
                acc = acc + w[col] * Xt[col - 1]
            if wraps:
                wrapped = wrap(acc, acc_width)
                overflows += wrapped != acc
                acc = wrapped
        target = np.where(acc >= 0, on_a, on_b)
        if step < n_steps - 1:
            if (target < 0).any():
                raise ValueError(f"a DAG path reaches a leaf after {step + 1} of {n_steps} evaluations")
            state = target
    if (target >= 0).any():
        raise ValueError(UNFINISHED_WALK.format(n_steps))
    return -1 - target, state, overflows


def walk_batch(words, shift: int, dag: Ddag, codes, acc_width: int | None = None):
    """The integer walk of every sample at once: the kernel behind
    ddag_predict_quant, simulate_batch and emit_golden_vectors.

    ``words`` is the stored table, row r = [bias, w_1..w_m]; the bias enters
    as bias << shift. ``acc_width`` is the wrapping accumulator's width, or
    None for exact sums. Returns int64 (classes, final_states, overflows) per
    sample, as _walk_table does.
    """
    table = np.array(words, dtype=np.int64)  # a copy: its bias column is aligned here
    X = check_codes(codes, table.shape[1] - 1)
    table[:, 0] <<= shift
    return _walk_table(dag, table, X, acc_width)


def ddag_predict_quant(qm, dag: Ddag, codes_matrix) -> np.ndarray:
    """Exact-arithmetic classes of every sample; the batch form of ddag_infer."""
    return walk_batch(qm.word_table(), qm.bias_shift, dag, qm.input_codes(codes_matrix))[0]


def ddag_infer_float(fmodel, dag: Ddag, x) -> tuple[int, list[tuple[int, int]]]:
    """The same walk on the float model (vectors in lexicographic pair order).

    The scalar oracle of ddag_predict_float: each score is summed in Python
    floats in the batch walk's order, bias first and then one product per
    feature, so both give the same class bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (fmodel.n_features,):
        raise ValueError(f"need {fmodel.n_features} features, got shape {x.shape}")
    x = x.tolist()

    def decide(node):
        vec = fmodel.vectors[node.row_index]
        acc = float(vec.bias)
        for w, xi in zip(vec.weights, x):
            acc += float(w) * xi
        return acc >= 0.0

    return _walk(dag, decide)


def ddag_predict_float(fmodel, dag: Ddag, features) -> np.ndarray:
    """Float DDAG class of every sample; the batch form of ddag_infer_float."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != fmodel.n_features:
        raise ValueError(f"need a samples x {fmodel.n_features} feature matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    return _walk_table(dag, fmodel.coef_table(), X)[0]


def ovo_vote_infer(qm, codes) -> int:
    """Baseline semantics: evaluate every pair, max-wins vote, lowest id on ties."""
    x = qm.input_codes([codes])[0]
    words = qm.word_table()
    sums = (words[:, 0] << qm.bias_shift) + words[:, 1:] @ x  # exact in int64
    winners = [v.class_a if s >= 0 else v.class_b for v, s in zip(qm.vectors, sums)]
    return int(np.argmax(np.bincount(winners, minlength=qm.n_classes)))
