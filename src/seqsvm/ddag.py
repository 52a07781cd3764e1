"""One-vs-one decision DAG: the control graph that picks a class with n-1
pairwise evaluations, plus inference over it.

The DAG is the classical one over the natural class order (Platt et al., NIPS
1999), fixed by the class count n, which every walk reads from its model. A
walk carries the interval (lo, hi) of still-alive classes from (0, n-1) and
reads row ``pair_index(lo, hi)``. Engine output y=1 means the pair's lower
class (trained as +1) won, so hi -= 1; y=0 means lo += 1. After n-1 steps lo
is the class. The state is the row read: the Verilog wires row = state, from
``pair_index(0, n-1, n)``, in ``state_bits_for(n)`` bits. The FSM's one
description is ``transitions(n)``.

A model is its table: row r = [bias, w_1..w_m] of the r-th pair of
``row_pairs``, the bias as word 0. ``_walk_table`` is the library's one DAG
walk. ``walk_batch`` runs it on integer words, exactly or with the hardware's
wrapping accumulator, for the reference predictions, the batch simulator and
the golden vectors; ``archsim.simulate`` runs it recording every step, for
traces; ``ddag_predict_float`` runs it on the float model. ``score_table``
sums every row on every sample in the walk's order, for quant's accumulator
profiling, the float OvA scores and the OvO max-wins votes wherever a BLAS
score cannot certify them; it sits beside ``_walk_table`` so the two loops keep
one summation order.
"""

from __future__ import annotations

import math

import numpy as np

from .fxp import BLOCK_ELEMENTS


def pair_count(n_classes: int) -> int:
    return n_classes * (n_classes - 1) // 2


def pair_index(a: int, b: int, n_classes: int) -> int:
    """Row index of pair (a, b), a < b, under lexicographic ordering."""
    if not 0 <= a < b < n_classes:
        raise ValueError(f"bad pair ({a},{b}) for {n_classes} classes")
    return _row(a, b, n_classes)


def _row(lo, hi, n_classes: int):
    """pair_index without the range check, elementwise on arrays too."""
    return lo * (2 * n_classes - 3 - lo) // 2 + hi - 1


def row_pairs(kind: str, n_classes: int) -> list[tuple[int, int | None]]:
    """(class_a, class_b) of each table row of a ``kind`` model: the class
    pairs in lexicographic order for "ovo", (class, None) per class for "ova".
    Both models call it, so it rejects any class count but an int (no bool) >= 2."""
    if type(n_classes) is not int or n_classes < 2:
        raise ValueError(f"a model needs an integer class count of at least two, got {n_classes!r}")
    if kind == "ovo":
        return [(a, b) for a in range(n_classes) for b in range(a + 1, n_classes)]
    if kind == "ova":
        return [(c, None) for c in range(n_classes)]
    raise ValueError(f"model kind {kind!r} is neither 'ovo' nor 'ova'")


def state_bits_for(n_classes: int) -> int:
    """Width of the state register, which is also the storage row address."""
    return max(1, math.ceil(math.log2(pair_count(n_classes))))


def class_bits(n_classes: int) -> int:
    """Width of a class id 0..n-1, and of a vote count 0..n-1."""
    return max(1, (n_classes - 1).bit_length())


def build_ddag(n_classes: int) -> int:
    """The class count itself, which fixes the DAG: kept only for
    bench/shapes.py's ``cost.compare_storage`` call, until the benchmark changes."""
    return n_classes


def transitions(n: int):
    """The FSM of the n-class DAG, one (state, lo, hi, on_a, on_b) per state
    in state order.

    State ``pair_index(lo, hi)`` compares classes lo and hi. ``on_a`` (y=1)
    and ``on_b`` (y=0) are its successors: ("node", state), or ("leaf",
    class) once the pair is adjacent.
    """
    for lo in range(n):
        for hi in range(lo + 1, n):
            last = hi == lo + 1
            on_a = ("leaf", lo) if last else ("node", _row(lo, hi - 1, n))
            on_b = ("leaf", hi) if last else ("node", _row(lo + 1, hi, n))
            yield _row(lo, hi, n), lo, hi, on_a, on_b


def check_ovo(fmodel) -> None:
    """Reject a float model that is not one-vs-one; a QuantizedModel always is."""
    if fmodel.kind != "ovo":
        raise ValueError(f"a DAG walks OvO models only, not a {fmodel.kind!r} model")


def aligned_words(qm) -> np.ndarray:
    """A writable copy of qm's word table with each bias at the products'
    binary point (bias << bias_shift): the table the integer kernels run."""
    table = qm.words.copy()
    table[:, 0] <<= qm.bias_shift
    return table


def score_table(table: np.ndarray, X: np.ndarray, dtype=None):
    """Every row's accumulator on every sample, a block of BLOCK_ELEMENTS //
    rows samples at a time, in ``dtype`` (``table``'s by default): float64
    scores, or integer prefixes that cannot overflow it.

    ``table`` row r = [bias, w_1..w_m], the bias already at the products'
    binary point. Yields (first sample, col, acc) after the bias load (col 0)
    and after each MAC (col j), acc[r, s] being row r's prefix on sample
    first+s, in one buffer that the next yield reuses. These fixed-order
    elementwise sums give each score the walk's bits whatever block
    its sample falls in, which a BLAS product would not.
    """
    cols = np.ascontiguousarray(table.T[:, :, None], dtype)  # row j: word j of every stored row
    block = max(1, BLOCK_ELEMENTS // max(1, len(table)))
    acc = np.empty((len(table), min(block, len(X))), cols.dtype)
    product = np.empty_like(acc)
    x_buf = np.empty((X.shape[1], acc.shape[1]), cols.dtype)  # row j: a block's inputs j
    for start in range(0, len(X), block):
        k = min(block, len(X) - start)
        x, a, p = x_buf[:, :k], acc[:, :k], product[:, :k]
        x[...] = X[start:start + k].T
        a[:] = cols[0]
        yield start, 0, a
        for col, (w, xj) in enumerate(zip(cols[1:], x), start=1):
            np.multiply(w, xj, out=p)
            a += p
            yield start, col, a


def _block_rows(n_features: int) -> int:
    """Samples per block of ``_walk_table``: BLOCK_ELEMENTS // (m+1)."""
    return max(1, BLOCK_ELEMENTS // (n_features + 1))


def _walk_table(n: int, table: np.ndarray, X: np.ndarray, acc_width: int | None = None, record=None):
    """The DAG-walk step loop over every sample, on int64 words and codes or
    on float64 coefficients and features, one block of samples at a time.

    ``table`` row r = [bias, w_1..w_m], the bias already at the products'
    binary point. Each of the n-1 steps gathers the row of each sample's
    pair (lo, hi) and carries the accumulator column by column: the bias,
    then one product per feature. With ``acc_width`` (integers only) it wraps after
    the bias load and after every MAC, and each wrap counts as one overflow;
    with None the sums are exact integers or plain float arithmetic.

    A block holds BLOCK_ELEMENTS // (m+1) samples. Its inputs are copied
    column-major, and each step gathers the block's words into one reused
    (m+1) x samples buffer, so the walk's memory does not grow with the
    sample count. Yields (first sample, classes, final_states, overflows)
    per block, int64 views into buffers that the next block reuses; the
    final state is the last row read, whose verdict chose the class.

    ``record``, for archsim.simulate's traces, is a pair of int64 arrays
    (states, accs) of shapes (n-1, samples) and (n-1, m+1, samples): step t
    of sample s writes its state to states[t, s], and its accumulator after
    column j, wrapped, to accs[t, j, s].
    """
    cols = np.ascontiguousarray(table.T)  # row j: word j of every stored row
    # |partial sums| < 2**63 (see MAX_INPUT_BITS), so 64 or more bits never wrap
    wraps = acc_width is not None and acc_width < 64
    # a wrapping accumulator is carried plus 2**(acc_width-1), in
    # [0, 2**acc_width), so that the wrap is one mask and the sign a compare
    offset = 1 << (acc_width - 1) if wraps else 0
    m = X.shape[1]
    block = _block_rows(m)
    size = min(block, len(X))
    x_buf = np.empty((m, size), dtype=table.dtype)
    word_buf = np.empty((m + 1) * size, dtype=table.dtype)  # flat: a block's words stay contiguous
    spare_buf = np.empty(size, dtype=table.dtype)
    lo_buf, hi_buf, state_buf, overflow_buf = (np.empty(size, dtype=np.int64) for _ in range(4))
    won_buf = np.empty(size, dtype=bool)
    for start in range(0, len(X), block):
        k = min(block, len(X) - start)
        x, words = x_buf[:, :k], word_buf[:(m + 1) * k].reshape(m + 1, k)
        x[...] = X[start:start + k].T
        lo, hi, state, overflow, won = lo_buf[:k], hi_buf[:k], state_buf[:k], overflow_buf[:k], won_buf[:k]
        lo.fill(0)
        hi.fill(n - 1)
        overflow.fill(0)
        for step in range(n - 1):
            state[...] = _row(lo, hi, n)
            if record is not None:
                record[0][step, start:start + k] = state
                trace = record[1][step, :, start:start + k]
            np.take(cols, state, axis=1, out=words, mode="clip")
            # the bias load into word 0's row, then each MAC adds a product
            # made in its word's row; spare is always a consumed row or spare_buf
            acc, spare = words[0], spare_buf[:k]
            if wraps:
                acc += offset
            for col in range(m + 1):
                if col:
                    product = words[col]
                    product *= x[col - 1]
                    acc += product
                if wraps:
                    np.bitwise_and(acc, (1 << acc_width) - 1, out=spare)
                    np.not_equal(spare, acc, out=won)
                    overflow += won
                    acc, spare = spare, acc
                if record is not None:
                    np.subtract(acc, offset, out=trace[col])
            np.greater_equal(acc, offset, out=won)  # the pair's lower class won
            hi -= won
            lo += np.logical_not(won, out=won)
        yield start, lo, state, overflow


def walk_batch(qm, codes, acc_width: int | None = None):
    """The integer walk of every sample at once: the kernel behind
    ddag_predict_quant, simulate_batch and emit_golden_vectors.

    Scores qm's stored words, the bias entering as bias << bias_shift, on
    ``codes``, which must fit qm's input format. ``acc_width`` is the
    wrapping accumulator's width, or None for exact sums. Returns int64
    (classes, final_states, overflows) per sample, as _walk_table yields them.
    """
    X = qm.input_codes(codes)
    results = tuple(np.empty(len(X), dtype=np.int64) for _ in range(3))
    for start, *block in _walk_table(qm.n_classes, aligned_words(qm), X, acc_width):
        for result, part in zip(results, block):
            result[start:start + len(part)] = part
    return results


def ddag_predict_quant(qm, codes_matrix) -> np.ndarray:
    """Exact-arithmetic DDAG class of every sample."""
    return walk_batch(qm, codes_matrix)[0]


def float_features(fmodel, features) -> np.ndarray:
    """``features`` as the float64 samples x m matrix that ``fmodel`` scores.
    Rejects any other shape, then any value that is not finite."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != fmodel.n_features:
        raise ValueError(f"need a samples x {fmodel.n_features} feature matrix, got shape {X.shape}")
    if X.size and not np.isfinite([X.min(), X.max()]).all():
        raise ValueError("features must be finite")
    return X


def ddag_predict_float(fmodel, features) -> np.ndarray:
    """Float DDAG class of every sample."""
    check_ovo(fmodel)
    X = float_features(fmodel, features)
    classes = np.empty(len(X), dtype=np.int64)
    for start, lo, _, _ in _walk_table(fmodel.n_classes, fmodel.coefs, X):
        classes[start:start + len(lo)] = lo
    return classes
