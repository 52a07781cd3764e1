"""One-vs-one decision DAG: the control graph that picks a class with n-1
pairwise evaluations, plus inference over it.

The DAG is the classical one over the natural class order (Platt et al., NIPS
1999), fixed by the class count n, which every walk reads from its model. Its
FSM's one description is ``fsm_arms(n)``: state ``pair_index(a, b)``
compares classes a and b and reads that storage row, from
``pair_index(0, n-1, n)``, in ``state_bits_for(n)`` bits. Engine output y=1
means the pair's lower class (trained as +1) won. ``archsim.rtl`` records
it as ``Rtl.arms``; every walk steps it as one table of arcs, ``_successors(n)``.

A model is its table: row r = [bias, w_1..w_m] of the r-th pair of
``row_pairs``, the bias as word 0. ``_walk_table`` is the library's one DAG
walk. ``walk_batch`` runs it on integer words, exactly or with the hardware's
wrapping accumulator, for the reference predictions, the batch simulator and
the golden vectors, in the narrowest integer type that ``kernel_words``
proves exact, and ``ddag_predict_quant``, its exact walk, also scores each
table the width search tries; ``archsim.simulate`` runs it recording every
step, for traces; ``ddag_predict_float`` runs it on the float model.
``score_table`` sums every row on every sample in the walk's order, for
quant's accumulator profiling, the float OvA scores and the OvO max-wins
votes wherever a BLAS score cannot certify them; it sits beside
``_walk_table`` so the two loops keep one summation order.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fxp import BLOCK_ELEMENTS, check_array, check_int


def pair_count(n_classes: int) -> int:
    return n_classes * (n_classes - 1) // 2


def pair_index(a: int, b: int, n_classes: int) -> int:
    """Row index of pair (a, b), a < b, under lexicographic ordering."""
    if not 0 <= a < b < n_classes:
        raise ValueError(f"bad pair ({a},{b}) for {n_classes} classes")
    return a * (2 * n_classes - 3 - a) // 2 + b - 1


def row_pairs(kind: str, n_classes: int) -> list[tuple[int, int | None]]:
    """(class_a, class_b) of each table row of a ``kind`` model: the class
    pairs in lexicographic order for "ovo", (class, None) per class for "ova".
    Both models call it, so it rejects any class count but an int (no bool) >= 2."""
    check_int("n_classes", n_classes, 2)
    if kind == "ovo":
        return [(a, b) for a in range(n_classes) for b in range(a + 1, n_classes)]
    if kind == "ova":
        return [(c, None) for c in range(n_classes)]
    raise ValueError(f"model kind {kind!r} is neither 'ovo' nor 'ova'")


def state_bits_for(n_classes: int) -> int:
    """Width of the state register, which is also the storage row address."""
    return max(1, math.ceil(math.log2(pair_count(n_classes))))


def build_ddag(n_classes: int) -> int:
    """The class count itself, which fixes the DAG: kept only for
    bench/shapes.py's ``cost.compare_storage`` call, until the benchmark changes."""
    return n_classes


@functools.lru_cache(maxsize=None, typed=True)  # typed: 2.0 == 2 must not hit 2's entry
def fsm_arms(n: int) -> tuple:
    """The FSM of the n-class DAG: per state, in state order (that of
    ``row_pairs("ovo", n)``, which checks n), its successors (on_a, on_b) on
    y=1 and y=0. State ``pair_index(lo, hi)`` compares classes lo and hi.
    Each successor is ("node", state), or ("leaf", class) once the pair is adjacent.
    """
    return tuple(
        (("leaf", lo), ("leaf", hi)) if hi == lo + 1
        else (("node", pair_index(lo, hi - 1, n)), ("node", pair_index(lo + 1, hi, n)))
        for lo, hi in row_pairs("ovo", n)
    )


@functools.lru_cache(maxsize=None, typed=True)
def _successors(n: int) -> np.ndarray:
    """``fsm_arms(n)`` as one read-only int64 table of its arcs: entry
    2*state + y is that state's successor on verdict y, the next state or,
    on the last of the n-1 steps, which always reaches a leaf, the class."""
    table = np.array([arc for (_, on_a), (_, on_b) in fsm_arms(n) for arc in (on_b, on_a)], dtype=np.int64)
    table.flags.writeable = False
    return table


def check_ovo(fmodel) -> None:
    """The library's one OvO check: reject a float model that is not one-vs-one (a QuantizedModel is)."""
    if fmodel.kind != "ovo":
        raise ValueError(f"a DAG walks OvO models only, not a {fmodel.kind!r} model")


def kernel_words(qm, acc_width: int | None = None) -> np.ndarray:
    """qm's word table with each bias at the products' binary point (bias <<
    bias_shift): the table the integer kernels run, in the narrowest of
    int16, int32 and int64 that holds every value they make from it.

    Those values are the input codes (at most raw_max), and the products and
    accumulator prefixes, each at most the row bound in magnitude: the
    largest |bias << bias_shift| + raw_max * sum|w| of any row. A wrapping
    accumulator of ``acc_width`` bits (below 64) is carried in
    [0, 2**acc_width) before each add, so its walk needs the row bound plus
    2**acc_width. int64 holds every exact sum (see fxp.MAX_INPUT_BITS).
    """
    table = qm.words.copy()
    table[:, 0] <<= qm.bias_shift
    raw_max = qm.input_fmt.raw_max
    bound = int((np.abs(table[:, 0]) + raw_max * np.abs(table[:, 1:]).sum(axis=1)).max())
    if acc_width is not None and acc_width < 64:
        bound += 1 << acc_width
    for dtype in (np.int16, np.int32):
        if max(bound, raw_max) <= np.iinfo(dtype).max:
            return table.astype(dtype)
    return table


def score_table(table: np.ndarray, X: np.ndarray):
    """Every row's accumulator on every sample, a block of BLOCK_ELEMENTS //
    rows samples at a time, in ``table``'s dtype: float64 scores, or the
    integer prefixes of a ``kernel_words`` table, which cannot overflow it.

    ``table`` row r = [bias, w_1..w_m], the bias already at the products'
    binary point. Yields (first sample, col, acc) after the bias load (col 0)
    and after each MAC (col j), acc[r, s] being row r's prefix on sample
    first+s, in one buffer that the next yield reuses. These fixed-order
    elementwise sums give each score the walk's bits whatever block
    its sample falls in, which a BLAS product would not.
    """
    cols = np.ascontiguousarray(table.T[:, :, None])  # row j: word j of every stored row
    block = max(1, BLOCK_ELEMENTS // max(1, len(table)))
    acc = np.empty((len(table), min(block, len(X))), cols.dtype)
    product = np.empty_like(acc)
    x_buf = np.empty((X.shape[1], acc.shape[1]), cols.dtype)  # row j: a block's inputs j, cast on the copy
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


def _walk_table(n: int, table: np.ndarray, X: np.ndarray, acc_width: int | None = None, record: bool = False):
    """The DAG-walk step loop over every sample, on the integer words of a
    ``kernel_words`` table and codes, or on float64 coefficients and
    features, one block of samples at a time, in ``table``'s dtype.

    ``table`` row r = [bias, w_1..w_m], the bias already at the products'
    binary point. From state ``pair_index(0, n-1, n)``, each of the n-1
    steps gathers the row of each sample's state and carries the accumulator
    column by column: the bias, then one product per feature; its verdict y
    then takes the arc ``_successors(n)[2*state + y]``. With ``acc_width``
    (integers only) it wraps after the bias load and after every MAC, and
    each wrap counts as one overflow; with None the sums are exact integers,
    which an unrecorded walk adds up all at once, or plain float arithmetic.

    A block holds BLOCK_ELEMENTS // (m+1) samples. Its inputs are copied
    column-major into the table's dtype, and each step gathers the block's
    words into one reused (m+1) x samples buffer, so the walk's memory does
    not grow with the sample count. Yields (first sample, classes,
    final_states, overflows) per block, int64 views into buffers that the
    next block reuses; the final state is the last row read, whose verdict
    chose the class. A fifth item is None, or with ``record``, for
    archsim.simulate's traces, the pair (states, accs): int64 views of shapes
    (n-1, samples) and (n-1, m+1, samples) into buffers of one block, step t
    of sample s having read row states[t, s] and held accs[t, j, s], wrapped,
    after column j.
    """
    cols = np.ascontiguousarray(table.T)  # row j: word j of every stored row
    arcs = _successors(n)
    # |partial sums| < 2**63 (see MAX_INPUT_BITS), so 64 or more bits never wrap
    wraps = acc_width is not None and acc_width < 64
    # a wrapping accumulator is carried plus 2**(acc_width-1), in
    # [0, 2**acc_width), so that the wrap is one mask and the sign a compare
    offset = 1 << (acc_width - 1) if wraps else 0
    # exact integer sums are the same in any order, so an unrecorded one is
    # every product at once, then one sum over the columns
    summed = not wraps and not record and table.dtype.kind == "i"
    m = X.shape[1]
    block = max(1, BLOCK_ELEMENTS // (m + 1))
    size = min(block, len(X))
    x_buf = np.empty((m, size), dtype=table.dtype)
    word_buf = np.empty((m + 1) * size, dtype=table.dtype)  # flat: a block's words stay contiguous
    spare_buf = np.empty(size, dtype=table.dtype)
    state_buf, arc_buf, class_buf, overflow_buf = (np.empty(size, dtype=np.int64) for _ in range(4))
    won_buf = np.empty(size, dtype=bool)
    if record:
        states_buf = np.empty((n - 1, size), dtype=np.int64)
        accs_buf = np.empty((n - 1, m + 1, size), dtype=np.int64)
    for start in range(0, len(X), block):
        k = min(block, len(X) - start)
        x, words = x_buf[:, :k], word_buf[:(m + 1) * k].reshape(m + 1, k)
        x[...] = X[start:start + k].T
        state, arc, classes, overflow, won = state_buf[:k], arc_buf[:k], class_buf[:k], overflow_buf[:k], won_buf[:k]
        state.fill(pair_index(0, n - 1, n))
        overflow.fill(0)
        for step in range(n - 1):
            if record:
                states_buf[step, :k] = state
                trace = accs_buf[step, :, :k]
            np.take(cols, state, axis=1, out=words, mode="clip")
            # the bias load into word 0's row, then each MAC adds a product
            # made in its word's row; spare is always a consumed row or spare_buf
            acc, spare = words[0], spare_buf[:k]
            if summed:
                words[1:] *= x
                np.add.reduce(words, axis=0, out=spare)
                acc = spare
            if wraps:
                acc += offset
            for col in range(0 if summed else m + 1):
                if col:
                    product = words[col]
                    product *= x[col - 1]
                    acc += product
                if wraps:
                    np.bitwise_and(acc, (1 << acc_width) - 1, out=spare)
                    np.not_equal(spare, acc, out=won)
                    overflow += won
                    acc, spare = spare, acc
                if record:
                    np.subtract(acc, offset, out=trace[col])
            np.greater_equal(acc, offset, out=won)  # the pair's lower class won
            np.left_shift(state, 1, out=arc)
            arc += won
            # the last step's arcs end at the classes; state keeps the row read
            np.take(arcs, arc, out=classes if step == n - 2 else state, mode="clip")
        yield start, classes, state, overflow, (states_buf[:, :k], accs_buf[:, :, :k]) if record else None


def walk_batch(qm, codes, acc_width: int | None = None):
    """The integer walk of every sample at once: the kernel behind
    ddag_predict_quant, simulate_batch and emit_golden_vectors.

    Scores qm's stored words, the bias entering as bias << bias_shift, on
    ``codes``, which must fit qm's input format, in the narrowest integer
    type that ``kernel_words`` proves exact for them. ``acc_width`` is the
    wrapping accumulator's width, or None for exact sums. Returns int64
    (classes, final_states, overflows) per sample, as _walk_table yields them.
    """
    X = qm.input_codes(codes)
    results = tuple(np.empty(len(X), dtype=np.int64) for _ in range(3))
    for start, *block, _ in _walk_table(qm.n_classes, kernel_words(qm, acc_width), X, acc_width):
        for result, part in zip(results, block):
            result[start:start + len(part)] = part
    return results


def ddag_predict_quant(qm, codes) -> np.ndarray:
    """Exact-arithmetic DDAG class of every sample."""
    return walk_batch(qm, codes)[0]


def float_features(fmodel, features) -> np.ndarray:
    """``features`` as the float64 samples x m matrix that ``fmodel`` scores."""
    return check_array("features", features, float, ("samples", fmodel.n_features))


def ddag_predict_float(fmodel, features) -> np.ndarray:
    """Float DDAG class of every sample."""
    check_ovo(fmodel)
    X = float_features(fmodel, features)
    classes = np.empty(len(X), dtype=np.int64)
    for start, block_classes, *_ in _walk_table(fmodel.n_classes, fmodel.coefs, X):
        classes[start:start + len(block_classes)] = block_classes
    return classes
