"""The batched DAG-walk kernel, the library's one DAG walk, against the
test-side oracles (the emitted Verilog, read back and stepped by
tests/verilog.py, and, in tests/helpers.py, the scalar walks in Python
numbers and the max-wins vote), on random integer
models of every width the library accepts and on random float models, plus
compare_storage's rejection of a DAG of another class count and the batched vector
scaling; then the sample-blocked kernels at block edges, and their working
memory at two sample counts."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _interval_walk_oracle,
    _score_walk,
    _vote_oracle,
    integer_twin,
    layouts,
    profiled_cases,
    random_quantized_model,
)
from seqsvm.archsim import simulate, simulate_batch
from seqsvm.cost import compare_storage
from seqsvm.hdlgen import emit_golden_vectors
from seqsvm.ddag import (
    _walk_table,
    build_ddag,
    ddag_predict_float,
    ddag_predict_quant,
    kernel_words,
    score_table,
    walk_batch,
)
from seqsvm.dataset import Dataset, split
from seqsvm.fxp import BLOCK_ELEMENTS, FxpFormat
from seqsvm.quant import (
    QuantizedModel,
    _scale_rows,
    partial_sum_extremes,
    quantize_inputs,
    quantize_model,
)
from seqsvm.trainer import FloatSvmModel
from verilog import stepped


def _extremes_oracle(qm, codes):
    prefixes = []
    for bias, *weights in qm.words.tolist():
        prefixes.append(bias << qm.bias_shift)
        for row in codes:
            acc = bias << qm.bias_shift
            for w, x in zip(weights, row):
                acc += w * x
                prefixes.append(acc)
    return min(prefixes), max(prefixes)


@settings(max_examples=150, deadline=None)
@given(profiled_cases())
def test_wrapped_kernel_equals_simulate(case):
    # the simulator as the emitted Verilog, read back and stepped, defines it
    qm, codes = case
    classes, states, overflows = walk_batch(qm, codes, qm.acc_width)
    for i, trace in enumerate(stepped(qm, codes)):
        assert (classes[i], states[i], overflows[i]) == (trace.out_class, trace.final_state, trace.overflows)
    for view in layouts(codes, np.int64):
        again = walk_batch(qm, view, qm.acc_width)
        assert all(np.array_equal(a, b) for a, b in zip(again, (classes, states, overflows)))
    batch = simulate_batch(qm, codes, classes)
    assert np.array_equal(batch.predictions, classes)
    assert batch.overflows == int(overflows.sum())


@settings(max_examples=150, deadline=None)
@given(profiled_cases())
def test_exact_kernels_equal_python_oracles(case):
    qm, codes = case
    expected = [_interval_walk_oracle(qm, row) for row in codes]
    for view in layouts(codes, np.int64):
        assert ddag_predict_quant(qm, view).tolist() == expected
    # the float votes of qm's rows, whose scores on codes are exact
    assert integer_twin(qm).predict(codes).tolist() == [_vote_oracle(qm, row) for row in codes]
    assert partial_sum_extremes(qm, np.array(codes)) == _extremes_oracle(qm, codes)


@st.composite
def float_cases(draw):
    """A random float OvO model with coefficients at one scale in 1e-3..1e3,
    some all-zero vectors, and features in [0, 1] with some all-zero rows."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.floats(-3, 3))
    coef = st.floats(-1, 1).map(lambda c: c * scale)
    coefs = []
    for _ in range(n * (n - 1) // 2):
        if draw(st.booleans()) and draw(st.booleans()):
            weights, bias = [0.0] * m, 0.0
        else:
            weights, bias = draw(st.lists(coef, min_size=m, max_size=m)), draw(coef)
        coefs.append([bias, *weights])
    row = st.one_of(st.just([0.0] * m), st.lists(st.floats(0, 1), min_size=m, max_size=m))
    X = draw(st.lists(row, min_size=1, max_size=12))
    return FloatSvmModel("ovo", n, m, coefs), np.array(X)


@settings(max_examples=150, deadline=None)
@given(float_cases())
def test_float_kernel_equals_python_oracle(case):
    fmodel, X = case
    expected = [_score_walk(fmodel.n_classes, fmodel.coefs, row)[0] for row in X.tolist()]
    for view in layouts(X, np.float64):
        assert ddag_predict_float(fmodel, view).tolist() == expected


def test_float_walks_sum_bias_first():
    # -1 - 2**53 rounds to -2**53, so bias-first sums to 0 (class 0 wins)
    # where products-first gives -1 (class 1 would win)
    fmodel = FloatSvmModel("ovo", 2, 2, [[-1.0, -2.0**53, 2.0**53]])
    assert ddag_predict_float(fmodel, [[1.0, 1.0]]).tolist() == [0]
    assert _score_walk(2, fmodel.coefs, [1.0, 1.0])[0] == 0


def test_float_kernel_rejects_malformed_features():
    fmodel = _float_twin(random_quantized_model(3, 2, 4, seed=0)[0])
    for bad in ([0.5, 0.5], [[[0.5, 0.5]]], [[0.5, 0.5, 0.5]], [[0.5]]):
        with pytest.raises(ValueError, match=r"^features must have shape \(samples, 2\), got "):
            ddag_predict_float(fmodel, bad)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ddag_predict_float(fmodel, [[0.5, 0.5], [value, 0.5]])


@pytest.mark.parametrize("seed", range(4))
def test_quantize_model_equals_per_vector_scaling(seed):
    rng = np.random.default_rng(seed)
    n, m = 5, 7
    coefs = []
    for _ in range(n * (n - 1) // 2):
        zero = rng.random() < 0.3
        w = np.zeros(m) if zero else rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3)
        coefs.append([0.0 if zero else float(rng.normal()), *w])
    fmodel = FloatSvmModel("ovo", n, m, coefs)
    for bits in range(2, 9):
        with warnings.catch_warnings(record=True) as batch_warnings:
            warnings.simplefilter("always")
            qm = quantize_model(fmodel, bits)
        with warnings.catch_warnings(record=True) as row_warnings:
            warnings.simplefilter("always")
            rows = [_scale_rows([row], bits) for row in fmodel.coefs]
        assert qm.words.tolist() == [codes[0].tolist() for codes, _ in rows]
        assert qm.scales.tolist() == [float(scales[0]) for _, scales in rows]
        assert len(batch_warnings) == len(row_warnings) == sum(not row.any() for row in fmodel.coefs)


@pytest.mark.parametrize("bias, weight", [(32767, 1), (32767, 2), (-32767, -1), (-32767, -2), (-32768, 0)])
def test_partial_sum_extremes_around_two_to_the_31(bias, weight):
    # 16-bit inputs shift the bias by 16 bits: 32767 << 16 = 2**31 - 65536, and
    # a weight w at code 65535 adds w * 65535, so the worst case ends just
    # below 2**31 (|w| = 1, int32 buffers) or just above it (|w| = 2, int64)
    qm = QuantizedModel(2, 2, FxpFormat(16), 16, [[bias, weight, 0]], [1.0])
    codes = [[65535, 7], [0, 65535], [1, 1]]
    lo, hi = partial_sum_extremes(qm, np.array(codes))
    assert (lo, hi) == _extremes_oracle(qm, codes)
    assert max(-lo, hi) == abs(bias << 16) + abs(weight) * 65535


#: Row bounds where kernel_words' type turns: int16 holds at most 2**15 - 1
#: and int32 2**31 - 1, and a wrapping walk of 14 or 30 bits adds 2**14 or
#: 2**30 to the row bound.
BOUND_EDGES = (1 << 14, 1 << 15, 1 << 30, 1 << 31)


def _row_bound(qm) -> int:
    """max over rows of |bias << shift| + raw_max * sum|w|, in Python ints."""
    raw_max = qm.input_fmt.raw_max
    return max(abs(bias << qm.bias_shift) + raw_max * sum(map(abs, weights)) for bias, *weights in qm.words.tolist())


def _narrowest(bound: int):
    return next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max or t is np.int64)


def _edge_row(bound: int, input_bits: int):
    """[bias, w_1..w_m] of 16-bit words, all >= 0, at most nine weights,
    whose row bound at ``input_bits`` is exactly ``bound``; None if there is
    none."""
    top, scale, raw_max = (1 << 15) - 1, 1 << input_bits, (1 << input_bits) - 1
    # raw_max = -1 modulo 2**k, so sum|w| = -bound modulo 2**k, and the bias
    # fits 16 bits once raw_max * sum|w| >= bound - (top << k)
    total = (-bound) % scale
    short = -(-(bound - (top << input_bits)) // raw_max) - total
    total += -(-max(0, short) // scale) * scale
    bias = (bound - raw_max * total) >> input_bits
    if not 0 <= bias <= top or total > 8 * top:
        return None
    return [bias, *[top] * (total // top), total % top]


@st.composite
def edge_cases(draw):
    """A model whose row bound sits on, just under or just over one of
    BOUND_EDGES, every row that edge row or its negation, its accumulator
    log2(edge) bits wide (so that it wraps), and codes that include raw_max
    everywhere, which reach the bound."""
    edge = draw(st.sampled_from(BOUND_EDGES))
    bound = edge + draw(st.sampled_from((-1, 0, 1)))
    input_bits = draw(st.sampled_from([k for k in range(1, 17) if _edge_row(bound, k)]))
    row = _edge_row(bound, input_bits)
    n = draw(st.integers(2, 4))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    words = [[sign * w for w in row] for sign in signs]
    fmt = FxpFormat(input_bits)
    qm = QuantizedModel(n, len(row) - 1, fmt, 16, words, [1.0] * len(words))
    qm.acc_width = edge.bit_length() - 1
    code = st.integers(0, fmt.raw_max)
    codes = draw(st.lists(st.lists(code, min_size=qm.n_features, max_size=qm.n_features), max_size=6))
    return qm, [[fmt.raw_max] * qm.n_features, *codes]


@settings(max_examples=200, deadline=None)
@given(st.one_of(profiled_cases(), edge_cases()))
def test_narrow_kernels_return_what_int64_kernels_return(case):
    # walk_batch, exact and wrapping, and partial_sum_extremes in
    # kernel_words' type against the same kernels forced to int64
    qm, codes = case
    X = np.array(codes, dtype=np.int64)
    table = qm.words.copy()  # int64, each bias at the products' binary point
    table[:, 0] <<= qm.bias_shift
    for acc_width in (None, qm.acc_width):
        wraps = acc_width is not None and acc_width < 64
        bound = _row_bound(qm) + (1 << acc_width if wraps else 0)
        assert kernel_words(qm, acc_width).dtype == _narrowest(max(qm.input_fmt.raw_max, bound))
        expected = [np.concatenate(part) for part in zip(*(
            [a.copy() for a in block] for _, *block, _ in _walk_table(qm.n_classes, table, X, acc_width)
        ))]
        assert [a.tolist() for a in walk_batch(qm, X, acc_width)] == [a.tolist() for a in expected]
    lo, hi = int(table[:, 0].min()), int(table[:, 0].max())
    for _, col, acc in score_table(table, X):
        if col:
            lo, hi = min(lo, int(acc.min())), max(hi, int(acc.max()))
    assert partial_sum_extremes(qm, X) == (lo, hi)


@pytest.mark.parametrize("edge, exact, wrapping", [
    # the row bound edge - 1 and edge; the wrapping walk is log2(edge) bits
    (1 << 14, (np.int16, np.int16), (np.int16, np.int32)),
    (1 << 15, (np.int16, np.int32), (np.int32, np.int32)),
    (1 << 30, (np.int32, np.int32), (np.int32, np.int64)),
    (1 << 31, (np.int32, np.int64), (np.int64, np.int64)),
])
def test_kernel_type_at_each_bound_edge(edge, exact, wrapping):
    for bound, exact_type, wrapping_type in zip((edge - 1, edge), exact, wrapping):
        input_bits = next(k for k in range(1, 17) if _edge_row(bound, k))
        row = _edge_row(bound, input_bits)
        qm = QuantizedModel(2, len(row) - 1, FxpFormat(input_bits), 16, [row], [1.0])
        assert _row_bound(qm) == bound
        assert kernel_words(qm).dtype == exact_type
        assert kernel_words(qm, edge.bit_length() - 1).dtype == wrapping_type
        assert kernel_words(qm, 64).dtype == exact_type  # 64 bits never wrap


@pytest.mark.parametrize("input_bits, expected", [(15, np.int16), (16, np.int32)])
def test_kernel_type_holds_every_input_code(input_bits, expected):
    # a zero model's row bound is 0, but the codes are copied into its type
    qm = QuantizedModel(2, 1, FxpFormat(input_bits), 2, [[0, 0]], [1.0])
    assert kernel_words(qm).dtype == expected
    codes = [[(1 << input_bits) - 1]]
    assert walk_batch(qm, codes)[0].tolist() == [0]


def test_codes_outside_sixteen_bits_rejected():
    qm, codes = random_quantized_model(3, 2, 4, seed=0)
    with pytest.raises(ValueError, match="unsigned 16-bit"):
        ddag_predict_quant(qm, [[1 << 16, 0]])
    with pytest.raises(ValueError, match=r"^codes must have shape \(samples, 2\), got \(200, 1\)$"):
        ddag_predict_quant(qm, codes[:, :1])


def _format_calls(qm, codes):
    """Every entry point that takes a QuantizedModel and input codes."""
    return {
        "simulate": lambda: simulate(qm, codes),
        "simulate_batch": lambda: simulate_batch(qm, codes, np.zeros(len(codes), dtype=np.int64)),
        "ddag_predict_quant": lambda: ddag_predict_quant(qm, codes),
        "walk_batch": lambda: walk_batch(qm, codes, qm.acc_width),
        "emit_golden_vectors": lambda: emit_golden_vectors(qm, codes, len(codes)),
        "partial_sum_extremes": lambda: partial_sum_extremes(qm, codes),
    }


@pytest.mark.parametrize("name", sorted(_format_calls(*random_quantized_model(3, 2, 4, seed=0))))
@pytest.mark.parametrize("fmt", [FxpFormat(4), FxpFormat(6)])
def test_codes_outside_the_input_format_rejected(name, fmt):
    # the Verilog keeps only the low input bits of a code, so the
    # simulator and the reference must not score a wider one
    qm, codes = random_quantized_model(3, 2, 4, seed=0, input_fmt=fmt)
    codes[0, 1] = fmt.raw_max
    _format_calls(qm, codes)[name]()
    codes[0, 1] = fmt.raw_max + 1
    with pytest.raises(ValueError, match=f"does not fit the model's {fmt.total_bits}-bit input format"):
        _format_calls(qm, codes)[name]()


def _float_twin(qm):
    """A float model with qm's rows and features, every weight one, every bias zero."""
    coefs = np.ones(qm.words.shape)
    coefs[:, 0] = 0.0
    return FloatSvmModel("ovo", qm.n_classes, qm.n_features, coefs)


def _dag_calls(qm):
    """Every public function that still takes a DAG: compare_storage, whose
    second parameter is the class count that bench/shapes.py passes as
    ``build_ddag(n)``."""
    return {
        "compare_storage": lambda dag: compare_storage(qm, dag),
    }


@pytest.mark.parametrize("name", sorted(_dag_calls(None)))
def test_every_entry_rejects_a_dag_of_another_class_count(name):
    # the DAG is a function of the class count, so the count is all that can disagree
    qm, _ = random_quantized_model(4, 2, 4, seed=0)
    _dag_calls(qm)[name](build_ddag(4))
    with pytest.raises(ValueError, match="a 3-class DAG does not fit a 4-class model"):
        _dag_calls(qm)[name](build_ddag(3))


def _random_float_model(n, m, seed):
    rng = np.random.default_rng(seed)
    coefs = []
    for _ in range(n * (n - 1) // 2):  # a row's weights are drawn before its bias
        weights = rng.normal(size=m)
        coefs.append([float(rng.normal()), *weights])
    return FloatSvmModel("ovo", n, m, coefs)


def _sample_kernels(n_samples):
    """Every kernel whose work grows with the sample count, on n_samples
    samples of 5 classes and 4 features, with its inputs built beforehand."""
    qm, _ = random_quantized_model(5, 4, 6, seed=1)
    fmodel = _random_float_model(5, 4, seed=1)
    rng = np.random.default_rng(n_samples)
    codes = rng.integers(0, 16, (n_samples, 4))
    X = rng.uniform(size=(n_samples, 4))
    ds = Dataset(rng.normal(size=(n_samples, 4)), rng.integers(0, 5, n_samples), list("abcde"))
    return {
        "walk_batch_exact": lambda: walk_batch(qm, codes),
        "walk_batch_wrapping": lambda: walk_batch(qm, codes, qm.acc_width - 2),
        "ddag_predict_float": lambda: ddag_predict_float(fmodel, X),
        "quantize_inputs": lambda: quantize_inputs(X),
        "split": lambda: split(ds, 0.5, 3),
        "predict": lambda: fmodel.predict(X),
        "partial_sum_extremes": lambda: partial_sum_extremes(qm, codes),
    }


@pytest.mark.parametrize("n_samples", [20_000, 160_000])
@pytest.mark.parametrize("name", sorted(_sample_kernels(0)))
def test_kernel_memory_does_not_grow_with_the_sample_count(name, n_samples):
    # the traced peak less what the call leaves behind (its outputs) is the
    # kernels' working memory; inputs are built before tracing starts. split
    # keeps one int32 index per sample (640 kB at 160,000); the others only
    # block buffers.
    call = _sample_kernels(n_samples)[name]
    tracemalloc.start()
    try:
        result = call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result is not None
    assert peak - after < 1 << 20


def _block_edges(elements_per_sample):
    """0 samples, 1, exactly one block, and one more."""
    block = BLOCK_ELEMENTS // elements_per_sample
    return [0, 1, block, block + 1]


# the walks take m+1 elements per sample, quantize_inputs m
@pytest.mark.parametrize("n_samples", _block_edges(8))
def test_integer_walks_at_block_edges(n_samples):
    qm, _ = random_quantized_model(4, 7, 5, seed=2)
    qm.acc_width -= 3  # some walks wrap
    codes = np.random.default_rng(n_samples).integers(0, 16, (n_samples, 7))
    exact = [_interval_walk_oracle(qm, row) for row in codes]
    wrapped = stepped(qm, codes)
    expected = ([t.out_class for t in wrapped], [t.final_state for t in wrapped], [t.overflows for t in wrapped])
    assert n_samples < 2 or sum(expected[2]) > 0
    for view in layouts(codes, np.int64):
        assert ddag_predict_quant(qm, view).tolist() == exact
        assert [a.tolist() for a in walk_batch(qm, view, qm.acc_width)] == list(expected)
    # at one block and one row, the traces' recording crosses a block edge
    assert list(simulate(qm, codes)) == wrapped


@pytest.mark.parametrize("n_samples", _block_edges(8))
def test_float_walk_at_block_edges(n_samples):
    fmodel = _random_float_model(4, 7, seed=3)
    X = np.random.default_rng(n_samples).uniform(size=(n_samples, 7))
    expected = [_score_walk(fmodel.n_classes, fmodel.coefs, row)[0] for row in X.tolist()]
    for view in layouts(X, np.float64):
        assert ddag_predict_float(fmodel, view).tolist() == expected


@pytest.mark.parametrize("n_samples", _block_edges(8))
def test_quantize_inputs_at_block_edges(n_samples):
    X = np.random.default_rng(n_samples).uniform(0.0, 1.2, size=(n_samples, 8))
    expected = [[min(math.floor(x * 16), 15) for x in row] for row in X.tolist()]
    for view in layouts(X, np.float64):
        assert quantize_inputs(view).tolist() == expected
