"""The batched DAG-walk kernel against the scalar oracles, on random integer
models of every width the library accepts and on random float models, plus
the bounds on malformed DAGs and the batched vector scaling."""

import dataclasses
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import layouts, random_quantized_model
from seqsvm.hdlgen import emit_golden_vectors
from seqsvm.archsim import ArchConfig, compile_storage, simulate, simulate_batch, walk_storage
from seqsvm.ddag import (
    Ddag,
    build_ddag,
    ddag_infer,
    ddag_infer_float,
    ddag_predict_float,
    ddag_predict_quant,
    ovo_vote_infer,
    walk_batch,
)
from seqsvm.fxp import FxpFormat
from seqsvm.quant import (
    QuantizedModel,
    QuantVector,
    _scale_rows,
    partial_sum_extremes,
    profile_accumulator,
    quantize_model,
)
from seqsvm.trainer import FloatSvmModel, SupportVector


@st.composite
def cases(draw):
    """A random profiled model, its DAG, storage and input codes; acc_width is
    the profiled width minus 0..6 bits, or an oversized 64."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 8))
    param_bits = draw(st.integers(2, 16))
    input_bits = draw(st.integers(1, 16))
    fmt = FxpFormat(input_bits)
    top = (1 << (param_bits - 1)) - 1
    coef = st.integers(-top - 1, top)
    vectors = [
        QuantVector(a, b, draw(st.lists(coef, min_size=m, max_size=m)), draw(coef))
        for a in range(n)
        for b in range(a + 1, n)
    ]
    qm = QuantizedModel(n, m, fmt, param_bits, vectors, [1.0] * len(vectors))
    code = st.integers(0, fmt.raw_max)
    codes = draw(st.lists(st.lists(code, min_size=m, max_size=m), min_size=1, max_size=12))
    profiled = profile_accumulator(qm, np.array(codes))
    qm.acc_width = draw(st.one_of(st.integers(max(1, profiled - 6), profiled), st.just(64)))
    storage = compile_storage(qm, ArchConfig(draw(st.sampled_from(["mux", "rom"]))))
    return qm, build_ddag(n), storage, codes


def _vote_oracle(qm, codes):
    wins = [0] * qm.n_classes
    for vec in qm.vectors:
        acc = (vec.bias << qm.bias_shift) + sum(w * x for w, x in zip(vec.weights, codes))
        wins[vec.class_a if acc >= 0 else vec.class_b] += 1
    return max(range(qm.n_classes), key=lambda c: (wins[c], -c))


def _extremes_oracle(qm, codes):
    prefixes = []
    for vec in qm.vectors:
        prefixes.append(vec.bias << qm.bias_shift)
        for row in codes:
            acc = vec.bias << qm.bias_shift
            for w, x in zip(vec.weights, row):
                acc += w * x
                prefixes.append(acc)
    return min(prefixes), max(prefixes)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_wrapped_kernel_equals_simulate(case):
    qm, dag, storage, codes = case
    classes, states, overflows = walk_storage(qm, dag, storage, codes)
    for i, row in enumerate(codes):
        cls, trace = simulate(qm, dag, storage, row, record=False)
        assert (classes[i], states[i], overflows[i]) == (cls, trace.final_state, trace.overflows)
    for view in layouts(codes, np.int64):
        again = walk_storage(qm, dag, storage, view)
        assert all(np.array_equal(a, b) for a, b in zip(again, (classes, states, overflows)))
    batch = simulate_batch(qm, dag, storage, codes, classes)
    assert np.array_equal(batch.predictions, classes)
    assert batch.overflows == int(overflows.sum())


@settings(max_examples=150, deadline=None)
@given(cases())
def test_exact_kernels_equal_python_oracles(case):
    qm, dag, _, codes = case
    expected = [ddag_infer(qm, dag, row)[0] for row in codes]
    for view in layouts(codes, np.int64):
        assert ddag_predict_quant(qm, dag, view).tolist() == expected
    assert [ovo_vote_infer(qm, row) for row in codes] == [_vote_oracle(qm, row) for row in codes]
    assert partial_sum_extremes(qm, np.array(codes)) == _extremes_oracle(qm, codes)


@st.composite
def float_cases(draw):
    """A random float OvO model with coefficients at one scale in 1e-3..1e3,
    some all-zero vectors, and features in [0, 1] with some all-zero rows."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.floats(-3, 3))
    coef = st.floats(-1, 1).map(lambda c: c * scale)
    vectors = []
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()) and draw(st.booleans()):
                weights, bias = [0.0] * m, 0.0
            else:
                weights, bias = draw(st.lists(coef, min_size=m, max_size=m)), draw(coef)
            vectors.append(SupportVector(a, b, np.array(weights), bias))
    row = st.one_of(st.just([0.0] * m), st.lists(st.floats(0, 1), min_size=m, max_size=m))
    X = draw(st.lists(row, min_size=1, max_size=12))
    return FloatSvmModel("ovo", n, m, vectors), build_ddag(n), np.array(X)


@settings(max_examples=150, deadline=None)
@given(float_cases())
def test_float_kernel_equals_python_oracle(case):
    fmodel, dag, X = case
    expected = [ddag_infer_float(fmodel, dag, row)[0] for row in X]
    for view in layouts(X, np.float64):
        assert ddag_predict_float(fmodel, dag, view).tolist() == expected


def test_float_walks_sum_bias_first():
    # -1 - 2**53 rounds to -2**53, so bias-first sums to 0 (class 0 wins)
    # where products-first gives -1 (class 1 would win)
    fmodel = FloatSvmModel("ovo", 2, 2, [SupportVector(0, 1, np.array([-2.0**53, 2.0**53]), -1.0)])
    dag = build_ddag(2)
    assert ddag_predict_float(fmodel, dag, [[1.0, 1.0]]).tolist() == [0]
    assert ddag_infer_float(fmodel, dag, [1.0, 1.0])[0] == 0


def test_float_kernel_rejects_malformed_features():
    fmodel = _float_twin(random_quantized_model(3, 2, 4, seed=0)[0])
    dag = build_ddag(3)
    for bad in ([0.5, 0.5], [[[0.5, 0.5]]], [[0.5, 0.5, 0.5]], [[0.5]]):
        with pytest.raises(ValueError, match="samples x 2 feature matrix"):
            ddag_predict_float(fmodel, dag, bad)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ddag_predict_float(fmodel, dag, [[0.5, 0.5], [value, 0.5]])


@pytest.mark.parametrize("seed", range(4))
def test_quantize_model_equals_per_vector_scaling(seed):
    rng = np.random.default_rng(seed)
    n, m = 5, 7
    vectors = []
    for a in range(n):
        for b in range(a + 1, n):
            zero = rng.random() < 0.3
            w = np.zeros(m) if zero else rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3)
            vectors.append(SupportVector(a, b, w, 0.0 if zero else float(rng.normal())))
    fmodel = FloatSvmModel("ovo", n, m, vectors)
    for bits in range(2, 9):
        with warnings.catch_warnings(record=True) as batch_warnings:
            warnings.simplefilter("always")
            qm = quantize_model(fmodel, bits)
        with warnings.catch_warnings(record=True) as row_warnings:
            warnings.simplefilter("always")
            rows = [_scale_rows([[v.bias, *v.weights]], bits) for v in fmodel.vectors]
        assert [[v.bias, *v.weights] for v in qm.vectors] == [codes[0].tolist() for codes, _ in rows]
        assert qm.scales == [float(scales[0]) for _, scales in rows]
        assert len(batch_warnings) == len(row_warnings) == sum(not v.weights.any() for v in vectors)


@pytest.mark.parametrize("bias, weight", [(32767, 1), (32767, 2), (-32767, -1), (-32767, -2), (-32768, 0)])
def test_partial_sum_extremes_around_two_to_the_31(bias, weight):
    # 16-bit inputs shift the bias by 16 bits: 32767 << 16 = 2**31 - 65536, and
    # a weight w at code 65535 adds w * 65535, so the worst case ends just
    # below 2**31 (|w| = 1, int32 buffers) or just above it (|w| = 2, int64)
    qm = QuantizedModel(2, 2, FxpFormat(16), 16, [QuantVector(0, 1, [weight, 0], bias)], [1.0])
    codes = [[65535, 7], [0, 65535], [1, 1]]
    lo, hi = partial_sum_extremes(qm, np.array(codes))
    assert (lo, hi) == _extremes_oracle(qm, codes)
    assert max(-lo, hi) == abs(bias << 16) + abs(weight) * 65535


def test_codes_outside_sixteen_bits_rejected():
    qm, codes = random_quantized_model(3, 2, 4, seed=0)
    with pytest.raises(ValueError, match="unsigned 16-bit"):
        ddag_predict_quant(qm, build_ddag(3), [[1 << 16, 0]])
    with pytest.raises(ValueError, match="code matrix"):
        ddag_predict_quant(qm, build_ddag(3), codes[:, :1])


def _format_calls(qm, codes):
    """Every entry point that takes a QuantizedModel and input codes."""
    dag = build_ddag(qm.n_classes)
    storage = compile_storage(qm)
    return {
        "simulate": lambda: simulate(qm, dag, storage, codes[0]),
        "ddag_infer": lambda: ddag_infer(qm, dag, codes[0]),
        "simulate_batch": lambda: simulate_batch(qm, dag, storage, codes, np.zeros(len(codes))),
        "ddag_predict_quant": lambda: ddag_predict_quant(qm, dag, codes),
        "walk_storage": lambda: walk_storage(qm, dag, storage, codes),
        "emit_golden_vectors": lambda: emit_golden_vectors(qm, dag, storage, codes, len(codes)),
        "ovo_vote_infer": lambda: ovo_vote_infer(qm, codes[0]),
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


def _redirect(dag, edge):
    """The same DAG with every edge replaced by `edge`."""
    nodes = {
        sid: dataclasses.replace(node, on_a_wins=edge, on_b_wins=edge) for sid, node in dag.nodes.items()
    }
    return Ddag(dag.n_classes, nodes, dag.initial_state, dag.state_bits)


def _error_within(fn, timeout=10.0):
    """Run fn in a daemon thread and return what it raised; fail if it hangs."""
    raised = []

    def target():
        try:
            fn()
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the walk did not stop on a cyclic DAG"
    return raised[0] if raised else None


def _float_twin(qm):
    """A float model with qm's pairs and features, every vector all ones."""
    vectors = [SupportVector(v.class_a, v.class_b, np.ones(qm.n_features), 0.0) for v in qm.vectors]
    return FloatSvmModel("ovo", qm.n_classes, qm.n_features, vectors)


def _cyclic_calls():
    qm, codes = random_quantized_model(3, 2, 4, seed=0)
    dag = build_ddag(3)
    cyclic = _redirect(dag, ("node", dag.initial_state))
    storage = compile_storage(qm)
    fmodel = _float_twin(qm)
    return {
        "ddag_infer": lambda: ddag_infer(qm, cyclic, codes[0]),
        "ddag_infer_float": lambda: ddag_infer_float(fmodel, cyclic, [0.5, 0.5]),
        "simulate": lambda: simulate(qm, cyclic, storage, codes[0]),
        "ddag_predict_quant": lambda: ddag_predict_quant(qm, cyclic, codes),
        "ddag_predict_float": lambda: ddag_predict_float(fmodel, cyclic, [[0.5, 0.5]]),
        "simulate_batch": lambda: simulate_batch(qm, cyclic, storage, codes, np.zeros(len(codes))),
    }


@pytest.mark.parametrize("name", sorted(_cyclic_calls()))
def test_cyclic_dag_stops_after_n_minus_one_evaluations(name):
    err = _error_within(_cyclic_calls()[name])
    assert isinstance(err, ValueError)
    assert "has not reached a leaf after 2 evaluations" in str(err)


def test_kernel_rejects_a_path_shorter_than_n_minus_one():
    qm, codes = random_quantized_model(4, 2, 4, seed=0)
    shallow = _redirect(build_ddag(4), ("leaf", 1))
    assert ddag_infer(qm, shallow, codes[0])[0] == 1  # the scalar walk stops at the leaf
    with pytest.raises(ValueError, match="reaches a leaf after 1 of 3 evaluations"):
        ddag_predict_quant(qm, shallow, codes)
    fmodel = _float_twin(qm)
    assert ddag_infer_float(fmodel, shallow, [0.5, 0.5])[0] == 1
    with pytest.raises(ValueError, match="reaches a leaf after 1 of 3 evaluations"):
        ddag_predict_float(fmodel, shallow, [[0.5, 0.5]])


def test_kernel_rejects_edges_that_lead_nowhere():
    qm, codes = random_quantized_model(3, 2, 4, seed=0)
    words = qm.word_table()
    fmodel = _float_twin(qm)
    for edge in (("node", 99), ("leaf", 3), ("leaf", -1)):
        with pytest.raises(ValueError, match="leads nowhere"):
            walk_batch(words, qm.bias_shift, _redirect(build_ddag(3), edge), codes)
        with pytest.raises(ValueError, match="leads nowhere"):
            ddag_predict_float(fmodel, _redirect(build_ddag(3), edge), [[0.5, 0.5]])
