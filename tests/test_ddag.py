import itertools
import math
import re

import numpy as np
import pytest

from helpers import _interval_walk_oracle, _walk, bias_only_model, integer_twin, random_quantized_model, reference_graph
from seqsvm.archsim import simulate
from seqsvm.ddag import (
    _successors,
    ddag_predict_float,
    ddag_predict_quant,
    pair_count,
    pair_index,
    row_pairs,
    state_bits_for,
    transitions,
)
from seqsvm.fxp import U4_4
from seqsvm.modelio import ddag_to_dict
from seqsvm.quant import QuantizedModel
from seqsvm.trainer import FloatSvmModel


def _all_paths(graph):
    """Every root-to-leaf decision path as a list of visited state ids."""
    paths = []

    def walk(sid, visited):
        node = graph.nodes[sid]
        for edge in (node.on_a_wins, node.on_b_wins):
            kind, target = edge
            if kind == "leaf":
                paths.append(visited + [sid])
            else:
                walk(target, visited + [sid])

    walk(graph.initial_state, [])
    return paths


def _path(trace, m):
    """The (state, y) of each evaluation of a simulated walk of an m-feature
    model: the records whose counter is m, where y is the verdict."""
    return [(rec.state, rec.y) for rec in trace.records if rec.counter == m]


def _reference_doc(graph):
    """The model document's ``ddag`` object, written from the node graph."""
    n = graph.n_classes
    return {
        "n_classes": n,
        "initial_state": graph.initial_state,
        "state_bits": max(1, math.ceil(math.log2(n * (n - 1) // 2))),
        "ordering": "natural",
        "nodes": [
            {
                "id": node.state_id,
                "class_a": node.class_a,
                "class_b": node.class_b,
                "row": node.state_id,
                "on_a": list(node.on_a_wins),
                "on_b": list(node.on_b_wins),
            }
            for _, node in sorted(graph.nodes.items())
        ],
    }


class TestBuild:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            row_pairs("ovo", 1)

    def test_two_classes(self):
        graph = reference_graph(2)
        assert len(graph.nodes) == 1
        assert state_bits_for(2) == 1
        node = graph.nodes[pair_index(0, 1, 2)]
        assert node.on_a_wins == ("leaf", 0)
        assert node.on_b_wins == ("leaf", 1)

    def test_four_classes(self):
        graph = reference_graph(4)
        assert len(graph.nodes) == 6
        assert all(len(p) == 3 for p in _all_paths(graph))

    def test_ten_classes(self):
        graph = reference_graph(10)
        assert len(graph.nodes) == 45
        assert state_bits_for(10) == 6  # ceil(log2 45)
        assert all(len(p) == 9 for p in _all_paths(graph))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_structure_exhaustive(self, n):
        graph = reference_graph(n)
        assert len(graph.nodes) == pair_count(n) == n * (n - 1) // 2
        assert state_bits_for(n) == max(1, math.ceil(math.log2(pair_count(n))))
        assert pair_index(0, n - 1, n) == graph.initial_state
        for path in _all_paths(graph):
            assert len(path) == n - 1
            pairs = [(graph.nodes[s].class_a, graph.nodes[s].class_b) for s in path]
            assert len(set(pairs)) == len(pairs)  # no comparison repeats

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_state_id_equals_row_index(self, n):
        # a state reads the row of its pair, so its id is that row
        for sid, node in reference_graph(n).nodes.items():
            assert sid == node.state_id == pair_index(node.class_a, node.class_b, n)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_row_pairs_are_the_table_rows(self, n):
        # row r of a model's table is the pair whose state reads row r
        pairs = row_pairs("ovo", n)
        assert len(pairs) == pair_count(n)
        assert all(pair_index(a, b, n) == r for r, (a, b) in enumerate(pairs))
        assert row_pairs("ova", n) == [(c, None) for c in range(n)]
        with pytest.raises(ValueError, match="model kind 'OvO' is neither 'ovo' nor 'ova'"):
            row_pairs("OvO", n)

    def test_model_document_equals_the_reference_graph(self):
        # the derived transitions are the node graph, beyond the CLI's shapes
        for n in range(2, 41):
            assert ddag_to_dict(n) == _reference_doc(reference_graph(n))

    @pytest.mark.parametrize("n", range(2, 27))
    def test_successor_table_is_the_fsm(self, n):
        # entry 2*state + y is the target of transitions(n)'s arc on verdict y
        table = _successors(n)
        assert table.dtype == np.int64 and len(table) == 2 * pair_count(n)
        assert table.tolist() == [
            target for state, _, _, on_a, on_b in transitions(n) for (_, target) in (on_b, on_a)
        ]
        assert _successors(n) is table  # built once per class count
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_successor_walk_is_the_interval_walk(self, n):
        # under every verdict sequence, n-1 steps from the initial state read
        # the interval walk's rows, and the last arc is its class
        table = _successors(n).tolist()
        for verdicts in itertools.product((0, 1), repeat=n - 1):
            state, rows = pair_index(0, n - 1, n), []
            for y in verdicts:
                rows.append(state)
                state = table[2 * state + y]
            ys = iter(verdicts)
            cls, evaluations = _walk(n, lambda row: next(ys))
            assert evaluations == list(zip(rows, verdicts))
            assert state == cls

    @pytest.mark.parametrize("n", [0, 1, 2.0, True, "3"])
    def test_rejects_anything_but_an_integer_count_of_two_or_more(self, n):
        # every model's table has row_pairs(kind, n) rows, so both models reject it
        message = f"^n_classes must be an integer >= 2, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            QuantizedModel(n, 1, U4_4, 4, [[0, 1]], [1.0])
        with pytest.raises(ValueError, match=message):
            FloatSvmModel("ova", n, 1, [[0.0, 1.0]] * 2)


class TestInfer:
    # the walk's path is in the records of archsim.simulate, which runs the
    # DAG-walk kernel; on these profiled codes its accumulator never wraps
    def test_zero_params_two_classes(self):
        # sum 0 satisfies the >= 0 rule, so the pair's lower class wins
        qm = bias_only_model(2, [0])
        trace, = simulate(qm, [[0]])
        assert trace.out_class == 0
        assert _path(trace, 1) == [(0, 1)]

    def test_four_class_six_feature_shape(self):
        qm, codes = random_quantized_model(4, 6, 4, seed=0)
        trace, = simulate(qm, codes[:1])
        assert len(_path(trace, 6)) == len(trace.records) // 7 == 3

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_always_n_minus_one_evaluations(self, n):
        qm, codes = random_quantized_model(n, 4, 5, seed=n)
        for trace in simulate(qm, codes[:30]):
            assert len(_path(trace, 4)) == len(trace.records) // 5 == n - 1

    def test_matches_interval_oracle(self):
        for seed in range(5):
            qm, codes = random_quantized_model(5, 3, 5, seed=seed)
            expected = [_interval_walk_oracle(qm, row) for row in codes[:50]]
            assert ddag_predict_quant(qm, codes[:50]).tolist() == expected
            assert [trace.out_class for trace in simulate(qm, codes[:50])] == expected

    def test_winner_won_every_comparison_on_path(self):
        qm, codes = random_quantized_model(6, 4, 5, seed=9)
        for trace in simulate(qm, codes[:40]):
            assert trace.overflows == 0
            for rid, y in _path(trace, 4):
                class_a, class_b = row_pairs("ovo", 6)[rid]
                if trace.out_class in (class_a, class_b):
                    assert (y == 1) == (trace.out_class == class_a)

    def test_float_walk_agrees_with_exact_walk_on_integer_model(self):
        qm, codes = random_quantized_model(4, 3, 4, seed=2)
        expected = [_interval_walk_oracle(qm, row) for row in codes[:40]]
        assert ddag_predict_float(integer_twin(qm), codes[:40]).tolist() == expected

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_float_walks_reject_an_ova_model(self, n):
        ova = FloatSvmModel("ova", n, 2, [[-1.0, 1.0, 1.0]] * n)
        with pytest.raises(ValueError, match="a DAG walks OvO models only, not a 'ova' model"):
            ddag_predict_float(ova, np.zeros((5, 2)))


class TestVote:
    # votes are FloatSvmModel.predict's on the float twin of qm's rows,
    # whose scores on input codes are exact (see test_kernel)
    def test_two_classes_always_agree(self):
        qm, codes = random_quantized_model(2, 5, 4, seed=1)
        assert ddag_predict_quant(qm, codes[:50]).tolist() == integer_twin(qm).predict(codes[:50]).tolist()

    def test_condorcet_cycle_recorded(self):
        # 0 beats 1, 2 beats 0, 1 beats 2: vote ties at one win each and
        # breaks to class 0; the DAG walks (0,2) -> (1,2) and lands on 1
        qm = bias_only_model(3, [1, -1, 1])
        vote = integer_twin(qm).predict([[0]])[0]
        trace, = simulate(qm, [[0]])
        assert vote == 0
        assert trace.out_class == 1
        assert [rid for rid, _ in _path(trace, 1)] == [pair_index(0, 2, 3), pair_index(1, 2, 3)]

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_agree_on_transitive_outcomes(self, n):
        # outcomes consistent with a total order: both rules pick its top
        rng = np.random.default_rng(n)
        for _ in range(10):
            order = rng.permutation(n)  # order[0] beats everyone
            rank = np.empty(n, dtype=int)
            rank[order] = np.arange(n)
            biases = []
            for a in range(n):
                for b in range(a + 1, n):
                    biases.append(1 if rank[a] < rank[b] else -1)
            qm = bias_only_model(n, biases)
            assert ddag_predict_quant(qm, [[0]])[0] == order[0]
            assert integer_twin(qm).predict([[0]])[0] == order[0]

    def test_agreement_rate_reported(self, capsys):
        qm, codes = random_quantized_model(5, 6, 4, seed=13)
        agree = int(np.sum(ddag_predict_quant(qm, codes) == integer_twin(qm).predict(codes)))
        rate = agree / len(codes)
        print(f"ddag/vote agreement: {rate:.3f}")
        assert 0.0 <= rate <= 1.0
