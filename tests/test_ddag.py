import math

import numpy as np
import pytest

from helpers import bias_only_model, random_quantized_model, reference_graph
from seqsvm.ddag import (
    ddag_infer,
    ddag_infer_float,
    ddag_predict_float,
    ovo_vote_infer,
    pair_count,
    pair_index,
    row_pairs,
    state_bits_for,
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

    @pytest.mark.parametrize("n", [0, 1, 2.0, True, "3"])
    def test_rejects_anything_but_an_integer_count_of_two_or_more(self, n):
        # every model's table has row_pairs(kind, n) rows, so both models reject it
        with pytest.raises(ValueError, match="integer class count of at least two"):
            QuantizedModel(n, 1, U4_4, 4, [[0, 1]], [1.0])
        with pytest.raises(ValueError, match="integer class count of at least two"):
            FloatSvmModel("ova", n, 1, [[0.0, 1.0]] * 2)


class TestInfer:
    def test_zero_params_two_classes(self):
        # sum 0 satisfies the >= 0 rule, so the pair's lower class wins
        qm = bias_only_model(2, [0])
        cls, evals = ddag_infer(qm, [0])
        assert cls == 0
        assert evals == [(0, 1)]

    def test_four_class_six_feature_shape(self):
        qm, codes = random_quantized_model(4, 6, 4, seed=0)
        cls, evals = ddag_infer(qm, codes[0])
        assert len(evals) == 3

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_always_n_minus_one_evaluations(self, n):
        qm, codes = random_quantized_model(n, 4, 5, seed=n)
        for row in codes[:30]:
            _, evals = ddag_infer(qm, row)
            assert len(evals) == n - 1

    def test_matches_interval_oracle(self):
        for seed in range(5):
            qm, codes = random_quantized_model(5, 3, 5, seed=seed)
            for row in codes[:50]:
                assert ddag_infer(qm, row)[0] == _interval_walk_oracle(qm, row)

    def test_winner_won_every_comparison_on_path(self):
        qm, codes = random_quantized_model(6, 4, 5, seed=9)
        for row in codes[:40]:
            cls, evals = ddag_infer(qm, row)
            for rid, y in evals:
                class_a, class_b = row_pairs("ovo", 6)[rid]
                if cls in (class_a, class_b):
                    assert (y == 1) == (cls == class_a)

    def test_float_walk_agrees_with_exact_walk_on_integer_model(self):
        qm, codes = random_quantized_model(4, 3, 4, seed=2)
        coefs = qm.words.astype(float)
        coefs[:, 0] *= 1 << qm.bias_shift
        fmodel = FloatSvmModel("ovo", 4, 3, coefs)
        for row in codes[:40]:
            assert ddag_infer(qm, row)[0] == ddag_infer_float(fmodel, row)[0]


    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_float_walks_reject_an_ova_model(self, n):
        ova = FloatSvmModel("ova", n, 2, [[-1.0, 1.0, 1.0]] * n)
        with pytest.raises(ValueError, match="a DAG walks OvO models only, not a 'ova' model"):
            ddag_predict_float(ova, np.zeros((5, 2)))
        with pytest.raises(ValueError, match="a DAG walks OvO models only, not a 'ova' model"):
            ddag_infer_float(ova, np.zeros(2))


class TestVote:
    def test_two_classes_always_agree(self):
        qm, codes = random_quantized_model(2, 5, 4, seed=1)
        for row in codes[:50]:
            assert ddag_infer(qm, row)[0] == ovo_vote_infer(qm, row)

    def test_condorcet_cycle_recorded(self):
        # 0 beats 1, 2 beats 0, 1 beats 2: vote ties at one win each and
        # breaks to class 0; the DAG walks (0,2) -> (1,2) and lands on 1
        qm = bias_only_model(3, [1, -1, 1])
        vote = ovo_vote_infer(qm, [0])
        dag_cls, evals = ddag_infer(qm, [0])
        assert vote == 0
        assert dag_cls == 1
        assert [rid for rid, _ in evals] == [pair_index(0, 2, 3), pair_index(1, 2, 3)]

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
            assert ddag_infer(qm, [0])[0] == order[0]
            assert ovo_vote_infer(qm, [0]) == order[0]

    def test_agreement_rate_reported(self, capsys):
        qm, codes = random_quantized_model(5, 6, 4, seed=13)
        agree = sum(
            ddag_infer(qm, row)[0] == ovo_vote_infer(qm, row) for row in codes
        )
        rate = agree / len(codes)
        print(f"ddag/vote agreement: {rate:.3f}")
        assert 0.0 <= rate <= 1.0
