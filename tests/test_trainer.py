import ast
import math
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import seqsvm.ddag as ddag_mod
import seqsvm.trainer as trainer_mod
from helpers import document, layouts
from seqsvm.dataset import Dataset, split
from seqsvm.ddag import ddag_predict_float, row_pairs, score_table
from seqsvm.fxp import BLOCK_ELEMENTS
from seqsvm.modelio import float_model_from_dict, read_model_doc
from seqsvm.synth import bundled_dataset, ring_sectors
from seqsvm.trainer import (
    FloatSvmModel,
    Hyper,
    EPOCH_RANGE,
    LAM_RANGE,
    accuracy,
    fit_lanes,
    random_search,
    select_inputs,
    train_ova,
    train_ovo,
)


def _two_class_blobs(per_class=100, sigma=1.0, margin_sigmas=2.0, m=3, seed=0):
    rng = np.random.default_rng(seed)
    gap = margin_sigmas * sigma
    c0 = np.zeros(m)
    c1 = np.full(m, gap * 2 / np.sqrt(m))  # centers 2*gap apart -> margin ~2 sigma
    labels = np.repeat([0, 1], per_class)
    X = np.vstack([c0 + rng.normal(0, sigma, (per_class, m)), c1 + rng.normal(0, sigma, (per_class, m))])
    return Dataset(X, labels, ["0", "1"])


def _pair_fit(ds, hyper):
    """The one separator of a two-class OvO model, class 0 (+1) vs class 1
    (-1), as its (weights, bias)."""
    model = train_ovo(ds, hyper, seed=0)
    assert model.coefs.shape == (1, ds.n_features + 1)
    return model.coefs[0, 1:], model.coefs[0, 0]


def test_separable_two_point_set():
    # x=0 belongs to class b (=1), x=1 to class a (=0)
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([1, 0]), ["a", "b"])
    weights, bias = _pair_fit(ds, Hyper(lam=0.1, epochs=80))
    assert np.any(weights != 0.0)  # not the degenerate constant
    assert float(np.dot([1.0], weights) + bias) >= 0.0   # class a side
    assert float(np.dot([0.0], weights) + bias) < 0.0    # class b side


def test_degenerate_identical_features():
    X = np.tile([0.3, 0.7], (6, 1))
    ds = Dataset(X, np.array([0, 0, 0, 0, 1, 1]), ["a", "b"])
    weights, bias = _pair_fit(ds, Hyper())
    assert np.all(weights == 0.0)
    assert bias == 1.0  # majority is class a, mapped +1
    ds.labels[:] = [0, 0, 1, 1, 1, 1]
    assert _pair_fit(ds, Hyper())[1] == -1.0  # majority is class b, mapped -1


def test_blob_margin_accuracy():
    ds = _two_class_blobs()
    model = train_ovo(ds, Hyper(lam=0.01, epochs=20), seed=1)
    assert accuracy(model, ds) >= 0.95


def test_missing_class_rejected():
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 0]), ["a", "b"])
    with pytest.raises(RuntimeError, match=r"pair \(0,1\) failed: .*missing"):
        train_ovo(ds, Hyper(), seed=0)


@pytest.mark.parametrize("lam", [0.0, -0.01, float("inf"), float("nan")])
def test_lam_must_be_finite_and_positive(lam):
    # the solver divides by lam: lam = 0 used to give non-finite weights silently
    with pytest.raises(ValueError, match="lam must be finite and > 0"):
        train_ovo(bundled_dataset("blobs3x21", seed=0), Hyper(lam=lam), seed=0)


def test_an_integer_lam_trains_as_its_float():
    # Hyper accepts an int lam, as a hand-edited float_model.json can hold
    ds = bundled_dataset("blobs3x21", seed=0)
    for train in (train_ovo, train_ova):
        assert train(ds, Hyper(lam=1, epochs=2), 0).coefs.tobytes() == train(ds, Hyper(lam=1.0, epochs=2), 0).coefs.tobytes()


def test_negative_epochs_rejected_zero_allowed():
    for epochs in (-1, True, 2.5):
        with pytest.raises(ValueError, match=re.escape(f"epochs must be an integer >= 0, got {epochs!r}")):
            Hyper(epochs=epochs)
    model = train_ovo(bundled_dataset("blobs3x21", seed=0), Hyper(epochs=0), seed=0)
    assert np.isfinite(model.coefs).all()


@pytest.mark.parametrize("name,n,expected", [
    ("blobs3x21", 3, 3),
    ("noisy6x11", 6, 15),
    ("rings10x17", 10, 45),
])
def test_ovo_vector_counts(name, n, expected):
    ds = bundled_dataset(name, seed=0)
    train, _ = split(ds, 0.8, 0)
    model = train_ovo(train, Hyper(epochs=3), seed=0)
    assert model.n_classes == n
    assert model.coefs.shape == (expected, train.n_features + 1)


@pytest.mark.parametrize("name,n", [("blobs3x21", 3), ("rings10x17", 10)])
def test_ova_vector_counts(name, n):
    ds = bundled_dataset(name, seed=0)
    train, _ = split(ds, 0.8, 0)
    model = train_ova(train, Hyper(epochs=3), seed=0)
    assert model.kind == "ova"
    assert model.coefs.shape == (n, train.n_features + 1)


def _pair_case(kind, rows, message, pair):
    """A case whose id names the vector that carries a pair other than its row's."""
    return pytest.param(kind, rows, message, id=f"{kind}-rows{len(_PAIR_CASES)}-{pair}")


_PAIR_CASES = []
for _case in [
    ("ovo", [(0, 1), (1, 0), (1, 2)], "float_model.vectors.1.class_a is 1, the model writes 0",
     r"vector 1 carries pair \(1,0\), not \(0,2\) of row 1"),
    ("ovo", [(0, 2), (0, 1), (1, 2)], "float_model.vectors.0.class_b is 2, the model writes 1",
     r"vector 0 carries pair \(0,2\), not \(0,1\) of row 0"),
    ("ovo", [(0, 1), (0, None), (1, 2)], "float_model.vectors.1.class_b is None, the model writes 2",
     r"vector 1 carries pair \(0,None\), not \(0,2\) of row 1"),
    ("ovo", [(0, 1), (0, 2)], "a 3-class model needs 3 vectors, got 2", "a 3-class model needs 3 vectors, got 2"),
    ("ova", [(0, None), (2, None), (1, None)], "float_model.vectors.1.class_a is 2, the model writes 1",
     r"vector 1 carries pair \(2,None\), not \(1,None\) of row 1"),
    ("ova", [(0, None), (1, 2), (2, None)], "float_model.vectors.1.class_b is 2, the model writes None",
     r"vector 1 carries pair \(1,2\), not \(1,None\) of row 1"),
    ("ova", [(0, 1), (0, 2), (1, 2)], "float_model.vectors.0.class_b is 1, the model writes None",
     r"vector 0 carries pair \(0,1\), not \(0,None\) of row 0"),
    ("ova", [(0, None), (1, None)], "a 3-class model needs 3 vectors, got 2", "a 3-class model needs 3 vectors, got 2"),
    ("bogus", [(0, 1), (0, 2), (1, 2)], "model kind 'bogus' is neither 'ovo' nor 'ova'",
     "model kind 'bogus' is neither 'ovo' nor 'ova'"),
    ("OvO", [(0, 1), (0, 2), (1, 2)], "model kind 'OvO' is neither 'ovo' nor 'ova'",
     "model kind 'OvO' is neither 'ovo' nor 'ova'"),
]:
    _PAIR_CASES.append(_pair_case(*_case))


@pytest.mark.parametrize("kind, rows, message", _PAIR_CASES)
def test_vector_r_must_be_row_r(kind, rows, message):
    # a table's rows carry no pairs, so only a document can misorder them;
    # the loader compares them with the pairs the writer writes
    doc = document(FloatSvmModel("ovo", 3, 2, np.zeros((3, 3))))
    doc["float_model"] = {
        "kind": kind, "n_classes": 3, "n_features": 2,
        "vectors": [{"class_a": a, "class_b": b, "weights": [0.0, 0.0], "bias": 0.0} for a, b in rows],
    }
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_model_doc(doc, quantized=False)


@pytest.mark.parametrize("kind", ["ovo", "ova"])
@pytest.mark.parametrize("weights", [[0.0, 0.0, 0.5], [0.0], [[0.0, 0.0]], 0.0])
def test_every_vector_needs_one_weight_per_feature(kind, weights):
    vectors = [{"class_a": a, "class_b": b, "weights": [0.0, 0.0], "bias": 0.0} for a, b in row_pairs(kind, 3)]
    vectors[2]["weights"] = weights
    with pytest.raises(ValueError, match="vector 2: wrong weight count"):
        float_model_from_dict({"kind": kind, "n_classes": 3, "n_features": 2, "vectors": vectors})
    # in memory, the table needs one column per feature beside the bias
    with pytest.raises(ValueError, match=r"^coefs must have shape \(3, 3\), got \(3, 2\)$"):
        FloatSvmModel(kind, 3, 2, np.zeros((3, 2)))


@pytest.mark.parametrize("row, column, message", [
    (1, 2, r"coefs\[1, 2\] must be a finite number, got nan"),
    (0, 0, r"coefs\[0, 0\] must be a finite number, got -inf"),
])
def test_every_parameter_must_be_finite(row, column, message):
    coefs = np.zeros((3, 3))
    coefs[row, column] = math.nan if column else -math.inf
    coefs[2, 0] = math.inf  # a later row's offender is not the one named
    with pytest.raises(ValueError, match=f"^{message}$"):
        FloatSvmModel("ovo", 3, 2, coefs)
    # in a document, the JSON types too: a string or a bool is not a number,
    # and it is named before a later vector's wrong weight count
    vectors = [{"class_a": a, "class_b": b, "weights": [0.5, 0.5], "bias": 0.0} for a, b in row_pairs("ovo", 3)]
    vectors[1]["bias"], vectors[1]["weights"][1], vectors[2]["weights"] = "0.5", True, [0.5]
    with pytest.raises(ValueError, match="^vector 1: parameter True is not a finite number$"):
        float_model_from_dict({"kind": "ovo", "n_classes": 3, "n_features": 2, "vectors": vectors})


def test_ovo_vs_ova_gap_reported(capsys):
    ds = ring_sectors(6, 11, per_class=30, seed=4)
    train, test = split(ds, 0.8, 4)
    hyper = Hyper(lam=0.02, epochs=10)
    ovo_acc = accuracy(train_ovo(train, hyper, seed=4), test)
    ova_acc = accuracy(train_ova(train, hyper, seed=4), test)
    print(f"ovo={ovo_acc:.4f} ova={ova_acc:.4f} gap={ovo_acc - ova_acc:+.4f}")
    assert 0.0 <= ovo_acc <= 1.0 and 0.0 <= ova_acc <= 1.0


def test_training_bit_reproducible():
    ds = bundled_dataset("noisy6x11", seed=2)
    train, _ = split(ds, 0.8, 2)
    m1 = train_ovo(train, Hyper(lam=0.05, epochs=6), seed=9)
    m2 = train_ovo(train, Hyper(lam=0.05, epochs=6), seed=9)
    assert m1.coefs.tobytes() == m2.coefs.tobytes()


def test_positive_scaling_leaves_predictions(blobs3_split, blobs3_model):
    _, test = blobs3_split
    scaled = FloatSvmModel("ovo", blobs3_model.n_classes, blobs3_model.n_features, blobs3_model.coefs * 7.0)
    assert np.array_equal(blobs3_model.predict(test.features), scaled.predict(test.features))


class TestAccuracy:
    def _constant_model(self, cls):
        """A bias-only 2-class OvO model that predicts ``cls`` everywhere."""
        return FloatSvmModel("ovo", 2, 1, [[1.0 if cls == 0 else -1.0, 0.0]])

    def test_always_right(self):
        ds = Dataset(np.zeros((5, 1)), np.zeros(5, dtype=int), ["a", "b"])
        assert accuracy(self._constant_model(0), ds) == 1.0

    def test_always_wrong(self):
        ds = Dataset(np.zeros((5, 1)), np.ones(5, dtype=int), ["a", "b"])
        assert accuracy(self._constant_model(0), ds) == 0.0

    def test_hand_built_two_class(self):
        # boundary at x = 0.5; >= goes to class 0
        model = FloatSvmModel("ovo", 2, 1, [[-0.5, 1.0]])
        X = np.array([[0.2], [0.4], [0.6], [0.8]])
        labels = np.array([1, 0, 0, 0])
        expected = sum(
            1 for x, lab in zip(X[:, 0], labels) if (0 if x - 0.5 >= 0 else 1) == lab
        ) / 4  # enumerate the 4 points
        assert accuracy(model, Dataset(X, labels, ["a", "b"])) == expected == 0.75

    def test_vote_tie_breaks_low_id(self):
        # class 0 and 2 both get one win; argmax takes the lowest id
        coefs = [
            [1.0, 0.0],   # pair (0,1): 0 beats 1
            [-1.0, 0.0],  # pair (0,2): 2 beats 0
            [1.0, 0.0],   # pair (1,2): 1 beats 2
        ]
        model = FloatSvmModel("ovo", 3, 1, coefs)
        assert model.predict(np.zeros((1, 1)))[0] == 0


def _blas_scores(row, X):
    return X @ row[1:] + row[0]


def _bias_first_scores(row, X):
    """One table row's score of every row of X, summed as the float DDAG
    walk sums it: the bias, then one product per feature."""
    acc = np.full(len(X), float(row[0]))
    for w, column in zip(row[1:], X.T):
        acc = acc + w * column
    return acc


def _per_vector_predict(model, X, score=_blas_scores):
    """Reference: a per-vector loop, one score(row, X) per table row and
    votes tallied row by row."""
    X = np.asarray(X, dtype=np.float64)
    if model.kind == "ovo":
        votes = np.zeros((X.shape[0], model.n_classes), dtype=np.int64)
        for (a, b), row in zip(row_pairs("ovo", model.n_classes), model.coefs):
            a_wins = score(row, X) >= 0.0
            votes[a_wins, a] += 1
            votes[~a_wins, b] += 1
        return np.argmax(votes, axis=1)
    scores = np.column_stack([score(row, X) for row in model.coefs])
    return np.argmax(scores, axis=1)


@st.composite
def float_models(draw):
    """An OvO or OvA model, its samples, and whether every score is exact.
    Small-integer coefficients and features on a coarse grid make scores of
    exactly 0 and vote ties common, and every summation order exact; normal
    draws make the products' rounding matter."""
    kind = draw(st.sampled_from(["ovo", "ova"]))
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = n * (n - 1) // 2 if kind == "ovo" else n
    exact = draw(st.booleans())
    if exact:
        coefs = rng.integers(-2, 3, (count, m + 1)).astype(np.float64)
        X = rng.integers(0, 3, (draw(st.integers(0, 30)), m)) / 2.0
    else:
        coefs = rng.normal(size=(count, m + 1)) * 10.0 ** rng.integers(-3, 4, (count, 1))
        X = rng.uniform(size=(draw(st.integers(0, 30)), m))
    return FloatSvmModel(kind, n, m, coefs), X, exact


class TestPredict:
    @settings(max_examples=200, deadline=None)
    @given(case=float_models(), block=st.sampled_from([1, 3, 40, 1 << 15]))
    def test_equals_the_per_vector_loop(self, case, block):
        model, X, exact = case
        expected = _per_vector_predict(model, X, _bias_first_scores)
        if exact:
            # on the grid every summation order gives the same scores
            assert np.array_equal(_per_vector_predict(model, X), expected)
        with mock.patch.object(ddag_mod, "BLOCK_ELEMENTS", block):
            for view in layouts(X, np.float64):
                assert np.array_equal(model.predict(view), expected)
                # the scores themselves keep the bits of the bias-first sum,
                # whatever the block a sample falls in
                blocks = [s.copy() for _, col, s in score_table(model.coefs, view) if col == model.n_features]
                scores = np.hstack([np.empty((len(model.coefs), 0)), *blocks])
                reference = np.array([_bias_first_scores(row, view) for row in model.coefs]).reshape(scores.shape)
                assert scores.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("kind", ["ovo", "ova"])
    def test_equals_the_per_vector_loop_over_many_blocks(self, kind):
        # 26 classes and 3000 samples: 100 samples per block, 30 blocks for OvO
        ds = ring_sectors(26, 16, 160, seed=2)
        rng = np.random.default_rng(3)
        coefs = []
        for _ in row_pairs(kind, 26):  # a row's weights are drawn before its bias
            weights = rng.normal(size=16)
            coefs.append([float(rng.normal()), *weights])
        model = FloatSvmModel(kind, 26, 16, coefs)
        X = ds.features[:3000]
        predicted = model.predict(X)
        assert np.array_equal(predicted, _per_vector_predict(model, X, _bias_first_scores))
        assert np.array_equal(predicted, _per_vector_predict(model, X))

    def test_votes_follow_the_bias_first_sum(self):
        # at x = (1, 1, 0), -1 - 2**53 rounds to -2**53, so vector (0,1) sums
        # to 0 bias first and class 0 wins it, and with it the vote and the
        # DAG walk; products first, as a BLAS product sums, it gives -1 and
        # class 1 would win the vote
        big = 2.0 ** 53
        coefs = [
            [-1.0, -big, big, 0.0],    # pair (0,1)
            [0.1, 0.5, -0.25, 1.0],    # pair (0,2)
            [-0.2, 1.0, 0.5, 0.25],    # pair (1,2)
        ]
        model = FloatSvmModel("ovo", 3, 3, coefs)
        X = np.random.default_rng(0).uniform(size=(400, 3))
        X[::7] = [1.0, 1.0, 0.0]
        votes = np.zeros((len(X), 3), dtype=np.int64)
        for (a, b), row in zip(row_pairs("ovo", 3), coefs):
            a_wins = _bias_first_scores(row, X) >= 0.0
            votes[a_wins, a] += 1
            votes[~a_wins, b] += 1
        predicted = model.predict(X)
        assert np.array_equal(predicted, np.argmax(votes, axis=1))
        assert set(predicted[::7].tolist()) == {0}
        assert ddag_predict_float(model, X[:1]).tolist() == [0]

    def test_zero_scores_go_to_class_a(self):
        # every score is 0 or -0.0, so class_a wins each pair and 0 leads;
        # with the (0, b) pairs biased below 0, 1 wins three pairs and leads
        zero = np.tile([-0.0, 0.0, -0.0], (6, 1))  # bias -0.0, weights 0.0 and -0.0
        model = FloatSvmModel("ovo", 4, 2, zero)
        assert model.predict(np.array([[0.5, 0.25], [0.0, 0.0]])).tolist() == [0, 0]
        zero[:3, 0] = -1.0  # the pairs (0, b); the model keeps its own table
        assert model.predict(np.array([[0.5, 0.25]])).tolist() == [0]
        with pytest.raises(ValueError, match="read-only"):
            model.coefs[:3, 0] = -1.0
        assert FloatSvmModel("ovo", 4, 2, zero).predict(np.array([[0.5, 0.25]])).tolist() == [1]


@pytest.mark.parametrize("features, message", [
    pytest.param(np.zeros((5, 2)), r"features must have shape \(samples, 3\), got \(5, 2\)", id="two-columns"),
    pytest.param(np.zeros((5, 5)), r"features must have shape \(samples, 3\), got \(5, 5\)", id="five-columns"),
    pytest.param(np.zeros(3), r"features must have shape \(samples, 3\), got \(3,\)", id="one-dimensional"),
    pytest.param([[0.5, 0.5, 0.5], [0.5, np.nan, 0.5]], r"features\[1, 1\] must be a finite number, got nan", id="nan"),
])
def test_predict_rejects_a_bad_feature_matrix(features, message):
    # predict and the float DDAG share one check of the features
    model = FloatSvmModel("ovo", 4, 3, np.random.default_rng(5).normal(size=(6, 4)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        model.predict(features)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ddag_predict_float(model, features)


def _kernel_cases():
    """(model, features) cases: the 2**53 case of
    test_votes_follow_the_bias_first_sum and exact-grid models whose scores
    are often exactly 0, which need the fixed-order fallback, and 26-class
    models, whose BLAS scores take other bits under other kernels."""
    big = 2.0 ** 53
    X = np.random.default_rng(0).uniform(size=(400, 3))
    X[::7] = [1.0, 1.0, 0.0]
    cases = [(FloatSvmModel("ovo", 3, 3, [[-1.0, -big, big, 0.0], [0.1, 0.5, -0.25, 1.0], [-0.2, 1.0, 0.5, 0.25]]), X)]
    rng = np.random.default_rng(1)
    for kind in ("ovo", "ova"):
        rows = len(row_pairs(kind, 5))
        grid = rng.integers(-2, 3, (rows, 7)).astype(np.float64)
        cases.append((FloatSvmModel(kind, 5, 6, grid), rng.integers(0, 3, (500, 6)) / 2.0))
        rows = len(row_pairs(kind, 26))
        coefs = rng.normal(size=(rows, 17)) * 10.0 ** rng.integers(-3, 4, (rows, 1))
        cases.append((FloatSvmModel(kind, 26, 16, coefs), ring_sectors(26, 16, 40, seed=2).features))
    return cases


_KERNEL_CHILD = """
import pickle, sys
from seqsvm.trainer import FloatSvmModel
with open(sys.argv[1], "rb") as fh:
    cases = pickle.load(fh)
print(repr([FloatSvmModel(*model).predict(X).tolist() for model, X in cases]))
"""


@pytest.mark.parametrize("coretype", ["", "Prescott"])
def test_votes_do_not_follow_the_blas_kernel(coretype, tmp_path):
    # OPENBLAS_CORETYPE picks OpenBLAS's kernel at load time, so each kernel
    # runs predict in a child process; the classes must be the bias-first
    # sum's under both the default kernel and Prescott's
    cases = _kernel_cases()
    path = tmp_path / "cases.pickle"
    with open(path, "wb") as fh:
        pickle.dump([((m.kind, m.n_classes, m.n_features, m.coefs), X) for m, X in cases], fh)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(sys.path)}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", _KERNEL_CHILD, str(path)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    predicted = ast.literal_eval(proc.stdout)
    for (model, X), classes in zip(cases, predicted, strict=True):
        assert classes == _per_vector_predict(model, X, _bias_first_scores).tolist()


class TestRandomSearch:
    # each test fits on the fixture's training side and scores on its test side

    def test_budget_one_is_deterministic(self, blobs3_split):
        a = random_search(*blobs3_split, budget=1, seed=3)
        b = random_search(*blobs3_split, budget=1, seed=3)
        assert a == b

    def test_reproducible_over_budget(self, blobs3_split):
        a = random_search(*blobs3_split, budget=20, seed=5)
        b = random_search(*blobs3_split, budget=20, seed=5)
        assert a == b

    def test_rejects_zero_budget(self, blobs3_split):
        with pytest.raises(ValueError):
            random_search(*blobs3_split, budget=0, seed=0)

    @pytest.mark.parametrize("budget", [1, 2])
    def test_rejects_a_seed_that_is_not_an_int_of_at_least_0(self, blobs3_split, budget):
        for seed in (True, -1, 1.0):
            with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
                random_search(*blobs3_split, budget=budget, seed=seed)

    def test_budget_one_returns_its_draw_without_a_holdout_or_a_fit(self, blobs3_split, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a budget of 1 has nothing to choose")

        monkeypatch.setattr(trainer_mod, "train_ovo_candidates", refuse)
        monkeypatch.setattr(trainer_mod, "select_inputs", refuse)
        assert (LAM_RANGE, EPOCH_RANGE) == ((1e-4, 10.0), (5, 50))
        rng = np.random.default_rng([6, 99])  # the search's draws: lam first, then epochs
        lam = float(10.0 ** rng.uniform(math.log10(1e-4), math.log10(10.0), 1)[0])
        epochs = int(rng.integers(5, 51, 1)[0])
        train = blobs3_split[0]
        # no row is read: a holdout that is no Dataset at all passes
        assert random_search(train, object(), budget=1, seed=6) == (Hyper(lam, epochs), list(range(train.n_features)))

    def test_picks_strictly_better_candidate(self, blobs3_split, monkeypatch):
        # score rises as lam falls; the smallest sampled lam must win
        seen = []

        class _Fake:
            def __init__(self, lam):
                self.lam = lam

            def predict(self, X):
                return np.full(len(X), -1, dtype=np.int64)  # accuracy 0

        def fake_train(ds, hypers, seed):
            seen.extend(hypers)
            return [_Fake(hyper.lam) for hyper in hypers]

        def fake_accuracy(model, ds):
            return 1.0 / (1.0 + model.lam) if isinstance(model, _Fake) else 0.0

        monkeypatch.setattr(trainer_mod, "train_ovo_candidates", fake_train)
        monkeypatch.setattr(trainer_mod, "accuracy", fake_accuracy)
        monkeypatch.setattr(trainer_mod, "select_inputs", lambda model, fit, holdout: [0])
        best, _ = random_search(*blobs3_split, budget=10, seed=8)
        assert best.lam == min(h.lam for h in seen)

    def test_tie_breaks_smaller_lam_then_epochs(self, blobs3_split, monkeypatch):
        seen = []

        def fake_train(ds, hypers, seed):
            seen.extend(hypers)
            return [object() for _ in hypers]

        monkeypatch.setattr(trainer_mod, "train_ovo_candidates", fake_train)
        monkeypatch.setattr(trainer_mod, "accuracy", lambda model, ds: 0.5)
        monkeypatch.setattr(trainer_mod, "select_inputs", lambda model, fit, holdout: [0])
        best, _ = random_search(*blobs3_split, budget=10, seed=8)
        assert best.lam == min(h.lam for h in seen)


class TestSelectInputs:
    @pytest.mark.parametrize("weights, kept", [
        ([1.0, -1.0, 0.5], [0]), ([0.5, -1.0, 1.0], [1]), ([0.5, 0.25, -2.0], [2]),
    ])
    def test_a_tie_in_the_ranking_goes_to_the_lower_column(self, weights, kept):
        # every feature sits at its training mean, so every subset scores
        # alike and the path's last, one column, is kept: the one with the
        # largest sum of squared weights, the lower one of a tie
        model = FloatSvmModel("ovo", 2, 3, [[0.1, *weights]])
        ds = Dataset(np.full((4, 3), 0.5), [0, 1, 0, 1], ["a", "b"])
        assert select_inputs(model, ds, ds) == kept

    @pytest.mark.parametrize("label_c, kept", [(0, [0, 1]), (1, [0])])
    def test_keeps_the_fewest_columns_within_the_drop_of_the_best(self, label_c, kept):
        # score -1.5 + 2 x0 + x1, class 0 where it is >= 0, and x1 held at its
        # training mean 0 once dropped: samples A, B, C go to 0, 1, 0 with
        # both columns and to 0, 1, 1 with x0 alone
        model = FloatSvmModel("ovo", 2, 2, [[-1.5, 2.0, 1.0]])
        train = Dataset(np.zeros((2, 2)), [0, 1], ["a", "b"])
        holdout = Dataset([[1.0, 0.0], [0.0, 1.0], [0.5, 1.0]], [0, 1, label_c], ["a", "b"])
        assert select_inputs(model, train, holdout) == kept

    def test_one_column_keeps_it(self):
        model = FloatSvmModel("ovo", 3, 1, [[0.1, 1.0], [0.2, -1.0], [0.0, 0.5]])
        ds = Dataset([[0.0], [0.5], [1.0]], [0, 1, 2], ["a", "b", "c"])
        assert select_inputs(model, ds, ds) == [0]

    def test_ranks_and_scores_the_winning_candidate_as_fitted(self, monkeypatch):
        # the candidate's lanes are independent, so its model is the fit of
        # its draw alone on the search's fit side, and it is not fitted
        # again; the choice gets the search's own pair (the train stage
        # carves it: test_cli's test_the_train_stage_carves_the_one_holdout)
        fit, holdout = split(ring_sectors(4, 6, per_class=30, seed=2), 0.8, 2)
        seen = []
        monkeypatch.setattr(trainer_mod, "select_inputs", lambda *args: seen.append(args) or [1, 3])
        hyper, columns = random_search(fit, holdout, budget=3, seed=5)
        (model, got_fit, got_holdout), = seen
        assert columns == [1, 3]
        assert got_fit is fit and got_holdout is holdout
        assert model.coefs.tobytes() == train_ovo(fit, hyper, 5).coefs.tobytes()

    def test_rejects_a_model_that_does_not_fit_the_samples(self):
        model = FloatSvmModel("ovo", 2, 2, [[0.0, 1.0, 1.0]])
        ds = Dataset(np.zeros((2, 3)), [0, 1], ["a", "b"])
        with pytest.raises(ValueError, match=re.escape("features must have shape (samples, 2), got (2, 3)")):
            select_inputs(model, ds, ds)


def _shrink_and_step(X, y, lam, epochs, rng):
    """Reference: the same solver stepped sample by sample. w starts at 0, and
    step t shrinks w by 1 - 1/t and adds y*x/(lam*t) when the margin is < 1."""
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    w = np.zeros(Xa.shape[1])
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(y)):
            t += 1
            shrink = 1.0 - 1.0 / t
            if y[i] * float(Xa[i] @ w) < 1.0:
                w = shrink * w + (y[i] / (lam * t)) * Xa[i]
            else:
                w = shrink * w
    return w


def _assert_close_to_reference(row, X, y, lam, epochs, key):
    """``row``, a table row [bias, w_1..w_m], against the reference fit."""
    ref = _shrink_and_step(X, y, lam, epochs, np.random.default_rng(list(key)))
    # the bias sum is a count of +-1 steps, so it can cancel to exactly 0
    # where the reference keeps rounding noise: atol is relative to the vector
    np.testing.assert_allclose(np.r_[row[1:], row[0]], ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


class TestLaneSolver:
    @staticmethod
    def _random_dataset(seed, rows=90, m=5, classes=4):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, classes, rows)
        X = rng.normal(size=(rows, m)) + labels[:, None] * 0.7
        return Dataset(X, labels, [str(c) for c in range(classes)])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        specs=st.lists(
            st.tuples(
                st.integers(1, 90),                 # stream length
                st.integers(0, 3),                  # positive label
                st.integers(0, 50),                 # stream seed
            ),
            min_size=2,
            max_size=4,
        ),
        grid=st.lists(st.builds(Hyper, st.floats(1e-4, 10.0), st.integers(0, 5)), min_size=1, max_size=3),
    )
    def test_lane_alone_equals_lane_in_batch(self, seed, specs, grid):
        ds = self._random_dataset(seed)
        rng = np.random.default_rng(seed + 1)
        streams = [
            (np.sort(rng.choice(ds.n_samples, size, replace=False)), pos, (key, pos)) for size, pos, key in specs
        ]
        batch = fit_lanes(ds, streams, grid)
        assert batch.shape == (len(grid), len(streams), ds.n_features + 1)
        for h, setting in enumerate(grid):
            for s, stream in enumerate(streams):
                alone = fit_lanes(ds, [stream], [setting])[0, 0]
                assert np.array_equal(alone[:-1], batch[h, s, :-1])
                assert alone[-1] == batch[h, s, -1]

    @pytest.mark.parametrize("epochs", [(3, 3), (2, 5), (5, 0), (1, 1)])
    def test_lanes_of_one_key_and_length_but_other_rows(self, epochs):
        # streams of one key and length draw the same permutations, and each
        # keeps its own rows and positive; another key draws others
        ds = self._random_dataset(4)
        key, rows = (7, 0), np.arange(0, 60)
        streams = [(rows, 0, key), (np.arange(30, 90), 1, key), (rows, 2, key), (rows, 0, (8, 0))]
        grid = [Hyper(0.05, epochs[0]), Hyper(0.2, epochs[1]), Hyper(0.5, 4)]
        batch = fit_lanes(ds, streams, grid)
        for h, setting in enumerate(grid):
            for s, stream in enumerate(streams):
                assert np.array_equal(fit_lanes(ds, [stream], [setting])[0, 0], batch[h, s])
        assert not np.array_equal(batch[2, 0], batch[2, 3])  # another key, another stream

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ovo_lanes_match_shrink_and_step(self, seed):
        ds = self._random_dataset(seed)
        hyper = Hyper(lam=[0.003, 0.05, 1.5][seed], epochs=4 + seed)
        model = train_ovo(ds, hyper, seed)
        for (a, b), row in zip(row_pairs("ovo", model.n_classes), model.coefs):
            mask = (ds.labels == a) | (ds.labels == b)
            y = np.where(ds.labels[mask] == a, 1.0, -1.0)
            _assert_close_to_reference(row, ds.features[mask], y, hyper.lam, hyper.epochs, (seed, a, b))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ova_lanes_match_shrink_and_step(self, seed):
        ds = self._random_dataset(seed)
        hyper = Hyper(lam=0.02, epochs=3)
        model = train_ova(ds, hyper, seed)
        for cls, row in enumerate(model.coefs):
            y = np.where(ds.labels == cls, 1.0, -1.0)
            _assert_close_to_reference(row, ds.features, y, hyper.lam, hyper.epochs, (seed, cls))

    def test_degenerate_ovo_lanes_beside_normal_lanes(self):
        # classes 0 and 1 share one feature row; class 2 varies
        X = np.vstack([np.tile([0.3, 0.7], (7, 1)), np.random.default_rng(5).uniform(size=(6, 2))])
        labels = np.array([0, 0, 0, 0, 1, 1, 1] + [2] * 6)
        ds = Dataset(X, labels, ["a", "b", "c"])
        hyper = Hyper(lam=0.05, epochs=6)
        model = train_ovo(ds, hyper, seed=4)
        v01, v02, v12 = model.coefs
        assert np.all(v01[1:] == 0.0) and v01[0] == 1.0  # 4 of 7 rows are class 0
        for (a, b), row in zip([(0, 2), (1, 2)], (v02, v12)):
            mask = (labels == a) | (labels == b)
            y = np.where(labels[mask] == a, 1.0, -1.0)
            _assert_close_to_reference(row, X[mask], y, hyper.lam, hyper.epochs, (4, a, b))

    def test_degenerate_ova_lanes_beside_normal_lanes(self):
        # one stream of a batch sees identical rows, the others do not
        ds = self._random_dataset(3, rows=40)
        ds.features[:10] = ds.features[0]
        flat = (np.arange(10), int(ds.labels[0]), (3, 0))
        normal = [(np.arange(40), cls, (3, cls)) for cls in range(4)]
        grid = [Hyper(0.1, 4), Hyper(0.3, 0), Hyper(2.0, 2)]
        batches = fit_lanes(ds, [normal[0], flat, *normal[1:]], grid)
        majority = 2 * np.count_nonzero(ds.labels[:10] == flat[1]) >= 10
        assert np.all(batches[:, 1, :-1] == 0.0)  # every setting, its epochs 0 too
        assert np.all(batches[:, 1, -1] == (1.0 if majority else -1.0))
        fits = batches[0]
        model = train_ova(ds, Hyper(lam=0.1, epochs=4), seed=3)
        for cls, (fit, row) in enumerate(zip([fits[0], *fits[2:]], model.coefs)):
            assert np.array_equal(fit[:-1], row[1:]) and fit[-1] == row[0]
            y = np.where(ds.labels == cls, 1.0, -1.0)
            _assert_close_to_reference(row, ds.features, y, 0.1, 4, (3, cls))

    def test_all_degenerate_ova(self):
        ds = Dataset(np.tile([0.5], (5, 1)), np.array([0, 1, 1, 2, 2]), ["a", "b", "c"])
        model = train_ova(ds, Hyper(lam=0.1, epochs=3), seed=0)
        assert model.coefs[:, 0].tolist() == [-1.0, -1.0, -1.0]
        assert np.all(model.coefs[:, 1:] == 0.0)

    @pytest.mark.parametrize("rows, positive, message", [
        (np.array([], dtype=np.int64), 0, "stream 1: no rows"),
        (np.array([0.0, 1.0]), 0, "stream 1: rows[0] must be an integer that fits int64, got 0.0"),
        (np.arange(4).reshape(2, 2), 0, "stream 1: rows must have shape (n,), got (2, 2)"),
        (np.array([-1, 2]), 0, "stream 1: rows must lie in 0..89, got -1..2"),
        (np.array([0, 90]), 0, "stream 1: rows must lie in 0..89, got 0..90"),
        (np.arange(5), 4, "stream 1: positive 4 is not a class code 0..3"),
        (np.arange(5), -1, "stream 1: positive -1 is not a class code 0..3"),
        (np.arange(5), 1.5, "stream 1: positive 1.5 is not a class code 0..3"),
        # True trained as class 1
        (np.arange(5), True, "stream 1: positive True is not a class code 0..3"),
    ])
    def test_rejects_a_bad_stream_by_its_number(self, rows, positive, message):
        ds = self._random_dataset(0)
        streams = [(np.arange(10), 0, (0,)), (rows, positive, (1,))]
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_lanes(ds, streams, [Hyper(0.1, 2)])

    @pytest.mark.parametrize("setting", [(-0.1, 3), (0.0, 3), (0.1, -1), (0.1, 2.5), (0.1, True), (0.1, 3)])
    def test_rejects_a_setting_that_is_not_a_hyper(self, setting):
        # as tuples these fitted without a word: weights of the wrong sign,
        # inf or NaN, all zeros, or fewer epochs than asked for
        ds = self._random_dataset(0)
        with pytest.raises(TypeError, match=re.escape(f"setting 1: {setting!r} is not a Hyper")):
            fit_lanes(ds, [(np.arange(10), 0, (0,))], [Hyper(0.1, 2), setting])

    @pytest.mark.parametrize("key", [(True,), (), (-1,), (1.5,), [1]])
    def test_rejects_a_bad_key_by_its_stream_number(self, key):
        ds = self._random_dataset(0)
        streams = [(np.arange(10), 0, (0,)), (np.arange(10), 1, key)]
        if isinstance(key, tuple) and key:
            message = f"stream 1: key {key!r}'s element must be an integer >= 0, got {key[0]!r}"
        else:
            message = f"stream 1: key {key!r} is not a non-empty tuple"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_lanes(ds, streams, [Hyper(0.1, 2)])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.int64])
    def test_rows_of_any_integer_dtype_fit_alike(self, dtype):
        # 300 samples: the ids n + r reach 549, past what uint8 holds
        ds = self._random_dataset(2, rows=300)
        rows = np.arange(100, 250)
        want = fit_lanes(ds, [(rows, 1, (2,))], [Hyper(0.1, 3)])
        assert np.array_equal(fit_lanes(ds, [(rows.astype(dtype), 1, (2,))], [Hyper(0.1, 3)]), want)

    def test_lanes_of_one_key_and_length_draw_once_per_epoch(self, monkeypatch):
        # the candidates of a search on one pair's stream, plus a stream of
        # other rows of the same count and key
        ds = self._random_dataset(4)
        rows = np.flatnonzero(ds.labels < 2)
        other = np.sort(np.random.default_rng(9).choice(ds.n_samples, len(rows), replace=False))
        streams = [(rows, 0, (4, 0, 1)), (other, 1, (4, 0, 1))]
        grid = [Hyper(0.01, 3), Hyper(0.5, 5), Hyper(2.0, 2), Hyper(0.1, 0), Hyper(0.05, 4)]
        alone = [[fit_lanes(ds, [stream], [setting])[0, 0] for stream in streams] for setting in grid]
        draws = []  # (generator, length) per draw

        class CountingRng:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def permutation(self, n):
                draws.append((id(self), n))
                return self.rng.permutation(n)

        monkeypatch.setattr(trainer_mod, "default_rng", CountingRng)
        fits = fit_lanes(ds, streams, grid)
        # one generator per stream, drawn once per epoch while any setting is
        # alive: 5 epochs
        assert {n for _, n in draws} == {len(rows)}
        assert sorted(Counter(generator for generator, _ in draws).values()) == [5, 5]
        for ones, row in zip(alone, fits):
            for one, fit in zip(ones, row):
                assert np.array_equal(one[:-1], fit[:-1]) and one[-1] == fit[-1]


class Lane(NamedTuple):
    """One (setting, stream) of a fit_lanes grid, as the frozen kernel takes
    it: lanes of one stream share its rows array."""

    rows: np.ndarray
    positive: int
    lam: float
    epochs: int
    key: tuple[int, ...]


def _frozen_fit_lanes(ds: Dataset, lanes: list[Lane]) -> np.ndarray:
    """fit_lanes as it was before the signed sample table, kept verbatim as
    an oracle: each block gathers Xa[rows] and multiplies in a +-1 array
    built from the rows' labels."""
    X = ds.features
    Xa = np.hstack([X, np.ones((ds.n_samples, 1))])
    constant, solved = {}, []  # the bias of each degenerate lane; the other lanes
    for i, lane in enumerate(lanes):
        Xl = X[lane.rows]
        if bool(np.all(Xl == Xl[0])):
            y = ds.labels[lane.rows] == lane.positive
            constant[i] = 1.0 if 2 * np.count_nonzero(y) >= len(y) else -1.0
        else:
            solved.append(i)
    # longest-running lanes first, so the lanes alive in an epoch are a prefix
    order = sorted(solved, key=lambda i: -lanes[i].epochs)
    lam = np.array([lanes[i].lam for i in order])
    epochs = np.array([lanes[i].epochs for i in order], dtype=np.int64)
    n = np.array([len(lanes[i].rows) for i in order], dtype=np.int64)
    positive = np.array([lanes[i].positive for i in order], dtype=np.int64)
    # lanes of one key and length draw the same permutation each epoch: one
    # generator per (key, length), drawn once per epoch while any of its lanes
    # is alive. Lanes that also share their rows array (the candidates of a
    # search, for one pair) share one stream of row indices: one column of
    # `index`. The array's identity marks it: the lanes keep it alive here.
    draws: dict = {}
    streams: dict = {}
    sources = []  # per column: the stream's rows and the number of its generator
    column_of = np.empty(len(order), dtype=np.intp)
    for j, i in enumerate(order):
        lane = lanes[i]
        column_of[j] = streams.setdefault((lane.key, id(lane.rows)), len(streams))
        if column_of[j] == len(sources):
            sources.append((lane.rows, draws.setdefault((lane.key, len(lane.rows)), len(draws))))
    rngs = [default_rng(list(key)) for key, _ in draws]
    U = np.zeros((len(order), Xa.shape[1]))
    # column c: stream c's rows in this epoch's order, padded with row 0; int32
    # halves the largest buffer of a search
    index = np.zeros((int(n.max(initial=0)), len(sources)), dtype=np.int32)
    for epoch in range(int(epochs.max(initial=0))):
        alive = int(np.count_nonzero(epochs > epoch))
        longest = int(n[:alive].max())
        # columns are numbered in lane order, so the alive ones are a prefix
        live = int(column_of[:alive].max()) + 1
        perms: dict = {}
        for column, (rows, draw) in enumerate(sources[:live]):
            if draw not in perms:
                perms[draw] = rngs[draw].permutation(len(rows))
            index[:len(rows), column] = rows[perms[draw]]
        lam_a, n_a, pos_a = lam[:alive], n[:alive], positive[:alive]
        # views of the alive lanes' u for one (1 x m+1)(m+1 x 1) product per lane
        u_row, u_col = U[:alive, None, :], U[:alive, :, None]
        block = max(1, BLOCK_ELEMENTS // (alive * Xa.shape[1]))
        for start in range(0, longest, block):
            rows = index[start:min(start + block, longest), column_of[:alive]]
            # step s of this epoch is step t = epoch*n + s + 1 of its lane
            step = np.arange(start, start + len(rows))[:, None]
            thresh = lam_a * (epoch * n_a + step)
            thresh[step >= n_a] = -np.inf  # past the lane's samples: no update
            if epoch == 0 and start == 0:
                thresh[0] = np.inf  # t = 1 always updates
            yx = Xa[rows]
            yx *= np.where(ds.labels[rows] == pos_a, 1.0, -1.0)[:, :, None]
            for x, th in zip(yx[:, :, None, :], thresh[:, :, None, None]):
                violated = np.matmul(x, u_col) < th
                np.add(u_row, x, out=u_row, where=violated)
    fits = np.zeros((len(lanes), Xa.shape[1]))
    fits[order] = U / (lam * np.maximum(epochs * n, 1))[:, None]  # w_T = u_T / (lam T)
    fits[list(constant), -1] = list(constant.values())
    return fits


def _oracle_dataset(seed):
    """90 rows of 4 classes; rows 0..11 share one feature row, so a lane
    inside them is degenerate."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, 90)
    X = rng.normal(size=(90, 5)) + labels[:, None] * 0.7
    X[:12] = X[0]
    return Dataset(X, labels, ["0", "1", "2", "3"])


@st.composite
def lane_batches(draw):
    """A dataset seed, streams over a few shared rows arrays, and settings:
    streams of one key and rows array with other positives, arrays of one
    length (one draw per key) with other rows, degenerate arrays, 0 epochs,
    lengths 1..90."""
    seed = draw(st.integers(0, 2**16))
    common = draw(st.integers(1, 90))
    specs = draw(st.lists(
        st.tuples(st.one_of(st.just(common), st.integers(1, 90)), st.integers(-1, 2)),  # length, variant
        min_size=1, max_size=4,
    ))
    row_sets = [
        np.arange(min(length, 12)) if variant < 0
        else np.sort(np.random.default_rng([seed, variant]).choice(90, length, replace=False))
        for length, variant in specs
    ]
    streams = draw(st.lists(
        st.tuples(st.sampled_from(row_sets), st.integers(0, 3), st.sampled_from([(0,), (1,), (1, 2)])),
        min_size=1, max_size=4,
    ))
    grid = draw(st.lists(st.builds(Hyper, st.floats(1e-4, 10.0), st.integers(0, 5)), min_size=1, max_size=3))
    return seed, streams, grid


@settings(max_examples=60, deadline=None)
@given(lane_batches())
def test_fit_lanes_is_bit_identical_to_the_frozen_kernel(batch):
    seed, streams, grid = batch
    ds = _oracle_dataset(seed)
    lanes = [Lane(rows, positive, h.lam, h.epochs, key) for h in grid for rows, positive, key in streams]
    fits = fit_lanes(ds, streams, grid)
    assert fits.shape == (len(grid), len(streams), ds.n_features + 1)
    frozen = _frozen_fit_lanes(ds, lanes).reshape(fits.shape)
    assert np.array_equal(fits, frozen)
    assert fits.tobytes() == frozen.tobytes()  # the signs of zeros too
