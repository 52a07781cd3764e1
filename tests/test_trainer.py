import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqsvm.trainer as trainer_mod
from helpers import layouts
from seqsvm.dataset import Dataset, SplitSpec, split
from seqsvm.synth import bundled_dataset, ring_sectors
from seqsvm.trainer import (
    FloatSvmModel,
    Hyper,
    Lane,
    SearchSpace,
    SupportVector,
    accuracy,
    fit_lanes,
    random_search,
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
    """The one separator of a two-class OvO model: class 0 (+1) vs class 1 (-1)."""
    model = train_ovo(ds, hyper)
    assert [(v.class_a, v.class_b) for v in model.vectors] == [(0, 1)]
    return model.vectors[0]


def test_separable_two_point_set():
    # x=0 belongs to class b (=1), x=1 to class a (=0)
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([1, 0]), ["a", "b"])
    fit = _pair_fit(ds, Hyper(lam=0.1, epochs=80, seed=0))
    assert np.any(fit.weights != 0.0)  # not the degenerate constant
    assert float(np.dot([1.0], fit.weights) + fit.bias) >= 0.0   # class a side
    assert float(np.dot([0.0], fit.weights) + fit.bias) < 0.0    # class b side


def test_degenerate_identical_features():
    X = np.tile([0.3, 0.7], (6, 1))
    ds = Dataset(X, np.array([0, 0, 0, 0, 1, 1]), ["a", "b"])
    fit = _pair_fit(ds, Hyper())
    assert np.all(fit.weights == 0.0)
    assert fit.bias == 1.0  # majority is class a, mapped +1
    ds.labels[:] = [0, 0, 1, 1, 1, 1]
    assert _pair_fit(ds, Hyper()).bias == -1.0  # majority is class b, mapped -1


def test_blob_margin_accuracy():
    ds = _two_class_blobs()
    model = train_ovo(ds, Hyper(lam=0.01, epochs=20, seed=1))
    assert accuracy(model, ds) >= 0.95


def test_missing_class_rejected():
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 0]), ["a", "b"])
    with pytest.raises(RuntimeError, match=r"pair \(0,1\) failed: .*missing"):
        train_ovo(ds, Hyper())


@pytest.mark.parametrize("lam", [0.0, -0.01, float("inf"), float("nan")])
def test_lam_must_be_finite_and_positive(lam):
    # the solver divides by lam: lam = 0 used to give non-finite weights silently
    with pytest.raises(ValueError, match="lam must be finite and > 0"):
        train_ovo(bundled_dataset("blobs3x21", seed=0), Hyper(lam=lam))


def test_negative_epochs_rejected_zero_allowed():
    with pytest.raises(ValueError, match="epochs must be >= 0"):
        Hyper(epochs=-1)
    model = train_ovo(bundled_dataset("blobs3x21", seed=0), Hyper(epochs=0))
    assert all(np.isfinite(v.weights).all() and np.isfinite(v.bias) for v in model.vectors)


@pytest.mark.parametrize("space", [
    dict(lam_lo=0.0),
    dict(lam_lo=-1.0),
    dict(lam_lo=1.0, lam_hi=0.5),
    dict(lam_hi=float("inf")),
    dict(epochs_lo=-1),
    dict(epochs_lo=9, epochs_hi=8),
])
def test_search_space_rejects_bad_ranges(space):
    ds = bundled_dataset("blobs3x21", seed=0)
    with pytest.raises(ValueError, match="need"):
        random_search(ds, SearchSpace(**space), budget=2)


@pytest.mark.parametrize("name,n,expected", [
    ("blobs3x21", 3, 3),
    ("noisy6x11", 6, 15),
    ("rings10x17", 10, 45),
])
def test_ovo_vector_counts(name, n, expected):
    ds = bundled_dataset(name, seed=0)
    train, _ = split(ds, SplitSpec(0.8, 0))
    model = train_ovo(train, Hyper(epochs=3))
    assert model.n_classes == n
    assert len(model.vectors) == expected
    pairs = [(v.class_a, v.class_b) for v in model.vectors]
    assert pairs == sorted(pairs)
    assert all(a < b for a, b in pairs)


@pytest.mark.parametrize("name,n", [("blobs3x21", 3), ("rings10x17", 10)])
def test_ova_vector_counts(name, n):
    ds = bundled_dataset(name, seed=0)
    train, _ = split(ds, SplitSpec(0.8, 0))
    model = train_ova(train, Hyper(epochs=3))
    assert len(model.vectors) == n
    assert all(v.class_b is None for v in model.vectors)


def test_ovo_vs_ova_gap_reported(capsys):
    ds = ring_sectors(6, 11, per_class=30, seed=4)
    train, test = split(ds, SplitSpec(0.8, 4))
    hyper = Hyper(lam=0.02, epochs=10, seed=4)
    ovo_acc = accuracy(train_ovo(train, hyper), test)
    ova_acc = accuracy(train_ova(train, hyper), test)
    print(f"ovo={ovo_acc:.4f} ova={ova_acc:.4f} gap={ovo_acc - ova_acc:+.4f}")
    assert 0.0 <= ovo_acc <= 1.0 and 0.0 <= ova_acc <= 1.0


def test_training_bit_reproducible():
    ds = bundled_dataset("noisy6x11", seed=2)
    train, _ = split(ds, SplitSpec(0.8, 2))
    m1 = train_ovo(train, Hyper(lam=0.05, epochs=6, seed=9))
    m2 = train_ovo(train, Hyper(lam=0.05, epochs=6, seed=9))
    for v1, v2 in zip(m1.vectors, m2.vectors):
        assert np.array_equal(v1.weights, v2.weights)
        assert v1.bias == v2.bias


def test_positive_scaling_leaves_predictions(blobs3_split, blobs3_model):
    _, test = blobs3_split
    scaled = FloatSvmModel(
        "ovo",
        blobs3_model.n_classes,
        blobs3_model.n_features,
        [SupportVector(v.class_a, v.class_b, v.weights * 7.0, v.bias * 7.0) for v in blobs3_model.vectors],
    )
    assert np.array_equal(blobs3_model.predict(test.features), scaled.predict(test.features))


class TestAccuracy:
    def _constant_model(self, cls):
        return lambda X: np.full(len(X), cls, dtype=np.int64)

    def test_always_right(self):
        ds = Dataset(np.zeros((5, 1)), np.zeros(5, dtype=int), ["a", "b"])
        assert accuracy(self._constant_model(0), ds) == 1.0

    def test_always_wrong(self):
        ds = Dataset(np.zeros((5, 1)), np.ones(5, dtype=int), ["a", "b"])
        assert accuracy(self._constant_model(0), ds) == 0.0

    def test_hand_built_two_class(self):
        # boundary at x = 0.5; >= goes to class 0
        model = FloatSvmModel("ovo", 2, 1, [SupportVector(0, 1, np.array([1.0]), -0.5)])
        X = np.array([[0.2], [0.4], [0.6], [0.8]])
        labels = np.array([1, 0, 0, 0])
        expected = sum(
            1 for x, lab in zip(X[:, 0], labels) if (0 if x - 0.5 >= 0 else 1) == lab
        ) / 4  # enumerate the 4 points
        assert accuracy(model, Dataset(X, labels, ["a", "b"])) == expected == 0.75

    def test_vote_tie_breaks_low_id(self):
        # class 0 and 2 both get one win; argmax takes the lowest id
        vecs = [
            SupportVector(0, 1, np.array([0.0]), 1.0),   # 0 beats 1
            SupportVector(0, 2, np.array([0.0]), -1.0),  # 2 beats 0
            SupportVector(1, 2, np.array([0.0]), 1.0),   # 1 beats 2
        ]
        model = FloatSvmModel("ovo", 3, 1, vecs)
        assert model.predict(np.zeros((1, 1)))[0] == 0


def _per_vector_predict(model, X):
    """Reference: the per-vector loop that predict replaced, one X @ w + b per
    vector and votes tallied vector by vector."""
    X = np.asarray(X, dtype=np.float64)
    if model.kind == "ovo":
        votes = np.zeros((X.shape[0], model.n_classes), dtype=np.int64)
        for vec in model.vectors:
            a_wins = X @ vec.weights + vec.bias >= 0.0
            votes[a_wins, vec.class_a] += 1
            votes[~a_wins, vec.class_b] += 1
        return np.argmax(votes, axis=1)
    scores = np.column_stack([X @ v.weights + v.bias for v in model.vectors])
    return np.argmax(scores, axis=1)


@st.composite
def float_models(draw):
    """An OvO or OvA model with its samples. Small-integer coefficients and
    features on a coarse grid make scores of exactly 0 and vote ties common;
    normal draws make the products' rounding matter."""
    kind = draw(st.sampled_from(["ovo", "ova"]))
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = n * (n - 1) // 2 if kind == "ovo" else n
    if draw(st.booleans()):
        coefs = rng.integers(-2, 3, (count, m + 1)).astype(np.float64)
        X = rng.integers(0, 3, (draw(st.integers(0, 30)), m)) / 2.0
    else:
        coefs = rng.normal(size=(count, m + 1)) * 10.0 ** rng.integers(-3, 4, (count, 1))
        X = rng.uniform(size=(draw(st.integers(0, 30)), m))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)] if kind == "ovo" else [(c, None) for c in range(n)]
    vectors = [SupportVector(a, b, c[1:], float(c[0])) for (a, b), c in zip(pairs, coefs)]
    return FloatSvmModel(kind, n, m, vectors), X


class TestPredict:
    @settings(max_examples=200, deadline=None)
    @given(case=float_models(), block=st.sampled_from([1, 3, 40, 1 << 15]))
    def test_equals_the_per_vector_loop(self, case, block):
        model, X = case
        expected = _per_vector_predict(model, X)
        with mock.patch.object(trainer_mod, "_BLOCK_ELEMENTS", block):
            for view in layouts(X, np.float64):
                assert np.array_equal(model.predict(view), expected)
                # the scores themselves keep the bits of X @ w + b
                scores = np.concatenate([s for _, s in model._score_blocks(view)])
                assert np.array_equal(scores, np.array([view @ v.weights + v.bias for v in model.vectors]))

    @pytest.mark.parametrize("kind", ["ovo", "ova"])
    def test_equals_the_per_vector_loop_over_many_blocks(self, kind):
        # 26 classes and 3000 samples: 10 vectors per block, 33 blocks for OvO
        ds = ring_sectors(26, 16, 160, seed=2)
        rng = np.random.default_rng(3)
        pairs = [(a, b) for a in range(26) for b in range(a + 1, 26)] if kind == "ovo" else [(c, None) for c in range(26)]
        vectors = [SupportVector(a, b, rng.normal(size=16), float(rng.normal())) for a, b in pairs]
        model = FloatSvmModel(kind, 26, 16, vectors)
        X = ds.features[:3000]
        assert np.array_equal(model.predict(X), _per_vector_predict(model, X))

    def test_zero_scores_go_to_class_a(self):
        # every score is 0 or -0.0, so class_a wins each pair and 0 leads;
        # with the (0, b) pairs biased below 0, 1 wins three pairs and leads
        zero = [SupportVector(a, b, np.array([0.0, -0.0]), -0.0) for a in range(4) for b in range(a + 1, 4)]
        model = FloatSvmModel("ovo", 4, 2, zero)
        assert model.predict(np.array([[0.5, 0.25], [0.0, 0.0]])).tolist() == [0, 0]
        for vec in zero[:3]:
            vec.bias = -1.0
        assert model.predict(np.array([[0.5, 0.25]])).tolist() == [1]


class TestRandomSearch:
    def test_budget_one_is_deterministic(self, blobs3_split):
        train, _ = blobs3_split
        a = random_search(train, budget=1, seed=3)
        b = random_search(train, budget=1, seed=3)
        assert a == b

    def test_reproducible_over_budget(self, blobs3_split):
        train, _ = blobs3_split
        a = random_search(train, budget=20, seed=5)
        b = random_search(train, budget=20, seed=5)
        assert a == b

    def test_rejects_zero_budget(self, blobs3_split):
        with pytest.raises(ValueError):
            random_search(blobs3_split[0], budget=0, seed=0)

    def test_budget_one_returns_its_draw_without_a_holdout_or_a_fit(self, blobs3_split, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a budget of 1 has nothing to choose")

        monkeypatch.setattr(trainer_mod, "split", refuse)
        monkeypatch.setattr(trainer_mod, "train_ovo_candidates", refuse)
        space = SearchSpace(lam_lo=1e-3, lam_hi=1.0, epochs_lo=3, epochs_hi=30)
        rng = np.random.default_rng([6, 99])  # the search's draws: lam first, then epochs
        lam = float(10.0 ** rng.uniform(math.log10(1e-3), math.log10(1.0), 1)[0])
        epochs = int(rng.integers(3, 31, 1)[0])
        assert random_search(blobs3_split[0], space, budget=1, seed=6) == Hyper(lam, epochs, 6)

    @pytest.mark.parametrize("budget", [1, 2, 5])
    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.25, 1.5, math.nan])
    def test_bad_holdout_fraction_rejected_at_every_budget(self, blobs3_split, budget, fraction):
        with pytest.raises(ValueError, match="holdout_fraction must lie strictly between 0 and 1"):
            random_search(blobs3_split[0], budget=budget, seed=0, holdout_fraction=fraction)

    def test_picks_strictly_better_candidate(self, blobs3_split, monkeypatch):
        # score rises as lam falls; the smallest sampled lam must win
        train, _ = blobs3_split
        seen = []

        class _Fake:
            def __init__(self, lam):
                self.lam = lam

            def predict(self, X):
                return np.full(len(X), -1, dtype=np.int64)  # accuracy 0

        def fake_train(ds, hypers):
            seen.extend(hypers)
            return [_Fake(hyper.lam) for hyper in hypers]

        def fake_accuracy(model, ds):
            return 1.0 / (1.0 + model.lam) if isinstance(model, _Fake) else 0.0

        monkeypatch.setattr(trainer_mod, "train_ovo_candidates", fake_train)
        monkeypatch.setattr(trainer_mod, "accuracy", fake_accuracy)
        best = random_search(train, budget=10, seed=8)
        assert best.lam == min(h.lam for h in seen)

    def test_tie_breaks_smaller_lam_then_epochs(self, blobs3_split, monkeypatch):
        train, _ = blobs3_split
        seen = []

        def fake_train(ds, hypers):
            seen.extend(hypers)
            return [object() for _ in hypers]

        monkeypatch.setattr(trainer_mod, "train_ovo_candidates", fake_train)
        monkeypatch.setattr(trainer_mod, "accuracy", lambda model, ds: 0.5)
        best = random_search(train, budget=10, seed=8)
        assert best.lam == min(h.lam for h in seen)


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


def _assert_close_to_reference(vec, X, y, lam, epochs, key):
    ref = _shrink_and_step(X, y, lam, epochs, np.random.default_rng(list(key)))
    # the bias sum is a count of +-1 steps, so it can cancel to exactly 0
    # where the reference keeps rounding noise: atol is relative to the vector
    np.testing.assert_allclose(np.r_[vec.weights, vec.bias], ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


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
                st.integers(1, 90),                 # lane length
                st.integers(0, 3),                  # positive label
                st.floats(1e-4, 10.0),              # lam
                st.integers(0, 5),                  # epochs
                st.integers(0, 50),                 # stream seed
            ),
            min_size=2,
            max_size=7,
        ),
    )
    def test_lane_alone_equals_lane_in_batch(self, seed, specs):
        ds = self._random_dataset(seed)
        rng = np.random.default_rng(seed + 1)
        lanes = [
            Lane(np.sort(rng.choice(ds.n_samples, size, replace=False)), pos, lam, epochs, (key, pos))
            for size, pos, lam, epochs, key in specs
        ]
        batch = fit_lanes(ds, lanes)
        for lane, fit in zip(lanes, batch):
            alone = fit_lanes(ds, [lane])[0]
            assert np.array_equal(alone.weights, fit.weights)
            assert alone.bias == fit.bias

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ovo_lanes_match_shrink_and_step(self, seed):
        ds = self._random_dataset(seed)
        hyper = Hyper(lam=[0.003, 0.05, 1.5][seed], epochs=4 + seed, seed=seed)
        model = train_ovo(ds, hyper)
        for vec in model.vectors:
            mask = (ds.labels == vec.class_a) | (ds.labels == vec.class_b)
            y = np.where(ds.labels[mask] == vec.class_a, 1.0, -1.0)
            _assert_close_to_reference(vec, ds.features[mask], y, hyper.lam, hyper.epochs,
                                       (seed, vec.class_a, vec.class_b))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ova_lanes_match_shrink_and_step(self, seed):
        ds = self._random_dataset(seed)
        hyper = Hyper(lam=0.02, epochs=3, seed=seed)
        model = train_ova(ds, hyper)
        for vec in model.vectors:
            y = np.where(ds.labels == vec.class_a, 1.0, -1.0)
            _assert_close_to_reference(vec, ds.features, y, hyper.lam, hyper.epochs, (seed, vec.class_a))

    def test_degenerate_ovo_lanes_beside_normal_lanes(self):
        # classes 0 and 1 share one feature row; class 2 varies
        X = np.vstack([np.tile([0.3, 0.7], (7, 1)), np.random.default_rng(5).uniform(size=(6, 2))])
        labels = np.array([0, 0, 0, 0, 1, 1, 1] + [2] * 6)
        ds = Dataset(X, labels, ["a", "b", "c"])
        hyper = Hyper(lam=0.05, epochs=6, seed=4)
        model = train_ovo(ds, hyper)
        v01, v02, v12 = model.vectors
        assert np.all(v01.weights == 0.0) and v01.bias == 1.0  # 4 of 7 rows are class 0
        for vec in (v02, v12):
            mask = (labels == vec.class_a) | (labels == vec.class_b)
            y = np.where(labels[mask] == vec.class_a, 1.0, -1.0)
            _assert_close_to_reference(vec, X[mask], y, hyper.lam, hyper.epochs, (4, vec.class_a, vec.class_b))

    def test_degenerate_ova_lanes_beside_normal_lanes(self):
        # one lane of a batch sees identical rows, the others do not
        ds = self._random_dataset(3, rows=40)
        ds.features[:10] = ds.features[0]
        flat = Lane(np.arange(10), int(ds.labels[0]), 0.1, 4, (3, 0))
        normal = [Lane(np.arange(40), cls, 0.1, 4, (3, cls)) for cls in range(4)]
        fits = fit_lanes(ds, [normal[0], flat, *normal[1:]])
        majority = 2 * np.count_nonzero(ds.labels[:10] == flat.positive) >= 10
        assert np.all(fits[1].weights == 0.0)
        assert fits[1].bias == (1.0 if majority else -1.0)
        model = train_ova(ds, Hyper(lam=0.1, epochs=4, seed=3))
        for cls, (fit, vec) in enumerate(zip([fits[0], *fits[2:]], model.vectors)):
            assert np.array_equal(fit.weights, vec.weights) and fit.bias == vec.bias
            y = np.where(ds.labels == cls, 1.0, -1.0)
            _assert_close_to_reference(fit, ds.features, y, 0.1, 4, (3, cls))

    def test_all_degenerate_ova(self):
        ds = Dataset(np.tile([0.5], (5, 1)), np.array([0, 1, 1, 2, 2]), ["a", "b", "c"])
        model = train_ova(ds, Hyper(lam=0.1, epochs=3, seed=0))
        assert [v.bias for v in model.vectors] == [-1.0, -1.0, -1.0]
        assert all(np.all(v.weights == 0.0) for v in model.vectors)

    def test_lanes_of_one_key_and_length_draw_once_per_epoch(self, monkeypatch):
        # the candidates of a search for one pair: one key and the same rows,
        # other lams and epochs; plus a lane of other rows of the same count
        ds = self._random_dataset(4)
        rows = np.flatnonzero(ds.labels < 2)
        other = np.sort(np.random.default_rng(9).choice(ds.n_samples, len(rows), replace=False))
        lanes = [Lane(rows, 0, lam, epochs, (4, 0, 1)) for lam, epochs in [(0.01, 3), (0.5, 5), (2.0, 2), (0.1, 0)]]
        lanes.append(Lane(other, 1, 0.05, 4, (4, 0, 1)))
        alone = [fit_lanes(ds, [lane])[0] for lane in lanes]
        draws = []

        class CountingRng:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def permutation(self, n):
                draws.append(n)
                return self.rng.permutation(n)

        monkeypatch.setattr(trainer_mod, "default_rng", CountingRng)
        fits = fit_lanes(ds, lanes)
        assert draws == [len(rows)] * 5  # one draw in each of the longest lane's 5 epochs
        for one, fit in zip(alone, fits):
            assert np.array_equal(one.weights, fit.weights) and one.bias == fit.bias
