"""Linear SVM training: one-vs-one and one-vs-all reductions over a
deterministic hinge-loss subgradient solver, plus randomized hyperparameter
search.

The solver is Pegasos (Shalev-Shwartz et al., ICML 2007) without the
projection step, on x augmented with a constant 1 so the bias shares the
regularizer. It starts at w = 0 and takes step 1/(lam*t), so after t steps
w_t = u_t / (lam*t), where u_t sums y*x over the steps whose sample violated
the margin. Only u is kept: step t tests y*(u.x) < lam*(t-1) (step 1 always
counts as a violation) and adds y*x to u when it holds.

A lane is one binary fit: a (candidate, class pair) of the search or the
final OvO model, or one class against the rest. ``fit_lanes`` advances all
lanes together, one numpy step over a (lanes, m+1) array of u per sample
position. Each lane draws one permutation of its own rows per epoch from its
own ``default_rng(key)`` (lanes of one key and row count share the draw);
lanes past their rows or epochs are masked out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .dataset import Dataset, SplitSpec, split


@dataclass(frozen=True)
class Hyper:
    lam: float = 0.01
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        # the solver divides by lam, so lam <= 0 gives non-finite weights
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


@dataclass(frozen=True)
class SearchSpace:
    lam_lo: float = 1e-4
    lam_hi: float = 10.0
    epochs_lo: int = 5
    epochs_hi: int = 50

    def __post_init__(self):
        if not (0 < self.lam_lo <= self.lam_hi < math.inf):
            raise ValueError(f"need 0 < lam_lo <= lam_hi < inf, got {self.lam_lo}, {self.lam_hi}")
        if not 0 <= self.epochs_lo <= self.epochs_hi:
            raise ValueError(f"need 0 <= epochs_lo <= epochs_hi, got {self.epochs_lo}, {self.epochs_hi}")


#: Elements per block of the array loops here (steps x lanes x (m+1) in
#: fit_lanes, vectors x samples in FloatSvmModel.predict), so a block's
#: temporaries take a few hundred kB whatever the problem's size.
_BLOCK_ELEMENTS = 1 << 15


@dataclass
class SupportVector:
    class_a: int
    class_b: int | None  # None for one-vs-all vectors
    weights: np.ndarray
    bias: float


@dataclass
class FloatSvmModel:
    kind: str  # "ovo" | "ova"
    n_classes: int
    n_features: int
    vectors: list[SupportVector]

    def __post_init__(self):
        n = self.n_classes
        expected = n * (n - 1) // 2 if self.kind == "ovo" else n
        if len(self.vectors) != expected:
            raise ValueError(f"{self.kind} model needs {expected} vectors, got {len(self.vectors)}")

    def coef_table(self) -> np.ndarray:
        """The coefficients as float64 rows: row r = [bias, w_1..w_m] of vector r."""
        vecs = self.vectors
        return np.column_stack(([v.bias for v in vecs], [v.weights for v in vecs])).astype(np.float64)

    def _score_blocks(self, X: np.ndarray):
        """Yield (first vector, scores) block by block of vectors, where
        scores[k, s] = X[s] @ w + b of vector first+k.

        One stacked matmul scores a block: it takes one matrix-vector product
        per vector, so the scores have the bits of X @ w + b, which a single
        X @ W.T (a matrix-matrix product) does not keep.
        """
        coefs = self.coef_table()
        block = max(1, _BLOCK_ELEMENTS // max(1, len(X)))
        for start in range(0, len(coefs), block):
            coef = coefs[start:start + block]
            scores = np.matmul(X, coef[:, 1:, None])[:, :, 0]
            scores += coef[:, :1]
            yield start, scores

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Class per row: max-wins voting for OvO, argmax score for OvA.

        Ties break toward the lowest class id.
        """
        X = np.asarray(features, dtype=np.float64)
        if self.kind == "ova":
            return np.argmax(np.concatenate([scores for _, scores in self._score_blocks(X)]), axis=0)
        pairs = np.array([(v.class_a, v.class_b) for v in self.vectors], dtype=np.int64).reshape(-1, 2)
        onehot = np.eye(self.n_classes)
        # a vector votes for class_b, plus (e_a - e_b) when class_a wins; the
        # counts are small integers, exact in float64
        swing = onehot[pairs[:, 0]] - onehot[pairs[:, 1]]
        votes = np.tile(onehot[pairs[:, 1]].sum(axis=0), (len(X), 1))
        tally = np.empty_like(votes)
        for start, scores in self._score_blocks(X):
            a_wins = (scores >= 0.0).astype(np.float64)
            votes += np.matmul(a_wins.T, swing[start:start + len(scores)], out=tally)
        return np.argmax(votes, axis=1)


@dataclass
class BinaryFit:
    weights: np.ndarray
    bias: float


@dataclass(frozen=True)
class Lane:
    """One binary fit: dataset rows ``rows``, where label ``positive`` is
    trained as +1 and every other label as -1, and ``key`` seeds the lane's
    permutation stream."""

    rows: np.ndarray
    positive: int
    lam: float
    epochs: int
    key: tuple[int, ...]


def fit_lanes(ds: Dataset, lanes: list[Lane]) -> list[BinaryFit]:
    """Fit every lane's hinge-loss separator at once, in lockstep.

    A lane whose rows all carry identical features is degenerate: it gets
    zero weights and a bias whose sign picks the majority label. The others
    run the solver of the module docstring. A lane's result does not depend
    on the other lanes of the call, bit for bit.
    """
    X = ds.features
    Xa = np.hstack([X, np.ones((ds.n_samples, 1))])
    fits: list[BinaryFit | None] = [None] * len(lanes)
    for i, lane in enumerate(lanes):
        Xl = X[lane.rows]
        if bool(np.all(Xl == Xl[0])):
            y = ds.labels[lane.rows] == lane.positive
            bias = 1.0 if 2 * np.count_nonzero(y) >= len(y) else -1.0
            fits[i] = BinaryFit(np.zeros(ds.n_features), bias)
    # longest-running lanes first, so the lanes alive in an epoch are a prefix
    order = sorted((i for i, fit in enumerate(fits) if fit is None), key=lambda i: -lanes[i].epochs)
    lam = np.array([lanes[i].lam for i in order])
    epochs = np.array([lanes[i].epochs for i in order], dtype=np.int64)
    n = np.array([len(lanes[i].rows) for i in order], dtype=np.int64)
    positive = np.array([lanes[i].positive for i in order], dtype=np.int64)
    # lanes of one key and length (the candidates of a search, for one pair)
    # draw the same permutation each epoch: one stream per (key, length),
    # drawn once per epoch while any of its lanes is alive
    keys: dict = {}
    stream_of = [keys.setdefault((lanes[i].key, len(lanes[i].rows)), len(keys)) for i in order]
    rngs = [default_rng(list(key)) for key, _ in keys]
    U = np.zeros((len(order), Xa.shape[1]))
    # column j: lane j's rows in this epoch's order, padded with row 0; int32
    # halves the largest buffer of a search
    stream = np.zeros((int(n.max(initial=0)), len(order)), dtype=np.int32)
    for epoch in range(int(epochs.max(initial=0))):
        alive = int(np.count_nonzero(epochs > epoch))
        longest = int(n[:alive].max())
        perms: dict = {}
        for j in range(alive):
            k = stream_of[j]
            if k not in perms:
                perms[k] = rngs[k].permutation(n[j])
            stream[: n[j], j] = lanes[order[j]].rows[perms[k]]
        lam_a, n_a, pos_a = lam[:alive], n[:alive], positive[:alive]
        # views of the alive lanes' u for one (1 x m+1)(m+1 x 1) product per lane
        u_row, u_col = U[:alive, None, :], U[:alive, :, None]
        block = max(1, _BLOCK_ELEMENTS // (alive * Xa.shape[1]))
        for start in range(0, longest, block):
            rows = stream[start:min(start + block, longest), :alive]
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
    W = U / (lam * np.maximum(epochs * n, 1))[:, None]  # w_T = u_T / (lam T)
    for j, i in enumerate(order):
        fits[i] = BinaryFit(W[j, :-1], float(W[j, -1]))
    return fits


def train_ovo_candidates(ds: Dataset, hypers: list[Hyper]) -> list[FloatSvmModel]:
    """One OvO model per hyperparameter set, every (candidate, pair) a lane of
    one fit_lanes call; vectors in lexicographic pair order."""
    n = ds.n_classes
    present = np.bincount(ds.labels, minlength=n) > 0
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if not (present[a] and present[b]):
                raise RuntimeError(f"pair ({a},{b}) failed: a class is missing from the training set")
            pairs.append((a, b, np.flatnonzero((ds.labels == a) | (ds.labels == b))))
    lanes = [Lane(rows, a, h.lam, h.epochs, (h.seed, a, b)) for h in hypers for a, b, rows in pairs]
    fits = fit_lanes(ds, lanes)
    models = []
    for k in range(len(hypers)):
        own = fits[k * len(pairs):(k + 1) * len(pairs)]
        vectors = [SupportVector(a, b, fit.weights, fit.bias) for (a, b, _), fit in zip(pairs, own)]
        models.append(FloatSvmModel("ovo", n, ds.n_features, vectors))
    return models


def train_ovo(ds: Dataset, hyper: Hyper) -> FloatSvmModel:
    """One binary fit per unordered class pair, assembled in lexicographic order."""
    return train_ovo_candidates(ds, [hyper])[0]


def train_ova(ds: Dataset, hyper: Hyper) -> FloatSvmModel:
    """One binary fit per class against the rest (comparison harness only)."""
    rows = np.arange(ds.n_samples)
    lanes = [Lane(rows, cls, hyper.lam, hyper.epochs, (hyper.seed, cls)) for cls in range(ds.n_classes)]
    vectors = [SupportVector(cls, None, fit.weights, fit.bias) for cls, fit in enumerate(fit_lanes(ds, lanes))]
    return FloatSvmModel("ova", ds.n_classes, ds.n_features, vectors)


def accuracy(model, ds: Dataset) -> float:
    """Fraction of samples classified correctly; model is anything with
    predict(features) or a callable doing the same."""
    predict = model.predict if hasattr(model, "predict") else model
    pred = np.asarray(predict(ds.features))
    if pred.shape != ds.labels.shape:
        raise ValueError("prediction/label shape mismatch")
    return float(np.mean(pred == ds.labels))


def random_search(
    train: Dataset,
    space: SearchSpace = SearchSpace(),
    budget: int = 8,
    seed: int = 0,
    holdout_fraction: float = 0.25,
) -> Hyper:
    """Sample (lam, epochs) pairs and keep the best holdout accuracy.

    Deterministic for a given seed; ties break toward smaller lam, then fewer
    epochs. lam is sampled log-uniformly. A budget of 1 returns its one draw
    without a holdout split or a fit.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must lie strictly between 0 and 1")
    rng = default_rng([seed, 99])
    lams = 10.0 ** rng.uniform(np.log10(space.lam_lo), np.log10(space.lam_hi), budget)
    epoch_counts = rng.integers(space.epochs_lo, space.epochs_hi + 1, budget)
    hypers = [Hyper(lam=lam, epochs=int(epochs), seed=seed) for lam, epochs in zip(lams.tolist(), epoch_counts.tolist())]
    if budget == 1:
        return hypers[0]

    sub_train, holdout = split(train, SplitSpec(1.0 - holdout_fraction, seed))
    best: tuple | None = None
    best_hyper = None
    for hyper, model in zip(hypers, train_ovo_candidates(sub_train, hypers)):
        key = (-accuracy(model, holdout), hyper.lam, hyper.epochs)
        if best is None or key < best:
            best = key
            best_hyper = hyper
    return best_hyper
