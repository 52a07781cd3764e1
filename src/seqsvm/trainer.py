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
position. It keeps one table of signed samples, y*[x, 1] for both signs of
every row, so a lane's stream of samples holds row ids that already carry
the lane's label sign, and a block of steps is one gather from the table.
A stream is the lanes of one key, rows array and positive class, such as
the candidates of a search for one pair. Each stream draws one permutation
of its rows per epoch from its own ``default_rng(key)``; lanes past their
rows or epochs are masked out.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .dataset import Dataset, SplitSpec, split
from .ddag import float_features, row_pairs, score_table
from .fxp import BLOCK_ELEMENTS


@dataclass(frozen=True)
class Hyper:
    lam: float = 0.01
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        # the solver divides by lam, so lam <= 0 gives non-finite weights
        if not (finite_number(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam!r}")
        for key, value in (("epochs", self.epochs), ("seed", self.seed)):
            if type(value) is not int or value < 0:
                raise ValueError(f"{key} must be >= 0 and an int, got {value!r}")


#: random_search draws lam log-uniformly and epochs uniformly from these
#: ranges (ends included) and scores each draw on this share of its rows.
LAM_RANGE = (1e-4, 10.0)
EPOCH_RANGE = (5, 50)
HOLDOUT_FRACTION = 0.25


def check_feature_count(n_features) -> None:
    """Reject a feature count that is not an int (no bool) of at least 1."""
    if type(n_features) is not int or n_features < 1:
        raise ValueError(f"a model needs an integer feature count of at least one, got {n_features!r}")


def read_only_table(values, n_rows: int, n_features: int, dtype) -> np.ndarray:
    """``values`` as a new read-only (n_rows, n_features + 1) array of
    ``dtype``: a model's table, one row [bias, w_1..w_m] per stored vector."""
    check_feature_count(n_features)
    table = np.array(values, dtype=dtype)
    if table.shape != (n_rows, n_features + 1):
        raise ValueError(f"need a {n_rows} x {n_features + 1} table (one row per vector), got shape {table.shape}")
    table.flags.writeable = False
    return table


def finite_number(value) -> bool:
    """Whether ``value`` is an int, a float or a numpy integer or floating
    scalar of at most 64 bits (no bool of either), finite in float64."""
    if isinstance(value, (np.integer, np.floating)):
        value = value.item()
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def check_parameters(rows) -> None:
    """Reject the first parameter of ``rows`` (each [bias, w_1..w_m]) that is
    not a finite number, row by row, each row's weights before its bias."""
    for r, row in enumerate(rows):
        bad = [p for p in [*row[1:], row[0]] if not finite_number(p)]
        if bad:
            raise ValueError(f"vector {r}: parameter {bad[0]!r} is not a finite number")


@dataclass(eq=False)
class FloatSvmModel:
    """A float OvO or OvA model as its coefficient table: ``coefs`` row r is
    [bias, w_1..w_m] of the r-th entry of ``row_pairs(kind, n_classes)``,
    float64, finite and read-only."""

    kind: str  # "ovo" | "ova"
    n_classes: int
    n_features: int
    coefs: np.ndarray

    def __post_init__(self):
        rows = len(row_pairs(self.kind, self.n_classes))
        self.coefs = read_only_table(self.coefs, rows, self.n_features, np.float64)
        if not np.isfinite(self.coefs).all():
            check_parameters(self.coefs.tolist())

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Class per row: max-wins voting for OvO, argmax score for OvA, as
        the scores of ddag.score_table decide them; ties break toward the
        lowest class id. Rejects features as ddag_predict_float does.

        OvA scores are score_table's. Each OvO block is scored by BLAS
        first: a score further from 0 than its bound has score_table's
        sign. A sample with any other score, or one that is not finite, is
        scored again by score_table. So the classes do not depend on the
        BLAS kernel.
        """
        X = float_features(self, features)
        classes = np.empty(len(X), dtype=np.int64)
        if self.kind == "ova":
            for first, col, scores in score_table(self.coefs, X):
                if col == self.n_features:
                    classes[first:first + scores.shape[1]] = np.argmax(scores, axis=0)
            return classes
        pairs = np.array(row_pairs("ovo", self.n_classes), dtype=np.int64).reshape(-1, 2)
        onehot = np.eye(self.n_classes)
        # a pair votes for class_b, plus (e_a - e_b) when class_a wins;
        # the counts are small integers, exact in float64
        swing = onehot[pairs[:, 0]] - onehot[pairs[:, 1]]
        base = onehot[pairs[:, 1]].sum(axis=0)
        for start, scores, bounds in self._blas_blocks(X):
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is never sure
                finite = np.isfinite(scores.sum(axis=1))
                won = scores >= 0.0
                sure = np.abs(scores, out=scores) > bounds
                np.copyto(scores, won)  # 1.0 where class_a wins
            unsure = np.flatnonzero(~(sure.all(axis=1) & finite))
            for first, col, exact in score_table(self.coefs, X[start + unsure]):
                if col == self.n_features:
                    scores[unsure[first:first + exact.shape[1]]] = exact.T >= 0.0
            votes = np.matmul(scores, swing)
            votes += base
            classes[start:start + len(scores)] = np.argmax(votes, axis=1)
        return classes

    def _blas_blocks(self, X: np.ndarray):
        """Yield (first sample, scores, bounds) per block of samples, where
        scores[s, r] is row r's BLAS score X @ W.T + b of sample first+s and
        bounds[s, r] exceeds its distance from score_table's score, or is
        not finite. Both go to reused buffers, so each block must be used
        before the next.

        Summed in any order, fused multiply-adds included, m+1 terms err by
        at most gamma_(m+1) = (m+1)u / (1 - (m+1)u) times the sum of their
        magnitudes, u = 2**-53 (Higham, Accuracy and Stability of Numerical
        Algorithms, section 3.1). That holds for both scores, so the bound is
        twice 2(m+2)u times that sum, which also covers the rounding of the
        bound itself, plus tiny for the products that underflow.
        """
        weights = np.ascontiguousarray(self.coefs[:, 1:].T)  # row j: every stored row's weight j
        bias = self.coefs[:, 0]
        magnitudes, bias_magnitudes = np.abs(weights), np.abs(bias)
        slack = 4 * (self.n_features + 2) * 2.0 ** -53
        block = max(1, BLOCK_ELEMENTS // len(self.coefs))
        size = min(block, len(X))
        x_buf = np.empty((size, self.n_features))
        score_buf, bound_buf = np.empty((2, size, len(self.coefs)))
        for start in range(0, len(X), block):
            k = min(block, len(X) - start)
            x, scores, bounds = x_buf[:k], score_buf[:k], bound_buf[:k]
            x[...] = X[start:start + k]
            with np.errstate(over="ignore", invalid="ignore"):  # predict redoes what overflows
                np.matmul(x, weights, out=scores)
                scores += bias
                np.matmul(np.abs(x, out=x), magnitudes, out=bounds)
                bounds += bias_magnitudes
                bounds *= slack
            bounds += np.finfo(np.float64).tiny
            yield start, scores, bounds


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


def _signed_ids(ds: Dataset, lane: Lane, i: int) -> np.ndarray:
    """Lane ``i``'s rows as ids into fit_lanes' signed table: row r where
    its label is the lane's positive class, n + r where it is not. Rejects
    a lane whose rows or positive class do not fit ``ds``."""
    rows = np.asarray(lane.rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"lane {i}: rows must be a 1-D integer array, got {rows.dtype} of shape {rows.shape}")
    if not len(rows):
        raise ValueError(f"lane {i}: no rows")
    if rows.min() < 0 or rows.max() >= ds.n_samples:
        raise ValueError(f"lane {i}: rows must lie in 0..{ds.n_samples - 1}, got {rows.min()}..{rows.max()}")
    if not (isinstance(lane.positive, (int, np.integer)) and 0 <= lane.positive < ds.n_classes):
        raise ValueError(f"lane {i}: positive {lane.positive!r} is not a class code 0..{ds.n_classes - 1}")
    # the product is int64, so no narrow dtype of rows can wrap
    return (rows + ds.n_samples * (ds.labels[rows] != lane.positive)).astype(np.int32)


def fit_lanes(ds: Dataset, lanes: list[Lane]) -> np.ndarray:
    """Fit every lane's hinge-loss separator at once, in lockstep; row i of
    the (lanes, m+1) result is lane i's [w_1..w_m, bias].

    A lane whose rows all carry identical features is degenerate: it gets
    zero weights and a bias whose sign picks the majority label. The others
    run the solver of the module docstring. A lane's result does not depend
    on the other lanes of the call, bit for bit. Raises ValueError, naming
    the lane, for empty, non-integer or out-of-range rows and for a positive
    label that is not a class code of ``ds``.
    """
    n_samples = ds.n_samples
    # row r is y*[x_r, 1] with y = +1, row n + r the same with y = -1:
    # negation is exact, so a sample's signed row is one gather
    signed = np.empty((2 * n_samples, ds.n_features + 1))
    signed[:n_samples, :-1] = ds.features
    signed[:n_samples, -1] = 1.0
    np.negative(signed[:n_samples], out=signed[n_samples:])
    # a stream is the signed ids of one (key, rows array, positive): the
    # candidates of a search share it for one pair. The rows array's identity
    # marks it, as the lanes keep it alive here. Each stream is checked once.
    stream_of, ids, constant = [], {}, {}  # per lane; per stream; per degenerate stream
    for i, lane in enumerate(lanes):
        stream = (lane.key, id(lane.rows), lane.positive)
        stream_of.append(stream)
        if stream not in ids:
            ids[stream] = own = _signed_ids(ds, lane, i)
            # a stream that varies in its first feature needs no full gather
            first = ds.features[lane.rows, 0]
            if np.all(first == first[0]) and np.all(ds.features[lane.rows] == ds.features[lane.rows[0]]):
                constant[stream] = 1.0 if 2 * np.count_nonzero(own < n_samples) >= len(own) else -1.0
    solved = [i for i, stream in enumerate(stream_of) if stream not in constant]
    # longest-running lanes first, so the lanes alive in an epoch are a prefix
    order = sorted(solved, key=lambda i: -lanes[i].epochs)
    lam = np.array([lanes[i].lam for i in order])
    epochs = np.array([lanes[i].epochs for i in order], dtype=np.int64)
    n = np.array([len(ids[stream_of[i]]) for i in order], dtype=np.int64)
    # each stream is one column of `index`, numbered in lane order, and has
    # its own generator, seeded by its key
    columns: dict = {}
    column_of = np.array([columns.setdefault(stream_of[i], len(columns)) for i in order], dtype=np.intp)
    sources = [(ids[stream], default_rng(list(stream[0]))) for stream in columns]
    U = np.zeros((len(order), signed.shape[1]))
    # column c: stream c's signed ids in this epoch's order, padded with id 0;
    # int32 halves the largest buffer of a search
    index = np.zeros((int(n.max(initial=0)), len(sources)), dtype=np.int32)
    for epoch in range(int(epochs.max(initial=0))):
        alive = int(np.count_nonzero(epochs > epoch))
        longest = int(n[:alive].max())
        # columns are numbered in lane order, so the alive ones are a prefix
        live = int(column_of[:alive].max()) + 1
        for column, (own, rng) in enumerate(sources[:live]):
            index[:len(own), column] = own[rng.permutation(len(own))]
        lam_a, n_a = lam[:alive], n[:alive]
        # views of the alive lanes' u for one (1 x m+1)(m+1 x 1) product per lane
        u_row, u_col = U[:alive, None, :], U[:alive, :, None]
        block = max(1, BLOCK_ELEMENTS // (alive * signed.shape[1]))
        for start in range(0, longest, block):
            rows = index[start:min(start + block, longest), column_of[:alive]]
            # step s of this epoch is step t = epoch*n + s + 1 of its lane
            step = np.arange(start, start + len(rows))[:, None]
            thresh = lam_a * (epoch * n_a + step)
            thresh[step >= n_a] = -np.inf  # past the lane's samples: no update
            if epoch == 0 and start == 0:
                thresh[0] = np.inf  # t = 1 always updates
            yx = signed.take(rows, axis=0)
            for x, th in zip(yx[:, :, None, :], thresh[:, :, None, None]):
                violated = np.matmul(x, u_col) < th
                np.add(u_row, x, out=u_row, where=violated)
    fits = np.zeros((len(lanes), signed.shape[1]))
    fits[order] = U / (lam * np.maximum(epochs * n, 1))[:, None]  # w_T = u_T / (lam T)
    for i, stream in enumerate(stream_of):
        if stream in constant:
            fits[i, -1] = constant[stream]
    return fits


def train_ovo_candidates(ds: Dataset, hypers: list[Hyper]) -> list[FloatSvmModel]:
    """One OvO model per hyperparameter set, every (candidate, pair) a lane of
    one fit_lanes call; rows in lexicographic pair order."""
    n = ds.n_classes
    # each class's rows, ascending, from one stable sort of the labels
    order = np.argsort(ds.labels, kind="stable").astype(np.int32)
    members = np.split(order, np.cumsum(np.bincount(ds.labels, minlength=n))[:-1])
    pairs = []
    for a, b in row_pairs("ovo", n):
        if not (len(members[a]) and len(members[b])):
            raise RuntimeError(f"pair ({a},{b}) failed: a class is missing from the training set")
        # int32, like fit_lanes' own row ids: every pair's rows stay alive through the fit
        pairs.append((a, b, np.sort(np.concatenate((members[a], members[b])))))
    lanes = [Lane(rows, a, h.lam, h.epochs, (h.seed, a, b)) for h in hypers for a, b, rows in pairs]
    coefs = np.roll(fit_lanes(ds, lanes), 1, axis=1)  # rows [bias, w_1..w_m]
    return [
        FloatSvmModel("ovo", n, ds.n_features, coefs[k * len(pairs):(k + 1) * len(pairs)]) for k in range(len(hypers))
    ]


def train_ovo(ds: Dataset, hyper: Hyper) -> FloatSvmModel:
    """One binary fit per unordered class pair, assembled in lexicographic order."""
    return train_ovo_candidates(ds, [hyper])[0]


def train_ova(ds: Dataset, hyper: Hyper) -> FloatSvmModel:
    """One binary fit per class against the rest (comparison harness only)."""
    rows = np.arange(ds.n_samples, dtype=np.int32)
    lanes = [Lane(rows, cls, hyper.lam, hyper.epochs, (hyper.seed, cls)) for cls in range(ds.n_classes)]
    return FloatSvmModel("ova", ds.n_classes, ds.n_features, np.roll(fit_lanes(ds, lanes), 1, axis=1))


def accuracy(model, ds: Dataset) -> float:
    """Fraction of samples that ``model.predict`` classifies correctly."""
    pred = np.asarray(model.predict(ds.features))
    if pred.shape != ds.labels.shape:
        raise ValueError("prediction/label shape mismatch")
    return float(np.mean(pred == ds.labels))


def random_search(train: Dataset, budget: int = 8, seed: int = 0) -> Hyper:
    """Draw ``budget`` (lam, epochs) pairs and keep the best holdout accuracy;
    ties break toward smaller lam, then fewer epochs. Deterministic for a
    given seed. A budget of 1 returns its one draw without a holdout split
    or a fit."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = default_rng([seed, 99])
    lams = 10.0 ** rng.uniform(np.log10(LAM_RANGE[0]), np.log10(LAM_RANGE[1]), budget)
    epoch_counts = rng.integers(EPOCH_RANGE[0], EPOCH_RANGE[1] + 1, budget)
    hypers = [Hyper(lam=lam, epochs=int(epochs), seed=seed) for lam, epochs in zip(lams.tolist(), epoch_counts.tolist())]
    if budget == 1:
        return hypers[0]

    sub_train, holdout = split(train, SplitSpec(1.0 - HOLDOUT_FRACTION, seed))
    scored = [
        ((-accuracy(model, holdout), hyper.lam, hyper.epochs), hyper)
        for hyper, model in zip(hypers, train_ovo_candidates(sub_train, hypers))
    ]
    return min(scored, key=lambda pair: pair[0])[1]  # the first of equal keys
