"""Linear SVM training: one-vs-one and one-vs-all reductions over a
deterministic hinge-loss subgradient solver, plus randomized hyperparameter
search and the choice of the inputs (``select_inputs``), both on a holdout
that the caller carves (the train stage, ``cli._train_phase``, carves
HOLDOUT_FRACTION of its training side).

The solver is Pegasos (Shalev-Shwartz et al., ICML 2007) without the
projection step, on x augmented with a constant 1 so the bias shares the
regularizer. It starts at w = 0 and takes step 1/(lam*t), so after t steps
w_t = u_t / (lam*t), where u_t sums y*x over the steps whose sample violated
the margin. Only u is kept: step t tests y*(u.x) < lam*(t-1) (step 1 always
counts as a violation) and adds y*x to u when it holds.

``fit_lanes`` fits a grid: every setting, a ``Hyper``, on every stream, a
stream being one binary problem, such as a class pair or one class against
the rest. Each (setting, stream) is a lane, and all lanes advance together,
one numpy step over a (settings, streams, m+1) array of u per sample
position. The solver keeps one table of signed samples, y*[x, 1] for both
signs of every row, so a stream's ids already carry its label sign, and a
block of steps is one gather from the table, shared by the settings. Each
stream draws one permutation of its ids per epoch from its own
``default_rng(key)``; settings past their epochs, and streams past their
rows, are masked out.

Arguments are checked by ``fxp``'s checks: ``check_int`` for the epochs,
the budget, every seed and key element and the feature count, ``in_range``
for a stream's positive class, ``finite_number`` for lam, and
``check_array`` for a stream's rows and a model's table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .dataset import Dataset
from .ddag import check_ovo, ddag_predict_float, float_features, row_pairs, score_table
from .fxp import BLOCK_ELEMENTS, check_array, check_int, finite_number, in_range, within_drop


@dataclass(frozen=True)
class Hyper:
    lam: float = 0.01
    epochs: int = 20

    def __post_init__(self):
        # the solver divides by lam, so lam <= 0 gives non-finite weights
        if not (finite_number(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam!r}")
        check_int("epochs", self.epochs, 0)


#: random_search draws lam log-uniformly and epochs uniformly from these
#: ranges (ends included); the train stage holds out this share of its rows.
LAM_RANGE = (1e-4, 10.0)
EPOCH_RANGE = (5, 50)
HOLDOUT_FRACTION = 0.25


def read_only_table(values, n_rows: int, n_features: int, kind: type) -> np.ndarray:
    """``values`` as a new read-only (n_rows, n_features + 1) array, as
    ``fxp.check_array`` takes it: a model's table, one row [bias, w_1..w_m]
    per stored vector, float64 ``coefs`` or int64 ``words`` by ``kind``."""
    check_int("n_features", n_features, 1)
    table = check_array("coefs" if kind is float else "words", values, kind, (n_rows, n_features + 1)).copy()
    table.flags.writeable = False
    return table


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
        self.coefs = read_only_table(self.coefs, rows, self.n_features, float)

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


def _signed_ids(ds: Dataset, rows, positive, i: int) -> np.ndarray:
    """Stream ``i``'s rows as ids into fit_lanes' signed table: row r where
    its label is ``positive``, n + r where it is not. Rejects rows or a
    positive class that do not fit ``ds``."""
    rows = check_array(f"stream {i}: rows", rows, int, ("n",))
    if not len(rows):
        raise ValueError(f"stream {i}: no rows")
    if rows.min() < 0 or rows.max() >= ds.n_samples:
        raise ValueError(f"stream {i}: rows must lie in 0..{ds.n_samples - 1}, got {rows.min()}..{rows.max()}")
    if not in_range(positive, 0, ds.n_classes - 1):
        raise ValueError(f"stream {i}: positive {positive!r} is not a class code 0..{ds.n_classes - 1}")
    return (rows + ds.n_samples * (ds.labels[rows] != positive)).astype(np.int32)


def fit_lanes(ds: Dataset, streams: list, settings: list) -> np.ndarray:
    """Fit the hinge-loss separator of every (setting, stream) in lockstep.
    A stream is (rows, positive, key): dataset rows, of which label
    ``positive`` trains as +1 and the others as -1, and the tuple of ints
    that seeds its permutations. A setting is a ``Hyper``. Entry [h, s] of
    the (settings, streams, m+1) result is [w_1..w_m, bias] of setting h on
    stream s, bit for bit as if it were fitted alone.

    A degenerate stream, whose rows all carry identical features, gives
    every setting zero weights and a bias whose sign picks the majority
    label. Raises TypeError, naming the setting, for a setting that is not a
    Hyper, and ValueError, naming the stream, for empty, non-integer or
    out-of-range rows, a positive that is not a class code of ``ds`` and a
    key that is not a non-empty tuple of ints (no bool) >= 0.
    """
    for h, setting in enumerate(settings):
        if not isinstance(setting, Hyper):
            raise TypeError(f"setting {h}: {setting!r} is not a Hyper")
    n_samples, width = ds.n_samples, ds.n_features + 1
    # row r is y*[x_r, 1] with y = +1, row n + r the same with y = -1:
    # negation is exact, so a sample's signed row is one gather
    signed = np.ones((2 * n_samples, width))
    signed[:n_samples, :-1] = ds.features
    np.negative(signed[:n_samples], out=signed[n_samples:])
    solved, sources, constant = [], [], {}  # solved stream numbers, their (ids, generator); degenerate biases
    for s, (rows, positive, key) in enumerate(streams):
        own = _signed_ids(ds, rows, positive, s)
        if not (type(key) is tuple and key):
            raise ValueError(f"stream {s}: key {key!r} is not a non-empty tuple")
        for k in key:
            check_int(f"stream {s}: key {key!r}'s element", k, 0)
        # a stream that varies in its first feature needs no full gather
        first = ds.features[rows, 0]
        if np.all(first == first[0]) and np.all(ds.features[rows] == ds.features[rows[0]]):
            constant[s] = 1.0 if 2 * np.count_nonzero(own < n_samples) >= len(own) else -1.0
        else:
            solved.append(s)
            sources.append((own, default_rng(list(key))))
    # longest-running settings first, so the settings alive in an epoch are a prefix
    order = sorted(range(len(settings)), key=lambda h: -settings[h].epochs)
    lam = np.array([settings[h].lam for h in order], dtype=np.float64)
    epochs = np.array([settings[h].epochs for h in order], dtype=np.int64)
    n = np.array([len(own) for own, _ in sources], dtype=np.int64)
    U = np.zeros((len(order), len(sources), width))
    # column s: solved stream s's signed ids in this epoch's order, padded with id 0
    index = np.zeros((int(n.max(initial=0)), len(sources)), dtype=np.int32)
    block = max(1, BLOCK_ELEMENTS // (max(1, len(sources)) * width))
    for epoch in range(int(epochs.max(initial=0))):
        alive = int(np.count_nonzero(epochs > epoch))
        for column, (own, rng) in enumerate(sources):
            index[:len(own), column] = own[rng.permutation(len(own))]
        # views of the alive settings' u for one (1 x m+1)(m+1 x 1) product per lane
        u_row, u_col = U[:alive, :, None, :], U[:alive, :, :, None]
        for start in range(0, len(index), block):
            ids = index[start:start + block]
            # step s of this epoch is step t = epoch*n + s + 1 of its stream, and
            # none past its ids; thresholds are (steps, settings, streams), contiguous in step order
            step = np.arange(start, start + len(ids))[:, None]
            thresh = np.where((step >= n)[:, None], -np.inf, (epoch * n + step)[:, None] * lam[:alive, None])
            if epoch == 0 and start == 0:
                thresh[0] = np.inf  # t = 1 always updates
            yx = signed.take(ids, axis=0)  # each stream's rows, broadcast over the settings
            for x, th in zip(yx[:, None, :, None, :], thresh[..., None, None]):
                violated = np.matmul(x, u_col) < th
                np.add(u_row, x, out=u_row, where=violated)
    fits = np.zeros((len(settings), len(streams), width))
    # w_T = u_T / (lam T)
    fits[np.ix_(order, solved)] = U / (lam[:, None] * np.maximum(epochs[:, None] * n, 1))[..., None]
    fits[:, list(constant), -1] = list(constant.values())
    return fits


def train_ovo_candidates(ds: Dataset, hypers: list[Hyper], seed: int) -> list[FloatSvmModel]:
    """One OvO model per hyperparameter set, from one fit_lanes call over a
    stream per class pair; rows in lexicographic pair order. ``seed`` keys
    every pair's stream."""
    n = ds.n_classes
    # each class's rows, ascending, from one stable sort of the labels
    order = np.argsort(ds.labels, kind="stable").astype(np.int32)
    members = np.split(order, np.cumsum(np.bincount(ds.labels, minlength=n))[:-1])
    streams = []
    for a, b in row_pairs("ovo", n):
        if not (len(members[a]) and len(members[b])):
            raise RuntimeError(f"pair ({a},{b}) failed: a class is missing from the training set")
        streams.append((np.sort(np.concatenate((members[a], members[b]))), a, (seed, a, b)))
    coefs = np.roll(fit_lanes(ds, streams, hypers), 1, axis=-1)  # rows [bias, w_1..w_m]
    return [FloatSvmModel("ovo", n, ds.n_features, table) for table in coefs]


def train_ovo(ds: Dataset, hyper: Hyper, seed: int) -> FloatSvmModel:
    """One binary fit per unordered class pair, assembled in lexicographic order."""
    return train_ovo_candidates(ds, [hyper], seed)[0]


def train_ova(ds: Dataset, hyper: Hyper, seed: int) -> FloatSvmModel:
    """One binary fit per class against the rest (comparison harness only)."""
    rows = np.arange(ds.n_samples, dtype=np.int32)
    streams = [(rows, cls, (seed, cls)) for cls in range(ds.n_classes)]
    coefs = np.roll(fit_lanes(ds, streams, [hyper])[0], 1, axis=-1)
    return FloatSvmModel("ova", ds.n_classes, ds.n_features, coefs)


def accuracy(model, ds: Dataset) -> float:
    """Fraction of samples that ``model.predict`` classifies correctly."""
    pred = check_array("predictions", model.predict(ds.features), int, (ds.n_samples,))
    return float(np.mean(pred == ds.labels))


def select_inputs(fmodel: FloatSvmModel, train: Dataset, holdout: Dataset) -> list[int]:
    """The feature columns, ascending, that ``fmodel`` keeps: the fewest on
    a halving path whose float-DDAG accuracy on ``holdout`` is within
    MAX_ACCURACY_DROP of the best on the path.

    The path ranks the columns by sum_r w_rj**2 over the model's rows, in a
    stable sort, so a tie goes to the lower column, and keeps the top m,
    m//2, ..., 1 of them, as recursive feature elimination (Guyon et al.,
    Machine Learning 2002) would with no refit. A subset is scored by the
    same model on the holdout with each dropped column held at its ``train``
    mean, so no model is edited or fitted again. The walks sum in
    ``score_table``'s order, and the ranking and the means are axis-0
    reductions, so the choice does not depend on the BLAS kernel.
    """
    check_ovo(fmodel)
    m = fmodel.n_features
    X = float_features(fmodel, holdout.features).copy()
    means = float_features(fmodel, train.features).mean(axis=0)
    ranking = np.argsort(-np.square(fmodel.coefs[:, 1:]).sum(axis=0), kind="stable")
    path = []  # (holdout accuracy, kept columns), widest first
    k = m
    while k:
        dropped = np.ones(m, dtype=bool)
        dropped[ranking[:k]] = False
        X[:, dropped] = means[dropped]
        path.append((float(np.mean(ddag_predict_float(fmodel, X) == holdout.labels)), np.flatnonzero(~dropped)))
        k //= 2
    best = max(acc for acc, _ in path)
    return next(kept for acc, kept in reversed(path) if within_drop(best, acc)).tolist()


def random_search(fit: Dataset, holdout: Dataset, budget: int = 8, seed: int = 0) -> tuple[Hyper, list[int]]:
    """Draw ``budget`` (lam, epochs) pairs, fit each on ``fit`` and keep the
    best accuracy on ``holdout``; ties break toward smaller lam, then fewer
    epochs. Returns that draw and the feature columns that ``select_inputs``
    keeps for its candidate model on the same pair. Deterministic for a
    given seed. A budget of 1 returns its one draw and every column, before
    it reads a row."""
    check_int("budget", budget, 1)
    check_int("seed", seed, 0)  # a budget of 1 fits nothing that would check it
    rng = default_rng([seed, 99])
    lams = 10.0 ** rng.uniform(np.log10(LAM_RANGE[0]), np.log10(LAM_RANGE[1]), budget)
    epoch_counts = rng.integers(EPOCH_RANGE[0], EPOCH_RANGE[1] + 1, budget)
    hypers = [Hyper(lam=lam, epochs=int(epochs)) for lam, epochs in zip(lams.tolist(), epoch_counts.tolist())]
    if budget == 1:
        return hypers[0], list(range(fit.n_features))

    models = train_ovo_candidates(fit, hypers, seed)
    scores = [(-accuracy(model, holdout), hyper.lam, hyper.epochs) for hyper, model in zip(hypers, models)]
    best = min(range(budget), key=scores.__getitem__)  # the first of equal keys
    return hypers[best], select_inputs(models[best], fit, holdout)
