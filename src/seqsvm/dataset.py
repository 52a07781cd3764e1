"""CSV ingestion and deterministic train/test splitting with min-max
normalization derived from the training side only."""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fxp import check_array, check_int, in_range, range_text


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus dense integer labels.

    ``labels`` index into ``label_names``, a list of distinct strings;
    ``feature_names`` is None or a list of one string per feature;
    ``normalization`` is None or, once a split has fixed them, the
    per-feature (min, max) pairs, at which point all feature values lie in [0, 1].
    Frozen, so no field is assigned past the checks of its construction.
    """

    features: np.ndarray
    labels: np.ndarray
    label_names: list[str]
    feature_names: list[str] | None = None
    normalization: list[tuple[float, float]] | None = None

    def __post_init__(self):
        # the checked arrays replace the given ones, past the freeze
        object.__setattr__(self, "features", check_array("features", self.features, float, ("samples", "features")))
        if not self.n_features:
            raise ValueError("features must be a (samples, >=1 feature) matrix")
        names, m = self.label_names, self.n_features
        if type(names) is not list or not {*map(type, names)} <= {str} or len(set(names)) < len(names):
            raise ValueError(f"label_names must be a list of distinct strings, got {names!r:.80}")
        names = self.feature_names
        if names is not None and (type(names) is not list or not {*map(type, names)} <= {str} or len(names) != m):
            raise ValueError(f"feature_names must be None or a list of {m} strings, got {names!r:.80}")
        if self.normalization is not None:
            lo, hi = check_array("normalization", self.normalization, float, (m, 2)).T
            if (lo > hi).any():
                j = np.argmax(lo > hi)
                raise ValueError(f"normalization[{j}] must be (min, max) with min <= max, got ({lo[j]}, {hi[j]})")
        object.__setattr__(self, "labels", check_array("labels", self.labels, int, (self.n_samples,)))
        if self.labels.size and not 0 <= self.labels.min() <= self.labels.max() < len(self.label_names):
            raise ValueError(f"labels must be codes 0..{len(self.label_names) - 1} into label_names")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.label_names)


def _label_sort_key(labels):
    """Numeric order (value, then spelling) when every label parses as a
    number and none is NaN; string order otherwise."""
    try:
        values = {lab: float(lab) for lab in labels}
    except ValueError:
        return str
    if any(math.isnan(v) for v in values.values()):
        return str
    return lambda lab: (values[lab], lab)


def _is_finite_number(cell: str) -> bool:
    """Whether numpy's C reader parses ``cell`` to a finite float: float()'s grammar less '_' and non-ASCII digits."""
    try:
        return math.isfinite(float(cell)) and "_" not in cell and cell.strip().isascii()
    except ValueError:
        return False


def _raise_first_bad_row(path, header: list[str], label_idx: int) -> None:
    """Re-read with the csv module a file the C reader rejected, or read a NaN
    or an infinity from, and raise for its first ragged row or bad feature cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            for i, cell in enumerate(row):
                if i != label_idx and not _is_finite_number(cell):
                    raise ValueError(f"{path}:{lineno}: feature value {cell!r} in column {header[i]!r} "
                                     "is not a finite number")


def load_csv(path, label_column: str, feature_names=None) -> Dataset:
    """Load a headered CSV, re-indexing the label column densely to 0..n-1.

    The features are every other column in file order or, with
    ``feature_names``, those columns in that order. The header is read with
    the csv module, the data rows in one pass of numpy's C reader. Rejects
    a header that repeats a name or names only the label, a name of
    ``feature_names`` that is no feature column or that it repeats, ragged
    rows, feature cells that are not finite numbers, and single-class files.
    Normalization constants are NOT computed here; split() derives them from its training side.
    """
    first_seen: dict[str, int] = {}

    def label_code(cell: str) -> int:
        return first_seen.setdefault(cell.strip(), len(first_seen))

    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        position = {}
        for i, name in enumerate(header):
            if position.setdefault(name, i) != i:
                raise ValueError(f"{path}: column name {name!r} appears more than once")
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_idx = position.pop(label_column)
        if not position:
            raise ValueError(f"{path}: no feature column besides {label_column!r}")
        names = {name: j for j, name in enumerate(position)}  # each feature column's index
        kept = []
        for name in feature_names or ():
            if name not in names:
                raise ValueError(f"{path}: no feature column named {name!r}")
            if names[name] in kept:
                raise ValueError(f"feature_names repeats {name!r}")
            kept.append(names[name])
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # an explicit encoding makes every numpy version pass str to converters
                table = np.loadtxt(
                    fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                    encoding=fh.encoding, converters={label_idx: label_code},
                )
            if len(table) and table.shape[1] != len(header):
                raise ValueError(f"rows have {table.shape[1]} fields, the header {len(header)}")
            if len(table) and not np.isfinite([table.min(), table.max()]).all():
                raise ValueError("a feature value is not finite")
        except ValueError as exc:
            _raise_first_bad_row(path, header, label_idx)
            raise ValueError(f"{path}: {exc}") from exc

    if not len(table):
        raise ValueError(f"{path}: no data rows")
    if len(first_seen) < 2:
        raise ValueError(f"{path}: need at least two classes, found {len(first_seen)}")
    label_names = sorted(first_seen, key=_label_sort_key(first_seen))
    index = {name: i for i, name in enumerate(label_names)}
    remap = np.array([index[name] for name in first_seen], dtype=np.int64)
    labels = remap[table[:, label_idx].astype(np.int64)]
    # shift the columns after the label one place left, a column at a time,
    # so the features are the table's first columns without a second copy
    for j in range(label_idx, table.shape[1] - 1):
        table[:, j] = table[:, j + 1]
    ds = Dataset(table[:, :-1], labels, label_names, list(names))
    return ds if feature_names is None else keep_columns(ds, kept)


def keep_columns(ds: Dataset, columns) -> Dataset:
    """``ds`` with only its feature columns ``columns`` (indices), in that
    order, with their names and normalization; ``ds`` itself when that is
    every column in order."""
    columns = check_array("columns", columns, int, ("columns",)).tolist()
    if columns == list(range(ds.n_features)):
        return ds
    bad = next((j for j in columns if not in_range(j, 0, ds.n_features - 1)), None)
    if bad is not None:
        raise ValueError(f"column {bad} is not a feature index 0..{ds.n_features - 1}")
    names, norm = ds.feature_names, ds.normalization
    return Dataset(ds.features[:, columns], ds.labels, ds.label_names, names and [names[j] for j in columns],
                   norm and [norm[j] for j in columns])


def _class_count(labels: np.ndarray) -> int:
    """How many classes have samples, counted from the dense label codes."""
    return int(np.count_nonzero(np.bincount(labels)))


def _stratified_indices(labels: np.ndarray, fraction: float, seed: int):
    # Per-class shuffle; every class keeps at least one training sample.
    rng = np.random.default_rng([seed, 1])
    train, test = [], []
    for cls in np.flatnonzero(np.bincount(labels)):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        k = max(1, int(round(len(idx) * fraction)))
        k = min(k, len(idx))
        train.extend(idx[:k])
        test.extend(idx[k:])
    return np.sort(np.array(train, dtype=np.int64)), np.sort(np.array(test, dtype=np.int64))


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded disjoint partition; (min, max) per feature come from train only.

    Falls back to a stratified partition when the plain shuffle would leave a
    class without training samples. Test features are clamped to [0, 1] after
    applying the training normalization.
    """
    if not in_range(train_fraction, 0, 1, float):
        raise ValueError(f"train_fraction must be a number {range_text(0, 1, float)}, got {train_fraction!r}")
    check_int("seed", seed, 0)
    n = ds.n_samples
    # rng.permutation(n) drawn into int32, which halves the one index per sample
    order = np.arange(n, dtype=np.int32)
    np.random.default_rng(seed).shuffle(order)
    n_train = int(round(n * train_fraction))
    n_train = min(max(n_train, 1), n - 1)
    train_idx, test_idx = order[:n_train], order[n_train:]
    train_idx.sort()
    test_idx.sort()

    present = _class_count(ds.labels)
    y_train = ds.labels[train_idx]
    if _class_count(y_train) < present:
        train_idx, test_idx = _stratified_indices(ds.labels, train_fraction, seed)
        if len(test_idx) == 0:
            raise ValueError(
                "split leaves no test samples even after stratification; "
                "increase the dataset size or lower train_fraction"
            )
        y_train = ds.labels[train_idx]

    # the row gathers are new arrays, so they are normalized in place
    x_train = ds.features[train_idx]
    x_test = ds.features[test_idx]
    mins = x_train.min(axis=0)
    maxs = x_train.max(axis=0)
    span = maxs - mins
    span[span == 0.0] = 1.0  # constant feature maps to 0

    norm = list(zip(mins.tolist(), maxs.tolist()))
    for x in (x_train, x_test):
        x -= mins
        x /= span
    np.clip(x_test, 0.0, 1.0, out=x_test)

    train = Dataset(x_train, y_train, ds.label_names, ds.feature_names, norm)
    test = Dataset(x_test, ds.labels[test_idx], ds.label_names, ds.feature_names, norm)
    return train, test


#: Rows formatted per write. Small on purpose: a process that writes the CSV
#: and then spawns commands passes its RSS high-water mark on to them.
_ROWS = 64


def _label_cell(name: str) -> str:
    """The end of a row whose last field is ``name``: its comma, the name
    quoted as the csv module quotes it, and the line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", name])
    return buf.getvalue()


def to_csv(ds: Dataset, path) -> None:
    """Write the dataset back out as a headered CSV with a final label column.

    Features are written as ``repr`` of each float (the shortest string that
    round-trips), lines end in CRLF, and names are quoted by the csv module.
    """
    names = ds.feature_names or [f"f{i}" for i in range(ds.n_features)]
    cells = [_label_cell(name) for name in ds.label_names]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(names) + ["label"])
        for start in range(0, ds.n_samples, _ROWS):
            rows = ds.features[start:start + _ROWS].tolist()
            labels = ds.labels[start:start + _ROWS].tolist()
            fh.writelines(",".join(map(repr, row)) + cells[lab] for row, lab in zip(rows, labels))
