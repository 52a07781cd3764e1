import csv
import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsvm.dataset import _ROWS, Dataset, _label_sort_key, load_csv, split, to_csv
from seqsvm.synth import bundled_dataset, ring_sectors


def _write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")
    return path


def test_load_smallest_legal(tmp_path):
    path = _write_csv(
        tmp_path / "t.csv",
        ["f0", "f1", "label"],
        [[0.1, 0.2, "a"], [0.3, 0.4, "b"], [0.5, 0.6, "a"], [0.7, 0.8, "b"]],
    )
    ds = load_csv(path, "label")
    assert (ds.n_samples, ds.n_features, ds.n_classes) == (4, 2, 2)
    assert ds.label_names == ["a", "b"]
    assert ds.normalization is None


def test_load_pendigits_shape(tmp_path):
    ds0 = ring_sectors(10, 17, per_class=5, seed=1)
    path = tmp_path / "p.csv"
    to_csv(ds0, path)
    ds = load_csv(path, "label")
    assert (ds.n_classes, ds.n_features) == (10, 17)


@pytest.mark.parametrize("label_idx", [0, 3, 8])
def test_label_column_anywhere_leaves_the_features_bit_identical(tmp_path, label_idx):
    # 4,000 rows of 8 features: large enough that a second copy of the
    # (rows, 9) table would show in the traced peak
    rng = np.random.default_rng(label_idx)
    X = rng.normal(size=(4000, 8))
    labels = rng.integers(0, 3, len(X))
    names = [f"f{j}" for j in range(8)]
    rows = [[repr(v) for v in x] for x in X.tolist()]  # repr round-trips a float exactly
    for row, lab in zip(rows, labels.tolist()):
        row.insert(label_idx, f"c{lab}")
    path = _write_csv(tmp_path / "t.csv", names[:label_idx] + ["label"] + names[label_idx:], rows)
    tracemalloc.start()
    try:
        ds = load_csv(path, "label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.tobytes() == X.tobytes()
    assert ds.feature_names == names
    assert ds.labels.tolist() == labels.tolist()
    table_bytes = len(X) * 9 * 8
    assert peak < 1.7 * table_bytes  # the parsed table and loadtxt's slack, no second table


def test_load_single_class_rejected(tmp_path):
    path = _write_csv(tmp_path / "t.csv", ["f0", "label"], [[0.1, "a"], [0.2, "a"]])
    with pytest.raises(ValueError, match="two classes"):
        load_csv(path, "label")


def test_load_ragged_row_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("f0,f1,label\n0.1,0.2,a\n0.3,b\n")
    with pytest.raises(ValueError, match="expected 3 fields"):
        load_csv(path, "label")


def test_load_non_numeric_feature_rejected(tmp_path):
    path = _write_csv(tmp_path / "t.csv", ["f0", "label"], [["x", "a"], [0.2, "b"]])
    with pytest.raises(ValueError, match="is not a finite number"):
        load_csv(path, "label")


def test_load_missing_label_column(tmp_path):
    path = _write_csv(tmp_path / "t.csv", ["f0", "f1"], [[0.1, 0.2]])
    with pytest.raises(ValueError, match="no column named"):
        load_csv(path, "label")


def test_numeric_labels_sort_numerically(tmp_path):
    rows = [[0.1, "10"], [0.2, "2"], [0.3, "1"]]
    ds = load_csv(_write_csv(tmp_path / "t.csv", ["f0", "label"], rows), "label")
    assert ds.label_names == ["1", "2", "10"]


def _per_cell_load_csv(path, label_column):
    """The reference loader: the csv module and one float() per feature cell,
    with load_csv's label order."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        rows: list[list[float]] = []
        raw_labels: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            raw_labels.append(row[label_idx].strip())
            feats = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                try:
                    feats.append(float(cell))
                except ValueError:
                    feats.append(math.nan)
                if not math.isfinite(feats[-1]):
                    raise ValueError(
                        f"{path}:{lineno}: feature value {cell!r} in column {header[i]!r} is not a finite number"
                    )
            rows.append(feats)

    if not rows:
        raise ValueError(f"{path}: no data rows")
    uniq = set(raw_labels)
    if len(uniq) < 2:
        raise ValueError(f"{path}: need at least two classes, found {len(uniq)}")
    label_names = sorted(uniq, key=_label_sort_key(uniq))
    index = {name: i for i, name in enumerate(label_names)}
    labels = np.array([index[lab] for lab in raw_labels], dtype=np.int64)
    return Dataset(np.array(rows), labels, label_names, feature_names)


def _pad(cell: st.SearchStrategy) -> st.SearchStrategy:
    """A cell as written, space-padded, quoted, or quoted and padded inside."""
    return st.tuples(cell, st.sampled_from(["{}", " {}", "{} ", '"{}"', '" {} "', '"{}" '])).map(
        lambda t: t[1].format(t[0])
    )


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)
_NUMBER = st.one_of(
    _FINITE.map(repr),
    _FINITE.map("{:+.3e}".format),
    _FINITE.map("{:E}".format),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from([".5", "5.", "-0", "+0.0", "1e3", "1E-3", "007"]),
)
_ODD_NUMBER = st.sampled_from(["nan", "NaN", "-inf", "+INF", "Infinity", "1e999", "", "x", "1..2", "--1", "0x10"])
_LABEL_SETS = [["1", "2", "10", "1.0", "-3", "0.5"], ["1", "2", "nan"], ["a", "b", "B", "a b", "a,b", 'q"t']]


@st.composite
def csv_texts(draw):
    """A small headered CSV as text: the label column first, in the middle or
    last; numeric or string labels; padded and quoted cells; LF or CRLF;
    blank lines; sometimes a non-finite or non-numeric cell, or a row with a
    field too many or too few."""
    m = draw(st.integers(1, 4))
    label_idx = draw(st.integers(0, m))
    header = [f"f{i}" for i in range(m)]
    header.insert(label_idx, draw(st.sampled_from(["label", " label", '"label"'])))
    labels = _pad(st.sampled_from(draw(st.sampled_from(_LABEL_SETS))).map(lambda s: s.replace('"', '""')))
    faulty = draw(st.booleans())
    number = st.one_of(_NUMBER, _NUMBER, _NUMBER, _ODD_NUMBER) if faulty else _NUMBER
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 8))):
        row = draw(st.lists(_pad(number), min_size=m, max_size=m))
        row.insert(label_idx, draw(labels))
        shape = draw(st.sampled_from(["ok"] * 12 + ["extra", "missing"])) if faulty else "ok"
        if shape == "extra":
            row.append(draw(_pad(number)))
        elif shape == "missing":
            row.pop()
        lines.extend([""] * draw(st.sampled_from([0, 0, 0, 1, 2])))
        lines.append(",".join(row))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def _outcome(loader, path):
    try:
        ds = loader(path, "label")
    except ValueError as exc:
        return "error", str(exc)
    return ds.features.shape, ds.features.tobytes(), ds.labels.tolist(), ds.label_names, ds.feature_names


@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_load_csv_equals_per_cell_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(text.encode())
    assert _outcome(load_csv, path) == _outcome(_per_cell_load_csv, path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("0.1,0.2,a\n0.3,0.4,b,9\n0.5,0.6,a\n", "t.csv:3: expected 3 fields, got 4"),
        ("0.1,0.2,a\n\n0.3,b\n0.5,0.6,a\n", "t.csv:4: expected 3 fields, got 2"),
        ("0.1,0.2,a,9\n0.3,0.4,b,9\n", "t.csv:2: expected 3 fields, got 4"),
        ("0.1,a\n0.3,b\n", "t.csv:2: expected 3 fields, got 2"),
        ("0.1,0.2,a\n0.3,x,b\n", "t.csv:3: feature value 'x' in column 'f1' is not a finite number"),
        ('0.1,0.2,a\r\n"0.3, 1",0.4,b\r\n', "t.csv:3: feature value '0.3, 1' in column 'f0' is not a finite number"),
        ("0.1,0.2,a\n0.3,nan,b\n", "t.csv:3: feature value 'nan' in column 'f1' is not a finite number"),
        ("0.1,0.2,a\n\ninf,0.4,b\n", "t.csv:4: feature value 'inf' in column 'f0' is not a finite number"),
        ("0.1,0.2,a\n0.3,0.4,b\n0.5, -inf ,a\n", "t.csv:4: feature value ' -inf ' in column 'f1' is not a finite number"),
        ("", "t.csv: no data rows"),
        ("\n\r\n", "t.csv: no data rows"),
    ],
    ids=["extra", "missing", "all-extra", "all-missing", "non-numeric", "quoted-crlf", "nan", "inf", "-inf", "no-rows",
         "blank-rows"],
)
@pytest.mark.filterwarnings("error")
def test_bad_rows_are_named_by_line(tmp_path, body, message):
    path = tmp_path / "t.csv"
    path.write_text("f0,f1,label\n" + body)
    with pytest.raises(ValueError, match=f"/{re.escape(message)}$"):
        load_csv(path, "label")


@pytest.mark.parametrize("cell", ["1_0", "١", " ٢.5 "])
def test_cells_float_reads_but_the_c_reader_does_not_are_non_numeric(tmp_path, cell):
    # float() accepts '_' separators and non-ASCII digits; load_csv does not
    assert float(cell) > 0
    path = tmp_path / "t.csv"
    path.write_text(f"f0,label\n0.5,a\n{cell},b\n", encoding="utf-8")
    message = f"t.csv:3: feature value {cell!r} in column 'f0' is not a finite number"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_csv(path, "label")


def test_label_order_does_not_depend_on_the_hash_seed():
    code = (
        "from seqsvm.dataset import _label_sort_key\n"
        "for labels in ({'1', '1.0', '2'}, {'nan', '1', '2', '3'}, {'10', '2', '1'}, {'b', 'a', 'C'}):\n"
        "    print(sorted(labels, key=_label_sort_key(labels)))\n"
    )
    root = Path(__file__).resolve().parents[1]
    outputs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        outputs.add(proc.stdout)
    assert outputs == {
        "['1', '1.0', '2']\n['1', '2', '3', 'nan']\n['1', '2', '10']\n['C', 'a', 'b']\n"
    }


def test_label_order_does_not_depend_on_row_order(tmp_path):
    for order in itertools.permutations(["1.0", "2", "1", "nan"]):
        path = _write_csv(tmp_path / "t.csv", ["f0", "label"], [[0.5, lab] for lab in order])
        assert load_csv(path, "label").label_names == ["1", "1.0", "2", "nan"]


def test_split_sizes():
    ds = bundled_dataset("blobs3x21", seed=0)
    assert ds.n_samples == 180
    train, test = split(ds, 0.8, 0)
    assert (train.n_samples, test.n_samples) == (144, 36)


def test_split_deterministic():
    ds = bundled_dataset("noisy6x11", seed=1)
    a_train, a_test = split(ds, 0.8, 5)
    b_train, b_test = split(ds, 0.8, 5)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.labels, b_test.labels)


def test_split_stratified_fallback_exhaustive():
    # 5 classes x 2 samples at 0.5: a plain shuffle regularly empties a class.
    X = np.arange(20, dtype=float).reshape(10, 2)
    labels = np.repeat(np.arange(5), 2)
    ds = Dataset(X, labels, [str(c) for c in range(5)])
    for seed in range(100):
        train, test = split(ds, 0.5, seed)
        assert set(train.labels.tolist()) == set(range(5)), f"seed {seed}"
        assert train.n_samples + test.n_samples == 10


def test_split_rejects_a_fraction_outside_0_1():
    ds = bundled_dataset("blobs3x21", seed=0)
    # a string or a bool is no number: "0.8" raised a bare TypeError, True split as 1.0
    for fraction in (0.0, 1.0, 1.5, -0.2, float("nan"), "0.8", True):
        message = f"train_fraction must be a number strictly between 0 and 1, got {fraction!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            split(ds, fraction, 0)


def test_split_rejects_a_seed_that_is_not_an_int_of_at_least_0():
    # True split as seed 1, -1 and 1.5 raised numpy's own messages
    ds = bundled_dataset("blobs3x21", seed=0)
    for seed in (True, -1, 1.5, np.int64(1)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'seed must be an integer >= 0, got {seed!r}')}$"):
            split(ds, 0.8, seed)


def test_split_of_single_sample_classes_leaves_no_test_samples():
    # stratification keeps every class's one sample for training, at any fraction
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), ["a", "b"])
    for fraction, seed in itertools.product((0.01, 0.5, 0.99), range(3)):
        with pytest.raises(ValueError, match="^split leaves no test samples even after stratification"):
            split(ds, fraction, seed)


def test_split_normalization_from_train_only():
    rng = np.random.default_rng(11)
    X = rng.uniform(2.0, 4.0, (50, 3))
    X[0] = [10.0, -5.0, 3.0]  # extremes that may land in test
    labels = np.arange(50) % 2
    ds = Dataset(X, labels, ["a", "b"])
    train, test = split(ds, 0.8, 2)
    for j, (lo, hi) in enumerate(train.normalization):
        assert lo in X[:, j] and hi in X[:, j]
        assert lo < hi
    assert train.features.min() >= 0.0 and train.features.max() <= 1.0
    assert test.features.min() >= 0.0 and test.features.max() <= 1.0
    # train attains both ends of its own range
    assert np.isclose(train.features.min(axis=0), 0.0).all()
    assert np.isclose(train.features.max(axis=0), 1.0).all()
    assert train.normalization == test.normalization


def test_constant_feature_maps_to_zero():
    X = np.column_stack([np.full(10, 3.0), np.arange(10, dtype=float)])
    ds = Dataset(X, np.arange(10) % 2, ["a", "b"])
    train, test = split(ds, 0.8, 0)
    assert np.all(train.features[:, 0] == 0.0)
    assert np.all(test.features[:, 0] == 0.0)


def test_csv_roundtrip(tmp_path):
    ds = bundled_dataset("noisy7x11", seed=2)
    path = tmp_path / "d.csv"
    to_csv(ds, path)
    back = load_csv(path, "label")
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def _frozen_to_csv(ds: Dataset, path) -> None:
    """to_csv as it was before it wrote row blocks, kept verbatim as an
    oracle: one csv.writer row per sample, repr(float(v)) per cell."""
    names = ds.feature_names or [f"f{i}" for i in range(ds.n_features)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["label"])
        for row, lab in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [ds.label_names[lab]])


# signed zeros, subnormals, where repr turns to exponents (1e-05, 1e+16) and
# integral floats
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e-5, 9.999e-5, 1e-4,
    9999999999999998.0, 1e16, -1.2345e17, 1e22, 1.7976931348623157e308,
    1.0, -3.0, 2.0**53, 123456789.0, 0.1, 1 / 3,
]
_ODD_NAMES = ["", " lead", "trail ", "a,b", 'say "hi"', '"', "cr\rhere", "lf\nhere", "\r\n", "ünï", "日本", "x"]
_NAME = st.sampled_from(_ODD_NAMES) | st.text(max_size=5)


@st.composite
def csv_datasets(draw):
    """A dataset of 0, 1, or about one block of rows, 1 to 3 features of edge
    or random floats, default or odd feature names and odd class names."""
    n_rows = draw(st.sampled_from([0, 1, 2, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1]))
    m = draw(st.integers(1, 3))
    value = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    features = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=n_rows, max_size=n_rows))
    label_names = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(st.integers(0, len(label_names) - 1), min_size=n_rows, max_size=n_rows))
    feature_names = draw(st.none() | st.lists(_NAME, min_size=m, max_size=m))
    return Dataset(np.array(features, dtype=np.float64).reshape(n_rows, m), labels, label_names, feature_names)


@settings(max_examples=200, deadline=None)
@given(csv_datasets())
def test_to_csv_writes_the_frozen_writers_bytes(tmp_path_factory, ds):
    folder = tmp_path_factory.mktemp("to_csv")
    to_csv(ds, folder / "new.csv")
    _frozen_to_csv(ds, folder / "frozen.csv")
    assert (folder / "new.csv").read_bytes() == (folder / "frozen.csv").read_bytes()


def test_to_csv_memory_does_not_grow_with_the_row_count(tmp_path):
    # the writer holds one block of rows as Python floats at a time; a process
    # that writes the CSV and then spawns commands passes its RSS high-water
    # mark on to them
    m = 16
    peaks = []
    for n_rows in (2_000, 20_000):
        rng = np.random.default_rng(n_rows)
        ds = Dataset(rng.normal(size=(n_rows, m)), rng.integers(0, 10, n_rows), [f"c{i}" for i in range(10)])
        tracemalloc.start()
        try:
            to_csv(ds, tmp_path / f"{n_rows}.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block_bytes = _ROWS * m * 32  # a float object (24 B) and its list slot (8 B) per value
    assert abs(peaks[1] - peaks[0]) < block_bytes


@pytest.mark.parametrize("labels", [[0, 2], [-1, 0]])
def test_labels_must_index_label_names(labels):
    # split and the trainer count classes from the codes, so a code outside
    # label_names is rejected when the dataset is built
    with pytest.raises(ValueError, match=r"labels must be codes 0\.\.1 into label_names"):
        Dataset(np.zeros((2, 1)), labels, ["a", "b"])


@pytest.mark.parametrize("label_names, feature_names, normalization, message", [
    (("a", "b"), None, None, "label_names must be a list of distinct strings, got ('a', 'b')"),
    (["a", "a"], None, None, "label_names must be a list of distinct strings, got ['a', 'a']"),
    (["a", 1], None, None, "label_names must be a list of distinct strings, got ['a', 1]"),
    (["a", "b"], ["x"], None, "feature_names must be None or a list of 2 strings, got ['x']"),
    (["a", "b"], ["x", None], None, "feature_names must be None or a list of 2 strings, got ['x', None]"),
    (["a", "b"], "xy", None, "feature_names must be None or a list of 2 strings, got 'xy'"),
    (["a", "b"], None, [(0.0, 1.0)], "normalization must have shape (2, 2), got (1, 2)"),
    (["a", "b"], None, [(0.0, 1.0), (2.0, -1.0)],
     "normalization[1] must be (min, max) with min <= max, got (2.0, -1.0)"),
])
def test_names_and_normalization_must_fit_the_features(label_names, feature_names, normalization, message):
    # the model loader builds its dataset from these, so a hand-edited
    # document that does not fit the features or the classes is refused
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(np.zeros((2, 2)), [0, 1], label_names, feature_names, normalization)
    Dataset(np.zeros((2, 2)), [0, 1], ["a", "b"], ["x", "x"], [(0.5, 0.5), (0.0, 1.0)])  # repeats and a constant pass


@pytest.mark.parametrize("field, value", [
    ("normalization", [(0.0, 1.0)]),
    ("normalization", None),
    ("label_names", 5),
    ("feature_names", ["x"]),
    ("features", np.zeros((1, 2))),
    ("labels", [7, 7]),
])
def test_no_field_is_assigned_past_the_checks(field, value):
    # each field is checked once, at construction, so none may change after it
    ds = Dataset(np.zeros((2, 2)), [0, 1], ["a", "b"], ["x", "y"], [(0.0, 1.0)] * 2)
    before = getattr(ds, field)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
        setattr(ds, field, value)
    assert getattr(ds, field) is before


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match=r"^features\[0, 0\] must be a finite number, got nan$"):
        Dataset(np.array([[np.nan, 1.0]]), np.array([0]), ["a"])
