import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqsvm.cli import build_parser, main
from seqsvm.cost import STORAGE_KINDS
from seqsvm.dataset import SplitSpec, load_csv, split, to_csv
from seqsvm.modelio import ddag_to_dict, float_model_from_dict, load_model_doc
from seqsvm.quant import search_param_bits
from seqsvm.synth import separable_blobs
from seqsvm.fxp import FxpFormat

ARTIFACTS = [
    "float_model.json",
    "model.json",
    "quant_report.json",
    "sim_report.json",
    "cost_report.json",
    "summary.txt",
    "hdl/svm_top.v",
    "hdl/svm_params.v",
    "hdl/svm_tb.v",
    "hdl/vectors.stim",
    "hdl/vectors.expect",
]


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blobs.csv"
    to_csv(separable_blobs(3, 11, per_class=30, seed=5), path)
    return path


def _run_args(csv, out, extra=()):
    return [
        "run", "--dataset", str(csv), "--label-col", "label",
        "--seed", "11", "--out", str(out), *extra,
    ]


@pytest.fixture(scope="module")
def full_run(synth_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    code = main(_run_args(synth_csv, out, ["--trace", "3"]))
    assert code == 0
    return out


def test_run_produces_all_artifacts(full_run, capsys):
    for rel in ARTIFACTS:
        assert (full_run / rel).exists(), rel
    summary = (full_run / "summary.txt").read_text()
    assert "accuracy" in summary and "cm2" in summary


def test_trace_files_written(full_run):
    traces = sorted((full_run / "traces").glob("trace_*.txt"))
    assert len(traces) == 3
    assert traces[0].read_text().startswith("# cycle")


def test_artifacts_embed_hash_and_seed(full_run):
    for rel in ARTIFACTS:
        if not rel.endswith(".json"):
            continue
        doc = json.loads((full_run / rel).read_text())
        assert doc.get("config_hash"), rel
        assert doc.get("seed") == 11, rel


def test_rerun_is_byte_identical(synth_csv, full_run, tmp_path):
    out2 = tmp_path / "again"
    assert main(_run_args(synth_csv, out2, ["--trace", "3"])) == 0
    for rel in ARTIFACTS:
        assert (out2 / rel).read_bytes() == (full_run / rel).read_bytes(), rel


def test_stage_isolation_matches_one_shot(synth_csv, full_run, tmp_path):
    out = tmp_path / "staged"
    base = ["--dataset", str(synth_csv), "--label-col", "label", "--seed", "11"]
    assert main(["train", *base, "--out", str(out)]) == 0
    assert main(["quantize", "--out", str(out)]) == 0
    assert main(["simulate", "--out", str(out), "--trace", "3"]) == 0
    assert main(["gen-hdl", "--out", str(out)]) == 0
    assert main(["cost", "--out", str(out)]) == 0
    for rel in ARTIFACTS:
        if rel == "summary.txt":  # produced by `run` only
            continue
        assert (out / rel).read_bytes() == (full_run / rel).read_bytes(), rel


def test_quantize_stage_reproduces_search(synth_csv, full_run):
    doc = load_model_doc(full_run / "model.json")
    config = doc["config"]
    ds = load_csv(config["dataset"], config["label_column"])
    train, test = split(ds, SplitSpec(config["train_fraction"], config["seed"]))
    fmodel = float_model_from_dict(doc["float_model"])
    bits = config["input_bits"]
    qm, report = search_param_bits(
        fmodel, train, test, FxpFormat(bits), config["max_param_bits"]
    )
    stored = json.loads((full_run / "quant_report.json").read_text())
    assert stored["param_bits"] == report.param_bits
    assert stored["acc_width"] == report.acc_width
    assert stored["quantized_accuracy"] == report.quantized_accuracy
    assert doc["quantized"]["vectors"][0]["weights"] == qm.words[0, 1:].tolist()


def test_missing_dataset_fails_in_ingest(tmp_path, capsys):
    code = main(_run_args(tmp_path / "nope.csv", tmp_path / "out"))
    assert code == 2
    assert "stage ingest failed" in capsys.readouterr().err


def test_run_ingests_the_csv_once(synth_csv, tmp_path, monkeypatch):
    import seqsvm.cli as cli

    calls = []
    monkeypatch.setattr(cli, "load_csv", lambda *a: calls.append(a) or load_csv(*a))
    assert main(_run_args(synth_csv, tmp_path / "out")) == 0
    assert len(calls) == 1


def _count_calls(monkeypatch, *names):
    """Log the calls to the seqsvm functions `names` through every module that binds them."""
    calls = []
    for mod_name, mod in list(sys.modules.items()):
        for name in names:
            fn = getattr(mod, name, None) if mod_name.startswith("seqsvm") else None
            if fn is not None:
                monkeypatch.setattr(mod, name, lambda *a, _fn=fn, **k: calls.append(a) or _fn(*a, **k))
    return calls


def test_run_walks_the_float_ddag_once(synth_csv, tmp_path, monkeypatch):
    # the summary reuses the float DDAG accuracy of the precision search
    calls = _count_calls(monkeypatch, "ddag_predict_float")
    out = tmp_path / "out"
    assert main(_run_args(synth_csv, out)) == 0
    assert len(calls) == 1
    report = json.loads((out / "quant_report.json").read_text())
    assert f"ddag {report['float_accuracy']:.4f}" in (out / "summary.txt").read_text()


def test_run_quantizes_the_test_split_once_for_simulate_and_gen_hdl(synth_csv, tmp_path, monkeypatch):
    # one call in the precision search, one shared by simulate and gen-hdl
    calls = _count_calls(monkeypatch, "quantize_inputs")
    assert main(_run_args(synth_csv, tmp_path / "out")) == 0
    assert len(calls) == 3  # the search quantizes both sides of the split


def test_gen_hdl_quantizes_only_its_vectors(full_run, tmp_path, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    calls = _count_calls(monkeypatch, "quantize_inputs")
    assert main(["gen-hdl", "--out", str(out), "--vectors", "7"]) == 0
    assert [len(np.asarray(getattr(a[0], "features", a[0]))) for a in calls] == [7]
    stim = (out / "hdl" / "vectors.stim").read_text().splitlines()
    assert stim[1:] == (full_run / "hdl" / "vectors.stim").read_text().splitlines()[1:8]


def test_compare_reuses_the_quantize_stage_accuracies(full_run, tmp_path, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    calls = _count_calls(monkeypatch, "ddag_predict_float", "ddag_predict_quant")
    assert main(["compare", "--out", str(out)]) == 0
    assert calls == []
    report = json.loads((out / "compare_report.json").read_text())
    quant = json.loads((out / "quant_report.json").read_text())
    assert report["accuracy"]["ovo-ddag (float)"] == quant["float_accuracy"]
    assert report["accuracy"]["ovo-ddag (quant)"] == quant["quantized_accuracy"]


def test_compare_needs_the_matching_quant_report(full_run, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    report = json.loads((out / "quant_report.json").read_text())
    report["config_hash"] = "0" * len(report["config_hash"])
    (out / "quant_report.json").write_text(json.dumps(report))
    assert main(["compare", "--out", str(out)]) == 2
    assert "stage compare failed: quant_report.json does not belong to model.json" in capsys.readouterr().err
    (out / "quant_report.json").unlink()
    assert main(["compare", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage compare failed" in err and "quant_report.json" in err


def test_oversized_input_bits_fail_clearly(synth_csv, tmp_path, capsys):
    # a usage error since the flag is range-checked at parse time; it used to
    # fail the quantize stage (exit 2) after train had written its model
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(_run_args(synth_csv, out, ["--input-bits", "63"]))
    assert exc.value.code == 1
    assert "argument --input-bits: must be in 1..16, got 63" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("run", "--seed", "-1", "must be >= 0, got -1"),
    ("train", "--seed", "-1", "must be >= 0, got -1"),
    ("run", "--budget", "0", "must be >= 1, got 0"),
    ("train", "--budget", "-2", "must be >= 1, got -2"),
    ("run", "--input-bits", "0", "must be in 1..16, got 0"),
    ("run", "--input-bits", "17", "must be in 1..16, got 17"),
    ("quantize", "--input-bits", "17", "must be in 1..16, got 17"),
    ("run", "--max-param-bits", "99", "must be in 2..16, got 99"),
    ("run", "--max-param-bits", "1", "must be in 2..16, got 1"),
    ("quantize", "--max-param-bits", "17", "must be in 2..16, got 17"),
    ("run", "--split", "1.5", "must lie strictly between 0 and 1, got 1.5"),
    ("train", "--split", "0", "must lie strictly between 0 and 1, got 0.0"),
    ("run", "--split", "1", "must lie strictly between 0 and 1, got 1.0"),
    ("train", "--split", "nan", "must lie strictly between 0 and 1, got nan"),
    ("run", "--split", "inf", "must lie strictly between 0 and 1, got inf"),
])
def test_out_of_range_integer_flag_is_a_usage_error(synth_csv, tmp_path, capsys, command, flag, value, message):
    # `--max-param-bits 99` used to be recorded in the config, `--input-bits
    # 0` to fail in quantize after train had written, and `--split 1.5` to
    # fail in ingest with exit 2
    out = tmp_path / "out"
    args = ["quantize", "--out", str(out)] if command == "quantize" else [command, *_run_args(synth_csv, out)[1:]]
    with pytest.raises(SystemExit) as exc:
        main([*args, flag, value])
    assert exc.value.code == 1
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_quantize_without_train_fails(tmp_path, capsys):
    assert main(["quantize", "--out", str(tmp_path)]) == 2
    assert "stage quantize failed" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bogus"])
    assert exc.value.code == 1


@pytest.mark.parametrize("command, flag", [
    ("run", "--trace"), ("run", "--vectors"), ("simulate", "--trace"), ("gen-hdl", "--vectors"),
])
def test_negative_count_is_a_usage_error(synth_csv, tmp_path, capsys, command, flag):
    # `run --trace -3` used to write no traces and exit 0, and `run --vectors
    # -3` to fail in gen-hdl after train, quantize and simulate had written
    out = tmp_path / "out"
    args = _run_args(synth_csv, out) if command == "run" else [command, "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*args, flag, "-3"])
    assert exc.value.code == 1
    assert f"argument {flag}: must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


def test_storage_choices_are_the_cost_model_kinds():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    choices = {
        name: next(a.choices for a in sub._actions if a.dest == "storage")
        for name, sub in commands.items()
        if any(a.dest == "storage" for a in sub._actions)
    }
    assert choices == dict.fromkeys(["run", "simulate", "cost", "compare"], STORAGE_KINDS)


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


def test_compare_two_class(tmp_path, capsys):
    csv = tmp_path / "two.csv"
    to_csv(separable_blobs(2, 5, per_class=25, seed=9), csv)
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(csv), "--label-col", "label",
                 "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "1 OvO vs 2 OvA vectors" in text
    assert "parallel/sequential area ratio" in text
    assert (out / "compare_report.json").exists()


def test_rom_storage_flag(synth_csv, tmp_path):
    out = tmp_path / "rom"
    assert main(_run_args(synth_csv, out, ["--storage", "rom"])) == 0
    sim = json.loads((out / "sim_report.json").read_text())
    assert sim["storage"] == "rom"
    cost = json.loads((out / "cost_report.json").read_text())
    assert cost["design"] == "sequential-rom"


def test_tech_file_flag(synth_csv, tmp_path):
    tech_path = tmp_path / "tech.cfg"
    tech_path.write_text("f_clk=15.0\n")
    out = tmp_path / "out"
    assert main(_run_args(synth_csv, out, ["--tech", str(tech_path)])) == 0
    cost = json.loads((out / "cost_report.json").read_text())
    assert cost["f_clk"] == 15.0


def _edited_copy(full_run, tmp_path, edit, name="model.json"):
    """A copy of the run's artifacts whose ``name`` went through ``edit``."""
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    doc = json.loads((out / name).read_text())
    edit(doc)
    (out / name).write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize(
    "key, value", [("signed", True), ("frac_bits", 3), ("total_bits", 3), ("bias_shift", 3)]
)
def test_simulate_rejects_a_hand_edited_input_format(full_run, tmp_path, capsys, key, value):
    def edit(doc):
        quantized = doc["quantized"]
        (quantized if key == "bias_shift" else quantized["input_fmt"])[key] = value

    out = _edited_copy(full_run, tmp_path, edit)
    assert main(["simulate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage simulate failed: input format" in err and "is not supported" in err


def _swap_first_two_rows(doc):
    first, second = doc["ddag"]["nodes"][:2]
    first["row"], second["row"] = second["row"], first["row"]


def test_gen_hdl_rejects_a_hand_edited_row(full_run, tmp_path, capsys):
    out = _edited_copy(full_run, tmp_path, _swap_first_two_rows)
    assert main(["gen-hdl", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage gen-hdl failed: DAG state 0 reads row 1; the Verilog reads row = state" in err


def _set_ddag_key(key, value):
    def edit(doc):
        doc["ddag"][key] = value

    return edit


def _append_a_vector(doc):
    vectors = doc["quantized"]["vectors"]
    vectors.append(dict(vectors[-1]))


def _relabel_row_zero(doc):
    doc["quantized"]["vectors"][0].update(class_a=1, class_b=2)


def _edit_node(state, key, value):
    def edit(doc):
        doc["ddag"]["nodes"][state][key] = value

    return edit


def _four_class_ddag(doc):
    doc["ddag"] = ddag_to_dict(4)


def _set_quantized(path, value):
    """Set doc["quantized"] at ``path``, a tuple of keys and indices."""

    def edit(doc):
        target = doc["quantized"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


def _set_float_kind(kind):
    def edit(doc):
        doc["float_model"]["kind"] = kind

    return edit


def _swap_float_pair_zero(doc):
    vec = doc["float_model"]["vectors"][0]
    vec["class_a"], vec["class_b"] = vec["class_b"], vec["class_a"]


def _float_model_as_ova(doc):
    """A well-formed 3-class OvA model: vector r is class r against the rest."""
    doc["float_model"]["kind"] = "ova"
    for r, vec in enumerate(doc["float_model"]["vectors"]):
        vec.update(class_a=r, class_b=None)


def _extra_float_weight(doc):
    doc["float_model"]["vectors"][0]["weights"].append(0.5)


def _set_float(row, index, value):
    """Set weight ``index`` of float vector ``row``, or its bias for None."""

    def edit(doc):
        vector = doc["float_model"]["vectors"][row]
        if index is None:
            vector["bias"] = value
        else:
            vector["weights"][index] = value

    return edit


def _set_top(key, value=None):
    """Set doc[key], or delete it when ``value`` is None."""

    def edit(doc):
        if value is None:
            del doc[key]
        else:
            doc[key] = value

    return edit


def _set_hyper(key, value):
    def edit(doc):
        doc["hyper"][key] = value

    return edit


def _set_config(key, value=None):
    """Set doc["config"][key], or delete it when ``value`` is None."""

    def edit(doc):
        if value is None:
            del doc["config"][key]
        else:
            doc["config"][key] = value

    return edit


def _set_float_n_classes(value):
    def edit(doc):
        doc["float_model"]["n_classes"] = value

    return edit


_FRACTION = "is not a number strictly between 0 and 1"
# edits of the "config" object that both documents carry
_CONFIG_EDITS = {
    "config_list": (_set_top("config", []), "config [] is not an object"),
    "config_dataset_number": (_set_config("dataset", 5), "config dataset 5 is not a string"),
    "config_label_column_missing": (_set_config("label_column"), "config has no key 'label_column'"),
    "config_budget_missing": (_set_config("budget"), "config has no key 'budget'"),
    "config_label_column_list": (_set_config("label_column", []), "config label_column [] is not a string"),
    "config_seed_negative": (_set_config("seed", -1), "config seed -1 is not an integer >= 0"),
    "config_seed_fraction": (_set_config("seed", 1.0), "config seed 1.0 is not an integer >= 0"),
    "config_train_fraction_string": (_set_config("train_fraction", "0.8"), f"config train_fraction '0.8' {_FRACTION}"),
    "config_train_fraction_one": (_set_config("train_fraction", 1), f"config train_fraction 1 {_FRACTION}"),
    "config_train_fraction_true": (_set_config("train_fraction", True), f"config train_fraction True {_FRACTION}"),
    "config_budget_zero": (_set_config("budget", 0), "config budget 0 is not an integer >= 1"),
}
# edits of the quantizer's config keys, which only model.json carries
_QUANT_CONFIG_EDITS = {
    "config_input_bits_zero": (_set_config("input_bits", 0), "config input_bits 0 is not an integer in 1..16"),
    "config_input_bits_17": (_set_config("input_bits", 17), "config input_bits 17 is not an integer in 1..16"),
    "config_max_param_bits_one": (
        _set_config("max_param_bits", 1), "config max_param_bits 1 is not an integer in 2..16"
    ),
    "config_max_param_bits_string": (
        _set_config("max_param_bits", "8"), "config max_param_bits '8' is not an integer in 2..16"
    ),
}

_HYPER_KEYS = "is not an object of lam, epochs and seed"
# edits of what float_model.json and model.json share: the "float_model"
# object and the provenance keys "seed" and "hyper"
_FLOAT_MODEL_EDITS = {
    "float_extra_weight": (_extra_float_weight, "vector 0: wrong weight count"),
    "float_kind": (_set_float_kind("bogus"), "model kind 'bogus' is neither 'ovo' nor 'ova'"),
    "float_swapped_pair": (_swap_float_pair_zero, "vector 0 carries pair (1,0), not (0,1) of row 0"),
    "float_ova_kind_on_pairs": (_set_float_kind("ova"), "vector 0 carries pair (0,1), not (0,None) of row 0"),
    "float_ova": (_float_model_as_ova, "a DAG walks OvO models only, not a 'ova' model"),
    "float_bias_string": (_set_float(0, None, "0.5"), "vector 0: parameter '0.5' is not a finite number"),
    "float_weight_true": (_set_float(1, 3, True), "vector 1: parameter True is not a finite number"),
    "float_bias_nan": (_set_float(2, None, float("nan")), "vector 2: parameter nan is not a finite number"),
    "float_weight_infinity": (_set_float(0, 10, float("inf")), "vector 0: parameter inf is not a finite number"),
    "float_weight_null": (_set_float(2, 0, None), "vector 2: parameter None is not a finite number"),
    "float_n_classes_one": (_set_float_n_classes(1), "a model needs an integer class count of at least two, got 1"),
    "float_n_classes_true": (
        _set_float_n_classes(True), "a model needs an integer class count of at least two, got True"
    ),
    "seed_string": (_set_top("seed", "x"), "seed 'x' is not a non-negative integer"),
    "seed_negative": (_set_top("seed", -1), "seed -1 is not a non-negative integer"),
    "seed_true": (_set_top("seed", True), "seed True is not a non-negative integer"),
    "seed_missing": (_set_top("seed"), "document has no key 'seed'"),
    "hyper_missing": (_set_top("hyper"), "document has no key 'hyper'"),
    "config_missing": (_set_top("config"), "document has no key 'config'"),
    "hyper_list": (_set_top("hyper", []), f"hyper [] {_HYPER_KEYS}"),
    "hyper_epochs_negative": (_set_hyper("epochs", -3), "hyper: epochs must be >= 0 and an int, got -3"),
    "hyper_epochs_fraction": (_set_hyper("epochs", 2.5), "hyper: epochs must be >= 0 and an int, got 2.5"),
    "hyper_epochs_true": (_set_hyper("epochs", True), "hyper: epochs must be >= 0 and an int, got True"),
    "hyper_lam_zero": (_set_hyper("lam", 0), "hyper: lam must be finite and > 0, got 0"),
    "hyper_lam_string": (_set_hyper("lam", "0.1"), "hyper: lam must be finite and > 0, got '0.1'"),
    "hyper_seed_string": (_set_hyper("seed", "x"), "hyper: seed must be >= 0 and an int, got 'x'"),
    **_CONFIG_EDITS,
}

_ROW_SWAP = (_swap_first_two_rows, "DAG state 0 reads row 1; the Verilog reads row = state")
_NOT_NATURAL = "the DAG is not the natural DAG of 3 classes"
_SCALES_LIST = "scales must be a list of one number per vector (3)"
# the full run has 3 classes: 3 vectors, pairs (0,1), (0,2), (1,2), and 2 state
# bits; the root is state 1, pair (0,2), and states 0 and 2 lead to leaves
_MODEL_EDITS = {
    "state_bits": (_set_ddag_key("state_bits", 40), "DAG state_bits 40 is not 2, the width for 3 classes"),
    "ordering": (_set_ddag_key("ordering", "whatever"), "DAG ordering 'whatever' is not supported"),
    "extra_vector": (_append_a_vector, "a 3-class model needs 3 vectors, got 4"),
    "relabelled_pair": (_relabel_row_zero, "vector 0 carries pair (1,2), not (0,1) of row 0"),
    "cyclic_edge": (_edit_node(1, "on_a", ["node", 1]), _NOT_NATURAL),
    "short_path": (_edit_node(1, "on_a", ["leaf", 0]), _NOT_NATURAL),
    "edge_to_node_99": (_edit_node(1, "on_b", ["node", 99]), _NOT_NATURAL),
    "edge_to_leaf_3": (_edit_node(0, "on_b", ["leaf", 3]), _NOT_NATURAL),
    "initial_state": (_set_ddag_key("initial_state", 0), _NOT_NATURAL),
    "class_a": (_edit_node(0, "class_a", 2), _NOT_NATURAL),
    "four_class_ddag": (_four_class_ddag, "a 4-class DAG does not fit a 3-class model"),
    "acc_width_true": (_set_quantized(("acc_width",), True), "acc_width True is not an integer of at least 1"),
    "acc_width_fraction": (_set_quantized(("acc_width",), 7.5), "acc_width 7.5 is not an integer of at least 1"),
    "acc_width_zero": (_set_quantized(("acc_width",), 0), "acc_width 0 is not an integer of at least 1"),
    "weight_fraction": (
        _set_quantized(("vectors", 0, "weights", 0), 1.7), "vector 0: parameter 1.7 is not an integer"
    ),
    "weight_true": (_set_quantized(("vectors", 0, "weights", 0), True), "vector 0: parameter True is not an integer"),
    "bias_fraction": (_set_quantized(("vectors", 1, "bias"), 2.5), "vector 1: parameter 2.5 is not an integer"),
    "param_bits_fraction": (_set_quantized(("param_bits",), 7.5), "param_bits 7.5 is not an integer of at least 1"),
    "param_bits_float": (_set_quantized(("param_bits",), 8.0), "param_bits 8.0 is not an integer of at least 1"),
    "param_bits_true": (_set_quantized(("param_bits",), True), "param_bits True is not an integer of at least 1"),
    "scales_string": (_set_quantized(("scales",), "abc"), f"{_SCALES_LIST}, got 'abc'"),
    "scales_empty": (_set_quantized(("scales",), []), f"{_SCALES_LIST}, got []"),
    "scales_number": (_set_quantized(("scales",), 5), f"{_SCALES_LIST}, got 5"),
    "scale_zero": (_set_quantized(("scales", 1), 0), "vector 1: scale 0 is not a finite number > 0"),
    "scale_negative": (_set_quantized(("scales", 2), -1.5), "vector 2: scale -1.5 is not a finite number > 0"),
    "scale_true": (_set_quantized(("scales", 0), True), "vector 0: scale True is not a finite number > 0"),
    "scale_nan": (_set_quantized(("scales", 2), float("nan")), "vector 2: scale nan is not a finite number > 0"),
    "scale_string": (_set_quantized(("scales", 0), "1.0"), "vector 0: scale '1.0' is not a finite number > 0"),
    **_QUANT_CONFIG_EDITS,
    **_FLOAT_MODEL_EDITS,
}


@pytest.mark.parametrize(
    "command, edit, message",
    [pytest.param(command, *_ROW_SWAP, id=command) for command in ("simulate", "cost", "compare")]
    + [
        pytest.param(command, edit, message, id=f"{command}-{key}")
        for key, (edit, message) in _MODEL_EDITS.items()
        for command in ("simulate", "gen-hdl", "cost", "compare")
    ],
)
def test_every_stage_rejects_a_hand_edited_row(full_run, tmp_path, capsys, command, edit, message):
    # the model loader rejects it, so no stage reports on a DAG the Verilog would not run
    out = _edited_copy(full_run, tmp_path, edit)
    assert main([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage {command} failed: {message}" in err


@pytest.mark.parametrize(
    "edit, message", [pytest.param(edit, message, id=key) for key, (edit, message) in _FLOAT_MODEL_EDITS.items()]
)
def test_quantize_rejects_a_hand_edited_float_model(full_run, tmp_path, capsys, edit, message):
    out = _edited_copy(full_run, tmp_path, edit, "float_model.json")
    assert main(["quantize", "--out", str(out)]) == 2
    assert f"stage quantize failed: {message}" in capsys.readouterr().err


def _tree_bytes(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "command, name, edit, message",
    [
        pytest.param("simulate", "model.json", edit, message, id=f"simulate-{key}")
        for key, (edit, message) in {**_CONFIG_EDITS, **_QUANT_CONFIG_EDITS}.items()
    ]
    + [
        pytest.param("quantize", "float_model.json", edit, message, id=f"quantize-{key}")
        for key, (edit, message) in _CONFIG_EDITS.items()
    ],
)
def test_a_bad_config_key_is_named_and_changes_no_artifact(full_run, tmp_path, capsys, command, name, edit, message):
    out = _edited_copy(full_run, tmp_path, edit, name)
    before = _tree_bytes(out)
    assert main([command, "--out", str(out)]) == 2
    assert f"stage {command} failed: {message}" in capsys.readouterr().err
    assert _tree_bytes(out) == before


@pytest.mark.parametrize("line", ["f_clk=nan", "nand_equiv_area=inf"])
def test_non_finite_tech_file_fails_in_cost(synth_csv, tmp_path, capsys, line):
    tech_path = tmp_path / "tech.cfg"
    tech_path.write_text(line + "\n")
    out = tmp_path / "out"
    assert main(_run_args(synth_csv, out, ["--tech", str(tech_path)])) == 2
    key = line.partition("=")[0]
    assert f"stage cost failed: {key} must be finite and > 0" in capsys.readouterr().err
    assert not (out / "cost_report.json").exists()


def test_run_and_compare_never_import_numpy_ma(synth_csv, tmp_path):
    # np.unique imports numpy.ma, about 20 ms per process; the pipeline
    # finds the classes present from the dense label codes instead
    out = tmp_path / "out"
    code = (
        "import sys\n"
        "from seqsvm.cli import main\n"
        f"assert main({_run_args(synth_csv, out)!r}) == 0\n"
        f"assert main(['compare', '--out', {str(out)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.splitlines()[-1] == "False"
