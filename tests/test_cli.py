import argparse
import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import bias_only_model
from seqsvm.archsim import trace_to_text
from seqsvm.cli import _ingest, _load_model, build_parser, main
from seqsvm.cost import STORAGE_KINDS
from seqsvm.dataset import load_csv, split, to_csv
from seqsvm.modelio import (
    ddag_to_dict,
    dumps_canonical,
    float_model_from_dict,
    load_model_doc,
    model_doc,
    read_model_doc,
)
from seqsvm.quant import quantize_inputs, search_param_bits
from seqsvm.synth import separable_blobs
from seqsvm.fxp import FxpFormat
from verilog import stepped

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
    to_csv(separable_blobs(3, 11, per_class=30, seed=6), path)
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


def test_run_traces_are_the_reference_simulator_s(full_run):
    # the stepped Verilog's records, as text, for the first three test rows
    _, (config, *_, qm) = _load_model(full_run)
    codes = quantize_inputs(_ingest(config)[1], qm.input_fmt)
    for i, trace in enumerate(stepped(qm, codes[:3])):
        assert (full_run / "traces" / f"trace_{i:03d}.txt").read_text() == trace_to_text(trace)


def _trace_files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted((out / "traces").iterdir())}


def test_simulate_leaves_only_its_own_traces(full_run, tmp_path):
    # nothing in a trace names its model, so a rerun removes every trace file
    # it did not write, and nothing else in traces/
    fresh = tmp_path / "fresh"
    shutil.copytree(full_run, fresh)
    shutil.rmtree(fresh / "traces")
    assert main(["simulate", "--out", str(fresh), "--trace", "2"]) == 0
    assert sorted(_trace_files(fresh)) == ["trace_000.txt", "trace_001.txt"]
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    (out / "traces" / "notes.txt").write_text("kept\n")
    assert main(["simulate", "--out", str(out), "--trace", "5"]) == 0
    assert len(_trace_files(out)) == 6
    assert main(["simulate", "--out", str(out), "--trace", "2"]) == 0
    assert _trace_files(out) == {**_trace_files(fresh), "notes.txt": b"kept\n"}
    assert main(["simulate", "--out", str(out)]) == 0
    assert _trace_files(out) == {"notes.txt": b"kept\n"}


def test_quantize_stage_reproduces_search(synth_csv, full_run):
    doc = load_model_doc(full_run / "model.json")
    config = doc["config"]
    ds = load_csv(config["dataset"], config["label_column"])
    train, test = split(ds, config["train_fraction"], config["seed"])
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


def test_every_json_artifact_is_the_stdlib_encoding(full_run, tmp_path):
    # the canonical writer's bytes are json.dumps(indent=2, sort_keys=True)'s
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    assert main(["compare", "--out", str(out)]) == 0
    paths = sorted(out.rglob("*.json"))
    assert {path.name for path in paths} >= {"float_model.json", "model.json", "compare_report.json"}
    for path in paths:
        text = path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n" == dumps_canonical(doc), path.name


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


def test_run_quantizes_the_trained_model_without_rebuilding_it(synth_csv, tmp_path, monkeypatch):
    # quantize takes the model that train made; only the stage on its own loads float_model.json
    calls = _count_calls(monkeypatch, "float_model_from_dict")
    assert main(_run_args(synth_csv, tmp_path / "out")) == 0
    assert calls == []
    assert main(["quantize", "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


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


def test_compare_measures_the_quantize_stage_accuracies(full_run, tmp_path, monkeypatch):
    # one walk of each DDAG on the test split, as the precision search walks them
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    calls = _count_calls(monkeypatch, "ddag_predict_float", "ddag_predict_quant")
    assert main(["compare", "--out", str(out)]) == 0
    assert len(calls) == 2
    report = json.loads((out / "compare_report.json").read_text())
    quant = json.loads((out / "quant_report.json").read_text())
    assert report["accuracy"]["ovo-ddag (float)"] == quant["float_accuracy"]
    assert report["accuracy"]["ovo-ddag (quant)"] == quant["quantized_accuracy"]


def test_compare_writes_the_same_report_without_quant_report(full_run, tmp_path):
    reports = []
    for name, drop in (("kept", False), ("dropped", True)):
        out = tmp_path / name
        shutil.copytree(full_run, out)
        if drop:
            (out / "quant_report.json").unlink()
        assert main(["compare", "--out", str(out)]) == 0
        reports.append((out / "compare_report.json").read_bytes())
    assert reports[0] == reports[1]


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
    assert choices == dict.fromkeys(["run", "cost", "compare"], STORAGE_KINDS)


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
    """A copy of the run's artifacts whose ``name`` went through ``edit``,
    which edits the document in place or returns the text to write."""
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    doc = json.loads((out / name).read_text())
    text = edit(doc)
    (out / name).write_text(json.dumps(doc) if text is None else text)
    return out


@pytest.mark.parametrize("key, value, message", [
    pytest.param(key, value, message, id=f"{key}-{value}") for key, value, message in [
        ("signed", True, "quantized.input_fmt.signed is True, the model writes False"),
        ("frac_bits", 3, "quantized.input_fmt.frac_bits is 3, the model writes 4"),
        ("total_bits", 3, "quantized.input_fmt.total_bits is 3, the model writes 4"),
        ("bias_shift", 3, "quantized.bias_shift is 3, the model writes 4"),
    ]
])
def test_simulate_rejects_a_hand_edited_input_format(full_run, tmp_path, capsys, key, value, message):
    # the input bits are config's; the format and the bias shift follow from them
    def edit(doc):
        quantized = doc["quantized"]
        (quantized if key == "bias_shift" else quantized["input_fmt"])[key] = value

    out = _edited_copy(full_run, tmp_path, edit)
    assert main(["simulate", "--out", str(out)]) == 2
    assert f"stage simulate failed: {message}" in capsys.readouterr().err


def _swap_first_two_rows(doc):
    first, second = doc["ddag"]["nodes"][:2]
    first["row"], second["row"] = second["row"], first["row"]


def test_gen_hdl_rejects_a_hand_edited_row(full_run, tmp_path, capsys):
    out = _edited_copy(full_run, tmp_path, _swap_first_two_rows)
    assert main(["gen-hdl", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage gen-hdl failed: ddag.nodes.0.row is 1, the model writes 0" in err


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
    doc["ddag"] = ddag_to_dict(bias_only_model(4, [0] * 6))


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


def _tiny_float_row(doc):
    """Float vector 0 with no coefficient larger than 5e-324, too small to scale to any width."""
    vector = doc["float_model"]["vectors"][0]
    vector.update(weights=[(-1) ** j * 5e-324 for j in range(len(vector["weights"]))], bias=0.0)


def _negate_biases(doc):
    for vector in doc["quantized"]["vectors"]:
        vector["bias"] = -vector["bias"]


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


def _set_float_model(key, value):
    def edit(doc):
        doc["float_model"][key] = value

    return edit


_DELETE = object()


def _set_path(path, value=_DELETE):
    """Set the value at ``path``, a tuple of keys and indices, or delete it."""

    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is _DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = value

    return edit


def _repeat_key(key, value):
    """The document's text with ``"key": value`` written just before its first
    ``key``, whose last value plain json.load would keep."""

    def edit(doc):
        text = json.dumps(doc)
        assert f'"{key}": ' in text
        return text.replace(f'"{key}": ', f'"{key}": {json.dumps(value)}, "{key}": ', 1)

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
    "config_unknown_key": (_set_config("colour", "red"), "config has an unknown key 'colour'"),
    # a config in range that is not the one the model was written under
    "config_train_fraction_half": (_set_config("train_fraction", 0.5), "config_hash is '"),
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

# edits of what float_model.json and model.json share: the "float_model"
# object and the provenance keys "seed" and "hyper"
_FLOAT_MODEL_EDITS = {
    "float_extra_weight": (_extra_float_weight, "vector 0: wrong weight count"),
    "float_kind": (_set_float_kind("bogus"), "model kind 'bogus' is neither 'ovo' nor 'ova'"),
    "float_swapped_pair": (_swap_float_pair_zero, "float_model.vectors.0.class_a is 1, the model writes 0"),
    "float_ova_kind_on_pairs": (_set_float_kind("ova"), "float_model.vectors.0.class_b is 1, the model writes None"),
    "float_ova": (_float_model_as_ova, "a DAG walks OvO models only, not a 'ova' model"),
    "float_bias_string": (_set_float(0, None, "0.5"), "vector 0: parameter '0.5' is not a finite number"),
    "float_weight_true": (_set_float(1, 3, True), "vector 1: parameter True is not a finite number"),
    "float_bias_nan": (_set_float(2, None, float("nan")), "vector 2: parameter nan is not a finite number"),
    "float_weight_infinity": (_set_float(0, 10, float("inf")), "vector 0: parameter inf is not a finite number"),
    "float_weight_null": (_set_float(2, 0, None), "vector 2: parameter None is not a finite number"),
    "float_row_too_small": (_tiny_float_row, "vector 0: largest |coefficient| 5e-324 is too small to scale to 2 bits"),
    "float_n_classes_one": (
        _set_float_model("n_classes", 1), "n_classes must be an integer >= 2, got 1"
    ),
    "float_n_classes_true": (
        _set_float_model("n_classes", True), "n_classes must be an integer >= 2, got True"
    ),
    "float_n_features_float": (
        _set_float_model("n_features", 11.0), "n_features must be an integer >= 1, got 11.0"
    ),
    "float_n_features_true": (
        _set_float_model("n_features", True), "n_features must be an integer >= 1, got True"
    ),
    "float_n_features_zero": (
        _set_float_model("n_features", 0), "n_features must be an integer >= 1, got 0"
    ),
    "float_weight_int": (_set_float(1, 2, 1), "float_model.vectors.1.weights.2 is 1, the model writes 1.0"),
    "float_unknown_key": (_set_float_model("note", "x"), "float_model has an unknown key 'note'"),
    "float_model_missing": (_set_top("float_model"), "document has no key 'float_model'"),
    "float_weights_missing": (
        _set_path(("float_model", "vectors", 0, "weights")), "float_model.vectors.0 has no key 'weights'"
    ),
    "seed_string": (_set_top("seed", "x"), "seed is 'x', the model writes 11"),
    "seed_negative": (_set_top("seed", -1), "seed is -1, the model writes 11"),
    "seed_true": (_set_top("seed", True), "seed is True, the model writes 11"),
    "seed_other": (_set_top("seed", 12), "seed is 12, the model writes 11"),
    "seed_missing": (_set_top("seed"), "document has no key 'seed'"),
    "hyper_missing": (_set_top("hyper"), "document has no key 'hyper'"),
    "config_missing": (_set_top("config"), "document has no key 'config'"),
    "dataset_split_seed": (
        _set_path(("dataset", "split", "seed"), 12), "dataset.split.seed is 12, the model writes 11"
    ),
    "dataset_split_fraction": (
        _set_path(("dataset", "split", "train_fraction"), 0.5),
        "dataset.split.train_fraction is 0.5, the model writes 0.8",
    ),
    "hyper_list": (_set_top("hyper", []), "hyper [] is not an object"),
    "hyper_epochs_negative": (_set_hyper("epochs", -3), "hyper: epochs must be an integer >= 0, got -3"),
    "hyper_epochs_fraction": (_set_hyper("epochs", 2.5), "hyper: epochs must be an integer >= 0, got 2.5"),
    "hyper_epochs_true": (_set_hyper("epochs", True), "hyper: epochs must be an integer >= 0, got True"),
    "hyper_lam_zero": (_set_hyper("lam", 0), "hyper: lam must be finite and > 0, got 0"),
    "hyper_lam_string": (_set_hyper("lam", "0.1"), "hyper: lam must be finite and > 0, got '0.1'"),
    "hyper_seed_string": (_set_hyper("seed", "x"), "hyper.seed is 'x', the model writes 11"),
    "hyper_seed_other": (_set_hyper("seed", 12), "hyper.seed is 12, the model writes 11"),
    "seed_repeated": (_repeat_key("seed", 3), "an object repeats the key 'seed'"),
    # the dataset's names and normalization must fit the model: 3 classes, 11 features
    "dataset_one_label": (
        _set_path(("dataset", "label_names"), ["only-one"]), "dataset.label_names has 1 names, the model 3 classes"
    ),
    "dataset_labels_repeated": (
        _set_path(("dataset", "label_names"), ["0", "0", "1"]),
        "label_names must be a list of distinct strings, got ['0', '0', '1']",
    ),
    "dataset_labels_numbers": (
        _set_path(("dataset", "label_names"), [0, 1, 2]),
        "label_names must be a list of distinct strings, got [0, 1, 2]",
    ),
    "dataset_feature_names_numbers": (
        _set_path(("dataset", "feature_names"), [1, 2]),
        "feature_names must be None or a list of 11 strings, got [1, 2]",
    ),
    "dataset_normalization_string": (
        _set_path(("dataset", "normalization"), [["x", None]]), "normalization must have shape (11, 2), got (1, 2)"
    ),
    "dataset_normalization_null_max": (
        _set_path(("dataset", "normalization", 0, 1), None), "normalization[0, 1] must be a finite number, got None"
    ),
    "dataset_normalization_reversed": (
        _set_path(("dataset", "normalization", 0), [1.0, 0.0]),
        "normalization[0] must be (min, max) with min <= max, got (1.0, 0.0)",
    ),
    **_CONFIG_EDITS,
}

_ROW_SWAP = (_swap_first_two_rows, "ddag.nodes.0.row is 1, the model writes 0")
# the full run has 3 classes: 3 vectors, pairs (0,1), (0,2), (1,2), and 2 state
# bits; the root is state 1, pair (0,2), and states 0 and 2 lead to leaves. Its
# words are 2 bits wide (-2..1), the biases 1, 0 and -1, and vector 0's first
# weight -1. Its scales are min-max ones (2 bits is the narrowest width, so no
# calibrated table is tried); at 1.5 instead of 0.7395..., row 1's weights
# read [-1, -1, 1, -1, -1, 0, 1, -1, 1, 1, 1, -1] where they read
# [-1, -1, 1, 0, 0, 0, 0, 1, 1, 1, -1]
_MODEL_EDITS = {
    "state_bits": (_set_ddag_key("state_bits", 40), "ddag.state_bits is 40, the model writes 2"),
    "ordering": (_set_ddag_key("ordering", "whatever"), "ddag.ordering is 'whatever', the model writes 'natural'"),
    "extra_vector": (_append_a_vector, "quantized.vectors has 4 entries, the model writes 3"),
    "relabelled_pair": (_relabel_row_zero, "quantized.vectors.0.class_a is 1, the model writes 0"),
    "cyclic_edge": (_edit_node(1, "on_a", ["node", 1]), "ddag.nodes.1.on_a.1 is 1, the model writes 0"),
    "short_path": (_edit_node(1, "on_a", ["leaf", 0]), "ddag.nodes.1.on_a.0 is 'leaf', the model writes 'node'"),
    "edge_to_node_99": (_edit_node(1, "on_b", ["node", 99]), "ddag.nodes.1.on_b.1 is 99, the model writes 2"),
    "edge_to_leaf_3": (_edit_node(0, "on_b", ["leaf", 3]), "ddag.nodes.0.on_b.1 is 3, the model writes 1"),
    "initial_state": (_set_ddag_key("initial_state", 0), "ddag.initial_state is 0, the model writes 1"),
    "initial_state_float": (_set_ddag_key("initial_state", 1.0), "ddag.initial_state is 1.0, the model writes 1"),
    "class_a": (_edit_node(0, "class_a", 2), "ddag.nodes.0.class_a is 2, the model writes 0"),
    "four_class_ddag": (_four_class_ddag, "ddag.initial_state is 2, the model writes 1"),
    "ddag_missing": (_set_top("ddag"), "document has no key 'ddag'"),
    "ddag_list": (_set_top("ddag", []), "ddag is [], the model writes {"),
    "quantized_missing": (_set_top("quantized"), "document has no key 'quantized'"),
    "scales_missing": (_set_path(("quantized", "scales")), "quantized has no key 'scales'"),
    "quantized_unknown_key": (_set_quantized(("note",), "x"), "quantized has an unknown key 'note'"),
    "acc_width_true": (_set_quantized(("acc_width",), True), "quantized.acc_width must be an integer >= 1, got True"),
    "acc_width_fraction": (_set_quantized(("acc_width",), 7.5), "quantized.acc_width must be an integer >= 1, got 7.5"),
    "acc_width_zero": (_set_quantized(("acc_width",), 0), "quantized.acc_width must be an integer >= 1, got 0"),
    "weight_fraction": (
        _set_quantized(("vectors", 0, "weights", 0), 1.7), "quantized.vectors.0.weights.0 is 1.7, the model writes -1"
    ),
    "weight_true": (
        _set_quantized(("vectors", 0, "weights", 0), True), "quantized.vectors.0.weights.0 is True, the model writes -1"
    ),
    "bias_fraction": (
        _set_quantized(("vectors", 1, "bias"), 2.5), "quantized.vectors.1.bias is 2.5, the model writes 0"
    ),
    "param_bits_fraction": (_set_quantized(("param_bits",), 7.5), "quantized.param_bits must be an integer in 2..16, got 7.5"),
    "param_bits_float": (_set_quantized(("param_bits",), 8.0), "quantized.param_bits must be an integer in 2..16, got 8.0"),
    "param_bits_true": (_set_quantized(("param_bits",), True), "quantized.param_bits must be an integer in 2..16, got True"),
    "param_bits_above_ceiling": (
        _set_quantized(("param_bits",), 12), "quantized.param_bits 12 exceeds config max_param_bits 8"
    ),
    # the scales are read, one finite number > 0 per row, and the words derived from them
    "scales_string": (_set_quantized(("scales",), "abc"), "quantized.scales must have shape (3,), got ()"),
    "scales_empty": (_set_quantized(("scales",), []), "quantized.scales must have shape (3,), got (0,)"),
    "scales_number": (_set_quantized(("scales",), 5), "quantized.scales must have shape (3,), got ()"),
    "scale_zero": (_set_quantized(("scales", 1), 0), "quantized.scales[1] must be > 0, got 0.0"),
    "scale_negative": (_set_quantized(("scales", 2), -1.5), "quantized.scales[2] must be > 0, got -1.5"),
    "scale_true": (_set_quantized(("scales", 0), True), "quantized.scales[0] must be a finite number, got True"),
    "scale_nan": (_set_quantized(("scales", 2), float("nan")), "quantized.scales[2] must be a finite number, got nan"),
    "scale_string": (_set_quantized(("scales", 0), "1.0"), "quantized.scales[0] must be a finite number, got '1.0'"),
    # in range, and each accepted before the words were derived
    "biases_negated": (_negate_biases, "quantized.vectors.0.bias is -1, the model writes 1"),
    "weight_plus_one": (
        _set_quantized(("vectors", 0, "weights", 0), 0), "quantized.vectors.0.weights.0 is 0, the model writes -1"
    ),
    # another scale without its words: refused at the first word it derives otherwise
    "scale_changed": (
        _set_quantized(("scales", 1), 1.5), "quantized.vectors.1.weights.3 is 0, the model writes -1"
    ),
    "acc_width_repeated": (_repeat_key("acc_width", 3), "an object repeats the key 'acc_width'"),
    **_QUANT_CONFIG_EDITS,
    **_FLOAT_MODEL_EDITS,
    # model.json's loader takes only OvO float models, before it compares the pairs
    "float_ova_kind_on_pairs": (_set_float_kind("ova"), "a DAG walks OvO models only, not a 'ova' model"),
    # and derives the words from the read scales, so a row that no min-max
    # scale reaches is refused at the first word that differs
    "float_row_too_small": (_tiny_float_row, "quantized.vectors.0.bias is 1, the model writes 0"),
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
    # the model loader rejects it before any write, so no stage reports on a
    # model the Verilog would not run
    out = _edited_copy(full_run, tmp_path, edit)
    before = _tree_bytes(out)
    assert main([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage {command} failed: {message}" in err
    assert _tree_bytes(out) == before


@pytest.mark.parametrize(
    "edit, message", [pytest.param(edit, message, id=key) for key, (edit, message) in _FLOAT_MODEL_EDITS.items()]
)
def test_quantize_rejects_a_hand_edited_float_model(full_run, tmp_path, capsys, edit, message):
    out = _edited_copy(full_run, tmp_path, edit, "float_model.json")
    before = _tree_bytes(out)
    assert main(["quantize", "--out", str(out)]) == 2
    assert f"stage quantize failed: {message}" in capsys.readouterr().err
    assert _tree_bytes(out) == before


def test_float_model_json_takes_no_quantizer_keys(full_run, tmp_path, capsys):
    out = _edited_copy(full_run, tmp_path, _set_config("input_bits", 4), "float_model.json")
    assert main(["quantize", "--out", str(out)]) == 2
    assert "stage quantize failed: config has an unknown key 'input_bits'" in capsys.readouterr().err


def _tree_bytes(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_loaded_parts_write_each_document_again(synth_csv, full_run, tmp_path):
    # model_doc of what the loader read back is each document, byte for byte,
    # after one `run` and after train and quantize on their own
    staged = tmp_path / "staged"
    assert main(["train", *_run_args(synth_csv, staged)[1:]]) == 0
    assert main(["quantize", "--out", str(staged)]) == 0
    for out in (full_run, staged):
        for name, quantized in (("float_model.json", False), ("model.json", True)):
            text = (out / name).read_text()
            assert dumps_canonical(model_doc(*read_model_doc(json.loads(text), quantized))) == text, (out, name)


def _paths(obj, path=()):
    """Every path (a tuple of keys and indices) in ``obj``, each container before its contents."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _names(path) -> set:
    """What an error about ``path`` may say to name it: its last key, or the
    row it lies in (``vector r``) as the models name a row, or the count a
    class or feature count is."""
    keys = [step for step in path if isinstance(step, str)]
    names = {keys[-1], {"n_classes": "class count", "n_features": "feature count"}.get(keys[-1], keys[-1])}
    for key in ("vectors", "scales"):
        if key in path[:-1]:
            names.add(f"vector {path[path.index(key) + 1]}")
    return names


# a dataset may have no feature names and no normalization
_NULLABLE = {("dataset", "feature_names"), ("dataset", "normalization")}


def test_every_field_of_model_json_is_checked_by_name(full_run, tmp_path):
    # delete each key or entry, or set it to null or [], and the loader names
    # it in a ValueError, never a bare KeyError or TypeError text
    doc = json.loads((full_run / "model.json").read_text())
    out = tmp_path / "out"
    out.mkdir()
    paths = list(_paths(doc))
    assert len(paths) > 150
    for path in paths:
        for value in (_DELETE, *([] if path in _NULLABLE else [None]), []):
            edited = copy.deepcopy(doc)
            _set_path(path, value)(edited)
            (out / "model.json").write_text(json.dumps(edited))
            with pytest.raises(ValueError) as exc:
                _load_model(out)
            assert any(name in str(exc.value) for name in _names(path)), (path, value, str(exc.value))


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
    # finds the classes present from the dense label codes instead. `run`
    # and `compare` share one process, and each stage of a staged run has
    # its own, as on the command line.
    out, staged = tmp_path / "out", tmp_path / "staged"
    base = ["--dataset", str(synth_csv), "--label-col", "label", "--seed", "11"]
    stages = [["train", *base], ["quantize"], ["simulate", "--trace", "2"], ["gen-hdl"], ["cost"]]
    processes = [[_run_args(synth_csv, out), ["compare", "--out", str(out)]]]
    processes += [[[*stage, "--out", str(staged)]] for stage in stages]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for argvs in processes:
        code = (
            "import sys\n"
            "from seqsvm.cli import main\n"
            + "".join(f"assert main({argv!r}) == 0\n" for argv in argvs)
            + "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        assert proc.stdout.splitlines()[-1] == "False", argvs[0][0]
