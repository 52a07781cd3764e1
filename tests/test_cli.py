import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqsvm.cli import main
from seqsvm.dataset import SplitSpec, load_csv, split, to_csv
from seqsvm.modelio import float_model_from_dict, load_model_doc
from seqsvm.quant import search_param_bits
from seqsvm.synth import bundled_dataset, separable_blobs
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
    assert doc["quantized"]["vectors"][0]["weights"] == qm.vectors[0].weights


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
    assert main(_run_args(synth_csv, tmp_path / "out", ["--input-bits", "63"])) == 2
    err = capsys.readouterr().err
    assert "stage quantize failed" in err and "1..16 bits" in err


def test_quantize_without_train_fails(tmp_path, capsys):
    assert main(["quantize", "--out", str(tmp_path)]) == 2
    assert "stage quantize failed" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bogus"])
    assert exc.value.code == 1


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
    from seqsvm.cost import TechConfig, save_tech

    tech_path = tmp_path / "tech.cfg"
    save_tech(TechConfig(f_clk=15.0), tech_path)
    out = tmp_path / "out"
    assert main(_run_args(synth_csv, out, ["--tech", str(tech_path)])) == 0
    cost = json.loads((out / "cost_report.json").read_text())
    assert cost["f_clk"] == 15.0


def _edited_copy(full_run, tmp_path, edit):
    """A copy of the run's artifacts whose model.json went through ``edit``."""
    out = tmp_path / "out"
    shutil.copytree(full_run, out)
    doc = json.loads((out / "model.json").read_text())
    edit(doc)
    (out / "model.json").write_text(json.dumps(doc))
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


@pytest.mark.parametrize("command", ["simulate", "cost", "compare"])
def test_every_stage_rejects_a_hand_edited_row(full_run, tmp_path, capsys, command):
    # the model loader rejects it, so no stage reports on a DAG the Verilog would not run
    out = _edited_copy(full_run, tmp_path, _swap_first_two_rows)
    assert main([command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"stage {command} failed: DAG state 0 reads row 1; the Verilog reads row = state" in err


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
