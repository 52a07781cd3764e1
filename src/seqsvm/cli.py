"""Pipeline orchestration: dataset in, artifacts and reports out.

Every stage persists its result as JSON (or line text for HDL and vectors),
so stages can be re-run independently and byte-identically. Artifacts embed
the config hash and seed; nothing else varies between runs, so reruns with
the same config produce identical bytes.

Exit codes: 0 success, 1 usage, 2 stage failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import modelio
from .archsim import simulate, simulate_batch, trace_to_text
from .cost import STORAGE_KINDS, TechConfig, compare_parallel, compare_storage, estimate, format_report_table, load_tech
from .dataset import Dataset, keep_columns, load_csv, split
from .ddag import ddag_predict_float, ddag_predict_quant
from .fxp import FxpFormat, in_range, range_text
from .hdlgen import emit_golden_vectors, generate, write_bundle
from .quant import QuantizedModel, quantize_inputs, search_param_bits
from .trainer import HOLDOUT_FRACTION, FloatSvmModel, Hyper, accuracy, random_search, train_ova, train_ovo


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


# ---------------------------------------------------------------------------
# Pipeline phases (shared by `run` and the individual subcommands)
# ---------------------------------------------------------------------------


def _ingest(config: dict, record: Dataset | None = None) -> tuple[Dataset, Dataset]:
    """The config's CSV, split: every feature column or, as a stage after
    train reads it, those of ``record``, a document's dataset, in x_bus
    order, refusing a CSV whose classes or training ranges are not the record's."""
    path = config["dataset"]
    ds = load_csv(path, config["label_column"], None if record is None else record.feature_names)
    train, test = split(ds, config["train_fraction"], config["seed"])
    if record is not None and train.label_names != record.label_names:
        raise ValueError(f"{path}: its classes {train.label_names!r:.80} are not dataset.label_names")
    if record is not None and list(map(list, train.normalization)) != list(map(list, record.normalization)):
        raise ValueError(f"{path}: its training side's feature ranges are not dataset.normalization")
    return train, test


def _train_phase(config: dict, out: Path, train: Dataset, test: Dataset):
    """Search and train on the columns the search keeps; writes
    float_model.json and returns both sides at those columns, the
    hyperparameters and the model. The run's one holdout is carved here,
    HOLDOUT_FRACTION of ``train``, on which the search scores its draws and
    chooses the inputs; a budget of 1, which reads no row, carves none."""
    budget, seed = config["budget"], config["seed"]
    fit, holdout = split(train, 1.0 - HOLDOUT_FRACTION, seed) if budget > 1 else (train, train)
    hyper, columns = random_search(fit, holdout, budget=budget, seed=seed)
    train, test = keep_columns(train, columns), keep_columns(test, columns)
    model = train_ovo(train, hyper, seed)
    out.mkdir(parents=True, exist_ok=True)
    modelio.save_model_doc(out / "float_model.json", modelio.model_doc(config, train, hyper, model))
    print(f"trained OvO model: {model.n_classes} classes, {len(model.coefs)} vectors on {model.n_features} inputs "
          f"(lam={hyper.lam:.5g}, epochs={hyper.epochs})")
    return train, test, hyper, model


def _save_report(path: Path, doc: dict, fields: dict) -> dict:
    """Write and return the report of ``fields`` under the config hash and seed of ``doc``."""
    report = {"config_hash": doc["config_hash"], "seed": doc["seed"], **fields}
    modelio.save_model_doc(path, report)
    return report


def _quantize_phase(config: dict, hyper: Hyper, fmodel: FloatSvmModel, out: Path, train: Dataset, test: Dataset):
    """Precision search of ``fmodel``; writes model.json (with the dataset names and normalization of ``train``)
    and returns the document, the quantized model and the QuantReport."""
    qm, report = search_param_bits(fmodel, train, test, FxpFormat(config["input_bits"]), config["max_param_bits"])
    doc = modelio.model_doc(config, train, hyper, fmodel, qm)
    modelio.save_model_doc(out / "model.json", doc)
    _save_report(out / "quant_report.json", doc, asdict(report))
    print(f"quantized to {report.param_bits}-bit parameters "
          f"(float {report.float_accuracy:.4f} -> quant {report.quantized_accuracy:.4f}, "
          f"acc_width={report.acc_width}"
          + (", max-precision flag" if report.max_precision_flag else "") + ")")
    return doc, qm, report


def _load_model(out: Path):
    """The document of ``out``/model.json and its parts (``modelio.read_model_doc``)."""
    doc = modelio.load_model_doc(out / "model.json")
    return doc, modelio.read_model_doc(doc, quantized=True)


def _simulate_phase(doc: dict, qm: QuantizedModel, codes, labels, out: Path, trace_n: int) -> dict:
    """Simulate the test split, given as its input codes and labels."""
    batch = simulate_batch(qm, codes, labels)
    sim_report = _save_report(out / "sim_report.json", doc, {
        "accuracy": batch.accuracy, "overflows": batch.overflows, "mean_cycles": batch.mean_cycles,
        "n_test": int(len(labels)),
    })
    _write_traces(qm, codes[:trace_n], out / "traces")
    print(f"simulated {sim_report['n_test']} samples: accuracy {batch.accuracy:.4f}, "
          f"{batch.overflows} overflows, {batch.mean_cycles:.0f} cycles each")
    return sim_report


def _write_traces(qm: QuantizedModel, codes, trace_dir: Path) -> None:
    """One trace file per row of ``codes``; removes every other trace file,
    which nothing in it would tell apart from these."""
    names = [f"trace_{i:03d}.txt" for i in range(len(codes))]
    for path in set(trace_dir.glob("trace_*.txt")) - {trace_dir / name for name in names}:
        path.unlink()
    if names:
        trace_dir.mkdir(parents=True, exist_ok=True)
    for name, trace in zip(names, simulate(qm, codes)):
        (trace_dir / name).write_text(trace_to_text(trace))


def _hdl_phase(qm: QuantizedModel, codes, out: Path, n_vectors: int) -> None:
    """Write the HDL bundle and golden vectors for the first ``n_vectors``
    rows of ``codes`` (input codes of the test split)."""
    bundle = generate(qm)
    stim, expect, classes = emit_golden_vectors(qm, codes, n_vectors)
    hdl_dir = out / "hdl"
    write_bundle(bundle, hdl_dir)
    (hdl_dir / "vectors.stim").write_text(stim)
    (hdl_dir / "vectors.expect").write_text(expect)
    print(f"wrote HDL bundle and {len(classes)} golden vectors to {hdl_dir}")


def _cost_phase(doc: dict, qm: QuantizedModel, out: Path, storage_kind: str, tech: TechConfig) -> dict:
    both = compare_storage(qm, tech=tech)
    parallel = compare_parallel(qm, tech)
    report = _save_report(out / "cost_report.json", doc, asdict(both[storage_kind]))
    print(format_report_table([("seq-mux", both["mux"]), ("seq-rom", both["rom"]), ("parallel", parallel)]), end="")
    return report


def _summary(fmodel: FloatSvmModel, qm: QuantizedModel, config: dict, test: Dataset, float_ddag_acc: float,
             sim_report: dict, cost_report: dict, out: Path) -> None:
    vote_acc = accuracy(fmodel, test)
    lines = [
        f"dataset      : {config['dataset']} ({fmodel.n_classes} classes, {fmodel.n_features} features)",
        f"accuracy     : vote {vote_acc:.4f} | ddag {float_ddag_acc:.4f} | quantized {sim_report['accuracy']:.4f}",
        f"quantization : {qm.param_bits}-bit params, {qm.acc_width}-bit accumulator",
        f"cycles       : {cost_report['latency_cycles']} per classification "
        f"({cost_report['latency_seconds']:.3f} s at {cost_report['f_clk']:.0f} Hz)",
        f"cost         : {cost_report['area_cm2']:.2f} cm2, {cost_report['power_mw']:.2f} mW "
        f"({cost_report['design']})",
    ]
    text = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(text)
    print(text, end="")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _pipeline_config(args) -> dict:
    return {
        "dataset": args.dataset,
        "label_column": args.label_col,
        "seed": args.seed,
        "train_fraction": args.split,
        "budget": args.budget,
    }


def _with_quant_keys(config: dict, args) -> dict:
    return {**config, "input_bits": args.input_bits, "max_param_bits": args.max_param_bits}


def _tech(args) -> TechConfig:
    return load_tech(args.tech) if args.tech else TechConfig()


def cmd_train(args) -> int:
    out = Path(args.out)
    config = _pipeline_config(args)
    with _stage("ingest"):
        train, test = _ingest(config)
    with _stage("train"):
        _train_phase(config, out, train, test)
    return 0


def cmd_quantize(args) -> int:
    out = Path(args.out)
    with _stage("quantize"):
        doc = modelio.load_model_doc(out / "float_model.json")
        config, names, hyper, fmodel, _ = modelio.read_model_doc(doc, quantized=False)
        config = _with_quant_keys(config, args)
        _quantize_phase(config, hyper, fmodel, out, *_ingest(config, names))
    return 0


def cmd_simulate(args) -> int:
    out = Path(args.out)
    with _stage("simulate"):
        doc, (config, names, *_, qm) = _load_model(out)
        test = _ingest(config, names)[1]
        codes = quantize_inputs(test, qm.input_fmt)
        _simulate_phase(doc, qm, codes, test.labels, out, args.trace)
    return 0


def cmd_gen_hdl(args) -> int:
    out = Path(args.out)
    with _stage("gen-hdl"):
        doc, (config, names, *_, qm) = _load_model(out)
        test = _ingest(config, names)[1]
        codes = quantize_inputs(test.features[:args.vectors], qm.input_fmt)
        _hdl_phase(qm, codes, out, args.vectors)
    return 0


def cmd_cost(args) -> int:
    out = Path(args.out)
    with _stage("cost"):
        doc, (*_, qm) = _load_model(out)
        _cost_phase(doc, qm, out, args.storage, _tech(args))
    return 0


def cmd_compare(args) -> int:
    out = Path(args.out)
    with _stage("compare"):
        doc, (config, names, hyper, fmodel, qm) = _load_model(out)
        train, test = _ingest(config, names)
        ova = train_ova(train, hyper, config["seed"])
        # the DDAG accuracies, measured as the quantize stage measures them
        float_ddag = ddag_predict_float(fmodel, test.features)
        quant_ddag = ddag_predict_quant(qm, quantize_inputs(test, qm.input_fmt))
        acc_rows = [
            ("ovo-vote (float)", accuracy(fmodel, test)),
            ("ovo-ddag (float)", float(np.mean(float_ddag == test.labels))),
            ("ovo-ddag (quant)", float(np.mean(quant_ddag == test.labels))),
            ("ova      (float)", accuracy(ova, test)),
        ]
        print(f"accuracy on {len(test.labels)} test samples "
              f"({len(fmodel.coefs)} OvO vs {len(ova.coefs)} OvA vectors):")
        for name, acc in acc_rows:
            print(f"  {name}: {acc:.4f}")
        tech = _tech(args)
        seq = estimate(qm, args.storage, tech)
        par = compare_parallel(qm, tech)
        print(format_report_table([(f"seq-{args.storage}", seq), ("parallel", par)]), end="")
        print(f"parallel/sequential area ratio: {par.area_cm2 / seq.area_cm2:.2f}x")
        _save_report(out / "compare_report.json", doc, {
            "accuracy": {name.strip(): acc for name, acc in acc_rows}, "sequential": asdict(seq),
            "parallel": asdict(par),
        })
    return 0


def cmd_run(args) -> int:
    out = Path(args.out)
    config = _pipeline_config(args)
    with _stage("ingest"):
        train, test = _ingest(config)
    with _stage("train"):
        train, test, hyper, fmodel = _train_phase(config, out, train, test)
    with _stage("quantize"):
        config = _with_quant_keys(config, args)
        doc, qm, quant_report = _quantize_phase(config, hyper, fmodel, out, train, test)
    with _stage("simulate"):
        # the test split's input codes, shared with gen-hdl
        codes = quantize_inputs(test, qm.input_fmt)
        sim_report = _simulate_phase(doc, qm, codes, test.labels, out, args.trace)
    with _stage("gen-hdl"):
        _hdl_phase(qm, codes, out, args.vectors)
    with _stage("cost"):
        cost_report = _cost_phase(doc, qm, out, args.storage, _tech(args))
    with _stage("summary"):
        _summary(fmodel, qm, config, test, quant_report.float_accuracy, sim_report, cost_report, out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _in_range(lo: int, hi: int | None = None, kind=int):
    """An argument type checked at parse time, before any stage writes, for
    the range (lo, hi, kind) of ``fxp.in_range``."""

    def parse(text: str):
        value = kind(text)
        if not in_range(value, lo, hi, kind):
            verb = "lie" if kind is float else "be"
            raise argparse.ArgumentTypeError(f"must {verb} {range_text(lo, hi, kind)}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse reports a ValueError as "invalid int value: ..."
    return parse


def _config_value(key: str):
    """The argument type of ``config`` key ``key``, in its range of ``modelio.CONFIG_RANGES``."""
    return _in_range(*modelio.CONFIG_RANGES[key])


def _add_dataset_flags(p):
    p.add_argument("--dataset", required=True, help="CSV file with a header row")
    p.add_argument("--label-col", default="label", help="name of the label column")
    p.add_argument("--seed", type=_config_value("seed"), required=True, help="pipeline seed (mandatory)")
    p.add_argument("--split", type=_config_value("train_fraction"), default=0.8, help="training fraction")
    p.add_argument("--budget", type=_config_value("budget"), default=8, help="random-search budget")


def _add_quant_flags(p):
    p.add_argument("--input-bits", type=_config_value("input_bits"), default=4, help="unsigned input code width")
    p.add_argument("--max-param-bits", type=_config_value("max_param_bits"), default=8,
                   help="precision search ceiling")


def _add_storage_flag(p):
    p.add_argument("--storage", choices=STORAGE_KINDS, default="mux")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqsvm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full pipeline: train, quantize, simulate, gen-hdl, cost")
    _add_dataset_flags(p)
    _add_quant_flags(p)
    _add_storage_flag(p)
    p.add_argument("--tech", help="technology config file (key=value)")
    p.add_argument("--trace", type=_in_range(0), default=0, metavar="N", help="write N per-cycle traces")
    p.add_argument("--vectors", type=_in_range(0), default=20, help="golden vector count")
    p.add_argument("--out", required=True, help="artifact directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("train", help="train the float OvO model")
    _add_dataset_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("quantize", help="precision search + accumulator profiling")
    _add_quant_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("simulate", help="cycle-accurate batch simulation of the test split")
    p.add_argument("--trace", type=_in_range(0), default=0, metavar="N")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gen-hdl", help="emit Verilog and golden vectors")
    p.add_argument("--vectors", type=_in_range(0), default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_hdl)

    p = sub.add_parser("cost", help="area/power/latency estimation")
    _add_storage_flag(p)
    p.add_argument("--tech")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("compare", help="OvO-vs-OvA accuracy and sequential-vs-parallel cost")
    _add_storage_flag(p)
    p.add_argument("--tech")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"seqsvm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
