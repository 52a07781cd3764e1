"""Acceptance suite: one test per contract criterion, each printing a
checklist line (run with -s or -rA to see them inline)."""

import math

import numpy as np
import pytest

from helpers import TABLE_SHAPES, _interval_walk_oracle, random_quantized_model, reference_graph, shaped_model
from seqsvm.archsim import rtl, simulate
from seqsvm.cli import main
from seqsvm.cost import TechConfig, compare_parallel, compare_storage, estimate
from seqsvm.dataset import SplitSpec, split, to_csv
from seqsvm.ddag import (
    ddag_predict_float,
    ddag_predict_quant,
    pair_count,
    pair_index,
    state_bits_for,
    transitions,
)
from seqsvm.fxp import fits
from seqsvm.hdlgen import generate
from seqsvm.quant import MAX_ACCURACY_DROP, quantize_inputs, search_param_bits
from seqsvm.synth import BUNDLED, bundled_dataset
from seqsvm.trainer import Hyper, train_ovo
from verilog import read

# (area cm^2, power mW) of five published printed sequential SVM designs.
CALIBRATION_POINTS = [(3.1, 3.6), (4.9, 5.3), (7.8, 8.7), (3.1, 3.5), (3.4, 3.9)]

EXPECTED_CYCLES = {
    "cardio": 44,
    "dermatology": 170,
    "pendigits": 162,
    "redwine": 60,
    "whitewine": 72,
}


def _pass(msg):
    print(f"[PASS] {msg}")


def test_criterion_01_cycle_law():
    for name, (n, m) in TABLE_SHAPES.items():
        qm, codes = shaped_model(name)
        trace, = simulate(qm, codes[:1])
        assert trace.cycles == EXPECTED_CYCLES[name] == (n - 1) * (m + 1)
    _pass("criterion 1: cycle law (n-1)*(m+1) exact on all five benchmark shapes")


def test_criterion_02_golden_model_equivalence():
    rng = np.random.default_rng(2024)
    models = 0
    checked = 0
    while models < 50:
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 13))
        bits = int(rng.integers(2, 9))
        qm, codes = random_quantized_model(n, m, bits, seed=models, n_profile=1000)
        for row, trace in zip(codes, simulate(qm, codes)):
            if trace.overflows == 0:
                assert trace.out_class == _interval_walk_oracle(qm, row)
                checked += 1
        models += 1
    assert checked >= 50 * 900  # essentially all inputs are overflow-free here
    _pass(f"criterion 2: simulator == reference walk on {checked} overflow-free inferences "
          f"across {models} random models")


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_criterion_03_quantization_contract(name):
    ds = bundled_dataset(name, seed=1)
    train, test = split(ds, SplitSpec(0.8, 1))
    model = train_ovo(train, Hyper(lam=0.02, epochs=12, seed=1))
    qm, report = search_param_bits(model, train, test)
    # recompute both accuracies independently of the report
    float_acc = float(np.mean(ddag_predict_float(model, test.features) == test.labels))
    codes = quantize_inputs(test, qm.input_fmt)
    quant_acc = float(np.mean(ddag_predict_quant(qm, codes) == test.labels))
    drop = float_acc - quant_acc
    assert drop <= MAX_ACCURACY_DROP + 1e-12 or report.max_precision_flag
    _pass(f"criterion 3: {name}: float {float_acc:.4f} vs quant {quant_acc:.4f} "
          f"({qm.param_bits}-bit, drop {drop:+.4f}"
          + (", max-precision flag" if report.max_precision_flag else "") + ")")


@pytest.mark.parametrize("fixture_name", ["blobs3_quant", "rings_quant"])
def test_criterion_04_accumulator_minimality(fixture_name, request):
    qm, _ = request.getfixturevalue(fixture_name)
    train, _ = request.getfixturevalue(fixture_name.replace("_quant", "_split"))
    codes = quantize_inputs(train, qm.input_fmt)
    overflow_at_width = 0
    overflow_below = 0
    for bias, *weights in qm.words.tolist():  # exact big-integer replay
        for row in codes:
            acc = bias << qm.bias_shift
            prefixes = [acc]
            for w, x in zip(weights, row):
                acc += w * int(x)
                prefixes.append(acc)
            overflow_at_width += sum(not fits(p, qm.acc_width) for p in prefixes)
            overflow_below += sum(not fits(p, qm.acc_width - 1) for p in prefixes)
    assert overflow_at_width == 0
    assert overflow_below >= 1
    _pass(f"criterion 4: {fixture_name}: acc_width={qm.acc_width} replays clean, "
          f"width-1 would overflow {overflow_below} prefixes")


def test_criterion_05_ddag_structure():
    for n in range(2, 17):
        graph = reference_graph(n)
        assert len(graph.nodes) == pair_count(n)
        assert state_bits_for(n) == max(1, math.ceil(math.log2(pair_count(n))))
        assert list(transitions(n)) == [
            (s, v.class_a, v.class_b, v.on_a_wins, v.on_b_wins) for s, v in sorted(graph.nodes.items())
        ]
        stack = [(pair_index(0, n - 1, n), 1)]
        while stack:
            sid, depth = stack.pop()
            node = graph.nodes[sid]
            for kind, target in (node.on_a_wins, node.on_b_wins):
                if kind == "leaf":
                    assert depth == n - 1
                else:
                    stack.append((target, depth + 1))
    _pass("criterion 5: n(n-1)/2 nodes, n-1 path length, ceil(log2) state bits for n in [2,16]")


def test_criterion_06_register_census():
    for name, (n, m) in TABLE_SHAPES.items():
        qm, _ = shaped_model(name)
        expected = qm.acc_width + math.ceil(math.log2(m + 2)) + state_bits_for(n)
        r = rtl(qm)
        assert r.acc_bits + r.counter_bits + r.state_bits == r.register_bits == expected
        assert estimate(qm).register_bits == expected
    _pass("criterion 6: register census acc + counter + state matches the cost report "
          "on all five shapes")


def test_criterion_07_power_calibration():
    density = TechConfig().power_per_area
    worst = 0.0
    for area, power in CALIBRATION_POINTS:
        err = abs(density * area - power) / power
        worst = max(worst, err)
        assert err <= 0.10
    _pass(f"criterion 7: default {density} mW/cm^2 reproduces published powers "
          f"(worst error {worst:.1%})")


def test_criterion_08_storage_tradeoff_direction():
    qm, _ = shaped_model("pendigits")
    both = compare_storage(qm)
    assert both["rom"].area_cm2 < both["mux"].area_cm2
    ours = both["rom"].area_cm2 / both["mux"].area_cm2
    _pass(f"criterion 8: pendigits shape rom {both['rom'].area_cm2:.2f} < "
          f"mux {both['mux'].area_cm2:.2f} cm^2 (our ratio {ours:.2f}; "
          f"published storage example 2.4 vs 5.0 cm^2)")


def test_criterion_09_sequential_vs_parallel():
    ratios = {}
    for name in TABLE_SHAPES:
        qm, _ = shaped_model(name)
        seq = estimate(qm)
        par = compare_parallel(qm)
        assert par.area_cm2 > seq.area_cm2
        ratios[name] = par.area_cm2 / seq.area_cm2
    assert ratios["pendigits"] > 5.0
    mean_ratio = sum(ratios.values()) / len(ratios)
    _pass(f"criterion 9: parallel exceeds sequential on every shape "
          f"(pendigits {ratios['pendigits']:.1f}x, mean {mean_ratio:.1f}x; "
          f"published average 10x)")


def test_criterion_10_pipeline_determinism(tmp_path):
    csv = tmp_path / "d.csv"
    to_csv(bundled_dataset("noisy6x11", seed=2), csv)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = main(["run", "--dataset", str(csv), "--label-col", "label",
                     "--seed", "7", "--out", str(out), "--vectors", "10"])
        assert code == 0
        outs.append(out)
    for rel in ("model.json", "hdl/svm_top.v", "hdl/svm_params.v", "hdl/svm_tb.v",
                "hdl/vectors.stim", "hdl/vectors.expect"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel
    _pass("criterion 10: identical config+seed reruns are byte-identical "
          "(model JSON, HDL, golden vectors)")


def test_criterion_11_hdl_self_parse():
    rng = np.random.default_rng(77)
    for trial in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 12))
        bits = int(rng.integers(2, 9))
        qm, _ = random_quantized_model(n, m, bits, seed=trial + 100)
        bundle = generate(qm)
        design = read(bundle.top_module, bundle.params_module)
        assert design.words == qm.words.tolist()
        assert design.rtl == rtl(qm)
    _pass("criterion 11: storage constants and widths read back from 20 generated designs "
          "match the model tables and records exactly")
