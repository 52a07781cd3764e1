import math
import re
import types
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from helpers import TABLE_SHAPES, random_quantized_model, shaped_model
from seqsvm.archsim import rtl
from seqsvm.cost import (
    STORAGE_KINDS,
    TechConfig,
    compare_parallel,
    compare_storage,
    estimate,
    format_report_table,
    load_tech,
)

# Published measurements of five printed sequential SVM designs:
# (area cm^2, power mW), used to calibrate the default power density.
CALIBRATION_POINTS = [(3.1, 3.6), (4.9, 5.3), (7.8, 8.7), (3.1, 3.5), (3.4, 3.9)]


def _bench_shapes():
    """bench/shapes.py as a module, run from its source text, so that nothing
    (not even a bytecode cache) is written under bench/."""
    path = Path(__file__).resolve().parents[1] / "bench" / "shapes.py"
    module = types.ModuleType("bench_shapes")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_five_shape_table_matches_the_bench_reference():
    # the per-unit GE of the five benchmark shapes are deterministic; any
    # drift in the cost model or the accumulator sizing shows up here
    shapes = _bench_shapes()
    assert shapes.changes_from_reference(shapes.shape_table()) == []


class TestEstimate:
    @pytest.mark.parametrize("name", sorted(TABLE_SHAPES))
    def test_latency_law(self, name):
        qm, _ = shaped_model(name)
        n, m = TABLE_SHAPES[name]
        for storage in STORAGE_KINDS:
            rep = estimate(qm, storage)
            assert rep.latency_cycles == (n - 1) * (m + 1)

    @pytest.mark.parametrize("name", sorted(TABLE_SHAPES))
    def test_register_bits_match_census(self, name):
        qm, _ = shaped_model(name)
        rep = estimate(qm)
        assert rep.register_bits == rtl(qm).register_bits

    def test_power_is_area_times_density(self):
        qm, _ = shaped_model("cardio")
        tech = TechConfig(power_per_area=2.5)
        rep = estimate(qm, tech=tech)
        assert rep.power_mw == rep.area_cm2 * 2.5

    def test_rom_slots_charge_latency(self):
        # the ROM's four 2-bit ADCs read 8 bits per slot: a wider word takes
        # two slots per cycle, so the same cycles last twice as long
        byte = estimate(shaped_model("cardio", 8)[0], "rom")
        assert byte.access_slots == 1
        for bits in range(9, 17):
            qm, _ = shaped_model("cardio", bits)
            rom, mux = estimate(qm, "rom"), estimate(qm, "mux")
            assert (rom.access_slots, mux.access_slots) == (2, 1)
            assert rom.latency_cycles == mux.latency_cycles == byte.latency_cycles
            assert rom.latency_seconds == 2 * mux.latency_seconds == 2 * byte.latency_seconds

    def test_monotone_in_param_bits(self):
        lo, _ = random_quantized_model(4, 9, 4, seed=0)
        hi, _ = random_quantized_model(4, 9, 8, seed=0)
        hi.acc_width = lo.acc_width  # isolate the param_bits effect
        for storage in STORAGE_KINDS:
            a = estimate(lo, storage)
            b = estimate(hi, storage)
            for block in ("storage", "engine", "fsm", "registers", "total"):
                assert b.gate_equivalents[block] >= a.gate_equivalents[block]
            assert b.area_cm2 >= a.area_cm2

    def test_strictly_increasing_in_acc_width(self):
        qm, _ = random_quantized_model(3, 5, 5, seed=1)
        base = estimate(qm)
        qm.acc_width += 3
        wider = estimate(qm)
        assert wider.gate_equivalents["engine"] > base.gate_equivalents["engine"]
        assert wider.gate_equivalents["registers"] > base.gate_equivalents["registers"]

    def test_unprofiled_rejected(self):
        qm, _ = random_quantized_model(2, 2, 4, seed=0)
        qm.acc_width = 0
        with pytest.raises(ValueError):
            estimate(qm)


class TestStorageTradeoff:
    def test_pendigits_rom_beats_mux(self, capsys):
        qm, _ = shaped_model("pendigits")
        both = compare_storage(qm)
        assert both["rom"].area_cm2 < both["mux"].area_cm2
        print(
            f"storage ratio rom/mux = "
            f"{both['rom'].gate_equivalents['storage'] / both['mux'].gate_equivalents['storage']:.2f} "
            f"(published example: 2.4 vs 5.0 cm^2)"
        )

    def test_one_row_model_prefers_mux(self):
        qm, _ = random_quantized_model(2, 1, 4, seed=0)
        both = compare_storage(qm)
        assert both["mux"].area_cm2 <= both["rom"].area_cm2  # ADC floor dominates

    def test_identical_latency_when_words_fit_the_adcs(self):
        qm, _ = shaped_model("pendigits")  # 8-bit words, 4 ADCs
        both = compare_storage(qm)
        assert both["mux"].latency_seconds == both["rom"].latency_seconds
        assert both["mux"].latency_cycles == both["rom"].latency_cycles


class TestParallelBaseline:
    @pytest.mark.parametrize("name", sorted(TABLE_SHAPES))
    def test_parallel_exceeds_sequential(self, name):
        qm, _ = shaped_model(name)
        seq = estimate(qm)
        par = compare_parallel(qm)
        assert par.area_cm2 > seq.area_cm2

    def test_ratio_grows_with_model_size(self):
        small, _ = random_quantized_model(3, 5, 6, seed=2)
        big, _ = random_quantized_model(6, 20, 6, seed=2)
        big.acc_width = small.acc_width
        r_small = compare_parallel(small).area_cm2 / estimate(small).area_cm2
        r_big = compare_parallel(big).area_cm2 / estimate(big).area_cm2
        assert r_big > r_small

    def test_tiny_model_may_prefer_parallel(self, capsys):
        qm, _ = random_quantized_model(2, 1, 4, seed=0)
        seq = estimate(qm)
        par = compare_parallel(qm)
        print(f"n=2,m=1: parallel {par.area_cm2:.3f} vs sequential {seq.area_cm2:.3f} cm^2")
        assert par.latency_cycles == 1
        assert par.register_bits == 0


class TestCalibration:
    def test_five_points_near_default(self):
        # the shipped density is the least-squares slope through the origin
        # of the published points, as demo 04 computes it
        a = np.array([[x] for x, _ in CALIBRATION_POINTS])
        p = np.array([y for _, y in CALIBRATION_POINTS])
        slope = float(np.linalg.lstsq(a, p, rcond=None)[0][0])
        assert abs(TechConfig().power_per_area - slope) <= 0.05

    def test_default_density_within_ten_percent(self):
        density = TechConfig().power_per_area
        for area, power in CALIBRATION_POINTS:
            assert abs(density * area - power) / power <= 0.10


class TestTechConfig:
    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            TechConfig(f_clk=0.0)
        with pytest.raises(ValueError):
            TechConfig(rom_cell_cost=-1.0)

    @pytest.mark.parametrize("name", [f.name for f in fields(TechConfig)])
    def test_non_finite_rejected(self, name):
        # True was taken as 1.0 and "20" raised a bare TypeError: neither is a number
        for value in (math.nan, math.inf, -math.inf, True, "20"):
            with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                TechConfig(**{name: value})

    def test_file_roundtrip(self, tmp_path):
        tech = TechConfig(f_clk=15.0, power_per_area=1.2)
        path = tmp_path / "tech.cfg"
        path.write_text("".join(f"{key}={value!r}\n" for key, value in asdict(tech).items()))
        assert load_tech(path) == tech

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "tech.cfg"
        path.write_text("frobnication=3\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_tech(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "tech.cfg"
        path.write_text("# comment\n\nf_clk=12.5\n")
        assert load_tech(path).f_clk == 12.5

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "tech.cfg"
        path.write_text("f_clk\n")
        with pytest.raises(ValueError, match="key=value"):
            load_tech(path)

    def test_repeated_key_rejected(self, tmp_path):
        # the second f_clk used to win silently
        path = tmp_path / "tech.cfg"
        path.write_text("f_clk=10\n# again\nf_clk=30\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: repeated key 'f_clk'$"):
            load_tech(path)

    @pytest.mark.parametrize("raw", ["abc", "", "1.5.2", "10 Hz"])
    def test_non_numeric_value_rejected(self, tmp_path, raw):
        path = tmp_path / "tech.cfg"
        path.write_text(f"adc_cost=35\nf_clk = {raw}\n")
        message = f"{path}:2: f_clk value {raw!r} is not a number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_tech(path)


def test_report_table_layout():
    qm, _ = shaped_model("redwine")
    table = format_report_table([("seq", estimate(qm)), ("par", compare_parallel(qm))])
    lines = table.strip().split("\n")
    assert len(lines) == 4  # header, rule, two rows
    assert lines[0].startswith("Design")
    assert lines[2].startswith("seq") and lines[3].startswith("par")
