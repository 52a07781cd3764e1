import re

import numpy as np
import pytest

from helpers import random_quantized_model, reference_simulate
from seqsvm.ddag import pair_count
from seqsvm.fxp import FxpFormat
from seqsvm.archsim import rtl
from seqsvm.hdlgen import _sd, _ud, emit_golden_vectors, generate, write_bundle
from verilog import read


class TestLiterals:
    def test_signed(self):
        assert _sd(-5, 8) == "-8'sd5"
        assert _sd(5, 8) == "8'sd5"

    def test_signed_overflow_guard(self):
        with pytest.raises(ValueError):
            _sd(128, 8)

    def test_unsigned_overflow_guard(self):
        with pytest.raises(ValueError):
            _ud(16, 4)


class TestGenerate:
    def test_toy_model_structure(self):
        qm, _ = random_quantized_model(2, 1, 4, seed=0)
        bundle = generate(qm)
        # storage: one row of two words plus the default arm
        assert len(re.findall(r": word =", bundle.params_module)) == 3
        # FSM: a single state arm plus the default arm
        assert len(re.findall(r"// pair \(\d+,\d+\)", bundle.top_module)) == 1
        assert "default: begin done" in bundle.top_module
        assert "module svm_top" in bundle.top_module
        assert "module svm_params" in bundle.params_module
        assert "module svm_tb" in bundle.testbench

    def test_fig_shape_fsm_states(self):
        qm, _ = random_quantized_model(4, 6, 5, seed=1)
        bundle = generate(qm)
        assert len(re.findall(r"// pair \(\d+,\d+\)", bundle.top_module)) == 6

    def test_deterministic_bytes(self):
        qm, _ = random_quantized_model(5, 7, 6, seed=2)
        a = generate(qm)
        b = generate(qm)
        assert a.top_module == b.top_module
        assert a.params_module == b.params_module
        assert a.testbench == b.testbench

    def test_name_prefix(self):
        qm, _ = random_quantized_model(2, 1, 4, seed=0)
        bundle = generate(qm, name="pend")
        assert "module pend_top" in bundle.top_module
        assert "pend_params params_i" in bundle.top_module

    def test_unprofiled_model_rejected(self):
        qm, _ = random_quantized_model(2, 1, 4, seed=0)
        qm.acc_width = 0
        with pytest.raises(ValueError, match="profile_accumulator"):
            generate(qm)

    @pytest.mark.parametrize("fmt, aligned", [(FxpFormat(2), "{word, 2'd0}")])
    def test_bias_aligned_by_bias_shift(self, fmt, aligned):
        qm, _ = random_quantized_model(3, 2, 4, seed=0, input_fmt=fmt)
        top = generate(qm).top_module
        assert f"bias_init = $signed({aligned});" in top

    @pytest.mark.parametrize("seed", range(5))
    def test_self_parse_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        n, m, bits = int(rng.integers(2, 7)), int(rng.integers(1, 10)), int(rng.integers(2, 9))
        qm, _ = random_quantized_model(n, m, bits, seed=seed)
        bundle = generate(qm)
        design = read(bundle.top_module, bundle.params_module)
        assert (design.rtl, design.words) == (rtl(qm), qm.words.tolist())

    def test_every_fsm_literal_is_a_model_integer(self):
        qm, _ = random_quantized_model(4, 3, 4, seed=5)
        bundle = generate(qm)
        state_literals = {
            int(v) for v in re.findall(r"state <= \d+'d(\d+);", bundle.top_module)
        }
        assert state_literals <= set(range(pair_count(4)))
        class_literals = {
            int(v) for v in re.findall(r"class_out <= \d+'d(\d+); end", bundle.top_module)
        }
        assert class_literals <= set(range(qm.n_classes))


class TestGoldenVectors:
    def test_count_zero_headers_only(self):
        qm, codes = random_quantized_model(3, 4, 4, seed=3)
        stim, expect, classes = emit_golden_vectors(qm, codes, 0)
        assert stim.startswith("#") and stim.count("\n") == 1
        assert expect.startswith("#") and expect.count("\n") == 1
        assert classes == []

    def test_expectations_come_from_simulator(self):
        qm, codes = random_quantized_model(4, 5, 5, seed=4)
        stim, expect, classes = emit_golden_vectors(qm, codes, 8)
        assert len(classes) == 8
        budget = (4 - 1) * (5 + 1)
        stim_lines, expect_lines = stim.splitlines()[1:], expect.splitlines()[1:]
        assert len(stim_lines) == len(expect_lines) == 8
        for row, line, expected, want in zip(codes.tolist(), stim_lines, expect_lines, classes):
            fields = [int(x) for x in line.split()]
            assert fields[:-1] == row
            assert fields[-1] == budget
            cls, state = (int(x) for x in expected.split())
            ref_cls, trace = reference_simulate(qm, row)
            assert cls == ref_cls == want
            assert state == trace.final_state

    def test_count_clamps_to_available(self):
        qm, codes = random_quantized_model(2, 2, 4, seed=6)
        _, expect, classes = emit_golden_vectors(qm, codes[:3], 99)
        assert len(classes) == 3 and expect.count("\n") == 4

    def test_negative_count_rejected(self):
        qm, codes = random_quantized_model(2, 2, 4, seed=6)
        with pytest.raises(ValueError):
            emit_golden_vectors(qm, codes, -1)


def test_write_bundle(tmp_path):
    qm, _ = random_quantized_model(3, 3, 4, seed=7)
    bundle = generate(qm, name="toy")
    paths = write_bundle(bundle, tmp_path / "hdl")
    names = sorted(p.name for p in paths)
    assert names == ["toy_params.v", "toy_tb.v", "toy_top.v"]
    assert (tmp_path / "hdl" / "toy_top.v").read_text() == bundle.top_module
