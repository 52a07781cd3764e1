import math

import numpy as np
import pytest

from helpers import TABLE_SHAPES, bias_only_model, random_quantized_model, shaped_model
from seqsvm.archsim import (
    ArchConfig,
    EngineState,
    FsmState,
    compile_storage,
    counter_bits,
    engine_step,
    fsm_step,
    register_census,
    simulate,
    simulate_batch,
    trace_to_text,
)
from seqsvm.cost import TechConfig, estimate
from seqsvm.ddag import build_ddag, ddag_infer
from seqsvm.fxp import U4_4, wrap
from seqsvm.quant import QuantizedModel, QuantVector, quantize_inputs


class TestStorage:
    def test_pendigits_shape(self):
        qm, _, _ = shaped_model("pendigits")
        st = compile_storage(qm)
        assert (st.rows, st.words_per_row, st.word_bits) == (45, 18, 8)

    def test_minimal_shape(self):
        qm, _ = random_quantized_model(2, 1, 4, seed=0)
        st = compile_storage(qm)
        assert (st.rows, st.words_per_row) == (1, 2)

    @pytest.mark.parametrize("kind", ["mux", "rom"])
    @pytest.mark.parametrize("bits", [2, 5, 8])
    def test_readback_equals_tables(self, kind, bits):
        qm, _ = random_quantized_model(4, 6, bits, seed=3)
        st = compile_storage(qm, ArchConfig(kind))
        for r, vec in enumerate(qm.vectors):
            expected = [vec.bias] + list(vec.weights)
            got = [st.read(r, c) for c in range(qm.n_features + 1)]
            assert got == expected

    def test_bias_first_column(self):
        qm, _ = random_quantized_model(3, 4, 5, seed=7)
        st = compile_storage(qm)
        for r, vec in enumerate(qm.vectors):
            assert st.read(r, 0) == vec.bias

    def test_rom_dot_count(self):
        # the cost model prices ceil(word_bits/2) two-bit dots per stored word
        tech = TechConfig()
        for bits, dots in [(2, 1), (5, 3), (8, 4)]:
            qm, _ = random_quantized_model(2, 2, bits, seed=1)
            storage_ge = estimate(qm, build_ddag(2), ArchConfig("rom"), tech).gate_equivalents["storage"]
            assert storage_ge == 1 * 3 * dots * tech.rom_cell_cost + 4 * tech.adc_cost

    def test_access_slots(self):
        qm, _ = random_quantized_model(2, 2, 8, seed=1)
        dag = build_ddag(2)
        assert estimate(qm, dag, ArchConfig("rom", adc_count=4)).access_slots == 1
        assert estimate(qm, dag, ArchConfig("rom", adc_count=1)).access_slots == 4
        assert estimate(qm, dag, ArchConfig("mux")).access_slots == 1

    def test_word_table_is_read_only(self):
        qm, _ = random_quantized_model(3, 4, 5, seed=2)
        st = compile_storage(qm, ArchConfig("rom"))
        assert np.array_equal(st.table(), qm.word_table())
        with pytest.raises(ValueError):
            st.table()[0, 0] = 1

    def test_out_of_range_read(self):
        qm, _ = random_quantized_model(2, 2, 4, seed=1)
        st = compile_storage(qm)
        with pytest.raises(IndexError):
            st.read(1, 0)

    def test_oversized_parameter_guard(self):
        qm, _ = random_quantized_model(2, 2, 4, seed=1)
        qm.vectors[0].weights[0] = 99  # corrupt behind the type's back
        with pytest.raises(ValueError, match="exceeds"):
            compile_storage(qm)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ArchConfig("dram")
        with pytest.raises(ValueError):
            ArchConfig("rom", adc_count=5)


class TestEngine:
    def test_zero_model_ready_after_m_plus_one(self):
        m = 4
        st = EngineState()
        for k in range(m + 1):
            assert not st.ready
            st, ovf = engine_step(st, 0, 0, 8, m)
            assert not ovf
        assert st.ready and st.counter == m + 1
        assert st.y == 1  # 0 >= 0

    def test_hand_example(self):
        # bias 0, then w=-7 times x=15
        st = EngineState()
        st, _ = engine_step(st, 0, 0, 9, 1)
        st, ovf = engine_step(st, -7, 15, 9, 1)
        assert (st.acc, st.y, st.ready, ovf) == (-105, 0, True, False)

    def test_overflow_wraps_and_flags(self):
        st = EngineState(acc=120, counter=1)
        st, ovf = engine_step(st, 7, 2, 8, 2)
        assert ovf
        assert st.acc == wrap(134, 8) == -122

    def test_bias_overflow_wraps(self):
        st = EngineState()
        st, ovf = engine_step(st, 200, 0, 8, 1)
        assert ovf and st.acc == wrap(200, 8)

    def test_step_after_ready_rejected(self):
        st = EngineState(counter=2, ready=True)
        with pytest.raises(ValueError):
            engine_step(st, 0, 0, 8, 1)

    def test_counter_bits(self):
        assert counter_bits(1) == 2   # counts 0..2
        assert counter_bits(17) == 5  # counts 0..18
        assert counter_bits(33) == 6


class TestFsm:
    def test_two_class_single_step(self):
        dag = build_ddag(2)
        fs = fsm_step(FsmState(dag.initial_state), dag, 1)
        assert fs.done and fs.out_class == 0
        assert fs.state == dag.initial_state  # deciding node is retained

    @pytest.mark.parametrize("n,steps", [(4, 3), (10, 9)])
    def test_path_lengths(self, n, steps):
        dag = build_ddag(n)
        fs = FsmState(dag.initial_state)
        taken = 0
        while not fs.done:
            fs = fsm_step(fs, dag, 1)  # lower class always wins -> leaf 0
            taken += 1
        assert taken == steps and fs.out_class == 0

    def test_step_after_done_rejected(self):
        dag = build_ddag(2)
        fs = fsm_step(FsmState(dag.initial_state), dag, 0)
        with pytest.raises(ValueError):
            fsm_step(fs, dag, 1)


class TestSimulate:
    @pytest.mark.parametrize(
        "n,m,cycles", [(3, 21, 44), (10, 17, 162), (4, 6, 21)]
    )
    def test_cycle_counts(self, n, m, cycles):
        qm, codes = random_quantized_model(n, m, 6, seed=4)
        dag = build_ddag(n)
        st = compile_storage(qm)
        _, trace = simulate(qm, dag, st, codes[0])
        assert trace.cycles == cycles == (n - 1) * (m + 1)
        assert trace.evaluations == n - 1

    def test_matches_reference_walk(self):
        qm, codes = random_quantized_model(5, 7, 5, seed=6)
        dag = build_ddag(5)
        st = compile_storage(qm)
        for row in codes[:60]:
            cls, trace = simulate(qm, dag, st, row, record=False)
            assert trace.overflows == 0
            assert cls == ddag_infer(qm, dag, row)[0]

    def test_storage_kind_functionally_identical(self):
        qm, codes = random_quantized_model(4, 5, 7, seed=8)
        dag = build_ddag(4)
        mux = compile_storage(qm, ArchConfig("mux"))
        rom = compile_storage(qm, ArchConfig("rom", adc_count=1))
        for row in codes[:30]:
            assert simulate(qm, dag, mux, row)[0] == simulate(qm, dag, rom, row)[0]

    def test_trace_structure(self):
        qm, codes = random_quantized_model(3, 2, 4, seed=2)
        dag = build_ddag(3)
        st = compile_storage(qm)
        cls, trace = simulate(qm, dag, st, codes[0])
        assert len(trace.records) == trace.cycles == 2 * 3
        for i, rec in enumerate(trace.records):
            assert rec.cycle == i
            assert rec.fetched_col == i % 3
            assert rec.counter == rec.fetched_col + 1
            assert rec.ready == (rec.fetched_col == 2)
        # column 0 always fetches the row's bias word
        for rec in trace.records:
            if rec.fetched_col == 0:
                assert rec.fetched_word == qm.vectors[rec.fetched_row].bias
        assert trace.out_class == cls
        assert trace.final_state in dag.nodes

    def test_wrong_code_count_rejected(self):
        qm, _ = random_quantized_model(2, 3, 4, seed=0)
        with pytest.raises(ValueError, match="3 input codes"):
            simulate(qm, build_ddag(2), compile_storage(qm), [1, 2])

    def test_unprofiled_model_rejected(self):
        qm = QuantizedModel(2, 1, U4_4, 4, [QuantVector(0, 1, [1], 0)], [1.0])
        with pytest.raises(ValueError, match="profile_accumulator"):
            simulate(qm, build_ddag(2), compile_storage(qm), [0])

    def test_undersized_accumulator_flags_overflow(self):
        qm, codes = random_quantized_model(2, 6, 8, seed=5)
        qm.acc_width = 6  # deliberately too narrow
        dag = build_ddag(2)
        st = compile_storage(qm)
        total = sum(simulate(qm, dag, st, row, record=False)[1].overflows for row in codes)
        assert total > 0


class TestBatch:
    def test_empty_rejected(self):
        qm, _ = random_quantized_model(2, 2, 4, seed=0)
        with pytest.raises(ValueError, match="empty"):
            simulate_batch(qm, build_ddag(2), compile_storage(qm), np.empty((0, 2)), [])

    def test_equivalence_with_reference(self, blobs3_quant, blobs3_split):
        qm, _, dag = blobs3_quant
        _, test = blobs3_split
        codes = quantize_inputs(test, qm.input_fmt)
        st = compile_storage(qm)
        batch = simulate_batch(qm, dag, st, codes, test.labels)
        assert batch.overflows == 0
        ref = np.array([ddag_infer(qm, dag, row)[0] for row in codes])
        assert np.array_equal(batch.predictions, ref)
        assert batch.accuracy == float(np.mean(ref == test.labels))

    def test_mean_cycles_constant(self):
        qm, codes = random_quantized_model(4, 5, 5, seed=3)
        dag = build_ddag(4)
        batch = simulate_batch(qm, dag, compile_storage(qm), codes[:20], np.zeros(20))
        assert batch.mean_cycles == (4 - 1) * (5 + 1)


class TestCensusAndTrace:
    @pytest.mark.parametrize("name", sorted(TABLE_SHAPES))
    def test_register_census_formula(self, name):
        qm, dag, _ = shaped_model(name)
        n, m = TABLE_SHAPES[name]
        census = register_census(qm, dag)
        assert census["counter"] == math.ceil(math.log2(m + 2))
        assert census["state"] == dag.state_bits
        assert census["total"] == qm.acc_width + math.ceil(math.log2(m + 2)) + dag.state_bits

    def test_trace_text_format(self):
        qm, codes = random_quantized_model(3, 4, 4, seed=11)
        dag = build_ddag(3)
        cls, trace = simulate(qm, dag, compile_storage(qm), codes[0])
        text = trace_to_text(trace)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# cycle fsm_state counter")
        assert len(lines) == trace.cycles + 2  # header + records + totals
        first = lines[1].split()
        assert [int(x) for x in first[:5]] == [0, dag.initial_state, 1, dag.initial_state, 0]
        assert lines[-1] == (
            f"# totals cycles={trace.cycles} evaluations=2 overflows=0 "
            f"class={cls} final_state={trace.final_state}"
        )
