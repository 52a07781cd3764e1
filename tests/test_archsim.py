import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    TABLE_SHAPES,
    _interval_walk_oracle,
    bias_only_model,
    profiled_cases,
    random_quantized_model,
    shaped_model,
    wrap,
)
from seqsvm.archsim import rtl, simulate, simulate_batch, trace_to_text
from seqsvm.cost import STORAGE_KINDS, TechConfig, estimate
from seqsvm.ddag import ddag_predict_quant, pair_count, pair_index, state_bits_for
from seqsvm.fxp import BLOCK_ELEMENTS, U4_4, FxpFormat
from seqsvm.hdlgen import emit_golden_vectors
from seqsvm.quant import QuantizedModel, quantize_inputs
from verilog import stepped


@settings(max_examples=150, deadline=None)
@given(profiled_cases())
def test_simulate_equals_the_step_function_reference(case):
    # shapes, parameter and input widths, and undersized accumulators: one
    # trace per row, each the emitted Verilog's, stepped, record for record
    qm, codes = case
    assert list(simulate(qm, codes)) == stepped(qm, codes)


def _model(m, weights, bias, param_bits, acc_width):
    """A two-class model with one row."""
    qm = QuantizedModel(2, m, U4_4, param_bits, [[bias, *weights]], [1.0])
    qm.acc_width = acc_width
    return qm


class TestStorage:
    def test_pendigits_shape(self):
        qm, _ = shaped_model("pendigits")
        assert (*qm.words.shape, qm.param_bits) == (45, 18, 8)

    def test_minimal_shape(self):
        qm, _ = random_quantized_model(2, 1, 4, seed=0)
        assert qm.words.shape == (1, 2)

    @pytest.mark.parametrize("kind", STORAGE_KINDS)
    @pytest.mark.parametrize("bits", [2, 5, 8])
    def test_readback_equals_tables(self, kind, bits):
        # either kind stores the one word table: the words the simulator
        # fetches are the words the cost model prices for that kind
        qm, codes = random_quantized_model(4, 6, bits, seed=3)
        words = qm.words
        assert (words.shape, words.dtype) == ((6, 7), np.int64)
        trace, = simulate(qm, codes[:1])
        for rec in trace.records:
            assert rec.word == words[rec.state, rec.counter]
        tech = TechConfig()
        if kind == "mux":
            priced = words.size * bits * tech.mux_per_input_cost
        else:
            priced = words.size * math.ceil(bits / 2) * tech.rom_cell_cost + 4 * tech.adc_cost
        storage_ge = estimate(qm, kind, tech).gate_equivalents["storage"]
        assert storage_ge == pytest.approx(priced)

    def test_bias_first_column(self):
        # word 0 of a row is its bias: it loads the accumulator, shifted
        qm, codes = random_quantized_model(3, 4, 5, seed=7)
        trace, = simulate(qm, codes[:1])
        loads = [rec for rec in trace.records if rec.counter == 0]
        assert len(loads) == 2
        for rec in loads:
            assert rec.word == qm.words[rec.state, 0]
            assert rec.acc_next == wrap(rec.word << qm.bias_shift, qm.acc_width)

    def test_rom_dot_count(self):
        # the cost model prices ceil(word_bits/2) two-bit dots per stored word
        tech = TechConfig()
        for bits, dots in [(2, 1), (5, 3), (8, 4)]:
            qm, _ = random_quantized_model(2, 2, bits, seed=1)
            storage_ge = estimate(qm, "rom", tech).gate_equivalents["storage"]
            assert storage_ge == 1 * 3 * dots * tech.rom_cell_cost + 4 * tech.adc_cost

    def test_access_slots(self):
        # the ROM reads up to 8 bits per slot; MUX constants are one word wide
        for bits in range(2, 17):
            qm, _ = random_quantized_model(2, 2, bits, seed=1)
            assert estimate(qm, "rom").access_slots == (1 if bits <= 8 else 2)
            assert estimate(qm, "mux").access_slots == 1

    def test_word_table_is_read_only(self):
        # no walk, trace or golden-vector call changes the model's words
        # (walk_batch shifts the bias column of its own copy)
        qm, codes = random_quantized_model(3, 4, 5, seed=2)
        before = qm.words.tobytes()
        simulate_batch(qm, codes, np.zeros(len(codes)))
        list(simulate(qm, codes[:1]))
        ddag_predict_quant(qm, codes[:1])
        emit_golden_vectors(qm, codes, 5)
        assert qm.words.tobytes() == before
        with pytest.raises(ValueError, match="read-only"):
            qm.words[0, 0] += 1

    def test_oversized_parameter_guard(self):
        # the range check runs once, when the table is built; the table
        # cannot be changed behind it afterwards
        with pytest.raises(ValueError, match="vector 0: parameter 99 exceeds 4 bits"):
            QuantizedModel(2, 2, U4_4, 4, [[0, 99, 0]], [1.0])
        qm, _ = random_quantized_model(2, 2, 4, seed=1)
        with pytest.raises(ValueError, match="read-only"):
            qm.words[0, 1] = 99

    def test_bad_config(self):
        qm, _ = random_quantized_model(2, 2, 4, seed=1)
        for kind in ("dram", "ROM", ""):
            with pytest.raises(ValueError, match=f"^unknown storage kind {kind!r}$"):
                estimate(qm, kind)


class TestEngine:
    def test_zero_model_ready_after_m_plus_one(self):
        # the verdict is y on the cycle whose counter is m, the (m+1)-th
        m = 4
        trace, = simulate(_model(m, [0] * m, 0, 4, 8), [[0] * m])
        assert [rec.counter == m for rec in trace.records] == [False] * m + [True]
        assert trace.overflows == 0
        assert trace.records[-1].y == 1  # 0 >= 0

    @pytest.mark.parametrize("m", [1, 3, 7, 15, 31])
    def test_counter_is_the_register(self, m):
        # the counter runs 0..m in each evaluation, so it fits its register,
        # which holds exactly 0..m when m+1 is a power of two
        qm, codes = random_quantized_model(3, m, 4, seed=m)
        assert 1 << rtl(qm).counter_bits == m + 1
        trace, = simulate(qm, codes[:1])
        assert [rec.counter for rec in trace.records] == list(range(m + 1)) * 2

    def test_hand_example(self):
        # bias 0, then w=-7 times x=15
        trace, = simulate(_model(1, [-7], 0, 4, 9), [[15]])
        last = trace.records[-1]
        assert (last.acc_next, last.y, last.counter, trace.overflows) == (-105, 0, 1, 0)
        assert trace.out_class == 1

    def test_overflow_wraps_and_flags(self):
        # 7 << 4 = 112, + 8*1 = 120, + 7*2 = 134 wraps at 8 bits
        trace, = simulate(_model(2, [8, 7], 7, 8, 8), [[1, 2]])
        assert [rec.acc_next for rec in trace.records] == [112, 120, wrap(134, 8)]
        assert wrap(134, 8) == -122
        assert trace.overflows == 1

    def test_bias_overflow_wraps(self):
        # the bias loads as 13 << 4 = 208, beyond 8 bits
        trace, = simulate(_model(1, [0], 13, 8, 8), [[0]])
        first = trace.records[0]
        assert (first.word, first.acc_next) == (13, wrap(208, 8))
        assert trace.overflows == 1

    def test_counter_bits(self):
        def counter_bits(m):
            return rtl(random_quantized_model(2, m, 4, seed=0)[0]).counter_bits

        assert counter_bits(1) == 1   # counts 0..1
        assert counter_bits(3) == 2   # counts 0..3
        assert counter_bits(15) == 4  # counts 0..15
        assert counter_bits(17) == 5  # counts 0..17
        assert counter_bits(31) == 5
        assert counter_bits(33) == 6


class TestFsm:
    def test_two_class_single_step(self):
        trace, = simulate(bias_only_model(2, [1]), [[0]])
        assert trace.out_class == 0 and len(trace.records) == 2  # one evaluation of m+1 = 2 words
        assert trace.final_state == pair_index(0, 1, 2)  # deciding node is retained

    @pytest.mark.parametrize("n,steps", [(4, 3), (10, 9)])
    def test_path_lengths(self, n, steps):
        # lower class always wins -> leaf 0
        trace, = simulate(bias_only_model(n, [1] * pair_count(n)), [[0]])
        path = [rec.state for rec in trace.records if rec.counter == 0]
        assert path == [pair_index(0, hi, n) for hi in range(n - 1, 0, -1)]
        assert len(trace.records) == 2 * steps and trace.out_class == 0


class TestSimulate:
    @pytest.mark.parametrize(
        "n,m,cycles", [(3, 21, 44), (10, 17, 162), (4, 6, 21)]
    )
    def test_cycle_counts(self, n, m, cycles):
        qm, codes = random_quantized_model(n, m, 6, seed=4)
        trace, = simulate(qm, codes[:1])
        assert len(trace.records) == cycles == (n - 1) * (m + 1)
        assert sum(rec.counter == 0 for rec in trace.records) == n - 1

    def test_matches_reference_walk(self):
        qm, codes = random_quantized_model(5, 7, 5, seed=6)
        for row, trace in zip(codes[:60], simulate(qm, codes[:60])):
            assert trace.overflows == 0
            assert trace.out_class == _interval_walk_oracle(qm, row)

    def test_storage_kind_functionally_identical(self):
        # the kind changes only what the cost model prices: both kinds serve
        # the one word table the simulator reads, in the same cycles
        qm, codes = random_quantized_model(4, 5, 7, seed=8)
        cycles = {len(trace.records) for trace in simulate(qm, codes[:30])}
        for storage in STORAGE_KINDS:
            assert {estimate(qm, storage).latency_cycles} == cycles

    def test_trace_structure(self):
        qm, codes = random_quantized_model(3, 2, 4, seed=2)
        trace, = simulate(qm, codes[:1])
        assert len(trace.records) == 2 * 3
        for i, rec in enumerate(trace.records):
            assert (rec.cycle, rec.counter) == (i, i % 3)
            assert rec.word == qm.words[rec.state, rec.counter]  # counter 0 reads the bias
            assert rec.y == int(rec.acc_next >= 0)
        # each evaluation's verdict is y where the counter is m: the walk's path
        (first, y), (second, _) = [(rec.state, rec.y) for rec in trace.records if rec.counter == 2]
        assert (first, second) == (pair_index(0, 2, 3), pair_index(0, 1, 3) if y else pair_index(1, 2, 3))
        assert trace.final_state == second
        assert trace.out_class == _interval_walk_oracle(qm, codes[0])

    def test_wrong_code_count_rejected(self):
        qm, _ = random_quantized_model(2, 3, 4, seed=0)
        with pytest.raises(ValueError, match="samples x 3 code matrix"):
            simulate(qm, [[1, 2]])
        with pytest.raises(ValueError, match="samples x 3 code matrix"):
            simulate(qm, [1, 2, 3])

    def test_unprofiled_model_rejected(self):
        qm = QuantizedModel(2, 1, U4_4, 4, [[0, 1]], [1.0])
        with pytest.raises(ValueError, match="profile_accumulator"):
            simulate(qm, [[0]])

    def test_undersized_accumulator_flags_overflow(self):
        qm, codes = random_quantized_model(2, 6, 8, seed=5)
        qm.acc_width = 6  # deliberately too narrow
        total = sum(trace.overflows for trace in simulate(qm, codes))
        assert total > 0

    def test_memory_does_not_grow_with_the_rows(self):
        # traces consumed and dropped one by one: the peak at 8 walk blocks
        # of rows is that at 2 blocks, within 10%; a simulator that held
        # every row's records at once would need about 4 times as much
        m = 255
        qm, _ = random_quantized_model(2, m, 4, seed=0)
        block = BLOCK_ELEMENTS // (m + 1)

        def peak(blocks):
            codes = np.random.default_rng(blocks).integers(0, 16, (blocks * block, m))
            tracemalloc.start()
            try:
                for _ in simulate(qm, codes):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) <= 1.1 * peak(2)


class TestBatch:
    def test_empty_rejected(self):
        qm, _ = random_quantized_model(2, 2, 4, seed=0)
        with pytest.raises(ValueError, match="empty"):
            simulate_batch(qm, np.empty((0, 2)), [])

    def test_equivalence_with_reference(self, blobs3_quant, blobs3_split):
        qm, _ = blobs3_quant
        _, test = blobs3_split
        codes = quantize_inputs(test, qm.input_fmt)
        batch = simulate_batch(qm, codes, test.labels)
        assert batch.overflows == 0
        ref = np.array([_interval_walk_oracle(qm, row) for row in codes])
        assert np.array_equal(batch.predictions, ref)
        assert batch.accuracy == float(np.mean(ref == test.labels))

    def test_needs_one_label_per_code_row(self, blobs3_quant, blobs3_split):
        # labels[:1] broadcast to an accuracy without a word, labels[:3] failed in numpy
        qm, _ = blobs3_quant
        _, test = blobs3_split
        codes = quantize_inputs(test, qm.input_fmt)
        assert len(codes) == 36
        for labels in (test.labels[:1], test.labels[:3], test.labels[:, None], np.append(test.labels, 0)):
            message = f"need one label for each of the 36 code rows, got labels of shape {labels.shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                simulate_batch(qm, codes, labels)

    def test_mean_cycles_constant(self):
        qm, codes = random_quantized_model(4, 5, 5, seed=3)
        batch = simulate_batch(qm, codes[:20], np.zeros(20))
        assert batch.mean_cycles == (4 - 1) * (5 + 1)


class TestCensusAndTrace:
    @pytest.mark.parametrize("name", sorted(TABLE_SHAPES))
    def test_register_census_formula(self, name):
        qm, _ = shaped_model(name)
        n, m = TABLE_SHAPES[name]
        r = rtl(qm)
        assert r.counter_bits == math.ceil(math.log2(m + 1))
        assert r.state_bits == state_bits_for(n)
        assert r.register_bits == qm.acc_width + math.ceil(math.log2(m + 1)) + state_bits_for(n)

    @pytest.mark.parametrize("n, m, class_bits", [(2, 1, 1), (3, 4, 2), (5, 2, 3), (10, 17, 4), (26, 33, 5)])
    def test_record_widths_and_counts(self, n, m, class_bits):
        qm, _ = random_quantized_model(n, m, 6, seed=1, input_fmt=FxpFormat(3))
        r = rtl(qm)
        assert (r.input_bits, r.word_bits, r.acc_bits, r.bias_shift) == (3, 6, qm.acc_width, 3)
        assert r.class_bits == class_bits  # a class id 0..n-1
        assert r.initial_state == pair_index(0, n - 1, n)
        assert r.cycles == (n - 1) * (m + 1)

    def test_record_of_an_unsized_model_rejected(self):
        qm = QuantizedModel(2, 1, U4_4, 4, [[0, 1]], [1.0])
        with pytest.raises(ValueError, match="profile_accumulator"):
            rtl(qm)

    def test_trace_text_format(self):
        qm, codes = random_quantized_model(3, 4, 4, seed=11)
        trace, = simulate(qm, codes[:1])
        text = trace_to_text(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "# cycle state counter word acc_next y"
        assert len(lines) == 2 * 5 + 2  # header + records + totals
        bias = int(qm.words[pair_index(0, 2, 3), 0])
        acc = wrap(bias << qm.bias_shift, qm.acc_width)
        assert lines[1] == f"0 {pair_index(0, 2, 3)} 0 {bias} {acc} {int(acc >= 0)}"
        assert lines[-1] == (
            f"# totals cycles=10 evaluations=2 overflows=0 "
            f"class={trace.out_class} final_state={trace.final_state}"
        )
