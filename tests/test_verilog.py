"""The emitted Verilog behaves like the model: read back (tests/verilog.py),
it is the model's design record, FSM included, and word table, and stepped
on the golden vectors by the testbench's protocol, it runs as
``archsim.simulate`` does, record for record. A single edit of the text, of
the kinds in ``MUTATIONS``, fails the check."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_quantized_model
from seqsvm.archsim import rtl, simulate
from seqsvm.fxp import FxpFormat
from seqsvm.hdlgen import emit_golden_vectors, generate
from verilog import read, run


def mismatches(qm, top: str, params: str, stim: str) -> list[str]:
    """How the design of ``top`` and ``params`` differs from ``qm``'s: its
    record (FSM included) and words as read, and, stepped on each vector of
    ``stim`` for its budget, its trace against ``simulate``'s (every cycle's
    record, the overflows, the class and the final state), and the clock on
    which done rose against the design's cycle count."""
    try:
        design = read(top, params)
    except ValueError as exc:
        return [f"unreadable: {exc}"]
    want = rtl(qm)
    problems = [
        f"{what} differs" for what, same in (
            ("record", design.rtl == want),
            ("M", design.n_features == qm.n_features),
            ("word table", design.words == qm.words.tolist()),
        ) if not same
    ]
    rows = [[int(v) for v in line.split()] for line in stim.splitlines()[1:]]
    for i, (row, trace) in enumerate(zip(rows, simulate(qm, [row[:-1] for row in rows]))):
        got, rose = run(design, row[:-1], row[-1])
        if row[-1] != want.cycles or rose != want.cycles:
            problems.append(f"vector {i}: budget {row[-1]}, done rose on clock {rose}, want {want.cycles}")
        if got != trace:
            cycle = next((a.cycle for a, b in zip(got.records, trace.records) if a != b), None)
            problems.append(f"vector {i}: the trace differs (first record at cycle {cycle})")
    return problems


@st.composite
def sized_models(draw):
    """A random model of any shape and width the library accepts, profiled on
    its input codes, with an accumulator 0..6 bits narrower than profiled."""
    n, m = draw(st.integers(2, 26)), draw(st.integers(1, 33))
    param_bits, input_bits = draw(st.integers(2, 16)), draw(st.integers(1, 16))
    qm, codes = random_quantized_model(n, m, param_bits, draw(st.integers(0, 2**32 - 1)), n_profile=24,
                                       input_fmt=FxpFormat(input_bits))
    qm.acc_width = max(1, qm.acc_width - draw(st.integers(0, 6)))
    return qm, codes


@settings(max_examples=100, deadline=None)
@given(sized_models())
def test_emitted_verilog_reads_back_and_runs_as_the_model(case):
    # every profile row, cycle by cycle, including accumulators that wrap
    qm, codes = case
    bundle = generate(qm)
    stim, _, _ = emit_golden_vectors(qm, codes, len(codes))
    assert mismatches(qm, bundle.top_module, bundle.params_module, stim) == []


def _sub(pattern: str, replace, text: str) -> str:
    """``text`` with the first match of ``pattern`` replaced; it must change."""
    edited = re.sub(pattern, replace, text, count=1, flags=re.S)
    assert edited != text, pattern
    return edited


def _plus(literal_match, delta: int) -> str:
    """A sized decimal literal's text with ``delta`` added to its value, in the same width."""
    sign, bits, signed, value = literal_match.groups()
    value = int(value) * (-1 if sign else 1) + delta
    return f"{'-' if value < 0 else ''}{bits}'{signed}d{abs(value)}"


#: Single edits of (top, params), each of which the check must catch.
MUTATIONS = {
    "bias_shift_plus_one": lambda top, params: (
        _sub(r"\{word, (\d+)'d0\}", lambda m: f"{{word, {int(m[1]) + 1}'d0}}", top), params),
    "arm_targets_swapped": lambda top, params: (
        _sub(r"(if \(y\) )([^\n]+)(\n\s+else\s+)([^\n]+)", r"\1\4\3\2", top), params),
    "acc_one_bit_narrower": lambda top, params: (
        _sub(r"reg  signed \[(\d+):0\] acc;", lambda m: f"reg  signed [{int(m[1]) - 1}:0] acc;", top), params),
    "reset_state_other": lambda top, params: (
        _sub(r"(if \(rst\) begin.*?state     <= )(\d+)'d(\d+)", lambda m: f"{m[1]}{m[2]}'d{int(m[3]) ^ 1}", top),
        params),
    "storage_word_plus_one": lambda top, params: (
        top, _sub(r"(?<=: word = )(-?)(\d+)'(s)d(\d+)", lambda m: _plus(m, 1), params)),
    "counter_limit_minus_one": lambda top, params: (
        _sub(r"(counter != \d+'d)(\d+)", lambda m: f"{m[1]}{int(m[2]) - 1}", top), params),
    "leaf_class_changed": lambda top, params: (
        _sub(r"(class_out <= \d+'d)(\d+)(; end)", lambda m: f"{m[1]}{int(m[2]) ^ 1}{m[3]}", top), params),
    # the first node arm whose target is not state 0, which has only leaf
    # arms, goes to state 0 instead: no cycle, so the text still reads
    "node_target_changed": lambda top, params: (_sub(r"(state <= \d+'d)[1-9]\d*;", r"\g<1>0;", top), params),
    # the last state's arm: the others are still states 0..k-2
    "last_arm_deleted": lambda top, params: (
        _sub(r"\n[^\n]*: begin  // pair [^\n]*\n[^\n]*\n[^\n]*\n *end(?=\n *default: )", "", top), params),
}

#: The edits of the FSM that only the record's ``arms`` tell from the model.
CONTROL_MUTATIONS = ("node_target_changed", "last_arm_deleted")


@pytest.fixture(scope="module")
def emitted():
    # five classes, so the root arm has two node targets; 7-bit words and 4-bit inputs
    qm, codes = random_quantized_model(5, 6, 7, seed=3)
    bundle = generate(qm)
    stim, _, _ = emit_golden_vectors(qm, codes, 40)
    return qm, bundle.top_module, bundle.params_module, stim


def test_unedited_text_passes(emitted):
    qm, top, params, stim = emitted
    assert mismatches(qm, top, params, stim) == []


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_every_single_edit_fails(emitted, name):
    qm, top, params, stim = emitted
    assert mismatches(qm, *MUTATIONS[name](top, params), stim) != []


@pytest.mark.parametrize("name", CONTROL_MUTATIONS)
def test_control_edits_fail_through_the_record(emitted, name):
    # the text still reads, to a design that differs from the model's only in its record
    qm, top, params, stim = emitted
    edited = MUTATIONS[name](top, params)
    design = read(*edited)
    assert design.rtl != rtl(qm) and design.rtl.arms != rtl(qm).arms
    assert "record differs" in mismatches(qm, *edited, stim)
    assert design.words == qm.words.tolist() and design.n_features == qm.n_features


def test_arms_must_be_states_zero_to_k_minus_one(emitted):
    # a case arm other than the last deleted leaves a gap in the states
    qm, top, params, stim = emitted
    gap = _sub(r"\n[^\n]*: begin  // pair \(0,1\)\n[^\n]*\n[^\n]*\n *end", "", top)
    with pytest.raises(ValueError, match=r"^the FSM has arms for states \[1, 2, .*\], not for 0\.\.8 once each$"):
        read(gap, params)


def test_comments_are_never_read(emitted):
    # the header comments state every width; blanking them changes nothing read
    qm, top, params, stim = emitted
    blank = (re.sub(r"//[^\n]*", "//", text) for text in (top, params))
    assert mismatches(qm, *blank, stim) == []
