"""The emitted Verilog behaves like the model: read back (tests/verilog.py),
it is the model's design, word table and FSM, and stepped on the golden
vectors by the testbench's protocol, it classifies as the batch walk does.
A single edit of the text, of the kinds in ``MUTATIONS``, fails the check."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_quantized_model
from seqsvm.archsim import rtl
from seqsvm.ddag import transitions, walk_batch
from seqsvm.fxp import FxpFormat
from seqsvm.hdlgen import emit_golden_vectors, generate
from verilog import read, run


def mismatches(qm, top: str, params: str, stim: str) -> list[str]:
    """How the design of ``top`` and ``params`` differs from ``qm``'s: its
    record, words and FSM as read, and, stepped on each vector of ``stim``
    for its budget, its class and final state against the batch walk's, and
    the clock on which done rose against the design's cycle count."""
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
            ("FSM", design.arms == {state: (on_a, on_b) for state, _, _, on_a, on_b in transitions(qm.n_classes)}),
        ) if not same
    ]
    rows = [[int(v) for v in line.split()] for line in stim.splitlines()[1:]]
    classes, states, _ = walk_batch(qm, [row[:-1] for row in rows], want.acc_bits)
    for i, (row, cls, state) in enumerate(zip(rows, classes.tolist(), states.tolist())):
        got = run(design, row[:-1], row[-1])
        if row[-1] != want.cycles or got != (cls, state, want.cycles):
            problems.append(f"vector {i}: budget {row[-1]}, ran {got}, want {(cls, state, want.cycles)}")
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
    qm, codes = case
    bundle = generate(qm)
    stim, _, _ = emit_golden_vectors(qm, codes, 6)
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
}


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


def test_comments_are_never_read(emitted):
    # the header comments state every width; blanking them changes nothing read
    qm, top, params, stim = emitted
    blank = (re.sub(r"//[^\n]*", "//", text) for text in (top, params))
    assert mismatches(qm, *blank, stim) == []
