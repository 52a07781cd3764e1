"""Cycle-accurate model of the three-unit sequential classifier: parameter
storage, the single-MAC support vector engine and the DDAG control FSM.

Timing law: one word per cycle, bias first, so each evaluation takes m+1
cycles and a full classification takes exactly (n-1)*(m+1) cycles. The
storage is the model's word table, ``QuantizedModel.words``, and the FSM
state is the row it reads. The storage kind (bespoke MUX constants or a
2-bit-dot crossbar ROM) never changes what is read, so only
``cost.estimate`` takes it.

``rtl(qm)`` is the design's register-transfer record: every width and count
of the hardware, derived once. ``hdlgen`` prints it, ``cost`` prices it, and
the simulators and the golden vectors take their accumulator width and cycle
count from it.

Every function takes the model alone: the DAG is that of ``qm.n_classes``.
Both simulations run ``ddag._walk_table``, the library's one DAG walk, with
the wrapping accumulator. ``simulate_batch`` runs it through
``ddag.walk_batch`` for classes and overflow counts; ``simulate`` has it
record every step's state and accumulator, and yields one trace per sample,
a record per clock of the ``_top.v`` signals that ``CycleRecord`` names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .ddag import _walk_table, kernel_words, pair_index, state_bits_for, walk_batch
from .fxp import check_int
from .quant import QuantizedModel


@dataclass(frozen=True)
class Rtl:
    """The widths and counts of one model's design, as ``rtl`` derives them."""

    input_bits: int     # one unsigned input code
    word_bits: int      # one stored word
    acc_bits: int       # the wrapping accumulator
    counter_bits: int   # the column counter, which spans 0..m
    state_bits: int     # the FSM state, which is also the storage row address
    class_bits: int     # a class id 0..n-1
    bias_shift: int     # the bias loads as word << bias_shift
    initial_state: int  # the row of pair (0, n-1)
    cycles: int         # of one classification: n-1 evaluations of m+1 words
    register_bits: int  # accumulator, counter and state


def rtl(qm: QuantizedModel) -> Rtl:
    """The design of ``qm``; an error if profile_accumulator has not sized its accumulator."""
    check_int("acc_width (run profile_accumulator first)", qm.acc_width, 1)
    n, m = qm.n_classes, qm.n_features
    counter_bits = m.bit_length()
    state_bits = state_bits_for(n)
    return Rtl(
        input_bits=qm.input_fmt.total_bits,
        word_bits=qm.param_bits,
        acc_bits=qm.acc_width,
        counter_bits=counter_bits,
        state_bits=state_bits,
        class_bits=max(1, (n - 1).bit_length()),
        bias_shift=qm.bias_shift,
        initial_state=pair_index(0, n - 1, n),
        cycles=(n - 1) * (m + 1),
        register_bits=qm.acc_width + counter_bits + state_bits,
    )


# ---------------------------------------------------------------------------
# Whole-architecture simulation
# ---------------------------------------------------------------------------


class CycleRecord(NamedTuple):
    """One clock of a classification: each field is the ``_top.v`` signal of
    that name during clock ``cycle``, before its edge; cycle 0 is the first
    clock after ``start``. A trace line prints the fields in this order."""

    cycle: int
    state: int     # the FSM state, which is also the storage row read
    counter: int   # the column read, 0 (the bias) .. m; at m, y is the verdict
    word: int      # the stored word at (state, counter)
    acc_next: int  # the accumulator the edge loads, wrapped to acc_bits
    y: int         # 1 when acc_next >= 0


@dataclass
class SimTrace:
    records: list
    overflows: int
    final_state: int
    out_class: int


def simulate(qm: QuantizedModel, codes) -> Iterator[SimTrace]:
    """Run each row of ``codes``, a samples x m code matrix, cycle by cycle;
    one trace per row, whose ``out_class`` is the row's class.

    In each state the engine loads its row's bias, already shifted to the
    products' binary point, then multiplies and accumulates one weight per
    cycle. The accumulator wraps exactly as acc_width-bit hardware would;
    each wrap counts as one overflow, reported, never raised. Every trace
    holds (n-1)*(m+1) records, one per cycle, built from what one recording
    pass of the batch walk wrote: each step's state and its accumulator
    after each word. Checks the model and codes at once, then yields the
    traces one walk block at a time, so its memory does not grow with the
    rows.
    """
    acc_width = rtl(qm).acc_bits
    X = qm.input_codes(codes)
    return _traces(qm, _walk_table(qm.n_classes, kernel_words(qm, acc_width), X, acc_width, record=True))


def _traces(qm: QuantizedModel, blocks):
    """simulate's traces, from the blocks of its recording walk."""
    m = qm.n_features
    words = qm.words.tolist()
    for _, *ends, (states, accs) in blocks:
        rows = zip(zip(*(end.tolist() for end in ends)), states.T.tolist(), accs.transpose(2, 0, 1).tolist())
        for (out_class, final_state, overflows), path, sums in rows:
            records = [
                CycleRecord(step * (m + 1) + col, state, col, word, acc, int(acc >= 0))
                for step, (state, step_sums) in enumerate(zip(path, sums))
                for col, (word, acc) in enumerate(zip(words[state], step_sums))
            ]
            yield SimTrace(records, overflows, final_state, out_class)


@dataclass
class BatchResult:
    accuracy: float
    overflows: int
    mean_cycles: float
    predictions: np.ndarray


def simulate_batch(qm: QuantizedModel, codes_matrix, labels) -> BatchResult:
    """Simulate every sample at once; accuracy over the given labels.

    The classes and overflows of simulate's traces; every walk takes
    (n-1)*(m+1) cycles.
    """
    X = np.asarray(codes_matrix)
    labels = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empty or malformed code matrix")
    if labels.shape != (len(X),):
        raise ValueError(f"need one label for each of the {len(X)} code rows, got labels of shape {labels.shape}")
    design = rtl(qm)
    preds, _, overflows = walk_batch(qm, X, design.acc_bits)
    return BatchResult(
        accuracy=float(np.mean(preds == labels)),
        overflows=int(overflows.sum()),
        mean_cycles=float(design.cycles),
        predictions=preds,
    )


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


def trace_to_text(trace: SimTrace) -> str:
    """'#' header, one record per line, then the totals; an evaluation starts where counter is 0."""
    records = trace.records
    line = " ".join(["%d"] * len(CycleRecord._fields))
    lines = ["# " + " ".join(CycleRecord._fields), *(line % rec for rec in records)]
    lines.append(
        f"# totals cycles={len(records)} evaluations={sum(rec.counter == 0 for rec in records)} "
        f"overflows={trace.overflows} class={trace.out_class} final_state={trace.final_state}"
    )
    return "\n".join(lines) + "\n"
