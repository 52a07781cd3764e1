"""Cycle-accurate model of the three-unit sequential classifier: parameter
storage, the single-MAC support vector engine and the DDAG control FSM.

Timing law: one word per cycle, bias first, so each evaluation takes m+1
cycles and a full classification takes exactly (n-1)*(m+1) cycles
(``latency_cycles``). The storage is the model's word table,
``QuantizedModel.words``, and the FSM state is the row it reads. The
storage kind (bespoke MUX constants or a 2-bit-dot crossbar ROM) never
changes what is read, so only ``cost.estimate`` takes it.

Every function takes the model alone: the DAG is that of ``qm.n_classes``.
Both simulations run ``ddag._walk_table``, the library's one DAG walk, with
the wrapping accumulator. ``simulate_batch`` runs it through
``ddag.walk_batch`` for classes and overflow counts; ``simulate`` has it
record every step's state and accumulator, and returns one trace per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ddag import _walk_table, aligned_words, state_bits_for, walk_batch
from .quant import QuantizedModel


def latency_cycles(n_classes: int, n_features: int) -> int:
    """Cycles of one classification: n-1 evaluations of m+1 words each."""
    return (n_classes - 1) * (n_features + 1)


def counter_bits(n_features: int) -> int:
    """Counter register width: the counter spans 0..m+1."""
    return max(1, math.ceil(math.log2(n_features + 2)))


# ---------------------------------------------------------------------------
# Whole-architecture simulation
# ---------------------------------------------------------------------------


class CycleRecord(NamedTuple):
    """One cycle; a trace line prints the fields in this order."""

    cycle: int
    fsm_state: int
    counter: int
    fetched_row: int
    fetched_col: int
    fetched_word: int
    acc_after: int
    ready: bool
    y: int


@dataclass
class SimTrace:
    records: list
    cycles: int
    evaluations: int
    overflows: int
    final_state: int
    out_class: int


def simulate(qm: QuantizedModel, codes) -> list[SimTrace]:
    """Run each row of ``codes``, a samples x m code matrix, cycle by cycle;
    one trace per row, whose ``out_class`` is the row's class.

    In each state the engine loads its row's bias, already shifted to the
    products' binary point, then multiplies and accumulates one weight per
    cycle. The accumulator wraps exactly as acc_width-bit hardware would;
    each wrap counts as one overflow, reported, never raised. Every trace
    holds (n-1)*(m+1) records, one per cycle, built from what one recording
    pass of the batch walk wrote: each step's state and its accumulator
    after each word. Its buffers and traces grow with the rows, so the CLI
    passes one walk block of rows at a time.
    """
    acc_width = qm.profiled_acc_width()
    X = qm.input_codes(codes)
    n, m = qm.n_classes, qm.n_features
    states = np.empty((n - 1, len(X)), dtype=np.int64)
    accs = np.empty((n - 1, m + 1, len(X)), dtype=np.int64)
    ends = []
    for _, classes, final_states, overflows in _walk_table(n, aligned_words(qm), X, acc_width, (states, accs)):
        ends += zip(classes.tolist(), final_states.tolist(), overflows.tolist())
    words = qm.words.tolist()
    traces = []
    for (out_class, final_state, overflows), path, sums in zip(ends, states.T.tolist(),
                                                               accs.transpose(2, 0, 1).tolist()):
        records = [
            CycleRecord(step * (m + 1) + col, state, col + 1, state, col, word, acc, col == m, int(acc >= 0))
            for step, (state, step_sums) in enumerate(zip(path, sums))
            for col, (word, acc) in enumerate(zip(words[state], step_sums))
        ]
        traces.append(SimTrace(records, len(records), n - 1, overflows, final_state, out_class))
    return traces


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
    preds, _, overflows = walk_batch(qm, X, qm.profiled_acc_width())
    return BatchResult(
        accuracy=float(np.mean(preds == labels)),
        overflows=int(overflows.sum()),
        mean_cycles=float(latency_cycles(qm.n_classes, qm.n_features)),
        predictions=preds,
    )


def register_census(qm: QuantizedModel) -> dict:
    """The architecture's three registers: accumulator, column counter, FSM state."""
    census = {
        "acc": qm.acc_width,
        "counter": counter_bits(qm.n_features),
        "state": state_bits_for(qm.n_classes),
    }
    census["total"] = sum(census.values())
    return census


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


def trace_to_text(trace: SimTrace) -> str:
    """One record per line, fixed field order, '#' header."""
    line = " ".join(["%d"] * len(CycleRecord._fields))
    lines = ["# " + " ".join(CycleRecord._fields), *(line % rec for rec in trace.records)]
    lines.append(
        f"# totals cycles={trace.cycles} evaluations={trace.evaluations} "
        f"overflows={trace.overflows} class={trace.out_class} final_state={trace.final_state}"
    )
    return "\n".join(lines) + "\n"
