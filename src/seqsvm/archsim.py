"""Cycle-accurate model of the three-unit sequential classifier: parameter
storage, the single-MAC support vector engine and the DDAG control FSM.

Timing law: one word per cycle, bias first, so each evaluation takes m+1
cycles and a full classification takes exactly (n-1)*(m+1) cycles
(``latency_cycles``). The storage is the model's word table,
``QuantizedModel.words``, and the FSM state is the row it reads. The
storage kind (bespoke MUX constants or a 2-bit-dot crossbar ROM) never
changes what is read, so only ``cost.estimate`` takes it.

Every function takes the model alone: the DAG is that of ``qm.n_classes``.
``simulate`` runs one classification cycle by cycle and writes traces: the
engine's m+1 cycles per state run inside the scalar DAG walk of ``ddag``,
the scalar oracle of the batch path. ``simulate_batch`` runs every sample
through ``ddag.walk_batch``, the batched kernel, with the wrapping
accumulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ddag import _walk, state_bits_for, walk_batch
from .fxp import wrap
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


def simulate(qm: QuantizedModel, codes) -> tuple[int, SimTrace]:
    """Run one classification cycle by cycle.

    In each state the engine loads its row's bias, already shifted to the
    products' binary point, then multiplies and accumulates one weight per
    cycle. The accumulator wraps exactly as acc_width-bit hardware would;
    each wrap counts as one overflow, reported, never raised. Matches
    ddag_infer's class whenever no overflow occurred; the cycle total is
    (n-1)*(m+1) regardless of data. The trace holds one record per cycle.
    """
    acc_width = qm.profiled_acc_width()
    m = qm.n_features
    if len(codes) != m:
        raise ValueError(f"need {m} input codes, got {len(codes)}")
    codes = qm.input_codes([codes])[0].tolist()
    words = qm.words.tolist()
    shift = qm.bias_shift
    records: list[CycleRecord] = []
    cycles = overflows = 0

    def mac_cycles(state: int) -> bool:
        """The engine's m+1 cycles on row ``state``; its verdict y."""
        nonlocal cycles, overflows
        acc = 0
        for col, word in enumerate(words[state]):
            value = word << shift if col == 0 else acc + word * codes[col - 1]
            acc = wrap(value, acc_width)
            overflows += acc != value
            records.append(CycleRecord(cycles, state, col + 1, state, col, word, acc, col == m, int(acc >= 0)))
            cycles += 1
        return acc >= 0

    out_class, evaluations = _walk(qm.n_classes, mac_cycles)
    # the FSM stays in the state whose verdict chose the class
    final_state = evaluations[-1][0]
    return out_class, SimTrace(records, cycles, len(evaluations), overflows, final_state, out_class)


@dataclass
class BatchResult:
    accuracy: float
    overflows: int
    mean_cycles: float
    predictions: np.ndarray


def simulate_batch(qm: QuantizedModel, codes_matrix, labels) -> BatchResult:
    """Simulate every sample at once; accuracy over the given labels.

    Bit-exact with simulate per sample; every walk takes (n-1)*(m+1) cycles.
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
