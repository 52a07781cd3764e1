"""Cycle-accurate model of the three-unit sequential classifier: parameter
storage (bespoke MUX constants or 2-bit-dot crossbar ROM), the single-MAC
support vector engine, and the DDAG control FSM.

Timing law: one word per cycle, bias first, so each evaluation takes m+1
cycles and a full classification takes exactly (n-1)*(m+1) cycles. Storage
kind never changes functional behavior: both kinds hold the same word table,
and the cost model charges the ROM's dot cells and access slots.

``simulate`` steps one classification cycle by cycle and writes traces; it is
the scalar oracle of the batch path. ``simulate_batch`` runs every sample
through ``ddag.walk_batch``, the batched kernel, with the wrapping
accumulator over the storage unit's word table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ddag import UNFINISHED_WALK, Ddag, walk_batch
from .fxp import max_int, min_int, wrap
from .quant import QuantizedModel


@dataclass(frozen=True)
class ArchConfig:
    storage: str = "mux"  # "mux" | "rom"
    adc_count: int = 4    # ROM reads 2*adc_count bits per access slot

    def __post_init__(self):
        if self.storage not in ("mux", "rom"):
            raise ValueError(f"unknown storage kind {self.storage!r}")
        if not 1 <= self.adc_count <= 4:
            raise ValueError("adc_count must be in [1, 4]")


# ---------------------------------------------------------------------------
# Parameter storage
# ---------------------------------------------------------------------------


@dataclass
class StorageUnit:
    kind: str
    word_bits: int
    words: np.ndarray  # int64, rows x (m+1): row r = [bias, w_1..w_m] of vector r

    @property
    def rows(self) -> int:
        return self.words.shape[0]

    @property
    def words_per_row(self) -> int:
        return self.words.shape[1]

    def read(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.words_per_row):
            raise IndexError(f"storage read ({row},{col}) out of range")
        return int(self.words[row, col])

    def table(self) -> np.ndarray:
        """Every stored word, rows x words_per_row."""
        return self.words


def compile_storage(qm: QuantizedModel, config: ArchConfig = ArchConfig()) -> StorageUnit:
    """Lay the model out as rows of [bias, w_1..w_m] words.

    Any parameter outside word_bits is a compiler bug and raises.
    """
    word_bits = qm.param_bits
    words = qm.word_table()
    words.setflags(write=False)
    bad = (words < min_int(word_bits)) | (words > max_int(word_bits))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError(f"row {row}: parameter {words[row, col]} exceeds {word_bits}-bit words")
    return StorageUnit(config.storage, word_bits, words)


# ---------------------------------------------------------------------------
# Support vector engine (single MAC)
# ---------------------------------------------------------------------------


@dataclass
class EngineState:
    acc: int = 0
    counter: int = 0     # words consumed so far, in [0, m+1]
    ready: bool = False  # counter reached m+1
    y: int = 0           # 1 iff acc >= 0 (meaningful at ready)


def engine_step(
    st: EngineState, word: int, input_code: int, acc_width: int, n_features: int
) -> tuple[EngineState, bool]:
    """Advance the engine by one cycle; returns (state, overflowed).

    Counter 0 loads the already alignment-shifted bias; later cycles multiply
    and accumulate. Overflow wraps exactly as acc_width-bit hardware would and
    is reported, never raised.
    """
    if st.ready:
        raise ValueError("engine already ready; reset before reuse")
    value = word if st.counter == 0 else st.acc + word * input_code
    st.acc = wrap(value, acc_width)
    overflowed = st.acc != value
    st.counter += 1
    st.ready = st.counter == n_features + 1
    st.y = 1 if st.acc >= 0 else 0
    return st, overflowed


def counter_bits(n_features: int) -> int:
    """Counter register width: the counter spans 0..m+1."""
    return max(1, math.ceil(math.log2(n_features + 2)))


# ---------------------------------------------------------------------------
# Control FSM
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FsmState:
    state: int
    done: bool = False
    out_class: int | None = None


def fsm_step(fs: FsmState, dag: Ddag, y: int) -> FsmState:
    """Consume one engine verdict; leaves keep the deciding node as the state."""
    if fs.done:
        raise ValueError("FSM already done")
    node = dag.nodes[fs.state]
    kind, target = node.on_a_wins if y else node.on_b_wins
    if kind == "leaf":
        return FsmState(fs.state, True, target)
    return FsmState(target, False, None)


# ---------------------------------------------------------------------------
# Whole-architecture simulation
# ---------------------------------------------------------------------------


@dataclass
class CycleRecord:
    cycle: int
    fsm_state: int
    counter: int
    fetched_row: int
    fetched_col: int
    fetched_word: int
    acc_after: int
    ready: bool
    y: int


TRACE_FIELDS = (
    "cycle", "fsm_state", "counter", "fetched_row", "fetched_col",
    "fetched_word", "acc_after", "ready", "y",
)


@dataclass
class SimTrace:
    records: list
    cycles: int
    evaluations: int
    overflows: int
    final_state: int
    out_class: int


def simulate(
    qm: QuantizedModel,
    dag: Ddag,
    storage: StorageUnit,
    codes,
    record: bool = True,
) -> tuple[int, SimTrace]:
    """Run one classification cycle by cycle.

    Matches ddag_infer's class whenever no overflow occurred; the cycle total
    is (n-1)*(m+1) regardless of data. Pass record=False to skip per-cycle
    records in bulk runs (totals are still exact).
    """
    acc_width = qm.profiled_acc_width()
    m = qm.n_features
    if len(codes) != m:
        raise ValueError(f"need {m} input codes, got {len(codes)}")
    codes = qm.input_codes([codes])[0].tolist()
    shift = qm.bias_shift

    fs = FsmState(dag.initial_state)
    records: list[CycleRecord] = []
    cycle = 0
    evaluations = 0
    overflows = 0
    for _ in range(dag.n_classes - 1):
        row = dag.nodes[fs.state].row_index
        st = EngineState()
        for col in range(m + 1):
            word = storage.read(row, col)
            if col == 0:
                st, ovf = engine_step(st, word << shift, 0, acc_width, m)
            else:
                st, ovf = engine_step(st, word, codes[col - 1], acc_width, m)
            overflows += ovf
            if record:
                records.append(
                    CycleRecord(cycle, fs.state, st.counter, row, col, word, st.acc, st.ready, st.y)
                )
            cycle += 1
        evaluations += 1
        fs = fsm_step(fs, dag, st.y)
        if fs.done:
            break
    else:
        raise ValueError(UNFINISHED_WALK.format(dag.n_classes - 1))
    return fs.out_class, SimTrace(records, cycle, evaluations, overflows, fs.state, fs.out_class)


@dataclass
class BatchResult:
    accuracy: float
    overflows: int
    mean_cycles: float
    predictions: np.ndarray


def walk_storage(qm: QuantizedModel, dag: Ddag, storage: StorageUnit, codes_matrix):
    """The wrapped batch kernel over the words the storage unit reads back.

    Returns walk_batch's (classes, final_states, overflows) per sample.
    """
    codes = qm.input_codes(codes_matrix)
    return walk_batch(storage.table(), qm.bias_shift, dag, codes, qm.profiled_acc_width())


def simulate_batch(
    qm: QuantizedModel,
    dag: Ddag,
    storage: StorageUnit,
    codes_matrix,
    labels,
) -> BatchResult:
    """Simulate every sample at once; accuracy over the given labels.

    Bit-exact with simulate per sample; every walk takes (n-1)*(m+1) cycles.
    """
    X = np.asarray(codes_matrix)
    labels = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empty or malformed code matrix")
    preds, _, overflows = walk_storage(qm, dag, storage, X)
    return BatchResult(
        accuracy=float(np.mean(preds == labels)),
        overflows=int(overflows.sum()),
        mean_cycles=float((dag.n_classes - 1) * (qm.n_features + 1)),
        predictions=preds,
    )


def register_census(qm: QuantizedModel, dag: Ddag) -> dict:
    """The architecture's three registers: accumulator, column counter, FSM state."""
    census = {
        "acc": qm.acc_width,
        "counter": counter_bits(qm.n_features),
        "state": dag.state_bits,
    }
    census["total"] = sum(census.values())
    return census


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


def trace_to_text(trace: SimTrace) -> str:
    """One record per line, fixed field order, '#' header."""
    lines = ["# " + " ".join(TRACE_FIELDS)]
    for rec in trace.records:
        lines.append(
            f"{rec.cycle} {rec.fsm_state} {rec.counter} {rec.fetched_row} "
            f"{rec.fetched_col} {rec.fetched_word} {rec.acc_after} {int(rec.ready)} {rec.y}"
        )
    lines.append(
        f"# totals cycles={trace.cycles} evaluations={trace.evaluations} "
        f"overflows={trace.overflows} class={trace.out_class} final_state={trace.final_state}"
    )
    return "\n".join(lines) + "\n"
