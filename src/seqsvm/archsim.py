"""Cycle-accurate model of the three-unit sequential classifier: parameter
storage (bespoke MUX constants or 2-bit-dot crossbar ROM), the single-MAC
support vector engine, and the DDAG control FSM.

Timing law: one word per cycle, bias first, so each evaluation takes m+1
cycles and a full classification takes exactly (n-1)*(m+1) cycles. Storage
kind never changes functional behavior; ROM access-slot overheads are charged
by the cost model, not here.

``simulate`` steps one classification cycle by cycle and writes traces; it is
the scalar oracle of the batch path. ``simulate_batch`` runs every sample
through ``ddag.walk_batch``, the batched kernel, with the wrapping
accumulator and the words decoded through ``StorageUnit.read``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .ddag import UNFINISHED_WALK, Ddag, walk_batch
from .fxp import fits, wrap
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
    rows: int
    words_per_row: int
    word_bits: int
    words: list            # rows x words_per_row signed integers (mux view)
    dots: list | None      # rom only: per word, big-endian 2-bit dot tuple
    adc_count: int = 4

    @property
    def cells_per_word(self) -> int:
        return math.ceil(self.word_bits / 2)

    def access_slots_per_word(self) -> int:
        if self.kind == "mux":
            return 1
        return math.ceil(self.word_bits / (2 * self.adc_count))

    def read(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.words_per_row):
            raise IndexError(f"storage read ({row},{col}) out of range")
        if self.kind == "mux":
            return self.words[row][col]
        value = 0
        for dot in self.dots[row][col]:
            value = (value << 2) | dot
        # dots hold ceil(word_bits/2)*2 bits; drop padding, then sign-extend
        value &= (1 << self.word_bits) - 1
        return wrap(value, self.word_bits)

    def table(self) -> np.ndarray:
        """Every stored word as read back, rows x words_per_row."""
        return np.array(
            [[self.read(r, c) for c in range(self.words_per_row)] for r in range(self.rows)],
            dtype=np.int64,
        )


def _pack_dots(value: int, word_bits: int) -> tuple:
    """Split a word's two's-complement bits into big-endian 2-bit dots.

    Odd widths pad at the top, so the first dot carries one payload bit.
    """
    n_dots = math.ceil(word_bits / 2)
    raw = value & ((1 << word_bits) - 1)
    return tuple((raw >> (2 * (n_dots - 1 - k))) & 0b11 for k in range(n_dots))


def compile_storage(qm: QuantizedModel, config: ArchConfig = ArchConfig()) -> StorageUnit:
    """Lay the model out as rows of [bias, w_1..w_m] words.

    MUX storage hardwires the integers; ROM packs each word into big-endian
    2-bit dots. Any parameter outside word_bits is a compiler bug and raises.
    """
    word_bits = qm.param_bits
    words = []
    for i, vec in enumerate(qm.vectors):
        row = [vec.bias] + list(vec.weights)
        for value in row:
            if not fits(value, word_bits):
                raise ValueError(f"row {i}: parameter {value} exceeds {word_bits}-bit words")
        words.append(row)

    dots = None
    if config.storage == "rom":
        dots = [[_pack_dots(value, word_bits) for value in row] for row in words]
    return StorageUnit(
        kind=config.storage,
        rows=len(qm.vectors),
        words_per_row=qm.n_features + 1,
        word_bits=word_bits,
        words=words,
        dots=dots,
        adc_count=config.adc_count,
    )


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
    acc_width = _profiled_width(qm)
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
    return walk_batch(storage.table(), qm.bias_shift, dag, codes, _profiled_width(qm))


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


def _profiled_width(qm: QuantizedModel) -> int:
    if qm.acc_width < 1:
        raise ValueError("model has no accumulator width; run profile_accumulator first")
    return qm.acc_width


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
# Trace export (doubles as golden data for HDL simulation)
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


def trace_to_json(trace: SimTrace) -> str:
    doc = {
        "records": [asdict(rec) for rec in trace.records],
        "totals": {
            "cycles": trace.cycles,
            "evaluations": trace.evaluations,
            "overflows": trace.overflows,
            "class": trace.out_class,
            "final_state": trace.final_state,
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
