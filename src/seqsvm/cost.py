"""Analytic area/power/latency estimation for the generated designs under a
printed-technology (EGFET-style) configuration.

Everything is counted in NAND-gate equivalents (GE) from documented textbook
approximations, then converted to area by a calibrated cm^2-per-GE
coefficient. Power in this technology is mostly static, so it is modeled as
proportional to area. Absolute areas are only as good as the calibration;
the contract is relative comparisons (mux vs rom, sequential vs parallel).
Every width, count and FSM state priced is the design's own, ``archsim.rtl(qm)``.

Gate-equivalent formulas:
  array multiplier (a x b bits)   a*b AND terms + 5*(a-1)*b full-adder GE
  ripple adder (w bits)           5*w
  mux storage                     word_bits * rows * words * mux_per_input_cost
  rom storage                     rows * words * ceil(word_bits/2) * rom_cell_cost
                                  + ADC_COUNT * adc_cost
  control FSM                     states * (2*state_bits + row_bits) * mux_per_input_cost
                                  + states (decode); states = len(rtl.arms), row_bits = state_bits (row = state)
  registers                       register_bits * dff_nand_equiv (acc + counter + state)

Both STORAGE_KINDS serve the same words, one per cycle; a ROM word wider than
the 8 bits its ADC_COUNT 2-bit ADCs read per access slot takes two slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .archsim import Rtl, rtl
from .fxp import finite_number
from .quant import QuantizedModel

FULL_ADDER_GE = 5.0
#: Storage kinds: bespoke MUX constants, or a crossbar ROM of 2-bit printed dots.
STORAGE_KINDS = ("mux", "rom")
#: 2-bit readout ADCs of the ROM, so it reads 8 bits per access slot.
ADC_COUNT = 4


@dataclass(frozen=True)
class TechConfig:
    nand_equiv_area: float = 1.0e-3   # cm^2 per NAND-equivalent, calibrated
    dff_nand_equiv: float = 6.0       # a printed D flip-flop costs ~6 NANDs
    power_per_area: float = 1.13      # mW per cm^2; static power dominates
    rom_cell_cost: float = 0.92       # GE per printed 2-bit dot (decode amortized)
    adc_cost: float = 35.0            # GE per 2-bit readout ADC
    mux_per_input_cost: float = 1.0   # GE per selectable stored bit
    f_clk: float = 20.0               # Hz

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (finite_number(value) and value > 0):
                raise ValueError(f"{f.name} must be finite and > 0, got {value!r}")


@dataclass
class CostReport:
    design: str
    gate_equivalents: dict
    area_cm2: float
    power_mw: float
    latency_cycles: int
    latency_seconds: float
    register_bits: int
    access_slots: int
    f_clk: float

    @property
    def total_ge(self) -> float:
        return self.gate_equivalents["total"]


def _mult_ge(a_bits: int, b_bits: int) -> float:
    return a_bits * b_bits + FULL_ADDER_GE * (a_bits - 1) * b_bits


def _adder_ge(width: int) -> float:
    return FULL_ADDER_GE * width


def _storage_ge(qm: QuantizedModel, r: Rtl, storage: str, tech: TechConfig) -> float:
    rows, words = qm.words.shape
    if storage == "mux":
        return r.word_bits * rows * words * tech.mux_per_input_cost
    cells = rows * words * math.ceil(r.word_bits / 2)
    return cells * tech.rom_cell_cost + ADC_COUNT * tech.adc_cost


def _engine_ge(qm: QuantizedModel, r: Rtl, tech: TechConfig) -> float:
    ge = _mult_ge(r.word_bits, r.input_bits)
    ge += _adder_ge(r.acc_bits)
    ge += r.acc_bits * tech.mux_per_input_cost                      # bias-init select
    ge += qm.n_features * r.input_bits * tech.mux_per_input_cost    # input bus select
    return ge


def _fsm_ge(r: Rtl, tech: TechConfig) -> float:
    states = len(r.arms)  # one per emitted case arm; each drives its own id as the row
    return states * (2 * r.state_bits + r.state_bits) * tech.mux_per_input_cost + states


def _report(design: str, ge: dict, tech: TechConfig, cycles: int, slots: int, register_bits: int) -> CostReport:
    """The report of a design from its GE per unit: adds the total and derives
    area, power and latency."""
    ge["total"] = sum(ge.values())
    area = ge["total"] * tech.nand_equiv_area
    latency = cycles * slots / tech.f_clk
    return CostReport(design, ge, area, tech.power_per_area * area, cycles, latency, register_bits, slots, tech.f_clk)


def estimate(qm: QuantizedModel, storage: str = "mux", tech: TechConfig = TechConfig()) -> CostReport:
    """Cost of the sequential design with ``storage``, one of STORAGE_KINDS."""
    if storage not in STORAGE_KINDS:
        raise ValueError(f"unknown storage kind {storage!r}")
    r = rtl(qm)
    ge = {
        "storage": _storage_ge(qm, r, storage, tech),
        "engine": _engine_ge(qm, r, tech),
        "fsm": _fsm_ge(r, tech),
        "registers": r.register_bits * tech.dff_nand_equiv,
    }
    slots = math.ceil(r.word_bits / (2 * ADC_COUNT)) if storage == "rom" else 1
    return _report(f"sequential-{storage}", ge, tech, r.cycles, slots, r.register_bits)


def compare_storage(qm: QuantizedModel, n_classes: int | None = None, tech: TechConfig = TechConfig()) -> dict:
    """The mux-vs-rom trade-off on one and the same model. ``n_classes``, if
    given, must be ``qm.n_classes``: kept only for bench/shapes.py, which
    passes ``ddag.build_ddag(n)``, until the benchmark next changes."""
    if n_classes is not None and n_classes != qm.n_classes:
        raise ValueError(f"a {n_classes}-class DAG does not fit a {qm.n_classes}-class model")
    return {storage: estimate(qm, storage, tech) for storage in STORAGE_KINDS}


def compare_parallel(qm: QuantizedModel, tech: TechConfig = TechConfig()) -> CostReport:
    """Fully parallel baseline: one multiplier per weight, adder tree per
    vector, and a max-wins voter; parameters hardwired, no registers."""
    r = rtl(qm)
    m = qm.n_features
    per_vector = m * _mult_ge(r.word_bits, r.input_bits) + m * _adder_ge(r.acc_bits)
    # a vote count 0..n-1 is as wide as a class id
    voter = FULL_ADDER_GE * r.class_bits * (2 * qm.n_classes - 1) + len(qm.words)
    ge = {
        "storage": 0.0,
        "engine": len(qm.words) * per_vector,
        "fsm": voter,
        "registers": 0.0,
    }
    return _report("parallel", ge, tech, cycles=1, slots=1, register_bits=0)


# ---------------------------------------------------------------------------
# Config file and report formatting
# ---------------------------------------------------------------------------


def load_tech(path) -> TechConfig:
    known = {f.name for f in fields(TechConfig)}
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                values[key] = float(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} value {raw!r} is not a number") from None
    return TechConfig(**values)


def format_report_table(named_reports) -> str:
    """Aligned text table over (label, CostReport) pairs."""
    header = ("Design", "GE", "Area (cm2)", "Power (mW)", "Freq. (Hz)", "Cycles", "Latency (s)")
    rows = [header] + [
        (label, f"{rep.total_ge:.0f}", f"{rep.area_cm2:.2f}", f"{rep.power_mw:.2f}", f"{rep.f_clk:.0f}",
         f"{rep.latency_cycles}", f"{rep.latency_seconds:.3f}")
        for label, rep in named_reports
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
