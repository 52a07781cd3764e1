"""Analytic area/power/latency estimation for the generated designs under a
printed-technology (EGFET-style) configuration.

Everything is counted in NAND-gate equivalents (GE) from documented textbook
approximations, then converted to area by a calibrated cm^2-per-GE
coefficient. Power in this technology is mostly static, so it is modeled as
proportional to area. Absolute areas are only as good as the calibration;
the contract is relative comparisons (mux vs rom, sequential vs parallel).

Gate-equivalent formulas:
  array multiplier (a x b bits)   a*b AND terms + 5*(a-1)*b full-adder GE
  ripple adder (w bits)           5*w
  mux storage                     word_bits * rows * words * mux_per_input_cost
  rom storage                     rows * words * ceil(word_bits/2) * rom_cell_cost
                                  + adc_count * adc_cost
  control FSM                     states * (2*state_bits + row_bits) * mux_per_input_cost
                                  + states (decode)
  registers                       register_bits * dff_nand_equiv
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .archsim import ArchConfig, counter_bits, register_census
from .ddag import Ddag
from .quant import QuantizedModel

FULL_ADDER_GE = 5.0


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
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be > 0")


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


def _storage_ge(qm: QuantizedModel, arch: ArchConfig, tech: TechConfig) -> float:
    rows = qm.n_vectors
    words = qm.n_features + 1
    if arch.storage == "mux":
        return qm.param_bits * rows * words * tech.mux_per_input_cost
    cells = rows * words * math.ceil(qm.param_bits / 2)
    return cells * tech.rom_cell_cost + arch.adc_count * tech.adc_cost


def _engine_ge(qm: QuantizedModel, tech: TechConfig) -> float:
    ib = qm.input_fmt.total_bits
    ge = _mult_ge(qm.param_bits, ib)
    ge += _adder_ge(qm.acc_width)
    ge += qm.acc_width * tech.mux_per_input_cost          # bias-init select
    ge += qm.n_features * ib * tech.mux_per_input_cost    # input bus select
    return ge


def _fsm_ge(qm: QuantizedModel, dag: Ddag, tech: TechConfig) -> float:
    states = len(dag.nodes)
    row_bits = max(1, (qm.n_vectors - 1).bit_length())
    return states * (2 * dag.state_bits + row_bits) * tech.mux_per_input_cost + states


def estimate(
    qm: QuantizedModel,
    dag: Ddag,
    arch: ArchConfig = ArchConfig(),
    tech: TechConfig = TechConfig(),
) -> CostReport:
    """Cost of the sequential design for one storage configuration."""
    qm.profiled_acc_width()
    census = register_census(qm, dag)
    ge = {
        "storage": _storage_ge(qm, arch, tech),
        "engine": _engine_ge(qm, tech),
        "fsm": _fsm_ge(qm, dag, tech),
        "registers": census["total"] * tech.dff_nand_equiv,
    }
    ge["total"] = sum(ge.values())
    area = ge["total"] * tech.nand_equiv_area

    cycles = (qm.n_classes - 1) * (qm.n_features + 1)
    slots = 1
    if arch.storage == "rom":
        slots = math.ceil(qm.param_bits / (2 * arch.adc_count))
    return CostReport(
        design=f"sequential-{arch.storage}",
        gate_equivalents=ge,
        area_cm2=area,
        power_mw=tech.power_per_area * area,
        latency_cycles=cycles,
        latency_seconds=cycles * slots / tech.f_clk,
        register_bits=census["total"],
        access_slots=slots,
        f_clk=tech.f_clk,
    )


def compare_storage(
    qm: QuantizedModel,
    dag: Ddag,
    tech: TechConfig = TechConfig(),
    adc_count: int = 4,
) -> dict:
    """The mux-vs-rom trade-off on one and the same model."""
    return {
        "mux": estimate(qm, dag, ArchConfig("mux"), tech),
        "rom": estimate(qm, dag, ArchConfig("rom", adc_count), tech),
    }


def compare_parallel(qm: QuantizedModel, tech: TechConfig = TechConfig()) -> CostReport:
    """Fully parallel baseline: one multiplier per weight, adder tree per
    vector, and a max-wins voter; parameters hardwired, no registers."""
    acc_width = qm.profiled_acc_width()
    ib = qm.input_fmt.total_bits
    m = qm.n_features
    per_vector = m * _mult_ge(qm.param_bits, ib) + m * _adder_ge(acc_width)
    vote_bits = max(1, (qm.n_classes - 1).bit_length())
    voter = FULL_ADDER_GE * vote_bits * (2 * qm.n_classes - 1) + qm.n_vectors
    ge = {
        "storage": 0.0,
        "engine": qm.n_vectors * per_vector,
        "fsm": voter,
        "registers": 0.0,
    }
    ge["total"] = sum(ge.values())
    area = ge["total"] * tech.nand_equiv_area
    return CostReport(
        design="parallel",
        gate_equivalents=ge,
        area_cm2=area,
        power_mw=tech.power_per_area * area,
        latency_cycles=1,
        latency_seconds=1.0 / tech.f_clk,
        register_bits=0,
        access_slots=1,
        f_clk=tech.f_clk,
    )


def calibrate_power(points) -> float:
    """Least-squares slope through the origin for (area, power) pairs."""
    pts = [(float(a), float(p)) for a, p in points]
    if len(pts) < 2:
        raise ValueError("need at least two (area, power) points")
    if any(a <= 0 for a, _ in pts):
        raise ValueError("areas must be positive")
    num = sum(a * p for a, p in pts)
    den = sum(a * a for a, _ in pts)
    return num / den


# ---------------------------------------------------------------------------
# Config file and report formatting
# ---------------------------------------------------------------------------


def save_tech(tech: TechConfig, path) -> None:
    lines = ["# printed-technology cost coefficients (flat key=value)"]
    for f in fields(tech):
        lines.append(f"{f.name}={getattr(tech, f.name)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
            key = key.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = float(raw.strip())
    return TechConfig(**values)


def report_to_dict(report: CostReport) -> dict:
    return asdict(report)


def format_report_table(named_reports) -> str:
    """Aligned text table over (label, CostReport) pairs."""
    header = ("Design", "GE", "Area (cm2)", "Power (mW)", "Freq. (Hz)", "Cycles", "Latency (s)")
    rows = [header]
    for label, rep in named_reports:
        rows.append(
            (
                label,
                f"{rep.total_ge:.0f}",
                f"{rep.area_cm2:.2f}",
                f"{rep.power_mw:.2f}",
                f"{rep.f_clk:.0f}",
                f"{rep.latency_cycles}",
                f"{rep.latency_seconds:.3f}",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
