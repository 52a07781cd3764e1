"""Per-layer metrics from the spans of one traced pass.

A pass is the workload's CLI commands, one process each; `processes` holds
the span lists that `probed_cli.py --spans` wrote for them. A span's self
time is its duration minus the time its child spans cover, so the self
times of all spans in a process add up to its `cli.main` span. What the
process spends outside `cli.main` (interpreter start, imports, span output)
is `process.startup_s`; with it, the module self times account for the
traced wall time of the pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

MODULES = ("dataset", "trainer", "quant", "ddag", "archsim", "hdlgen", "cost", "modelio", "cli")
RUN_STAGES = ("ingest", "train", "quantize", "simulate", "gen-hdl", "cost", "summary")
GE_UNITS = ("storage", "engine", "fsm", "registers", "total")
#: Measured and printed, but left out of BENCHMARK.json: each is 0 on every
#: run of some workload (OvA and `compare` run only in `train`, `--trace`
#: only in `verify`, and only `compare` loads a model document).
UNLISTED = {
    "trainer.train_ova.s": "s",
    "trainer.train_ova.updates_per_s": "1/s",
    "archsim.trace.s": "s",
    "cli.compare.s": "s",
    "modelio.load_model_doc.s": "s",
}


@dataclass
class Span:
    name: str
    seconds: float
    parent: int
    counts: dict
    self_seconds: float = 0.0
    ancestors: set = field(default_factory=set)


def flatten(processes: list[list]) -> list[Span]:
    """Concatenate per-process span lists, re-basing parent indices."""
    spans: list[Span] = []
    for raw in processes:
        base = len(spans)
        for name, start, end, parent, counts in raw:
            spans.append(Span(name, end - start, parent + base if parent >= 0 else -1, counts or {}))
    for span in spans:
        span.self_seconds = span.seconds
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            parent.self_seconds -= span.seconds
            span.ancestors = parent.ancestors | {parent.name}
    return spans


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(processes: list[list], wall_seconds: float, out: Path) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    spans = flatten(processes)

    def pick(name, inside=None, outside=None):
        return [
            s for s in spans
            if s.name == name
            and (inside is None or inside in s.ancestors)
            and (outside is None or outside not in s.ancestors)
        ]

    def secs(chosen):
        return sum(s.seconds for s in chosen)

    def work(chosen, key):
        return sum(s.counts.get(key, 0) for s in chosen)

    m: dict[str, float] = {}
    load = pick("dataset.load_csv")
    m["dataset.load_csv.calls"] = len(load)
    m["dataset.load_csv.s"] = secs(load)
    m["dataset.split.s"] = secs(pick("dataset.split"))

    m["trainer.random_search.s"] = secs(pick("trainer.random_search"))
    final = pick("trainer.train_ovo", outside="trainer.random_search")
    m["trainer.train_ovo.s"] = secs(final)
    m["trainer.train_ovo.updates_per_s"] = _rate(work(final, "updates"), secs(final))
    ova = pick("trainer.train_ova")
    m["trainer.train_ova.s"] = secs(ova)
    m["trainer.train_ova.updates_per_s"] = _rate(work(ova, "updates"), secs(ova))

    m["quant.search_param_bits.self_s"] = sum(s.self_seconds for s in pick("quant.search_param_bits"))
    m["quant.widths_tried"] = len(pick("quant.quantize_model", inside="quant.search_param_bits"))
    m["quant.profile_accumulator.s"] = secs(pick("quant.profile_accumulator"))

    pq, pf = pick("ddag.ddag_predict_quant"), pick("ddag.ddag_predict_float")
    m["ddag.predict_quant.samples_per_s"] = _rate(work(pq, "samples"), secs(pq))
    m["ddag.predict_quant.calls"] = len(pq)
    m["ddag.predict_float.samples_per_s"] = _rate(work(pf, "samples"), secs(pf))

    batch = pick("archsim.simulate_batch")
    m["archsim.simulate_batch.s"] = secs(batch)
    m["archsim.simulate_batch.cycles_per_s"] = _rate(work(batch, "cycles"), secs(batch))
    m["archsim.simulate_batch.samples_per_s"] = _rate(work(batch, "samples"), secs(batch))
    m["archsim.trace.s"] = secs(pick("archsim.simulate")) + secs(pick("archsim.trace_to_text"))
    m["archsim.overflows"] = work(batch, "overflows")

    gen, vec = pick("hdlgen.generate"), pick("hdlgen.emit_golden_vectors")
    m["hdlgen.generate.s"] = secs(gen)
    m["hdlgen.verilog_bytes"] = work(gen, "bytes")
    m["hdlgen.emit_golden_vectors.s"] = secs(vec)
    m["hdlgen.vectors_per_s"] = _rate(work(vec, "vectors"), secs(vec))

    m["cost.compare_storage.s"] = secs(pick("cost.compare_storage"))
    ge = json.loads((out / "cost_report.json").read_text())["gate_equivalents"]
    for unit in GE_UNITS:
        m[f"cost.ge.{unit}"] = ge[unit]

    saves = pick("modelio.save_model_doc")
    m["modelio.save_model_doc.s"] = secs(saves)
    m["modelio.load_model_doc.s"] = secs(pick("modelio.load_model_doc"))
    m["modelio.bytes"] = work(saves, "bytes")

    for stage in RUN_STAGES:
        m[f"cli.stage.{stage}.s"] = secs(pick(f"cli.stage.{stage}"))
    m["cli.compare.s"] = secs(pick("cli.compare"))

    for module in MODULES:
        m[f"{module}.self_s"] = sum(s.self_seconds for s in spans if s.name.startswith(module + "."))
    m["process.startup_s"] = wall_seconds - secs(pick("cli.main"))
    return m
