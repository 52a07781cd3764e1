"""Hardware cost of the five benchmark shapes, for MUX and ROM storage.

The shapes are the (classes, features) pairs of the repository's test
helpers, copied here as constants. Each model is a seeded random 8-bit
integer model, profiled on 200 random input codes, built through the public
API only. The table is deterministic: any change in it is a change of the
cost model or of the accumulator sizing, never noise.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from seqsvm.cost import compare_storage
from seqsvm.ddag import build_ddag
from seqsvm.fxp import U4_4
from seqsvm.quant import QuantizedModel, QuantVector, profile_accumulator

SHAPES = {
    "cardio": (3, 21),
    "dermatology": (6, 33),
    "pendigits": (10, 17),
    "redwine": (6, 11),
    "whitewine": (7, 11),
}
PARAM_BITS = 8
MODEL_SEED = 0
PROFILE_SAMPLES = 200
REFERENCE = Path(__file__).with_name("shapes_reference.json")


def shape_model(n: int, m: int) -> QuantizedModel:
    rng = np.random.default_rng([MODEL_SEED, n, m, PARAM_BITS])
    top = (1 << (PARAM_BITS - 1)) - 1
    vectors = []
    for a in range(n):
        for b in range(a + 1, n):
            weights = rng.integers(-top, top + 1, m)
            vectors.append(QuantVector(a, b, [int(w) for w in weights], int(rng.integers(-top, top + 1))))
    qm = QuantizedModel(n, m, U4_4, PARAM_BITS, vectors, [1.0] * len(vectors))
    profile_accumulator(qm, rng.integers(0, U4_4.raw_max + 1, (PROFILE_SAMPLES, m)))
    return qm


def shape_table() -> dict:
    """{shape: {storage: {ge: {unit: GE}, area_cm2, latency_cycles, access_slots}}}"""
    table = {}
    for name, (n, m) in SHAPES.items():
        reports = compare_storage(shape_model(n, m), build_ddag(n))
        table[name] = {
            storage: {
                "ge": dict(rep.gate_equivalents),
                "area_cm2": rep.area_cm2,
                "latency_cycles": rep.latency_cycles,
                "access_slots": rep.access_slots,
            }
            for storage, rep in reports.items()
        }
    return table


def changes_from_reference(table: dict) -> list[str]:
    """Entries that differ from the table recorded at the seed commit."""
    reference = json.loads(REFERENCE.read_text())
    changed = []
    for shape, by_storage in reference.items():
        for storage, want in by_storage.items():
            got = table.get(shape, {}).get(storage)
            if got != want:
                changed.append(f"{shape}.{storage}: {want} -> {got}")
    return changed


def format_table(table: dict) -> str:
    units = ("storage", "engine", "fsm", "registers", "total")
    header = f"{'shape':<12} {'kind':<4} " + " ".join(f"{u:>9}" for u in units) + f" {'cm2':>7} {'cycles':>6}"
    lines = [header]
    for shape, by_storage in table.items():
        for storage, rep in by_storage.items():
            ge = " ".join(f"{rep['ge'][u]:>9.1f}" for u in units)
            lines.append(f"{shape:<12} {storage:<4} {ge} {rep['area_cm2']:>7.3f} {rep['latency_cycles']:>6}")
    return "\n".join(lines)


if __name__ == "__main__":
    # Regenerate the reference: PYTHONPATH=src python3 bench/shapes.py > bench/shapes_reference.json
    print(json.dumps(shape_table(), indent=2, sort_keys=True))
