#!/usr/bin/env python3
# Explore the cost model: bespoke-MUX vs crossbar-ROM storage (the storage
# kind is a cost-model choice only; both kinds serve the same words), the
# ROM's access slots, the sequential design against a fully parallel
# baseline, and the power-density calibration behind the default technology
# coefficients.

import numpy as np

from seqsvm.cost import ADC_COUNT, TechConfig, compare_parallel, compare_storage, format_report_table
from seqsvm.fxp import U4_4
from seqsvm.quant import QuantizedModel, profile_accumulator

# benchmark-sized models with random 8-bit parameters; only the shape matters
SHAPES = {"cardio": (3, 21), "dermatology": (6, 33), "pendigits": (10, 17),
          "redwine": (6, 11), "whitewine": (7, 11)}


def shaped(n, m, bits=8, seed=0):
    rng = np.random.default_rng([seed, n, m])
    top = (1 << (bits - 1)) - 1
    rows = []
    for _ in range(n * (n - 1) // 2):  # the word table, one row [bias, w_1..w_m] per pair
        weights = rng.integers(-top, top + 1, m)
        rows.append([int(rng.integers(-top, top + 1)), *weights])
    qm = QuantizedModel(n, m, U4_4, bits, rows, [1.0] * len(rows))
    profile_accumulator(qm, rng.integers(0, 16, (200, m)))
    return qm


tech = TechConfig()
print(f"technology: {tech.nand_equiv_area} cm^2/GE, DFF = {tech.dff_nand_equiv} GE, "
      f"{tech.power_per_area} mW/cm^2, {tech.f_clk} Hz\n")

for name, (n, m) in SHAPES.items():
    qm = shaped(n, m)
    both = compare_storage(qm, tech=tech)
    par = compare_parallel(qm, tech)
    print(f"--- {name} (n={n}, m={m}, acc={qm.acc_width} bits) ---")
    print(format_report_table([("seq-mux", both["mux"]), ("seq-rom", both["rom"]),
                               ("parallel", par)]), end="")
    print(f"parallel/sequential area: {par.area_cm2 / both['mux'].area_cm2:.1f}x, "
          f"rom saves {(1 - both['rom'].area_cm2 / both['mux'].area_cm2):.0%} of area\n")

# ROM pays a fixed ADC floor: tiny models prefer the bespoke MUX
tiny = shaped(2, 1, bits=4)
both = compare_storage(tiny, tech=tech)
print(f"n=2, m=1: mux {both['mux'].area_cm2:.3f} cm^2 vs rom {both['rom'].area_cm2:.3f} cm^2 "
      "(ADC floor dominates)\n")

# the ROM's ADCs read 2 bits each per access slot, 8 bits together: a wider
# word takes a second slot in every cycle, so the same cycles last twice as long
for bits in (8, 12):
    both = compare_storage(shaped(10, 17, bits=bits), tech=tech)
    print(f"pendigits, {bits}-bit words: rom reads {2 * ADC_COUNT} bits per slot, "
          f"{both['rom'].access_slots} slot(s) per cycle, "
          f"{both['rom'].latency_seconds:.2f} s vs mux {both['mux'].latency_seconds:.2f} s")
print()

# power density: least-squares slope through the origin over five published
# (area, power) measurements of printed sequential SVM designs
points = [(3.1, 3.6), (4.9, 5.3), (7.8, 8.7), (3.1, 3.5), (3.4, 3.9)]
slope = sum(area * power for area, power in points) / sum(area * area for area, _ in points)
print(f"calibrated power density {slope:.3f} mW/cm^2 (shipped default {tech.power_per_area})")
for area, power in points:
    print(f"  area {area:4.1f} -> predicted {tech.power_per_area * area:4.2f} mW "
          f"(published {power} mW)")
