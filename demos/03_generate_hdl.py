#!/usr/bin/env python3
# Emit the synthesizable Verilog for a trained model: a constant parameter
# store addressed by (row, column), the single-MAC engine, and a case-based
# FSM with two hardwired next states per node. Every width and count it prints
# is the design's register-transfer record, archsim.rtl. Golden
# stimulus/expectation files come straight from the cycle-accurate simulator.

from pathlib import Path

from seqsvm.archsim import rtl
from seqsvm.dataset import SplitSpec, split
from seqsvm.hdlgen import emit_golden_vectors, generate, write_bundle
from seqsvm.quant import quantize_inputs, search_param_bits
from seqsvm.synth import bundled_dataset
from seqsvm.trainer import Hyper, train_ovo

ds = bundled_dataset("noisy6x11", seed=2)
train, test = split(ds, SplitSpec(0.8, seed=2))
model = train_ovo(train, Hyper(lam=0.02, epochs=12, seed=2))
qm, report = search_param_bits(model, train, test)

print("the design's widths and counts:")
print(" ", rtl(qm))

bundle = generate(qm, name="demo")
print("top module header:")
for line in bundle.top_module.splitlines()[:12]:
    print(" ", line)

print("\na slice of the parameter store (every literal is a model integer):")
for line in bundle.params_module.splitlines()[8:14]:
    print(" ", line)

print("\none FSM state (two hardwired next states, selected by engine output y):")
start = bundle.top_module.index("// pair")
print("  " + "\n  ".join(bundle.top_module[start - 24:].splitlines()[:4]))

out = Path("demo_hdl")
write_bundle(bundle, out)
codes = quantize_inputs(test, qm.input_fmt)
stim, expect, classes = emit_golden_vectors(qm, codes, count=10)
(out / "vectors.stim").write_text(stim)
(out / "vectors.expect").write_text(expect)
print(f"\nwrote {out}/demo_top.v, demo_params.v, demo_tb.v and {len(classes)} golden vectors")
print("stimulus line 1: ", stim.splitlines()[1])
print("expectation    : ", expect.splitlines()[1], "(class, final FSM state)")
