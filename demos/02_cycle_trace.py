#!/usr/bin/env python3
# Watch one classification run cycle by cycle on the simulated architecture:
# the FSM picks a storage row, the engine fetches the bias and one weight per
# cycle, and after m+1 cycles the sign of the accumulator drives the next
# FSM state. Total latency is always (n-1)*(m+1) cycles.

from seqsvm.archsim import rtl, simulate, trace_to_text
from seqsvm.dataset import split
from seqsvm.ddag import ddag_predict_quant
from seqsvm.quant import quantize_inputs, search_param_bits
from seqsvm.synth import bundled_dataset
from seqsvm.trainer import Hyper, train_ovo

ds = bundled_dataset("blobs3x21", seed=7)
train, test = split(ds, 0.8, seed=7)
model = train_ovo(train, Hyper(lam=0.01, epochs=15), seed=7)
qm, _ = search_param_bits(model, train, test)

codes = [int(c) for c in quantize_inputs(test, qm.input_fmt)[0]]
print(f"input codes: {codes}")

trace, = simulate(qm, [codes])  # one trace per row of the code matrix
cls = trace.out_class
n, m = qm.n_classes, qm.n_features
verdicts = [rec for rec in trace.records if rec.counter == m]  # one per evaluation
print(f"class {cls} after {len(trace.records)} cycles "
      f"(= ({n}-1) x ({m}+1) = {rtl(qm).cycles}), "
      f"{len(verdicts)} support vectors evaluated, {trace.overflows} overflows")

# the cycle-exact record: each field is the _top.v signal of that name during
# its clock; y is the sign of every partial sum, and the FSM branches on it
# only where the counter is m, the last word of a support vector
print("\nfirst evaluation plus the handoff into the second:")
for line in trace_to_text(trace).splitlines()[: m + 4]:
    print(" ", line)

# the walk's path: the FSM state and engine verdict of each evaluation
print("\nwalk (row, engine y):", [(rec.state, rec.y) for rec in verdicts])
# with no overflow the simulation's class is the exact integer walk's
ref_cls = int(ddag_predict_quant(qm, [codes])[0])
assert trace.overflows or ref_cls == cls
print("verdict matches the exact-arithmetic walk:", ref_cls == cls)
