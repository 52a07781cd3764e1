#!/usr/bin/env python3
# Train pairwise linear SVMs on a bundled synthetic dataset, then walk the
# precision search by hand: quantize at every width and watch the accuracy
# recover until it sits within half a percentage point of the float model.

import numpy as np

from seqsvm.dataset import SplitSpec, split
from seqsvm.ddag import ddag_predict_float, ddag_predict_quant
from seqsvm.quant import quantize_inputs, quantize_model, search_param_bits
from seqsvm.synth import bundled_dataset
from seqsvm.trainer import accuracy, random_search, train_ovo

ds = bundled_dataset("rings10x17", seed=3)
train, test = split(ds, SplitSpec(0.8, seed=3))
print(f"dataset: {ds.n_classes} classes, {ds.n_features} features, "
      f"{train.n_samples}/{test.n_samples} train/test")

hyper = random_search(train, budget=8, seed=3)
print(f"random search picked lam={hyper.lam:.4g}, epochs={hyper.epochs}")

model = train_ovo(train, hyper)
print(f"trained {len(model.coefs)} pairwise vectors "
      f"(= n(n-1)/2 for n={model.n_classes})")
print(f"float max-wins voting accuracy: {accuracy(model, test):.4f}")

# the hardware walks a decision DAG instead of voting: n-1 evaluations
float_ddag = float(np.mean(ddag_predict_float(model, test.features) == test.labels))
print(f"float DAG-walk accuracy:        {float_ddag:.4f}")

# accuracy at each candidate parameter width, measured on 4-bit inputs
codes = quantize_inputs(test)
print("\nbits  quantized-accuracy  drop")
for bits in range(2, 9):
    qm = quantize_model(model, bits)
    acc = float(np.mean(ddag_predict_quant(qm, codes) == test.labels))
    print(f"  {bits}   {acc:.4f}             {float_ddag - acc:+.4f}")

qm, report = search_param_bits(model, train, test)
print(f"\nsearch settles on {report.param_bits}-bit parameters "
      f"(drop {report.accuracy_drop:+.4f}, flag={report.max_precision_flag})")
print(f"accumulator profiled to {report.acc_width} bits: training prefix sums "
      f"span [{report.partial_min}, {report.partial_max}]")
