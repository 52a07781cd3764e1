#!/usr/bin/env python3
# The hardware replaces max-wins voting (all n(n-1)/2 vectors plus a voter
# circuit) with a decision DAG that needs only n-1 evaluations and a
# log2(n(n-1)/2)-bit state register. The two rules agree whenever pairwise
# outcomes are transitive; this demo builds a Condorcet cycle where they
# legitimately differ, then measures agreement on a real dataset.

import numpy as np

from seqsvm.dataset import SplitSpec, split
from seqsvm.ddag import ddag_infer, ovo_vote_infer, pair_count, state_bits_for
from seqsvm.fxp import U4_4
from seqsvm.quant import QuantizedModel, quantize_inputs, search_param_bits
from seqsvm.synth import bundled_dataset
from seqsvm.trainer import Hyper, train_ovo

for n in (2, 4, 10, 16):
    print(f"n={n:2d}: {pair_count(n):3d} stored vectors, {n - 1:2d} evaluations per input, "
          f"{state_bits_for(n)} state bits")

# a 3-class cycle: 0 beats 1, 2 beats 0, 1 beats 2 (bias-only vectors)
cycle = QuantizedModel(3, 1, U4_4, 8, [
    [1, 0],    # pair (0,1): bias 1, so the sum is >= 0 and class 0 wins
    [-1, 0],   # pair (0,2): class 2 wins
    [1, 0],    # pair (1,2): class 1 wins
], [1.0] * 3)
cycle.acc_width = 8
vote = ovo_vote_infer(cycle, [0])
walk, evals = ddag_infer(cycle, [0])
print(f"\nCondorcet cycle: vote ties 1-1-1 and breaks to class {vote}; "
      f"the DAG walks {[r for r, _ in evals]} and lands on class {walk}")

# trained models disagree too, and not always a little: at 26 classes the
# float DDAG is 5.9 points of accuracy below voting. Both are reported.
ds = bundled_dataset("rings10x17", seed=3)
train, test = split(ds, SplitSpec(0.8, seed=3))
model = train_ovo(train, Hyper(lam=0.02, epochs=12, seed=3))
qm, _ = search_param_bits(model, train, test)
codes = quantize_inputs(test, qm.input_fmt)

walk_pred = np.array([ddag_infer(qm, row)[0] for row in codes])
vote_pred = np.array([ovo_vote_infer(qm, row) for row in codes])
agree = float(np.mean(walk_pred == vote_pred))
acc_walk = float(np.mean(walk_pred == test.labels))
acc_vote = float(np.mean(vote_pred == test.labels))
print(f"\nrings dataset: dag/vote agreement {agree:.3f}, "
      f"accuracy dag {acc_walk:.4f} vs vote {acc_vote:.4f}")
print(f"hardware cost of the dag rule: {qm.n_classes - 1} evaluations instead of "
      f"{pair_count(qm.n_classes)}, no voter circuit")
