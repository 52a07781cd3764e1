"""Shared builders for randomized and shape-pinned quantized models."""

import numpy as np

from seqsvm.ddag import build_ddag
from seqsvm.fxp import U4_4
from seqsvm.quant import QuantizedModel, QuantVector, profile_accumulator

# (n_classes, n_features) of the five benchmark shapes used throughout.
TABLE_SHAPES = {
    "cardio": (3, 21),
    "dermatology": (6, 33),
    "pendigits": (10, 17),
    "redwine": (6, 11),
    "whitewine": (7, 11),
}


def random_quantized_model(n, m, param_bits, seed, n_profile=200, input_fmt=U4_4):
    """Random integer model profiled on (and returned with) its own input codes,
    so every returned code is overflow-free by construction."""
    rng = np.random.default_rng([seed, n, m, param_bits])
    top = (1 << (param_bits - 1)) - 1
    vectors = []
    for a in range(n):
        for b in range(a + 1, n):
            w = rng.integers(-top, top + 1, m)
            vectors.append(QuantVector(a, b, [int(v) for v in w], int(rng.integers(-top, top + 1))))
    qm = QuantizedModel(n, m, input_fmt, param_bits, vectors, [1.0] * len(vectors))
    codes = rng.integers(0, input_fmt.raw_max + 1, (n_profile, m))
    profile_accumulator(qm, codes)
    return qm, codes


def shaped_model(name, param_bits=8, seed=0):
    n, m = TABLE_SHAPES[name]
    qm, codes = random_quantized_model(n, m, param_bits, seed)
    return qm, build_ddag(n), codes


def bias_only_model(n, biases):
    """One bias per pair in lexicographic order, zero weights, one feature.

    bias >= 0 makes the pair's lower class win; handy for scripting exact
    comparison outcomes.
    """
    vectors = []
    k = 0
    for a in range(n):
        for b in range(a + 1, n):
            vectors.append(QuantVector(a, b, [0], int(biases[k])))
            k += 1
    qm = QuantizedModel(n, 1, U4_4, 8, vectors, [1.0] * len(vectors))
    qm.acc_width = 16
    return qm


def layouts(rows, dtype):
    """``rows`` as a C-ordered matrix, a Fortran-ordered one and a strided
    column view: the kernels must not depend on the input's memory layout."""
    a = np.array(rows, dtype=dtype)
    padded = np.zeros((len(a), 2 * a.shape[1]), dtype=dtype)
    padded[:, 1::2] = a
    return [a, np.asfortranarray(a), padded[:, 1::2]]
