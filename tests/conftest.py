import pytest

from seqsvm.dataset import split
from seqsvm.quant import search_param_bits
from seqsvm.synth import bundled_dataset
from seqsvm.trainer import Hyper, train_ovo


@pytest.fixture(scope="session")
def blobs3_split():
    ds = bundled_dataset("blobs3x21", seed=7)
    return split(ds, 0.8, 7)


@pytest.fixture(scope="session")
def blobs3_model(blobs3_split):
    train, _ = blobs3_split
    return train_ovo(train, Hyper(lam=0.01, epochs=15), seed=7)


@pytest.fixture(scope="session")
def blobs3_quant(blobs3_split, blobs3_model):
    train, test = blobs3_split
    return search_param_bits(blobs3_model, train, test)


@pytest.fixture(scope="session")
def rings_split():
    ds = bundled_dataset("rings10x17", seed=3)
    return split(ds, 0.8, 3)


@pytest.fixture(scope="session")
def rings_quant(rings_split):
    train, test = rings_split
    model = train_ovo(train, Hyper(lam=0.02, epochs=12), seed=3)
    return search_param_bits(model, train, test)
