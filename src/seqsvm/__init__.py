"""seqsvm: one-vs-one linear SVMs compiled onto a single-MAC sequential
classifier, with fixed-point quantization, cycle-accurate simulation, Verilog
emission, and printed-electronics cost estimation."""

from .archsim import BatchResult, Rtl, SimTrace, rtl, simulate, simulate_batch
from .cost import CostReport, TechConfig, compare_parallel, compare_storage, estimate
from .dataset import Dataset, SplitSpec, load_csv, split
from .ddag import ddag_predict_float, ddag_predict_quant, walk_batch
from .fxp import U4_4, FxpFormat, width_for_range
from .hdlgen import HdlBundle, emit_golden_vectors, generate
from .quant import (
    QuantizedModel,
    QuantReport,
    profile_accumulator,
    quantize_inputs,
    quantize_model,
    search_param_bits,
)
from .trainer import FloatSvmModel, Hyper, accuracy, random_search, train_ova, train_ovo

__version__ = "0.1.0"
