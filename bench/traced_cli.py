"""Timing spans around the layers' public functions of `seqsvm`, for the
traced passes that `probed_cli.py --spans` runs.

The wrappers are installed from here, never from the package: every public
function of each layer module is replaced wherever a `seqsvm` module bound
it (its own module, `cli`, and modules that imported it by name). Functions
that run once per sample or per cycle are left alone, because a wrapper there
would cost more than the work it times. `cli._stage` is wrapped so each stage
of a command gets its own span.

Spans stay in memory until the command returns. Each is
[name, start, end, parent, counts]: times from `time.perf_counter`, `parent`
the index of the enclosing span (-1 for the root `cli.main`), and `counts` a
dict of work done, read from the call's arguments and result, or null.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
from time import perf_counter

#: Layer modules whose public functions are wrapped. `fxp` and `synth` are
#: not here: `fxp` holds per-cycle arithmetic and the CLI never calls `synth`.
LAYERS = ("dataset", "trainer", "quant", "ddag", "archsim", "hdlgen", "cost", "modelio")

#: Per-sample or per-cycle functions, never wrapped inside the layers.
HOT = {
    "ddag": {"ddag_infer", "ddag_infer_float", "ovo_vote_infer"},
    "archsim": {"engine_step", "fsm_step", "simulate", "trace_to_text"},
}

#: Hot functions that `cli` also calls directly, once per written trace.
#: They are wrapped in the `cli` namespace only, so the spans measure the
#: `--trace` writes without touching the batch simulator's inner loop.
CLI_ONLY = {"archsim": ("simulate", "trace_to_text")}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


#: Work counted at a span boundary, from (args, kwargs, result).
COUNTS = {
    "dataset.load_csv": lambda a, k, r: {"rows": r.n_samples},
    "trainer.train_ovo": lambda a, k, r: {
        "updates": _arg(a, k, 1, "hyper").epochs * (r.n_classes - 1) * _arg(a, k, 0, "ds").n_samples
    },
    "trainer.train_ova": lambda a, k, r: {
        "updates": _arg(a, k, 1, "hyper").epochs * r.n_classes * _arg(a, k, 0, "ds").n_samples
    },
    "ddag.ddag_predict_quant": lambda a, k, r: {"samples": len(r)},
    "ddag.ddag_predict_float": lambda a, k, r: {"samples": len(r)},
    "archsim.simulate_batch": lambda a, k, r: {
        "samples": len(r.predictions),
        "cycles": round(r.mean_cycles * len(r.predictions)),
        "overflows": r.overflows,
    },
    "hdlgen.generate": lambda a, k, r: {
        "bytes": sum(len(t.encode()) for t in (r.top_module, r.params_module, r.testbench))
    },
    "hdlgen.emit_golden_vectors": lambda a, k, r: {"vectors": len(r[2])},
    "modelio.save_model_doc": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Rebind each wrapped function in every loaded `seqsvm` module."""
    import seqsvm.cli as cli  # imports every layer module

    package = {name: mod for name, mod in sys.modules.items() if name == "seqsvm" or name.startswith("seqsvm.")}
    wrapped = {}
    for layer in LAYERS:
        mod = package[f"seqsvm.{layer}"]
        for fname, fn in inspect.getmembers(mod, inspect.isfunction):
            if fname.startswith("_") or fn.__module__ != mod.__name__ or fname in HOT.get(layer, ()):
                continue
            wrapped[id(fn)] = tracer.wrap(f"{layer}.{fname}", fn)
    for mod in package.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped:
                setattr(mod, attr, wrapped[id(value)])
    for layer, names in CLI_ONLY.items():
        for fname in names:
            setattr(cli, fname, tracer.wrap(f"{layer}.{fname}", getattr(package[f"seqsvm.{layer}"], fname)))

    stage = cli._stage

    @contextlib.contextmanager
    def traced_stage(name):
        # `compare` is a whole subcommand in one stage; name it as such
        with tracer.span("cli.compare" if name == "compare" else f"cli.stage.{name}"):
            with stage(name):
                yield

    cli._stage = traced_stage
