"""The benchmark's traced passes read per-layer metrics from spans named
``module.function``: bench/traced_cli.py wraps every public function of each
layer module under that name, and bench/layers.py picks spans by it. A
renamed function would leave its metric at 0 without failing the run, so
every name those two files read must still be a public function of its
``seqsvm`` module. The files are read as text: nothing under bench/ is
imported or written."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _source(name):
    return (BENCH / name).read_text()


def _layers():
    """traced_cli.LAYERS: the modules whose public functions are wrapped."""
    match = re.search(r"^LAYERS = (\(.*?\))$", _source("traced_cli.py"), re.MULTILINE)
    return ast.literal_eval(match.group(1))


def _span_names():
    """Every "layer.function" name that layers.py picks spans by (as the name,
    or as an ``inside``/``outside`` ancestor) and that traced_cli.py counts
    work for."""
    names = set()
    for call in re.findall(r"pick\(([^()]*)\)", _source("layers.py")):
        names.update(re.findall(r'"(\w+\.\w+)"', call))
    names.update(re.findall(r'^    "(\w+\.\w+)": lambda', _source("traced_cli.py"), re.MULTILINE))
    return sorted(name for name in names if name.partition(".")[0] in _layers())


def test_the_bench_reads_spans_of_every_layer():
    # a change to the bench files' layout must not make this test vacuous
    names = _span_names()
    assert len(names) >= 15
    assert {name.partition(".")[0] for name in names} == set(_layers())


@pytest.mark.parametrize("name", _span_names())
def test_bench_span_name_is_a_public_function(name):
    layer, _, function = name.partition(".")
    module = importlib.import_module(f"seqsvm.{layer}")
    fn = getattr(module, function, None)
    assert not function.startswith("_")
    # traced_cli wraps only functions defined in the layer module itself
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, f"{name} is not a function of {module.__name__}"
