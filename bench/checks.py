"""Output checks that do not use the code under test.

Everything here reads the CLI's artifacts as files and recomputes what it
needs in plain Python integers: it never calls the simulator, the reference
inference or the HDL parser of `seqsvm`. Each check returns a list of
failure messages; an empty list means the artifacts are consistent.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

CASE_LINE = re.compile(r"(\d+)'d(\d+): word = (-?)\d+'sd(\d+);")
DIMS = re.compile(r"rows=(\d+) cols=(\d+) word_bits=(\d+) row_bits=(\d+) col_bits=(\d+)")


def _wrap(value: int, bits: int) -> int:
    """Two's-complement wrap of a Python integer to `bits` bits."""
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


def walk(rows, nodes, initial, shift, acc_width, codes, max_steps):
    """DAG walk with an accumulator that wraps after every step, as the
    hardware does. Returns (class, final state), or None if the walk does
    not reach a leaf within `max_steps` evaluations."""
    sid = initial
    for _ in range(max_steps):
        node = nodes[sid]
        row = rows[node["row"]]
        acc = _wrap(row[0] << shift, acc_width)
        for w, x in zip(row[1:], codes):
            acc = _wrap(acc + w * x, acc_width)
        kind, target = node["on_a"] if acc >= 0 else node["on_b"]
        if kind == "leaf":
            return target, sid
        sid = target
    return None


def _read_params_table(text: str):
    dims = DIMS.search(text)
    if not dims:
        return None
    rows, cols, _, _, col_bits = (int(g) for g in dims.groups())
    table = [[None] * cols for _ in range(rows)]
    for match in CASE_LINE.finditer(text):
        key = int(match.group(2))
        row, col = key >> col_bits, key & ((1 << col_bits) - 1)
        if row >= rows or col >= cols:
            return None
        value = int(match.group(4))
        table[row][col] = -value if match.group(3) else value
    return table


def check_run(out: Path, n_traces: int, n_vectors: int) -> list[str]:
    """Checks on the artifacts of `seqsvm run`."""
    fails: list[str] = []
    model = json.loads((out / "model.json").read_text())
    sim = json.loads((out / "sim_report.json").read_text())
    quant = json.loads((out / "quant_report.json").read_text())
    cost = json.loads((out / "cost_report.json").read_text())

    q, dag = model["quantized"], model["ddag"]
    n, m = dag["n_classes"], model["float_model"]["n_features"]
    rows = [[v["bias"], *v["weights"]] for v in q["vectors"]]
    nodes = {node["id"]: node for node in dag["nodes"]}
    budget = (n - 1) * (m + 1)

    if sim["mean_cycles"] != budget:
        fails.append(f"sim_report mean_cycles {sim['mean_cycles']} != (n-1)(m+1) = {budget}")
    if cost["latency_cycles"] != budget:
        fails.append(f"cost_report latency_cycles {cost['latency_cycles']} != {budget}")
    if sim["overflows"] == 0 and sim["accuracy"] != quant["quantized_accuracy"]:
        fails.append(
            f"no overflows, yet sim accuracy {sim['accuracy']} != quantized accuracy {quant['quantized_accuracy']}"
        )

    stim = [line.split() for line in (out / "hdl/vectors.stim").read_text().splitlines() if not line.startswith("#")]
    expect = [line.split() for line in (out / "hdl/vectors.expect").read_text().splitlines() if not line.startswith("#")]
    want = min(n_vectors, sim["n_test"])
    if len(stim) != want or len(expect) != want:
        fails.append(f"{len(stim)} stimulus / {len(expect)} expectation lines, want {want}")
    bad = 0
    for k, (fields, exp) in enumerate(zip(stim, expect)):
        codes = [int(c) for c in fields[:-1]]
        if len(codes) != m or int(fields[-1]) != budget:
            fails.append(f"vector {k}: malformed stimulus line")
            continue
        got = walk(rows, nodes, dag["initial_state"], q["bias_shift"], q["acc_width"], codes, n - 1)
        if got != (int(exp[0]), int(exp[1])):
            bad += 1
    if bad:
        fails.append(f"{bad} of {len(stim)} golden vectors disagree with the independent DAG walk")

    table = _read_params_table((out / "hdl/svm_params.v").read_text())
    if table != rows:
        fails.append("svm_params.v case table differs from the model.json words")

    traces = sorted((out / "traces").glob("trace_*.txt")) if n_traces else []
    if len(traces) != n_traces:
        fails.append(f"{len(traces)} trace files, want {n_traces}")
    for path in traces:
        totals = path.read_text().rstrip().rsplit("\n", 1)[-1]
        if f"cycles={budget} " not in totals:
            fails.append(f"{path.name}: totals line does not report {budget} cycles")
    if not (out / "summary.txt").is_file():
        fails.append("summary.txt missing")
    return fails


def check_compare(out: Path) -> list[str]:
    """Checks on the artifacts of `seqsvm compare`."""
    report = json.loads((out / "compare_report.json").read_text())
    sim = json.loads((out / "sim_report.json").read_text())
    if sim["overflows"] == 0 and report["accuracy"]["ovo-ddag (quant)"] != sim["accuracy"]:
        return ["compare_report quantized DDAG accuracy differs from the simulated accuracy"]
    return []


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under `root`, keyed by relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def combined_digest(digests: dict[str, str]) -> str:
    text = "".join(f"{name} {value}\n" for name, value in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()
