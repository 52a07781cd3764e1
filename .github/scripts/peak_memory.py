#!/usr/bin/env python3
"""Peak RSS of a `verify`-shaped `seqsvm run` in another checkout and in this one.

    python3 .github/scripts/peak_memory.py BASE_DIR [SEED] [RUNS]

A child process writes the `verify` workload's CSV with the benchmark's own
generator and prints the workload's command. That command then runs RUNS
times (default 3) in each checkout, alternating which side goes first, with
BLAS pinned to one thread as in the benchmark. Each run is a child of this
script, which imports no numpy: a process keeps its spawner's RSS high-water
mark across exec, so a spawner with numpy loaded would put its own figure
under every reading. Prints a Markdown table of each run's `ru_maxrss` and
the medians per side; the exit status says only whether every run succeeded.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WRITE_CSV = """
import json, sys
from pathlib import Path
sys.path[:0] = ["bench", "src"]
from run_bench import WORKLOADS, make_csv
workload = WORKLOADS["verify"]
make_csv(workload, int(sys.argv[1]), Path(sys.argv[2]))
print(json.dumps(workload.argvs(Path(sys.argv[2]), Path(sys.argv[3]))))
"""


def peak_mb(checkout: Path, argv: list[str]) -> float:
    """Run `python3 -m seqsvm ARGV` from ``checkout``; its ru_maxrss in MB."""
    env = dict(os.environ, **THREADS, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "seqsvm", *argv], cwd=checkout, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"peak memory: `seqsvm {argv[0]}` failed in {checkout}")
    return usage.ru_maxrss / 1024.0


def main(base: Path, seed: int, runs: int) -> None:
    head = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        csv, out = Path(tmp) / "verify.csv", Path(tmp) / "out"
        made = subprocess.run([sys.executable, "-c", WRITE_CSV, str(seed), str(csv), str(out)],
                              cwd=head, check=True, capture_output=True, text=True)
        (argv,) = json.loads(made.stdout)
        figures: dict[str, list[float]] = {"base": [], "head": []}
        for k in range(runs):
            sides = [("base", base), ("head", head)]
            for name, checkout in sides if k % 2 == 0 else sides[::-1]:
                figures[name].append(peak_mb(checkout.resolve(), argv))
    print(f"### Peak memory against the base (`verify` run, seed {seed})")
    print()
    print("| side | ru_maxrss per run (MB) | median (MB) |")
    print("|---|---|---|")
    for name, values in figures.items():
        print(f"| {name} | {', '.join(f'{v:.2f}' for v in values)} | {statistics.median(values):.2f} |")


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 4:
        raise SystemExit(__doc__)
    main(Path(sys.argv[1]), int(sys.argv[2]) if len(sys.argv) > 2 else 21, int(sys.argv[3]) if len(sys.argv) > 3 else 3)
