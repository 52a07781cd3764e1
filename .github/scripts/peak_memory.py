#!/usr/bin/env python3
"""Peak RSS of every benchmark workload's commands in another checkout and in this one.

    python3 .github/scripts/peak_memory.py BASE_DIR [SEED] [RUNS]

A child process writes each workload's CSV (`train`, `verify`, `wide`) with
the benchmark's own generator and prints the workloads' commands: `train`
runs `seqsvm run` and then `seqsvm compare`, the others one `seqsvm run`.
Each workload's commands then run RUNS times (default 3) in each checkout,
in order and into that checkout's own output directory, alternating which
side goes first, with BLAS pinned to one thread as in the benchmark. Each
command is a child of this script, which imports no numpy: a process keeps
its spawner's RSS high-water mark across exec, so a spawner with numpy loaded
would put its own figure under every reading. Prints a Markdown table of
each command's `ru_maxrss` per run and the medians per side; the exit status
says only whether every command succeeded.
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
SIDES = ("base", "head")

WRITE_CSVS = """
import json, sys
from pathlib import Path
sys.path[:0] = ["bench", "src"]
from run_bench import WORKLOADS, make_csv
tmp = Path(sys.argv[2])
commands = {}
for name, workload in WORKLOADS.items():
    make_csv(workload, int(sys.argv[1]), tmp / f"{name}.csv")
    commands[name] = {side: workload.argvs(tmp / f"{name}.csv", tmp / side / name) for side in sys.argv[3:]}
print(json.dumps(commands))
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
    checkouts = dict(zip(SIDES, (base.resolve(), Path.cwd())))
    with tempfile.TemporaryDirectory() as tmp:
        made = subprocess.run([sys.executable, "-c", WRITE_CSVS, str(seed), tmp, *SIDES],
                              cwd=checkouts["head"], check=True, capture_output=True, text=True)
        commands = json.loads(made.stdout)
        # (workload, command) -> side -> one reading per run
        figures: dict[tuple[str, str], dict[str, list[float]]] = {}
        for name, argvs in commands.items():
            for k in range(runs):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    for argv in argvs[side]:
                        readings = figures.setdefault((name, argv[0]), {s: [] for s in SIDES})
                        readings[side].append(peak_mb(checkouts[side], argv))
    print(f"### Peak memory of the benchmark workloads against the base (seed {seed})")
    print()
    print("| workload | command | side | ru_maxrss per run (MB) | median (MB) |")
    print("|---|---|---|---|---|")
    for (name, command), sides in figures.items():
        for side, values in sides.items():
            print(f"| {name} | `{command}` | {side} | {', '.join(f'{v:.2f}' for v in values)} "
                  f"| {statistics.median(values):.2f} |")


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 4:
        raise SystemExit(__doc__)
    main(Path(sys.argv[1]), int(sys.argv[2]) if len(sys.argv) > 2 else 21, int(sys.argv[3]) if len(sys.argv) > 3 else 3)
