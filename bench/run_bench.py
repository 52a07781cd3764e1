"""Closed-loop benchmark of the `seqsvm` command line.

Run from the repository root:

    python3 bench/run_bench.py --workload verify --seed 1 --seconds 35 --trace 0
    python3 bench/run_bench.py --workload all --seed 1 --seconds 35

One client runs the workload's CLI commands one at a time, each in a fresh
interpreter, and starts the next pass only when the last one has finished,
for about `--seconds`. Every pass's artifacts are checked by
`checks.py`, which never calls the code under test.

Every CLI command runs under `probed_cli.py`, and times are CPU seconds
scaled to a reference CPU speed by `hostspeed.py`, which samples the CPU's
speed from inside each process while it runs (README.md, "Host speed").

--trace 0  end-to-end metrics: setup_s, pipeline_s, peak_rss_mb,
           test_accuracy, area_cm2.
--trace 1  per-layer metrics: untraced and traced passes alternate; the
           traced ones record layer spans (`traced_cli.py`). Spans and the
           full layer table are written to .bench_run/<workload>/.

The metrics printed in the last line, a JSON object with the keys correct,
attempted, failed and metrics, are the ones BENCHMARK.json names. See
bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

from hostspeed import SpeedProbe, speed_factor

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = Path(".bench_run")  # relative, so artifacts embed the same paths in any checkout

#: Before every pass, setup runs back to back for at least this long and
#: one sample is their mean time; setup_s is the median of these samples.
SETUP_BURST_S = 0.5
#: The synthetic draw behind every workload; --seed permutes its columns.
DATA_SEED = 1
#: A single client: numpy's BLAS runs single-threaded in every CLI process.
CHILD_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Every command is killed once the run has lasted this long.
HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str                         # seqsvm.synth function
    shape: tuple[int, int, int]            # classes, features, rows per class
    commands: tuple[tuple[str, ...], ...]  # CLI argv; {csv} and {out} are filled in
    traces: int = 0                        # --trace of `run`
    vectors: int = 20                      # --vectors of `run`

    def argvs(self, csv: Path, out: Path) -> list[list[str]]:
        return [[a.format(csv=csv, out=out) for a in cmd] for cmd in self.commands]


def _run(*flags: str) -> tuple[str, ...]:
    return ("run", "--dataset", "{csv}", "--label-col", "label", *flags, "--out", "{out}")


#: Why each workload exists, and which layers it stresses: README.md, "Workloads".
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train", "ring_sectors", (10, 16, 300),
                 (_run("--seed", "11", "--budget", "4"), ("compare", "--out", "{out}"))),
        Workload("verify", "ring_sectors", (10, 16, 1200),
                 (_run("--seed", "28", "--budget", "1", "--split", "0.1", "--vectors", "1000", "--trace", "50"),),
                 traces=50, vectors=1000),
        Workload("wide", "noisy_blobs", (26, 16, 200),
                 (_run("--seed", "28", "--budget", "1", "--split", "0.5", "--vectors", "500", "--storage", "rom"),),
                 vectors=500),
    )
}


def make_csv(workload: Workload, seed: int, path: Path) -> None:
    """Generate and write the workload's CSV.

    The data is one fixed draw of the workload's generator with its feature
    columns permuted by `seed`: every seed gives a different file that poses
    the same problem (see README.md, "Seeds").
    """
    import numpy as np
    from seqsvm import synth
    from seqsvm.dataset import Dataset, to_csv

    n, m, per_class = workload.shape
    base = getattr(synth, workload.generator)(n, m, per_class, DATA_SEED)
    perm = np.random.default_rng([seed, m]).permutation(m)
    ds = Dataset(base.features[:, perm], base.labels, base.label_names, [f"x{j}" for j in perm])
    to_csv(ds, path)


def time_setup(workload: Workload, seed: int, path: Path) -> float:
    """Mean reference seconds of one setup over a burst of at least
    SETUP_BURST_S: the CPU time of this thread less the probe's, scaled by
    the host speed."""
    count, start, cpu_start = 0, perf_counter(), thread_time()
    with SpeedProbe() as speed:
        while perf_counter() - start < SETUP_BURST_S:
            make_csv(workload, seed, path)
            count += 1
        cpu = thread_time() - cpu_start - speed.cpu_s
    return cpu / count * speed.factor()


# ---------------------------------------------------------------------------
# One pass: the workload's commands, then the output checks
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    seconds: float = 0.0      # reference seconds: cpu_s scaled by the host speed
    cpu_s: float = 0.0        # user + system CPU seconds of the CLI processes, less the probe's
    wall_s: float = 0.0
    speed: float = 1.0        # speed_factor() of the pass's probe samples
    samples: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)


class Runner:
    def __init__(self, workload: Workload, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.started = started
        self.dir = WORK / workload.name
        self.csv = self.dir / "data.csv"
        self.out = self.dir / "out"
        self.env = dict(os.environ, **CHILD_THREADS)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def _spawn(self, cmd: list[str], log: Path) -> tuple[float, float, float, int]:
        """Run one process to completion:
        (wall seconds, CPU seconds, max RSS in MB, exit code)."""
        limit = max(1.0, HARD_LIMIT_S - (perf_counter() - self.started))
        with open(log, "w") as fh:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(limit, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # SIGTERM or Ctrl-C: leave no process behind
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode

    def warm_up(self) -> None:
        """Byte-compile and page in the package before anything is timed."""
        self._spawn([sys.executable, "-c", "import seqsvm.cli"], self.dir / "warmup.log")

    def run_pass(self, traced: bool) -> Pass:
        p = Pass(traced)
        shutil.rmtree(self.out, ignore_errors=True)
        self._run_commands(p, traced)
        if p.samples:
            p.speed = speed_factor(p.samples)
        p.seconds = p.cpu_s * p.speed
        if not p.failures:
            self._check(p)
        return p

    def _run_commands(self, p: Pass, traced: bool) -> None:
        for k, argv in enumerate(self.workload.argvs(self.csv, self.out)):
            probe_file = self.dir / f"probe-{k}.json"
            flags = ["--spans"] if traced else []
            cmd = [sys.executable, str(BENCH / "probed_cli.py"), str(probe_file), *flags, *argv]
            log = self.dir / f"cmd-{k}.log"
            seconds, cpu, rss, code = self._spawn(cmd, log)
            p.wall_s += seconds
            p.cpu_s += cpu
            p.peak_rss_mb = max(p.peak_rss_mb, rss)
            p.attempted += 1
            if code != 0:
                p.failed += 1
                tail = log.read_text().strip().splitlines()[-3:]
                p.failures.append(f"`seqsvm {argv[0]}` exited {code}: {' | '.join(tail)}")
                return
            record = json.loads(probe_file.read_text())
            p.cpu_s -= record["probe_cpu_s"]
            p.samples += record["probe_samples"]
            if traced:
                p.spans.append(record["spans"])

    def _check(self, p: Pass) -> None:
        from checks import check_compare, check_run, digest_tree

        for argv in self.workload.commands:
            try:
                if argv[0] == "run":
                    fails = check_run(self.out, self.workload.traces, self.workload.vectors)
                else:
                    fails = check_compare(self.out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                fails = [f"unreadable artifacts: {exc!r}"]
            if fails:
                p.failed += 1
                p.failures += [f"{argv[0]}: {msg}" for msg in fails]
        p.digests = digest_tree(self.out)


def keep_going(passes: list[Pass], elapsed: float, seconds: float) -> bool:
    """Start another pass if it is expected to end less than half a pass
    after the deadline, so a run lasts about `seconds` on average."""
    typical = statistics.median(p.wall_s for p in passes)
    return elapsed + typical / 2 < seconds


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"n={n}; no percentile has ten samples beyond it below n=11"
    k = n - 10
    return f"n={n}; p{100 * k / n:.0f} = {sorted(samples)[k - 1]:.4f} s"


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(load_at_start) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in CHILD_THREADS},
        "blas_threads_child": CHILD_THREADS,
        "loadavg_at_start": load_at_start,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def bench_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = perf_counter()
    load_at_start = os.getloadavg()
    runner = Runner(workload, seed, started)
    runner.dir.mkdir(parents=True, exist_ok=True)

    make_csv(workload, seed, runner.csv)  # untimed: first imports and file creation
    runner.warm_up()
    setups: list[float] = []

    passes: list[Pass] = []
    begin = perf_counter()
    while len(passes) < (2 if trace else 1) or keep_going(passes, perf_counter() - begin, seconds):
        if perf_counter() - started > HARD_LIMIT_S / 2:
            break
        setups.append(time_setup(workload, seed, runner.csv))
        traced = trace and len(passes) % 2 == 1
        passes.append(runner.run_pass(traced))
        if passes[-1].failures:
            break

    failures = [f for p in passes for f in p.failures]
    good = [p for p in passes if not p.failures]
    reference = good[0].digests if good else {}
    for k, p in enumerate(good[1:], start=1):
        if p.digests != reference:
            differ = sorted(n for n in set(p.digests) | set(reference) if p.digests.get(n) != reference.get(n))
            p.failed += 1
            failures.append(f"pass {k}: artifacts differ from pass 0: {', '.join(differ)}")

    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(load_at_start),
        "attempted": sum(p.attempted for p in passes),
        "failed": min(sum(p.failed for p in passes), sum(p.attempted for p in passes)),
        "failures": failures,
        "setup_samples_s": setups,
        "passes": [{"traced": p.traced, "seconds": p.seconds, "cpu_s": p.cpu_s, "wall_s": p.wall_s,
                    "speed": p.speed, "probe_samples": len(p.samples), "peak_rss_mb": p.peak_rss_mb}
                   for p in passes],
        "digests": reference,
    }
    result["failure_rate"] = result["failed"] / max(1, result["attempted"])
    plain = [p.seconds for p in passes if not p.traced]
    metrics = {
        "setup_s": _median(setups),
        "pipeline_s": _median(plain),
        "peak_rss_mb": _median([p.peak_rss_mb for p in passes if not p.traced]),
    }
    if good and not failures:
        metrics["test_accuracy"] = json.loads((runner.out / "sim_report.json").read_text())["accuracy"]
        metrics["area_cm2"] = json.loads((runner.out / "cost_report.json").read_text())["area_cm2"]
    result["pipeline_tail"] = tail_note(plain)
    result["pipeline_wall_s"] = _median([p.wall_s for p in passes if not p.traced])
    result["host_speed"] = _median([p.speed for p in passes])

    if trace and not failures:
        metrics.update(traced_metrics(runner, passes))
    result["metrics"] = metrics
    _record_digests(runner, result)
    (runner.dir / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def traced_metrics(runner: Runner, passes: list[Pass]) -> dict:
    """Per-layer metrics of the traced passes. Spans are wall-clock times, so
    trace.pipeline_s, which they account for, is wall time too. The tracing
    overhead is a difference of reference seconds, which the host's speed
    does not move."""
    from layers import layer_metrics
    from shapes import changes_from_reference, format_table, shape_table

    traced = [p for p in passes if p.traced]
    per_pass = [layer_metrics(p.spans, p.wall_s, runner.out) for p in traced]
    metrics = {name: _median([pm[name] for pm in per_pass]) for name in per_pass[0]}
    metrics["trace.pipeline_s"] = _median([p.wall_s for p in traced])
    metrics["trace.overhead_s"] = _median([p.seconds for p in traced]) - _median(
        [p.seconds for p in passes if not p.traced])

    table = shape_table()
    for shape, by_storage in table.items():
        for storage, rep in by_storage.items():
            metrics[f"cost.shapes.{shape}.{storage}.ge"] = rep["ge"]["total"]
            metrics[f"cost.shapes.{shape}.{storage}.area_cm2"] = rep["area_cm2"]
    changed = changes_from_reference(table)
    print(format_table(table))
    print("five-shape table: " + ("CHANGED from bench/shapes_reference.json\n  " + "\n  ".join(changed)
                                  if changed else "matches bench/shapes_reference.json"))
    (runner.dir / "shapes.json").write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    (runner.dir / f"spans-seed{runner.seed}.json").write_text(
        json.dumps([{"seconds": p.wall_s, "processes": p.spans} for p in traced]) + "\n"
    )
    return metrics


def _record_digests(runner: Runner, result: dict) -> None:
    """Compare the artifact digests with the last run of the same seed here."""
    from checks import combined_digest

    path = runner.dir / f"digests-seed{runner.seed}.json"
    previous = json.loads(path.read_text()) if path.is_file() else None
    result["digest"] = combined_digest(result["digests"]) if result["digests"] else None
    result["digests_match_previous_run"] = None if previous is None else previous == result["digests"]
    if result["digests"]:
        path.write_text(json.dumps(result["digests"], indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {e["name"]: e["unit"] for e in spec["end_to_end"]},
        1: {e["name"]: e["unit"] for e in spec["per_layer"]},
    }


def report(result: dict, units: dict) -> None:
    name = result["workload"]
    shown = dict(units)
    shown.setdefault("failure_rate", "fraction")
    values = dict(result["metrics"], failure_rate=result["failure_rate"])
    for metric, unit in shown.items():
        print(f"{name:<7} {metric:<44} {values.get(metric, float('nan')):>16.6g} {unit}")
    print(f"{name:<7} pipeline_s tail: {result['pipeline_tail']}")
    print(f"{name:<7} pipeline wall time {result['pipeline_wall_s']:.4f} s at host speed "
          f"{result['host_speed']:.4f} reference s per CPU s")
    print(f"{name:<7} artifacts sha256 {result['digest']} "
          f"(same as previous run of this seed: {result['digests_match_previous_run']})")
    for failure in result["failures"]:
        print(f"{name:<7} FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "seqsvm" / "cli.py").is_file():
        print(f"run_bench: no seqsvm sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = load_spec()[args.trace]
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps({"provenance": provenance(os.getloadavg())}))
    results = [bench_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names]
    if args.trace:
        from layers import UNLISTED
    for result in results:
        report(result, dict(units, **UNLISTED) if args.trace else units)

    metrics = {}
    missing = []
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric, unit in units.items():
            if metric in result["metrics"]:
                metrics[prefix + metric] = {"value": result["metrics"][metric], "unit": unit}
            else:
                missing.append(prefix + metric)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not missing
    if missing and failed == 0:
        print(f"run_bench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
