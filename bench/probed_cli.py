"""Run one `seqsvm` CLI command in this process under the host-speed probe,
then write what the probe saw (and, with --spans, the layer spans) as JSON.

    PYTHONPATH=src python3 bench/probed_cli.py OUT.json [--spans] run --dataset d.csv ...

The command runs as `python -m seqsvm` would run it: `seqsvm.cli.main` with
the remaining arguments, and the process exits with its code. The probe
(`hostspeed.SpeedProbe`) starts before `seqsvm` is imported. OUT.json gets

    {"argv": [...], "probe_samples": [...], "probe_cpu_s": ..., "spans": [...]}

`probe_cpu_s` is the CPU time the probe itself used, which the benchmark
takes out of the process's CPU time. `spans` is present with --spans only
(see `traced_cli.py`); its times include the probe's samples, about 2%.
"""

from __future__ import annotations

import json
import sys

from hostspeed import SpeedProbe


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: probed_cli.py OUT.json [--spans] <seqsvm arguments>", file=sys.stderr)
        return 1
    out_path, cli_argv = argv[0], argv[1:]
    traced = cli_argv[:1] == ["--spans"]
    if traced:
        cli_argv = cli_argv[1:]
    record: dict = {"argv": cli_argv}
    code = 2
    with SpeedProbe() as speed:
        try:
            if traced:
                from traced_cli import Tracer, install

                tracer = Tracer()
                record["spans"] = tracer.spans
                install(tracer)
                import seqsvm.cli as cli

                with tracer.span("cli.main"):
                    code = cli.main(cli_argv)
            else:
                import seqsvm.cli as cli

                code = cli.main(cli_argv)
        except SystemExit as exc:  # argparse errors and explicit exits
            code = exc.code if isinstance(exc.code, int) else 1
    record["probe_samples"] = speed.samples
    record["probe_cpu_s"] = speed.cpu_s
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
