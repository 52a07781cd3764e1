#!/usr/bin/env bash
# Compare the bench smoke's artifacts between another checkout and this one.
#
#   .github/scripts/artifact_identity.sh BASE_DIR [SEED]
#
# Runs `bench/run_bench.py --workload all --seed SEED --seconds 1 --trace 0`
# in BASE_DIR and in the current directory, then, on the `train` workload's
# CSV that run leaves behind, each stage on its own: train, quantize,
# simulate --trace 3, gen-hdl --vectors 5, cost --storage rom and compare,
# which read back the documents the stages before them wrote; then, with
# model.json's acc_width lowered by 3 bits, simulate --trace 5, whose traces
# wrap the accumulator. Last, in a copy of those artifacts outside the
# digested directory, it negates every quantized bias of model.json and runs
# simulate: the "refusal" row reads "refused" if that exits 2 and "accepted"
# otherwise. Prints a Markdown table of each workload's combined artifact
# digest, of the stages' ("stages") and the refusal, on both sides. Prints
# only; the exit status says whether both runs produced digests, not whether
# they match.
set -euo pipefail

base_dir=$1
seed=${2:-21}

digests() {  # one "workload sha256" line per workload of the checkout at $1
    (cd "$1" && python3 bench/run_bench.py --workload all --seed "$seed" --seconds 1 --trace 0) |
        awk '$2 == "artifacts" && $3 == "sha256" { print $1, $4 }'
}

stages() {  # one "stages sha256" line for the checkout at $1, or the stage that failed
    (
        cd "$1"
        export PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
        out=.bench_run/stages
        rm -rf "$out"
        for argv in "train --dataset .bench_run/train/data.csv --label-col label --seed 11 --budget 4" \
                    "quantize" "simulate --trace 3" "gen-hdl --vectors 5" "cost --storage rom" "compare"; do
            # shellcheck disable=SC2086  # argv is a word list
            python3 -m seqsvm $argv --out "$out" > "$out.log" 2>&1 || { echo "stages failed:${argv%% *}@$1"; exit 0; }
        done
        # an accumulator 3 bits narrower than profiled, so the traces overflow
        python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
doc["quantized"]["acc_width"] -= 3
open(sys.argv[1], "w").write(json.dumps(doc, indent=2, sort_keys=True) + "\n")' "$out/model.json" &&
            python3 -m seqsvm simulate --trace 5 --out "$out" > "$out.log" 2>&1 || { echo "stages failed:narrow@$1"; exit 0; }
        # every quantized bias negated: in range, but not the quantizer's words
        probe=.bench_run/refusal
        rm -rf "$probe"
        cp -r "$out" "$probe"
        python3 -c 'import json, sys
doc = json.load(open(sys.argv[1]))
for vector in doc["quantized"]["vectors"]:
    vector["bias"] = -vector["bias"]
open(sys.argv[1], "w").write(json.dumps(doc, indent=2, sort_keys=True) + "\n")' "$probe/model.json"
        status=0
        python3 -m seqsvm simulate --out "$probe" > "$probe.log" 2>&1 || status=$?
        echo refusal "$([ "$status" = 2 ] && echo refused || echo accepted)"
        cd "$out"
        echo stages "$(find . -type f | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d ' ' -f 1)"
    )
}

base=$(digests "$base_dir")
head=$(digests .)
if [ -z "$base" ] || [ -z "$head" ]; then
    echo "artifact identity: a bench run printed no digests" >&2
    exit 1
fi
base+=$'\n'$(stages "$base_dir")
head+=$'\n'$(stages .)

echo "### Artifacts against the base (seed $seed)"
echo
echo "| workload | base sha256 | head sha256 | identical |"
echo "|---|---|---|---|"
join -a 1 -a 2 -e missing -o 0,1.2,2.2 <(sort <<<"$base") <(sort <<<"$head") |
    awk '{ printf "| %s | `%s` | `%s` | %s |\n", $1, substr($2, 1, 16), substr($3, 1, 16), ($2 == $3 ? "yes" : "**no**") }'
