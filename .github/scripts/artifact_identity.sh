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
# wrap the accumulator. Last, it probes two hand-edited copies of those
# artifacts, each outside the digested directory: the "refusal" row negates
# every quantized bias of model.json and runs simulate, and the
# "null_normalization" row sets float_model.json's dataset.normalization to
# null and runs quantize. A row reads "refused" if its stage exits 2 and
# "accepted" otherwise. Prints a Markdown table of each workload's combined
# artifact digest, of the stages' ("stages") and of each probe, on both sides; then,
# per workload and for the stages, the names of the files whose sha256
# differs between the sides (or exists on one side only; a directory with
# more than 3 such files is named once, with their count), from each side's
# `.bench_run/<workload>/digests-seed<SEED>.json` and a per-file digest of
# its stages directory. Prints only; the exit status says whether both runs
# produced digests, not whether they match.
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
        probe() {  # probe ROW FILE STAGE EDIT: in a copy of the artifacts, EDIT (Python on `doc`) FILE, run STAGE
            rm -rf ".bench_run/$1"
            cp -r "$out" ".bench_run/$1"
            python3 -c "import json, sys
doc = json.load(open(sys.argv[1]))
$4
open(sys.argv[1], 'w').write(json.dumps(doc, indent=2, sort_keys=True) + '\\n')" ".bench_run/$1/$2"
            status=0
            python3 -m seqsvm "$3" --out ".bench_run/$1" > ".bench_run/$1.log" 2>&1 || status=$?
            echo "$1" "$([ "$status" = 2 ] && echo refused || echo accepted)"
        }
        # every quantized bias negated: in range, but not the quantizer's words
        probe refusal model.json simulate 'for vector in doc["quantized"]["vectors"]:
    vector["bias"] = -vector["bias"]'
        # no training ranges, so nothing to check the CSV's against
        probe null_normalization float_model.json quantize 'doc["dataset"]["normalization"] = None'
        cd "$out"
        echo stages "$(find . -type f | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d ' ' -f 1)"
    )
}

files() {  # one "path sha256" line per artifact of workload $2 (or "stages") in the checkout at $1
    if [ "$2" = stages ]; then
        (cd "$1/.bench_run/stages" && find . -type f | LC_ALL=C sort | xargs sha256sum) |
            awk '{ sub(/^\.\//, "", $2); print $2, $1 }'
    else
        python3 -c 'import json, sys
for path, digest in json.load(open(sys.argv[1])).items():
    print(path, digest)' "$1/.bench_run/$2/digests-seed$seed.json"
    fi | LC_ALL=C sort
}

base=$(digests "$base_dir")
head=$(digests .)
if [ -z "$base" ] || [ -z "$head" ]; then
    echo "artifact identity: a bench run printed no digests" >&2
    exit 1
fi
workloads=$(cut -d ' ' -f 1 <<<"$head")
base+=$'\n'$(stages "$base_dir")
head+=$'\n'$(stages .)

echo "### Artifacts against the base (seed $seed)"
echo
echo "| workload | base sha256 | head sha256 | identical |"
echo "|---|---|---|---|"
join -a 1 -a 2 -e missing -o 0,1.2,2.2 <(sort <<<"$base") <(sort <<<"$head") |
    awk '{ printf "| %s | `%s` | `%s` | %s |\n", $1, substr($2, 1, 16), substr($3, 1, 16), ($2 == $3 ? "yes" : "**no**") }'

echo
echo "| workload | files that differ |"
echo "|---|---|"
for workload in $workloads stages; do
    # a directory with more than 3 differing files is named once, with its count
    differ=$(LC_ALL=C join -a 1 -a 2 -e missing -o 0,1.2,2.2 <(files "$base_dir" "$workload") <(files . "$workload") |
        awk 'function dir(path) { sub(/[^\/]*$/, "", path); return path }
             $2 != $3 { paths[++n] = $1; count[dir($1)]++ }
             END {
                 for (i = 1; i <= n; i++) {
                     d = dir(paths[i])
                     if (d == "" || count[d] <= 3) item = "`" paths[i] "`"
                     else if (!(d in named)) { item = "`" d "` (" count[d] " files)"; named[d] = 1 }
                     else continue
                     printf "%s%s", sep, item; sep = ", "
                 }
             }')
    echo "| $workload | ${differ:-none} |"
done
