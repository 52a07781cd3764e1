#!/usr/bin/env bash
# Compare the bench smoke's artifacts between another checkout and this one.
#
#   .github/scripts/artifact_identity.sh BASE_DIR [SEED]
#
# Runs `bench/run_bench.py --workload all --seed SEED --seconds 1 --trace 0`
# in BASE_DIR and in the current directory, and prints a Markdown table of
# each workload's combined artifact digest on both sides. Prints only; the
# exit status says whether both runs produced digests, not whether they match.
set -euo pipefail

base_dir=$1
seed=${2:-21}

digests() {  # one "workload sha256" line per workload of the checkout at $1
    (cd "$1" && python3 bench/run_bench.py --workload all --seed "$seed" --seconds 1 --trace 0) |
        awk '$2 == "artifacts" && $3 == "sha256" { print $1, $4 }'
}

base=$(digests "$base_dir")
head=$(digests .)
if [ -z "$base" ] || [ -z "$head" ]; then
    echo "artifact identity: a bench run printed no digests" >&2
    exit 1
fi

echo "### Artifacts against the base (seed $seed)"
echo
echo "| workload | base sha256 | head sha256 | identical |"
echo "|---|---|---|---|"
join -a 1 -a 2 -e missing -o 0,1.2,2.2 <(sort <<<"$base") <(sort <<<"$head") |
    awk '{ printf "| %s | `%s` | `%s` | %s |\n", $1, substr($2, 1, 16), substr($3, 1, 16), ($2 == $3 ? "yes" : "**no**") }'
