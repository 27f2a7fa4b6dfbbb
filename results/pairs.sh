#!/bin/sh
# Alternating parent/change pairs of the benchmark, one pair per seed:
#
#   results/pairs.sh RESULT_DIR PARENT_DIR CHANGE_DIR WORKLOAD SEED...
#
# PARENT_DIR and CHANGE_DIR are checkouts of the two commits (for example
# `git archive <commit> | tar -x -C DIR`).  For each seed both run
#   python3 bench/run.py --workload WORKLOAD --seed SEED --seconds 36 --trace 0
# from their own root, the parent first on the 1st, 3rd, ... seed and the
# change first on the others.  Each report is copied into RESULT_DIR/parent/
# or RESULT_DIR/change/; `python3 results/table.py RESULT_DIR` prints the
# medians.
set -eu
[ $# -ge 5 ] || { sed -n '2,12p' "$0"; exit 2; }
mkdir -p "$1/parent" "$1/change"
here=$(cd "$1" && pwd)
parent=$(cd "$2" && pwd)
change=$(cd "$3" && pwd)
workload=$4
shift 4

run() {  # run SIDE DIR SEED
    (cd "$2" && python3 bench/run.py --workload "$workload" --seed "$3" --seconds 36 --trace 0 >/dev/null)
    cp "$2/.bench_out/BENCH_${workload}_seed$3_trace0.json" "$here/$1/"
}

first=parent
for seed in "$@"; do
    if [ "$first" = parent ]; then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
        first=change
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
        first=parent
    fi
    echo "$workload seed $seed done"
done
