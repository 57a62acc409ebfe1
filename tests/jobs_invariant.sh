#!/bin/sh
# Runs a bench at --quick --jobs 1 and at --quick --jobs 2, each in a
# directory of its own under WORKDIR with the same relative --csv
# name, and fails unless stdout and the CSV trees are byte-identical.
#
#     tests/jobs_invariant.sh WORKDIR BENCH
set -eu
work=$1
bench=$2
rm -rf "$work"
for jobs in 1 2; do
    mkdir -p "$work/jobs$jobs"
    (cd "$work/jobs$jobs" &&
        "$bench" --quick --jobs "$jobs" --csv csv > stdout.txt)
done
diff -r "$work/jobs1" "$work/jobs2"
