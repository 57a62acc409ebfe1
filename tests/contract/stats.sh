#!/bin/sh
# The metrics-snapshot contract: each point of points.txt must make
# `ccsim stats <arguments> --json` print exactly its pinned <name>.json.
#
#     tests/contract/stats.sh CCSIM NAME      check one point (ctest)
#     tests/contract/stats.sh CCSIM --bless   rewrite every pinned file
#
# CCSIM is the built binary, e.g. build/tools/ccsim.  A change that
# moves a snapshot on purpose re-blesses, shows the diff and says why.
set -eu
set -f # the arguments are split into words, never globbed
dir=$(dirname "$0")
ccsim=$1
want=$2
found=0 status=0
while read -r name args; do
    case $name in '' | '#'*) continue ;; esac
    [ "$want" = --bless ] || [ "$want" = "$name" ] || continue
    found=1
    if [ "$want" = --bless ]; then
        "$ccsim" stats $args --json > "$dir/$name.json"
    else
        "$ccsim" stats $args --json | diff -u "$dir/$name.json" - ||
            status=1
    fi
done < "$dir/points.txt"
[ "$found" = 1 ] || { echo "stats.sh: no point '$want' in points.txt"; exit 2; }
exit $status
