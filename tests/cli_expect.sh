#!/bin/sh
# Runs a command and checks its exit status and one of its streams:
#
#     cli_expect.sh STATUS stdout|stderr PATTERN COMMAND [ARG...]
#
# passes when COMMAND exits with STATUS and a line of the named stream
# matches the extended regular expression PATTERN.
status=$1 stream=$2 pattern=$3
shift 3
case $stream in
stdout) out=$("$@" 2> /dev/null); got=$? ;;
stderr) out=$("$@" 2>&1 > /dev/null); got=$? ;;
*) echo "cli_expect.sh: bad stream '$stream'"; exit 2 ;;
esac
printf '%s\n' "$out"
[ "$got" -eq "$status" ] || { echo "exit $got, want $status"; exit 1; }
printf '%s\n' "$out" | grep -Eq -- "$pattern" ||
    { echo "no $stream line matches '$pattern'"; exit 1; }
