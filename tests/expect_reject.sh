#!/bin/sh
# Passes when a command exits non-zero and its output (stdout and
# stderr together) matches an extended regex: a refused command line
# must fail and say why.
#
# Usage: tests/expect_reject.sh <regex> <command> [args...]
regex=$1
shift
out=$("$@" 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -eq 0 ]; then
    echo "expect_reject: exit status 0"
    exit 1
fi
if ! printf '%s\n' "$out" | grep -Eq -- "$regex"; then
    echo "expect_reject: no line matches /$regex/"
    exit 1
fi
