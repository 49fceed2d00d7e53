#!/usr/bin/env bash
# golines.sh — Go line delta of the working tree against a base commit,
# split into program code and tests (_test.go).
#
# Usage:
#   ./scripts/golines.sh BASE        # e.g. ./scripts/golines.sh HEAD~1
#
# Counts come from `git diff --numstat BASE` over *.go files, so staged
# and unstaged edits are included; untracked files are not (git add
# them first). Binary entries ("-") are skipped.

set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi

cd "$(dirname "$0")/.."

git diff --numstat "$1" -- '*.go' | awk '
    $1 == "-" { next }
    {
        kind = ($3 ~ /_test\.go$/) ? "test" : "program"
        add[kind] += $1
        del[kind] += $2
    }
    END {
        for (i = 1; i <= 2; i++) {
            kind = (i == 1) ? "program" : "test"
            printf "%-8s +%d -%d net %+d\n", kind, add[kind], del[kind], add[kind] - del[kind]
        }
        printf "%-8s +%d -%d net %+d\n", "total", add["program"] + add["test"], del["program"] + del["test"], add["program"] + add["test"] - del["program"] - del["test"]
    }'
