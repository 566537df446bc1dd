#!/usr/bin/env bash
# Counts the repository's non-test Go lines outside benchmark/ (its own
# module): the total, then one line per top-level package — cmd/<name>,
# examples/<name> or internal/<name>, subpackages included (internal/exec
# counts internal/exec/vm) — largest first. These are the sizes ROADMAP.md
# quotes for the tree.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . -path ./benchmark -prune -o -path ./.git -prune -o \
	-name '*.go' ! -name '*_test.go' -type f -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		n = split(substr($2, 3), part, "/")
		pkg = n > 2 ? part[1] "/" part[2] : (n == 2 ? part[1] : ".")
		lines[pkg] += $1
		total += $1
	}
	END {
		printf "%d total\n", total
		for (p in lines) printf "%7d %s\n", lines[p], p | "sort -rn"
	}'
