#!/usr/bin/env bash
# The command BENCHMARK.json names: build and run this directory's module
# with the caller's arguments, wherever it is called from.
cd "$(dirname "$0")" && exec go run . "$@"
