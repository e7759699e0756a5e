#!/usr/bin/env bash
# Paper-table gate: every figure/table binary with a committed
# results/<bin>.txt must print exactly that file at paper scale. The
# `wrote ...` lines name the JSON documents a run writes and are
# ignored. Sweep cells run on two workers (BF_THREADS=2); the output
# does not depend on the worker count.
#
# Usage: cargo build --release -p bf-bench && ci/paper_tables.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
# The binaries write their JSON documents under ./results; run them in a
# scratch directory so the checkout's results/ stays untouched.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
status=0
# Only the committed tables: a run or a CI job may leave other text
# files under results/ (bf_top --once output, timeline summaries).
for table in $(git ls-files 'results/*.txt'); do
  bin=$(basename "$table" .txt)
  start=$(date +%s%N)
  (cd "$scratch" && BF_THREADS=2 "$root/target/release/$bin") \
    | grep -v '^wrote ' > "$scratch/$bin.txt"
  ms=$(( ($(date +%s%N) - start) / 1000000 ))
  if diff -u "$table" "$scratch/$bin.txt"; then
    echo "ok   $bin (${ms} ms)"
  else
    echo "FAIL $bin: stdout differs from $table" >&2
    status=1
  fi
done
exit $status
