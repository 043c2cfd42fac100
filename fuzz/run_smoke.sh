#!/usr/bin/env bash
# Bounded fuzzing smoke gate (the CI `fuzz-smoke` job and the local
# pre-merge check). For every harness in the given build directory:
#   1. replay the committed corpus under tests/corpus/<harness>/, then
#   2. fuzz fresh mutations for a bounded wall-clock.
# Any crash/OOM/leak fails the script. Works identically whether the
# harnesses link real libFuzzer (Clang) or the bundled standalone driver
# (GCC): the flags below are honored by both.
#
# Usage: fuzz/run_smoke.sh <build-dir> [seconds-per-harness]
set -euo pipefail

build_dir=${1:?usage: fuzz/run_smoke.sh <build-dir> [seconds-per-harness]}
budget=${2:-60}
repo_dir=$(cd "$(dirname "$0")/.." && pwd)

# Fail loudly on the first sanitizer finding; detect leaks where ASan can.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="detect_leaks=1"

status=0
for harness in fuzz_parse fuzz_serve_protocol fuzz_trace_json fuzz_differential; do
  bin="$build_dir/fuzz/$harness"
  corpus="$repo_dir/tests/corpus/$harness"
  if [[ ! -x "$bin" ]]; then
    echo "run_smoke: missing harness binary $bin (configure with -DNCK_FUZZ=ON)" >&2
    exit 2
  fi
  # libFuzzer writes new corpus entries into the first corpus directory;
  # fuzz from a scratch copy so the committed corpus only changes when a
  # human promotes an entry (see DESIGN.md §3j).
  scratch=$(mktemp -d)
  cp "$corpus"/* "$scratch"/ 2>/dev/null || true
  echo "=== $harness: corpus replay + ${budget}s of fresh mutations ==="
  if ! "$bin" -max_total_time="$budget" -seed=1 \
       -dict="$repo_dir/fuzz/nck.dict" "$scratch"; then
    echo "run_smoke: $harness FAILED" >&2
    status=1
  fi
  rm -rf "$scratch"
done
exit $status
