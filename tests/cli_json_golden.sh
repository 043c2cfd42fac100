#!/usr/bin/env bash
# Byte-stability pin for nck_cli's machine output: `lint --json`,
# `certify --json` and `simplify --json` on every examples/programs/*.nck
# must print exactly tests/golden/<program>.<subcommand>.json.
# Run by ctest as: cli_json_golden.sh <path-to-nck_cli> <repo-root>
# A deliberate format change re-records the goldens with
#   nck_cli <subcommand> --json examples/programs/<p>.nck \
#     > tests/golden/<p>.<subcommand>.json
set -u

CLI="$1"
ROOT="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fails=0
checked=0
for program in "$ROOT"/examples/programs/*.nck; do
  name="$(basename "$program" .nck)"
  for sub in lint certify simplify; do
    golden="$ROOT/tests/golden/$name.$sub.json"
    if [ ! -f "$golden" ]; then
      echo "FAIL: $name $sub: no golden at $golden" >&2
      fails=$((fails + 1))
      continue
    fi
    # Exit codes are cli_exit_codes.sh's business; only stdout is pinned.
    "$CLI" "$sub" --json "$program" > "$TMP/out" 2> /dev/null
    if cmp -s "$TMP/out" "$golden"; then
      echo "ok: $name $sub"
    else
      echo "FAIL: $name $sub: output differs from $golden" >&2
      diff "$golden" "$TMP/out" | head -5 >&2
      fails=$((fails + 1))
    fi
    checked=$((checked + 1))
  done
done

if [ "$checked" -eq 0 ]; then
  echo "FAIL: no programs under $ROOT/examples/programs" >&2
  exit 1
fi
echo "$checked outputs checked, $fails differ"
[ "$fails" -eq 0 ]
