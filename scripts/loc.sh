#!/usr/bin/env bash
# loc.sh — non-test, non-comment, non-blank Go lines per package, and
# the total: the number the ROADMAP's "lines removed" targets are
# measured in. CI prints it on every run so the shrink pass has a
# trajectory, and passes --max so it cannot silently reverse; run from
# anywhere inside the repository.
#
#   scripts/loc.sh                    # every package
#   scripts/loc.sh internal/workload  # the named directories only
#   scripts/loc.sh --max 23500        # exit 1 if the total exceeds 23500
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

max=""
if [ "${1:-}" = "--max" ]; then
  max="${2:?--max needs a line count}"
  shift 2
fi

if [ "$#" -gt 0 ]; then
  dirs=("$@")
else
  mapfile -t dirs < <(git ls-files '*.go' | grep -v '_test\.go$' | xargs -n1 dirname | sort -u)
fi

total=0
for d in "${dirs[@]}"; do
  files=$(ls "$d"/*.go 2>/dev/null | grep -v '_test\.go$' || true)
  [ -z "$files" ] && continue
  # shellcheck disable=SC2086 # word-splitting the file list is the point
  n=$(cat $files | grep -v '^\s*//' | grep -v '^\s*$' | wc -l)
  printf '%6d  %s\n' "$n" "$d"
  total=$((total + n))
done
printf '%6d  total\n' "$total"
if [ -n "$max" ] && [ "$total" -gt "$max" ]; then
  echo "loc.sh: $total non-test lines exceed the ceiling of $max (raise it in the PR that means to, with a reason)" >&2
  exit 1
fi
