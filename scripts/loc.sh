#!/usr/bin/env bash
# loc.sh — non-test, non-comment, non-blank Go lines per package, and
# the total: the number the ROADMAP's "lines removed" targets are
# measured in. Informational (CI prints it on every run so the shrink
# pass has a trajectory); run from anywhere inside the repository.
#
#   scripts/loc.sh                    # every package
#   scripts/loc.sh internal/workload  # the named directories only
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

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
