#!/usr/bin/env bash
# fuzz.sh — run every Fuzz* target of the module for the given time each,
# and print each target's execs and new inputs. The targets come from
# `go test -list`, so a target is run the moment its test file defines
# it; what each one checks is its doc comment (`go doc -u -all <pkg>
# <target>`). Minimizing a new input is bounded at 1 s, so a short run
# spends its time searching. A failing input is written to the package's
# testdata/fuzz, as `go test -fuzz` does; the script runs every target
# and exits 1 if any failed. Run from anywhere inside the repository.
#
#   scripts/fuzz.sh 20s    # ci.yml's fuzz-smoke
#   scripts/fuzz.sh 5m     # soak.yml's fuzz-soak
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

fuzztime="${1:?usage: scripts/fuzz.sh <fuzztime>}"

# go test -list prints a package's matching names, then its "ok" line;
# only packages whose tests define a target need building for it.
mapfile -t pkgs < <(grep -rl '^func Fuzz' --include='*_test.go' . | xargs -n1 dirname | sort -u)
targets=()
names=()
while read -r first second _; do
  case "$first" in
    Fuzz*) names+=("$first") ;;
    ok)
      for n in "${names[@]}"; do targets+=("$second $n"); done
      names=()
      ;;
  esac
done < <(go test -list '^Fuzz' "${pkgs[@]}")

failed=()
for t in "${targets[@]}"; do
  read -r pkg name <<<"$t"
  log=$(mktemp)
  if go test -run '^$' -fuzz "^$name\$" -fuzztime "$fuzztime" -fuzzminimizetime 1s "$pkg" >"$log" 2>&1; then
    status=ok
  else
    status=FAIL
    failed+=("$name")
  fi
  last=$(grep -E '^fuzz: elapsed' "$log" | tail -n 1 || true)
  execs=$(sed -nE 's/.*execs: ([0-9]+).*/\1/p' <<<"$last")
  found=$(sed -nE 's/.*new interesting: ([0-9]+).*/\1/p' <<<"$last")
  printf '%-4s %-30s %-28s execs %10s  new inputs %5s\n' "$status" "$name" "${pkg#p2pm/}" "${execs:-?}" "${found:-?}"
  [ "$status" = FAIL ] && cat "$log"
  rm -f "$log"
done

if [ "${#failed[@]}" -gt 0 ]; then
  echo "fuzz.sh: ${#failed[@]} of ${#targets[@]} targets failed: ${failed[*]}" >&2
  exit 1
fi
echo "fuzz.sh: ${#targets[@]} targets passed, $fuzztime each"
