#!/bin/sh
# Fail if lib/core or lib/lp gain new bare `failwith` or `assert false`
# sites. The estimation pipeline's error policy is the typed Fault /
# Result API (see docs/robustness.md); untyped raises belong only in the
# allowlisted legacy sites below. When you remove one, shrink the
# allowlist; when you genuinely need a new one, say why in the PR that
# extends it.
#
# Usage: tools/lint_no_failwith.sh [repo-root]
# Runs from any cwd: without an argument the repo root is resolved from
# the script's own location. Exits non-zero on violations, listing each
# offending site as file:line:content.
set -eu

root=${1:-$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)}
cd "$root"

# file:count pairs that are allowed to raise untyped errors today
allowlist="
lib/core/fault.ml:1
lib/core/chain_n.ml:1
lib/core/star.ml:1
"

status=0
for file in lib/core/*.ml lib/lp/*.ml; do
  count=$(grep -c 'failwith\|assert false' "$file" || true)
  [ "$count" -eq 0 ] && continue
  allowed=0
  for entry in $allowlist; do
    case "$entry" in
    "$file":*) allowed=${entry##*:} ;;
    esac
  done
  if [ "$count" -gt "$allowed" ]; then
    echo "lint: $file has $count bare failwith/assert-false sites (allowed: $allowed)" >&2
    grep -n 'failwith\|assert false' "$file" | sed "s|^|$file:|" >&2
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "lint: use the typed Fault error API instead (docs/robustness.md)" >&2
fi
exit $status
