#!/usr/bin/env bash
# loc.sh — print the repo's Go line counts, split into production and test.
#
# Production lines are every non-_test.go .go file outside perfbench/ (the
# benchmark harness is its own module); test lines are the _test.go files
# under the same rule. Files are those git tracks or would track (untracked
# but not ignored), so build output never counts. CHANGES.md records each
# change's net delta in these two numbers.
#
# Usage:
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # $1 = grep flag: -v for production, -e for test files
    git ls-files --cached --others --exclude-standard -- '*.go' ':!:perfbench/' |
        grep $1 '_test\.go$' |
        while read -r f; do if [ -f "$f" ]; then cat "$f"; fi; done | wc -l
}

echo "production $(count -v)"
echo "test $(count -e)"
