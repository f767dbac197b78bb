#!/usr/bin/env bash
# Reach check: every header under src/ must be #included by code that an
# entry point builds, i.e. by src/ (other than the header's own .cpp),
# tools/, bench/, examples/ or perfbench/. A header that only tests/
# include is a module no registry, command or serving path can reach:
# delete it, or move it into tests/ if it is a test oracle. Registered
# with ctest; prints the unreached headers and exits 1 if there are any.
#
# Usage: tools/check_reach.sh [repo-root]   (default: this script's parent)
set -euo pipefail
ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT"

unreached=()
while IFS= read -r header; do
  rel="${header#src/}"
  users=$(grep -rlF --include='*.h' --include='*.cpp' "#include \"$rel\"" \
            src tools bench examples perfbench || true)
  users=$(printf '%s\n' "$users" | grep -vxF -e "${header%.h}.cpp" -e '' || true)
  [ -n "$users" ] || unreached+=("$rel")
done < <(find src -name '*.h' | LC_ALL=C sort)

if [ "${#unreached[@]}" -gt 0 ]; then
  echo "headers no entry point reaches (only tests/ or their own .cpp include them):"
  printf '  %s\n' "${unreached[@]}"
  exit 1
fi
echo "reach check OK: every src/ header is included outside tests/"
