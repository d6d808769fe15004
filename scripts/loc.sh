#!/bin/sh
# Line totals of the OCaml sources (.ml and .mli), by area: the program
# (lib/ and bin/), the tests (test/) and the benchmark (perfbench/).
#
#   scripts/loc.sh          # totals of the working tree
#   scripts/loc.sh BASE     # ... and the net change against a git commit
#
# The totals count the files on disk, committed or not; the base is read
# with `git show`, so it needs no checkout.  Informational only: nothing
# fails on the figures.
set -eu
cd "$(dirname "$0")/.."

# Lines of the .ml/.mli files under the given directories in the tree.
tree_lines() {
  find "$@" \( -name '*.ml' -o -name '*.mli' \) -type f -print0 \
    | xargs -0 cat | wc -l | tr -d ' '
}

# Lines of the .ml/.mli files under the given directories at commit $base.
base_lines() {
  git ls-tree -r --name-only "$base" -- "$@" \
    | grep -E '\.mli?$' \
    | while IFS= read -r f; do git show "$base:$f"; done \
    | wc -l | tr -d ' '
}

base=${1:-}
if [ -n "$base" ]; then
  git rev-parse --verify --quiet "$base^{commit}" > /dev/null \
    || { echo "loc.sh: unknown git base '$base'" >&2; exit 2; }
  printf '%-14s %8s %8s %8s\n' area lines base net
else
  printf '%-14s %8s\n' area lines
fi
for area in "lib bin" test perfbench; do
  # shellcheck disable=SC2086
  now=$(tree_lines $area)
  if [ -n "$base" ]; then
    # shellcheck disable=SC2086
    was=$(base_lines $area)
    printf '%-14s %8d %8d %+8d\n' "$(echo $area | tr ' ' +)" "$now" "$was" \
      $((now - was))
  else
    printf '%-14s %8d\n' "$(echo $area | tr ' ' +)" "$now"
  fi
done
