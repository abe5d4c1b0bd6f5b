#!/usr/bin/env bash
# Mutation checks: every oracle must be able to fail.
#
# Each `ci/mutants/*.patch` is one mutant: a small change that breaks the
# program, preceded by a `Test:` line naming the `cargo test` arguments of the
# test that must fail on it. The script copies the tracked files of the tree
# into a throwaway directory, then for each patch applies it, builds and runs
# the named test in release, and reverts it. It fails when a named test fails
# on the unpatched tree, when a patch no longer applies or builds, or when the
# named test passes on it (the mutant survived).
#
# Usage: ci/mutants.sh [WORK_DIR] [PATCH...]
#   WORK_DIR  where the copy and its build go (default: a fresh temp dir)
#   PATCH     run only these patches (default: every ci/mutants/*.patch)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$(mktemp -d)}
shift || true
patches=("$@")
if [ ${#patches[@]} -eq 0 ]; then
  patches=("$root"/ci/mutants/*.patch)
fi

copy="$work/tree"
rm -rf "$copy"
mkdir -p "$copy"
# Tracked files only, modification times kept, so each mutant rebuilds only
# the crates its patch touches.
git -C "$root" ls-files -z | (cd "$root" && tar --null -T - -cf -) | tar -xf - -C "$copy"
# A repository of its own, so `git apply` patches the copy wherever it is.
git -C "$copy" init --quiet
export CARGO_TARGET_DIR="$work/target"

failed=0
# A test that fails without its mutant proves nothing about the mutant.
while read -r args; do
  # shellcheck disable=SC2086 # the Test: line is a word list
  if ! (cd "$copy" && cargo test --release --quiet $args -- --exact) </dev/null >/dev/null 2>&1; then
    echo "FAIL $args: fails on the unpatched tree"
    failed=1
  fi
done < <(sed -n 's/^Test: //p' "${patches[@]}" | sort -u)
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  args=$(sed -n 's/^Test: //p' "$patch" | head -n 1)
  if [ -z "$args" ]; then
    echo "FAIL $name: no 'Test:' line"
    failed=1
    continue
  fi
  if ! git -C "$copy" apply "$patch"; then
    echo "FAIL $name: the patch no longer applies"
    failed=1
    continue
  fi
  # shellcheck disable=SC2086 # the Test: line is a word list
  if ! (cd "$copy" && cargo test --release --quiet $args --no-run) >/dev/null 2>&1; then
    echo "FAIL $name: the mutant does not build"
    failed=1
  elif (cd "$copy" && cargo test --release --quiet $args -- --exact) >/dev/null 2>&1; then
    echo "FAIL $name: survived ($args passed)"
    failed=1
  else
    echo "ok   $name: killed by $args"
  fi
  git -C "$copy" apply -R "$patch"
done
exit $failed
