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

# Runs the test a Test: line names on the copy as it stands.
run_test() {
  # shellcheck disable=SC2086 # the Test: line is a word list
  (cd "$copy" && cargo test --release --quiet $1 -- --exact) </dev/null >/dev/null 2>&1
}

failed=0
# A test that fails without its mutant proves nothing about the mutant. A
# failing one is run once more, and both outcomes are printed with the load
# average, to tell a flaky test or an overloaded host from a broken one; the
# job fails either way.
while read -r args; do
  if ! run_test "$args"; then
    if run_test "$args"; then again=passed; else again=failed; fi
    load=$(cut -d ' ' -f 1-3 /proc/loadavg 2>/dev/null || uptime)
    echo "FAIL $args: fails on the unpatched tree (first run failed, re-run $again; load average $load)"
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
  elif run_test "$args"; then
    echo "FAIL $name: survived ($args passed)"
    failed=1
  else
    echo "ok   $name: killed by $args"
  fi
  git -C "$copy" apply -R "$patch"
done
exit $failed
