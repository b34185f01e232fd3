#!/bin/sh
# Hostile command-line arguments for the built tools: every run below must
# exit exactly 1 — not 0 with a silently defaulted value, not 2, not by a
# signal — and `han_tunedb gc` must leave the database byte-identical.
#
#   sh tests/cli_hostile_args.sh <tools dir> <scratch dir>
set -u
tools=$1
work=$2
mkdir -p "$work"
fails=0

expect1() {
  "$@" > "$work/out.txt" 2>&1
  status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL (exit $status, want 1): $*"
    fails=$((fails + 1))
  fi
}

expect1 "$tools/han_synth" --smoke --finalists -3
expect1 "$tools/han_synth" --smoke --rounds abc
expect1 "$tools/han_synth" --smoke --mutants -1
expect1 "$tools/han_synth" --smoke --nodes 2x
expect1 "$tools/han_synth" --smoke --numa 0
expect1 "$tools/han_synth" --smoke --seed abc
expect1 "$tools/han_synth" --smoke --sizes 18446744073709551617
expect1 "$tools/han_topo" --nodes 3abc
expect1 "$tools/han_topo" --ppn 0
expect1 "$tools/han_lint" --sizes 8388608,1048576
expect1 "$tools/han_lint" --sizes 1M,1M
expect1 "$tools/han_lint" --sizes 2,1
expect1 "$tools/han_lint" --sizes 18446744073709551617
expect1 "$tools/han_verify" --smoke --jobs 2x
expect1 "$tools/han_tunedb" tune --db "$work/unused.db" --nodes 2abc

# A size past uint64_t in a lookup file fails the load; it used to wrap
# to fs=1K and verify clean.
printf 'version 4\nbcast 2 2 20 : fs=18014398509481985K\n' \
  > "$work/overflow.lookup"
expect1 "$tools/han_verify" --from-lookup "$work/overflow.lookup"
expect1 "$tools/han_lint" --audit-lookup "$work/overflow.lookup"

# A window past INT_MAX fails the load; it used to wrap to window 1.
printf 'version 4\nbcast 2 2 20 : fs=64K window=4294967297\n' \
  > "$work/window.lookup"
expect1 "$tools/han_lint" --audit-lookup "$work/window.lookup"

# gc --keep with a non-numeric or negative count refuses to run.
db="$work/fleet.db"
rm -f "$db"
if "$tools/han_tunedb" tune --db "$db" --nodes 2 --ppn 2 --sizes 64K \
    --quiet; then
  cp "$db" "$db.before"
  expect1 "$tools/han_tunedb" gc --db "$db" --keep abc
  expect1 "$tools/han_tunedb" gc --db "$db" --keep -1
  if ! cmp -s "$db" "$db.before"; then
    echo "FAIL: a rejected gc changed the database"
    fails=$((fails + 1))
  fi
else
  echo "FAIL: could not tune the scratch database"
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails hostile-argument check(s) failed"
  exit 1
fi
echo "ok: every hostile argument exits 1"
