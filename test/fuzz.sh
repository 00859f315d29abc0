#!/usr/bin/env bash
# Run each test executable given as an argument 20 times, each time under
# a fresh QCHECK_SEED. Print a replay command for every failing run and
# exit 1 if there was one.
# usage: fuzz.sh SUITE.exe...   (normally via `dune build @fuzz`)

failed=0
for exe in "$@"; do
  suite=$(basename "$exe" .exe)
  for _ in $(seq 20); do
    seed=$(( ((RANDOM << 15) | RANDOM) % 1000000000 ))
    if ! out=$(QCHECK_SEED=$seed "./$exe" 2>&1); then
      echo "FAIL: QCHECK_SEED=$seed dune exec test/$suite.exe"
      grep -F '[FAIL]' <<<"$out"
      failed=1
    fi
  done
  echo "$suite: 20 seeds run"
done
exit "$failed"
