#!/usr/bin/env bash
# Console-script contract of the installed `bhbounds`: exit codes, repeatable
# bytes and error messages.  Shared by every CI job that installs the
# package: run it with `bash .github/cli-contract.sh` and RUNNER_TEMP set to a
# writable directory.
set -eo pipefail

# expect CODE COMMAND...: run COMMAND and fail unless it exits with CODE.
expect() {
  local want=$1 status=0
  shift
  "$@" || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "expected exit $want, got $status: $*" >&2
    return 1
  fi
}

bhbounds verify --suite bh --count 10
bhbounds table
bhbounds search --m 3 --n 4 --restarts 2 --iterations 50 --seed 1
# Same flags and seed, same bytes.
bhbounds search --m 3 --n 4 --restarts 4 --iterations 100 --seed 2 > "$RUNNER_TEMP/search-1.txt"
bhbounds search --m 3 --n 4 --restarts 4 --iterations 100 --seed 2 > "$RUNNER_TEMP/search-2.txt"
cmp "$RUNNER_TEMP/search-1.txt" "$RUNNER_TEMP/search-2.txt"
bhbounds verify --format json --seed 3 > "$RUNNER_TEMP/verify-1.json"
bhbounds verify --format json --seed 3 > "$RUNNER_TEMP/verify-2.json"
cmp "$RUNNER_TEMP/verify-1.json" "$RUNNER_TEMP/verify-2.json"
expect 2 bhbounds table --schemes new,new
expect 2 bhbounds search --m 1
expect 2 bhbounds search --out "$RUNNER_TEMP/missing/best.json"
# The exact-norm budget is fixed: the environment does not widen it.
BH_BUDGET_BITS=40 expect 2 bhbounds verify --suite bh --m 5 --n 8 --count 1
expect 2 bhbounds table --precision 53
# Only bh and summing failures carry a tensor to dump.
expect 2 bhbounds verify --suite khinchine --dump-dir "$RUNNER_TEMP/d"
# A stray flag exits 2 with the flags the suite takes, --dump-dir included.
expect 2 bhbounds verify --suite bh --j 9 --count 2 2> "$RUNNER_TEMP/stray.txt"
printf '%s\n' 'error: --suite bh takes only --count, --m, --n, --dump-dir; drop --j' | cmp - "$RUNNER_TEMP/stray.txt"
bhbounds verify --suite summing --m 2 --n 2 --j 2 --count 3 --dump-dir "$RUNNER_TEMP/s"
# The budget counts the (m-1)*(N-1) bits the kernel enumerates, and the
# tensor's N^m entries are capped.  The summing suite passes both (m, N)
# and (m, J) through it, since its composed form has J^m coefficients.
bhbounds verify --suite bh --m 30 --n 1 --count 3
expect 2 bhbounds verify --suite bh --m 21 --n 2 --count 1
expect 2 bhbounds verify --suite summing --j 4097 --count 1
expect 2 bhbounds verify --suite summing --m 2 --j 26 --count 1
# A reader that closes stdout early is no error: 141 (128 + SIGPIPE, as a
# shell reports for `yes | head`) and nothing on stderr.
expect 141 bash -o pipefail -c 'bhbounds table --m-min 2 --m-max 50000 2> "$0" | head -n 1 > /dev/null' \
  "$RUNNER_TEMP/pipe.txt"
test ! -s "$RUNNER_TEMP/pipe.txt"
