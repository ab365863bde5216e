#!/usr/bin/env bash
# What only the installed `bhbounds` console script can show: that it runs,
# that main's exit code passes through its entry point, and how it exits on
# a closed stdout.  Every other CLI check is a tier-1 test in
# tests/test_cli.py.  Every entry of the CI test matrix runs it: run it
# with `bash .github/cli-contract.sh` and RUNNER_TEMP set to a writable
# directory.
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

bhbounds table
# `table` needs no numpy, and the entry point imports none: it runs with a
# numpy that cannot be imported first on the path.
mkdir -p "$RUNNER_TEMP/no-numpy"
echo 'raise ImportError("numpy is hidden from this run")' > "$RUNNER_TEMP/no-numpy/numpy.py"
PYTHONPATH="$RUNNER_TEMP/no-numpy" bhbounds table > /dev/null
expect 2 bhbounds search --m 1
# A reader that closes stdout early is no error: 141 (128 + SIGPIPE, as a
# shell reports for `yes | head`) and nothing on stderr.
expect 141 bash -o pipefail -c 'bhbounds table --m-min 2 --m-max 50000 2> "$0" | head -n 1 > /dev/null' \
  "$RUNNER_TEMP/pipe.txt"
test ! -s "$RUNNER_TEMP/pipe.txt"
