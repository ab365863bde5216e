#!/usr/bin/env bash
# Byte pins of the installed `bhbounds` script, shared by every CI job that
# installs the package: run it with `bash .github/pinned-bytes.sh` and
# RUNNER_TEMP set to a writable directory.
set -eo pipefail

# Search stream pinned across numpy versions.
# Values from the walk that drew one integers(0, N, size=m) per proposal.
bhbounds search --m 4 --n 3 --restarts 3 --iterations 4500 --seed 5 --out "$RUNNER_TEMP/best.json" > "$RUNNER_TEMP/search.txt"
printf '%s\n' 'ratio=0.8204451193747314 bound=2.0 m=4 n=3 restarts=3 iterations=13500 seed=5' | cmp - "$RUNNER_TEMP/search.txt"
echo "098b4a179655c12b9b7d9623488822ad82073124ee21dd2a9c87da1c10a9299a  $RUNNER_TEMP/best.json" | sha256sum -c -
# (5, 4) is past the pattern-table cap: every proposal is scored by the kernel.
bhbounds search --m 5 --n 4 --restarts 2 --iterations 40 --seed 1 --out "$RUNNER_TEMP/cap.json" > "$RUNNER_TEMP/cap.txt"
printf '%s\n' 'ratio=0.5423728813559321 bound=2.2973967099940698 m=5 n=4 restarts=2 iterations=80 seed=1' | cmp - "$RUNNER_TEMP/cap.txt"
echo "2a871947a5f07980ce75c9f1da72e65f40c2aeae3607430b4d4f28ec0dfe6ae4  $RUNNER_TEMP/cap.json" | sha256sum -c -

# Table bytes pinned.
# Every value up to m = 60 is below 10^9, so a last-bit difference in
# the host's libm cannot reach the third decimal printed here.
bhbounds table --m-min 2 --m-max 60 --format csv --schemes new,cor52,classic,cor52-complex,dsp-complex > "$RUNNER_TEMP/table.csv"
echo "9365938623a446bea652d8d14d84e4adebb32bf55de0b892236f1123bfeafc14  $RUNNER_TEMP/table.csv" | sha256sum -c -
bhbounds table --m-min 2 --m-max 60 --format json --schemes new,cor52,classic,cor52-complex,dsp-complex > "$RUNNER_TEMP/table.json"
echo "8c81e609245875bec5786f302e54d0826757666c77892371b73cf72e3c245570  $RUNNER_TEMP/table.json" | sha256sum -c -
bhbounds table --m-min 2 --m-max 60 --format text --schemes new,cor52,classic,cor52-complex,dsp-complex > "$RUNNER_TEMP/table.txt"
echo "708fc81af7ce07d9b722e36ff3cc1ec85653838646329755149327aa9ef6ef26  $RUNNER_TEMP/table.txt" | sha256sum -c -
