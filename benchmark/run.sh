#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it; the exit status is the
# benchmark's. With no arguments every workload runs end to end and the result
# goes to benchmark/out/result.json; `--trace` is the separate traced run.
# The driver calls this with `--workload W --seed N --seconds S --trace 0|1`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --out "$here/out" "$@"
