#!/usr/bin/env bash
# The repo benchmark's one command: build sli-benchmark offline, then hand
# it the arguments.
#
#   benchmark/run.sh                     4 x 5 measured + 4 traced runs, every
#                                        metric printed, -> benchmark/out/result.json
#   benchmark/run.sh --smoke             one 2 s run of each kind per workload
#                                        (non-comparable)
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                        one run (the BENCHMARK.json contract)
#   benchmark/run.sh compare <a.json> <b.json> | selfcheck | trace <workload>
#
# Exits non-zero on any correctness failure. Run it from anywhere; a relative
# CARGO_TARGET_DIR is taken relative to the current directory, as cargo does.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# cargo's progress goes to stderr: the last line of stdout belongs to the run.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/sli-benchmark" "$@"
