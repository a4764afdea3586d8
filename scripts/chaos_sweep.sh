#!/usr/bin/env bash
# Run the seeded chaos sweep against the full stack and fail loudly if
# any campaign violates an invariant or the aggregate
# success-or-clean-compensation ratio drops below the floor.
#
# Usage:
#   scripts/chaos_sweep.sh                 # 32 mem-network seeds at 20% faults
#   scripts/chaos_sweep.sh --tcp           # 32 seeds over real sockets + fault proxy
#   scripts/chaos_sweep.sh --seeds 4 --fault-pct 0.4 --runs 48
#
# All flags after the script name are passed through to the chaos binary
# (see `cargo run -p soc-chaos --bin chaos -- --help`). The defaults
# here mirror the CI job: mem and TCP sweeps both get 32 seeds.
set -euo pipefail

cd "$(dirname "$0")/.."

args=("$@")
if [[ " ${args[*]-} " != *" --seeds "* ]]; then
    args=(--seeds 32 "${args[@]}")
fi

exec cargo run -p soc-chaos --bin chaos --release --quiet -- "${args[@]}"
