#!/bin/sh
# Pre-commit check: every workload for 0.3 s, the probes and one traced trial
# each, with every output verified.  Exits non-zero if a verification fails.
# Run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke "$@" >/dev/null
