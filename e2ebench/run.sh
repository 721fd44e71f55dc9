#!/usr/bin/env bash
# Builds kronpriv-serve and the e2ebench binary (release), then runs e2ebench:
#   bash e2ebench/run.sh --workload dataset_k16 --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Build output goes to stderr, so the last stdout line is
# e2ebench's JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin kronpriv-serve >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$target/release/e2ebench" --server "$target/release/kronpriv-serve" "$@"
