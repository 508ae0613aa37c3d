#!/usr/bin/env bash
# Builds spider-benchmark (release) and stamps the build's fingerprint
# beside the executable. Prints the executable's path on stdout.
#
# One route: cargo, offline, with every crates.io dependency of the
# workspace patched to the repo's own stand-ins (see Cargo.toml). The
# target directory is $CARGO_TARGET_DIR (resolved against the caller's
# working directory) or benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="$(realpath -m "${CARGO_TARGET_DIR:-$here/target}")"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cat > "$target/release/fingerprint.json" <<JSON
{"nproc": $(nproc), "rustc": "$(rustc --version)", "route": "cargo build --release --offline, crates.io patched to scripts/offline stand-ins", "rayon": "stub (sequential)", "commit": "$commit"}
JSON
echo "$target/release/spider-benchmark"
