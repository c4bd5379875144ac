#!/usr/bin/env bash
# Tier-1 gate: format, build, test, lint. Offline-safe — all dependencies
# resolve to in-repo path crates (compat/*), so no network is ever needed.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo fmt --check

deps_of() { # deps_of TABLE MANIFEST: the entry names of one manifest table
  awk -v table="$1" '/^\[/ { in_deps = ($0 == table); next }
                     in_deps && /^[A-Za-z0-9_-]+ *=/ { print $1 }' "$2"
}

# Every [dependencies] entry of a workspace crate must be named (hyphens
# as underscores) somewhere in that crate's src/ or benches/, and every
# [dev-dependencies] entry there or in its tests/ and examples/, or in the
# files its [[test]]/[[example]] targets point at (the facade's root
# tests/ and examples/); a manifest entry no source uses fails the gate.
unused_deps=$(for manifest in crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  srcs=("$dir/src")
  if [ -d "$dir/benches" ]; then srcs+=("$dir/benches"); fi
  dev_srcs=("${srcs[@]}")
  for sub in tests examples; do
    if [ -d "$dir/$sub" ]; then dev_srcs+=("$dir/$sub"); fi
  done
  for target in $(awk '/^\[\[(test|example)\]\]/ { in_target = 1; next } /^\[/ { in_target = 0 }
                       in_target && /^path *=/ { gsub(/"/, "", $3); print $3 }' "$manifest"); do
    dev_srcs+=("$dir/$target")
  done
  for dep in $(deps_of "[dependencies]" "$manifest"); do
    grep -rqw "${dep//-/_}" "${srcs[@]}" || echo "$manifest: $dep"
  done
  for dep in $(deps_of "[dev-dependencies]" "$manifest"); do
    grep -rqw "${dep//-/_}" "${dev_srcs[@]}" || echo "$manifest: $dep (dev)"
  done
done)
if [ -n "$unused_deps" ]; then
  echo "ci: dependency entries no source uses:" >&2
  echo "$unused_deps" >&2
  exit 1
fi

# Every `pub fn` and `pub mod` in crates/*/src outside #[cfg(test)] (the
# same awk rule as the unwrap gate below) must be named in some other .rs
# file under crates/, tests/, examples/ or perfbench/src/; the file a
# `pub mod` declares does not count. A `pub fn` indented under an `impl`
# counts only as a call or path, `.name(` or `::name`; a free `pub fn` or
# a `pub mod` counts as a word. Comment lines never count, nor does the
# defining crate's own `pub use` re-export in its lib.rs. The limit: a
# common name such as `new`, `len` or `get` still matches any other type's
# method, so a dead method with such a name goes unseen. Use inside one
# file is left to rustc: a helper only its own file calls is private, and
# clippy's dead_code fails it once nothing calls it. An allow-list entry
# reads "<file>: <name> <reason>"; one without a reason fails the gate.
pub_allow=(
  "crates/core/src/sta.rs: tech no caller; without it the timer's tech field is dead, and dropping the field leaves read_coefficients' tech parameter unused, a signature perfbench names until the next benchmark change"
)
for entry in ${pub_allow[@]+"${pub_allow[@]}"}; do
  read -r _ _ reason <<< "$entry"
  if [ -z "$reason" ]; then
    echo "ci: pub allow-list entry without a reason: $entry" >&2
    exit 1
  fi
done
# One line per source line that can name an item: "<file> TAB <tag> TAB
# <text>", comment lines dropped, `pub use` statements of a lib.rs tagged.
pub_corpus=$(mktemp)
for f in $(find crates tests examples perfbench/src -name '*.rs' | sort); do
  awk -v f="$f" '/^[[:space:]]*\/\// { next }
    f ~ /\/src\/lib\.rs$/ && /^[[:space:]]*pub use / { reexport = 1 }
    { print f "\t" (reexport ? "reexport" : "code") "\t" $0 }
    reexport && /;/ { reexport = 0 }' "$f"
done > "$pub_corpus"
tab=$'\t'
unused_pub=$(for f in $(find crates/*/src -name '*.rs' | sort); do
  case "$f" in
    */lib.rs | */main.rs | */mod.rs) mod_dir=$(dirname "$f") ;;
    *) mod_dir=${f%.rs} ;;
  esac
  crate_lib="${f%%/src/*}/src/lib.rs"
  awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" |
    sed -nE -e 's/^pub (fn|mod) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \2/p' \
      -e 's/^[[:space:]]+pub fn ([A-Za-z_][A-Za-z0-9_]*).*/method \1/p' \
      -e 's/^[[:space:]]+pub mod ([A-Za-z_][A-Za-z0-9_]*).*/mod \1/p' | sort -u |
    while read -r kind name; do
      own=("$f")
      if [ "$kind" = mod ]; then own+=("$mod_dir/$name.rs" "$mod_dir/$name/mod.rs"); fi
      for entry in ${pub_allow[@]+"${pub_allow[@]}"}; do
        case "$entry" in "$f: $name "*) continue 2 ;; esac
      done
      if [ "$kind" = method ]; then use="(\\.$name\\(|::$name\\b)"; else use="\\b$name\\b"; fi
      users=$(grep -E "^[^$tab]*$tab[^$tab]*$tab.*$use" "$pub_corpus" |
        grep -vF "$crate_lib${tab}reexport$tab" | cut -f1 |
        grep -vxFf <(printf '%s\n' "${own[@]}") || true)
      if [ -z "$users" ]; then echo "$f: pub ${kind/method/fn} $name"; fi
    done
done)
rm -f "$pub_corpus"
if [ -n "$unused_pub" ]; then
  echo "ci: pub items no other file names (delete them, or make them private):" >&2
  echo "$unused_pub" >&2
  exit 1
fi

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The session-vs-reference differential suite must pass in release too: the
# bit-identity claims are about the optimized code the server actually runs.
cargo test -q --offline --release -p nsigma --test compiled
# The yield suite pins the golden kernel's trial bits; run it on the
# optimized build too.
cargo test -q --offline --release -p nsigma --test yield
# The two-pole crossing's accuracy sweep (closed form and Newton within the
# rounding-error bound of the 80-step bisection oracle, a few ulps on the
# c432 range) is a claim about the optimized build's arithmetic.
cargo test -q --offline --release -p nsigma-interconnect
# The flat wire kernel (and its single-sink entry point) is claimed
# bit-identical to the tree-based oracle; check that on the optimized build.
cargo test -q --offline --release -p nsigma-mc
cargo clippy --offline --workspace --all-targets -- -D warnings
# The API docs build without warnings: no broken, ambiguous or private
# intra-doc links.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Request paths must stay panic-free: no `.unwrap(` outside #[cfg(test)]
# in the server, CLI and yield-engine sources, in the session engine
# behind every request (typed QueryError + poison-tolerant locks replaced
# them; see DESIGN.md §8–9), in the golden Monte-Carlo kernel that
# yield_design runs (trial walk, wire kernel, path walk, two-pole crossing,
# the RC tree and its moment pass), in the design's golden-scale recompute
# that eco_resize reaches (and the transient it runs), in the
# nominal wire means compile reads, in the coefficients-file parser, nor in
# the one parallel fan-out and the characterization that runs on it.
unwrap_hits=$(for f in crates/server/src/*.rs crates/cli/src/*.rs crates/yield/src/*.rs \
    crates/core/src/{session,compiled,sdf,wire_model,coeff_store}.rs \
    crates/mc/src/{trial,wire_sim,path_sim,design}.rs \
    crates/interconnect/src/{metrics,rctree,elmore,transient}.rs \
    crates/stats/src/par.rs crates/cells/src/characterize.rs; do
  awk '/#\[cfg\(test\)\]/{exit} /\.unwrap\(/{print FILENAME ":" FNR ": " $0}' "$f"
done)
if [ -n "$unwrap_hits" ]; then
  echo "ci: .unwrap() reintroduced on a request path:" >&2
  echo "$unwrap_hits" >&2
  exit 1
fi

# The static-analysis pass must stay clean on every generated benchmark
# circuit (exit code is nonzero on any error-severity diagnostic).
./target/release/nsigma-sta lint --suite generated > /dev/null
./target/release/nsigma-sta lint --iscas c432 --ndjson > /dev/null

# Yield-engine smoke: the CLI `yield` subcommand on a generated circuit
# must emit the full JSON schema and be byte-stable for a fixed seed.
yield_tmp=$(mktemp -d)
trap 'rm -rf "$yield_tmp"' EXIT
./target/release/nsigma-sta characterize \
  --coeff "$yield_tmp/coeff.txt" --samples 400 --seed 3 > /dev/null
yield_cmd=(./target/release/nsigma-sta yield --iscas c432
  --coeff "$yield_tmp/coeff.txt" --seed 5 --samples 1024 --chunk 256
  --ci 0.02 --importance --json)
"${yield_cmd[@]}" > "$yield_tmp/yield1.json"
for key in '"yield":' '"ci_lo":' '"ci_hi":' '"ci_half_width":' \
           '"samples":' '"ess":' '"curve":'; do
  grep -q "$key" "$yield_tmp/yield1.json" || {
    echo "ci: yield JSON is missing $key" >&2
    exit 1
  }
done
"${yield_cmd[@]}" > "$yield_tmp/yield2.json"
cmp -s "$yield_tmp/yield1.json" "$yield_tmp/yield2.json" || {
  echo "ci: yield output is not deterministic for a fixed seed" >&2
  exit 1
}

# Golden-kernel smoke: perfbench's golden_c432 workload replays yield_run
# and simulate_path_mc trials call by call and compares their bits; its
# result line (the last one) must report no failed check.
golden_line=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
  --workload golden_c432 --seconds 1 --trace 0 | tail -n 1)
case "$golden_line" in
  *'"failed": 0,'*) ;;
  *)
    echo "ci: perfbench golden_c432 reported failed checks: $golden_line" >&2
    exit 1
    ;;
esac

# Daemon smoke: perfbench's daemon_query workload starts the server, checks
# remote/local parity of worst_paths and quantile answers, then runs the
# query mix (analyze_path, worst_paths, quantile, eco_resize) for 1 s; an
# error reply or a failed parity check shows up as a failed operation.
daemon_line=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
  --workload daemon_query --seconds 1 --trace 0 | tail -n 1)
case "$daemon_line" in
  *'"failed": 0,'*) ;;
  *)
    echo "ci: perfbench daemon_query reported failed checks: $daemon_line" >&2
    exit 1
    ;;
esac

# Yield-daemon smoke: perfbench's daemon_yield workload runs back-to-back
# yield_design requests on one connection's thread next to the query mix
# on the others, for 1 s; a yield answer with the wrong trial count, an
# error reply or a failed parity check shows up as a failed operation.
yield_daemon_line=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
  --workload daemon_yield --seconds 1 --trace 0 | tail -n 1)
case "$yield_daemon_line" in
  *'"failed": 0,'*) ;;
  *)
    echo "ci: perfbench daemon_yield reported failed checks: $yield_daemon_line" >&2
    exit 1
    ;;
esac

# Cold-path smoke: perfbench's analyze_eco workload reloads the timer from
# text, then compiles, analyzes, ranks paths and resizes gates on c432,
# c1908 and c6288. Every stage there is evaluated from scratch, and its
# checks compare cold against warm analyze_design bits and require that
# resizing back after an ECO restores the original answer.
eco_line=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
  --workload analyze_eco --seconds 1 --trace 0 | tail -n 1)
case "$eco_line" in
  *'"failed": 0,'*) ;;
  *)
    echo "ci: perfbench analyze_eco reported failed checks: $eco_line" >&2
    exit 1
    ;;
esac

echo "ci: all green"
