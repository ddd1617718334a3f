#!/usr/bin/env bash
# Tier-1 verification for the whole workspace, entirely offline.
#
#   scripts/ci.sh          full run
#
# The repo has no external dependencies (see README "Offline,
# zero-dependency build"), so --offline must always succeed; if it does
# not, a dependency crept back in and the build should fail loudly.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (offline, warnings are errors) =="
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "== cargo build --release (offline) =="
cargo build --release --workspace --offline

echo "== cargo doc, private items included (offline, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet --document-private-items

echo "== cargo test (offline) =="
cargo test -q --workspace --offline

echo "== cargo test under the discrete-event executor (offline) =="
SEA_EXECUTOR=des cargo test -q --workspace --offline

echo "== sea-crypto tests, optimized (offline) =="
# A release build wraps integer overflow where a debug build panics, so
# the bignum kernel's carry arithmetic is checked against its recorded
# known answers in the build every bench and experiment runs.
cargo test -q --release -p sea-crypto --offline

echo "== sea-core tests, optimized (offline) =="
# The durable journal's log lengths and frame offsets are arithmetic on
# bytes read back from NVRAM, which a release build wraps where a debug
# build panics; its tamper and torn-append sweeps run in that build too.
cargo test -q --release -p sea-core --offline

echo "== unified-engine guardrails =="
# sea-core's public API must stay fully documented (the crate-level
# lint is load-bearing: rustdoc warnings above only catch broken links).
grep -q '^#!\[deny(missing_docs)\]' crates/core/src/lib.rs \
  || { echo "ci.sh: crates/core/src/lib.rs must keep #![deny(missing_docs)]" >&2; exit 1; }
# The thread-pool executor module is the only place in sea-core allowed
# to spawn OS threads; everything else must go through an Executor.
threads=$(grep -rn 'thread::spawn\|thread::scope' crates/core/src \
  --include='*.rs' \
  | grep -v 'crates/core/src/threadpool.rs' || true)
if [ -n "$threads" ]; then
  echo "ci.sh: OS threads spawned in sea-core outside src/threadpool.rs:" >&2
  echo "$threads" >&2
  exit 1
fi
# The session engine has one lock: the mutex in src/engine.rs that
# guards the EnhancedSea runtime and, during a durable batch, that
# batch's epoch state. sea-core names the raw `Mutex<` type on exactly
# that one line, so no second lock can appear beside it unnoticed.
# sea-tpm holds no lock at all: each executor serializes the TPM in one
# place (the thread pool through the engine lock, the discrete-event
# executor through ShardedTpmArbiter), and a Mutex there would be a
# second serialization point. (The pattern is `Mutex<` so `MutexGuard`
# in signatures stays legal.)
core_mutexes=$(grep -rn 'Mutex<' crates/core/src --include='*.rs' \
  | grep -v 'MutexGuard' || true)
if [ "$(printf '%s\n' "$core_mutexes" | grep -c .)" -ne 1 ] \
  || [ "$(printf '%s\n' "$core_mutexes" | grep -c '^crates/core/src/engine.rs:')" -ne 1 ]; then
  echo "ci.sh: sea-core must name Mutex< on exactly one line, the engine lock in src/engine.rs:" >&2
  echo "$core_mutexes" >&2
  exit 1
fi
tpm_mutexes=$(grep -rn 'Mutex<' crates/tpm/src --include='*.rs' \
  | grep -v 'MutexGuard' || true)
if [ -n "$tpm_mutexes" ]; then
  echo "ci.sh: raw Mutex in sea-tpm:" >&2
  echo "$tpm_mutexes" >&2
  exit 1
fi
# The remote verifier is the relying party: it re-implements the
# attestation chain from wire bytes and sea-crypto alone, and must
# never reach into the platform stack it is auditing (that independence
# is what tests/verifier_differential.rs is pinning).
leaks=$(grep -n 'sea_hw::Machine\|sea_tpm::Tpm\|use sea_hw\|use sea_tpm\|use sea_os' \
  crates/fleet/src/verifier.rs || true)
if [ -n "$leaks" ]; then
  echo "ci.sh: crates/fleet/src/verifier.rs must not import the platform stack:" >&2
  echo "$leaks" >&2
  exit 1
fi
# Everything the fleet decides — churn, retries, adversarial schedules —
# must derive from explicit seeds: any ambient entropy or wall-clock
# read would break the byte-identity contract across shards, executors,
# and submission orders.
entropy=$(grep -rn 'thread_rng\|rand::\|SystemTime\|Instant::now\|RandomState' \
  crates/fleet/src --include='*.rs' || true)
if [ -n "$entropy" ]; then
  echo "ci.sh: unseeded randomness or wall-clock reads in crates/fleet/src:" >&2
  echo "$entropy" >&2
  exit 1
fi
# PAL logic is executed bytecode: its runtime is charged by the VM's gas
# accounting, never hand-modelled, so sea-pals makes no `ctx.work(`
# charge anywhere.
costs=$(grep -rn 'ctx\.work(' crates/pals/src --include='*.rs' || true)
if [ -n "$costs" ]; then
  echo "ci.sh: ctx.work( in crates/pals/src (PAL runtime must be VM gas):" >&2
  echo "$costs" >&2
  exit 1
fi

echo "== examples: every one runs to a clean exit (offline) =="
for example in examples/*.rs; do
  cargo run -q --release --offline -p minimal-tcb --example "$(basename "$example" .rs)" > /dev/null
done

echo "== chaos suite (fixed fault seed, offline) =="
SEA_CHAOS_SEED=20080317 cargo test -q -p minimal-tcb --offline --test fault_recovery

echo "== crash suite (fixed crash seed, offline) =="
SEA_CRASH_SEED=20080317 cargo test -q -p minimal-tcb --offline --test crash_recovery

echo "== benches (smoke mode, offline) =="
SEA_BENCH_SMOKE=1 cargo bench -q -p sea-bench --offline

echo "== fault-sweep bench (smoke mode, offline) =="
SEA_BENCH_SMOKE=1 cargo run -q --release -p sea-bench --offline --bin fault_sweep

echo "== scale bench: 1024 virtual CPUs on the event queue (smoke mode, offline) =="
SEA_BENCH_SMOKE=1 cargo run -q --release -p sea-bench --offline --bin scale

echo "== fleet bench: sharded attestation fleet + remote verifier (smoke mode, offline) =="
SEA_BENCH_SMOKE=1 cargo run -q --release -p sea-bench --offline --bin fleet
# The same fleet must produce byte-identical outcomes under both
# executors (the debug test binary is already built by the test phases).
cargo test -q -p minimal-tcb --offline --test verifier_differential \
  fleet_outcome_is_executor_invariant

echo "== churn bench: fleet under faults, rotation, and adversaries (smoke mode, offline) =="
SEA_BENCH_SMOKE=1 cargo run -q --release -p sea-bench --offline --bin churn
# Churned outcomes must stay byte-identical across shard counts,
# executors, and submission permutations, and every adversarial wire
# must be rejected with a typed reason.
cargo test -q -p minimal-tcb --offline --test verifier_differential \
  churned_fleet_is_byte_identical_across_shards_executors_and_orders
cargo test -q -p minimal-tcb --offline --test verifier_differential \
  every_adversarial_wire_is_rejected_with_a_typed_reason

echo "== vm bench: measured bytecode PALs, chained vs lookup dispatch (offline) =="
# The artifact itself asserts chained and lookup runs produce identical
# outputs and retire identical instruction counts, and that the quote
# set is byte-identical across 1/4-worker thread pools and the
# discrete-event executor.
cargo run -q --release -p sea-bench --offline --bin vm > /dev/null
# The executed-bytecode PALs must keep reproducing their recorded
# outputs, key material, signatures and session shapes (the debug test
# binary is built by the test phases).
cargo test -q -p minimal-tcb --offline --test vm_differential

echo "== suite + BENCH_suite.json (smoke mode, offline) =="
SUITE_JSON=target/BENCH_suite.json
SUITE_GOLDEN=tests/golden/BENCH_suite.smoke.json
rm -f "$SUITE_JSON"
# The golden was recorded on the default executor, so SEA_EXECUTOR is
# unset for this run whatever the caller exported.
env -u SEA_EXECUTOR SEA_BENCH_SMOKE=1 \
  cargo run -q --release -p sea-bench --offline --bin suite -- 2 --json "$SUITE_JSON" > /dev/null
[ -s "$SUITE_JSON" ] || { echo "ci.sh: $SUITE_JSON missing or empty" >&2; exit 1; }
cargo run -q --release -p sea-bench --offline --bin suite -- --validate "$SUITE_JSON"
# Every simulated number is pinned: a change that moves one shows up as
# a diff against the committed golden (EXPERIMENTS.md names the command
# that regenerates it).
cmp "$SUITE_GOLDEN" "$SUITE_JSON" \
  || { echo "ci.sh: $SUITE_JSON differs from $SUITE_GOLDEN" >&2; exit 1; }

echo "== suite worker-count invariance: 1 vs 8 vs 16 workers (smoke mode, offline) =="
# The decomposed engine lock must not cost determinism: the whole suite
# — rendered report and BENCH_suite.json alike — is byte-identical at
# every worker count.
for w in 1 8 16; do
  SEA_BENCH_SMOKE=1 cargo run -q --release -p sea-bench --offline --bin suite \
    -- "$w" --json "target/BENCH_suite.w$w.json" > "target/BENCH_suite.w$w.txt"
done
for w in 8 16; do
  cmp -s "target/BENCH_suite.w1.json" "target/BENCH_suite.w$w.json" \
    || { echo "ci.sh: BENCH_suite.json differs between 1 and $w workers" >&2; exit 1; }
  # The report's first line names the worker count; everything after it
  # must match byte for byte.
  cmp -s <(tail -n +2 "target/BENCH_suite.w1.txt") <(tail -n +2 "target/BENCH_suite.w$w.txt") \
    || { echo "ci.sh: suite report differs between 1 and $w workers" >&2; exit 1; }
done

echo "== host-time benchmark: self-tests and seed-1 correctness (offline) =="
# Correctness only: every timing value is ignored. The self-tests pin the
# oracle and digest agreement between traced and untraced runs; a short
# run of each workload must end correct with no failed operation, which
# also checks its seed-1 digests against hostbench/digests.json.
cargo test -q --release --offline --manifest-path hostbench/Cargo.toml
for w in pal_sessions durable_batch fleet_churn; do
  result=$(cargo run -q --release --offline --manifest-path hostbench/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  echo "$result" | grep -Eq '^\{"correct": true, "attempted": [0-9]+, "failed": 0, ' \
    || { echo "ci.sh: hostbench $w is not correct: $result" >&2; exit 1; }
done

echo "== ci.sh: all green =="
