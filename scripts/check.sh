#!/usr/bin/env bash
# The repo's CI gate: formatting, both static-analysis passes, and the test
# suite. Everything must pass; any failure exits non-zero immediately.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== dance-analyze --all =="
cargo run --release -q -p dance-analyze -- --all

echo "== dance-analyze --source crates/telemetry =="
cargo run --release -q -p dance-analyze -- --source crates/telemetry

echo "== dance-analyze --source crates/serve =="
cargo run --release -q -p dance-analyze -- --source crates/serve

echo "== dance-analyze --source crates/fleet =="
cargo run --release -q -p dance-analyze -- --source crates/fleet

# Source-lint fixtures are must-fail for the same reason the concurrency
# ones are: a seeded violation that stops tripping means the rule is blind.
for fixture in retry_backoff hot_alloc arena_escape cow_index; do
  echo "== dance-analyze --source fixture: ${fixture} (must fail) =="
  if cargo run --release -q -p dance-analyze -- --source \
    "crates/analyze/fixtures/source/${fixture}"; then
    echo "fixture ${fixture} no longer trips the analyzer" >&2
    exit 1
  fi
done

# Concurrency pass: the workspace must be free of lock-order cycles, guards
# held across blocking boundaries, and nondeterminism hazards…
echo "== dance-analyze --concurrency =="
cargo run --release -q -p dance-analyze -- --concurrency

# …while each seeded fixture must keep tripping its rule (a fixture that
# stops failing means the analyzer went blind, not that the code got better).
for fixture in lock_cycle lock_across_dispatch determinism; do
  echo "== dance-analyze --concurrency fixture: ${fixture} (must fail) =="
  if cargo run --release -q -p dance-analyze -- --concurrency \
    "crates/analyze/fixtures/concurrency/${fixture}"; then
    echo "fixture ${fixture} no longer trips the analyzer" >&2
    exit 1
  fi
done

# The parallel backend must be bit-identical at any thread count, so the
# suite runs twice: pinned to one worker (the scalar reference path) and to
# eight (chunked kernels + pool dispatch). The build is shared; only test
# execution repeats.
echo "== cargo test (DANCE_THREADS=1) =="
DANCE_THREADS=1 cargo test -q --workspace --release

echo "== cargo test (DANCE_THREADS=8) =="
DANCE_THREADS=8 cargo test -q --workspace --release

echo "== telemetry integration test =="
cargo test -q --release --test telemetry_run

echo "== serve integration tests =="
cargo test -q --release --test serve_service
cargo test -q --release -p dance-serve --test proto_roundtrip

echo "== campaign suite =="
cargo test -q --release -p dance-campaign
cargo test -q --release --test campaign_run
cargo test -q --release --test campaign_resume

echo "== guard fault-injection suite =="
cargo test -q --release -p dance-guard --features fault-injection
cargo test -q --release --features fault-injection --test guard_faults

# Frozen plans: the plan-vs-tape proptests run at both thread counts as part
# of the workspace suite above; this pins the artifact-integrity sweep and
# the crate's own tests explicitly.
echo "== plan suite =="
cargo test -q --release -p dance-plan
cargo test -q --release --test torn_plan

echo "== fleet suite =="
cargo test -q --release -p dance-fleet
cargo test -q --release --test fleet_recovery
cargo test -q --release --test torn_checkpoint
cargo test -q --release --features fault-injection --test fleet_faults

# Process-level chaos drill: run the same job set straight and with one
# worker SIGKILLed mid-run; the per-job arch-digest lines must be identical.
echo "== fleet chaos drill (kill-one-worker, digests must match) =="
cargo build --release -q --bin dance_fleet
drill_dir="$(mktemp -d)"
trap 'rm -rf "${drill_dir}"' EXIT
./target/release/dance_fleet --jobs 3 --epochs 4 --workers 2 \
  --dir "${drill_dir}/straight" | grep "arch-digest" | sort > "${drill_dir}/straight.txt"
./target/release/dance_fleet --jobs 3 --epochs 4 --workers 2 --lease-ttl-ms 2500 \
  --chaos-kill-ms 300 --dir "${drill_dir}/drill" | grep "arch-digest" | sort > "${drill_dir}/drill.txt"
if ! diff -u "${drill_dir}/straight.txt" "${drill_dir}/drill.txt"; then
  echo "fleet chaos drill diverged from the straight run" >&2
  exit 1
fi

# Performance gate: a fresh single-thread smoke run must not regress
# `total_wall_s` by more than 15% against the committed BENCH_smoke.json.
# The bench rewrites BENCH_smoke.json in place, so the committed baseline
# is read first and the working-tree copy restored afterwards.
echo "== BENCH_smoke wall-time gate (<=15% over committed baseline) =="
baseline="$(python3 -c "import json; print(json.load(open('BENCH_smoke.json'))['total_wall_s'])")"
cp BENCH_smoke.json "${drill_dir}/BENCH_smoke.committed.json"
DANCE_THREADS=1 cargo run --release -q -p dance-bench --bin smoke > /dev/null
fresh="$(python3 -c "import json; print(json.load(open('BENCH_smoke.json'))['total_wall_s'])")"
mv "${drill_dir}/BENCH_smoke.committed.json" BENCH_smoke.json
python3 - "$baseline" "$fresh" <<'PY'
import sys
baseline, fresh = float(sys.argv[1]), float(sys.argv[2])
limit = baseline * 1.15
print(f"smoke total_wall_s: baseline={baseline:.3f}s fresh={fresh:.3f}s limit={limit:.3f}s")
if fresh > limit:
    sys.exit(f"smoke wall time regressed >15% ({fresh:.3f}s > {limit:.3f}s)")
PY

# Optional Miri pass over the storage/arena unit tests: the arena hands out
# recycled buffers as "uninit", so an aliasing or stale-read bug would be
# exactly the kind of thing Miri catches. Needs a nightly toolchain with
# the miri component, so it is opt-in via DANCE_MIRI=1 and degrades to a
# skip message when miri (or rustup) is unavailable.
if [ "${DANCE_MIRI:-0}" = "1" ]; then
  echo "== Miri storage/arena pass (DANCE_MIRI=1) =="
  if command -v rustup >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null | grep -q "miri.*(installed)"; then
    cargo +nightly miri test -q -p dance-backend storage
  else
    echo "no nightly miri component installed; skipping Miri pass."
  fi
else
  echo "== Miri storage/arena pass: skipped (set DANCE_MIRI=1 to enable) =="
fi

# Optional ThreadSanitizer pass over the concurrency-heavy crates. TSan
# needs a nightly toolchain (-Zsanitizer + build-std), so the block is
# opt-in via DANCE_TSAN=1 and degrades to a skip message when no nightly
# toolchain (or rustup itself) is available.
if [ "${DANCE_TSAN:-0}" = "1" ]; then
  echo "== ThreadSanitizer (DANCE_TSAN=1) =="
  if command -v rustup >/dev/null 2>&1 \
    && rustup toolchain list 2>/dev/null | grep -q nightly; then
    host="$(rustc -vV | sed -n 's/^host: //p')"
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test -q -Zbuild-std --target "${host}" \
      -p dance-backend -p dance-serve
  else
    echo "no nightly toolchain installed; skipping TSan pass."
  fi
else
  echo "== ThreadSanitizer: skipped (set DANCE_TSAN=1 to enable) =="
fi

echo "All checks passed."
