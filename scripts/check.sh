#!/usr/bin/env bash
# Repo-wide verification: formatting, lints, build, tests, crash drill.
#
# Usage: scripts/check.sh
#
# Everything here runs offline (all dependencies are in-tree path
# crates; see README.md § Offline builds).
set -euo pipefail
cd "$(dirname "$0")/.."

# Per-step timeout: a hung cell (or wedged test binary) fails the gate
# instead of wedging CI forever. Override with CHECK_STEP_TIMEOUT
# (seconds).
STEP_TIMEOUT="${CHECK_STEP_TIMEOUT:-1800}"
step() {
  echo "==> $*"
  timeout --kill-after=30 "${STEP_TIMEOUT}" "$@"
}

step cargo fmt --all --check

step cargo clippy --workspace --all-targets --all-features -- -D warnings

# Library code must not unwrap/expect: every fallible path either
# returns a typed error or panics via a documented invariant assert.
# This is the only home of that rule (the in-tree analyzer has no
# unwrap pass). It must not print either: all human-facing output goes
# through the binaries or rendered reports, never stray
# println!/eprintln! in a library (criterion is the one exemption —
# printing results is its job). Tests and benches are exempt (unwrap
# is the right tool there). The fault-injection hooks are library code
# compiled only under the `fault` feature, so the crates that have it
# are linted with it on.
LIB_CRATES=(rampage-json rand criterion rampage-trace rampage-cache rampage-dram rampage-vm rampage-core rampage-analysis rampage rampage-bench)
for crate in "${LIB_CRATES[@]}"; do
  PRINT_DENIES=(-D clippy::print_stdout -D clippy::print_stderr)
  if [[ "${crate}" == "criterion" ]]; then
    PRINT_DENIES=()
  fi
  FEATURES=()
  if [[ "${crate}" == "rampage" || "${crate}" == "rampage-core" || "${crate}" == "rampage-trace" ]]; then
    FEATURES=(--features fault)
  fi
  echo "==> cargo clippy --lib -p ${crate} ${FEATURES[*]+"${FEATURES[*]}"} (deny unwrap/expect/print)"
  timeout --kill-after=30 "${STEP_TIMEOUT}" cargo clippy -q --lib -p "${crate}" \
    "${FEATURES[@]+"${FEATURES[@]}"}" -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used \
    "${PRINT_DENIES[@]+"${PRINT_DENIES[@]}"}"
done

echo "==> cargo build --release (tier-1)"
step cargo build --release

# Bit-identity gate: tiny passes of every benchmark workload, checked
# against the pinned cell digests (perfbench/pins.json) at the default
# and the held-out seed, so a speed-up that changes any cell fails here
# and not only in the benchmark.
step python3 perfbench/run.py --self-test

# The in-tree static analyzer: determinism lints, panic discipline, and
# structural rules (EXPERIMENTS.md § Static analysis). Hard gate — any
# unwaived finding fails the build.
step ./target/release/repro lint --quiet

# The dataflow tier on top: unit-mix, nondet-taint, claim-readback,
# cancel-poll (AST/CFG/dataflow passes). Also a hard gate.
step ./target/release/repro lint --tier=dataflow --quiet

# Schema sanity: the JSON report's `active` count and the SARIF
# document's unsuppressed-result count must agree — the two renderings
# describe the same findings.
echo "==> repro lint --json vs --format sarif count agreement"
LINT_TMP=$(mktemp -d)
./target/release/repro lint --tier=dataflow --json >"${LINT_TMP}/report.json" || true
./target/release/repro lint --tier=dataflow --format sarif >"${LINT_TMP}/report.sarif" || true
JSON_ACTIVE=$(grep -o '"active":[0-9]*' "${LINT_TMP}/report.json" | head -1 | cut -d: -f2)
SARIF_RESULTS=$(grep -o '"ruleId"' "${LINT_TMP}/report.sarif" | wc -l)
SARIF_SUPPRESSED=$(grep -o '"suppressions"' "${LINT_TMP}/report.sarif" | wc -l)
SARIF_ACTIVE=$((SARIF_RESULTS - SARIF_SUPPRESSED))
if [[ "${JSON_ACTIVE}" -ne "${SARIF_ACTIVE}" ]]; then
  echo "FAIL: JSON active=${JSON_ACTIVE} but SARIF unsuppressed=${SARIF_ACTIVE}" >&2
  exit 1
fi
rm -rf "${LINT_TMP}"

# Model-check every experiment preset's sweep grid against
# SystemConfig::validate(), so a bad preset fails here, not mid-sweep.
step ./target/release/repro lint --configs

echo "==> cargo test -q (tier-1)"
step cargo test -q

step cargo test -q --workspace

echo "==> cargo test -q --test observability --test snapshot_golden (observability gate)"
step cargo test -q --test observability --test snapshot_golden

echo "==> cargo test -q --features fault (fault-injection suite)"
step cargo test -q --features fault

echo "==> cargo test -q --test corpus (trace corpus gate: record → replay determinism)"
step cargo test -q --test corpus

echo "==> cargo test -q --test corpus --features fault (armed corrupt-block quarantine)"
step cargo test -q --test corpus --features fault

# Banked-backend smoke: the same sweep at the other DRAM fidelity, plus
# the dramdiff ablation, whose divergence summary must land in
# metrics.json (the tentpole contract of the banked backend).
echo "==> banked DRAM backend smoke (--dram-backend banked + dramdiff divergence)"
BANKED_TMP=$(mktemp -d)
step ./target/release/repro --scale 20000 --nbench 2 --dram-backend banked \
  --out "${BANKED_TMP}" table3 dramdiff >/dev/null
if ! grep -q '"dram_divergence"' "${BANKED_TMP}/metrics.json"; then
  echo "FAIL: dramdiff did not record dram_divergence in metrics.json" >&2
  exit 1
fi
rm -rf "${BANKED_TMP}"

# End-to-end corrupt-block drill through the CLI: record a corpus,
# verify it clean, smash a byte mid-file, and the verifier must fail.
echo "==> trace corpus CLI drill (record, verify, corrupt, re-verify)"
CORPUS_TMP=$(mktemp -d)
DRILL_TMP=$(mktemp -d)
trap 'rm -rf "${CORPUS_TMP}" "${DRILL_TMP}"' EXIT
./target/release/repro trace record --dir "${CORPUS_TMP}" --scale 20000 --nbench 2 >/dev/null
./target/release/repro trace verify --dir "${CORPUS_TMP}" >/dev/null
SHARD=$(ls "${CORPUS_TMP}"/*.rct | head -1)
SHARD_BYTES=$(wc -c <"${SHARD}")
printf '\xff\xff\xff\xff\xff\xff\xff\xff' |
  dd of="${SHARD}" bs=1 seek=$((SHARD_BYTES / 2)) conv=notrunc status=none
if ./target/release/repro trace verify --dir "${CORPUS_TMP}" >/dev/null 2>&1; then
  echo "FAIL: trace verify did not flag a corrupted shard" >&2
  exit 1
fi

# End-to-end crash drill through the CLI: kill a journaled sweep at the
# injected die-after-claim crash point, resume it, and require the
# artifact to be bit-identical to an uninterrupted --jobs 1 run.
# (table3 is the smallest journaled sweep — table1 is analytic and
# never touches the runner. This rebuilds the release binary with the
# fault feature, so it runs after every gate that uses the normal one.)
echo "==> crash drill (die-after-claim → kill → resume → diff vs clean run)"
step cargo build --release --features fault
set +e
timeout --kill-after=30 "${STEP_TIMEOUT}" ./target/release/repro \
  --scale 20000 --nbench 2 --jobs 2 --out "${DRILL_TMP}/crash" \
  --fault die-after-claim table3 >/dev/null 2>&1
CRASH_CODE=$?
set -e
if [[ "${CRASH_CODE}" -ne 137 ]]; then
  echo "FAIL: injected crash exited ${CRASH_CODE}, expected 137" >&2
  exit 1
fi
step ./target/release/repro --scale 20000 --nbench 2 --jobs 2 \
  --out "${DRILL_TMP}/crash" --resume table3 >/dev/null
step ./target/release/repro --scale 20000 --nbench 2 --jobs 1 \
  --out "${DRILL_TMP}/clean" table3 >/dev/null
if ! cmp "${DRILL_TMP}/crash/cells.json" "${DRILL_TMP}/clean/cells.json"; then
  echo "FAIL: resumed cells.json differs from the uninterrupted run" >&2
  exit 1
fi
# The journal alone carries reuse: with cells.json gone, a rerun on the
# same --out simulates nothing and writes the clean run's cells.json.
echo "==> journal-only reuse (delete cells.json → rerun → 0 simulated, cmp)"
rm "${DRILL_TMP}/crash/cells.json"
step ./target/release/repro --scale 20000 --nbench 2 --jobs 2 \
  --out "${DRILL_TMP}/crash" table3 >/dev/null 2>"${DRILL_TMP}/reuse.err"
if ! grep -q '^# cells: 0 simulated' "${DRILL_TMP}/reuse.err"; then
  echo "FAIL: a rerun on the journal simulated cells again:" >&2
  grep '^# cells:' "${DRILL_TMP}/reuse.err" >&2 || true
  exit 1
fi
if ! cmp "${DRILL_TMP}/crash/cells.json" "${DRILL_TMP}/clean/cells.json"; then
  echo "FAIL: cells.json rebuilt from the journal differs from the clean run" >&2
  exit 1
fi
# Leave the normal (fault-free) binary in place for anything after us.
step cargo build --release

echo "All checks passed."
