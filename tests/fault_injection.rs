//! The fault-injection suite (`cargo test --features fault`): arm a
//! deterministic fault, run the machinery that should absorb it, and
//! check the typed failure surfaces exactly where the design says it
//! does. Injection state is process-global, so every test holds a
//! [`fault::InjectionScope`] — it serializes tests against each other
//! and disarms everything on entry and on drop.

#![cfg(feature = "fault")]

use rampage_core::experiments::{fault, Job, LeaseConfig, SweepRunner, Workload};
use rampage_core::{IssueRate, SystemConfig};
use rampage_trace::io::{BinReader, BinWriter, TraceIoError};
use rampage_trace::{TraceRecord, TraceSource};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// Every test opens with this: exclusive, disarmed injection state that
/// re-disarms when the guard drops, even if the test fails.
fn armed_section() -> fault::InjectionScope {
    fault::InjectionScope::acquire()
}

fn scratch(name: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rampage-fault-injection-{}-{name}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn scope_isolates_armed_state_between_tests() {
    let job = Job::new(
        SystemConfig::rampage(IssueRate::GHZ1, 512),
        Workload::quick(),
    );
    {
        let _g = armed_section();
        // Armed but never fired: a test that bails here must not leak
        // the armed panic into whoever acquires the scope next.
        fault::arm_cell_panic(job.fingerprint(), u32::MAX);
    }
    let _g = armed_section();
    let runner = SweepRunner::serial();
    let cells = runner.run_batch(&[job]);
    assert!(cells[0].seconds > 0.0, "stale armed state was disarmed");
    assert_eq!(runner.failure_count(), 0);
}

#[test]
fn injected_panic_is_retried_to_success() {
    let _g = armed_section();
    let job = Job::new(
        SystemConfig::rampage(IssueRate::GHZ1, 512),
        Workload::quick(),
    );
    fault::arm_cell_panic(job.fingerprint(), 1);
    let runner = SweepRunner::serial();
    let cells = runner.run_batch(&[job]);
    assert!(cells[0].seconds > 0.0, "the retry produced a real cell");
    assert_eq!(runner.failure_count(), 0, "a transient panic is absorbed");
    assert_eq!(runner.cache().len(), 1, "the retried cell is cached");
}

#[test]
fn persistent_panic_becomes_failed_cell_while_siblings_complete() {
    let _g = armed_section();
    let w = Workload::quick();
    let bad = Job::new(SystemConfig::rampage(IssueRate::GHZ1, 512), w);
    let good = Job::new(SystemConfig::baseline(IssueRate::GHZ1, 256), w);
    fault::arm_cell_panic(bad.fingerprint(), 2);
    let runner = SweepRunner::new(4);
    let cells = runner.run_batch(&[good, bad]);
    assert!(cells[0].seconds > 0.0, "sibling completes");
    assert_eq!(cells[1].seconds, 0.0, "failed slot holds the placeholder");
    let failures = runner.failures();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].attempts, 2, "one retry before giving up");
    assert_eq!(failures[0].fingerprint, bad.fingerprint());
    assert!(
        failures[0].error.contains("injected fault"),
        "{}",
        failures[0].error
    );
    assert_eq!(runner.cache().len(), 1, "failed cells are never cached");
}

/// Two cells that can only finish if the pool runs them at the same
/// time: each waits (with a generous timeout) for the other to start.
/// A serialised pool fails both attempts of whichever cell runs first,
/// so the witness needs no timing threshold.
fn assert_two_cells_run_concurrently(runner: &SweepRunner) {
    let w = Workload::quick();
    let a = Job::new(SystemConfig::baseline(IssueRate::GHZ1, 256), w);
    let b = Job::new(SystemConfig::rampage(IssueRate::GHZ1, 512), w);
    fault::arm_rendezvous(a.fingerprint(), b.fingerprint());
    let cells = runner.run_batch(&[a, b]);
    assert_eq!(runner.failure_count(), 0, "{}", runner.failure_report());
    assert!(cells.iter().all(|c| c.seconds > 0.0), "both cells are done");
    assert_eq!(runner.cache().computed(), 2);
}

#[test]
fn two_workers_run_two_cells_at_once_in_memory() {
    let _g = armed_section();
    assert_two_cells_run_concurrently(&SweepRunner::new(2));
}

#[test]
fn two_workers_run_two_cells_at_once_with_a_journal() {
    let _g = armed_section();
    let dir = scratch("rendezvous");
    let runner = SweepRunner::new(2)
        .with_journal(&dir.join("journal.jsonl"), LeaseConfig::new("A".into()))
        .expect("open journal");
    assert_two_cells_run_concurrently(&runner);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_trace_record_surfaces_as_typed_error_not_panic() {
    let _g = armed_section();
    let mut w = BinWriter::new(Vec::new()).expect("header");
    for i in 0..5u64 {
        w.write(TraceRecord::read(0x1000 + 8 * i)).expect("write");
    }
    let bytes = w.finish().expect("finish");

    rampage_trace::fault::arm_corrupt_record(3);
    let mut r = BinReader::new(&bytes[..]).expect("magic");
    assert!(r.next_record().is_some());
    assert!(r.next_record().is_some());
    assert_eq!(r.next_record(), None, "stream ends at the corrupt record");
    match r.error() {
        Some(TraceIoError::Malformed(what, 3)) => {
            assert!(what.contains("kind byte"), "{what}");
        }
        other => panic!("expected Malformed at record 3, got {other:?}"),
    }
    assert_eq!(r.next_record(), None, "the stream stays ended");

    // Disarmed, the same bytes decode in full.
    rampage_trace::fault::disarm();
    let mut r = BinReader::new(&bytes[..]).expect("magic");
    let n = std::iter::from_fn(|| r.next_record()).count();
    assert_eq!(n, 5);
    assert!(r.error().is_none());
}
