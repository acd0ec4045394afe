//! Differential conformance for the banked Direct Rambus backend.
//!
//! Two contracts are locked down here:
//!
//! 1. **Degenerate equivalence** — the banked backend configured to the
//!    flat model's assumptions (single bank, closed-page policy, serial
//!    bus: [`BankedConfig::flat_equivalent`]) must reproduce the flat
//!    50 ns model *bit for bit*, on every preset grid cell `repro` can
//!    sweep. Any timing drift between the two code paths is a bug in
//!    one of them, and this suite finds it at the cell level.
//!
//! 2. **Fingerprint stability** — adding the banked variant must not
//!    move any existing flat configuration's cache fingerprint (pinned
//!    values below), and a banked override must always produce a
//!    *different* fingerprint, so journaled cells can never alias
//!    across backends.

use rampage_core::experiments::grids::preset_grids;
use rampage_core::experiments::{run_config, Job, LeaseConfig, SweepRunner, Workload};
use rampage_core::{DramKind, IssueRate, SystemConfig};
use rampage_dram::BankedConfig;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// A unique scratch directory per test (no tempfile crate offline).
fn scratch(name: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rampage-dram-backend-{}-{name}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The degenerate banked twin of a flat-Rambus config.
fn degenerate(cfg: &SystemConfig) -> SystemConfig {
    let mut banked = *cfg;
    banked.dram = DramKind::Banked(BankedConfig::flat_equivalent());
    banked
}

/// Every preset grid cell whose DRAM is the flat paper model, with its
/// grid and label for diagnostics, deduplicated by config.
fn flat_preset_cells() -> Vec<(String, SystemConfig)> {
    let probe = Workload::quick();
    let mut seen = HashSet::new();
    let mut cells = Vec::new();
    for grid in preset_grids() {
        for (label, cfg) in grid.cells {
            if cfg.dram != DramKind::Rambus {
                continue; // Sdram / pipelined / banked cells have no flat twin
            }
            if seen.insert(Job::new(cfg, probe).fingerprint()) {
                cells.push((format!("{}::{label}", grid.name), cfg));
            }
        }
    }
    cells
}

/// The conformance theorem: on every flat preset cell, the degenerate
/// banked backend produces the *identical* [`Cell`] — every timing,
/// ratio, and counter field equal to the last bit.
#[test]
fn degenerate_banked_matches_flat_on_every_preset_grid() {
    // Small but real workload: two interleaved programs, enough volume
    // to exercise queueing, faults, and writebacks in every preset.
    let w = Workload {
        nbench: 2,
        scale: 50_000,
        seed: 0x7a9e,
        solo: None,
    };
    let cells = flat_preset_cells();
    assert!(
        cells.len() >= 20,
        "expected a real cross-section of preset cells, got {}",
        cells.len()
    );
    for (where_, cfg) in &cells {
        let flat = run_config(cfg, &w);
        let banked = run_config(&degenerate(cfg), &w);
        assert_eq!(
            flat, banked,
            "degenerate banked backend diverged from the flat model at {where_}"
        );
    }
}

/// A solo (single-program) workload takes the same code path the
/// dramdiff study uses; conformance must hold there too.
#[test]
fn degenerate_banked_matches_flat_on_solo_workloads() {
    for (pi, size) in [(0usize, 128u64), (5, 1024), (17, 4096)] {
        let w = Workload::solo(pi, 200_000, 0x7a9e);
        for cfg in [
            SystemConfig::rampage(IssueRate::GHZ1, size),
            SystemConfig::baseline(IssueRate::GHZ1, size),
        ] {
            let flat = run_config(&cfg, &w);
            let banked = run_config(&degenerate(&cfg), &w);
            assert_eq!(flat, banked, "solo divergence: program {pi}, {size} B");
        }
    }
}

/// Pinned flat fingerprints: introducing the banked variant must not
/// perturb any existing config's cache identity. If this test fails,
/// every journal in the wild silently cold-starts — a change that must
/// be deliberate (bump the `cells.json` format version), never
/// accidental.
#[test]
fn flat_fingerprints_are_pinned() {
    let w = Workload::paper(50);
    let fp = |cfg: SystemConfig| Job::new(cfg, w).fingerprint();
    let cases = [
        (
            "rampage@1GHz/1024",
            fp(SystemConfig::rampage(IssueRate::GHZ1, 1024)),
            PIN_RAMPAGE,
        ),
        (
            "baseline@1GHz/1024",
            fp(SystemConfig::baseline(IssueRate::GHZ1, 1024)),
            PIN_BASELINE,
        ),
        (
            "two_way@200MHz/128",
            fp(SystemConfig::two_way(IssueRate::MHZ200, 128)),
            PIN_TWO_WAY,
        ),
        (
            "rampage_switching@4GHz/4096",
            fp(SystemConfig::rampage_switching(IssueRate::GHZ4, 4096)),
            PIN_SWITCHING,
        ),
    ];
    let moved: Vec<String> = cases
        .iter()
        .filter(|(_, got, pinned)| got != pinned)
        .map(|(name, got, _)| format!("{name} is now {got:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "flat fingerprints moved — existing cell caches would silently \
         cold-start: {moved:?}"
    );
}

// The pinned values. Regenerate deliberately (and bump the cache format
// version) if the config or workload encoding legitimately changes.
const PIN_RAMPAGE: u64 = 0xbfdd_8f1d_ac5b_79af;
const PIN_BASELINE: u64 = 0x842a_c4ac_86bd_7d80;
const PIN_TWO_WAY: u64 = 0x2828_8302_d2f9_ac81;
const PIN_SWITCHING: u64 = 0xf0ad_4ee6_288a_79b4;

/// The override that must never alias: a banked job's fingerprint
/// always differs from its flat twin's, so one cache file can hold both
/// backends' cells without confusion.
#[test]
fn banked_override_always_changes_the_fingerprint() {
    let w = Workload::quick();
    for (_, cfg) in flat_preset_cells() {
        let flat = Job::new(cfg, w).fingerprint();
        let banked = Job::new(degenerate(&cfg), w).fingerprint();
        assert_ne!(flat, banked, "fingerprint aliased for {}", cfg.label());
        let paper = {
            let mut c = cfg;
            c.dram = DramKind::banked();
            Job::new(c, w).fingerprint()
        };
        assert_ne!(flat, paper);
        assert_ne!(banked, paper, "paper-geometry banked aliased degenerate");
    }
}

/// A flat sweep's journaled cells come back bit-identically and are
/// hit — not recomputed — by a fresh runner on the same journal, with
/// banked cells coexisting in it under their own fingerprints, and the
/// `cells.json` written from either run is the same file.
#[test]
fn flat_cells_json_is_stable_and_shared_with_banked() {
    let dir = scratch("roundtrip");
    let journal = dir.join("journal.jsonl");
    let w = Workload::quick();
    let flat_cfg = SystemConfig::rampage(IssueRate::GHZ1, 512);
    let banked_cfg = degenerate(&flat_cfg);
    let runner = || {
        SweepRunner::serial()
            .with_journal(&journal, LeaseConfig::new("A".into()))
            .expect("open journal")
    };

    let first = runner();
    let a = first.run_one(&flat_cfg, &w);
    let b = first.run_one(&banked_cfg, &w);
    assert_eq!(a, b, "degenerate equivalence");
    assert_eq!(first.cache().len(), 2, "two distinct fingerprints cached");
    first
        .cache()
        .save_file(&dir.join("first.json"))
        .expect("save");

    let second = runner();
    assert_eq!(second.resumed_cells(), 2, "both cells read back");
    let a2 = second.run_one(&flat_cfg, &w);
    let b2 = second.run_one(&banked_cfg, &w);
    assert_eq!(second.cache().hits(), 2, "both cells must come from cache");
    assert_eq!(second.cache().computed(), 0);
    assert_eq!(a, a2, "flat cell changed across persistence");
    assert_eq!(b, b2, "banked cell changed across persistence");
    second
        .cache()
        .save_file(&dir.join("second.json"))
        .expect("save");
    assert_eq!(
        std::fs::read(dir.join("first.json")).expect("read"),
        std::fs::read(dir.join("second.json")).expect("read"),
        "cells.json must not change across a journal round trip"
    );

    std::fs::remove_dir_all(&dir).ok();
}
