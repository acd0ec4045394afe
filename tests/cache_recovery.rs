//! Crash-safety tests for the durable cell record. The journal
//! (`journal.jsonl`) is the only store a run reads back: a damaged
//! journal loses at most its damaged records, whose cells are simply
//! recomputed, and never panics or aborts the run. `cells.json` is a
//! derived output that nothing reads, so no state of it can matter.

use rampage_core::experiments::{Cell, Job, LeaseConfig, SweepRunner, Workload};
use rampage_core::{IssueRate, SystemConfig};
use rampage_json::{obj, Json};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

/// A unique scratch directory per test (no tempfile crate offline).
fn scratch(name: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rampage-cache-recovery-{}-{name}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn jobs() -> Vec<Job> {
    let w = Workload::quick();
    vec![
        Job::new(SystemConfig::baseline(IssueRate::GHZ1, 256), w),
        Job::new(SystemConfig::rampage(IssueRate::GHZ1, 512), w),
        Job::new(SystemConfig::two_way(IssueRate::GHZ1, 1024), w),
    ]
}

/// A serial runner on `dir/journal.jsonl`.
fn journaled(dir: &Path) -> SweepRunner {
    SweepRunner::serial()
        .with_journal(&dir.join("journal.jsonl"), LeaseConfig::new("A".into()))
        .expect("open journal")
}

/// Run [`jobs`] through a fresh journal in `dir` and write `cells.json`,
/// returning the cells and the file's bytes.
fn first_run(dir: &Path) -> (Vec<Cell>, Vec<u8>) {
    let runner = journaled(dir);
    let cells = runner.run_batch(&jobs());
    assert_eq!(runner.cache().computed(), 3);
    let path = dir.join("cells.json");
    runner.cache().save_file(&path).expect("save");
    (cells, std::fs::read(&path).expect("read back"))
}

/// Rerun [`jobs`] on the journal in `dir`: the cells must equal
/// `expected` and exactly `computed` of them may be simulated again.
fn rerun(dir: &Path, expected: &[Cell], resumed: u64, computed: u64) -> SweepRunner {
    let runner = journaled(dir);
    assert_eq!(runner.resumed_cells(), resumed, "cells read back");
    assert_eq!(runner.run_batch(&jobs()), expected);
    assert_eq!(runner.cache().hits(), resumed, "read-back cells are hits");
    assert_eq!(runner.cache().computed(), computed, "cells simulated again");
    runner
}

/// The journal's `corrupt_lines` count, as `metrics.json` reports it.
fn corrupt_lines(runner: &SweepRunner) -> u64 {
    let doc = runner.telemetry_json();
    doc.get("journal")
        .and_then(|j| j.get("corrupt_lines"))
        .and_then(Json::as_u64)
        .expect("journal.corrupt_lines")
}

/// 64-bit FNV-1a, the journal's line checksum, re-derived from its
/// documented format so a test can forge a line that passes it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrite the first `done` line of `dir/journal.jsonl` as
/// `{"sum": sum(rec), "rec": edit(rec)}`.
fn rewrite_first_done(dir: &Path, edit: impl Fn(&mut Json), sum: impl Fn(&Json) -> u64) {
    let path = dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&path).expect("read journal");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let i = lines
        .iter()
        .position(|l| l.contains("\"op\":\"done\""))
        .expect("a done line");
    let doc = Json::parse(&lines[i]).expect("journal line is JSON");
    let mut rec = doc.get("rec").expect("rec").clone();
    edit(&mut rec);
    lines[i] = obj! { "sum" => sum(&rec), "rec" => rec }.compact();
    std::fs::write(&path, lines.join("\n") + "\n").expect("rewrite journal");
}

/// Open the journal in `dir` and run [`jobs`]: nothing is read back,
/// nothing counts as corrupt, and every cell is simulated.
fn assert_cold_start(dir: &Path) {
    let runner = journaled(dir);
    assert_eq!(runner.resumed_cells(), 0);
    assert_eq!(corrupt_lines(&runner), 0);
    runner.run_batch(&jobs());
    assert_eq!(runner.cache().computed(), 3, "every cell simulated");
    assert!(dir.join("journal.jsonl").exists(), "the journal is created");
}

#[test]
fn missing_file_is_a_clean_cold_start() {
    let dir = scratch("missing");
    assert_cold_start(&dir);
}

#[test]
fn empty_journal_is_a_clean_cold_start() {
    let dir = scratch("empty");
    std::fs::write(dir.join("journal.jsonl"), "").expect("write empty journal");
    assert_cold_start(&dir);
}

#[test]
fn save_is_atomic_and_reloads_cleanly() {
    let dir = scratch("atomic");
    let (cells, bytes) = first_run(&dir);
    assert!(
        !dir.join("cells.json.tmp").exists(),
        "the temp file must not survive a successful save"
    );
    let runner = rerun(&dir, &cells, 3, 0);
    assert_eq!(corrupt_lines(&runner), 0);
    // Overwriting an existing file also works, and a run served wholly
    // from the journal writes the same bytes.
    let path = dir.join("cells.json");
    runner.cache().save_file(&path).expect("overwrite");
    assert_eq!(std::fs::read(&path).expect("read back"), bytes);
}

#[test]
fn torn_journal_tail_is_truncated_not_fatal() {
    let dir = scratch("torn");
    let (cells, _) = first_run(&dir);
    // A crash mid-append: the file ends halfway through the last `done`
    // line, and nothing after it was written.
    let path = dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&path).expect("read journal");
    let done = text.rfind("\"op\":\"done\"").expect("a done line");
    let start = text[..done].rfind('\n').map_or(0, |nl| nl + 1);
    let end = done + text[done..].find('\n').expect("a whole line");
    let cut = (start + end) / 2;
    std::fs::write(&path, &text[..cut]).expect("tear");

    let runner = rerun(&dir, &cells, 2, 1);
    let summary = runner.resume_summary().expect("journaled");
    assert!(summary.contains("torn tail"), "{summary}");
}

#[test]
fn bit_flipped_done_line_is_recomputed_and_neighbours_adopted() {
    let dir = scratch("bitflip");
    let (cells, bytes) = first_run(&dir);
    // The stored sum no longer matches the record, exactly as a flipped
    // bit in the record would fail to match the stored sum.
    rewrite_first_done(&dir, |_| {}, |rec| fnv1a(rec.compact().as_bytes()) ^ 1);

    let runner = rerun(&dir, &cells, 2, 1);
    assert_eq!(corrupt_lines(&runner), 1, "the rotten line is counted");
    let path = dir.join("cells.json");
    runner.cache().save_file(&path).expect("save");
    assert_eq!(std::fs::read(&path).expect("read back"), bytes);
}

#[test]
fn undecodable_done_body_is_skipped_and_recomputed() {
    let dir = scratch("shape");
    let (cells, _) = first_run(&dir);
    // A `done` record from a binary whose `Cell` had another shape: the
    // checksum holds, but the body lacks a field this binary requires.
    rewrite_first_done(
        &dir,
        |rec| {
            let Json::Obj(pairs) = rec else {
                panic!("rec is an object")
            };
            let cell = pairs.iter_mut().find(|(k, _)| k == "cell").expect("cell");
            let Json::Obj(fields) = &mut cell.1 else {
                panic!("cell is an object")
            };
            let f = fields.iter_mut().find(|(k, _)| k == "dram_events");
            f.expect("dram_events").0 = "dram_transfers".into();
        },
        |rec| fnv1a(rec.compact().as_bytes()),
    );

    let runner = rerun(&dir, &cells, 2, 1);
    assert_eq!(corrupt_lines(&runner), 1, "the stale record is counted");
}

/// `repro --scale 20000 --nbench 2 [extra] table3` into `out`.
fn repro_table3(out: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "20000", "--nbench", "2", "--jobs", "1"])
        .args(extra)
        .arg("--out")
        .arg(out)
        .arg("table3")
        .output()
        .expect("spawn repro")
}

#[test]
fn truncated_or_garbage_cells_json_is_never_read() {
    let clean = scratch("clean");
    let out = repro_table3(&clean, &[]);
    assert!(out.status.success(), "clean run: {out:?}");
    let reference = std::fs::read(clean.join("cells.json")).expect("clean cells.json");

    let truncated = reference[..reference.len() / 2].to_vec();
    for (name, bytes) in [
        ("truncated", truncated),
        ("garbage", b"[1, 2, 3]\n".to_vec()),
    ] {
        let dir = scratch(name);
        std::fs::write(dir.join("cells.json"), bytes).expect("plant cells.json");
        let out = repro_table3(&dir, &[]);
        assert_eq!(out.status.code(), Some(0), "{name}: {out:?}");
        assert_eq!(
            std::fs::read(dir.join("cells.json")).expect("rewritten"),
            reference,
            "{name}: cells.json is rewritten exactly as a clean run writes it"
        );
        assert!(!dir.join("cells.json.corrupt").exists());
    }
}

#[test]
fn no_journal_is_an_unknown_flag() {
    let dir = scratch("no-journal");
    let out = repro_table3(&dir, &["--no-journal"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --no-journal"), "{stderr}");
}
