//! The parallel memoized sweep runner — the engine room of every table
//! and figure.
//!
//! Each paper artifact is a sweep of independent
//! [`run_config`]`(cfg, workload)` cells, and artifacts overlap: the
//! Table 5 sweep is exactly the fixed-reference half of the time-slice
//! study, the ablation study's base row is a Table 4 cell, and Figures
//! 2–4 are views over Table 3. The [`SweepRunner`] exploits both facts:
//!
//! * **Parallelism** — a batch of [`Job`]s is executed by a pool of
//!   worker threads spawned for the batch (bounded by available cores,
//!   overridable via [`SweepRunner::new`]). Workers pull cells from a
//!   queue and send results back over a channel, so no lock is held
//!   while a cell simulates and a sweep's wall-clock approaches
//!   `total / cores`; one worker is the same pool at N = 1. Results
//!   are returned in submission order regardless of completion order,
//!   and every cell is a deterministic function of its job, so runs at
//!   any pool width are bit-identical (a golden test enforces this).
//! * **Memoization** — the [`CellCache`] fingerprints each job and
//!   returns finished [`Cell`]s, so overlapping sweeps across artifacts
//!   are simulated exactly once per `repro` invocation. Across
//!   invocations, finished cells come back from the journal (below);
//!   the cache is also written out as `cells.json`, a derived artifact
//!   that nothing reads back.
//! * **Fault tolerance** — each cell runs behind a validation gate and a
//!   panic boundary. A job whose configuration fails
//!   [`SystemConfig::validate`], or whose simulation panics twice (one
//!   retry), is recorded as a [`FailedCell`] and replaced by an inert
//!   [`Cell::failed_placeholder`]; the rest of the sweep completes.
//! * **Crash safety** — a runner given [`SweepRunner::with_journal`]
//!   records every cell transition in a durable append-only journal
//!   ([`journal`] module), claims cells under owner leases so several
//!   processes can drain one grid cooperatively ([`lease`] module), and
//!   resumes a killed sweep from the journal's `done` records — the
//!   only durable record of a finished cell. An
//!   optional [`watchdog`] flags cells that blow past a latency budget
//!   derived from the sweep's own history, and a shutdown flag
//!   ([`SweepRunner::with_shutdown_flag`]) turns SIGINT/SIGTERM into a
//!   graceful checkpoint-and-release instead of lost work.

mod journal;
mod lease;
mod panic_capture;
mod watchdog;

pub use journal::{
    scan_path as scan_journal, Journal, JournalOp, JournalOpenReport, JournalRecord,
};
pub use lease::{CellView, ClaimDecision, ClaimView, JournalState, LeaseConfig};
pub use watchdog::{Watchdog, WatchdogConfig, STALL_PANIC_PREFIX};

use crate::config::{DramKind, SystemConfig};
use crate::error::{CacheIoError, InvariantError, RampageError};
use crate::experiments::common::{run_config, Cell, Workload};
use rampage_json::{obj, Json, ToJson};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One unit of sweep work: simulate `cfg` over `workload`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// The system to simulate.
    pub cfg: SystemConfig,
    /// The workload to drive it with.
    pub workload: Workload,
}

impl Job {
    /// Package a configuration and workload as a job.
    pub fn new(cfg: SystemConfig, workload: Workload) -> Self {
        Job { cfg, workload }
    }

    /// A stable fingerprint of the job: FNV-1a over the `Debug`
    /// rendering of the configuration and workload. Both types derive
    /// `Debug` over every field, so the rendering is a complete encoding
    /// of everything the simulation depends on; two jobs with equal
    /// fingerprints produce identical cells.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(format!("{:?}|{:?}", self.cfg, self.workload).as_bytes())
    }
}

/// 64-bit FNV-1a: job fingerprints, journal line checksums and the
/// per-cell checksums in `cells.json`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Version stamp in the `cells.json` header; bump when [`Cell`], the
/// fingerprint scheme, or the envelope changes shape. Version 2 added
/// the per-cell `sum` checksum.
const CACHE_FORMAT_VERSION: u64 = 2;

/// Lock a mutex, recovering the data from a poisoned lock: a worker
/// that panicked mid-insert can at worst lose its own entry, and the
/// cache is a memo table, so a lost entry only costs recomputation. The
/// watchdog's registry follows the same policy (it is reporting state).
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A memo table of finished cells, keyed by [`Job::fingerprint`].
///
/// Thread-safe: workers insert concurrently while batch assembly reads.
/// `hits` counts every lookup served without simulation (including
/// duplicates deduplicated within one batch); `computed` counts cells
/// actually simulated.
///
/// Keyed by a `BTreeMap` so every walk over the cache (serialization,
/// reporting) is fingerprint-ordered by construction — the static
/// analyzer's hash-iter rule is about exactly this class of ordering
/// leak.
#[derive(Debug, Default)]
pub struct CellCache {
    map: Mutex<BTreeMap<u64, Cell>>,
    hits: AtomicU64,
    computed: AtomicU64,
}

impl CellCache {
    /// An empty cache.
    pub fn new() -> Self {
        CellCache::default()
    }

    /// Look up a fingerprint, counting a hit when found.
    pub fn get(&self, fp: u64) -> Option<Cell> {
        let found = lock_recovering(&self.map).get(&fp).copied();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Record a freshly computed cell.
    pub fn insert(&self, fp: u64, cell: Cell) {
        self.computed.fetch_add(1, Ordering::Relaxed);
        lock_recovering(&self.map).insert(fp, cell);
    }

    /// Seed a cell without counting it as computed (journal resume or
    /// adoption).
    fn seed(&self, fp: u64, cell: Cell) {
        lock_recovering(&self.map).insert(fp, cell);
    }

    /// Lookups served from memory instead of simulation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cells actually simulated through this cache.
    pub fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Distinct cells held.
    pub fn len(&self) -> usize {
        lock_recovering(&self.map).len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize every entry (fingerprint-ordered — the map itself is
    /// ordered, so serialization is deterministic by construction).
    /// Each entry carries an FNV-1a checksum of its compact cell body,
    /// so a reader of the file can detect single-entry rot.
    pub fn to_json(&self) -> Json {
        let map = lock_recovering(&self.map);
        let entries: Vec<(u64, Cell)> = map.iter().map(|(&fp, &c)| (fp, c)).collect();
        drop(map);
        obj! {
            "version" => CACHE_FORMAT_VERSION,
            "cells" => entries
                .iter()
                .map(|(fp, cell)| {
                    let body = cell.to_json();
                    let sum = fnv1a(body.compact().as_bytes());
                    obj! { "fp" => *fp, "sum" => sum, "cell" => body }
                })
                .collect::<Vec<Json>>(),
        }
    }

    /// Write `cells.json`, a derived artifact of the run that the
    /// program never reads back (the journal is the durable record).
    /// The write is atomic: the document is written to
    /// `<name>.tmp`, synced to disk, then renamed over `path`, so a
    /// crash at any point leaves either the old file or the new one —
    /// never a torn mixture.
    ///
    /// # Errors
    ///
    /// Any underlying file I/O failure, as [`CacheIoError::Io`].
    pub fn save_file(&self, path: &Path) -> Result<(), CacheIoError> {
        let text = self.to_json().pretty() + "\n";
        let tmp = match path.file_name() {
            Some(n) => {
                let mut n = n.to_os_string();
                n.push(".tmp");
                path.with_file_name(n)
            }
            None => {
                return Err(CacheIoError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "cache path has no file name",
                )))
            }
        };
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// The record of one job the runner could not complete: its identity,
/// how hard the runner tried, and why it failed. Sweeps that contain
/// failed cells still return a full-shape result (with
/// [`Cell::failed_placeholder`] standing in), so a single bad
/// configuration cannot kill a multi-hour run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedCell {
    /// [`Job::fingerprint`] of the failed job.
    pub fingerprint: u64,
    /// The job's L2 block / SRAM page size (for identifying the cell).
    pub unit_bytes: u64,
    /// The job's issue rate in MHz.
    pub issue_mhz: u32,
    /// Execution attempts made (1 for unretried errors, 2 after a retry).
    pub attempts: u32,
    /// The classified error, rendered.
    pub error: String,
    /// Workspace frames of the panic backtrace, when the failure was a
    /// caught panic and capture was available; empty otherwise.
    pub backtrace: String,
}

impl ToJson for FailedCell {
    fn to_json(&self) -> Json {
        obj! {
            "fp" => self.fingerprint,
            "unit_bytes" => self.unit_bytes,
            "issue_mhz" => self.issue_mhz,
            "attempts" => self.attempts,
            "error" => self.error.as_str(),
            "backtrace" => self.backtrace.as_str(),
        }
    }
}

impl FailedCell {
    fn new(job: &Job, fp: u64, attempts: u32, error: &RampageError, backtrace: String) -> Self {
        FailedCell {
            fingerprint: fp,
            unit_bytes: job.cfg.hierarchy.unit_bytes(),
            issue_mhz: job.cfg.issue.mhz(),
            attempts,
            error: error.to_string(),
            backtrace,
        }
    }

    /// Multi-line human rendering for the failure report.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "cell {:#018x} (unit {} B, {} MHz, {} attempt{}):\n    {}",
            self.fingerprint,
            self.unit_bytes,
            self.issue_mhz,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.error,
        );
        if !self.backtrace.is_empty() {
            for line in self.backtrace.lines() {
                s.push_str("\n    | ");
                s.push_str(line);
            }
        }
        s
    }
}

/// What a sweep's progress callback sees each time a cell finishes
/// computing (cache hits never fire it — only real simulations do).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressUpdate {
    /// [`Job::fingerprint`] of the finished cell.
    pub fingerprint: u64,
    /// The cell's L2 block / SRAM page size.
    pub unit_bytes: u64,
    /// The cell's issue rate in MHz.
    pub issue_mhz: u32,
    /// Whether the cell failed (and holds a placeholder).
    pub failed: bool,
    /// Wall-clock seconds this cell's simulation took.
    pub cell_secs: f64,
    /// Cells finished so far in the current batch (this one included).
    pub batch_done: usize,
    /// Cells the current batch set out to compute.
    pub batch_total: usize,
    /// Cells of the current batch served from the cache instead.
    pub batch_cached: usize,
    /// Naive remaining-work estimate: mean cell time × cells left ÷
    /// workers.
    pub eta_secs: f64,
}

/// Wall-clock record of one computed cell, for `metrics.json`.
#[derive(Debug, Clone, PartialEq)]
struct CellTiming {
    fingerprint: u64,
    unit_bytes: u64,
    issue_mhz: u32,
    secs: f64,
    failed: bool,
    /// Index of the pool worker that simulated the cell.
    worker: usize,
}

/// Wall-clock record of one batch's worker pool, for `metrics.json`.
#[derive(Debug)]
struct PoolTiming {
    label: String,
    /// Wall seconds from spawning the workers to joining them.
    secs: f64,
    /// Seconds each worker spent simulating cells.
    busy_secs: Vec<f64>,
}

impl PoolTiming {
    /// Σ cell secs / (pool wall × workers): 1.0 means no worker ever
    /// waited.
    fn parallel_efficiency(&self) -> f64 {
        let busy: f64 = self.busy_secs.iter().sum();
        busy / (self.secs * self.busy_secs.len() as f64)
    }
}

/// Accumulated sweep telemetry (wall-clock side; the deterministic
/// counters live in [`CellCache`]).
#[derive(Debug, Default)]
struct Telemetry {
    batches: u64,
    total_secs: f64,
    cells: Vec<CellTiming>,
    pools: Vec<PoolTiming>,
}

type ProgressFn = Box<dyn Fn(&ProgressUpdate) + Send + Sync>;

/// One pool worker's report back to the calling thread.
struct Finished {
    /// Index into the batch's pending list.
    k: usize,
    outcome: JobOutcome,
    secs: f64,
    worker: usize,
}

/// The calling thread's accounting for one batch's pool: the ETA
/// accumulators and per-worker busy time.
struct PoolStats {
    total: usize,
    cached: usize,
    finished: usize,
    spent_secs: f64,
    busy_secs: Vec<f64>,
}

/// The crash-safety state of a journaled runner: the open journal, the
/// lease identity/policy, and the resume/coordination counters that feed
/// the `journal` subtree of `metrics.json`.
#[derive(Debug)]
struct Durable {
    journal: Mutex<Journal>,
    lease: LeaseConfig,
    /// Monotonic lease number, bumped at every renew.
    lease_seq: AtomicU64,
    dones_since_renew: AtomicU64,
    last_renew_ms: AtomicU64,
    /// Finished cells recovered from the journal at open.
    resumed_cells: u64,
    corrupt_lines: u64,
    truncated_bytes: u64,
    /// Cells finished by someone else and read back mid-run.
    adopted: AtomicU64,
    claims: AtomicU64,
    reclaims: AtomicU64,
    renews: AtomicU64,
    /// Journal I/O failures (the run degrades to non-resumable instead
    /// of aborting; the count surfaces in telemetry).
    errors: AtomicU64,
}

impl Durable {
    /// Append one record under this runner's owner id and current lease
    /// number. Failures are counted, never fatal: losing the journal
    /// costs resumability, not the sweep.
    fn append(&self, op: JournalOp) {
        let rec = JournalRecord {
            op,
            owner: self.lease.owner.clone(),
            lease: self.lease_seq.load(Ordering::Relaxed),
            t_ms: journal::wall_ms(),
        };
        if lock_recovering(&self.journal).append(&rec).is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Re-read the journal (other processes may have appended).
    fn scan(&self) -> Vec<JournalRecord> {
        match lock_recovering(&self.journal).scan() {
            Ok(records) => records,
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Bump the lease number and append a `renew` heartbeat.
    fn renew(&self) {
        self.lease_seq.fetch_add(1, Ordering::Relaxed);
        self.renews.fetch_add(1, Ordering::Relaxed);
        self.last_renew_ms
            .store(journal::wall_ms(), Ordering::Relaxed);
        self.append(JournalOp::Renew);
    }

    /// Called after each journaled `done`: renew every K completed
    /// cells, per the lease config.
    fn note_done(&self) {
        let n = self.dones_since_renew.fetch_add(1, Ordering::Relaxed) + 1;
        if self.lease.renew_every > 0 && n >= self.lease.renew_every {
            self.dones_since_renew.store(0, Ordering::Relaxed);
            self.renew();
        }
    }

    /// Heartbeat while idle-waiting on other owners' claims, often
    /// enough that a healthy process never looks TTL-stale.
    fn maybe_heartbeat(&self) {
        let now = journal::wall_ms();
        let last = self.last_renew_ms.load(Ordering::Relaxed);
        if now.saturating_sub(last) > self.lease.ttl_ms / 3 {
            self.renew();
        }
    }

    /// The `journal` subtree of `metrics.json`.
    fn telemetry(&self) -> Json {
        obj! {
            "owner" => self.lease.owner.as_str(),
            "resumed" => self.resumed_cells,
            "adopted" => self.adopted.load(Ordering::Relaxed),
            "claims" => self.claims.load(Ordering::Relaxed),
            "reclaims" => self.reclaims.load(Ordering::Relaxed),
            "renews" => self.renews.load(Ordering::Relaxed),
            "corrupt_lines" => self.corrupt_lines,
            "truncated_bytes" => self.truncated_bytes,
            "errors" => self.errors.load(Ordering::Relaxed),
        }
    }
}

/// The parallel memoized sweep runner every experiment module submits
/// its simulations through.
#[derive(Default)]
pub struct SweepRunner {
    jobs: usize,
    cache: CellCache,
    failures: Mutex<Vec<FailedCell>>,
    telemetry: Mutex<Telemetry>,
    progress: Option<ProgressFn>,
    watchdog: Option<Watchdog>,
    durable: Option<Durable>,
    shutdown: Option<&'static AtomicBool>,
    interrupted: AtomicBool,
    dram_override: Option<DramKind>,
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("jobs", &self.jobs)
            .field("cache", &self.cache)
            .field("failures", &self.failures)
            .field("telemetry", &self.telemetry)
            .field("progress", &self.progress.as_ref().map(|_| "Fn"))
            .field("watchdog", &self.watchdog)
            .field("durable", &self.durable)
            .field(
                "shutdown",
                &self.shutdown.map(|f| f.load(Ordering::Relaxed)),
            )
            .field("interrupted", &self.interrupted)
            .field("dram_override", &self.dram_override)
            .finish()
    }
}

/// How a single pending job ended.
enum JobOutcome {
    /// Computed here: cached (counted as computed) and, when journaled,
    /// appended as a `done` record.
    Done(Cell),
    /// Finished by a previous run or a sibling process and read back
    /// from the journal: seeds the cache without counting as computed.
    Adopted(Cell),
    /// Failed deterministically: recorded, slot holds the placeholder.
    Failed(Box<FailedCell>),
    /// Never computed — a shutdown request drained the queue. The slot
    /// holds a placeholder and the runner reports itself interrupted.
    Interrupted,
}

impl SweepRunner {
    /// A runner with `jobs` worker threads; `0` means one per available
    /// core.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        SweepRunner {
            jobs,
            ..SweepRunner::default()
        }
    }

    /// Install a progress callback, fired on the thread that submitted
    /// the batch once per computed cell (heartbeat lines, progress
    /// bars). The callback must not submit work back into this runner.
    pub fn with_progress(mut self, f: impl Fn(&ProgressUpdate) + Send + Sync + 'static) -> Self {
        self.progress = Some(Box::new(f));
        self
    }

    /// Attach a durable cell journal at `path` (conventionally
    /// `journal.jsonl` next to `cells.json`), making every batch
    /// crash-safe and resumable:
    ///
    /// * finished cells already journaled (by a killed previous run, or
    ///   by this run's siblings) seed the cache, so resumption skips
    ///   them;
    /// * every cell transition is appended durably before the runner
    ///   moves on, so a `kill -9` loses at most the cells mid-compute;
    /// * cells are claimed under `lease` before computing, so several
    ///   processes can point at the same journal and cooperatively
    ///   drain one grid without duplicating work.
    ///
    /// # Errors
    ///
    /// [`CacheIoError`] when the journal cannot be opened or its torn
    /// tail cannot be truncated.
    pub fn with_journal(mut self, path: &Path, lease: LeaseConfig) -> Result<Self, CacheIoError> {
        let (mut journal, report) = Journal::open(path)?;
        let state = JournalState::replay(&journal.scan()?);
        let mut resumed = 0u64;
        for (fp, view) in &state.cells {
            if let Some(cell) = view.done {
                self.cache.seed(*fp, cell);
                resumed += 1;
            }
        }
        let now = journal::wall_ms();
        journal.append(&JournalRecord {
            op: JournalOp::Open,
            owner: lease.owner.clone(),
            lease: 1,
            t_ms: now,
        })?;
        self.durable = Some(Durable {
            journal: Mutex::new(journal),
            lease,
            lease_seq: AtomicU64::new(1),
            dones_since_renew: AtomicU64::new(0),
            last_renew_ms: AtomicU64::new(now),
            resumed_cells: resumed,
            corrupt_lines: report.corrupt_lines as u64,
            truncated_bytes: report.truncated_bytes,
            adopted: AtomicU64::new(0),
            claims: AtomicU64::new(0),
            reclaims: AtomicU64::new(0),
            renews: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });
        Ok(self)
    }

    /// Arm the hung-cell watchdog: cells whose wall time exceeds
    /// p99 × multiplier (see [`WatchdogConfig`]) are journaled `stalled`,
    /// cooperatively cancelled, and retried on an attempt-indexed
    /// backoff before being recorded as failed.
    pub fn with_watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(Watchdog::new(cfg));
        self
    }

    /// Force every job this runner executes onto the given DRAM backend
    /// (the `repro --dram-backend` knob): each submitted job's
    /// `cfg.dram` is rewritten *before* fingerprinting, so caching,
    /// the journal, and `cells.json` key on the backend actually
    /// simulated, and flat-run cells are never polluted.
    pub fn with_dram(mut self, kind: DramKind) -> Self {
        self.dram_override = Some(kind);
        self
    }

    /// The DRAM backend override, if one is installed.
    pub fn dram_override(&self) -> Option<DramKind> {
        self.dram_override
    }

    /// Install a shutdown flag (typically set by a SIGINT/SIGTERM
    /// handler). Once the flag reads true, workers finish the cells
    /// they have started, unstarted cells drain as interrupted
    /// placeholders (journaled `released` when a journal is attached),
    /// and [`interrupted`](Self::interrupted) reports true.
    pub fn with_shutdown_flag(mut self, flag: &'static AtomicBool) -> Self {
        self.shutdown = Some(flag);
        self
    }

    /// Whether any batch was cut short by the shutdown flag. Results
    /// from an interrupted runner contain placeholder cells and must
    /// not be published as experiment output — the journal holds every
    /// finished cell, so resume later.
    pub fn interrupted(&self) -> bool {
        self.interrupted.load(Ordering::Relaxed)
    }

    /// Finished cells recovered from the journal when it was attached
    /// (0 for a fresh journal or an unjournaled runner).
    pub fn resumed_cells(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.resumed_cells)
    }

    /// One human-readable line describing what attaching the journal
    /// recovered; `None` when no journal is attached.
    pub fn resume_summary(&self) -> Option<String> {
        let d = self.durable.as_ref()?;
        let mut s = format!(
            "journal: owner {}, resumed {} finished cell(s)",
            d.lease.owner, d.resumed_cells
        );
        if d.truncated_bytes > 0 {
            s.push_str(&format!(", truncated {}-byte torn tail", d.truncated_bytes));
        }
        if d.corrupt_lines > 0 {
            s.push_str(&format!(", skipped {} corrupt line(s)", d.corrupt_lines));
        }
        Some(s)
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Append `op` to the journal, when one is attached.
    fn journal_op(&self, op: JournalOp) {
        if let Some(d) = &self.durable {
            d.append(op);
        }
    }

    /// The machine-readable sweep telemetry document (`metrics.json`):
    /// deterministic counters at the top level, every wall-clock-derived
    /// quantity isolated under the `"wall"` key so determinism checks can
    /// strip one subtree and compare the rest byte-for-byte. Under
    /// `"wall"`, `batches` holds one entry per batch that simulated at
    /// least one cell: its pool's wall seconds, per-worker `busy_secs`,
    /// and `parallel_efficiency` = Σ cell secs / (wall × workers).
    pub fn telemetry_json(&self) -> Json {
        let t = lock_recovering(&self.telemetry);
        let mut cells: Vec<CellTiming> = t.cells.clone();
        cells.sort_by(|a, b| {
            (a.fingerprint, a.unit_bytes, a.issue_mhz).cmp(&(
                b.fingerprint,
                b.unit_bytes,
                b.issue_mhz,
            ))
        });
        let mut doc = obj! {
            "version" => 1u64,
            "workers" => self.jobs,
            "batches" => t.batches,
            "cells_computed" => self.cache.computed(),
            "cache_hits" => self.cache.hits(),
            "distinct_cells" => self.cache.len(),
            "failures" => self.failure_count(),
            "interrupted" => self.interrupted(),
            "wall" => obj! {
                "total_secs" => t.total_secs,
                "stalled" => self.watchdog.as_ref().map_or(0, Watchdog::stalled_total),
                "cells" => cells
                    .iter()
                    .map(|c| obj! {
                        "fp" => c.fingerprint,
                        "unit_bytes" => c.unit_bytes,
                        "issue_mhz" => c.issue_mhz,
                        "secs" => c.secs,
                        "failed" => c.failed,
                        "worker" => c.worker,
                    })
                    .collect::<Vec<Json>>(),
                "batches" => t
                    .pools
                    .iter()
                    .map(|p| obj! {
                        "label" => p.label.as_str(),
                        "secs" => p.secs,
                        "workers" => p.busy_secs.len(),
                        "busy_secs" => &p.busy_secs,
                        "parallel_efficiency" => p.parallel_efficiency(),
                    })
                    .collect::<Vec<Json>>(),
            },
        };
        if let Some(d) = &self.durable {
            if let Json::Obj(pairs) = &mut doc {
                pairs.push(("journal".to_string(), d.telemetry()));
            }
        }
        doc
    }

    /// A one-worker runner (still memoized): the same pool at N = 1, and
    /// the reference the golden-equality test compares wider pools to.
    pub fn serial() -> Self {
        SweepRunner::new(1)
    }

    /// Worker-thread count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The memo table (for stats and persistence).
    pub fn cache(&self) -> &CellCache {
        &self.cache
    }

    /// Every failure recorded so far, in deterministic submission order
    /// within each batch.
    pub fn failures(&self) -> Vec<FailedCell> {
        lock_recovering(&self.failures).clone()
    }

    /// Number of failed cells recorded so far.
    pub fn failure_count(&self) -> usize {
        lock_recovering(&self.failures).len()
    }

    /// A human-readable failure report; empty string when every cell
    /// succeeded.
    pub fn failure_report(&self) -> String {
        let failures = lock_recovering(&self.failures);
        if failures.is_empty() {
            return String::new();
        }
        let mut s = format!(
            "{} cell(s) failed; their table slots hold inert zero cells:\n",
            failures.len()
        );
        for f in failures.iter() {
            s.push_str("  ");
            s.push_str(&f.describe());
            s.push('\n');
        }
        s
    }

    /// Run one configuration through the cache and the same isolation
    /// boundary as batches; a failure is recorded and yields the inert
    /// placeholder cell.
    pub fn run_one(&self, cfg: &SystemConfig, workload: &Workload) -> Cell {
        let mut cells = self.run_batch(&[Job::new(*cfg, *workload)]);
        let Some(cell) = cells.pop() else {
            // invariant: run_batch returns exactly one cell per job.
            unreachable!("run_batch returns one cell per job");
        };
        cell
    }

    /// Run a batch of jobs, in parallel, returning cells in submission
    /// order. Duplicate jobs (within the batch or against the cache) are
    /// simulated once and fanned out to every submitter. Failed jobs
    /// yield [`Cell::failed_placeholder`] (never cached) and are
    /// recorded in [`failures`](Self::failures).
    pub fn run_batch(&self, jobs: &[Job]) -> Vec<Cell> {
        self.run_labeled("batch", jobs)
    }

    /// [`run_batch`](Self::run_batch) with a label (the calling
    /// artifact's name) that journaled claim records carry, so a
    /// journal reads as a per-artifact work log.
    pub fn run_labeled(&self, label: &str, jobs: &[Job]) -> Vec<Cell> {
        // Apply the DRAM-backend override before fingerprinting, so the
        // cache keys on what actually runs.
        let rewritten: Vec<Job>;
        let jobs = match self.dram_override {
            Some(kind) => {
                rewritten = jobs
                    .iter()
                    .map(|j| {
                        let mut j = *j;
                        j.cfg.dram = kind;
                        j
                    })
                    .collect();
                &rewritten[..]
            }
            None => jobs,
        };
        let batch_start = Instant::now();
        let mut slots: Vec<Option<Cell>> = vec![None; jobs.len()];
        // First occurrence of each uncached fingerprint, in order.
        let mut pending: Vec<(u64, Job)> = Vec::new();
        // fingerprint -> slots awaiting it. Ordered so any walk over the
        // waiters (now or under future refactors) stays deterministic.
        let mut waiters: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut cached = 0usize;
        for (i, job) in jobs.iter().enumerate() {
            let fp = job.fingerprint();
            if let Some(cell) = self.cache.get(fp) {
                slots[i] = Some(cell);
                cached += 1;
                continue;
            }
            match waiters.entry(fp) {
                Entry::Occupied(mut e) => {
                    // Deduplicated within the batch: count as a hit.
                    self.cache.hits.fetch_add(1, Ordering::Relaxed);
                    cached += 1;
                    e.get_mut().push(i);
                }
                Entry::Vacant(e) => {
                    e.insert(vec![i]);
                    pending.push((fp, *job));
                }
            }
        }

        let mut computed = self.execute(label, &pending, cached);
        {
            let mut t = lock_recovering(&self.telemetry);
            t.batches += 1;
            t.total_secs += batch_start.elapsed().as_secs_f64();
        }
        // Completion order is nondeterministic under the pool; submission
        // order keeps results — and the failure log — deterministic.
        computed.sort_by_key(|&(k, _)| k);

        for (k, outcome) in computed {
            let (fp, job) = pending[k];
            let cell = match outcome {
                JobOutcome::Done(cell) => {
                    self.cache.insert(fp, cell);
                    cell
                }
                // Someone else simulated it: cache without counting it as
                // computed here.
                JobOutcome::Adopted(cell) => {
                    self.cache.seed(fp, cell);
                    cell
                }
                JobOutcome::Failed(failed) => {
                    lock_recovering(&self.failures).push(*failed);
                    Cell::failed_placeholder(&job.cfg)
                }
                JobOutcome::Interrupted => {
                    self.interrupted.store(true, Ordering::Relaxed);
                    Cell::failed_placeholder(&job.cfg)
                }
            };
            for &slot in &waiters[&fp] {
                slots[slot] = Some(cell);
            }
        }
        slots
            .into_iter()
            .map(|c| match c {
                Some(cell) => cell,
                // invariant: the cache-fill and compute loops above
                // populate every slot, including failed ones.
                None => unreachable!("every slot is cached, computed, or failed"),
            })
            .collect()
    }

    /// One isolated execution attempt sequence for a job: validate the
    /// configuration, then simulate behind a panic boundary, retrying a
    /// panicking cell once (a second identical panic is considered
    /// deterministic and recorded). When a watchdog is armed, each
    /// attempt is registered with it; a cooperative stall unwind is
    /// retried on the (separate) stall budget with attempt-indexed
    /// backoff baked into the watchdog's budget formula.
    fn compute_cell(&self, job: &Job, fp: u64) -> JobOutcome {
        const MAX_PANIC_ATTEMPTS: u32 = 2;
        if let Err(e) = job.cfg.validate() {
            return JobOutcome::Failed(Box::new(FailedCell::new(
                job,
                fp,
                1,
                &RampageError::Config(e),
                String::new(),
            )));
        }
        let stall_budget = self
            .watchdog
            .as_ref()
            .map_or(0, |w| w.config().max_stall_retries);
        let mut panic_attempts = 0u32;
        let mut stall_attempts = 0u32;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let cancel = match &self.watchdog {
                Some(wd) => wd.register(fp, attempt),
                None => Arc::new(AtomicBool::new(false)),
            };
            #[cfg(not(feature = "fault"))]
            let _ = &cancel;
            let outcome = panic_capture::catch(|| {
                #[cfg(feature = "fault")]
                {
                    crate::experiments::fault::cell_panic_point(fp);
                    crate::experiments::fault::hang_cell_point(fp, &cancel);
                    crate::experiments::fault::rendezvous_point(fp);
                }
                run_config(&job.cfg, &job.workload)
            });
            if let Some(wd) = &self.watchdog {
                wd.complete(fp, attempt, outcome.is_ok());
            }
            match outcome {
                Ok(cell) => return JobOutcome::Done(cell),
                Err(p) if watchdog::is_stall_panic(&p.message) => {
                    stall_attempts += 1;
                    if stall_attempts <= stall_budget {
                        continue;
                    }
                    let err = RampageError::Invariant(InvariantError {
                        message: p.message,
                        location: p.location,
                        backtrace: p.backtrace.clone(),
                    });
                    return JobOutcome::Failed(Box::new(FailedCell::new(
                        job,
                        fp,
                        attempt,
                        &err,
                        p.backtrace,
                    )));
                }
                Err(_) if panic_attempts + 1 < MAX_PANIC_ATTEMPTS => {
                    panic_attempts += 1;
                    continue;
                }
                Err(p) => {
                    let err = RampageError::Invariant(InvariantError {
                        message: p.message,
                        location: p.location,
                        backtrace: p.backtrace.clone(),
                    });
                    return JobOutcome::Failed(Box::new(FailedCell::new(
                        job,
                        fp,
                        attempt,
                        &err,
                        p.backtrace,
                    )));
                }
            }
        }
    }

    /// Simulate `pending` on a streaming pool of up to `jobs` workers,
    /// spawned for this batch and joined before it returns; returns
    /// `(index, outcome)` pairs in completion order. `cached` is how many
    /// of the batch's slots the cache already served (reported to the
    /// progress callback).
    ///
    /// Workers pull indices from a queue and send each outcome back over
    /// a channel, so nothing is locked while a cell simulates. The
    /// calling thread keeps the queue fed ([`feed`](Self::feed)) while
    /// fewer than about two cells per worker are queued or in flight,
    /// journals every result the moment it arrives (a crash loses only
    /// the cells in flight), keeps the progress accounting, and polls
    /// the watchdog between results.
    fn execute(
        &self,
        label: &str,
        pending: &[(u64, Job)],
        cached: usize,
    ) -> Vec<(usize, JobOutcome)> {
        /// Receive timeout when no watchdog sets the pace: how often a
        /// journaled run waiting on other owners re-scans the journal.
        const TICK_MS: u64 = 25;
        let total = pending.len();
        if total == 0 {
            return Vec::new();
        }
        let workers = self.jobs.clamp(1, total);
        let tick = Duration::from_millis(
            self.watchdog
                .as_ref()
                .map_or(TICK_MS, |wd| wd.config().poll_ms.max(1)),
        );
        let (queue, work) = mpsc::channel::<usize>();
        let work = Mutex::new(work);
        let (report, reports) = mpsc::channel::<Finished>();
        let mut remaining: Vec<usize> = (0..total).collect();
        let mut results: Vec<(usize, JobOutcome)> = Vec::with_capacity(total);
        let mut pool = PoolStats {
            total,
            cached,
            finished: 0,
            spent_secs: 0.0,
            busy_secs: vec![0.0; workers],
        };
        let started = Instant::now();
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let (work, report) = (&work, report.clone());
                scope.spawn(move || self.work(worker, pending, work, &report));
            }
            drop(report);
            let mut in_flight = 0usize;
            loop {
                if in_flight <= workers && !remaining.is_empty() {
                    let room = 2 * workers - in_flight;
                    in_flight +=
                        self.feed(label, pending, &mut remaining, &mut results, &queue, room);
                }
                if remaining.is_empty() && in_flight == 0 {
                    break;
                }
                match reports.recv_timeout(tick) {
                    Ok(f) => {
                        in_flight -= 1;
                        results.push(self.settle(pending, f, &mut pool));
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    // Every worker is gone; the scope re-raises the panic.
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                if let Some(wd) = &self.watchdog {
                    wd.poll(|fp, attempt| self.journal_op(JournalOp::Stalled { fp, attempt }));
                }
            }
            // Closing the queue lets the idle workers exit.
            drop(queue);
        });
        if pool.finished > 0 {
            let timing = PoolTiming {
                label: label.to_string(),
                secs: started.elapsed().as_secs_f64(),
                busy_secs: pool.busy_secs,
            };
            lock_recovering(&self.telemetry).pools.push(timing);
        }
        results
    }

    /// A pool worker: take the next queued cell, simulate it with no
    /// lock held, and report the outcome; exit when the queue closes.
    /// Cells dequeued after a shutdown request drain as interrupted.
    fn work(
        &self,
        worker: usize,
        pending: &[(u64, Job)],
        work: &Mutex<Receiver<usize>>,
        report: &Sender<Finished>,
    ) {
        loop {
            // Idle workers wait their turn on the queue lock; no worker
            // holds it while simulating.
            let next = lock_recovering(work).recv();
            let Ok(k) = next else { return };
            let (fp, job) = &pending[k];
            let t0 = Instant::now();
            let outcome = if self.shutdown_requested() {
                JobOutcome::Interrupted
            } else {
                self.compute_cell(job, *fp)
            };
            let secs = t0.elapsed().as_secs_f64();
            if report
                .send(Finished {
                    k,
                    outcome,
                    secs,
                    worker,
                })
                .is_err()
            {
                return;
            }
        }
    }

    /// Queue cells for the pool; returns how many were queued.
    ///
    /// Unjournaled, every remaining cell is queued at once. Journaled,
    /// cells other owners finished are adopted into `results`, a
    /// shutdown request resolves every unclaimed cell as interrupted,
    /// and up to `room` free cells are claimed under our lease. The claim
    /// protocol is append-then-read-back (see the [`lease`] module): a
    /// claim only counts once it is durably in the file and wins the
    /// file-order race. A lost race stays in `remaining`, and the
    /// winner's result is adopted by a later call.
    fn feed(
        &self,
        label: &str,
        pending: &[(u64, Job)],
        remaining: &mut Vec<usize>,
        results: &mut Vec<(usize, JobOutcome)>,
        queue: &Sender<usize>,
        room: usize,
    ) -> usize {
        let winners: Vec<usize> = match &self.durable {
            None => std::mem::take(remaining),
            Some(durable) => {
                let state = JournalState::replay(&durable.scan());
                remaining.retain(|&k| match state.done_cell(pending[k].0) {
                    Some(cell) => {
                        durable.adopted.fetch_add(1, Ordering::Relaxed);
                        results.push((k, JobOutcome::Adopted(cell)));
                        false
                    }
                    None => true,
                });
                if self.shutdown_requested() {
                    // Unclaimed cells are left for the next run; claims
                    // we hold resolve as their workers report back.
                    results.extend(remaining.drain(..).map(|k| (k, JobOutcome::Interrupted)));
                    return 0;
                }
                // `Ours` on a cell that is not in flight is a stale claim
                // from a previous incarnation of this owner id: redo it.
                let now = journal::wall_ms();
                let to_claim: Vec<(usize, bool)> = remaining
                    .iter()
                    .filter_map(|&k| match state.decide(pending[k].0, &durable.lease, now) {
                        ClaimDecision::Theirs(_) => None,
                        ClaimDecision::Ours => Some((k, false)),
                        ClaimDecision::Claimable { reclaim } => Some((k, reclaim)),
                    })
                    .take(room)
                    .collect();
                if to_claim.is_empty() {
                    // Everything left is live-claimed elsewhere: keep our
                    // own leases fresh while their `done` records land.
                    durable.maybe_heartbeat();
                    return 0;
                }
                for &(k, reclaim) in &to_claim {
                    let fp = pending[k].0;
                    durable.claims.fetch_add(1, Ordering::Relaxed);
                    if reclaim {
                        durable.reclaims.fetch_add(1, Ordering::Relaxed);
                    }
                    durable.append(JournalOp::Claim {
                        fp,
                        attempt: state.claims_total(fp) + 1,
                        reclaim,
                        label: label.to_string(),
                    });
                }
                #[cfg(feature = "fault")]
                crate::experiments::fault::die_after_claim_point();
                let readback = JournalState::replay(&durable.scan());
                let now = journal::wall_ms();
                to_claim
                    .iter()
                    .map(|&(k, _)| k)
                    .filter(|&k| {
                        let fp = pending[k].0;
                        readback.done_cell(fp).is_none()
                            && readback.decide(fp, &durable.lease, now) == ClaimDecision::Ours
                    })
                    .collect()
            }
        };
        remaining.retain(|k| !winners.contains(k));
        let mut queued = 0;
        for k in winners {
            // The one place a cell is handed to a worker.
            match queue.send(k) {
                Ok(()) => queued += 1,
                Err(_) => results.push((k, JobOutcome::Interrupted)),
            }
        }
        queued
    }

    /// Account for one worker report on the calling thread: journal the
    /// transition, record the cell's wall time, and fire the progress
    /// callback with an ETA that improves as the batch drains.
    fn settle(
        &self,
        pending: &[(u64, Job)],
        f: Finished,
        pool: &mut PoolStats,
    ) -> (usize, JobOutcome) {
        let (fp, job) = pending[f.k];
        if let Some(durable) = &self.durable {
            match &f.outcome {
                JobOutcome::Done(cell) => {
                    durable.append(JournalOp::Done { fp, cell: *cell });
                    durable.note_done();
                    #[cfg(feature = "fault")]
                    crate::experiments::fault::die_after_done_point();
                }
                JobOutcome::Failed(failed) => durable.append(JournalOp::Failed {
                    fp,
                    error: failed.error.clone(),
                }),
                JobOutcome::Interrupted => durable.append(JournalOp::Released { fp }),
                JobOutcome::Adopted(_) => {}
            }
        }
        if matches!(f.outcome, JobOutcome::Interrupted) {
            return (f.k, f.outcome);
        }
        pool.finished += 1;
        pool.spent_secs += f.secs;
        pool.busy_secs[f.worker] += f.secs;
        let timing = CellTiming {
            fingerprint: fp,
            unit_bytes: job.cfg.hierarchy.unit_bytes(),
            issue_mhz: job.cfg.issue.mhz(),
            secs: f.secs,
            failed: !matches!(f.outcome, JobOutcome::Done(_)),
            worker: f.worker,
        };
        if let Some(cb) = &self.progress {
            let left =
                pool.total.saturating_sub(pool.finished) as f64 / pool.busy_secs.len() as f64;
            cb(&ProgressUpdate {
                fingerprint: fp,
                unit_bytes: timing.unit_bytes,
                issue_mhz: timing.issue_mhz,
                failed: timing.failed,
                cell_secs: f.secs,
                batch_done: pool.finished,
                batch_total: pool.total,
                batch_cached: pool.cached,
                eta_secs: pool.spent_secs / pool.finished as f64 * left,
            });
        }
        lock_recovering(&self.telemetry).cells.push(timing);
        (f.k, f.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::IssueRate;

    fn quick_jobs() -> Vec<Job> {
        let w = Workload::quick();
        [128u64, 1024, 4096]
            .iter()
            .flat_map(|&s| {
                [
                    Job::new(SystemConfig::baseline(IssueRate::GHZ1, s), w),
                    Job::new(SystemConfig::rampage(IssueRate::GHZ1, s), w),
                ]
            })
            .collect()
    }

    #[test]
    fn fingerprints_separate_configs_and_workloads() {
        let w = Workload::quick();
        let a = Job::new(SystemConfig::baseline(IssueRate::GHZ1, 128), w);
        let b = Job::new(SystemConfig::baseline(IssueRate::GHZ1, 256), w);
        let c = Job::new(SystemConfig::rampage(IssueRate::GHZ1, 128), w);
        let mut w2 = w;
        w2.scale += 1;
        let d = Job::new(SystemConfig::baseline(IssueRate::GHZ1, 128), w2);
        let fps = [a, b, c, d].map(|j| j.fingerprint());
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "jobs {i} and {j} collide");
            }
        }
        assert_eq!(a.fingerprint(), Job::new(a.cfg, a.workload).fingerprint());
    }

    #[test]
    fn parallel_batch_matches_serial_batch_exactly() {
        let jobs = quick_jobs();
        let serial = SweepRunner::serial().run_batch(&jobs);
        let parallel = SweepRunner::new(4).run_batch(&jobs);
        assert_eq!(serial, parallel, "pools must not change results");
        assert_eq!(serial.len(), jobs.len());
        // Submission order survives the pool.
        for (job, cell) in jobs.iter().zip(&serial) {
            assert_eq!(job.cfg.hierarchy.unit_bytes(), cell.unit_bytes);
        }
    }

    #[test]
    fn cache_deduplicates_within_and_across_batches() {
        let runner = SweepRunner::new(2);
        let jobs = quick_jobs();
        // Submit every job twice in one batch.
        let doubled: Vec<Job> = jobs.iter().chain(jobs.iter()).copied().collect();
        let cells = runner.run_batch(&doubled);
        assert_eq!(&cells[..jobs.len()], &cells[jobs.len()..]);
        assert_eq!(runner.cache().computed(), jobs.len() as u64);
        assert_eq!(runner.cache().hits(), jobs.len() as u64);
        // A second batch is served entirely from the cache.
        let again = runner.run_batch(&jobs);
        assert_eq!(again, &cells[..jobs.len()]);
        assert_eq!(runner.cache().computed(), jobs.len() as u64);
        assert_eq!(runner.cache().hits(), 2 * jobs.len() as u64);
    }

    #[test]
    fn run_one_memoizes() {
        let runner = SweepRunner::serial();
        let w = Workload::quick();
        let cfg = SystemConfig::two_way(IssueRate::MHZ200, 512);
        let a = runner.run_one(&cfg, &w);
        let b = runner.run_one(&cfg, &w);
        assert_eq!(a, b);
        assert_eq!(runner.cache().computed(), 1);
        assert_eq!(runner.cache().hits(), 1);
    }

    #[test]
    fn progress_and_telemetry_track_the_batch() {
        let updates = std::sync::Arc::new(Mutex::new(Vec::new()));
        let seen = std::sync::Arc::clone(&updates);
        let runner = SweepRunner::new(2).with_progress(move |u| {
            lock_recovering(&seen).push(*u);
        });
        let jobs = quick_jobs();
        runner.run_batch(&jobs);
        {
            let ups = lock_recovering(&updates);
            assert_eq!(ups.len(), jobs.len(), "one update per computed cell");
            assert!(ups.iter().all(|u| u.batch_total == jobs.len()));
            assert!(ups.iter().all(|u| !u.failed && u.cell_secs >= 0.0));
            assert!(ups.iter().any(|u| u.batch_done == jobs.len()));
            let last_done = ups.iter().map(|u| u.batch_done).max().unwrap();
            assert_eq!(last_done, jobs.len());
        }
        let doc = runner.telemetry_json();
        assert_eq!(doc.get("batches").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("cells_computed").and_then(Json::as_u64),
            Some(jobs.len() as u64)
        );
        assert_eq!(doc.get("failures").and_then(Json::as_u64), Some(0));
        let wall = doc.get("wall").expect("wall subtree");
        let cells = wall.get("cells").and_then(Json::as_array).expect("cells");
        assert_eq!(cells.len(), jobs.len());
        // Fingerprints are sorted, so the document is deterministic
        // modulo the wall-clock figures themselves.
        let fps: Vec<u64> = cells
            .iter()
            .map(|c| c.get("fp").and_then(Json::as_u64).expect("fp"))
            .collect();
        assert!(fps.windows(2).all(|w| w[0] <= w[1]));

        // A fully cached re-run fires no further updates but counts the
        // batch.
        runner.run_batch(&jobs);
        assert_eq!(lock_recovering(&updates).len(), jobs.len());
        let doc = runner.telemetry_json();
        assert_eq!(doc.get("batches").and_then(Json::as_u64), Some(2));
        assert_eq!(
            doc.get("cache_hits").and_then(Json::as_u64),
            Some(jobs.len() as u64)
        );
    }

    #[test]
    fn failed_cells_appear_in_progress_updates() {
        let updates = std::sync::Arc::new(Mutex::new(Vec::new()));
        let seen = std::sync::Arc::clone(&updates);
        let runner = SweepRunner::serial().with_progress(move |u| {
            lock_recovering(&seen).push(*u);
        });
        let mut bad = SystemConfig::baseline(IssueRate::GHZ1, 128);
        bad.quantum = 0;
        runner.run_batch(&[Job::new(bad, Workload::quick())]);
        let ups = lock_recovering(&updates);
        assert_eq!(ups.len(), 1);
        assert!(ups[0].failed);
        drop(ups);
        let doc = runner.telemetry_json();
        assert_eq!(doc.get("failures").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn invalid_config_becomes_failed_cell_not_abort() {
        let runner = SweepRunner::new(2);
        let mut bad = SystemConfig::baseline(IssueRate::GHZ1, 128);
        bad.quantum = 0;
        let good = SystemConfig::baseline(IssueRate::GHZ1, 256);
        let w = Workload::quick();
        let cells = runner.run_batch(&[Job::new(bad, w), Job::new(good, w)]);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].seconds, 0.0, "failed slot holds the placeholder");
        assert!(cells[1].seconds > 0.0, "sibling still simulated");
        let failures = runner.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].attempts, 1, "config errors are not retried");
        assert!(
            failures[0].error.contains("quantum"),
            "{}",
            failures[0].error
        );
        assert!(!runner.failure_report().is_empty());
        // Failed cells are never cached: only the good one is held.
        assert_eq!(runner.cache().len(), 1);
    }
}
