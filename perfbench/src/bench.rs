//! The three workloads and the passes that measure them.

use crate::replay::{replay, LayerCosts};
use crate::timed::{now, Spans, TimedSource};
use rampage_core::experiments::{table3, Cell, LeaseConfig, SweepRunner, Workload, PAPER_SIZES};
use rampage_core::{Engine, HierarchyKind, IssueRate, RunOutcome, SystemConfig};
use rampage_trace::TraceSource;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// `table3::run_paper`: 60 cells through a journaled two-worker runner.
    SweepTable3,
    /// One conventional direct-mapped cell with 128-byte L2 blocks.
    CellDm128,
    /// One RAMpage cell with 128-byte pages and switches on misses.
    CellRampage128Som,
}

impl Bench {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Bench; 3] = [
        Bench::SweepTable3,
        Bench::CellDm128,
        Bench::CellRampage128Som,
    ];

    /// The name the command line and the results use.
    pub fn name(self) -> &'static str {
        match self {
            Bench::SweepTable3 => "sweep-table3",
            Bench::CellDm128 => "cell-dm128",
            Bench::CellRampage128Som => "cell-rampage128-som",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The configuration a cell workload runs (`None` for the sweep).
    pub fn cell_config(self) -> Option<SystemConfig> {
        match self {
            Bench::SweepTable3 => None,
            Bench::CellDm128 => Some(SystemConfig::baseline(IssueRate::GHZ1, 128)),
            Bench::CellRampage128Som => Some(SystemConfig::rampage_switching(IssueRate::GHZ1, 128)),
        }
    }
}

/// The 18-program Table 2 suite at `1/scale` volume from `seed`: the only
/// input the simulator receives.
pub fn workload(scale: u64, seed: u64) -> Workload {
    Workload {
        seed,
        ..Workload::paper(scale)
    }
}

/// Sweep workers: two, never more than the host's cores.
pub fn sweep_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn lease() -> LeaseConfig {
    LeaseConfig::new(format!("pid{}", std::process::id()))
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Table 3's cells in job order: per issue rate, the six baseline cells
/// and then the six RAMpage cells.
fn flatten(t: &table3::Table3) -> Vec<Cell> {
    t.baseline
        .iter()
        .zip(&t.rampage)
        .flat_map(|(b, r)| b.iter().chain(r).copied())
        .collect()
}

/// Where a (system, size) cell at 1 GHz sits in [`flatten`]'s order.
fn sweep_index(rampage: bool, size: u64) -> usize {
    let rate = IssueRate::PAPER_SWEEP
        .iter()
        .position(|r| *r == IssueRate::GHZ1)
        .expect("1 GHz is in the paper sweep");
    let col = PAPER_SIZES
        .iter()
        .position(|s| *s == size)
        .expect("size is in the paper sweep");
    rate * 2 * PAPER_SIZES.len() + usize::from(rampage) * PAPER_SIZES.len() + col
}

/// One untraced pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall seconds of the pass, its set-up included.
    pub wall_s: f64,
    /// The part of `wall_s` before the simulation starts: for a cell its
    /// whole set-up, for the sweep runner construction plus journal open.
    pub own_setup_s: f64,
    /// Set-up times (see [`setup_once`]); for a cell the first is the
    /// pass's own.
    pub setup_s: Vec<f64>,
    /// Simulated user references.
    pub refs: u64,
    /// The cells it produced.
    pub cells: Vec<Cell>,
    /// Cells the runner recorded as failed.
    pub failed: usize,
    /// Peak resident set in kB when the pass ended, before any repeated
    /// set-up.
    pub peak_rss_kb: u64,
}

/// Peak resident set of this process in kB (`VmHWM`), 0 where unknown.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn open_runner(runner: SweepRunner, dir: &Path) -> Result<SweepRunner, String> {
    let path = dir.join("journal.jsonl");
    runner
        .with_journal(&path, lease())
        .map_err(|e| format!("open journal {}: {e}", path.display()))
}

fn engine_setup(cfg: &SystemConfig, w: &Workload) -> f64 {
    let t = now();
    let engine = Engine::new(cfg, w.sources());
    let s = secs(t);
    drop(std::hint::black_box(engine));
    s
}

/// Time one set-up of `bench` on its own: everything before the first
/// reference. For a cell that is `Workload::sources` + `Engine::new`. For
/// the sweep it is runner construction plus journal open in the fresh
/// directory `dir`, plus the set-up of its first cell (DM-128 at 200 MHz),
/// which the runner does before the sweep's first reference; the benchmark
/// builds that engine itself and drops it.
fn setup_once(bench: Bench, w: &Workload, dir: &Path) -> Result<f64, String> {
    if let Some(cfg) = bench.cell_config() {
        return Ok(engine_setup(&cfg, w));
    }
    fresh_dir(dir)?;
    let t = now();
    let runner = open_runner(SweepRunner::new(sweep_workers()), dir)?;
    let open = secs(t);
    drop(runner);
    let first = SystemConfig::baseline(IssueRate::PAPER_SWEEP[0], PAPER_SIZES[0]);
    Ok(open + engine_setup(&first, w))
}

/// Run one untraced pass of `bench`, then time its set-up alone until
/// `setups` set-up times are recorded. `dir` holds the sweep's journal
/// and cell store.
pub fn untraced(bench: Bench, w: &Workload, setups: usize, dir: &Path) -> Result<Pass, String> {
    let mut pass = match bench.cell_config() {
        Some(cfg) => {
            let t0 = now();
            let mut engine = Engine::new(&cfg, w.sources());
            let setup = secs(t0);
            let out = engine.run();
            let cell = Cell::from_run(&cfg, &out);
            Pass {
                wall_s: secs(t0),
                own_setup_s: setup,
                setup_s: vec![setup],
                refs: out.metrics.counts.user_refs,
                cells: vec![cell],
                failed: 0,
                peak_rss_kb: peak_rss_kb(),
            }
        }
        None => {
            let run_dir = dir.join("sweep");
            fresh_dir(&run_dir)?;
            let t0 = now();
            let runner = open_runner(SweepRunner::new(sweep_workers()), &run_dir)?;
            let open = secs(t0);
            let table = table3::run_paper(&runner, w);
            runner
                .cache()
                .save_file(&run_dir.join("cells.json"))
                .map_err(|e| format!("save cells.json: {e}"))?;
            Pass {
                wall_s: secs(t0),
                own_setup_s: open,
                setup_s: Vec::new(),
                refs: runner.cache().computed() * w.total_refs(),
                cells: flatten(&table),
                failed: runner.failure_count(),
                peak_rss_kb: peak_rss_kb(),
            }
        }
    };
    while pass.setup_s.len() < setups {
        let d = dir.join(format!("setup{}", pass.setup_s.len()));
        pass.setup_s.push(setup_once(bench, w, &d)?);
    }
    Ok(pass)
}

/// A self-check of the outside-in tracing.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind it.
    pub detail: String,
}

fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail,
    }
}

/// One cell run with the trace layer bracketed, followed by the replay of
/// its references through the other layers.
pub struct Probe {
    /// The cell it produced.
    pub cell: Cell,
    /// The engine's full outcome (counters).
    pub out: RunOutcome,
    /// Wall nanoseconds of set-up plus `Engine::run`.
    pub wall_ns: u64,
    /// Wall nanoseconds of `Engine::run` alone.
    pub run_ns: u64,
    /// Nanoseconds inside the adapters' refills.
    pub trace_ns: u64,
    /// Records the adapters fetched.
    pub records: u64,
    /// The replay's per-layer host costs.
    pub costs: LayerCosts,
    /// Self-checks of the bracketing.
    pub checks: Vec<Check>,
}

/// Run `cfg` over `w` with every source wrapped in a timed adapter, then
/// replay its references through the cache, vm and dram layers.
pub fn probe(cfg: &SystemConfig, w: &Workload) -> Probe {
    let label = cfg.label();
    let spans = Spans::new();
    let t0 = spans.now_ns();
    let sources: Vec<Box<dyn TraceSource + Send>> = w
        .sources()
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            Box::new(TimedSource::new(s, i, spans.clone())) as Box<dyn TraceSource + Send>
        })
        .collect();
    let mut engine = Engine::new(cfg, sources);
    let start = spans.now_ns();
    let out = engine.run();
    let end = spans.now_ns();
    drop(engine);
    let run_ns = end - start;
    let fills = spans.fills();
    let trace_ns: u64 = fills.iter().map(|(a, b)| b - a).sum();
    let nested = fills.iter().all(|&(a, b)| start <= a && a <= b && b <= end)
        && fills.windows(2).all(|p| p[0].1 <= p[1].0);
    let engine_ns = run_ns.saturating_sub(trace_ns);
    let records = spans.records();
    let user_refs = out.metrics.counts.user_refs;
    let totals: Vec<u64> = out.per_process.iter().map(|p| p.refs).collect();
    let costs = replay(cfg, w.sources(), &spans.segments(&totals));
    let mut checks = vec![
        check(
            "adapter_records_equal_user_refs",
            records == user_refs,
            format!("{label}: adapters {records}, engine user_refs {user_refs}"),
        ),
        check(
            "refill_spans_nested_and_disjoint",
            nested,
            format!(
                "{label}: {} refill spans, trace {trace_ns} ns + engine {engine_ns} ns \
                 in run {run_ns} ns",
                fills.len()
            ),
        ),
    ];
    if matches!(cfg.hierarchy, HierarchyKind::Conventional(_)) {
        let engine_misses = out.metrics.counts.tlb.misses;
        checks.push(check(
            "tlb_replay_misses_equal_engine",
            costs.tlb_misses == engine_misses,
            format!(
                "{label}: replay {} misses, engine {engine_misses}",
                costs.tlb_misses
            ),
        ));
    }
    Probe {
        cell: Cell::from_run(cfg, &out),
        out,
        wall_ns: end - t0,
        run_ns,
        trace_ns,
        records,
        costs,
        checks,
    }
}

/// The runner layer's figures from a traced sweep.
#[derive(Debug, Clone, Default)]
pub struct RunnerStats {
    /// Σ cell seconds / (batch wall × workers).
    pub parallel_efficiency: f64,
    /// Median seconds of one computed cell.
    pub cell_s_p50: f64,
    /// Slowest cell's seconds.
    pub cell_s_max: f64,
    /// Cells the first sweep computed.
    pub cells_computed: u64,
    /// Cells the re-run over the finished journal took from the cache.
    pub cache_hits: u64,
    /// Seconds to build the runner and open its journal.
    pub journal_open_s: f64,
    /// Seconds in `CellCache::save_file`.
    pub save_s: f64,
    /// Seconds to reopen the finished journal and re-run the sweep.
    pub resume_s: f64,
}

/// A traced pass: the layers bracketed from outside.
pub struct Traced {
    /// Wall seconds of the comparable traced work (the sweep, or the
    /// probe's set-up plus run).
    pub wall_s: f64,
    /// The cells the traced pass produced, in the untraced pass's order.
    pub cells: Vec<Cell>,
    /// Cells the runner recorded as failed.
    pub failed: usize,
    /// The bracketed cell runs.
    pub probes: Vec<Probe>,
    /// Runner figures (sweep only).
    pub runner: Option<RunnerStats>,
    /// Every self-check made.
    pub checks: Vec<Check>,
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Run one traced pass of `bench`. For the sweep this is the sweep with a
/// progress callback and brackets around journal open, save and a resume,
/// followed by probes of its 128-byte cells at 1 GHz; for a cell it is the
/// probe of that cell.
pub fn traced(bench: Bench, w: &Workload, dir: &Path) -> Result<Traced, String> {
    if let Some(cfg) = bench.cell_config() {
        let p = probe(&cfg, w);
        return Ok(Traced {
            wall_s: p.wall_ns as f64 * 1e-9,
            cells: vec![p.cell],
            failed: 0,
            checks: p.checks.clone(),
            probes: vec![p],
            runner: None,
        });
    }
    let workers = sweep_workers();
    let run_dir = dir.join("traced");
    fresh_dir(&run_dir)?;
    let cell_secs = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&cell_secs);
    let t0 = now();
    let runner = open_runner(
        SweepRunner::new(workers).with_progress(move |u| {
            sink.lock()
                .expect("progress log poisoned")
                .push(u.cell_secs);
        }),
        &run_dir,
    )?;
    let journal_open_s = secs(t0);
    let t_run = now();
    let table = table3::run_paper(&runner, w);
    let run_s = secs(t_run);
    let t_save = now();
    runner
        .cache()
        .save_file(&run_dir.join("cells.json"))
        .map_err(|e| format!("save cells.json: {e}"))?;
    let save_s = secs(t_save);
    let wall_s = secs(t0);
    let cells = flatten(&table);
    let failed = runner.failure_count();
    let cells_computed = runner.cache().computed();
    drop(runner);

    let t_resume = now();
    let again = open_runner(SweepRunner::new(workers), &run_dir)?;
    let resumed = flatten(&table3::run_paper(&again, w));
    let resume_s = secs(t_resume);
    let mut checks = vec![check(
        "resume_adopts_every_cell",
        again.resumed_cells() == cells.len() as u64
            && again.cache().computed() == 0
            && resumed == cells,
        format!(
            "resumed {} of {} cells, recomputed {}, cells identical: {}",
            again.resumed_cells(),
            cells.len(),
            again.cache().computed(),
            resumed == cells
        ),
    )];

    let mut secs_v = cell_secs.lock().expect("progress log poisoned").clone();
    let busy: f64 = secs_v.iter().sum();
    let runner = RunnerStats {
        parallel_efficiency: busy / (run_s * workers as f64),
        cell_s_p50: median(&mut secs_v),
        cell_s_max: secs_v.iter().copied().fold(0.0, f64::max),
        cells_computed,
        cache_hits: again.cache().hits(),
        journal_open_s,
        save_s,
        resume_s,
    };

    let mut probes = Vec::new();
    for (rampage, cfg) in [
        (false, SystemConfig::baseline(IssueRate::GHZ1, 128)),
        (true, SystemConfig::rampage(IssueRate::GHZ1, 128)),
    ] {
        let p = probe(&cfg, w);
        let at = sweep_index(rampage, 128);
        checks.push(check(
            "probe_cell_equals_sweep_cell",
            cells.get(at) == Some(&p.cell),
            format!("{}: sweep slot {at}", cfg.label()),
        ));
        checks.extend(p.checks.iter().cloned());
        probes.push(p);
    }
    Ok(Traced {
        wall_s,
        cells,
        failed,
        probes,
        runner: Some(runner),
        checks,
    })
}

/// One per-layer figure.
pub struct Figure {
    /// Metric name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its value.
    pub value: f64,
    /// Whether it is a count that must repeat exactly (else a timing).
    pub exact: bool,
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Every per-layer figure of a traced pass. Figures of a layer the
/// workload bypasses read 0.
pub fn figures(t: &Traced, untraced_wall_s: f64) -> Vec<Figure> {
    let mut c = rampage_core::Counters::default();
    let (mut idle, mut cycles) = (0u64, 0u64);
    let (mut run_ns, mut trace_ns, mut records) = (0u64, 0u64, 0u64);
    let mut costs = LayerCosts::default();
    for p in &t.probes {
        let k = &p.out.metrics.counts;
        c.user_refs += k.user_refs;
        c.l1i += k.l1i;
        c.l1d += k.l1d;
        c.l2 += k.l2;
        c.tlb.hits += k.tlb.hits;
        c.tlb.misses += k.tlb.misses;
        c.inclusion_probes += k.inclusion_probes;
        c.tlb_handler_refs += k.tlb_handler_refs;
        c.fault_handler_refs += k.fault_handler_refs;
        c.page_faults += k.page_faults;
        c.dram_block_fetches += k.dram_block_fetches;
        c.dram_writebacks += k.dram_writebacks;
        c.switches_on_miss += k.switches_on_miss;
        c.context_switches += k.context_switches;
        idle += p.out.metrics.time.idle_cycles;
        cycles += p.out.metrics.time.total();
        run_ns += p.run_ns;
        trace_ns += p.trace_ns;
        records += p.records;
        costs += p.costs;
    }
    let refs = c.user_refs;
    let r = t.runner.clone().unwrap_or_default();
    let per_ref = |ns: u64| ratio(ns, refs);
    let f = |name, unit, value, exact| Figure {
        name,
        unit,
        value,
        exact,
    };
    vec![
        f(
            "trace.self_ns_per_ref",
            "ns",
            ratio(trace_ns, records),
            false,
        ),
        f("trace.records", "count", records as f64, true),
        f(
            "engine.self_ns_per_ref",
            "ns",
            per_ref(run_ns.saturating_sub(trace_ns)),
            false,
        ),
        f(
            "engine.switches_on_miss",
            "count",
            c.switches_on_miss as f64,
            true,
        ),
        f(
            "engine.context_switches",
            "count",
            c.context_switches as f64,
            true,
        ),
        f("engine.idle_fraction", "ratio", ratio(idle, cycles), true),
        f(
            "cache.l1.ns_per_access",
            "ns",
            costs.l1.ns_per_call(),
            false,
        ),
        f(
            "cache.l1.accesses_per_ref",
            "1/ref",
            ratio(c.l1i.accesses() + c.l1d.accesses(), refs),
            true,
        ),
        f("cache.l1i.miss_ratio", "ratio", c.l1i.miss_ratio(), true),
        f("cache.l1d.miss_ratio", "ratio", c.l1d.miss_ratio(), true),
        f(
            "cache.l2.ns_per_access",
            "ns",
            costs.l2.ns_per_call(),
            false,
        ),
        f(
            "cache.l2.accesses_per_ref",
            "1/ref",
            ratio(c.l2.accesses(), refs),
            true,
        ),
        f("cache.l2.miss_ratio", "ratio", c.l2.miss_ratio(), true),
        f(
            "cache.inclusion_probes_per_ref",
            "1/ref",
            ratio(c.inclusion_probes, refs),
            true,
        ),
        f("vm.tlb.ns_per_lookup", "ns", costs.tlb.ns_per_call(), false),
        f(
            "vm.tlb.lookups_per_ref",
            "1/ref",
            ratio(c.tlb.hits + c.tlb.misses, refs),
            true,
        ),
        f("vm.tlb.miss_ratio", "ratio", c.tlb.miss_ratio(), true),
        f(
            "vm.handler_refs_per_ref",
            "1/ref",
            ratio(c.tlb_handler_refs + c.fault_handler_refs, refs),
            true,
        ),
        f(
            "vm.page_faults_per_kref",
            "1/kref",
            1000.0 * ratio(c.page_faults, refs),
            true,
        ),
        f("vm.ipt.ns_per_lookup", "ns", costs.ipt.ns_per_call(), false),
        f(
            "dram.ns_per_transfer",
            "ns",
            costs.dram.ns_per_call(),
            false,
        ),
        f(
            "dram.transfers_per_kref",
            "1/kref",
            1000.0
                * ratio(
                    c.dram_block_fetches + c.dram_writebacks + c.page_faults,
                    refs,
                ),
            true,
        ),
        f(
            "runner.parallel_efficiency",
            "ratio",
            r.parallel_efficiency,
            false,
        ),
        f("runner.cell_s.p50", "s", r.cell_s_p50, false),
        f("runner.cell_s.max", "s", r.cell_s_max, false),
        f(
            "runner.cells_computed",
            "count",
            r.cells_computed as f64,
            true,
        ),
        f("runner.cache_hits", "count", r.cache_hits as f64, true),
        f("runner.journal_open_s", "s", r.journal_open_s, false),
        f("runner.save_s", "s", r.save_s, false),
        f("runner.resume_s", "s", r.resume_s, false),
        f(
            "traced.overhead_ratio",
            "ratio",
            t.wall_s / untraced_wall_s - 1.0,
            false,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rampage_core::experiments::run_config;

    #[test]
    fn tiny_probes_hold_every_self_check_and_change_no_cell() {
        let w = workload(20_000, 0x7a9e);
        for bench in [Bench::CellDm128, Bench::CellRampage128Som] {
            let cfg = bench.cell_config().expect("a cell workload");
            let p = probe(&cfg, &w);
            for c in &p.checks {
                assert!(c.ok, "{}: {}", c.name, c.detail);
            }
            assert_eq!(p.cell, run_config(&cfg, &w), "tracing changes no cell");
            assert_eq!(p.records, p.out.metrics.counts.user_refs);
        }
    }

    #[test]
    fn the_conventional_probe_checks_tlb_misses_exactly() {
        let cfg = Bench::CellDm128.cell_config().expect("a cell workload");
        let p = probe(&cfg, &workload(20_000, 0x5eed));
        assert!(p
            .checks
            .iter()
            .any(|c| c.name == "tlb_replay_misses_equal_engine" && c.ok));
        assert_eq!(p.costs.tlb_misses, p.out.metrics.counts.tlb.misses);
    }

    #[test]
    fn sweep_index_finds_the_1ghz_128_byte_cells() {
        let w = workload(200_000, 0x7a9e);
        let runner = SweepRunner::serial();
        let cells = flatten(&table3::run_paper(&runner, &w));
        for (rampage, cfg) in [
            (false, SystemConfig::baseline(IssueRate::GHZ1, 128)),
            (true, SystemConfig::rampage(IssueRate::GHZ1, 128)),
        ] {
            assert_eq!(cells[sweep_index(rampage, 128)], run_config(&cfg, &w));
        }
    }
}
