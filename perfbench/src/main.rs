//! `perfbench`: one pass of a benchmark workload per process.
//!
//! ```text
//! perfbench pass   --workload W --seed S --scale N [--setups K] [--calibrations C] --dir D
//! perfbench traced --workload W --seed S --scale N --dir D
//! ```
//!
//! `pass` runs one untraced pass and prints one JSON line: wall and set-up
//! seconds, simulated references, a digest of every cell, and the
//! process's peak resident set at the end of the pass, then the host's
//! slowdown as `C` runs of the reference kernel measure it. `traced` runs
//! an untraced pass and then a traced one, and prints the per-layer
//! figures, the self-checks of the tracing and the digests of both passes. `run.py` drives both and turns
//! their lines into the benchmark's result.

mod bench;
mod calibrate;
mod replay;
mod timed;

use bench::{Bench, Pass};
use rampage_core::experiments::Cell;
use rampage_core::LevelFractions;
use rampage_json::{obj, Json, ToJson};
use std::path::PathBuf;
use std::process::ExitCode;

/// FNV-1a over every field of a cell, f64 fields by their bits. The
/// destructuring makes a new `Cell` field a compile error here.
fn cell_digest(c: &Cell) -> u64 {
    let Cell {
        unit_bytes,
        issue_mhz,
        seconds,
        cycles_per_ref,
        fractions,
        overhead,
        dram_events,
        tlb_miss_ratio,
        l1i_miss_ratio,
        l1d_miss_ratio,
        l2_miss_ratio,
    } = *c;
    let LevelFractions {
        l1i,
        l1d,
        l2_sram,
        dram,
        idle,
    } = fractions;
    let words = [
        unit_bytes,
        u64::from(issue_mhz),
        seconds.to_bits(),
        cycles_per_ref.to_bits(),
        l1i.to_bits(),
        l1d.to_bits(),
        l2_sram.to_bits(),
        dram.to_bits(),
        idle.to_bits(),
        overhead.to_bits(),
        dram_events,
        tlb_miss_ratio.to_bits(),
        l1i_miss_ratio.to_bits(),
        l1d_miss_ratio.to_bits(),
        l2_miss_ratio.to_bits(),
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digests(cells: &[Cell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| Json::Str(format!("{:016x}", cell_digest(c))))
            .collect(),
    )
}

struct Args {
    mode: String,
    bench: Bench,
    seed: u64,
    scale: u64,
    setups: usize,
    calibrations: usize,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("usage: perfbench pass|traced --workload W --seed S --dir D")?;
    if mode != "pass" && mode != "traced" {
        return Err(format!("unknown mode {mode:?}"));
    }
    let (mut bench, mut seed, mut scale, mut dir) = (None, None, None, None);
    let (mut setups, mut calibrations) = (1, 0);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--scale" => scale = Some(num()?.max(1)),
            "--setups" => setups = num()?.max(1) as usize,
            "--calibrations" => calibrations = num()? as usize,
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let bench = bench.ok_or("--workload is required")?;
    Ok(Args {
        mode,
        bench,
        seed: seed.ok_or("--seed is required")?,
        scale: scale.ok_or("--scale is required")?,
        setups,
        calibrations,
        dir: dir.ok_or("--dir is required")?,
    })
}

fn pass_json(p: &Pass) -> Json {
    obj! {
        "wall_s" => p.wall_s,
        "own_setup_s" => p.own_setup_s,
        "setup_s" => p.setup_s.clone(),
        "refs" => p.refs,
        "cells" => digests(&p.cells),
        "failed" => p.failed,
        "peak_rss_kb" => p.peak_rss_kb,
    }
}

fn run(a: &Args) -> Result<Json, String> {
    let w = bench::workload(a.scale, a.seed);
    let head = obj! {
        "workload" => a.bench.name(),
        "seed" => a.seed,
        "scale" => a.scale,
        "refs_per_cell" => w.total_refs(),
        "workers" => if a.bench.cell_config().is_some() { 1 } else { bench::sweep_workers() },
        "nproc" => std::thread::available_parallelism().map_or(1, |n| n.get()),
        "traced" => a.mode == "traced",
    };
    let Json::Obj(mut doc) = head else {
        unreachable!("obj! builds an object")
    };
    let untraced = bench::untraced(a.bench, &w, a.setups, &a.dir)?;
    doc.push(("untraced".into(), pass_json(&untraced)));
    let slowdown: Vec<f64> = (0..a.calibrations).map(|_| calibrate::slowdown()).collect();
    doc.push(("slowdown".into(), slowdown.to_json()));
    if a.mode == "traced" {
        let t = bench::traced(a.bench, &w, &a.dir)?;
        let figures: Vec<Json> = bench::figures(&t, untraced.wall_s)
            .iter()
            .map(|f| {
                obj! {
                    "name" => f.name,
                    "unit" => f.unit,
                    "value" => f.value,
                    "exact" => f.exact,
                }
            })
            .collect();
        let checks: Vec<Json> = t
            .checks
            .iter()
            .map(
                |c| obj! { "name" => c.name.as_str(), "ok" => c.ok, "detail" => c.detail.as_str() },
            )
            .collect();
        doc.push((
            "traced_pass".into(),
            obj! {
                "wall_s" => t.wall_s,
                "cells" => digests(&t.cells),
                "failed" => t.failed,
                "figures" => figures,
                "checks" => checks,
            },
        ));
    }
    Ok(Json::Obj(doc))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(doc) => {
            println!("{}", doc.compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
