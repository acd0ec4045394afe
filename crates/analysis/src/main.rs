//! `rampage-lint` — standalone entry point for the workspace analyzer.
//!
//! Exit codes: 0 = clean (no unwaived diagnostics), 1 = findings,
//! 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rampage_analysis::{analyze_workspace_tier, diag, find_workspace_root, sarif, Tier};

const USAGE: &str = "\
rampage-lint — static analysis for the rampage workspace

USAGE:
    cargo run -p rampage-analysis [--] [OPTIONS]

OPTIONS:
    --tier TIER      rule tier: `token` (fast default) or `dataflow`
                     (adds unit-mix, nondet-taint, claim-readback,
                     cancel-poll, guard-receiver)
    --format FMT     output format: `text` (default), `json`, `sarif`
    --json           shorthand for --format json
    --explain RULE   print the help text for one rule and exit
    --root PATH      workspace root (default: nearest [workspace] ancestor)
    --quiet          suppress per-diagnostic output; summary only
    -h, --help       show this help
";

fn main() -> ExitCode {
    let mut format = "text".to_string();
    let mut quiet = false;
    let mut tier = Tier::Token;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = "json".to_string(),
            "--quiet" => quiet = true,
            "--format" => match args.next() {
                Some(f) if matches!(f.as_str(), "text" | "json" | "sarif") => format = f,
                _ => {
                    eprintln!("error: --format requires text|json|sarif\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--tier" => match args.next().as_deref().and_then(Tier::from_flag) {
                Some(t) => tier = t,
                None => {
                    eprintln!("error: --tier requires token|dataflow\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--explain" => {
                return match args
                    .next()
                    .as_deref()
                    .and_then(diag::RuleId::from_waiver_str_or_meta)
                {
                    Some(rule) => {
                        println!("{}", rule.explain());
                        ExitCode::SUCCESS
                    }
                    None => {
                        let ids: Vec<&str> = diag::RuleId::ALL.iter().map(|r| r.as_str()).collect();
                        eprintln!("error: --explain requires one of: {}", ids.join(", "));
                        ExitCode::from(2)
                    }
                };
            }
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                // Accept `--tier=dataflow` / `--format=sarif` spellings.
                if let Some(t) = other.strip_prefix("--tier=") {
                    match Tier::from_flag(t) {
                        Some(t) => {
                            tier = t;
                            continue;
                        }
                        None => {
                            eprintln!("error: --tier requires token|dataflow\n\n{USAGE}");
                            return ExitCode::from(2);
                        }
                    }
                }
                if let Some(f) = other.strip_prefix("--format=") {
                    if matches!(f, "text" | "json" | "sarif") {
                        format = f.to_string();
                        continue;
                    }
                    eprintln!("error: --format requires text|json|sarif\n\n{USAGE}");
                    return ExitCode::from(2);
                }
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => cwd,
            }
        }
    };

    let started = Instant::now();
    let report = match analyze_workspace_tier(&root, tier) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: failed to analyze {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();
    let diags = report.diagnostics;

    let active = diags.iter().filter(|d| d.is_active()).count();
    let waived = diags.len() - active;
    match format.as_str() {
        "json" => println!("{}", diag::render_json_report(&diags)),
        "sarif" => println!("{}", sarif::render_sarif(&diags)),
        _ => {
            if !quiet {
                for d in &diags {
                    println!("{}", d.render_text());
                }
            }
            println!("analysis: {active} finding(s), {waived} waived");
            println!(
                "analysis: tier={} files={} elapsed={:.0}ms",
                tier.as_str(),
                report.files,
                elapsed.as_secs_f64() * 1000.0
            );
        }
    }
    if active == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
