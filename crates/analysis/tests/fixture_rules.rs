//! Fixture-driven rule tests: every rule has at least one failing and
//! one passing fixture under `tests/fixtures/{bad,good}/`, analyzed
//! under a synthetic workspace-relative path that gives it the right
//! classification (simulation path, library, experiment file, …).
//! Positions are asserted exactly — `file:line:col` is computed from the
//! fixture text, not hard-coded.

use rampage_analysis::analyze_one;
use rampage_analysis::diag::{Diagnostic, RuleId};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// 1-based (line, col) of the first occurrence of `needle`.
fn loc(text: &str, needle: &str) -> (u32, u32) {
    for (i, line) in text.lines().enumerate() {
        if let Some(p) = line.find(needle) {
            return ((i + 1) as u32, (p + 1) as u32);
        }
    }
    panic!("needle {needle:?} not found in fixture");
}

fn active(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags.iter().filter(|d| d.is_active()).collect()
}

/// Assert the active diagnostics are exactly `(rule, line, col)` in order.
fn assert_findings(diags: &[Diagnostic], expected: &[(RuleId, u32, u32)]) {
    let got: Vec<(RuleId, u32, u32)> = active(diags)
        .iter()
        .map(|d| (d.rule, d.line, d.col))
        .collect();
    assert_eq!(got, expected, "diagnostics: {diags:#?}");
}

#[test]
fn hash_iter_fires_on_methods_and_for_loops() {
    let text = fixture("bad/hash_iter.rs");
    let diags = analyze_one("crates/vm/src/hash_iter.rs", &text);
    let m_iter = loc(&text, "iter()");
    let for_set = loc(&text, "set {");
    assert_findings(
        &diags,
        &[
            (RuleId::HashIter, m_iter.0, m_iter.1),
            (RuleId::HashIter, for_set.0, for_set.1),
        ],
    );
}

#[test]
fn hash_iter_quiet_on_ordered_collections_and_point_lookups() {
    let text = fixture("good/hash_iter.rs");
    let diags = analyze_one("crates/vm/src/hash_iter.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn bank_iter_fires_in_the_banked_backend_modules() {
    // Per-bank state iterated in hash order: nondeterministic transfer
    // timing. Both the dram crate's modules and the core channel router
    // are simulation paths.
    let text = fixture("bad/bank_iter.rs");
    let m_iter = loc(&text, "iter()");
    let for_banks = loc(&text, "banks {");
    for rel in ["crates/dram/src/bank_iter.rs", "crates/core/src/channel.rs"] {
        let diags = analyze_one(rel, &text);
        assert_findings(
            &diags,
            &[
                (RuleId::HashIter, m_iter.0, m_iter.1),
                (RuleId::HashIter, for_banks.0, for_banks.1),
            ],
        );
    }
}

#[test]
fn bank_iter_quiet_on_vec_indexed_banks() {
    let text = fixture("good/bank_iter.rs");
    for rel in ["crates/dram/src/bank_iter.rs", "crates/core/src/channel.rs"] {
        let diags = analyze_one(rel, &text);
        assert_findings(&diags, &[]);
    }
}

#[test]
fn hash_iter_not_applied_outside_simulation_paths() {
    // The same bad source in a non-simulation crate is out of scope.
    let text = fixture("bad/hash_iter.rs");
    let diags = analyze_one("crates/json/src/hash_iter.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn wall_clock_fires_outside_the_allowlist() {
    let text = fixture("bad/wall_clock.rs");
    let diags = analyze_one("crates/core/src/report.rs", &text);
    let at = loc(&text, "Instant::now");
    assert_findings(&diags, &[(RuleId::WallClock, at.0, at.1)]);
}

#[test]
fn wall_clock_allowlist_is_honored() {
    // The identical source is fine in a binary and in the sweep runner.
    let text = fixture("bad/wall_clock.rs");
    for rel in [
        "src/bin/wall_clock.rs",
        "crates/core/src/experiments/runner/mod.rs",
        "crates/core/src/experiments/runner/watchdog.rs",
        "crates/core/src/experiments/fault.rs",
        "crates/criterion/src/lib.rs",
    ] {
        let diags = analyze_one(rel, &text);
        assert_findings(&diags, &[]);
    }
}

#[test]
fn wall_clock_quiet_on_simulated_time() {
    let text = fixture("good/wall_clock.rs");
    let diags = analyze_one("crates/core/src/system/clock.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn env_read_fires_on_env_and_thread_identity() {
    let text = fixture("bad/env_read.rs");
    let diags = analyze_one("crates/dram/src/env_read.rs", &text);
    let env = loc(&text, "env::var");
    let cur = loc(&text, "current()");
    assert_findings(
        &diags,
        &[
            (RuleId::EnvRead, env.0, env.1),
            (RuleId::EnvRead, cur.0, cur.1),
        ],
    );
}

#[test]
fn env_read_quiet_when_config_is_plumbed() {
    let text = fixture("good/env_read.rs");
    let diags = analyze_one("crates/dram/src/env_read.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn panic_doc_fires_on_undocumented_panic() {
    let text = fixture("bad/panic_doc.rs");
    let diags = analyze_one("crates/core/src/panic_doc.rs", &text);
    let at = loc(&text, "panic!");
    assert_findings(&diags, &[(RuleId::PanicDoc, at.0, at.1)]);
}

#[test]
fn panic_doc_satisfied_by_panics_section_or_invariant_comment() {
    let text = fixture("good/panic_doc.rs");
    let diags = analyze_one("crates/core/src/panic_doc.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn sweep_route_fires_on_direct_engine_use() {
    let text = fixture("bad/sweep_route.rs");
    let diags = analyze_one("crates/core/src/experiments/table9.rs", &text);
    let rc = loc(&text, "run_config(s)");
    let en = loc(&text, "Engine::new");
    assert_findings(
        &diags,
        &[
            (RuleId::SweepRoute, rc.0, rc.1),
            (RuleId::SweepRoute, en.0, en.1),
        ],
    );
}

#[test]
fn sweep_route_quiet_when_routed_through_the_runner() {
    let text = fixture("good/sweep_route.rs");
    let diags = analyze_one("crates/core/src/experiments/table9.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn sweep_route_not_applied_to_non_experiment_files() {
    let text = fixture("bad/sweep_route.rs");
    let diags = analyze_one("crates/core/src/experiments/common.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn error_match_fires_on_wildcard_over_error_enum() {
    let text = fixture("bad/error_match.rs");
    let diags = analyze_one("crates/core/src/error_match.rs", &text);
    let at = loc(&text, "_ =>");
    assert_findings(&diags, &[(RuleId::ErrorMatch, at.0, at.1)]);
}

#[test]
fn error_match_quiet_on_exhaustive_and_non_error_matches() {
    let text = fixture("good/error_match.rs");
    let diags = analyze_one("crates/core/src/error_match.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn journal_append_fires_on_raw_journal_writes() {
    let text = fixture("bad/journal_append.rs");
    let diags = analyze_one("crates/core/src/experiments/journal_append.rs", &text);
    let raw = loc(&text, "write_all");
    let mac = loc(&text, "writeln!");
    let fsw = loc(&text, "write(dir.join");
    assert_findings(
        &diags,
        &[
            (RuleId::JournalAppend, raw.0, raw.1),
            (RuleId::JournalAppend, mac.0, mac.1),
            (RuleId::JournalAppend, fsw.0, fsw.1),
        ],
    );
}

#[test]
fn journal_append_quiet_on_the_helper_and_unrelated_writes() {
    let text = fixture("good/journal_append.rs");
    let diags = analyze_one("crates/core/src/experiments/journal_append.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn journal_append_exempt_in_tests() {
    // Tests may stage torn or corrupt journals by hand.
    let text = fixture("bad/journal_append.rs");
    let diags = analyze_one("tests/journal_append.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn waiver_with_reason_suppresses_the_next_line() {
    let text = fixture("good/waiver.rs");
    let diags = analyze_one("crates/cache/src/waiver.rs", &text);
    assert_findings(&diags, &[]);
    // The finding still exists — it is recorded as waived, not dropped.
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, RuleId::HashIter);
    assert!(!diags[0].is_active());
    assert!(diags[0].render_text().ends_with("(waived)"));
}

#[test]
fn waiver_without_reason_suppresses_nothing() {
    let text = fixture("bad/waiver_missing_reason.rs");
    let diags = analyze_one("crates/cache/src/waiver.rs", &text);
    let site = loc(&text, "values()");
    let waiver = loc(&text, "// lint: allow(hash-iter)");
    assert_findings(
        &diags,
        &[
            (RuleId::WaiverMissingReason, waiver.0, waiver.1),
            (RuleId::HashIter, site.0, site.1),
        ],
    );
}

#[test]
fn unused_and_unknown_waivers_are_findings() {
    let text = fixture("bad/unused_waiver.rs");
    let diags = analyze_one("crates/cache/src/waiver.rs", &text);
    let unused = loc(&text, "// lint: allow(hash-iter)");
    let unknown = loc(&text, "// lint: allow(no-such-rule)");
    assert_findings(
        &diags,
        &[
            (RuleId::UnusedWaiver, unused.0, unused.1),
            (RuleId::UnusedWaiver, unknown.0, unknown.1),
        ],
    );
    assert!(diags[1].message.contains("unknown rule"), "{diags:#?}");
}

#[test]
fn test_items_are_exempt_even_in_library_files() {
    let text = fixture("good/test_code_exempt.rs");
    let diags = analyze_one("crates/core/src/exempt.rs", &text);
    assert_findings(&diags, &[]);
}

#[test]
fn diagnostics_render_file_line_col_and_json() {
    let text = fixture("bad/panic_doc.rs");
    let diags = analyze_one("crates/core/src/panic_doc.rs", &text);
    let (line, col) = loc(&text, "panic!");
    let rendered = diags[0].render_text();
    assert!(
        rendered.starts_with(&format!(
            "crates/core/src/panic_doc.rs:{line}:{col}: [panic-doc]"
        )),
        "{rendered}"
    );
    let json = rampage_analysis::diag::render_json_report(&diags);
    assert!(json.contains("\"rule\":\"panic-doc\""), "{json}");
    assert!(
        json.contains(&format!("\"line\":{line},\"col\":{col}")),
        "{json}"
    );
    assert!(json.contains("\"active\":1"), "{json}");
}
