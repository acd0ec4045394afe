//! Fixture tests for the dataflow tier: unit-mix, nondet-taint,
//! claim-readback, cancel-poll, and guard-receiver, each with a failing and a passing
//! fixture analyzed under a synthetic workspace-relative path that puts
//! it in the right scope. Positions are asserted exactly, computed from
//! the fixture text rather than hard-coded.

use rampage_analysis::diag::{Diagnostic, RuleId, WaiverStatus};
use rampage_analysis::{analyze_one_tier, Tier};
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

// ---------------------------------------------------------------------------
// unit-mix
// ---------------------------------------------------------------------------

#[test]
fn unit_mix_fires_on_decls_mixed_arithmetic_and_casts() {
    let text = fixture("bad/unit_mix.rs");
    let diags = analyze_one_tier("crates/dram/src/unit_mix.rs", &text, Tier::Dataflow);
    let decl = loc(&text, "slice_time: u64");
    let add = loc(&text, "t_rcd + quantum_refs");
    let cmp = loc(&text, "total > unit_bytes");
    let cast = loc(&text, "elapsed_ns as u64");
    assert_findings(
        &diags,
        &[
            (RuleId::UnitMix, decl.0, decl.1),
            (RuleId::UnitMix, add.0, add.1),
            (RuleId::UnitMix, cmp.0, cmp.1),
            (RuleId::UnitMix, cast.0, cast.1),
        ],
    );
}

#[test]
fn unit_mix_quiet_on_typed_fields_same_domain_math_and_rates() {
    let text = fixture("good/unit_mix.rs");
    let diags = analyze_one_tier("crates/dram/src/unit_mix.rs", &text, Tier::Dataflow);
    assert_findings(&diags, &[]);
}

#[test]
fn unit_mix_is_silent_at_the_token_tier() {
    let text = fixture("bad/unit_mix.rs");
    let diags = analyze_one_tier("crates/dram/src/unit_mix.rs", &text, Tier::Token);
    assert!(
        !diags.iter().any(|d| d.rule == RuleId::UnitMix),
        "dataflow rules must not run at the token tier: {diags:#?}"
    );
}

#[test]
fn unit_mix_waiver_suppresses_the_site() {
    let text = fixture("good/unit_mix_waiver.rs");
    let diags = analyze_one_tier("crates/dram/src/unit_mix_waiver.rs", &text, Tier::Dataflow);
    assert_findings(&diags, &[]);
    let waived: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.waiver == WaiverStatus::Waived)
        .collect();
    assert_eq!(waived.len(), 1, "exactly one waived finding: {diags:#?}");
    assert_eq!(waived[0].rule, RuleId::UnitMix);
}

#[test]
fn stale_dataflow_waiver_is_reported_unused() {
    let text = fixture("bad/dataflow_unused_waiver.rs");
    let diags = analyze_one_tier(
        "crates/dram/src/dataflow_unused_waiver.rs",
        &text,
        Tier::Dataflow,
    );
    let w = loc(&text, "// lint: allow(unit-mix)");
    assert_findings(&diags, &[(RuleId::UnusedWaiver, w.0, w.1)]);
}

// ---------------------------------------------------------------------------
// nondet-taint
// ---------------------------------------------------------------------------

#[test]
fn nondet_taint_fires_on_cell_payloads_and_fingerprints() {
    let text = fixture("bad/nondet_taint.rs");
    let diags = analyze_one_tier(
        "crates/core/src/experiments/runner/nondet_taint.rs",
        &text,
        Tier::Dataflow,
    );
    let cell = loc(&text, "measured }");
    let fp = loc(&text, "stamp_ms)");
    assert_findings(
        &diags,
        &[
            (RuleId::NondetTaint, cell.0, cell.1),
            (RuleId::NondetTaint, fp.0, fp.1),
        ],
    );
}

#[test]
fn nondet_taint_quiet_on_progress_telemetry() {
    let text = fixture("good/nondet_taint.rs");
    let diags = analyze_one_tier(
        "crates/core/src/experiments/runner/nondet_taint.rs",
        &text,
        Tier::Dataflow,
    );
    assert_findings(&diags, &[]);
}

// ---------------------------------------------------------------------------
// claim-readback
// ---------------------------------------------------------------------------

#[test]
fn claim_readback_fires_when_one_path_skips_the_readback() {
    let text = fixture("bad/claim_readback.rs");
    let diags = analyze_one_tier(
        "crates/core/src/experiments/runner/claim_readback.rs",
        &text,
        Tier::Dataflow,
    );
    let exec = loc(&text, "execute_slice(durable)");
    let send = loc(&text, "send(9)");
    assert_findings(
        &diags,
        &[
            (RuleId::ClaimReadback, exec.0, exec.1),
            (RuleId::ClaimReadback, send.0, send.1),
        ],
    );
}

#[test]
fn claim_readback_quiet_when_every_path_rescans() {
    let text = fixture("good/claim_readback.rs");
    let diags = analyze_one_tier(
        "crates/core/src/experiments/runner/claim_readback.rs",
        &text,
        Tier::Dataflow,
    );
    assert_findings(&diags, &[]);
}

#[test]
fn claim_readback_scope_is_the_runner_tree_only() {
    // The same code outside the runner tree is not protocol code.
    let text = fixture("bad/claim_readback.rs");
    let diags = analyze_one_tier(
        "crates/core/src/experiments/grids.rs",
        &text,
        Tier::Dataflow,
    );
    assert!(
        !diags.iter().any(|d| d.rule == RuleId::ClaimReadback),
        "claim-readback must only run in the runner tree: {diags:#?}"
    );
}

// ---------------------------------------------------------------------------
// cancel-poll
// ---------------------------------------------------------------------------

#[test]
fn cancel_poll_fires_on_sleeping_loops_without_cancel_checks() {
    let text = fixture("bad/cancel_poll.rs");
    let diags = analyze_one_tier(
        "crates/core/src/experiments/runner/cancel_poll.rs",
        &text,
        Tier::Dataflow,
    );
    let w = loc(&text, "while done.load");
    let l = loc(&text, "loop {");
    let r = {
        let from = text.find("recv_timeout").expect("recv_timeout loop");
        let line = text[..from].lines().count() as u32 - 1;
        (line, l.1)
    };
    assert_findings(
        &diags,
        &[
            (RuleId::CancelPoll, w.0, w.1),
            (RuleId::CancelPoll, l.0, l.1),
            (RuleId::CancelPoll, r.0, r.1),
        ],
    );
}

#[test]
fn cancel_poll_quiet_when_loops_consult_a_signal() {
    let text = fixture("good/cancel_poll.rs");
    let diags = analyze_one_tier(
        "crates/core/src/experiments/runner/cancel_poll.rs",
        &text,
        Tier::Dataflow,
    );
    assert_findings(&diags, &[]);
}

// ---------------------------------------------------------------------------
// guard-receiver
// ---------------------------------------------------------------------------

#[test]
fn guard_receiver_fires_when_a_guard_receives_a_working_call() {
    let text = fixture("bad/guard_receiver.rs");
    let diags = analyze_one_tier("src/bin/guard_receiver.rs", &text, Tier::Dataflow);
    let push = loc(&text, "push(simulate(k))");
    let render = loc(&text, "push(event.render())");
    let insert = loc(&text, "insert(key");
    assert_findings(
        &diags,
        &[
            (RuleId::GuardReceiver, push.0, push.1),
            (RuleId::GuardReceiver, render.0, render.1),
            (RuleId::GuardReceiver, insert.0, insert.1),
        ],
    );
}

#[test]
fn guard_receiver_quiet_when_the_work_is_bound_first() {
    let text = fixture("good/guard_receiver.rs");
    let diags = analyze_one_tier("src/bin/guard_receiver.rs", &text, Tier::Dataflow);
    assert_findings(&diags, &[]);
}

#[test]
fn guard_receiver_is_silent_at_the_token_tier() {
    let text = fixture("bad/guard_receiver.rs");
    let diags = analyze_one_tier("src/bin/guard_receiver.rs", &text, Tier::Token);
    assert!(
        !diags.iter().any(|d| d.rule == RuleId::GuardReceiver),
        "dataflow rules must not run at the token tier: {diags:#?}"
    );
}

// ---------------------------------------------------------------------------
// cross-cutting
// ---------------------------------------------------------------------------

#[test]
fn dataflow_rules_skip_test_code() {
    // The same bad sources under a tests/ path produce nothing.
    for name in [
        "bad/unit_mix.rs",
        "bad/nondet_taint.rs",
        "bad/claim_readback.rs",
        "bad/cancel_poll.rs",
        "bad/guard_receiver.rs",
    ] {
        let text = fixture(name);
        let diags = analyze_one_tier("tests/fixture_copy.rs", &text, Tier::Dataflow);
        assert_findings(&diags, &[]);
    }
}

#[test]
fn json_and_sarif_agree_on_finding_counts() {
    let text = fixture("bad/unit_mix.rs");
    let diags = analyze_one_tier("crates/dram/src/unit_mix.rs", &text, Tier::Dataflow);
    let json = rampage_analysis::diag::render_json_report(&diags);
    let sarif = rampage_analysis::sarif::render_sarif(&diags);
    let active_n = diags.iter().filter(|d| d.is_active()).count();
    assert!(json.contains(&format!("\"active\":{active_n}")));
    let results = sarif.matches("\"ruleId\"").count();
    let suppressed = sarif.matches("\"suppressions\"").count();
    assert_eq!(
        results - suppressed,
        active_n,
        "SARIF unsuppressed results must equal the JSON active count"
    );
}
