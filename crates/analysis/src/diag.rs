//! Diagnostics: rule identifiers, findings, and their text/JSON renderings.

use std::fmt;

/// Every rule the analyzer can fire. The string form is the stable id
/// used in waiver comments (`// lint: allow(<id>) — reason`) and in the
/// JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `Instant::now`/`SystemTime` read outside the timing allowlist.
    WallClock,
    /// `std::env` or thread-id read in a simulation path.
    EnvRead,
    /// `panic!`/`unreachable!`/`assert!` in library code without an
    /// `// invariant:` comment or `# Panics` doc section.
    PanicDoc,
    /// `experiments/table*.rs`/`fig*.rs` bypassing `SweepRunner`.
    SweepRoute,
    /// Wildcard `_ =>` arm in a `match` over a typed error enum.
    ErrorMatch,
    /// A raw write to a sweep journal (`journal.jsonl`) bypassing the
    /// checksummed `Journal::append` helper.
    JournalAppend,
    /// Dataflow tier: arithmetic/comparison mixing two inferred unit
    /// domains (picoseconds vs. cycles vs. bytes vs. refs), or a time
    /// quantity declared as a raw integer.
    UnitMix,
    /// Dataflow tier: a wall-clock/env/thread-identity value flowing
    /// into simulated state, a fingerprint, or a serialized cell.
    NondetTaint,
    /// Dataflow tier: a journal claim append with a CFG path to cell
    /// execution that never re-reads the journal.
    ClaimReadback,
    /// Dataflow tier: a polling loop in the runner tree that sleeps
    /// without consulting a cancel/shutdown signal.
    CancelPoll,
    /// Dataflow tier: a lock guard used as the receiver of a method call
    /// whose arguments do work (`m.lock().push(f())`), so the lock is
    /// held while the arguments are evaluated.
    GuardReceiver,
    /// A `// lint: allow(...)` waiver with no `— <reason>` text.
    WaiverMissingReason,
    /// A waiver that matched no diagnostic on its line.
    UnusedWaiver,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 13] = [
        RuleId::WallClock,
        RuleId::EnvRead,
        RuleId::PanicDoc,
        RuleId::SweepRoute,
        RuleId::ErrorMatch,
        RuleId::JournalAppend,
        RuleId::UnitMix,
        RuleId::NondetTaint,
        RuleId::ClaimReadback,
        RuleId::CancelPoll,
        RuleId::GuardReceiver,
        RuleId::WaiverMissingReason,
        RuleId::UnusedWaiver,
    ];

    /// The stable string id (used in waivers and JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::WallClock => "wall-clock",
            RuleId::EnvRead => "env-read",
            RuleId::PanicDoc => "panic-doc",
            RuleId::SweepRoute => "sweep-route",
            RuleId::ErrorMatch => "error-match",
            RuleId::JournalAppend => "journal-append",
            RuleId::UnitMix => "unit-mix",
            RuleId::NondetTaint => "nondet-taint",
            RuleId::ClaimReadback => "claim-readback",
            RuleId::CancelPoll => "cancel-poll",
            RuleId::GuardReceiver => "guard-receiver",
            RuleId::WaiverMissingReason => "waiver-missing-reason",
            RuleId::UnusedWaiver => "unused-waiver",
        }
    }

    /// Parse a waiver id back into a rule. Waiver-meta rules cannot be
    /// waived, so they don't parse.
    pub fn from_waiver_str(s: &str) -> Option<RuleId> {
        Some(match s {
            "wall-clock" => RuleId::WallClock,
            "env-read" => RuleId::EnvRead,
            "panic-doc" => RuleId::PanicDoc,
            "sweep-route" => RuleId::SweepRoute,
            "error-match" => RuleId::ErrorMatch,
            "journal-append" => RuleId::JournalAppend,
            "unit-mix" => RuleId::UnitMix,
            "nondet-taint" => RuleId::NondetTaint,
            "claim-readback" => RuleId::ClaimReadback,
            "cancel-poll" => RuleId::CancelPoll,
            "guard-receiver" => RuleId::GuardReceiver,
            _ => return None,
        })
    }

    /// Parse any rule id, including the waiver-meta rules (used by
    /// `--explain`, where the meta rules are legitimate queries even
    /// though they cannot be waived).
    pub fn from_waiver_str_or_meta(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// Which tier runs this rule.
    pub fn tier_name(self) -> &'static str {
        match self {
            RuleId::UnitMix
            | RuleId::NondetTaint
            | RuleId::ClaimReadback
            | RuleId::CancelPoll
            | RuleId::GuardReceiver => "dataflow",
            _ => "token",
        }
    }

    /// One-line description, used by SARIF rule metadata and `--explain`.
    pub fn short_description(self) -> &'static str {
        match self {
            RuleId::WallClock => "wall-clock read outside the timing allowlist",
            RuleId::EnvRead => "environment/thread-id read in a simulation path",
            RuleId::PanicDoc => "undocumented panic in library code",
            RuleId::SweepRoute => "experiment table/figure bypassing SweepRunner",
            RuleId::ErrorMatch => "wildcard arm in a typed error match",
            RuleId::JournalAppend => "raw journal write bypassing Journal::append",
            RuleId::UnitMix => "arithmetic mixing unit domains (ps/ns/cycles/bytes/refs)",
            RuleId::NondetTaint => "wall-clock-derived value reaching sim state or a fingerprint",
            RuleId::ClaimReadback => "claim appended but not read back before cell execution",
            RuleId::CancelPoll => "polling loop that sleeps without a cancel check",
            RuleId::GuardReceiver => "lock guard held while a call's arguments are evaluated",
            RuleId::WaiverMissingReason => "waiver without a `— <reason>`",
            RuleId::UnusedWaiver => "waiver matching no finding",
        }
    }

    /// Full help text for `repro lint --explain <rule>`.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::WallClock => {
                "wall-clock (token tier)\n\
                 Instant::now/SystemTime reads are only legitimate in reporting\n\
                 code (sweep-runner timing, watchdog budgets, binaries, benches).\n\
                 Anywhere else they make results depend on host speed."
            }
            RuleId::EnvRead => {
                "env-read (token tier)\n\
                 std::env and thread-identity reads in simulation paths make\n\
                 results depend on the host environment. Thread configuration\n\
                 belongs in SystemConfig, not the process environment."
            }
            RuleId::PanicDoc => {
                "panic-doc (token tier)\n\
                 A panic!/unreachable!/assert! in library code must state its\n\
                 invariant: add a `// invariant: ...` comment on an adjacent line\n\
                 or a `# Panics` doc section so callers know the contract."
            }
            RuleId::SweepRoute => {
                "sweep-route (token tier)\n\
                 experiments/table*.rs and fig*.rs must route through SweepRunner\n\
                 so journaling, leases, and resumability apply to every cell."
            }
            RuleId::JournalAppend => {
                "journal-append (token tier)\n\
                 Writing journal.jsonl directly bypasses the checksummed\n\
                 Journal::append helper and breaks crash-safe replay."
            }
            RuleId::ErrorMatch => {
                "error-match (token tier)\n\
                 A wildcard `_ =>` arm over a typed error enum silently swallows\n\
                 variants added later. Match every variant explicitly."
            }
            RuleId::UnitMix => {
                "unit-mix (dataflow tier)\n\
                 The analyzer infers a unit domain — picoseconds, nanoseconds,\n\
                 cycles, bytes, references — for each value from Picos newtypes,\n\
                 `_ps`/`_ns`/`_cycles` name suffixes, and the BankTiming/\n\
                 SystemConfig vocabulary (t_rp, t_rcd, t_cas, quantum_time,\n\
                 busy_until are picoseconds; quantum_refs is references;\n\
                 unit_bytes is bytes). Domains flow through let-bindings,\n\
                 assignments, casts, and unit-preserving methods (max, min,\n\
                 saturating_add, ...). Adding, subtracting, or comparing two\n\
                 values with *different* known domains is an error: the paper's\n\
                 timing claims collapse if a tRCD in nanoseconds is ever added\n\
                 to a quantum in cycles. Casts do not launder units — `ps as\n\
                 u64` keeps its domain. Fields named like time quantities\n\
                 (`*_ps`, `*_time`) declared as raw integers are also flagged:\n\
                 wrap them in the Picos newtype. Multiplication and division\n\
                 legitimately change units and are not checked.\n\
                 \n\
                 Example finding:\n\
                     let total = cfg.quantum_time + refs_done;\n\
                     // [unit-mix] `+` mixes picoseconds with references\n\
                 Fix: convert explicitly (refs_done * ps_per_ref) or keep the\n\
                 quantities in separate typed fields."
            }
            RuleId::NondetTaint => {
                "nondet-taint (dataflow tier)\n\
                 Values derived from Instant::now, SystemTime, std::env,\n\
                 thread::current, or wall_ms are tainted; taint propagates\n\
                 through bindings, arithmetic, field reads, and call arguments.\n\
                 A tainted value reaching a Cell/FrozenCell payload, a\n\
                 fingerprint, or a run_config argument breaks bit-identical\n\
                 reproducibility — those bytes are serialized into cells.json /\n\
                 journal.jsonl and compared on replay. Wall-clock may feed\n\
                 progress reporting and lease timestamps, never results."
            }
            RuleId::ClaimReadback => {
                "claim-readback (dataflow tier)\n\
                 The crash-safe sweep protocol requires: append a Claim record,\n\
                 then RE-READ the journal (the first live claim in file order\n\
                 wins), and only execute the cell if the readback says the claim\n\
                 is ours. This rule checks, on every control-flow path of every\n\
                 runner function, that no execute call is reachable from a claim\n\
                 append without an intervening scan/replay. Executing an\n\
                 unconfirmed claim double-computes cells and corrupts adoption\n\
                 after a crash."
            }
            RuleId::CancelPoll => {
                "cancel-poll (dataflow tier)\n\
                 Every runner loop that sleeps (watchdog polls, heartbeat waits,\n\
                 recv_timeout on the pool's result channel)\n\
                 must consult a cancel/shutdown signal each iteration —\n\
                 shutdown_requested(), a cancel token load, or wd.poll().\n\
                 Otherwise a stalled worker holds its lease past the stall\n\
                 budget and the watchdog cannot reclaim the cell."
            }
            RuleId::GuardReceiver => {
                "guard-receiver (dataflow tier)\n\
                 Rust evaluates a method call's receiver before its arguments,\n\
                 so in `m.lock().push(f())` or `lock_recovering(&m).push(f())`\n\
                 the guard is taken first and held while f() runs. When f is a\n\
                 simulation, every thread sharing the lock takes its turn: the\n\
                 sweep pool ran one cell at a time for this reason. Guards are\n\
                 .lock()/.read()/.write() results (through unwrap/expect/\n\
                 unwrap_or_else) and lock_recovering(..); the rule fires when an\n\
                 argument contains a function or method call outside a closure.\n\
                 Bind the value first: `let v = f(); m.lock().push(v)`. Clippy's\n\
                 significant_drop_tightening only sees let-bound guards."
            }
            RuleId::WaiverMissingReason => {
                "waiver-missing-reason (meta)\n\
                 `// lint: allow(<rule>)` must carry `— <reason>` text; an\n\
                 unexplained suppression is itself a finding."
            }
            RuleId::UnusedWaiver => {
                "unused-waiver (meta)\n\
                 A waiver that matches no finding on its line is stale — the\n\
                 code was fixed or the rule changed. Remove it."
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether a diagnostic was suppressed by a waiver, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaiverStatus {
    /// No waiver applies: the diagnostic counts against the exit code.
    None,
    /// A `// lint: allow(<rule>) — <reason>` waiver suppresses it.
    Waived,
}

/// One finding at an exact source position.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable description of the finding.
    pub message: String,
    /// Whether a waiver suppressed it.
    pub waiver: WaiverStatus,
}

impl Diagnostic {
    /// Does this diagnostic count against the exit code?
    pub fn is_active(&self) -> bool {
        self.waiver == WaiverStatus::None
    }

    /// `file:line:col: [rule] message` — the human rendering.
    pub fn render_text(&self) -> String {
        let suffix = match self.waiver {
            WaiverStatus::None => "",
            WaiverStatus::Waived => " (waived)",
        };
        format!(
            "{}:{}:{}: [{}] {}{}",
            self.file, self.line, self.col, self.rule, self.message, suffix
        )
    }

    /// One JSON object, hand-rolled (the analyzer is dependency-free).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"file\":{},\"line\":{},\"col\":{},\"rule\":{},\"message\":{},\"waived\":{}}}",
            json_string(&self.file),
            self.line,
            self.col,
            json_string(self.rule.as_str()),
            json_string(&self.message),
            self.waiver == WaiverStatus::Waived,
        )
    }
}

/// Render a full report as a JSON document:
/// `{"diagnostics":[...],"active":N,"waived":M}`.
pub fn render_json_report(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.render_json());
    }
    let active = diags.iter().filter(|d| d.is_active()).count();
    out.push_str(&format!(
        "],\"active\":{},\"waived\":{}}}",
        active,
        diags.len() - active
    ));
    out
}

/// Minimal JSON string escaping: quotes, backslashes, control chars.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip_through_waiver_syntax() {
        for rule in RuleId::ALL {
            let parsed = RuleId::from_waiver_str(rule.as_str());
            if matches!(rule, RuleId::WaiverMissingReason | RuleId::UnusedWaiver) {
                assert_eq!(parsed, None, "meta rules must not be waivable");
            } else {
                assert_eq!(parsed, Some(rule));
            }
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_counts_active_vs_waived() {
        let mk = |waiver| Diagnostic {
            file: "x.rs".into(),
            line: 1,
            col: 2,
            rule: RuleId::EnvRead,
            message: "m".into(),
            waiver,
        };
        let report = render_json_report(&[mk(WaiverStatus::None), mk(WaiverStatus::Waived)]);
        assert!(report.contains("\"active\":1"));
        assert!(report.contains("\"waived\":1"));
        assert!(report.contains("\"rule\":\"env-read\""));
    }
}
