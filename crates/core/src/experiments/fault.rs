//! Deterministic fault injection for the sweep runner (behind the
//! `fault` feature — test builds only).
//!
//! The robustness suite uses these hooks to prove the runner's isolation
//! guarantees without depending on real bugs: a cell can be made to
//! panic a fixed number of times (exercising catch-and-retry and the
//! [`FailedCell`](crate::experiments::FailedCell) path), a journaled
//! run can be killed at its crash points (exercising resume), and two
//! cells can be made to wait for each other (a rendezvous only a pool
//! running them at the same time completes).
//!
//! Injection state is process-global. Tests must hold an
//! [`InjectionScope`] while armed: the scope serializes tests against
//! each other and guarantees a disarmed state on entry and on drop (even
//! across a failed assertion), so `cargo test` parallelism can never
//! cross-contaminate armed state between tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Exit code of an injected process death (`die-after-claim`,
/// `die-mid-append`): 128 + SIGKILL, the same code a real `kill -9`
/// produces, so drills and real kills look identical to wrappers.
pub const INJECTED_CRASH_EXIT: i32 = 137;

/// Exclusive, self-cleaning access to the process-global injection
/// state (this module's cell panics and torn saves, plus the trace
/// crate's corrupt-record hook, which the `fault` feature enables
/// together).
///
/// Acquiring blocks until no other scope is alive, then disarms
/// everything; dropping disarms again. Arm faults only while holding a
/// scope.
#[derive(Debug)]
pub struct InjectionScope {
    _lock: MutexGuard<'static, ()>,
}

static SCOPE_LOCK: Mutex<()> = Mutex::new(());

impl InjectionScope {
    /// Block until exclusive, then start from a disarmed state.
    pub fn acquire() -> Self {
        // A poisoned lock just means another test failed while holding
        // the scope; its Drop already disarmed, and we re-disarm anyway.
        let lock = SCOPE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        rampage_trace::fault::disarm();
        InjectionScope { _lock: lock }
    }
}

impl Drop for InjectionScope {
    fn drop(&mut self) {
        reset();
        rampage_trace::fault::disarm();
    }
}

fn cell_panics() -> MutexGuard<'static, HashMap<u64, u32>> {
    static MAP: OnceLock<Mutex<HashMap<u64, u32>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Arm the next `times` executions of the cell with this fingerprint to
/// panic at the start of simulation. With `times = 1` the retry
/// succeeds; with `times >= 2` the cell is recorded as failed.
pub fn arm_cell_panic(fp: u64, times: u32) {
    cell_panics().insert(fp, times);
}

/// Called by the runner inside its per-cell isolation boundary.
pub(crate) fn cell_panic_point(fp: u64) {
    let fire = {
        let mut map = cell_panics();
        match map.get_mut(&fp) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    };
    if fire {
        // lint: allow(panic-doc) — the injected fault IS the deliberate panic; the runner's catch_unwind boundary records it
        panic!("injected fault: cell {fp:#018x}");
    }
}

/// Countdown crash points for the journaled runner: each counter is
/// armed with N and fires on the Nth hit of its injection point.
static DIE_AFTER_CLAIM: AtomicU32 = AtomicU32::new(0);
static DIE_MID_APPEND: AtomicU32 = AtomicU32::new(0);
static DIE_AFTER_DONE: AtomicU32 = AtomicU32::new(0);
static HANG_CELLS: AtomicU32 = AtomicU32::new(0);

/// Decrement a countdown; true exactly when it just reached zero.
fn countdown_hit(counter: &AtomicU32) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok_and(|prev| prev == 1)
}

/// Arm the process to die (exit [`INJECTED_CRASH_EXIT`]) immediately
/// after the `nth` batch of journal claim records is appended — the
/// worst crash point for lease reclaim: claims are durable, results
/// never arrive.
pub fn arm_die_after_claim(nth: u32) {
    DIE_AFTER_CLAIM.store(nth, Ordering::SeqCst);
}

/// Called by the journaled orchestrator right after appending claims.
pub(crate) fn die_after_claim_point() {
    if countdown_hit(&DIE_AFTER_CLAIM) {
        std::process::exit(INJECTED_CRASH_EXIT);
    }
}

/// Arm the process to die (exit [`INJECTED_CRASH_EXIT`]) immediately
/// after the `nth` `done` record is journaled — with a multi-worker
/// pool, other cells are still in flight at that moment, and only they
/// may be lost.
pub fn arm_die_after_done(nth: u32) {
    DIE_AFTER_DONE.store(nth, Ordering::SeqCst);
}

/// Called by the journaled runner right after appending a `done`.
pub(crate) fn die_after_done_point() {
    if countdown_hit(&DIE_AFTER_DONE) {
        std::process::exit(INJECTED_CRASH_EXIT);
    }
}

/// Arm the `nth` upcoming journal append to write half a record and
/// die — the torn tail [`Journal::open`](crate::experiments::Journal::open)
/// must truncate on resume.
pub fn arm_die_mid_append(nth: u32) {
    DIE_MID_APPEND.store(nth, Ordering::SeqCst);
}

/// Consume the mid-append crash, if this append is the armed one.
pub(crate) fn take_die_mid_journal_append() -> bool {
    countdown_hit(&DIE_MID_APPEND)
}

/// Arm the next `times` computed cells to hang cooperatively: the cell
/// spins until the watchdog's cancel token fires (then unwinds as a
/// stall panic) or a built-in deadline lapses (so an unwatched run
/// cannot wedge forever).
pub fn arm_hang_cell(times: u32) {
    HANG_CELLS.store(times, Ordering::SeqCst);
}

/// Called by the runner inside its per-cell isolation boundary, with
/// the watchdog's cancel token for this attempt.
pub(crate) fn hang_cell_point(fp: u64, cancel: &AtomicBool) {
    if !countdown_hit(&HANG_CELLS) {
        return;
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while std::time::Instant::now() < deadline {
        if cancel.load(Ordering::SeqCst) {
            // lint: allow(panic-doc) — the injected hang IS the deliberate stall; the runner classifies this unwind by its prefix
            panic!(
                "{}: injected hang cell {fp:#018x}",
                crate::experiments::STALL_PANIC_PREFIX
            );
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// How long a rendezvous cell waits for its partner before declaring
/// the pool serialised. Generous: under a working pool the partner
/// arrives within milliseconds, even on a loaded host.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(10);

/// The armed rendezvous pair and which of the two has arrived.
#[derive(Debug, Default)]
struct Rendezvous {
    pair: Option<[u64; 2]>,
    arrived: [bool; 2],
}

fn rendezvous() -> &'static (Mutex<Rendezvous>, Condvar) {
    static R: OnceLock<(Mutex<Rendezvous>, Condvar)> = OnceLock::new();
    R.get_or_init(|| (Mutex::new(Rendezvous::default()), Condvar::new()))
}

fn rendezvous_state() -> MutexGuard<'static, Rendezvous> {
    rendezvous().0.lock().unwrap_or_else(|p| p.into_inner())
}

/// Arm a rendezvous between the cells with fingerprints `a` and `b`:
/// whichever enters the runner's per-cell boundary first blocks until
/// the other has entered too. Two cells can only meet if the pool runs
/// them at the same time, so a serialised pool turns the wait into a
/// timeout — a concurrency witness with no timing threshold.
pub fn arm_rendezvous(a: u64, b: u64) {
    *rendezvous_state() = Rendezvous {
        pair: Some([a, b]),
        arrived: [false; 2],
    };
}

/// Called by the runner inside its per-cell isolation boundary: mark
/// this cell arrived and, if it belongs to the armed pair, wait for its
/// partner. Panics with a "pool serialised" message when the partner
/// does not arrive within [`RENDEZVOUS_TIMEOUT`].
pub(crate) fn rendezvous_point(fp: u64) {
    let (_, wake) = rendezvous();
    let mut state = rendezvous_state();
    let Some(me) = state
        .pair
        .and_then(|pair| pair.iter().position(|&p| p == fp))
    else {
        return;
    };
    state.arrived[me] = true;
    wake.notify_all();
    let (state, waited) = wake
        .wait_timeout_while(state, RENDEZVOUS_TIMEOUT, |s| !s.arrived[1 - me])
        .unwrap_or_else(|p| p.into_inner());
    drop(state);
    if waited.timed_out() {
        // lint: allow(panic-doc) — the injected rendezvous failure IS the deliberate panic; the runner records it as a failed cell
        panic!(
            "pool serialised: cell {fp:#018x} waited {}s for its rendezvous partner",
            RENDEZVOUS_TIMEOUT.as_secs()
        );
    }
}

/// Disarm every injection point.
pub fn reset() {
    cell_panics().clear();
    DIE_AFTER_CLAIM.store(0, Ordering::SeqCst);
    DIE_MID_APPEND.store(0, Ordering::SeqCst);
    HANG_CELLS.store(0, Ordering::SeqCst);
    DIE_AFTER_DONE.store(0, Ordering::SeqCst);
    *rendezvous_state() = Rendezvous::default();
}

/// Arm one injection from a CLI spec — how a crash-drill child process
/// (`repro … --fault SPEC`) arms itself. Specs: `die-after-claim[=N]`,
/// `die-after-done[=N]`, `die-mid-append[=N]`, `hang-cell[=N]`,
/// `cell-panic=<fp>x<times>`.
///
/// # Errors
///
/// A human-readable message when the spec does not parse.
pub fn arm_from_spec(spec: &str) -> Result<(), String> {
    let (name, arg) = match spec.split_once('=') {
        Some((n, a)) => (n, Some(a)),
        None => (spec, None),
    };
    let nth = |default: u32| -> Result<u32, String> {
        match arg {
            None => Ok(default),
            Some(a) => a.parse().map_err(|_| format!("bad count in {spec:?}")),
        }
    };
    match name {
        "die-after-claim" => arm_die_after_claim(nth(1)?),
        "die-after-done" => arm_die_after_done(nth(1)?),
        "die-mid-append" => arm_die_mid_append(nth(1)?),
        "hang-cell" => arm_hang_cell(nth(1)?),
        "cell-panic" => {
            let a = arg.ok_or_else(|| format!("{spec:?} needs <fp>x<times>"))?;
            let (fp, times) = a
                .split_once('x')
                .ok_or_else(|| format!("{spec:?} needs <fp>x<times>"))?;
            let fp = parse_u64_maybe_hex(fp).ok_or_else(|| format!("bad fp in {spec:?}"))?;
            let times = times
                .parse()
                .map_err(|_| format!("bad times in {spec:?}"))?;
            arm_cell_panic(fp, times);
        }
        _ => return Err(format!("unknown fault spec {spec:?}")),
    }
    Ok(())
}

/// Parse a u64 that may carry a `0x` prefix (fingerprints are usually
/// quoted in hex).
fn parse_u64_maybe_hex(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(h) => u64::from_str_radix(h, 16).ok(),
        None => s.parse().ok(),
    }
}
