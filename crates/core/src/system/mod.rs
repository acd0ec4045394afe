//! The two memory systems the paper compares.
//!
//! Both sit below the same front end (16 KB direct-mapped L1 I/D caches,
//! TLB, perfect write buffering) and above the same Direct Rambus DRAM;
//! they differ in what occupies the 4 MB SRAM level and who manages it:
//!
//! * [`Conventional`] — a hardware L2 cache (tags, inclusion, hardware
//!   replacement);
//! * [`Rampage`] — a software-managed paged SRAM main memory (no tags,
//!   pinned inverted page table, clock replacement, faults handled by
//!   simulated OS software).

mod conventional;
mod rampage;

pub use conventional::Conventional;
pub use rampage::Rampage;

use crate::config::SystemConfig;
use crate::metrics::Metrics;
use crate::obs::TraceSink;
use rampage_dram::Picos;
use rampage_trace::{Asid, TraceRecord};

/// Result of presenting one user reference to a memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessOutcome {
    /// CPU cycles the reference stalls beyond its base issue cycle
    /// (includes any software-handler execution the reference triggered).
    pub stall_cycles: u64,
    /// Set when the process must block on a DRAM page transfer instead of
    /// stalling (RAMpage with context-switch-on-miss): the absolute time
    /// at which the transfer completes and the process becomes runnable.
    pub blocked_until: Option<Picos>,
}

/// A memory system under the simulator's L1-and-below accounting rules.
///
/// Implementations charge time into the [`Metrics`] buckets as they go
/// (the engine owns base instruction-issue time and idle time) and return
/// per-reference stall cycles. The engine drives the closed set of
/// implementations through [`System`].
///
/// Every method is required, `attach_trace` included, so an
/// implementation that would drop the engine's events does not compile:
///
/// ```compile_fail,E0046
/// use rampage_core::system::{AccessOutcome, MemorySystem};
/// use rampage_core::Metrics;
/// use rampage_dram::Picos;
/// use rampage_trace::{Asid, TraceRecord};
///
/// struct Flat;
///
/// impl MemorySystem for Flat {
///     fn access_user(&mut self, _: Asid, _: TraceRecord, _: Picos, _: &mut Metrics) -> AccessOutcome {
///         AccessOutcome::default()
///     }
///     fn run_switch(&mut self, _: usize, _: usize, _: Picos, _: &mut Metrics) -> u64 {
///         0
///     }
///     fn finalize(&mut self, _: &mut Metrics) {}
///     fn label(&self) -> String {
///         "flat".into()
///     }
/// }
/// ```
pub trait MemorySystem {
    /// Present one user reference at absolute time `now`.
    fn access_user(
        &mut self,
        asid: Asid,
        rec: TraceRecord,
        now: Picos,
        m: &mut Metrics,
    ) -> AccessOutcome;

    /// Execute the ~400-reference context-switch code through the
    /// hierarchy; returns the stall cycles it took.
    fn run_switch(&mut self, from: usize, to: usize, now: Picos, m: &mut Metrics) -> u64;

    /// Copy internal cache/TLB statistics into the metrics at end of run.
    fn finalize(&mut self, m: &mut Metrics);

    /// A short description for reports.
    fn label(&self) -> String;

    /// Share the engine's event-trace sink so the system's misses,
    /// faults, and DRAM transfers land in the same ring.
    fn attach_trace(&mut self, sink: TraceSink);
}

/// The memory system a configuration describes: one of the paper's two
/// hierarchies, dispatched by `match` so the per-reference path inlines
/// into the engine. (Boxed: the two differ by hundreds of bytes.)
pub enum System {
    /// The hardware L2 cache hierarchy.
    Conventional(Box<Conventional>),
    /// The software-managed paged SRAM hierarchy.
    Rampage(Box<Rampage>),
}

/// Forward a [`MemorySystem`] call to whichever hierarchy `$sys` holds.
macro_rules! dispatch {
    ($sys:expr, $s:ident => $call:expr) => {
        match $sys {
            System::Conventional($s) => $call,
            System::Rampage($s) => $call,
        }
    };
}

impl MemorySystem for System {
    #[inline]
    fn access_user(
        &mut self,
        asid: Asid,
        rec: TraceRecord,
        now: Picos,
        m: &mut Metrics,
    ) -> AccessOutcome {
        dispatch!(self, s => s.access_user(asid, rec, now, m))
    }

    fn run_switch(&mut self, from: usize, to: usize, now: Picos, m: &mut Metrics) -> u64 {
        dispatch!(self, s => s.run_switch(from, to, now, m))
    }

    fn finalize(&mut self, m: &mut Metrics) {
        dispatch!(self, s => s.finalize(m))
    }

    fn label(&self) -> String {
        dispatch!(self, s => s.label())
    }

    fn attach_trace(&mut self, sink: TraceSink) {
        dispatch!(self, s => s.attach_trace(sink))
    }
}

/// Build the memory system a configuration describes.
pub fn build(cfg: &SystemConfig) -> System {
    match cfg.hierarchy {
        crate::config::HierarchyKind::Conventional(_) => {
            System::Conventional(Box::new(Conventional::new(cfg)))
        }
        crate::config::HierarchyKind::Rampage(_) => System::Rampage(Box::new(Rampage::new(cfg))),
    }
}
