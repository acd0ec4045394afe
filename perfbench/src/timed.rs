//! The trace-layer bracket: a block-buffering adapter placed around each
//! source handed to `Engine::new`.
//!
//! Each adapter refills a block of records from its inner source and times
//! only that refill, so the sum of refill spans is the trace layer's self
//! time and the rest of `Engine::run` is the engine's. The adapters also
//! note the order in which the engine switches between them, which lets a
//! later replay walk the user references in exactly the engine's order
//! without keeping them in memory.

use rampage_trace::{TraceRecord, TraceSource};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Records fetched from the inner source per timed refill.
const BLOCK: usize = 1024;

/// Sentinel for "no adapter has handed out a record yet".
const NOBODY: usize = usize::MAX;

/// The benchmark's one wall-clock read: host time is what it measures.
pub fn now() -> Instant {
    // lint: allow(wall-clock) — host wall time is this benchmark's measurement and never reaches a cell
    Instant::now()
}

/// One stretch of the engine's reference order: `len` records of process
/// `proc`, starting at its `start`-th record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Process index (its position in the engine's source list).
    pub proc: usize,
    /// Offset of the first record within that process's own stream.
    pub start: u64,
    /// Records in the stretch.
    pub len: u64,
}

/// State every adapter of one engine run shares.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    /// Refill spans as (start, end) nanoseconds since `epoch`.
    fills: Mutex<Vec<(u64, u64)>>,
    records: AtomicU64,
    /// The adapter that handed out the latest record.
    current: AtomicUsize,
    /// (process, offset) at each switch between adapters, in engine order.
    switches: Mutex<Vec<(usize, u64)>>,
}

impl Spans {
    /// A fresh span log whose clock starts now.
    pub fn new() -> Arc<Spans> {
        Arc::new(Spans {
            epoch: now(),
            fills: Mutex::new(Vec::new()),
            records: AtomicU64::new(0),
            current: AtomicUsize::new(NOBODY),
            switches: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since this log's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records the adapters fetched from their sources.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::SeqCst)
    }

    /// Every refill span, in the order they were taken.
    pub fn fills(&self) -> Vec<(u64, u64)> {
        self.fills.lock().expect("span log poisoned").clone()
    }

    /// The engine's reference order as segments, given each process's
    /// total record count.
    pub fn segments(&self, totals: &[u64]) -> Vec<Segment> {
        let switches = self.switches.lock().expect("span log poisoned").clone();
        let mut segs = Vec::with_capacity(switches.len());
        for (i, &(proc, start)) in switches.iter().enumerate() {
            let end = switches[i + 1..]
                .iter()
                .find(|&&(p, _)| p == proc)
                .map_or(totals[proc], |&(_, s)| s);
            if end > start {
                segs.push(Segment {
                    proc,
                    start,
                    len: end - start,
                });
            }
        }
        segs
    }
}

/// The adapter itself.
pub struct TimedSource {
    inner: Box<dyn TraceSource + Send>,
    id: usize,
    spans: Arc<Spans>,
    buf: Vec<TraceRecord>,
    pos: usize,
    handed: u64,
    exhausted: bool,
}

impl TimedSource {
    /// Wrap `inner`, the `id`-th source passed to the engine.
    pub fn new(inner: Box<dyn TraceSource + Send>, id: usize, spans: Arc<Spans>) -> Self {
        TimedSource {
            inner,
            id,
            spans,
            buf: Vec::with_capacity(BLOCK),
            pos: 0,
            handed: 0,
            exhausted: false,
        }
    }

    fn refill(&mut self) {
        self.buf.clear();
        self.pos = 0;
        let start = self.spans.now_ns();
        while self.buf.len() < BLOCK {
            match self.inner.next_record() {
                Some(r) => self.buf.push(r),
                None => {
                    self.exhausted = true;
                    break;
                }
            }
        }
        let end = self.spans.now_ns();
        self.spans
            .fills
            .lock()
            .expect("span log poisoned")
            .push((start, end));
        self.spans
            .records
            .fetch_add(self.buf.len() as u64, Ordering::SeqCst);
    }
}

impl TraceSource for TimedSource {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.pos == self.buf.len() {
            if self.exhausted {
                return None;
            }
            self.refill();
        }
        let rec = *self.buf.get(self.pos)?;
        self.pos += 1;
        if self.spans.current.load(Ordering::Relaxed) != self.id {
            self.spans.current.store(self.id, Ordering::Relaxed);
            self.spans
                .switches
                .lock()
                .expect("span log poisoned")
                .push((self.id, self.handed));
        }
        self.handed += 1;
        Some(rec)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rampage_trace::VecSource;

    fn source(n: u64) -> Box<dyn TraceSource + Send> {
        Box::new(VecSource::new(
            "p",
            (0..n).map(|i| TraceRecord::fetch(i * 4)).collect(),
        ))
    }

    #[test]
    fn segments_rebuild_the_engine_order() {
        let spans = Spans::new();
        let a = TimedSource::new(source(5), 0, spans.clone());
        let b = TimedSource::new(source(3), 1, spans.clone());
        let mut sources = [a, b];
        for (i, n) in [(0, 3), (1, 2), (0, 2), (1, 1)] {
            for _ in 0..n {
                assert!(sources[i].next_record().is_some());
            }
        }
        let [mut a, mut b] = sources;
        assert_eq!(a.next_record(), None);
        assert_eq!(b.next_record(), None);
        assert_eq!(spans.records(), 8);
        let seg = |proc, start, len| Segment { proc, start, len };
        assert_eq!(
            spans.segments(&[5, 3]),
            vec![seg(0, 0, 3), seg(1, 0, 2), seg(0, 3, 2), seg(1, 2, 1)]
        );
        let fills = spans.fills();
        assert!(
            fills.windows(2).all(|p| p[0].1 <= p[1].0),
            "refills never overlap"
        );
    }
}
