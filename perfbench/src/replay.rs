//! Outside-in timing of the cache, vm and dram layers.
//!
//! The simulator is not instrumented. Instead the user reference stream of
//! a finished run is walked again, in the engine's order, through a model
//! built from the layers' public types. The model decides what each layer
//! is asked to do and logs those calls as operations; a second, fresh copy
//! of each layer then executes its operation log in batches under a timer.
//! Because the copy sees the same call sequence as the model, it ends in
//! the same state, and the timer covers only calls into that one layer.
//!
//! The model follows the simulator's structure (TLB → inverted page table
//! → L1 I/D → L2 with inclusion → DRAM for the conventional hierarchy; TLB
//! → inverted page table → L1 I/D → paged SRAM over DRAM for RAMpage) and
//! feeds TLB-refill and page-fault handler references through the caches.
//! It leaves out what does not change which calls a layer sees in a way
//! that matters for host cost: context-switch code, write buffers, dirty
//! page write-back, and RAMpage's clock (replaced here by FIFO eviction).
//! For the conventional hierarchy the TLB sees exactly the engine's
//! sequence, so its miss count must equal the engine's.

use rampage_cache::{Cache, PhysAddr, ReplacementPolicy};
use rampage_core::{DramChannel, HierarchyKind, SystemConfig, DRAM_PAGE_SIZE};
use rampage_dram::Picos;
use rampage_trace::{AccessKind, Asid, TraceRecord, TraceSource};
use rampage_vm::os::{HandlerRef, OsLayout, OsModel};
use rampage_vm::{FrameId, InvertedPageTable, PageSize, Tlb, Vpn};
use std::collections::VecDeque;
use std::hint::black_box;

use crate::timed::{now, Segment};

/// Operations a replica executes per timed batch.
const BATCH: usize = 8192;

/// The simulator's TLB replacement seed (`system::{conventional,rampage}`).
const TLB_SEED: u64 = 0x71b_5eed;
/// The conventional hierarchy's DRAM frame count and free-list shuffle.
const DRAM_FRAMES: u32 = 1 << 18;
const DRAM_SHUFFLE_SEED: u64 = 0x00a1_10c8;
/// Where the conventional hierarchy places kernel code and its page table.
const KERNEL_BASE: u64 = 1 << 40;
/// The ASID RAMpage pins the OS region under.
const KERNEL_ASID: Asid = Asid(u16::MAX);

/// Host time spent in one layer's calls, and how many primary calls
/// (lookups, accesses, transfers) it made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Nanoseconds inside the layer.
    pub ns: u64,
    /// Primary calls made.
    pub calls: u64,
}

impl Tally {
    /// Mean host nanoseconds per primary call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// What a replay measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCosts {
    /// `Tlb::lookup`, plus the inserts and flushes misses lead to.
    pub tlb: Tally,
    /// Misses the replayed TLB counted.
    pub tlb_misses: u64,
    /// `InvertedPageTable::lookup` over the TLB-miss stream, plus the
    /// table updates faults lead to.
    pub ipt: Tally,
    /// `Cache::access` on the L1 pair, plus inclusion invalidations.
    pub l1: Tally,
    /// `Cache::access` on the L2 over the L1-miss stream.
    pub l2: Tally,
    /// `DramChannel::request`.
    pub dram: Tally,
}

impl std::ops::AddAssign for LayerCosts {
    fn add_assign(&mut self, o: LayerCosts) {
        for (a, b) in [
            (&mut self.tlb, o.tlb),
            (&mut self.ipt, o.ipt),
            (&mut self.l1, o.l1),
            (&mut self.l2, o.l2),
            (&mut self.dram, o.dram),
        ] {
            a.ns += b.ns;
            a.calls += b.calls;
        }
        self.tlb_misses += o.tlb_misses;
    }
}

enum TlbOp {
    Lookup(Asid, Vpn),
    Insert(Asid, Vpn, FrameId),
    Flush(Asid, Vpn),
}

enum IptOp {
    Lookup(Asid, Vpn),
    Insert(FrameId, Asid, Vpn),
    Remove(FrameId),
}

enum L1Op {
    Access {
        instr: bool,
        pa: PhysAddr,
        write: bool,
    },
    Invalidate {
        base: PhysAddr,
        len: u64,
    },
}

/// An operation log and the fresh layer copy that executes it under a
/// timer, one batch at a time.
struct Stage<L, O> {
    layer: L,
    ops: Vec<O>,
    tally: Tally,
    run: fn(&mut L, &O) -> bool,
}

impl<L, O> Stage<L, O> {
    fn new(layer: L, run: fn(&mut L, &O) -> bool) -> Self {
        Stage {
            layer,
            ops: Vec::with_capacity(BATCH),
            tally: Tally::default(),
            run,
        }
    }

    fn push(&mut self, op: O) {
        self.ops.push(op);
        if self.ops.len() >= BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let run = self.run;
        let start = now();
        let mut calls = 0;
        for op in &self.ops {
            calls += u64::from(run(&mut self.layer, op));
        }
        self.tally.ns += start.elapsed().as_nanos() as u64;
        self.tally.calls += calls;
        self.ops.clear();
    }
}

fn run_tlb(tlb: &mut Tlb, op: &TlbOp) -> bool {
    match *op {
        TlbOp::Lookup(a, v) => {
            black_box(tlb.lookup(a, v));
            true
        }
        TlbOp::Insert(a, v, f) => {
            black_box(tlb.insert(a, v, f));
            false
        }
        TlbOp::Flush(a, v) => {
            black_box(tlb.flush_page(a, v));
            false
        }
    }
}

fn run_ipt(ipt: &mut InvertedPageTable, op: &IptOp) -> bool {
    match *op {
        IptOp::Lookup(a, v) => {
            black_box(ipt.lookup(a, v));
            true
        }
        IptOp::Insert(f, a, v) => {
            ipt.insert(f, a, v);
            false
        }
        IptOp::Remove(f) => {
            black_box(ipt.remove(f));
            false
        }
    }
}

fn run_l1(pair: &mut (Cache, Cache), op: &L1Op) -> bool {
    match *op {
        L1Op::Access { instr, pa, write } => {
            let cache = if instr { &mut pair.0 } else { &mut pair.1 };
            black_box(cache.access(pa, write));
            true
        }
        L1Op::Invalidate { base, len } => {
            black_box(pair.0.invalidate_region(base, len, |e| {
                black_box(e);
            }));
            black_box(pair.1.invalidate_region(base, len, |e| {
                black_box(e);
            }));
            false
        }
    }
}

fn run_l2(l2: &mut Cache, op: &(PhysAddr, bool)) -> bool {
    black_box(l2.access(op.0, op.1));
    true
}

fn run_dram(ch: &mut DramChannel, op: &(Picos, u64)) -> bool {
    black_box(ch.request(op.0, op.1));
    true
}

/// The hierarchy-specific part of the model.
enum Below {
    /// Conventional: an L2 cache of `block`-byte lines.
    L2 { l2: Cache, block: u64 },
    /// RAMpage: SRAM frames evicted first-in first-out.
    Sram { fifo: VecDeque<FrameId> },
}

/// The deciding model plus the timed stages its calls are logged into.
struct Model {
    page: PageSize,
    tlb: Tlb,
    ipt: InvertedPageTable,
    l1i: Cache,
    l1d: Cache,
    below: Below,
    os: OsModel,
    handler: Vec<HandlerRef>,
    cycle: Picos,
    now: Picos,
    tlb_stage: Stage<Tlb, TlbOp>,
    ipt_stage: Stage<InvertedPageTable, IptOp>,
    l1_stage: Stage<(Cache, Cache), L1Op>,
    l2_stage: Option<Stage<Cache, (PhysAddr, bool)>>,
    dram_stage: Stage<DramChannel, (Picos, u64)>,
}

impl Model {
    fn new(cfg: &SystemConfig) -> Model {
        let l1 = || Cache::new(cfg.l1.geometry(), ReplacementPolicy::Lru);
        let tlb = || Tlb::new(cfg.tlb.sets, cfg.tlb.ways, TLB_SEED);
        let device = cfg
            .dram
            .flat_model()
            .expect("the benchmark's configurations use the flat Rambus model");
        let (page, ipt, replica_ipt, below, l2_stage, os) = match cfg.hierarchy {
            HierarchyKind::Conventional(l2cfg) => {
                let page = PageSize::new(DRAM_PAGE_SIZE).expect("DRAM page size is a power of two");
                let table_base = PhysAddr(KERNEL_BASE + (1 << 20));
                let mut ipt = InvertedPageTable::new(DRAM_FRAMES, table_base);
                ipt.shuffle_free(DRAM_SHUFFLE_SEED);
                let replica = InvertedPageTable::new(DRAM_FRAMES, table_base);
                let l2 = || Cache::new(l2cfg.geometry(), l2cfg.policy);
                let below = Below::L2 {
                    l2: l2(),
                    block: l2cfg.block,
                };
                let os = OsModel::new(cfg.os_costs, OsLayout::at(PhysAddr(KERNEL_BASE)));
                (
                    page,
                    ipt,
                    replica,
                    below,
                    Some(Stage::new(l2(), run_l2)),
                    os,
                )
            }
            HierarchyKind::Rampage(rcfg) => {
                let page = rcfg.page_size;
                let layout = OsLayout::at(PhysAddr(0));
                let table_base = PhysAddr(layout.code_bytes + 16 * 1024);
                let frames = rcfg.num_frames();
                let mut ipt = InvertedPageTable::new(frames, table_base);
                let mut replica = InvertedPageTable::new(frames, table_base);
                let os_bytes = table_base.0 + ipt.table_bytes();
                for i in 0..os_bytes.div_ceil(page.get()) {
                    let f = ipt.alloc_free().expect("the OS region fits in SRAM");
                    ipt.insert_pinned(f, KERNEL_ASID, Vpn(i));
                    replica.insert_pinned(f, KERNEL_ASID, Vpn(i));
                }
                let below = Below::Sram {
                    fifo: VecDeque::new(),
                };
                (
                    page,
                    ipt,
                    replica,
                    below,
                    None,
                    OsModel::new(cfg.os_costs, layout),
                )
            }
        };
        Model {
            page,
            tlb: tlb(),
            ipt,
            l1i: l1(),
            l1d: l1(),
            below,
            os,
            handler: Vec::with_capacity(1024),
            cycle: cfg.issue.cycle(),
            now: Picos::ZERO,
            tlb_stage: Stage::new(tlb(), run_tlb),
            ipt_stage: Stage::new(replica_ipt, run_ipt),
            l1_stage: Stage::new((l1(), l1()), run_l1),
            l2_stage,
            dram_stage: Stage::new(DramChannel::new(device), run_dram),
        }
    }

    fn dram(&mut self, bytes: u64) {
        self.dram_stage.push((self.now, bytes));
    }

    /// One user reference.
    fn user(&mut self, asid: Asid, rec: TraceRecord) {
        self.now += self.cycle;
        let vpn = self.page.vpn(rec.addr);
        self.tlb_stage.push(TlbOp::Lookup(asid, vpn));
        let frame = match self.tlb.lookup(asid, vpn) {
            Some(f) => f,
            None => {
                self.ipt_stage.push(IptOp::Lookup(asid, vpn));
                let lk = self.ipt.lookup(asid, vpn);
                let frame = match lk.frame {
                    Some(f) => f,
                    None => self.fault(asid, vpn, &lk.probe_addrs),
                };
                self.os.tlb_refill(&lk.probe_addrs, &mut self.handler);
                self.run_handler();
                self.tlb.insert(asid, vpn, frame);
                self.tlb_stage.push(TlbOp::Insert(asid, vpn, frame));
                frame
            }
        };
        let pa = PhysAddr(frame.base_addr(self.page).0 + self.page.offset(rec.addr));
        self.phys(pa, rec.kind);
    }

    /// Map a page the table does not hold: first touch in DRAM for the
    /// conventional hierarchy, a page fault from SRAM for RAMpage.
    fn fault(&mut self, asid: Asid, vpn: Vpn, probes: &[PhysAddr]) -> FrameId {
        let frame = match self.ipt.alloc_free() {
            Some(f) => f,
            None => {
                let Below::Sram { fifo } = &mut self.below else {
                    panic!("DRAM frame space exhausted");
                };
                let victim = fifo.pop_front().expect("SRAM holds user pages");
                self.ipt_stage.push(IptOp::Remove(victim));
                let m = self.ipt.remove(victim).expect("FIFO frames are mapped");
                self.tlb.flush_page(m.asid, m.vpn);
                self.tlb_stage.push(TlbOp::Flush(m.asid, m.vpn));
                let base = victim.base_addr(self.page);
                let len = self.page.get();
                self.l1i.invalidate_region(base, len, drop);
                self.l1d.invalidate_region(base, len, drop);
                self.l1_stage.push(L1Op::Invalidate { base, len });
                self.ipt.alloc_free().expect("the victim's frame was freed")
            }
        };
        self.ipt.insert(frame, asid, vpn);
        self.ipt_stage.push(IptOp::Insert(frame, asid, vpn));
        if let Below::Sram { fifo } = &mut self.below {
            fifo.push_back(frame);
            let update = [self.ipt.entry_addr(frame)];
            self.os.page_fault(probes, &[], &update, &mut self.handler);
            self.run_handler();
            let bytes = self.page.get();
            self.dram(bytes);
        }
        frame
    }

    fn run_handler(&mut self) {
        let refs = std::mem::take(&mut self.handler);
        for r in &refs {
            self.phys(r.addr, r.kind);
        }
        self.handler = refs;
        self.handler.clear();
    }

    /// One physical reference through L1 and what lies below it.
    fn phys(&mut self, pa: PhysAddr, kind: AccessKind) {
        let instr = kind == AccessKind::InstrFetch;
        let write = kind.is_write();
        self.l1_stage.push(L1Op::Access { instr, pa, write });
        let l1 = if instr { &mut self.l1i } else { &mut self.l1d };
        let res = l1.access(pa, write);
        if res.hit {
            return;
        }
        let Below::L2 { l2, block } = &mut self.below else {
            return;
        };
        let block = *block;
        let l2_stage = self.l2_stage.as_mut().expect("L2 stage exists with an L2");
        if let Some(ev) = res.eviction.filter(|e| e.dirty) {
            l2.access(ev.addr, true);
            l2_stage.push((ev.addr, true));
        }
        l2_stage.push((pa, false));
        let res = l2.access(pa, false);
        if res.hit {
            return;
        }
        if let Some(ev) = res.eviction {
            let mut dirty = ev.dirty;
            for l1 in [&mut self.l1i, &mut self.l1d] {
                l1.invalidate_region(ev.addr, block, |e| dirty |= e.dirty);
            }
            self.l1_stage.push(L1Op::Invalidate {
                base: ev.addr,
                len: block,
            });
            if dirty {
                self.dram(block);
            }
        }
        self.dram(block);
    }

    fn finish(mut self) -> LayerCosts {
        self.tlb_stage.flush();
        self.ipt_stage.flush();
        self.l1_stage.flush();
        let l2 = self.l2_stage.as_mut().map_or(Tally::default(), |s| {
            s.flush();
            s.tally
        });
        self.dram_stage.flush();
        LayerCosts {
            tlb: self.tlb_stage.tally,
            tlb_misses: self.tlb_stage.layer.stats().misses,
            ipt: self.ipt_stage.tally,
            l1: self.l1_stage.tally,
            l2,
            dram: self.dram_stage.tally,
        }
    }
}

/// Replay the user references of `sources` (fresh copies of the sources
/// the engine ran) in the engine's order `segments` through the layers of
/// `cfg`, timing each layer's calls.
pub fn replay(
    cfg: &SystemConfig,
    mut sources: Vec<Box<dyn TraceSource + Send>>,
    segments: &[Segment],
) -> LayerCosts {
    let mut model = Model::new(cfg);
    let mut offsets = vec![0u64; sources.len()];
    for seg in segments {
        assert_eq!(
            offsets[seg.proc], seg.start,
            "segments of one process are contiguous"
        );
        let asid = Asid(seg.proc as u16);
        let src = &mut sources[seg.proc];
        for _ in 0..seg.len {
            let rec = src
                .next_record()
                .expect("a regenerated source yields the records the engine saw");
            model.user(asid, rec);
        }
        offsets[seg.proc] += seg.len;
    }
    model.finish()
}
