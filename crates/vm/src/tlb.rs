//! The translation lookaside buffer.

use crate::page::{FrameId, Vpn};
use rampage_trace::Asid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found a translation.
    pub hits: u64,
    /// Lookups that missed (handler invoked).
    pub misses: u64,
    /// Entries flushed because their page was replaced.
    pub flushes: u64,
}

impl TlbStats {
    /// Miss ratio in `[0, 1]`; 0 for an unused TLB.
    pub fn miss_ratio(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    asid: Asid,
    vpn: Vpn,
    frame: FrameId,
}

/// An empty bucket of [`Tlb::index`].
const EMPTY: u32 = u32::MAX;

/// A set-associative TLB with random replacement.
///
/// The paper's configuration (§4.3) is 64 entries, fully associative,
/// random replacement, 1-cycle (pipelined, zero-cost) hits. §6.3 starts
/// measurements with a 1 K-entry 2-way TLB, which this type also covers.
///
/// In the conventional hierarchy the TLB caches virtual → DRAM-physical
/// translations; in RAMpage it caches virtual → SRAM-physical
/// translations, so "a TLB miss never results in a reference below the
/// SRAM main memory" (§2.3).
#[derive(Debug)]
pub struct Tlb {
    sets: usize,
    ways: usize,
    /// `sets * ways` slots, row-major by set.
    slots: Vec<Option<Entry>>,
    /// Exact-match index for O(1) lookup: an open-addressed table
    /// (multiplicative hash, linear probing) of occupied slot numbers,
    /// [`EMPTY`] elsewhere. It has at least twice as many buckets as
    /// slots, so every probe run ends at an empty bucket. Keys come from
    /// traces, which may be external, but even keys that all collide
    /// cost no more than a scan of the TLB's few slots.
    index: Vec<u32>,
    /// `log2(index.len())`.
    index_bits: u32,
    /// The slot of the last lookup hit. Trusted only while the slot
    /// still holds the page looked up, so nothing that refills or
    /// flushes a slot has to update it.
    memo: usize,
    rng: StdRng,
    stats: TlbStats,
}

impl Tlb {
    /// The paper's TLB: 64 entries, fully associative.
    pub fn paper_default() -> Self {
        Tlb::new(1, 64, 0x71b_5eed)
    }

    /// The §6.3 future-work TLB: 1 K entries, 2-way.
    pub fn large_2way() -> Self {
        Tlb::new(512, 2, 0x71b_5eed)
    }

    /// A TLB of `sets` sets × `ways` ways with the given RNG seed for
    /// random replacement.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, `sets` is not a power of two,
    /// or the TLB has 2^31 entries or more.
    pub fn new(sets: usize, ways: usize, seed: u64) -> Self {
        assert!(sets > 0 && ways > 0, "TLB needs capacity");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let buckets = (2 * sets * ways).next_power_of_two();
        assert!(buckets <= EMPTY as usize, "TLB too large to index");
        Tlb {
            sets,
            ways,
            slots: vec![None; sets * ways],
            index: vec![EMPTY; buckets],
            index_bits: buckets.trailing_zeros(),
            memo: 0,
            rng: StdRng::seed_from_u64(seed),
            stats: TlbStats::default(),
        }
    }

    /// Total entries.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Zero the statistics.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        (vpn.0 as usize) & (self.sets - 1)
    }

    /// Whether `slot` holds the translation of `(asid, vpn)`.
    #[inline]
    fn holds(&self, slot: usize, asid: Asid, vpn: Vpn) -> bool {
        matches!(self.slots[slot], Some(e) if e.asid == asid && e.vpn == vpn)
    }

    /// The bucket a key's probe run starts at (Fibonacci hashing).
    #[inline]
    fn home(&self, asid: Asid, vpn: Vpn) -> usize {
        let key = vpn.0 ^ (u64::from(asid.0) << 48);
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - self.index_bits)) as usize
    }

    /// The bucket indexing `(asid, vpn)`, if it is present.
    #[inline]
    fn bucket_of(&self, asid: Asid, vpn: Vpn) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut b = self.home(asid, vpn);
        loop {
            let slot = self.index[b];
            if slot == EMPTY {
                return None;
            }
            if self.holds(slot as usize, asid, vpn) {
                return Some(b);
            }
            b = (b + 1) & mask;
        }
    }

    /// The slot holding `(asid, vpn)`, if any.
    #[inline]
    fn find(&self, asid: Asid, vpn: Vpn) -> Option<usize> {
        self.bucket_of(asid, vpn).map(|b| self.index[b] as usize)
    }

    /// Index `slot`, which now holds `(asid, vpn)`.
    fn index_slot(&mut self, asid: Asid, vpn: Vpn, slot: usize) {
        let mask = self.index.len() - 1;
        let mut b = self.home(asid, vpn);
        while self.index[b] != EMPTY {
            b = (b + 1) & mask;
        }
        self.index[b] = slot as u32;
    }

    /// Drop `(asid, vpn)` from the index, returning its slot (which the
    /// caller empties or refills). Backward-shift deletion: each later
    /// entry of the probe run moves into the hole unless the hole lies
    /// before its home bucket, so no tombstones are needed.
    fn unindex(&mut self, asid: Asid, vpn: Vpn) -> Option<usize> {
        let found = self.bucket_of(asid, vpn)?;
        let slot = self.index[found] as usize;
        let mask = self.index.len() - 1;
        let mut hole = found;
        let mut b = found;
        loop {
            b = (b + 1) & mask;
            let s = self.index[b];
            if s == EMPTY {
                break;
            }
            let Some(e) = self.slots[s as usize] else {
                // invariant: the index only holds occupied slots; a slot
                // leaves the index before it is emptied or refilled.
                unreachable!("TLB invariant: indexed slot {s} is empty")
            };
            let home = self.home(e.asid, e.vpn);
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = s;
                hole = b;
            }
        }
        self.index[hole] = EMPTY;
        Some(slot)
    }

    /// Look up a translation, counting a hit or miss.
    #[inline]
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<FrameId> {
        let slot = if self.holds(self.memo, asid, vpn) {
            self.memo
        } else if let Some(slot) = self.find(asid, vpn) {
            self.memo = slot;
            slot
        } else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.slots[slot].map(|e| e.frame)
    }

    /// Peek without touching statistics (for assertions and tests).
    pub fn peek(&self, asid: Asid, vpn: Vpn) -> Option<FrameId> {
        self.find(asid, vpn)
            .and_then(|slot| self.slots[slot].map(|e| e.frame))
    }

    /// Insert a translation (after a handler refill), evicting a random
    /// way of the set if full. Returns the displaced translation, if any.
    pub fn insert(&mut self, asid: Asid, vpn: Vpn, frame: FrameId) -> Option<(Asid, Vpn)> {
        // Refresh in place if already present.
        if let Some(slot) = self.find(asid, vpn) {
            self.slots[slot] = Some(Entry { asid, vpn, frame });
            return None;
        }
        let set = self.set_of(vpn);
        let base = set * self.ways;
        let slot = match (0..self.ways).find(|&w| self.slots[base + w].is_none()) {
            Some(w) => base + w,
            None => base + self.rng.gen_range(0..self.ways),
        };
        let displaced = self.slots[slot].map(|e| {
            self.unindex(e.asid, e.vpn);
            (e.asid, e.vpn)
        });
        self.slots[slot] = Some(Entry { asid, vpn, frame });
        self.index_slot(asid, vpn, slot);
        displaced
    }

    /// Drop the translation for one page (paper §2.3: "if a page is
    /// replaced from the SRAM main memory, its entry (if it has one) in
    /// the TLB is flushed"). Returns whether an entry was present.
    pub fn flush_page(&mut self, asid: Asid, vpn: Vpn) -> bool {
        match self.unindex(asid, vpn) {
            Some(slot) => {
                self.slots[slot] = None;
                self.stats.flushes += 1;
                true
            }
            None => false,
        }
    }

    /// Drop every translation (e.g. on a full address-space teardown).
    pub fn flush_all(&mut self) {
        self.slots.fill(None);
        self.index.fill(EMPTY);
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u16) -> Asid {
        Asid(n)
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut t = Tlb::paper_default();
        assert_eq!(t.lookup(a(1), Vpn(10)), None);
        t.insert(a(1), Vpn(10), FrameId(5));
        assert_eq!(t.lookup(a(1), Vpn(10)), Some(FrameId(5)));
        let s = t.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn asids_do_not_alias() {
        let mut t = Tlb::paper_default();
        t.insert(a(1), Vpn(10), FrameId(5));
        assert_eq!(t.lookup(a(2), Vpn(10)), None);
    }

    #[test]
    fn capacity_eviction_is_bounded() {
        let mut t = Tlb::new(1, 4, 7);
        for i in 0..20u64 {
            t.insert(a(1), Vpn(i), FrameId(i as u32));
        }
        assert_eq!(t.occupancy(), 4, "never exceeds capacity");
        // Exactly 4 of the 20 remain translatable.
        let present = (0..20u64)
            .filter(|&i| t.peek(a(1), Vpn(i)).is_some())
            .count();
        assert_eq!(present, 4);
    }

    #[test]
    fn eviction_reports_displaced_translation() {
        let mut t = Tlb::new(1, 1, 7);
        assert_eq!(t.insert(a(1), Vpn(1), FrameId(1)), None);
        let displaced = t.insert(a(1), Vpn(2), FrameId(2));
        assert_eq!(displaced, Some((a(1), Vpn(1))));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut t = Tlb::new(1, 2, 7);
        t.insert(a(1), Vpn(1), FrameId(1));
        assert_eq!(t.insert(a(1), Vpn(1), FrameId(9)), None);
        assert_eq!(t.peek(a(1), Vpn(1)), Some(FrameId(9)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn flush_page_removes_only_that_page() {
        let mut t = Tlb::paper_default();
        t.insert(a(1), Vpn(1), FrameId(1));
        t.insert(a(1), Vpn(2), FrameId(2));
        assert!(t.flush_page(a(1), Vpn(1)));
        assert!(!t.flush_page(a(1), Vpn(1)), "already gone");
        assert_eq!(t.peek(a(1), Vpn(1)), None);
        assert_eq!(t.peek(a(1), Vpn(2)), Some(FrameId(2)));
        assert_eq!(t.stats().flushes, 1);
    }

    #[test]
    fn set_associative_maps_by_low_vpn_bits() {
        let mut t = Tlb::new(2, 1, 7);
        // Vpn 0 and Vpn 2 share set 0; Vpn 1 goes to set 1.
        t.insert(a(1), Vpn(0), FrameId(0));
        t.insert(a(1), Vpn(1), FrameId(1));
        t.insert(a(1), Vpn(2), FrameId(2)); // evicts Vpn 0
        assert_eq!(t.peek(a(1), Vpn(0)), None);
        assert_eq!(t.peek(a(1), Vpn(1)), Some(FrameId(1)));
        assert_eq!(t.peek(a(1), Vpn(2)), Some(FrameId(2)));
    }

    #[test]
    fn flush_all_empties() {
        let mut t = Tlb::paper_default();
        for i in 0..10u64 {
            t.insert(a(1), Vpn(i), FrameId(i as u32));
        }
        t.flush_all();
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.peek(a(1), Vpn(3)), None);
    }

    #[test]
    fn paper_configurations() {
        assert_eq!(Tlb::paper_default().capacity(), 64);
        assert_eq!(Tlb::large_2way().capacity(), 1024);
    }

    #[test]
    fn miss_ratio() {
        let mut t = Tlb::paper_default();
        t.lookup(a(1), Vpn(0));
        t.insert(a(1), Vpn(0), FrameId(0));
        t.lookup(a(1), Vpn(0));
        t.lookup(a(1), Vpn(0));
        assert!((t.stats().miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(TlbStats::default().miss_ratio(), 0.0);
    }

    /// The TLB as a linear scan over its slots: the specification the
    /// indexed [`Tlb`] must match op for op, including the RNG draws of
    /// random replacement.
    struct ScanTlb {
        sets: usize,
        ways: usize,
        slots: Vec<Option<Entry>>,
        rng: StdRng,
        stats: TlbStats,
    }

    impl ScanTlb {
        fn new(sets: usize, ways: usize, seed: u64) -> Self {
            ScanTlb {
                sets,
                ways,
                slots: vec![None; sets * ways],
                rng: StdRng::seed_from_u64(seed),
                stats: TlbStats::default(),
            }
        }

        fn find(&self, asid: Asid, vpn: Vpn) -> Option<usize> {
            self.slots
                .iter()
                .position(|s| matches!(s, Some(e) if e.asid == asid && e.vpn == vpn))
        }

        fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<FrameId> {
            let hit = self.find(asid, vpn).and_then(|i| self.slots[i]);
            match hit {
                Some(_) => self.stats.hits += 1,
                None => self.stats.misses += 1,
            }
            hit.map(|e| e.frame)
        }

        fn insert(&mut self, asid: Asid, vpn: Vpn, frame: FrameId) -> Option<(Asid, Vpn)> {
            let entry = Some(Entry { asid, vpn, frame });
            if let Some(i) = self.find(asid, vpn) {
                self.slots[i] = entry;
                return None;
            }
            let base = (vpn.0 as usize & (self.sets - 1)) * self.ways;
            let slot = match (0..self.ways).find(|&w| self.slots[base + w].is_none()) {
                Some(w) => base + w,
                None => base + self.rng.gen_range(0..self.ways),
            };
            let displaced = self.slots[slot].map(|e| (e.asid, e.vpn));
            self.slots[slot] = entry;
            displaced
        }

        fn flush_page(&mut self, asid: Asid, vpn: Vpn) -> bool {
            let Some(i) = self.find(asid, vpn) else {
                return false;
            };
            self.slots[i] = None;
            self.stats.flushes += 1;
            true
        }

        fn flush_all(&mut self) {
            self.slots.fill(None);
        }

        fn occupancy(&self) -> usize {
            self.slots.iter().filter(|s| s.is_some()).count()
        }
    }

    /// Run one op on both TLBs and require the same answer and state.
    fn step(t: &mut Tlb, r: &mut ScanTlb, op: u32, asid: Asid, vpn: Vpn, frame: FrameId) {
        let what = format!("op {op} on ({asid:?}, {vpn:?})");
        match op {
            0 => assert_eq!(t.lookup(asid, vpn), r.lookup(asid, vpn), "{what}"),
            1 => assert_eq!(
                t.insert(asid, vpn, frame),
                r.insert(asid, vpn, frame),
                "{what}"
            ),
            2 => assert_eq!(t.flush_page(asid, vpn), r.flush_page(asid, vpn), "{what}"),
            _ => {
                t.flush_all();
                r.flush_all();
            }
        }
        assert_eq!(t.stats(), r.stats, "{what}");
        assert_eq!(t.occupancy(), r.occupancy(), "{what}");
    }

    #[test]
    fn indexed_tlb_matches_a_linear_scan() {
        for (sets, ways) in [(1, 64), (512, 2)] {
            let mut t = Tlb::new(sets, ways, 0x71b_5eed);
            let mut r = ScanTlb::new(sets, ways, 0x71b_5eed);
            let mut ops = StdRng::seed_from_u64(sets as u64);
            // Twice the capacity in pages over three address spaces:
            // enough conflict for evictions, enough reuse for hits.
            let pages = 2 * t.capacity() as u64;
            for i in 0..50_000u32 {
                // Mostly lookups and inserts; one flush_all per ~5 000 ops.
                let op = match ops.gen_range(0..5_000u32) {
                    0 => 3,
                    n if n < 500 => 2,
                    n if n < 2_500 => 1,
                    _ => 0,
                };
                let asid = a(ops.gen_range(0..3u16));
                let vpn = Vpn(ops.gen_range(0..pages));
                step(&mut t, &mut r, op, asid, vpn, FrameId(i));
            }
            assert!(r.stats.hits > 0 && r.stats.misses > 0 && r.stats.flushes > 0);
        }
    }

    #[test]
    fn memoised_page_is_not_trusted_after_flush() {
        let mut t = Tlb::new(1, 4, 7);
        let mut r = ScanTlb::new(1, 4, 7);
        step(&mut t, &mut r, 1, a(1), Vpn(5), FrameId(50));
        step(&mut t, &mut r, 0, a(1), Vpn(5), FrameId(0)); // memoised hit
        step(&mut t, &mut r, 2, a(1), Vpn(5), FrameId(0));
        step(&mut t, &mut r, 0, a(1), Vpn(5), FrameId(0));
        assert_eq!(t.stats().misses, 1, "a flushed page misses");
        // Refilled with another page: the memo slot holds (1, 6) now.
        step(&mut t, &mut r, 1, a(1), Vpn(6), FrameId(60));
        step(&mut t, &mut r, 0, a(1), Vpn(5), FrameId(0));
        step(&mut t, &mut r, 0, a(1), Vpn(6), FrameId(0));
        // flush_all empties the memo slot too.
        step(&mut t, &mut r, 3, a(1), Vpn(6), FrameId(0));
        step(&mut t, &mut r, 0, a(1), Vpn(6), FrameId(0));
    }

    #[test]
    fn memoised_page_is_not_trusted_after_eviction() {
        // One 1-way set: every insert of a new page evicts the memo slot.
        let mut t = Tlb::new(1, 1, 7);
        let mut r = ScanTlb::new(1, 1, 7);
        step(&mut t, &mut r, 1, a(1), Vpn(1), FrameId(10));
        step(&mut t, &mut r, 0, a(1), Vpn(1), FrameId(0)); // memoised hit
        step(&mut t, &mut r, 1, a(2), Vpn(1), FrameId(20)); // same slot, other asid
        step(&mut t, &mut r, 0, a(1), Vpn(1), FrameId(0));
        assert_eq!(t.lookup(a(2), Vpn(1)), Some(FrameId(20)));
        // Re-inserting the memoised page refreshes its frame in place.
        assert_eq!(t.insert(a(2), Vpn(1), FrameId(21)), None);
        assert_eq!(t.lookup(a(2), Vpn(1)), Some(FrameId(21)));
    }
}
