//! The inverted page table.

use crate::error::VmError;
use crate::page::{FrameId, Vpn};
use rampage_cache::PhysAddr;
use rampage_trace::Asid;

/// What a frame currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// Owning address space.
    pub asid: Asid,
    /// Virtual page mapped into this frame.
    pub vpn: Vpn,
    /// Referenced bit for the clock algorithm.
    pub referenced: bool,
    /// Dirty: the frame must be written back on replacement.
    pub dirty: bool,
    /// Pinned frames (OS code, the page table itself) are never replaced.
    pub pinned: bool,
}

/// Result of a table lookup: the frame (if mapped) and the physical
/// addresses the lookup touched — one hash-anchor-table slot plus one
/// entry per chain step. The TLB-miss handler in [`crate::os`] replays
/// these through the simulated hierarchy, so longer chains genuinely cost
/// more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IptLookup {
    /// The mapped frame, or `None` (page fault).
    pub frame: Option<FrameId>,
    /// Physical addresses probed, in order.
    pub probe_addrs: Vec<PhysAddr>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    mapping: Option<Mapping>,
    /// Next frame on the same hash chain.
    next: Option<FrameId>,
}

/// An inverted page table: one entry per physical frame, reached through a
/// hash anchor table (HAT) with per-bucket chains (the structure of
/// Huck & Hays 1993, which the paper cites in §2.2).
///
/// The paper chooses an inverted table because the SRAM main memory is
/// small, the table size is fixed (so it can be pinned in SRAM), and with
/// the whole of SRAM mapped by a pinned table "a TLB miss need never
/// reference DRAM or disk, until there is a page fault from SRAM."
///
/// The table knows its own physical layout (`table_base`): the HAT is an
/// array of 4-byte frame indices, followed by 16-byte entries, so lookups
/// report the exact addresses a software handler would touch.
#[derive(Debug)]
pub struct InvertedPageTable {
    slots: Vec<Slot>,
    hat: Vec<Option<FrameId>>,
    free: Vec<FrameId>,
    table_base: PhysAddr,
    mapped: u32,
}

/// Bytes per hash-anchor-table slot (a frame index).
const HAT_ENTRY_BYTES: u64 = 4;
/// Bytes per table entry (ASID + VPN + flags + chain link).
pub(crate) const ENTRY_BYTES: u64 = 16;

impl InvertedPageTable {
    /// Create a table covering `num_frames` frames, resident at
    /// `table_base` in the physical space it maps.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames` is zero.
    pub fn new(num_frames: u32, table_base: PhysAddr) -> Self {
        assert!(num_frames > 0, "a paged memory needs frames");
        // One bucket per frame (rounded up to a power of two): the
        // classic inverted-table load factor, and it keeps the pinned
        // table within the paper's §4.5 OS-region budget.
        let buckets = (num_frames as usize).next_power_of_two();
        InvertedPageTable {
            slots: vec![Slot::default(); num_frames as usize],
            hat: vec![None; buckets],
            // Allocate low frames first: pop from the back.
            free: (0..num_frames).rev().map(FrameId).collect(),
            table_base,
            mapped: 0,
        }
    }

    /// Number of frames covered.
    pub fn num_frames(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Number of currently mapped frames.
    pub fn mapped_frames(&self) -> u32 {
        self.mapped
    }

    /// Number of hash-anchor-table buckets.
    pub fn hat_buckets(&self) -> usize {
        self.hat.len()
    }

    /// Total bytes the table occupies (HAT + entries) — the quantity the
    /// OS pins in SRAM (paper §4.5: 6 pages at a 4 KB page size, up to
    /// 5336 pages at 128 bytes).
    pub fn table_bytes(&self) -> u64 {
        self.hat.len() as u64 * HAT_ENTRY_BYTES + self.slots.len() as u64 * ENTRY_BYTES
    }

    fn bucket_of(&self, asid: Asid, vpn: Vpn) -> usize {
        let key = ((asid.0 as u64) << 48) ^ vpn.0;
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> (64 - self.hat.len().trailing_zeros())) as usize
    }

    fn hat_addr(&self, bucket: usize) -> PhysAddr {
        PhysAddr(self.table_base.0 + bucket as u64 * HAT_ENTRY_BYTES)
    }

    /// Physical address of the table entry for `frame` (used by the OS
    /// model to generate clock-scan and update references).
    pub fn entry_addr(&self, frame: FrameId) -> PhysAddr {
        PhysAddr(
            self.table_base.0
                + self.hat.len() as u64 * HAT_ENTRY_BYTES
                + frame.0 as u64 * ENTRY_BYTES,
        )
    }

    /// Look up `(asid, vpn)`, recording the probe addresses. On a hit the
    /// referenced bit is set (feeding the clock algorithm).
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> IptLookup {
        let mut probe_addrs = Vec::new();
        let frame = self.lookup_into(asid, vpn, &mut probe_addrs);
        IptLookup { frame, probe_addrs }
    }

    /// As [`lookup`](Self::lookup), writing the probe addresses into
    /// `probe_addrs` (cleared first) so a caller can reuse one buffer
    /// across TLB misses. Returns the mapped frame, or `None` (page
    /// fault).
    pub fn lookup_into(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        probe_addrs: &mut Vec<PhysAddr>,
    ) -> Option<FrameId> {
        let bucket = self.bucket_of(asid, vpn);
        probe_addrs.clear();
        probe_addrs.push(self.hat_addr(bucket));
        let mut cur = self.hat[bucket];
        while let Some(f) = cur {
            probe_addrs.push(self.entry_addr(f));
            let slot = &mut self.slots[f.0 as usize];
            let Some(m) = slot.mapping.as_mut() else {
                // invariant: frames on a collision chain always hold a
                // mapping; unmapped frames are unlinked on free.
                unreachable!("IPT invariant: chained frames are always mapped")
            };
            if m.asid == asid && m.vpn == vpn {
                m.referenced = true;
                return Some(f);
            }
            cur = slot.next;
        }
        None
    }

    /// Behavioural lookup: no probe recording, no referenced-bit update.
    pub fn frame_of(&self, asid: Asid, vpn: Vpn) -> Option<FrameId> {
        let bucket = self.bucket_of(asid, vpn);
        let mut cur = self.hat[bucket];
        while let Some(f) = cur {
            let slot = &self.slots[f.0 as usize];
            let m = slot.mapping.as_ref()?;
            if m.asid == asid && m.vpn == vpn {
                return Some(f);
            }
            cur = slot.next;
        }
        None
    }

    /// Take a frame from the free pool (low frame numbers first, unless
    /// shuffled with [`shuffle_free`](Self::shuffle_free)).
    pub fn alloc_free(&mut self) -> Option<FrameId> {
        self.free.pop()
    }

    /// Shuffle the free pool (deterministically, by `seed`).
    ///
    /// A real OS's free list is effectively randomly ordered, which is
    /// what makes large direct-mapped caches suffer page-placement
    /// conflicts (the problem the paper's §3.2 cites page-coloring work
    /// [KH92b, BLRC94] for). Sequential allocation would amount to
    /// perfect page coloring and unrealistically flatter the baseline.
    pub fn shuffle_free(&mut self, seed: u64) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        self.free.shuffle(&mut rng);
    }

    /// Number of unmapped frames remaining.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Map `(asid, vpn)` into `frame`, linking it onto its hash chain.
    ///
    /// # Errors
    ///
    /// [`VmError::FrameAlreadyMapped`] / [`VmError::PageAlreadyMapped`]
    /// when the frame or the pair is already in use (both are OS bugs in
    /// a real system); the table is unchanged on error.
    pub fn try_insert(&mut self, frame: FrameId, asid: Asid, vpn: Vpn) -> Result<(), VmError> {
        if self.slots[frame.0 as usize].mapping.is_some() {
            return Err(VmError::FrameAlreadyMapped { frame });
        }
        if self.frame_of(asid, vpn).is_some() {
            return Err(VmError::PageAlreadyMapped { asid, vpn });
        }
        let bucket = self.bucket_of(asid, vpn);
        self.slots[frame.0 as usize] = Slot {
            mapping: Some(Mapping {
                asid,
                vpn,
                referenced: true,
                dirty: false,
                pinned: false,
            }),
            next: self.hat[bucket],
        };
        self.hat[bucket] = Some(frame);
        self.mapped += 1;
        Ok(())
    }

    /// Map `(asid, vpn)` into `frame`, linking it onto its hash chain.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already mapped or the pair is already
    /// mapped elsewhere; use [`try_insert`](Self::try_insert) to handle
    /// those as values.
    pub fn insert(&mut self, frame: FrameId, asid: Asid, vpn: Vpn) {
        if let Err(e) = self.try_insert(frame, asid, vpn) {
            panic!("IPT insert: {e}");
        }
    }

    /// Map and pin a frame (OS code / page-table residency). Pinned
    /// frames are skipped by the clock replacer.
    ///
    /// # Panics
    ///
    /// As [`insert`](Self::insert).
    pub fn insert_pinned(&mut self, frame: FrameId, asid: Asid, vpn: Vpn) {
        self.insert(frame, asid, vpn);
        if let Some(m) = self.slots[frame.0 as usize].mapping.as_mut() {
            m.pinned = true;
        }
    }

    /// Unmap a frame, unlinking it from its chain. Returns the old
    /// mapping (with dirty flag, for write-back).
    ///
    /// # Panics
    ///
    /// Panics if the frame is pinned.
    pub fn remove(&mut self, frame: FrameId) -> Option<Mapping> {
        let m = self.remove_reserved(frame)?;
        self.free.push(frame);
        Some(m)
    }

    /// Unmap a frame but keep it out of the free pool — the standby-list
    /// path, where the frame's contents stay intact until the page is
    /// discarded for real. Pair with [`release`](Self::release).
    ///
    /// # Errors
    ///
    /// [`VmError::PinnedFrame`] if the frame is pinned (pinned frames
    /// hold the OS and the table itself; replacing one is a kernel bug).
    pub fn try_remove_reserved(&mut self, frame: FrameId) -> Result<Option<Mapping>, VmError> {
        let Some(m) = self.slots[frame.0 as usize].mapping else {
            return Ok(None);
        };
        if m.pinned {
            return Err(VmError::PinnedFrame { frame });
        }
        let bucket = self.bucket_of(m.asid, m.vpn);
        // Unlink from the chain.
        if self.hat[bucket] == Some(frame) {
            self.hat[bucket] = self.slots[frame.0 as usize].next;
        } else {
            let mut cur = self.hat[bucket];
            while let Some(f) = cur {
                let next = self.slots[f.0 as usize].next;
                if next == Some(frame) {
                    self.slots[f.0 as usize].next = self.slots[frame.0 as usize].next;
                    break;
                }
                cur = next;
            }
        }
        self.slots[frame.0 as usize] = Slot::default();
        self.mapped -= 1;
        Ok(Some(m))
    }

    /// As [`try_remove_reserved`](Self::try_remove_reserved), panicking
    /// on a pinned frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is pinned.
    pub fn remove_reserved(&mut self, frame: FrameId) -> Option<Mapping> {
        match self.try_remove_reserved(frame) {
            Ok(m) => m,
            Err(e) => panic!("IPT remove: {e}"),
        }
    }

    /// Return a frame previously detached with
    /// [`remove_reserved`](Self::remove_reserved) to the free pool (its
    /// standby contents have been discarded).
    ///
    /// # Panics
    ///
    /// Panics if the frame is still mapped.
    pub fn release(&mut self, frame: FrameId) {
        assert!(
            self.slots[frame.0 as usize].mapping.is_none(),
            "releasing a mapped frame {frame}"
        );
        debug_assert!(!self.free.contains(&frame), "double release of {frame}");
        self.free.push(frame);
    }

    /// The mapping currently in `frame`, if any.
    pub fn mapping(&self, frame: FrameId) -> Option<&Mapping> {
        self.slots[frame.0 as usize].mapping.as_ref()
    }

    /// Set the dirty bit of a mapped frame (on write-back into the page).
    ///
    /// # Panics
    ///
    /// Panics if the frame is unmapped (the caller just resolved the
    /// frame through the TLB or table, so this is an internal invariant).
    pub fn set_dirty(&mut self, frame: FrameId) {
        match self.slots[frame.0 as usize].mapping.as_mut() {
            Some(m) => m.dirty = true,
            None => panic!("VM invariant: dirtying unmapped {frame}"),
        }
    }

    /// Clear the referenced bit (the clock hand sweeping past).
    pub(crate) fn clear_referenced(&mut self, frame: FrameId) {
        if let Some(m) = self.slots[frame.0 as usize].mapping.as_mut() {
            m.referenced = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(frames: u32) -> InvertedPageTable {
        InvertedPageTable::new(frames, PhysAddr(0x1000))
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t = table(8);
        let f = t.alloc_free().unwrap();
        assert_eq!(f, FrameId(0), "low frames first");
        t.insert(f, Asid(1), Vpn(42));
        assert_eq!(t.frame_of(Asid(1), Vpn(42)), Some(f));
        assert_eq!(t.mapped_frames(), 1);
        let m = t.remove(f).unwrap();
        assert_eq!(m.vpn, Vpn(42));
        assert_eq!(t.frame_of(Asid(1), Vpn(42)), None);
        assert_eq!(t.free_frames(), 8);
    }

    #[test]
    fn lookup_records_hat_and_chain_probes() {
        let mut t = table(8);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(1));
        let r = t.lookup(Asid(1), Vpn(1));
        assert_eq!(r.frame, Some(f));
        // One HAT probe + one entry probe.
        assert_eq!(r.probe_addrs.len(), 2);
        assert!(r.probe_addrs[0].0 >= 0x1000);
        // A missing page probes at least the HAT slot.
        let miss = t.lookup(Asid(9), Vpn(9));
        assert_eq!(miss.frame, None);
        assert!(!miss.probe_addrs.is_empty());
    }

    #[test]
    fn chains_grow_probe_sequences() {
        // Force every page into the same bucket by brute force: insert
        // many pages and find a bucket with a chain of length >= 2.
        let mut t = table(64);
        for i in 0..64u64 {
            let f = t.alloc_free().unwrap();
            t.insert(f, Asid(1), Vpn(i));
        }
        let max_probes = (0..64u64)
            .map(|i| t.lookup(Asid(1), Vpn(i)).probe_addrs.len())
            .max()
            .unwrap();
        assert!(
            max_probes >= 2,
            "with 64 pages in 128 buckets some chain should exist; max {max_probes}"
        );
    }

    #[test]
    fn remove_from_middle_of_chain_preserves_rest() {
        let mut t = table(64);
        // Fill completely so chains certainly form.
        for i in 0..64u64 {
            let f = t.alloc_free().unwrap();
            t.insert(f, Asid(1), Vpn(i));
        }
        // Remove every even page, then verify all odd pages still resolve.
        for i in (0..64u64).step_by(2) {
            let f = t.frame_of(Asid(1), Vpn(i)).unwrap();
            t.remove(f);
        }
        for i in (1..64u64).step_by(2) {
            assert!(
                t.frame_of(Asid(1), Vpn(i)).is_some(),
                "odd page {i} lost its mapping"
            );
        }
        assert_eq!(t.mapped_frames(), 32);
    }

    #[test]
    fn lookup_into_matches_lookup() {
        // Twin tables, full (so chains form), then thinned out so some
        // chains have had entries unlinked from the middle.
        let mut twins = [table(64), table(64)];
        for t in &mut twins {
            for i in 0..64u64 {
                let f = t.alloc_free().unwrap();
                t.insert(f, Asid(1 + (i % 2) as u16), Vpn(i));
            }
            for i in (0..64u64).step_by(3) {
                let f = t.frame_of(Asid(1 + (i % 2) as u16), Vpn(i)).unwrap();
                t.remove(f);
            }
        }
        let [mut a, mut b] = twins;
        let mut buf = vec![PhysAddr(0xdead); 5];
        let mut longest = 0;
        for asid in [Asid(1), Asid(2), Asid(3)] {
            for vpn in (0..80u64).map(Vpn) {
                // Clear every referenced bit so each lookup's effect shows.
                for f in (0..64).map(FrameId) {
                    a.clear_referenced(f);
                    b.clear_referenced(f);
                }
                let want = a.lookup(asid, vpn);
                let got = b.lookup_into(asid, vpn, &mut buf);
                assert_eq!(got, want.frame, "{asid:?} {vpn:?}");
                assert_eq!(
                    buf, want.probe_addrs,
                    "{asid:?} {vpn:?}: buffer cleared first"
                );
                for f in (0..64).map(FrameId) {
                    assert_eq!(a.mapping(f), b.mapping(f), "{asid:?} {vpn:?} {f}");
                }
                longest = longest.max(buf.len());
            }
        }
        assert!(longest >= 3, "some walk followed a chain: {longest} probes");
    }

    #[test]
    fn referenced_bit_set_on_lookup() {
        let mut t = table(4);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(7));
        t.clear_referenced(f);
        assert!(!t.mapping(f).unwrap().referenced);
        t.lookup(Asid(1), Vpn(7));
        assert!(t.mapping(f).unwrap().referenced);
    }

    #[test]
    fn dirty_bit_lifecycle() {
        let mut t = table(4);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(7));
        assert!(!t.mapping(f).unwrap().dirty);
        t.set_dirty(f);
        let m = t.remove(f).unwrap();
        assert!(m.dirty, "write-back needed");
    }

    #[test]
    #[should_panic(expected = "pinned")]
    fn pinned_frames_cannot_be_removed() {
        let mut t = table(4);
        let f = t.alloc_free().unwrap();
        t.insert_pinned(f, Asid(0), Vpn(0));
        t.remove(f);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_insert_is_a_bug() {
        let mut t = table(4);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(1));
        t.insert(f, Asid(1), Vpn(2));
    }

    #[test]
    fn try_insert_reports_conflicts_without_mutating() {
        use crate::error::VmError;
        let mut t = table(4);
        let f = t.alloc_free().unwrap();
        assert_eq!(t.try_insert(f, Asid(1), Vpn(1)), Ok(()));
        assert_eq!(
            t.try_insert(f, Asid(1), Vpn(2)),
            Err(VmError::FrameAlreadyMapped { frame: f })
        );
        let g = t.alloc_free().unwrap();
        assert_eq!(
            t.try_insert(g, Asid(1), Vpn(1)),
            Err(VmError::PageAlreadyMapped {
                asid: Asid(1),
                vpn: Vpn(1)
            })
        );
        assert_eq!(t.mapped_frames(), 1, "failed inserts change nothing");
        assert_eq!(t.frame_of(Asid(1), Vpn(1)), Some(f));
    }

    #[test]
    fn try_remove_reserved_refuses_pinned() {
        use crate::error::VmError;
        let mut t = table(4);
        let f = t.alloc_free().unwrap();
        t.insert_pinned(f, Asid(0), Vpn(0));
        assert_eq!(
            t.try_remove_reserved(f),
            Err(VmError::PinnedFrame { frame: f })
        );
        assert_eq!(t.mapped_frames(), 1, "pinned mapping survives");
    }

    #[test]
    fn table_bytes_scale_with_frames() {
        // 4.125 MB of SRAM at 128-byte pages = 33792 frames: entries alone
        // are 528 KB, matching the order of the paper's 667 KB OS region.
        let t = InvertedPageTable::new(33792, PhysAddr(0));
        let bytes = t.table_bytes();
        assert!(bytes > 528 * 1024, "entries: {bytes}");
        assert!(bytes < 1024 * 1024, "but below 1 MB: {bytes}");
    }

    #[test]
    fn remove_reserved_keeps_frame_out_of_pool() {
        let mut t = table(2);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(1));
        let m = t.remove_reserved(f).unwrap();
        assert_eq!(m.vpn, Vpn(1));
        assert_eq!(t.frame_of(Asid(1), Vpn(1)), None, "unmapped");
        assert_eq!(t.free_frames(), 1, "frame 0 reserved, frame 1 free");
        t.release(f);
        assert_eq!(t.free_frames(), 2);
    }

    #[test]
    #[should_panic(expected = "releasing a mapped frame")]
    fn release_of_mapped_frame_is_a_bug() {
        let mut t = table(2);
        let f = t.alloc_free().unwrap();
        t.insert(f, Asid(1), Vpn(1));
        t.release(f);
    }

    #[test]
    fn alloc_exhausts_then_none() {
        let mut t = table(2);
        assert!(t.alloc_free().is_some());
        assert!(t.alloc_free().is_some());
        assert!(t.alloc_free().is_none());
    }
}
