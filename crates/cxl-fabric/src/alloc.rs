//! Pool capacity allocation: carving segments out of the pod's MHDs.
//!
//! The pool is managed Pond-style: capacity is assigned to hosts in
//! *segments*, each backed by one or more MHDs with hardware
//! interleaving at 256 B granularity. A segment is either private to one
//! host or shared by an explicit host group (the shared segments are
//! what the PCIe-pooling datapath lives in).

use serde::Serialize;

use crate::error::FabricError;
use crate::params::INTERLEAVE_GRANULE;
use crate::topology::{DomainId, HostId, MhdId, Topology};

/// Identifies an allocated segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct SegmentId(pub u64);

/// How a segment relates to the pod's failure domains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum DomainPlacement {
    /// No domain constraint: interleave across whatever MHDs the
    /// owners reach (the pre-multi-domain behavior).
    Any,
    /// Every interleave way must come from this one failure domain —
    /// the segment dies with the domain, but a remote domain outage
    /// cannot touch it.
    Pinned(DomainId),
    /// The interleave set must span at least `min_domains` distinct
    /// failure domains, so losing one domain leaves surviving stripes
    /// for the striping/replication layer to rebuild from.
    Striped {
        /// Minimum number of distinct domains in the interleave set.
        min_domains: usize,
    },
}

/// A contiguous pool-address range backed by an interleave set of MHDs.
#[derive(Clone, Debug, Serialize)]
pub struct Segment {
    id: SegmentId,
    base: u64,
    len: u64,
    ways: Vec<MhdId>,
    owners: Vec<HostId>,
}

impl Segment {
    /// The segment's id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// First pool address of the segment.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the segment is empty (never produced by the allocator).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One-past-the-end pool address.
    pub fn end(&self) -> u64 {
        self.base + self.len
    }

    /// The MHD interleave set backing this segment.
    pub fn ways(&self) -> &[MhdId] {
        &self.ways
    }

    /// Hosts entitled to access the segment.
    pub fn owners(&self) -> &[HostId] {
        &self.owners
    }

    /// True if `host` may access this segment.
    pub fn grants(&self, host: HostId) -> bool {
        self.owners.contains(&host)
    }

    /// The MHD backing the interleave granule that contains pool address
    /// `hpa`.
    ///
    /// # Panics
    ///
    /// Panics if `hpa` is outside the segment.
    pub fn mhd_for(&self, hpa: u64) -> MhdId {
        assert!(
            hpa >= self.base && hpa < self.end(),
            "hpa {hpa:#x} outside segment [{:#x}, {:#x})",
            self.base,
            self.end()
        );
        let granule = (hpa - self.base) / INTERLEAVE_GRANULE;
        self.ways[(granule % self.ways.len() as u64) as usize]
    }

    /// Splits the byte range `[hpa, hpa + len)` into per-MHD byte
    /// counts, following the interleave pattern: clears `out` and
    /// fills it sorted by MHD id, so callers that charge stateful link
    /// timelines stay deterministic across runs. Datapath-timing
    /// callers reuse one scratch vector across calls, so the hot path
    /// allocates nothing. The interleave set is a handful of ways, so
    /// accumulation is a linear probe.
    pub fn spread_into(&self, hpa: u64, len: u64, out: &mut Vec<(MhdId, u64)>) {
        out.clear();
        if len == 0 {
            return;
        }
        let end = hpa + len;
        // Every ring slot and every 64 B access lies inside one granule,
        // so on one MHD: no granule walk, nothing to sort.
        if hpa / INTERLEAVE_GRANULE == (end - 1) / INTERLEAVE_GRANULE {
            out.push((self.mhd_for(hpa), len));
            return;
        }
        let mut cur = hpa;
        while cur < end {
            let granule_end = (cur / INTERLEAVE_GRANULE + 1) * INTERLEAVE_GRANULE;
            let n = granule_end.min(end) - cur;
            let m = self.mhd_for(cur);
            match out.iter_mut().find(|(mm, _)| *mm == m) {
                Some((_, b)) => *b += n,
                None => out.push((m, n)),
            }
            cur += n;
        }
        out.sort_unstable_by_key(|&(m, _)| m);
    }
}

/// Carves segments from per-MHD capacity and resolves addresses back to
/// segments.
pub struct PoolAllocator {
    /// Id of the next segment; ids are never reused.
    next_id: u64,
    /// Bump pointer: the next segment starts at or above it, so bases
    /// only grow and pool addresses are never reused.
    next_hpa: u64,
    /// Free bytes per MHD, indexed by MhdId.
    free: Vec<u64>,
    capacity_per_mhd: u64,
    /// Live segments in allocation order. Ids and bases both come from
    /// bump counters, so this one table is sorted by id and by base at
    /// once: address resolution is one `partition_point`, id lookup one
    /// binary search, and iteration is in id order.
    segments: Vec<Segment>,
}

impl PoolAllocator {
    /// Creates an allocator over `mhds` devices of `capacity_per_mhd`
    /// bytes each.
    pub fn new(mhds: u16, capacity_per_mhd: u64) -> PoolAllocator {
        PoolAllocator {
            next_id: 0,
            // Start pool addresses away from zero so a "null" HPA of 0
            // is always unmapped.
            next_hpa: 1 << 20,
            free: vec![capacity_per_mhd; mhds as usize],
            capacity_per_mhd,
            segments: Vec::new(),
        }
    }

    /// Allocates `len` bytes visible to `owners`, interleaved across up
    /// to `max_ways` MHDs that every owner can currently reach.
    ///
    /// MHDs are chosen by most-free-capacity first, so allocations
    /// spread across the pod. Equivalent to [`PoolAllocator::alloc_placed`]
    /// with [`DomainPlacement::Any`].
    pub fn alloc(
        &mut self,
        topology: &Topology,
        owners: &[HostId],
        len: u64,
        max_ways: usize,
    ) -> Result<Segment, FabricError> {
        self.alloc_placed(topology, owners, len, max_ways, DomainPlacement::Any)
    }

    /// Allocates `len` bytes visible to `owners` under an explicit
    /// failure-domain placement.
    ///
    /// - [`DomainPlacement::Any`] behaves like [`PoolAllocator::alloc`].
    /// - [`DomainPlacement::Pinned`] restricts the interleave set to
    ///   one domain ([`FabricError::DomainDown`] if the owners reach
    ///   no up MHD there).
    /// - [`DomainPlacement::Striped`] guarantees the interleave set
    ///   spans at least `min_domains` distinct domains, widening the
    ///   set past `max_ways` if that is what it takes
    ///   ([`FabricError::InsufficientDomains`] if the owners cannot
    ///   reach that many domains together).
    pub fn alloc_placed(
        &mut self,
        topology: &Topology,
        owners: &[HostId],
        len: u64,
        max_ways: usize,
        placement: DomainPlacement,
    ) -> Result<Segment, FabricError> {
        assert!(!owners.is_empty(), "a segment needs at least one owner");
        assert!(len > 0, "cannot allocate an empty segment");
        assert!(max_ways > 0, "need at least one interleave way");

        // Intersect reachability across all owners.
        let mut common: Vec<MhdId> = topology.reachable_mhds(owners[0]);
        for &h in &owners[1..] {
            let r = topology.reachable_mhds(h);
            common.retain(|m| r.contains(m));
        }
        if let DomainPlacement::Pinned(d) = placement {
            common.retain(|&m| topology.domain_of(m) == d);
            if common.is_empty() {
                return Err(FabricError::DomainDown(d));
            }
        }
        if common.is_empty() {
            return Err(FabricError::NoCommonMhd {
                hosts: owners.to_vec(),
            });
        }

        // Prefer the devices with the most free capacity.
        common.sort_by_key(|m| std::cmp::Reverse(self.free[m.0 as usize]));
        let ways: Vec<MhdId> = match placement {
            DomainPlacement::Striped { min_domains } => {
                let mut distinct: Vec<DomainId> =
                    common.iter().map(|&m| topology.domain_of(m)).collect();
                distinct.sort_unstable();
                distinct.dedup();
                if distinct.len() < min_domains {
                    return Err(FabricError::InsufficientDomains {
                        wanted: min_domains,
                        available: distinct.len(),
                    });
                }
                // First pass: the most-free MHD from each not-yet-covered
                // domain until min_domains are represented; second pass:
                // fill up to max_ways with whatever has the most free.
                let mut chosen: Vec<MhdId> = Vec::new();
                let mut covered: Vec<DomainId> = Vec::new();
                for &m in &common {
                    let d = topology.domain_of(m);
                    if covered.len() < min_domains && !covered.contains(&d) {
                        covered.push(d);
                        chosen.push(m);
                    }
                }
                for &m in &common {
                    if chosen.len() >= max_ways.max(min_domains) {
                        break;
                    }
                    if !chosen.contains(&m) {
                        chosen.push(m);
                    }
                }
                // Keep the interleave pattern deterministic by id.
                chosen.sort_unstable();
                chosen
            }
            _ => common.into_iter().take(max_ways).collect(),
        };

        let per_way = len.div_ceil(ways.len() as u64);
        if let Some(&tight) = ways.iter().min_by_key(|m| self.free[m.0 as usize]) {
            let free = self.free[tight.0 as usize];
            if free < per_way {
                return Err(FabricError::OutOfCapacity {
                    requested: per_way,
                    free,
                });
            }
        }
        for m in &ways {
            self.free[m.0 as usize] -= per_way;
        }

        let id = SegmentId(self.next_id);
        self.next_id += 1;
        // Keep segments granule-aligned so interleave math is exact.
        let base = self.next_hpa.next_multiple_of(INTERLEAVE_GRANULE);
        self.next_hpa = base + len;
        let seg = Segment {
            id,
            base,
            len,
            ways,
            owners: owners.to_vec(),
        };
        self.segments.push(seg.clone());
        Ok(seg)
    }

    /// Releases a segment, returning its capacity to its MHDs.
    pub fn free(&mut self, id: SegmentId) -> Result<(), FabricError> {
        let slot = self
            .slot_of(id)
            .ok_or_else(|| FabricError::UnknownEntity(format!("segment {id:?}")))?;
        let seg = self.segments.remove(slot);
        let per_way = seg.len.div_ceil(seg.ways.len() as u64);
        for m in &seg.ways {
            self.free[m.0 as usize] =
                (self.free[m.0 as usize] + per_way).min(self.capacity_per_mhd);
        }
        Ok(())
    }

    /// Resolves a pool address to its segment.
    pub fn segment_at(&self, hpa: u64) -> Result<&Segment, FabricError> {
        self.slot_at(hpa).map(|slot| &self.segments[slot])
    }

    /// Looks up a segment by id.
    pub fn segment(&self, id: SegmentId) -> Option<&Segment> {
        self.slot_of(id).map(|slot| &self.segments[slot])
    }

    /// Position in the segment table of the segment covering `hpa`.
    /// A slot names the same segment until the next alloc or free, so
    /// one access resolves its address once and reads the segment back
    /// with [`PoolAllocator::at_slot`].
    pub(crate) fn slot_at(&self, hpa: u64) -> Result<usize, FabricError> {
        // The last segment whose base is at or below `hpa`.
        let above = self.segments.partition_point(|s| s.base <= hpa);
        match above.checked_sub(1) {
            Some(slot) if hpa < self.segments[slot].end() => Ok(slot),
            _ => Err(FabricError::Unmapped { hpa }),
        }
    }

    /// The segment at `slot`, as returned by [`PoolAllocator::slot_at`].
    pub(crate) fn at_slot(&self, slot: usize) -> &Segment {
        &self.segments[slot]
    }

    fn slot_of(&self, id: SegmentId) -> Option<usize> {
        self.segments.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// Total free bytes across the pool.
    pub fn total_free(&self) -> u64 {
        self.free.iter().sum()
    }

    /// Free bytes on one MHD.
    pub fn free_on(&self, mhd: MhdId) -> u64 {
        self.free.get(mhd.0 as usize).copied().unwrap_or(0)
    }

    /// Capacity contributed by each MHD, in bytes.
    pub fn capacity_per_mhd(&self) -> u64 {
        self.capacity_per_mhd
    }

    /// Iterates over live segments in id order.
    pub fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::dense(4, 4, 2)
    }

    fn alloc4() -> PoolAllocator {
        PoolAllocator::new(4, 1 << 20)
    }

    #[test]
    fn alloc_resolve_roundtrip() {
        let t = topo();
        let mut a = alloc4();
        let seg = a.alloc(&t, &[HostId(0)], 4096, 1).expect("alloc");
        assert_eq!(seg.len(), 4096);
        let found = a.segment_at(seg.base() + 100).expect("resolve");
        assert_eq!(found.id(), seg.id());
        assert!(seg.grants(HostId(0)));
        assert!(!seg.grants(HostId(1)));
    }

    #[test]
    fn unmapped_addresses_error() {
        let t = topo();
        let mut a = alloc4();
        let seg = a.alloc(&t, &[HostId(0)], 256, 1).expect("alloc");
        assert!(matches!(a.segment_at(0), Err(FabricError::Unmapped { .. })));
        assert!(matches!(
            a.segment_at(seg.end()),
            Err(FabricError::Unmapped { .. })
        ));
    }

    #[test]
    fn shared_segment_intersects_reachability() {
        // Hosts 0 and 1 in a lambda=2/4-MHD pod reach different pairs;
        // the allocator must pick only commonly reachable devices.
        let t = topo();
        let mut a = alloc4();
        let seg = a
            .alloc(&t, &[HostId(0), HostId(1)], 8192, 4)
            .expect("alloc");
        let r0 = t.reachable_mhds(HostId(0));
        let r1 = t.reachable_mhds(HostId(1));
        for w in seg.ways() {
            assert!(r0.contains(w) && r1.contains(w), "way {w:?} not common");
        }
    }

    #[test]
    fn no_common_mhd_is_reported() {
        let mut t = topo();
        // Kill all of host 1's links.
        let victims: Vec<_> = t.host_links(HostId(1)).map(|l| l.id).collect();
        for v in victims {
            t.fail_link(v);
        }
        let mut a = alloc4();
        let err = a.alloc(&t, &[HostId(0), HostId(1)], 4096, 2).unwrap_err();
        assert!(matches!(err, FabricError::NoCommonMhd { .. }));
    }

    #[test]
    fn capacity_is_enforced_and_freed() {
        let t = topo();
        let mut a = PoolAllocator::new(4, 4096);
        let seg = a.alloc(&t, &[HostId(0)], 4096, 1).expect("fits");
        // One MHD is now full; 3 remain.
        assert_eq!(a.total_free(), 3 * 4096);
        // Allocating 2 MiB fails.
        let err = a.alloc(&t, &[HostId(0)], 1 << 21, 2).unwrap_err();
        assert!(matches!(err, FabricError::OutOfCapacity { .. }));
        a.free(seg.id()).expect("free");
        assert_eq!(a.total_free(), 4 * 4096);
    }

    #[test]
    fn double_free_errors() {
        let t = topo();
        let mut a = alloc4();
        let seg = a.alloc(&t, &[HostId(0)], 256, 1).expect("alloc");
        a.free(seg.id()).expect("first free");
        assert!(a.free(seg.id()).is_err());
    }

    #[test]
    fn interleave_round_robins_granules() {
        let t = Topology::dense(1, 4, 4);
        let mut a = alloc4();
        let seg = a
            .alloc(&t, &[HostId(0)], 4 * INTERLEAVE_GRANULE, 4)
            .expect("alloc");
        assert_eq!(seg.ways().len(), 4);
        let m0 = seg.mhd_for(seg.base());
        let m1 = seg.mhd_for(seg.base() + INTERLEAVE_GRANULE);
        assert_ne!(m0, m1);
        // Pattern repeats with period ways.len().
        assert_eq!(
            seg.mhd_for(seg.base()),
            seg.mhd_for(seg.base() + 4 * INTERLEAVE_GRANULE - INTERLEAVE_GRANULE * 4)
        );
    }

    #[test]
    fn spread_accounts_every_byte() {
        let t = Topology::dense(1, 4, 4);
        let mut a = alloc4();
        let seg = a.alloc(&t, &[HostId(0)], 10_000, 4).expect("alloc");
        let mut spread = Vec::new();
        seg.spread_into(seg.base() + 100, 5_000, &mut spread);
        let total: u64 = spread.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 5_000);
        assert_eq!(spread.len(), 4);
        assert!(spread.is_sorted_by_key(|&(m, _)| m));
        // With 256 B granules over 4 ways, counts are near-equal.
        for &(_, v) in &spread {
            assert!(v >= 1_000, "spread too skewed: {spread:?}");
        }
    }

    /// A range inside one granule, at either edge or spanning its
    /// whole width, lands on the granule's MHD in one entry; one byte
    /// more crosses into the next way.
    #[test]
    fn single_granule_spread_is_one_entry() {
        let t = Topology::dense(1, 4, 4);
        let mut a = alloc4();
        let seg = a
            .alloc(&t, &[HostId(0)], 8 * INTERLEAVE_GRANULE, 4)
            .expect("alloc");
        let g1 = seg.base() + INTERLEAVE_GRANULE;
        let mut spread = Vec::new();
        for (hpa, len) in [
            (g1, 1),
            (g1, 64),
            (g1 + 192, 64),
            (g1 + INTERLEAVE_GRANULE - 1, 1),
            (g1, INTERLEAVE_GRANULE),
        ] {
            seg.spread_into(hpa, len, &mut spread);
            assert_eq!(spread, [(seg.mhd_for(g1), len)], "+{hpa:#x}/{len}");
        }
        seg.spread_into(g1 + 192, 65, &mut spread);
        assert_eq!(spread.len(), 2);
        assert!(spread.contains(&(seg.mhd_for(g1), 64)));
        assert!(spread.contains(&(seg.mhd_for(g1 + INTERLEAVE_GRANULE), 1)));
        seg.spread_into(g1, 0, &mut spread);
        assert!(spread.is_empty());
    }

    /// Interleaved allocs and frees keep the flat table exact: lookups
    /// resolve a segment's first and last byte, miss one past its end,
    /// below the first base and in a freed hole, and iteration stays in
    /// id order.
    #[test]
    fn segment_table_resolves_through_interleaved_frees() {
        let t = topo();
        let mut a = PoolAllocator::new(4, 1 << 24);
        let mut live: Vec<Segment> = Vec::new();
        let mut freed: Vec<Segment> = Vec::new();
        for round in 0..24u64 {
            let len = 64 + (round * 389) % 5_000;
            live.push(a.alloc(&t, &[HostId(0)], len, 2).expect("alloc"));
            // Free every third new segment, and one older one every
            // fourth round, so holes open in the middle of the table.
            let mut doomed = Vec::new();
            if round % 3 == 2 {
                doomed.push(live.pop().expect("just pushed"));
            }
            if round % 4 == 3 {
                doomed.push(live.remove(live.len() / 2));
            }
            for seg in doomed {
                a.free(seg.id()).expect("free");
                freed.push(seg);
            }
            for seg in &live {
                let id = seg.id();
                assert_eq!(a.segment_at(seg.base()).map(Segment::id), Ok(id));
                assert_eq!(a.segment_at(seg.end() - 1).map(Segment::id), Ok(id));
                assert_eq!(a.segment(id).map(Segment::base), Some(seg.base()));
                // One past the end is unmapped: the next base is
                // granule-aligned above it, or freed.
                if seg.len() % INTERLEAVE_GRANULE != 0 {
                    assert!(matches!(
                        a.segment_at(seg.end()),
                        Err(FabricError::Unmapped { .. })
                    ));
                }
            }
            for seg in &freed {
                assert!(a.segment(seg.id()).is_none());
                for hpa in [seg.base(), seg.end() - 1] {
                    assert_eq!(
                        a.segment_at(hpa).map(Segment::id),
                        Err(FabricError::Unmapped { hpa })
                    );
                }
            }
            let first = a.segments().next().map_or(u64::MAX, Segment::base);
            assert!(matches!(
                a.segment_at(first - 1),
                Err(FabricError::Unmapped { .. })
            ));
            let ids: Vec<SegmentId> = a.segments().map(Segment::id).collect();
            let mut want: Vec<SegmentId> = live.iter().map(Segment::id).collect();
            want.sort_unstable();
            assert_eq!(ids, want, "round {round}");
        }
    }

    #[test]
    fn pinned_placement_stays_in_domain() {
        let t = Topology::multi_domain(4, 2, 2, 4);
        let mut a = alloc4();
        let seg = a
            .alloc_placed(
                &t,
                &[HostId(0)],
                8192,
                4,
                DomainPlacement::Pinned(DomainId(1)),
            )
            .expect("alloc");
        for w in seg.ways() {
            assert_eq!(t.domain_of(*w), DomainId(1), "way {w:?} escaped the pin");
        }
    }

    #[test]
    fn pinned_placement_fails_when_domain_is_down() {
        let mut t = Topology::multi_domain(4, 2, 2, 4);
        t.fail_domain(DomainId(0));
        let mut a = alloc4();
        let err = a
            .alloc_placed(
                &t,
                &[HostId(0)],
                4096,
                2,
                DomainPlacement::Pinned(DomainId(0)),
            )
            .unwrap_err();
        assert_eq!(err, FabricError::DomainDown(DomainId(0)));
    }

    #[test]
    fn striped_placement_spans_domains() {
        let t = Topology::multi_domain(4, 2, 2, 4);
        let mut a = alloc4();
        let seg = a
            .alloc_placed(
                &t,
                &[HostId(0)],
                8192,
                2,
                DomainPlacement::Striped { min_domains: 2 },
            )
            .expect("alloc");
        let mut doms: Vec<_> = seg.ways().iter().map(|&w| t.domain_of(w)).collect();
        doms.sort_unstable();
        doms.dedup();
        assert!(doms.len() >= 2, "stripes collapsed into one domain");
    }

    #[test]
    fn striped_placement_reports_insufficient_domains() {
        let mut t = Topology::multi_domain(4, 2, 2, 4);
        t.fail_domain(DomainId(1));
        let mut a = alloc4();
        let err = a
            .alloc_placed(
                &t,
                &[HostId(0)],
                4096,
                4,
                DomainPlacement::Striped { min_domains: 2 },
            )
            .unwrap_err();
        assert_eq!(
            err,
            FabricError::InsufficientDomains {
                wanted: 2,
                available: 1
            }
        );
    }

    #[test]
    fn segments_are_granule_aligned() {
        let t = topo();
        let mut a = alloc4();
        for len in [1u64, 255, 256, 257, 5000] {
            let seg = a.alloc(&t, &[HostId(0)], len, 2).expect("alloc");
            assert_eq!(seg.base() % INTERLEAVE_GRANULE, 0);
        }
    }
}
