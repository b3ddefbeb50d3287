//! Coherence-violation checker: a shadow-state race/staleness detector.
//!
//! CXL pool memory is not cache-coherent across hosts, so correctness
//! rests on a *discipline*: writers publish with non-temporal stores or
//! explicit flushes, readers invalidate before loading, and no two
//! hosts hold the same line dirty. The fabric makes violations of that
//! discipline *observable* (stale bytes come back), but a test only
//! notices if the stale bytes happen to change its outcome. This module
//! makes violations *diagnosable*: an opt-in [`Auditor`] shadows every
//! pool access and reports each hazard with full provenance — who
//! wrote, when it became visible, and who read around it.
//!
//! ## Shadow state
//!
//! Per cache line the auditor tracks the latest *visible* write event
//! (writer, kind, issue/visibility times) plus a monotone application
//! `version` assigned in visibility order — issue order and visibility
//! order differ when a slow large write overlaps a fast small one, so
//! staleness is judged on versions, never on issue ids. Per (host,
//! line) it tracks the version that host's cached copy reflects and
//! whether the host holds the line dirty. In-flight writes live in a
//! mirror of the fabric's pending-write buffer and advance in lockstep
//! with it.
//!
//! ## Audit modes
//!
//! [`AuditMode::Version`] is the original scheme: one pool-wide
//! monotone version. It is sound but over-approximate — two writes
//! applied in the same `apply_pending` batch get an arbitrary relative
//! order, so a DMA write racing a CPU publish is misreported as a
//! definitely-ordered stale read.
//!
//! [`AuditMode::VectorClock`] adds a happens-before race detector on
//! top. Every ordering agent is an [`Actor`] — one per host CPU plus
//! one per DMA attach point — with its own [`VClock`] component.
//! Cross-actor edges come only from real coherence actions:
//!
//! - **release**: every visible write (nt-store, flush, DMA write,
//!   eviction) snapshots its actor's clock;
//! - **acquire**: a load miss on a line inside a registered *sync
//!   range* (message rings, mailboxes, seqlock words — see
//!   `Fabric::mark_sync_range`) joins the observed write's clock;
//! - **DMA issue**: a DMA op joins the attach host's CPU clock (the
//!   doorbell orders it after the CPU's prior work);
//! - **DMA completion**: [`Auditor::on_dma_complete`] joins the DMA
//!   clock back into the CPU clock (the CQE orders the device's writes
//!   before subsequent CPU work).
//!
//! Conflicting accesses whose clocks are incomparable race: they are
//! reported as [`ViolationKind::ConcurrentConflict`] with both actors'
//! full clock snapshots. The version-based violations stay and become
//! *precise*: staleness is only reported as [`ViolationKind::StaleRead`]
//! when the missed write happens-before the reader; otherwise it is a
//! race, not staleness.
//!
//! ## Violations
//!
//! - [`ViolationKind::StaleRead`]: a host load was served from a cached
//!   copy older than another host's visible write to that line.
//! - [`ViolationKind::TornRead`]: one load spanning several lines
//!   observed a multi-line write event on some lines but not others
//!   (e.g. a partial invalidate), outside tear-tolerant ranges.
//! - [`ViolationKind::LostWrite`]: dirty data was discarded
//!   (invalidate / overwrite without publish) or a publish based on a
//!   stale copy clobbered another host's newer visible write.
//! - [`ViolationKind::WriteWriteConflict`]: two hosts held the same
//!   line dirty at once — whichever publishes second silently wins.
//! - [`ViolationKind::UnflushedWrite`]: at finalize, a host still held
//!   dirty data on a segment other hosts can read — a write the
//!   discipline never published.
//! - [`ViolationKind::ConcurrentConflict`]: two conflicting accesses
//!   with incomparable vector clocks (vector-clock mode only).
//!
//! Protocols that *tolerate* tearing by design (the seqlock re-reads
//! until versions match) register their payload range as tear-tolerant
//! so retry loops are not reported as hazards.
//!
//! ## Failure-domain namespacing
//!
//! A multi-MHD pod groups MHDs into failure domains
//! ([`crate::topology::DomainId`]), and the auditor namespaces all of
//! its shadow state by domain: line states, host views, and write
//! clocks are keyed by `(domain, line)`, visibility versions advance
//! per-domain (there is no pool-wide visibility order across
//! independent devices), and vector-clock components are per
//! `(actor, domain)` via [`Actor::index_in`]. The fabric registers
//! each segment's per-granule domain mapping with
//! [`Auditor::map_segment`]; unmapped addresses fall back to
//! [`DomainId`]`(0)`, which keeps single-domain pods (and direct-drive
//! tests) byte-for-byte compatible with the pre-domain auditor.
//! [`Auditor::on_segment_free`] clears every domain's state for the
//! freed range, so address reuse across domains cannot alias stale
//! shadow state.

use std::collections::BTreeMap;
use std::rc::Rc;

use simkit::hash::{DetHashMap, DetHashSet};
use simkit::Nanos;

use crate::params::{CACHELINE, INTERLEAVE_GRANULE};
use crate::topology::{DomainId, HostId};

/// Which analysis the auditor runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditMode {
    /// One pool-wide monotone visibility version: sound but
    /// over-approximate (batch-mates get an arbitrary order).
    Version,
    /// Per-actor vector clocks with happens-before race detection.
    VectorClock,
}

/// An agent with its own ordering component in the vector-clock model.
/// Each host contributes its CPU and its DMA attach point: devices are
/// ordered against their attach host's CPU only through doorbell and
/// completion edges, and against remote hosts only through messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Actor {
    /// The CPU of a host.
    Cpu(HostId),
    /// The DMA attach point of a host (all devices behind it).
    Dma(HostId),
}

/// Stride between one failure domain's block of vector-clock component
/// indices and the next. Components `[d * DOMAIN_STRIDE, (d + 1) *
/// DOMAIN_STRIDE)` belong to domain `d`; within a block the layout is
/// [`Actor::index`]. Sized for the full `u16` host space so the
/// mapping never collides.
pub const DOMAIN_STRIDE: usize = 2 * (u16::MAX as usize + 1);

impl Actor {
    /// This actor's fixed component index in every [`VClock`], in the
    /// default failure domain ([`DomainId`]`(0)`).
    pub fn index(self) -> usize {
        match self {
            Actor::Cpu(h) => 2 * h.0 as usize,
            Actor::Dma(h) => 2 * h.0 as usize + 1,
        }
    }

    /// This actor's component index namespaced to failure domain
    /// `domain`: progress is tracked per `(actor, domain)`, so
    /// ordering within one domain never aliases ordering in another.
    pub fn index_in(self, domain: DomainId) -> usize {
        domain.0 as usize * DOMAIN_STRIDE + self.index()
    }

    /// The actor owning component index `i` (inverse of
    /// [`Actor::index`] / [`Actor::index_in`]; the domain part of a
    /// namespaced index is recovered with [`domain_of_index`]).
    pub fn from_index(i: usize) -> Actor {
        let i = i % DOMAIN_STRIDE;
        let h = HostId((i / 2) as u16);
        if i.is_multiple_of(2) {
            Actor::Cpu(h)
        } else {
            Actor::Dma(h)
        }
    }

    /// The host this actor belongs to.
    pub fn host(self) -> HostId {
        match self {
            Actor::Cpu(h) | Actor::Dma(h) => h,
        }
    }
}

/// The failure domain a namespaced component index belongs to (the
/// counterpart of [`Actor::from_index`] for [`Actor::index_in`]).
pub fn domain_of_index(i: usize) -> DomainId {
    DomainId((i / DOMAIN_STRIDE) as u16)
}

impl std::fmt::Display for Actor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Actor::Cpu(h) => write!(f, "cpu{}", h.0),
            Actor::Dma(h) => write!(f, "dma{}", h.0),
        }
    }
}

/// A vector clock over per-`(actor, domain)` components
/// ([`Actor::index_in`]). Missing components read as zero; the
/// representation is sparse (domain-namespaced indices are far apart),
/// and zero components are never stored, so structural equality
/// matches clock equality.
///
/// A clock is an immutable snapshot behind an `Rc`: cloning one (a
/// release snapshot into a pending write, a write clock onto every line
/// it covers, a view clock into a host's cached copy) bumps a refcount
/// instead of copying components. [`VClock::join`] and the actor's own
/// tick copy on write, and a join that adds nothing copies nothing. The
/// components are a vector sorted by index, so [`VClock::leq`] is one
/// merge walk. The empty clock holds no allocation at all.
#[derive(Clone, Default)]
pub struct VClock(Option<Rc<Vec<(usize, u64)>>>);

impl VClock {
    /// The stored `(index, value)` components, sorted by index, all
    /// non-zero.
    fn components(&self) -> &[(usize, u64)] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The components for writing: unshares the snapshot first.
    fn components_mut(&mut self) -> &mut Vec<(usize, u64)> {
        Rc::make_mut(self.0.get_or_insert_with(Rc::default))
    }

    /// True when both clocks share one snapshot (or both are empty).
    fn same_snapshot(&self, other: &VClock) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// The component at index `i`.
    pub fn get(&self, i: usize) -> u64 {
        let c = self.components();
        c.binary_search_by_key(&i, |&(j, _)| j)
            .map_or(0, |k| c[k].1)
    }

    /// Advances one component (an actor's own tick).
    fn bump(&mut self, i: usize) {
        let c = self.components_mut();
        match c.binary_search_by_key(&i, |&(j, _)| j) {
            Ok(k) => c[k].1 += 1,
            Err(k) => c.insert(k, (i, 1)),
        }
    }

    /// Componentwise maximum: the happens-before join.
    pub fn join(&mut self, other: &VClock) {
        if self.same_snapshot(other) || other.leq(self) {
            return;
        }
        if self.0.is_none() {
            // Nothing of our own to keep: share the other snapshot.
            *self = other.clone();
            return;
        }
        let (a, b) = (self.components(), other.components());
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (ia, va) = a[i];
            let (ib, vb) = b[j];
            if ia < ib {
                merged.push(a[i]);
                i += 1;
            } else if ib < ia {
                merged.push(b[j]);
                j += 1;
            } else {
                merged.push((ia, va.max(vb)));
                i += 1;
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        match self.0.as_mut().and_then(Rc::get_mut) {
            Some(own) => *own = merged,
            None => self.0 = Some(Rc::new(merged)),
        }
    }

    /// True when `self` happens-before-or-equals `other`.
    pub fn leq(&self, other: &VClock) -> bool {
        if self.same_snapshot(other) {
            return true;
        }
        let (a, b) = (self.components(), other.components());
        // Every stored component is non-zero, so a component `other`
        // lacks cannot be covered.
        if a.len() > b.len() {
            return false;
        }
        let mut j = 0;
        for &(i, v) in a {
            while j < b.len() && b[j].0 < i {
                j += 1;
            }
            match b.get(j) {
                Some(&(k, w)) if k == i && v <= w => j += 1,
                _ => return false,
            }
        }
        true
    }

    /// True when neither clock is ordered before the other: the two
    /// accesses race.
    pub fn concurrent_with(&self, other: &VClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }
}

impl PartialEq for VClock {
    fn eq(&self, other: &VClock) -> bool {
        self.same_snapshot(other) || self.components() == other.components()
    }
}

impl Eq for VClock {}

impl std::fmt::Debug for VClock {
    /// Formats as an index → value map, `VClock({0: 2, 3: 1})`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Components<'a>(&'a [(usize, u64)]);
        impl std::fmt::Debug for Components<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_map()
                    .entries(self.0.iter().map(|(i, v)| (i, v)))
                    .finish()
            }
        }
        f.debug_tuple("VClock")
            .field(&Components(self.components()))
            .finish()
    }
}

impl std::fmt::Display for VClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (n, &(i, v)) in self.components().iter().enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            let d = domain_of_index(i);
            if d == DomainId(0) {
                write!(f, "{}:{}", Actor::from_index(i), v)?;
            } else {
                write!(f, "{}@d{}:{}", Actor::from_index(i), d.0, v)?;
            }
        }
        write!(f, "}}")
    }
}

/// Which side of a conflicting access pair an actor was on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A CPU load or device DMA read.
    Read,
    /// A visible write (nt-store, flush, DMA write, eviction) or a
    /// cached store.
    Write,
}

/// How a visible write reached the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WriteKind {
    /// Non-temporal store.
    NtStore,
    /// Explicit flush of dirty cached lines.
    Flush,
    /// Device DMA write.
    DmaWrite,
    /// Capacity eviction of a dirty line (an *accidental* publish).
    Eviction,
}

/// Why dirty data never reached (or was overwritten in) the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LostWriteCause {
    /// The owner invalidated its own dirty line without flushing.
    InvalidateDiscard,
    /// An overwrite (nt-store / DMA) dropped dirty bytes outside the
    /// overwritten range.
    OverwriteDiscard,
    /// A publish based on a stale copy clobbered a newer visible write
    /// by another host.
    StaleBasePublish,
}

/// One detected coherence violation, with provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A load served stale cached data.
    StaleRead {
        /// Host whose load returned stale bytes.
        reader: HostId,
        /// Host whose visible write the reader missed.
        writer: HostId,
        /// How the missed write was published.
        write_kind: WriteKind,
        /// When the missed write was issued.
        written_at: Nanos,
        /// When the missed write became visible pool-wide.
        visible_at: Nanos,
    },
    /// One load observed a multi-line write on some lines only.
    TornRead {
        /// Host whose load mixed old and new lines.
        reader: HostId,
        /// Host that published the partially-observed write.
        writer: HostId,
        /// A line where the write *was* observed.
        fresh_line: u64,
        /// A line (same write event) where it was *not*.
        stale_line: u64,
        /// When the partially-observed write became visible.
        visible_at: Nanos,
    },
    /// Dirty data was lost without ever being readable by others.
    LostWrite {
        /// Host whose data was overwritten or discarded.
        victim: HostId,
        /// Host performing the discarding/clobbering operation.
        by: HostId,
        /// What happened.
        cause: LostWriteCause,
        /// When the lost data was first made dirty (or visible).
        dirty_since: Nanos,
    },
    /// Two hosts held the same line dirty simultaneously.
    WriteWriteConflict {
        /// Host that dirtied the line first.
        first: HostId,
        /// When the first host dirtied it.
        first_dirty_since: Nanos,
        /// Host that dirtied it second (trigger of the report).
        second: HostId,
    },
    /// Dirty data on a shared segment never published by finalize time.
    UnflushedWrite {
        /// Host still holding the dirty line.
        writer: HostId,
        /// When the line was dirtied.
        dirty_since: Nanos,
    },
    /// Two conflicting accesses whose vector clocks are incomparable:
    /// no coherence action orders them, so their outcome depends on
    /// fabric timing alone (vector-clock mode only).
    ConcurrentConflict {
        /// Actor of the earlier-observed access.
        first: Actor,
        /// What the first access was.
        first_access: AccessKind,
        /// When the first access was issued.
        first_at: Nanos,
        /// The first actor's clock at that access.
        first_clock: VClock,
        /// Actor of the access that exposed the race.
        second: Actor,
        /// What the second access was.
        second_access: AccessKind,
        /// When the second access was issued.
        second_at: Nanos,
        /// The second actor's clock at that access.
        second_clock: VClock,
    },
}

impl ViolationKind {
    /// Stable short name of the violation kind (used by rendered
    /// reports, telemetry counters, and trace instant labels).
    pub fn name(&self) -> &'static str {
        match self {
            ViolationKind::StaleRead { .. } => "stale-read",
            ViolationKind::TornRead { .. } => "torn-read",
            ViolationKind::LostWrite { .. } => "lost-write",
            ViolationKind::WriteWriteConflict { .. } => "write-write-conflict",
            ViolationKind::UnflushedWrite { .. } => "unflushed-write",
            ViolationKind::ConcurrentConflict { .. } => "concurrent-conflict",
        }
    }
}

/// A violation anchored to a line address and detection time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The cache-line address the hazard was detected on.
    pub line: u64,
    /// Simulated time of detection.
    pub detected_at: Nanos,
    /// The hazard and its provenance.
    pub kind: ViolationKind,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{} @ {} ns] line {:#x}: ",
            self.kind.name(),
            self.detected_at.as_nanos(),
            self.line
        )?;
        match &self.kind {
            ViolationKind::StaleRead {
                reader,
                writer,
                write_kind,
                written_at,
                visible_at,
            } => write!(
                f,
                "host {} read a cached copy predating host {}'s {:?} \
                 (issued {} ns, visible {} ns)",
                reader.0,
                writer.0,
                write_kind,
                written_at.as_nanos(),
                visible_at.as_nanos()
            ),
            ViolationKind::TornRead {
                reader,
                writer,
                fresh_line,
                stale_line,
                visible_at,
            } => write!(
                f,
                "host {} observed host {}'s write (visible {} ns) on line \
                 {:#x} but not on line {:#x} in the same load",
                reader.0,
                writer.0,
                visible_at.as_nanos(),
                fresh_line,
                stale_line
            ),
            ViolationKind::LostWrite {
                victim,
                by,
                cause,
                dirty_since,
            } => write!(
                f,
                "host {}'s data (dirty/visible since {} ns) lost to host \
                 {}'s {:?}",
                victim.0,
                dirty_since.as_nanos(),
                by.0,
                cause
            ),
            ViolationKind::WriteWriteConflict {
                first,
                first_dirty_since,
                second,
            } => write!(
                f,
                "hosts {} (dirty since {} ns) and {} both hold the line dirty",
                first.0,
                first_dirty_since.as_nanos(),
                second.0
            ),
            ViolationKind::UnflushedWrite {
                writer,
                dirty_since,
            } => write!(
                f,
                "host {} never published dirty data held since {} ns on a \
                 shared segment",
                writer.0,
                dirty_since.as_nanos()
            ),
            ViolationKind::ConcurrentConflict {
                first,
                first_access,
                first_at,
                first_clock,
                second,
                second_access,
                second_at,
                second_clock,
            } => write!(
                f,
                "{first} {first_access:?} (issued {} ns, clock \
                 {first_clock}) races {second} {second_access:?} (issued \
                 {} ns, clock {second_clock}): no happens-before edge \
                 orders them",
                first_at.as_nanos(),
                second_at.as_nanos()
            ),
        }
    }
}

/// Per-kind violation counters (every occurrence, deduplicated or not).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViolationCounts {
    /// Stale reads observed.
    pub stale_reads: u64,
    /// Torn multi-line reads observed.
    pub torn_reads: u64,
    /// Lost/discarded/clobbered writes observed.
    pub lost_writes: u64,
    /// Write-write conflicts observed.
    pub ww_conflicts: u64,
    /// Unflushed dirty lines at finalize.
    pub unflushed_writes: u64,
    /// Happens-before races observed (vector-clock mode).
    pub concurrent_conflicts: u64,
}

impl ViolationCounts {
    /// Total violations across all kinds.
    pub fn total(&self) -> u64 {
        self.stale_reads
            + self.torn_reads
            + self.lost_writes
            + self.ww_conflicts
            + self.unflushed_writes
            + self.concurrent_conflicts
    }
}

/// The auditor's cumulative findings.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Recorded violations (deduplicated, capped by
    /// [`AuditConfig::max_recorded`]).
    pub violations: Vec<Violation>,
    /// Per-kind occurrence counters (never capped).
    pub counts: ViolationCounts,
    /// Occurrences not recorded in `violations` (duplicates or
    /// over-cap).
    pub suppressed: u64,
    /// Pool operations that passed through the audit layer.
    pub ops_audited: u64,
    /// Local-DRAM operations seen (always coherent; counted only).
    pub local_ops: u64,
}

impl AuditReport {
    /// True when no violation of any kind was observed.
    pub fn is_clean(&self) -> bool {
        self.counts.total() == 0
    }

    /// A multi-line human-readable summary of recorded violations.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "audit: {} violation(s) over {} pool ops ({} suppressed)",
            self.counts.total(),
            self.ops_audited,
            self.suppressed
        );
        for v in &self.violations {
            let _ = writeln!(out, "  {v}");
        }
        out
    }
}

/// Race findings with per-line clock snapshots (vector-clock mode); see
/// [`Auditor::race_report`].
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Recorded [`ViolationKind::ConcurrentConflict`] violations.
    pub conflicts: Vec<Violation>,
    /// Current clock of every actor that has performed an operation.
    pub actor_clocks: Vec<(Actor, VClock)>,
    /// Last visible write per line: `(line, writing actor, clock)`.
    pub line_clocks: Vec<(u64, Actor, VClock)>,
}

impl RaceReport {
    /// A multi-line human-readable rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "races: {} concurrent conflict(s)",
            self.conflicts.len()
        );
        for v in &self.conflicts {
            let _ = writeln!(out, "  {v}");
        }
        let _ = writeln!(out, "actor clocks:");
        for (a, c) in &self.actor_clocks {
            let _ = writeln!(out, "  {a}: {c}");
        }
        if !self.line_clocks.is_empty() {
            let _ = writeln!(out, "line write clocks:");
            for (la, a, c) in &self.line_clocks {
                let _ = writeln!(out, "  {la:#x}: {a} {c}");
            }
        }
        out
    }
}

/// Tuning for the auditor.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Maximum violations kept in [`AuditReport::violations`]; counters
    /// keep counting past the cap.
    pub max_recorded: usize,
    /// Which analysis to run.
    pub mode: AuditMode,
}

impl Default for AuditConfig {
    /// Defaults to [`AuditMode::Version`]; set `CXL_AUDIT=vc` in the
    /// environment to get vector clocks everywhere audit is enabled
    /// with a default config (PodSim, the chaos/property suites).
    fn default() -> AuditConfig {
        // simlint: allow(wall-clock) -- sanctioned config entry point: CXL_AUDIT selects the analysis, never simulated behavior
        let mode = match std::env::var("CXL_AUDIT").ok().as_deref() {
            Some("vc") | Some("vclock") | Some("vector-clock") => AuditMode::VectorClock,
            _ => AuditMode::Version,
        };
        AuditConfig {
            max_recorded: 1024,
            mode,
        }
    }
}

/// Latest visible write on one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LineState {
    /// Issue-order id of the event (provenance / torn-read identity).
    event: u64,
    /// Visibility-order version (staleness comparisons).
    version: u64,
    writer: HostId,
    kind: WriteKind,
    written_at: Nanos,
    visible_at: Nanos,
}

/// What one host's cached copy of a line reflects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HostView {
    /// Version the cached bytes reflect.
    version: u64,
    /// Event id the cached bytes reflect.
    event: u64,
    dirty: bool,
    dirty_since: Nanos,
    /// Version of the copy the dirty data was merged onto (frozen at
    /// the first store; a publish from a stale base loses others'
    /// writes).
    base_version: u64,
}

/// Shadow-state key: a cache line namespaced to its failure domain.
/// Two tenants of the same pool address in different domains (address
/// reuse after a free/realloc) can never alias each other's state.
type LineKey = (DomainId, u64);

/// Lines per [`LineTable`] page: 1024 lines = 64 KiB of pool address
/// space per page, so page residency tracks segment residency closely.
const LINE_PAGE: usize = 1024;

/// One host's shadow view of one line, co-located with its vector-clock
/// shadows (vector-clock mode leaves the clocks `None` when unused).
#[derive(Clone, Debug)]
struct ViewEntry {
    host: u16,
    view: HostView,
    /// Release clock of the write the cached copy reflects.
    view_clock: Option<VClock>,
    /// The owner's clock when the view was first dirtied.
    dirty_clock: Option<VClock>,
}

/// All shadow state anchored to one `(domain, line)`: the last visible
/// write, its release clock, and every host's view, sorted by host id
/// so "lowest dirty host" scans are deterministic by construction.
#[derive(Clone, Debug, Default)]
struct LineSlot {
    state: Option<LineState>,
    wclock: Option<(Actor, VClock)>,
    views: Vec<ViewEntry>,
}

impl LineSlot {
    fn is_empty(&self) -> bool {
        self.state.is_none() && self.wclock.is_none() && self.views.is_empty()
    }
}

/// The auditor's flat shadow-state store: per-domain paged arrays of
/// [`LineSlot`]s indexed by line-address arithmetic (`la / CACHELINE`),
/// replacing the per-line `HashMap`s the auditor started with. Pool
/// line addresses are dense (the allocator hands out monotone,
/// granule-aligned bases from a fixed floor), so a lookup is two array
/// indexings and a slot offset — no hashing — and per-line host views
/// live *in* the slot, so "who else holds this line dirty" is a scan of
/// that line's few views instead of a walk over every view in the pod.
/// Per-domain namespacing is preserved structurally: each domain owns a
/// separate page array, so cross-domain address reuse cannot alias.
#[derive(Default)]
struct LineTable {
    /// `pages[domain][page]` → `LINE_PAGE` slots, allocated on first
    /// touch; line `la` in domain `d` lives at
    /// `pages[d][la/CACHELINE/LINE_PAGE][la/CACHELINE%LINE_PAGE]`.
    pages: Vec<Vec<Option<Box<[LineSlot]>>>>,
}

impl LineTable {
    fn index_of(la: u64) -> (usize, usize) {
        let idx = (la / CACHELINE) as usize;
        (idx / LINE_PAGE, idx % LINE_PAGE)
    }

    /// Read-only slot access; never allocates.
    fn slot(&self, key: LineKey) -> Option<&LineSlot> {
        let dom = self.pages.get(key.0 .0 as usize)?;
        let (page, off) = Self::index_of(key.1);
        Some(&dom.get(page)?.as_ref()?[off])
    }

    /// Mutable slot access; never allocates (absent slots stay absent).
    fn slot_get_mut(&mut self, key: LineKey) -> Option<&mut LineSlot> {
        let dom = self.pages.get_mut(key.0 .0 as usize)?;
        let (page, off) = Self::index_of(key.1);
        Some(&mut dom.get_mut(page)?.as_mut()?[off])
    }

    /// Mutable slot access, allocating the domain/page on first touch.
    fn slot_mut(&mut self, key: LineKey) -> &mut LineSlot {
        let d = key.0 .0 as usize;
        if self.pages.len() <= d {
            self.pages.resize_with(d + 1, Vec::new);
        }
        let (page, off) = Self::index_of(key.1);
        let dom = &mut self.pages[d];
        if dom.len() <= page {
            dom.resize_with(page + 1, || None);
        }
        let slots = dom[page]
            .get_or_insert_with(|| vec![LineSlot::default(); LINE_PAGE].into_boxed_slice());
        &mut slots[off]
    }

    /// The last visible write on a line (a copy; `LineState` is small).
    fn state(&self, key: LineKey) -> Option<LineState> {
        self.slot(key)?.state
    }

    /// Replaces a line's visible-write state, returning the old one.
    fn set_state(&mut self, key: LineKey, state: LineState) -> Option<LineState> {
        self.slot_mut(key).state.replace(state)
    }

    /// The last visible write's actor and release clock.
    fn wclock(&self, key: LineKey) -> Option<&(Actor, VClock)> {
        self.slot(key)?.wclock.as_ref()
    }

    fn set_wclock(&mut self, key: LineKey, actor: Actor, clock: VClock) {
        self.slot_mut(key).wclock = Some((actor, clock));
    }

    /// One host's view entry on a line, if present.
    fn view_entry(&self, host: u16, key: LineKey) -> Option<&ViewEntry> {
        let slot = self.slot(key)?;
        let i = slot.views.binary_search_by_key(&host, |e| e.host).ok()?;
        Some(&slot.views[i])
    }

    /// The host's view entry, inserting `seed` (with empty clocks) at
    /// its host-sorted position when absent.
    fn view_or_insert(&mut self, host: u16, key: LineKey, seed: HostView) -> &mut ViewEntry {
        self.view_or_seed(host, key, seed, false)
    }

    /// Like [`LineTable::view_or_insert`]; with `seed_clock`, an entry
    /// without a view clock (audit enabled mid-run) takes the line's
    /// write clock, shared rather than copied.
    fn view_or_seed(
        &mut self,
        host: u16,
        key: LineKey,
        seed: HostView,
        seed_clock: bool,
    ) -> &mut ViewEntry {
        let slot = self.slot_mut(key);
        let i = match slot.views.binary_search_by_key(&host, |e| e.host) {
            Ok(i) => i,
            Err(i) => {
                slot.views.insert(
                    i,
                    ViewEntry {
                        host,
                        view: seed,
                        view_clock: None,
                        dirty_clock: None,
                    },
                );
                i
            }
        };
        let entry = &mut slot.views[i];
        if seed_clock && entry.view_clock.is_none() {
            let wclock = slot.wclock.as_ref().map(|(_, c)| c.clone());
            entry.view_clock = Some(wclock.unwrap_or_default());
        }
        entry
    }

    /// Replaces the host's view wholesale (clean fill semantics: any
    /// previous dirty clock is dropped with the previous view).
    fn set_view(&mut self, host: u16, key: LineKey, view: HostView, view_clock: Option<VClock>) {
        let entry = self.view_or_insert(host, key, view);
        entry.view = view;
        entry.view_clock = view_clock;
        entry.dirty_clock = None;
    }

    /// Removes the host's view (and clock shadows), returning the view.
    fn remove_view(&mut self, host: u16, key: LineKey) -> Option<HostView> {
        let slot = self.slot_get_mut(key)?;
        let i = slot.views.binary_search_by_key(&host, |e| e.host).ok()?;
        Some(slot.views.remove(i).view)
    }

    /// The lowest-id host other than `host` holding the line dirty:
    /// the deterministic "first writer" of conflict reports. Views are
    /// host-sorted, so the first dirty match is the minimum.
    fn min_dirty_other(&self, host: u16, key: LineKey) -> Option<(HostId, Nanos)> {
        self.slot(key)?
            .views
            .iter()
            .find(|e| e.host != host && e.view.dirty)
            .map(|e| (HostId(e.host), e.view.dirty_since))
    }

    /// Every dirty view, in `(domain, line, host)` table order.
    fn dirty_views(&self) -> Vec<(u16, u64, Nanos)> {
        let mut out = Vec::new();
        for dom in &self.pages {
            for (p, page) in dom.iter().enumerate() {
                let Some(slots) = page else { continue };
                for (off, slot) in slots.iter().enumerate() {
                    let la = ((p * LINE_PAGE + off) as u64) * CACHELINE;
                    for e in &slot.views {
                        if e.view.dirty {
                            out.push((e.host, la, e.view.dirty_since));
                        }
                    }
                }
            }
        }
        out
    }

    /// Every line write clock, in `(domain, line)` table order (already
    /// sorted by [`LineKey`]).
    fn wclocks_sorted(&self) -> Vec<(LineKey, Actor, VClock)> {
        let mut out = Vec::new();
        for (d, dom) in self.pages.iter().enumerate() {
            for (p, page) in dom.iter().enumerate() {
                let Some(slots) = page else { continue };
                for (off, slot) in slots.iter().enumerate() {
                    if let Some((a, c)) = &slot.wclock {
                        let la = ((p * LINE_PAGE + off) as u64) * CACHELINE;
                        out.push(((DomainId(d as u16), la), *a, c.clone()));
                    }
                }
            }
        }
        out
    }

    /// Clears every slot for lines in `[base, end)` in *every* domain,
    /// invoking `on_state` for each removed visible-write state so the
    /// caller can fix event refcounts. Whole pages inside the range are
    /// dropped so freed segments release their shadow memory.
    fn free_range(&mut self, base: u64, end: u64, mut on_state: impl FnMut(LineState)) {
        if end <= base {
            return;
        }
        let first = (base / CACHELINE) as usize;
        let last = ((end - 1) / CACHELINE) as usize;
        for dom in &mut self.pages {
            let pages = first / LINE_PAGE..=(last / LINE_PAGE).min(dom.len().saturating_sub(1));
            for p in pages {
                let Some(Some(slots)) = dom.get_mut(p) else {
                    continue;
                };
                let lo = first.saturating_sub(p * LINE_PAGE).min(LINE_PAGE);
                let hi = (last + 1 - p * LINE_PAGE).min(LINE_PAGE);
                let mut emptied = lo == 0 && hi == LINE_PAGE;
                for slot in &mut slots[lo..hi] {
                    if let Some(st) = slot.state.take() {
                        on_state(st);
                    }
                    slot.wclock = None;
                    slot.views.clear();
                }
                if !emptied {
                    emptied = slots.iter().all(LineSlot::is_empty);
                }
                if emptied {
                    dom[p] = None;
                }
            }
        }
    }
}

/// A visible-write event's line set and provenance, kept while the
/// event is still current on at least one line.
#[derive(Clone, Debug)]
struct EventMeta {
    writer: HostId,
    visible_at: Nanos,
    lines: Vec<LineKey>,
    /// Number of lines whose current event is this one.
    refs: usize,
}

/// A mirror of one in-flight fabric write.
#[derive(Clone, Debug)]
struct PendingEvent {
    event: u64,
    writer: HostId,
    /// Actor that issued the write (vector-clock mode provenance).
    actor: Actor,
    /// The actor's clock when the write was issued (its release clock).
    wclock: VClock,
    kind: WriteKind,
    written_at: Nanos,
    /// (line, base version the write was derived from).
    lines: Vec<(u64, u64)>,
}

/// One failure domain's visibility-version counter.
#[derive(Clone, Copy, Debug)]
struct VersionCounter {
    /// The next version to hand out.
    next: u64,
    /// The event that drew `next - 1` (0: none yet; event ids start
    /// at 1), so every line of one event shares its domain's version.
    event: u64,
}

impl Default for VersionCounter {
    fn default() -> VersionCounter {
        VersionCounter { next: 1, event: 0 }
    }
}

/// Dedup identity of a violation (kind + site + parties).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum DedupKey {
    Stale {
        line: u64,
        reader: u16,
        event: u64,
    },
    Torn {
        stale_line: u64,
        event: u64,
    },
    Lost {
        line: u64,
        victim: u16,
        by: u16,
        cause: LostWriteCause,
    },
    Ww {
        line: u64,
        a: u16,
        b: u16,
    },
    Unflushed {
        line: u64,
        writer: u16,
    },
    Concurrent {
        line: u64,
        a: usize,
        b: usize,
        accesses: (AccessKind, AccessKind),
    },
}

/// The shadow-state coherence checker. Owned by the fabric when audit
/// mode is enabled; see `Fabric::enable_audit`.
pub struct Auditor {
    config: AuditConfig,
    next_event: u64,
    /// Per-domain visibility version counters, indexed by domain id:
    /// each failure domain has its own monotone visibility order
    /// (independent devices share none), so versions are only ever
    /// compared within one domain.
    next_versions: Vec<VersionCounter>,
    pending: BTreeMap<(Nanos, u64), PendingEvent>,
    pending_seq: u64,
    /// Flat per-line shadow state (line states, write clocks, host
    /// views), indexed by `(domain, la)` arithmetic. Replaces the five
    /// per-line `HashMap`s the auditor started with; see [`LineTable`].
    table: LineTable,
    events: DetHashMap<u64, EventMeta>,
    seen: DetHashSet<(DomainId, DedupKey)>,
    report: AuditReport,
    /// Per-actor clocks, indexed by [`Actor::index`] (vector-clock
    /// mode; empty otherwise). Components inside each clock are
    /// namespaced per domain via [`Actor::index_in`].
    clocks: Vec<VClock>,
    /// Segment address ranges → per-granule failure-domain interleave
    /// pattern (`base → (end, way domains)`), registered by the fabric
    /// on allocation. Addresses outside every mapping resolve to
    /// [`DomainId`]`(0)`.
    domain_map: BTreeMap<u64, (u64, Vec<DomainId>)>,
    /// Per-op scratch: the op's line keys, resolved once per op and
    /// reused across ops so the access hooks do not allocate.
    keys: Vec<LineKey>,
    /// Per-op scratch: the distinct domains the op touches.
    doms: Vec<DomainId>,
    /// Per-load scratch: `(key, version, event)` each line observed.
    observed: Vec<(LineKey, u64, u64)>,
}

/// The segment mapping in force at a line: the segment's base, end and
/// per-granule way domains, `None` when no segment maps the line.
type Mapping<'a> = Option<(u64, u64, &'a [DomainId])>;

/// The empty clock of an actor that never acted.
const NO_CLOCK: &VClock = &VClock(None);

fn line_of(addr: u64) -> u64 {
    addr & !(CACHELINE - 1)
}

fn lines_of(hpa: u64, len: u64) -> impl Iterator<Item = u64> {
    let first = line_of(hpa);
    let last = line_of(hpa + len.max(1) - 1);
    (first..=last).step_by(CACHELINE as usize)
}

/// True if `[la, la+64)` lies inside one of `ranges`. `ranges` must be
/// sorted by start with no range nested inside another, as
/// [`LineRanges::lookup`] hands them out: then the ends ascend too, and
/// the last range starting at or before `la` reaches furthest of all
/// candidates, so one binary search decides.
pub(crate) fn in_ranges(ranges: &[(u64, u64)], la: u64) -> bool {
    let p = ranges.partition_point(|&(start, _)| start <= la);
    p > 0 && la + CACHELINE <= ranges[p - 1].1
}

/// The sorted distinct domains of `keys` into `out` (domain 0 when
/// `keys` is empty).
fn distinct_domains(keys: &[LineKey], out: &mut Vec<DomainId>) {
    out.clear();
    for &(d, _) in keys {
        if out.last() != Some(&d) {
            out.push(d);
        }
    }
    out.sort_unstable();
    out.dedup();
    if out.is_empty() {
        out.push(DomainId(0));
    }
}

/// Address ranges registered with the fabric (sync ranges or
/// tear-tolerant ranges), with an exact binary-searched lookup of
/// "does this line lie fully inside one registered range".
///
/// Ranges are never merged: a line straddling two adjacent ranges lies
/// inside neither. `all` keeps every registration sorted by
/// `(start, end)`. `outer` keeps the registrations not nested inside
/// another one; sorted by start, their ends ascend as well, which is
/// what lets [`in_ranges`] answer with one binary search. A nested
/// range never decides a lookup (its outer range covers every line it
/// covers), but it stays in `all`, since a free may remove its outer
/// range and leave it in force.
#[derive(Clone, Debug, Default)]
pub(crate) struct LineRanges {
    all: Vec<(u64, u64)>,
    outer: Vec<(u64, u64)>,
}

impl LineRanges {
    /// Registers `[start, end)`.
    pub(crate) fn insert(&mut self, start: u64, end: u64) {
        let i = self.all.partition_point(|&r| r <= (start, end));
        self.all.insert(i, (start, end));
        // Outer ranges from `q` on start at or after `start`.
        let q = self.outer.partition_point(|&(s, _)| s < start);
        let nested = (q > 0 && self.outer[q - 1].1 >= end)
            || self
                .outer
                .get(q)
                .is_some_and(|&(s, e)| s == start && e >= end);
        if !nested {
            // The outer ranges the new one contains: a run from `q`,
            // since their ends ascend.
            let k = q + self.outer[q..].partition_point(|&(_, e)| e <= end);
            self.outer.splice(q..k, [(start, end)]);
        }
    }

    /// Drops every registration overlapping `[base, end)`.
    pub(crate) fn remove_overlapping(&mut self, base: u64, end: u64) {
        self.all.retain(|&(s, e)| e <= base || s >= end);
        self.rebuild_outer();
    }

    /// The ranges to pass to the auditor's lookups.
    pub(crate) fn lookup(&self) -> &[(u64, u64)] {
        &self.outer
    }

    /// Every registration, sorted by `(start, end)`.
    #[cfg(test)]
    pub(crate) fn registered(&self) -> &[(u64, u64)] {
        &self.all
    }

    fn rebuild_outer(&mut self) {
        self.outer.clear();
        for &(s, e) in &self.all {
            match self.outer.last() {
                // Inside a range already kept (ends ascend, so the
                // last kept range reaches furthest).
                Some(&(_, last_end)) if e <= last_end => {}
                // Same start, reaches further: the kept one is nested.
                Some(&(last_start, _)) if last_start == s => {
                    if let Some(last) = self.outer.last_mut() {
                        *last = (s, e);
                    }
                }
                _ => self.outer.push((s, e)),
            }
        }
    }
}

impl Auditor {
    /// A fresh auditor with the given config.
    pub fn new(config: AuditConfig) -> Auditor {
        Auditor {
            config,
            next_event: 1,
            next_versions: Vec::new(),
            pending: BTreeMap::new(),
            pending_seq: 0,
            table: LineTable::default(),
            events: DetHashMap::default(),
            seen: DetHashSet::default(),
            report: AuditReport::default(),
            clocks: Vec::new(),
            domain_map: BTreeMap::new(),
            keys: Vec::new(),
            doms: Vec::new(),
            observed: Vec::new(),
        }
    }

    /// Registers the failure-domain interleave pattern of a segment
    /// covering `[base, end)`: granule `g` (of [`INTERLEAVE_GRANULE`]
    /// bytes) lives in `way_domains[g % way_domains.len()]`. Called by
    /// the fabric on every allocation while auditing is on; shadow
    /// state for the range is namespaced accordingly. Unregistered
    /// addresses audit under [`DomainId`]`(0)`.
    pub fn map_segment(&mut self, base: u64, end: u64, way_domains: Vec<DomainId>) {
        if end <= base || way_domains.is_empty() {
            return;
        }
        self.domain_map.insert(base, (end, way_domains));
    }

    /// The segment mapping in force at line `la`.
    fn mapping_at(&self, la: u64) -> Mapping<'_> {
        match self.domain_map.range(..=la).next_back() {
            Some((&base, (end, ways))) if la < *end => Some((base, *end, ways.as_slice())),
            _ => None,
        }
    }

    /// The domain of line `la` under a mapping from [`Auditor::mapping_at`].
    fn domain_in(mapping: Mapping<'_>, la: u64) -> DomainId {
        match mapping {
            Some((base, _, ways)) => {
                let g = ((la - base) / INTERLEAVE_GRANULE) as usize;
                ways[g % ways.len()]
            }
            None => DomainId(0),
        }
    }

    /// The failure domain backing cache line `la` under the current
    /// segment mappings.
    fn domain_of_line(&self, la: u64) -> DomainId {
        Self::domain_in(self.mapping_at(la), la)
    }

    /// Shadow-state key of cache line `la`.
    fn key_of(&self, la: u64) -> LineKey {
        (self.domain_of_line(la), la)
    }

    /// Appends the keys of `lines` to `out`, looking the segment mapping
    /// up once per run of lines it covers rather than once per line.
    fn resolve_keys(&self, lines: impl IntoIterator<Item = u64>, out: &mut Vec<LineKey>) {
        use std::ops::Bound::{Excluded, Unbounded};
        // The mapping found for the run `[from, until)` of addresses it
        // decides: up to the segment's end or the next mapping's base.
        let mut run: Option<(u64, u64, Mapping<'_>)> = None;
        for la in lines {
            let mapping = match run {
                Some((from, until, m)) if from <= la && la < until => m,
                _ => {
                    let m = self.mapping_at(la);
                    let next_base = self
                        .domain_map
                        .range((Excluded(la), Unbounded))
                        .next()
                        .map_or(u64::MAX, |(&b, _)| b);
                    let (from, until) = match m {
                        Some((base, end, _)) => (base, end.min(next_base)),
                        None => (la, next_base),
                    };
                    run = Some((from, until, m));
                    m
                }
            };
            out.push((Self::domain_in(mapping, la), la));
        }
    }

    /// Resolves `lines` into the reusable key scratch; the caller puts
    /// it back in `self.keys` when the op is done.
    fn take_keys(&mut self, lines: impl IntoIterator<Item = u64>) -> Vec<LineKey> {
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        self.resolve_keys(lines, &mut keys);
        keys
    }

    /// Findings so far.
    pub fn report(&self) -> &AuditReport {
        &self.report
    }

    /// The analysis mode in force.
    pub fn mode(&self) -> AuditMode {
        self.config.mode
    }

    /// Removes and returns recorded violations, keeping the counters.
    pub fn drain_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.report.violations)
    }

    /// Race findings with full clock snapshots (vector-clock mode; in
    /// version mode everything is empty).
    pub fn race_report(&self) -> RaceReport {
        let conflicts = self
            .report
            .violations
            .iter()
            .filter(|v| matches!(v.kind, ViolationKind::ConcurrentConflict { .. }))
            .cloned()
            .collect();
        let actor_clocks = self
            .clocks
            .iter()
            .enumerate()
            .filter(|(_, c)| **c != VClock::default())
            .map(|(i, c)| (Actor::from_index(i), c.clone()))
            .collect();
        // Table order is already sorted by LineKey.
        let line_clocks: Vec<(u64, Actor, VClock)> = self
            .table
            .wclocks_sorted()
            .into_iter()
            .map(|((_, la), a, c)| (la, a, c))
            .collect();
        RaceReport {
            conflicts,
            actor_clocks,
            line_clocks,
        }
    }

    // ---------------------------------------------------------------
    // Vector-clock plumbing
    // ---------------------------------------------------------------

    fn vc_on(&self) -> bool {
        self.config.mode == AuditMode::VectorClock
    }

    fn clock_mut(&mut self, actor: Actor) -> &mut VClock {
        let i = actor.index();
        if self.clocks.len() <= i {
            self.clocks.resize(i + 1, VClock::default());
        }
        &mut self.clocks[i]
    }

    /// The actor's current clock, borrowed (empty if it never acted).
    fn clock(&self, actor: Actor) -> &VClock {
        self.clocks.get(actor.index()).unwrap_or(NO_CLOCK)
    }

    /// Advances an actor's own component for one op against failure
    /// domain `domain` (program order within that domain's namespace).
    fn tick(&mut self, actor: Actor, domain: DomainId) {
        if !self.vc_on() {
            return;
        }
        let i = actor.index_in(domain);
        self.clock_mut(actor).bump(i);
    }

    /// Ticks `actor` once per distinct domain among `keys` (an op
    /// spanning domains is one program-order step in each namespace).
    fn tick_keys(&mut self, actor: Actor, keys: &[LineKey]) {
        if !self.vc_on() {
            return;
        }
        let mut doms = std::mem::take(&mut self.doms);
        distinct_domains(keys, &mut doms);
        for &d in &doms {
            self.tick(actor, d);
        }
        self.doms = doms;
    }

    /// The actor's current clock (empty if it never acted): a shared
    /// snapshot, not a copy.
    fn snapshot(&self, actor: Actor) -> VClock {
        self.clock(actor).clone()
    }

    /// Joins `clock` into `dst`'s clock (an incoming hb edge).
    fn join_from(&mut self, dst: Actor, clock: &VClock) {
        if !self.vc_on() {
            return;
        }
        self.clock_mut(dst).join(clock);
    }

    /// Joins `src`'s current clock into `dst`'s (e.g. a DMA doorbell
    /// or completion edge).
    fn join_actor(&mut self, dst: Actor, src: Actor) {
        if !self.vc_on() {
            return;
        }
        let c = self.snapshot(src);
        self.clock_mut(dst).join(&c);
    }

    /// Removes a host's view of a line along with its clock shadows
    /// (they travel with the view entry in the flat table).
    fn drop_view(&mut self, host: u16, key: LineKey) -> Option<HostView> {
        self.table.remove_view(host, key)
    }

    // ---------------------------------------------------------------
    // Pending-write mirror
    // ---------------------------------------------------------------

    /// Applies every mirrored write visible at or before `now`, in the
    /// same (time, sequence) order the fabric applies its own buffer.
    pub fn advance(&mut self, now: Nanos) {
        while let Some((&(ts, seq), _)) = self.pending.first_key_value() {
            if ts > now {
                break;
            }
            let ev = self.pending.remove(&(ts, seq)).expect("key just seen");
            self.apply_event(ts, ev);
        }
    }

    /// The visibility version of event `event` in `domain`: the first
    /// line of an event in a domain draws the domain's next version,
    /// and its other lines there share it. Visibility order is a
    /// per-domain notion (independent devices apply writes
    /// independently), so counters never cross domains.
    fn version_for(&mut self, domain: DomainId, event: u64) -> u64 {
        let d = domain.0 as usize;
        if self.next_versions.len() <= d {
            self.next_versions.resize(d + 1, VersionCounter::default());
        }
        let c = &mut self.next_versions[d];
        if c.event != event {
            c.event = event;
            c.next += 1;
        }
        c.next - 1
    }

    fn apply_event(&mut self, visible_at: Nanos, ev: PendingEvent) {
        // Resolve each line's domain under the current mappings; the
        // keys become the event's line set.
        let mut covered = Vec::with_capacity(ev.lines.len());
        self.resolve_keys(ev.lines.iter().map(|&(la, _)| la), &mut covered);
        for (&key, &(la, base_version)) in covered.iter().zip(&ev.lines) {
            let version = self.version_for(key.0, ev.event);
            let cur = self.table.state(key);
            // A newer visible write by someone else landed between this
            // write's base and its visibility: that write is clobbered.
            if let Some(cur) = cur {
                if cur.version > base_version && cur.writer != ev.writer {
                    self.record(
                        key,
                        visible_at,
                        ViolationKind::LostWrite {
                            victim: cur.writer,
                            by: ev.writer,
                            cause: LostWriteCause::StaleBasePublish,
                            dirty_since: cur.visible_at,
                        },
                        DedupKey::Lost {
                            line: la,
                            victim: cur.writer.0,
                            by: ev.writer.0,
                            cause: LostWriteCause::StaleBasePublish,
                        },
                    );
                }
            }
            if self.vc_on() {
                // Write-write race: the previous visible write and this
                // one carry incomparable release clocks — their relative
                // order is pure fabric timing, not program order.
                if let Some((pactor, pclock)) = self.table.wclock(key).cloned() {
                    if pactor != ev.actor && pclock.concurrent_with(&ev.wclock) {
                        self.record(
                            key,
                            visible_at,
                            ViolationKind::ConcurrentConflict {
                                first: pactor,
                                first_access: AccessKind::Write,
                                first_at: cur.map(|c| c.written_at).unwrap_or(Nanos::ZERO),
                                first_clock: pclock,
                                second: ev.actor,
                                second_access: AccessKind::Write,
                                second_at: ev.written_at,
                                second_clock: ev.wclock.clone(),
                            },
                            DedupKey::Concurrent {
                                line: la,
                                a: pactor.index().min(ev.actor.index()),
                                b: pactor.index().max(ev.actor.index()),
                                accesses: (AccessKind::Write, AccessKind::Write),
                            },
                        );
                    }
                }
                // Every covered line shares the event's release snapshot.
                self.table.set_wclock(key, ev.actor, ev.wclock.clone());
            }
            self.set_line_state(
                key,
                LineState {
                    event: ev.event,
                    version,
                    writer: ev.writer,
                    kind: ev.kind,
                    written_at: ev.written_at,
                    visible_at,
                },
            );
        }
        self.events.insert(
            ev.event,
            EventMeta {
                writer: ev.writer,
                visible_at,
                refs: covered.len(),
                lines: covered,
            },
        );
    }

    /// Updates a line's current write and the event refcounts.
    fn set_line_state(&mut self, key: LineKey, state: LineState) {
        if let Some(old) = self.table.set_state(key, state) {
            if old.event != state.event {
                if let Some(meta) = self.events.get_mut(&old.event) {
                    meta.refs -= 1;
                    if meta.refs == 0 {
                        self.events.remove(&old.event);
                    }
                }
            } else {
                // Same event re-applied to the line (it was already
                // counted); keep the refcount balanced.
                if let Some(meta) = self.events.get_mut(&state.event) {
                    meta.refs -= 1;
                }
            }
        }
    }

    fn enqueue(
        &mut self,
        written_at: Nanos,
        visible_at: Nanos,
        actor: Actor,
        kind: WriteKind,
        lines: Vec<(u64, u64)>,
    ) -> u64 {
        let event = self.next_event;
        self.next_event += 1;
        let seq = self.pending_seq;
        self.pending_seq += 1;
        let wclock = if self.vc_on() {
            self.snapshot(actor)
        } else {
            VClock::default()
        };
        self.pending.insert(
            (visible_at, seq),
            PendingEvent {
                event,
                writer: actor.host(),
                actor,
                wclock,
                kind,
                written_at,
                lines,
            },
        );
        event
    }

    // ---------------------------------------------------------------
    // Access hooks (called by the fabric)
    // ---------------------------------------------------------------

    /// Audits one CPU load. `served` lists each line the load touched
    /// and whether it was served from the host's cache (`true`) or
    /// fetched fresh from the pool (`false`). `tolerant` holds ranges
    /// where torn reads are by-design (seqlock bodies); `sync` holds
    /// synchronization ranges where reads are acquire operations. Both
    /// are sorted by start with no range nested inside another, as the
    /// fabric keeps them.
    pub fn on_load(
        &mut self,
        now: Nanos,
        host: HostId,
        served: &[(u64, bool)],
        tolerant: &[(u64, u64)],
        sync: &[(u64, u64)],
    ) {
        self.report.ops_audited += 1;
        let vc_on = self.vc_on();
        let keys = self.take_keys(served.iter().map(|&(la, _)| la));
        let mut doms = std::mem::take(&mut self.doms);
        distinct_domains(&keys, &mut doms);
        for &d in &doms {
            self.tick(Actor::Cpu(host), d);
        }
        let reader = Actor::Cpu(host);
        // (line key, observed version, observed event) per served line.
        let mut observed = std::mem::take(&mut self.observed);
        observed.clear();
        for (&(la, hit), &key) in served.iter().zip(&keys) {
            let cur = self.table.state(key);
            if hit {
                // Audit enabled mid-run: seed the cached copy as
                // current rather than inventing a hazard.
                let seed = HostView {
                    version: cur.map(|c| c.version).unwrap_or(0),
                    event: cur.map(|c| c.event).unwrap_or(0),
                    dirty: false,
                    dirty_since: Nanos::ZERO,
                    base_version: cur.map(|c| c.version).unwrap_or(0),
                };
                let view = self.table.view_or_seed(host.0, key, seed, vc_on).view;
                let mut stale = None;
                if let Some(cur) = cur {
                    // Reading your own dirty merge is read-own-writes;
                    // the stale *base* is reported at publish instead.
                    if !view.dirty && view.version < cur.version && cur.writer != host {
                        stale = Some(cur);
                    }
                }
                if let Some(cur) = stale {
                    if vc_on {
                        let (wactor, wclock) = self
                            .table
                            .wclock(key)
                            .cloned()
                            .unwrap_or((Actor::Cpu(cur.writer), VClock::default()));
                        let rclock = self.snapshot(reader);
                        if wclock.leq(&rclock) {
                            // The missed write happens-before this read:
                            // a genuine (precisely ordered) stale read.
                            self.record(
                                key,
                                now,
                                ViolationKind::StaleRead {
                                    reader: host,
                                    writer: cur.writer,
                                    write_kind: cur.kind,
                                    written_at: cur.written_at,
                                    visible_at: cur.visible_at,
                                },
                                DedupKey::Stale {
                                    line: la,
                                    reader: host.0,
                                    event: cur.event,
                                },
                            );
                        } else {
                            // No edge orders the write before the read:
                            // a race, not definite staleness.
                            self.record(
                                key,
                                now,
                                ViolationKind::ConcurrentConflict {
                                    first: wactor,
                                    first_access: AccessKind::Write,
                                    first_at: cur.written_at,
                                    first_clock: wclock,
                                    second: reader,
                                    second_access: AccessKind::Read,
                                    second_at: now,
                                    second_clock: rclock,
                                },
                                DedupKey::Concurrent {
                                    line: la,
                                    a: wactor.index().min(reader.index()),
                                    b: wactor.index().max(reader.index()),
                                    accesses: (AccessKind::Write, AccessKind::Read),
                                },
                            );
                        }
                    } else {
                        self.record(
                            key,
                            now,
                            ViolationKind::StaleRead {
                                reader: host,
                                writer: cur.writer,
                                write_kind: cur.kind,
                                written_at: cur.written_at,
                                visible_at: cur.visible_at,
                            },
                            DedupKey::Stale {
                                line: la,
                                reader: host.0,
                                event: cur.event,
                            },
                        );
                    }
                } else if vc_on && in_ranges(sync, la) {
                    // Fresh (or own-dirty) hit on a sync line: acquire
                    // the ordering of the write the copy reflects.
                    let vc = self
                        .table
                        .view_entry(host.0, key)
                        .and_then(|e| e.view_clock.clone());
                    if let Some(vc) = vc {
                        self.join_from(reader, &vc);
                    }
                }
                observed.push((key, view.version, view.event));
            } else {
                // Miss: the host now caches the pool-current bytes.
                let (version, event) = cur.map(|c| (c.version, c.event)).unwrap_or((0, 0));
                let fresh = HostView {
                    version,
                    event,
                    dirty: false,
                    dirty_since: Nanos::ZERO,
                    base_version: version,
                };
                if vc_on {
                    match self.table.wclock(key).cloned() {
                        Some((wactor, wclock)) => {
                            if !in_ranges(sync, la)
                                && wactor != reader
                                && wclock.concurrent_with(self.clock(reader))
                            {
                                self.record(
                                    key,
                                    now,
                                    ViolationKind::ConcurrentConflict {
                                        first: wactor,
                                        first_access: AccessKind::Write,
                                        first_at: cur.map(|c| c.written_at).unwrap_or(Nanos::ZERO),
                                        first_clock: wclock.clone(),
                                        second: reader,
                                        second_access: AccessKind::Read,
                                        second_at: now,
                                        second_clock: self.snapshot(reader),
                                    },
                                    DedupKey::Concurrent {
                                        line: la,
                                        a: wactor.index().min(reader.index()),
                                        b: wactor.index().max(reader.index()),
                                        accesses: (AccessKind::Write, AccessKind::Read),
                                    },
                                );
                            }
                            // On a sync line (ring slot, mailbox,
                            // seqlock word) the join is the protocol's
                            // acquire edge. Elsewhere it keeps one
                            // unordered publish from cascading into a
                            // conflict on every later access.
                            self.join_from(reader, &wclock);
                            self.table.set_view(host.0, key, fresh, Some(wclock));
                        }
                        None => {
                            self.table
                                .set_view(host.0, key, fresh, Some(VClock::default()));
                        }
                    }
                } else {
                    self.table.set_view(host.0, key, fresh, None);
                }
                observed.push((key, version, event));
            }
        }
        // Torn-read analysis runs per failure domain: versions are a
        // per-domain visibility order, and a load spanning domains has
        // no single order to tear against.
        if observed.len() > 1 {
            for &d in &doms {
                self.check_torn(now, host, &observed, d, tolerant);
            }
        }
        self.observed = observed;
        self.doms = doms;
        self.keys = keys;
    }

    /// Flags loads that saw a multi-line write event on one line but an
    /// older state on another line the same event covered. Only the
    /// lines of `observed` in failure domain `domain` take part.
    fn check_torn(
        &mut self,
        now: Nanos,
        host: HostId,
        observed: &[(LineKey, u64, u64)],
        domain: DomainId,
        tolerant: &[(u64, u64)],
    ) {
        let group = || observed.iter().filter(|&&((d, _), _, _)| d == domain);
        let Some(&(fresh_key, fresh_version, fresh_event)) = group().max_by_key(|&&(_, v, _)| v)
        else {
            return;
        };
        if fresh_event == 0 {
            return;
        }
        let Some(meta) = self.events.get(&fresh_event) else {
            // The event is no longer current anywhere else; partial
            // observation of it is reported as staleness instead.
            return;
        };
        let fresh_line = fresh_key.1;
        let writer = meta.writer;
        let visible_at = meta.visible_at;
        for &(key, v, _) in group() {
            // Lines that did not see the fresh write are rare; only
            // those need the event's line set.
            let torn = key != fresh_key
                && v < fresh_version
                && !in_ranges(tolerant, key.1)
                && self
                    .events
                    .get(&fresh_event)
                    .is_some_and(|m| m.lines.contains(&key));
            if !torn {
                continue;
            }
            let stale_line = key.1;
            self.record(
                key,
                now,
                ViolationKind::TornRead {
                    reader: host,
                    writer,
                    fresh_line,
                    stale_line,
                    visible_at,
                },
                DedupKey::Torn {
                    stale_line,
                    event: fresh_event,
                },
            );
        }
    }

    /// Audits the read-for-ownership fill of one line (write miss) or a
    /// load-miss fill: the host's copy now reflects the pool-current
    /// version.
    pub fn on_fill(&mut self, host: HostId, la: u64) {
        let key = self.key_of(la);
        let (version, event) = self
            .table
            .state(key)
            .map(|c| (c.version, c.event))
            .unwrap_or((0, 0));
        let view_clock = if self.vc_on() {
            Some(
                self.table
                    .wclock(key)
                    .map(|(_, c)| c.clone())
                    .unwrap_or_default(),
            )
        } else {
            None
        };
        self.table.set_view(
            host.0,
            key,
            HostView {
                version,
                event,
                dirty: false,
                dirty_since: Nanos::ZERO,
                base_version: version,
            },
            view_clock,
        );
    }

    /// Audits a capacity eviction of a *clean* line: the host simply
    /// forgets its copy, so the shadow view is dropped too.
    pub fn on_clean_eviction(&mut self, host: HostId, la: u64) {
        let key = self.key_of(la);
        self.drop_view(host.0, key);
    }

    /// Audits one cached (write-back) store to one line. Reports a
    /// write-write conflict when another host already holds the line
    /// dirty.
    pub fn on_store(&mut self, now: Nanos, host: HostId, la: u64) {
        let key = self.key_of(la);
        // Dirty elsewhere? Both hosts intend to publish: a race. When
        // several hosts hold the line dirty, report the lowest id so
        // the reported `first` (and the violation log) never varies
        // run to run; the line's views are host-sorted, so that is the
        // first dirty entry in the slot.
        let other = self.table.min_dirty_other(host.0, key);
        if let Some((first, first_dirty_since)) = other {
            self.record(
                key,
                now,
                ViolationKind::WriteWriteConflict {
                    first,
                    first_dirty_since,
                    second: host,
                },
                DedupKey::Ww {
                    line: la,
                    a: first.0.min(host.0),
                    b: first.0.max(host.0),
                },
            );
        }
        let cur = self.table.state(key);
        let vc_snap = if self.vc_on() {
            Some(self.snapshot(Actor::Cpu(host)))
        } else {
            None
        };
        let seed = HostView {
            version: cur.map(|c| c.version).unwrap_or(0),
            event: cur.map(|c| c.event).unwrap_or(0),
            dirty: false,
            dirty_since: Nanos::ZERO,
            base_version: cur.map(|c| c.version).unwrap_or(0),
        };
        let entry = self.table.view_or_insert(host.0, key, seed);
        if !entry.view.dirty {
            entry.view.dirty = true;
            entry.view.dirty_since = now;
            // Freeze the merge base: publishing later writes back the
            // whole line as seen *now*.
            entry.view.base_version = entry.view.version;
            if let Some(c) = vc_snap {
                entry.dirty_clock = Some(c);
            }
        }
    }

    /// Counts a cached-store op (once per `Fabric::store` call) against
    /// the domains `[hpa, hpa+len)` touches.
    pub fn count_store(&mut self, host: HostId, hpa: u64, len: u64) {
        self.report.ops_audited += 1;
        if self.vc_on() {
            let keys = self.take_keys(lines_of(hpa, len));
            self.tick_keys(Actor::Cpu(host), &keys);
            self.keys = keys;
        }
    }

    /// Audits a non-temporal store: the writer's own cached lines are
    /// dropped (dirty bytes outside the written range are lost) and the
    /// write is queued for visibility at `done`.
    pub fn on_nt_store(&mut self, now: Nanos, host: HostId, hpa: u64, len: u64, done: Nanos) {
        self.report.ops_audited += 1;
        let keys = self.take_keys(lines_of(hpa, len));
        self.tick_keys(Actor::Cpu(host), &keys);
        self.discard_for_overwrite(now, host, host, hpa, len, &keys);
        let lines = self.bases_for(&keys);
        self.keys = keys;
        self.enqueue(now, done, Actor::Cpu(host), WriteKind::NtStore, lines);
    }

    /// Audits a device DMA write via attach host `host`: snoop drops
    /// the attach host's copies; remote hosts keep theirs (and go
    /// stale). The doorbell orders the DMA after the attach CPU's prior
    /// work (one hb edge); remote CPUs get no edge.
    pub fn on_dma_write(&mut self, now: Nanos, host: HostId, hpa: u64, len: u64, done: Nanos) {
        self.report.ops_audited += 1;
        self.join_actor(Actor::Dma(host), Actor::Cpu(host));
        let keys = self.take_keys(lines_of(hpa, len));
        self.tick_keys(Actor::Dma(host), &keys);
        self.discard_for_overwrite(now, host, host, hpa, len, &keys);
        let lines = self.bases_for(&keys);
        self.keys = keys;
        self.enqueue(now, done, Actor::Dma(host), WriteKind::DmaWrite, lines);
    }

    /// Audits a flush: `dirty` lists the dirty lines being published
    /// (visible at `done`); clean lines in the range are just dropped.
    pub fn on_flush(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        len: u64,
        dirty: &[u64],
        done: Nanos,
    ) {
        self.report.ops_audited += 1;
        let mut keys = self.take_keys(lines_of(hpa, len));
        let range = keys.len();
        self.tick_keys(Actor::Cpu(host), &keys);
        self.resolve_keys(dirty.iter().copied(), &mut keys);
        let published: Vec<(u64, u64)> = keys[range..]
            .iter()
            .map(|&key| {
                let base = self
                    .table
                    .view_entry(host.0, key)
                    .map(|e| e.view.base_version)
                    .unwrap_or(0);
                (key.1, base)
            })
            .collect();
        // clflush semantics: every line in the range leaves the cache.
        for &key in &keys[..range] {
            self.drop_view(host.0, key);
        }
        self.keys = keys;
        if !published.is_empty() {
            self.enqueue(now, done, Actor::Cpu(host), WriteKind::Flush, published);
        }
    }

    /// Audits an invalidate: dropping a dirty line without write-back
    /// loses the data.
    pub fn on_invalidate(&mut self, now: Nanos, host: HostId, hpa: u64, len: u64) {
        self.report.ops_audited += 1;
        let keys = self.take_keys(lines_of(hpa, len));
        for &key in &keys {
            if let Some(view) = self.drop_view(host.0, key) {
                if view.dirty {
                    self.record(
                        key,
                        now,
                        ViolationKind::LostWrite {
                            victim: host,
                            by: host,
                            cause: LostWriteCause::InvalidateDiscard,
                            dirty_since: view.dirty_since,
                        },
                        DedupKey::Lost {
                            line: key.1,
                            victim: host.0,
                            by: host.0,
                            cause: LostWriteCause::InvalidateDiscard,
                        },
                    );
                }
            }
        }
        self.keys = keys;
    }

    /// Audits a DMA read via attach host `host`: the device sees the
    /// pool plus that host's dirty lines — any *other* host's dirty
    /// line in the range is invisible to it (an unpublished write the
    /// device reads around). In vector-clock mode the read also checks
    /// that the last visible write on each line is ordered before it.
    /// `sync` is sorted and un-nested, as in [`Auditor::on_load`].
    pub fn on_dma_read(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        len: u64,
        sync: &[(u64, u64)],
    ) {
        self.report.ops_audited += 1;
        let vc_on = self.vc_on();
        let reader = Actor::Dma(host);
        self.join_actor(reader, Actor::Cpu(host));
        let keys = self.take_keys(lines_of(hpa, len));
        self.tick_keys(reader, &keys);
        for &key in &keys {
            let la = key.1;
            // Lowest dirty host wins, as in on_store: the reported
            // writer is deterministic because the slot's views are
            // host-sorted.
            let remote_dirty = self.table.min_dirty_other(host.0, key);
            if let Some((writer, dirty_since)) = remote_dirty {
                if vc_on {
                    let dclock = self
                        .table
                        .view_entry(writer.0, key)
                        .and_then(|e| e.dirty_clock.clone())
                        .unwrap_or_default();
                    if dclock.leq(self.clock(reader)) {
                        // The store happens-before the DMA yet was never
                        // published: the device definitely reads around
                        // it.
                        self.record_dma_stale(key, now, host, writer, dirty_since);
                    } else {
                        // Unpublished store racing the DMA read.
                        self.record(
                            key,
                            now,
                            ViolationKind::ConcurrentConflict {
                                first: Actor::Cpu(writer),
                                first_access: AccessKind::Write,
                                first_at: dirty_since,
                                first_clock: dclock,
                                second: reader,
                                second_access: AccessKind::Read,
                                second_at: now,
                                second_clock: self.snapshot(reader),
                            },
                            DedupKey::Concurrent {
                                line: la,
                                a: Actor::Cpu(writer).index().min(reader.index()),
                                b: Actor::Cpu(writer).index().max(reader.index()),
                                accesses: (AccessKind::Write, AccessKind::Read),
                            },
                        );
                    }
                } else {
                    self.record_dma_stale(key, now, host, writer, dirty_since);
                }
            }
            if vc_on {
                if let Some((wactor, wclock)) = self.table.wclock(key).cloned() {
                    if !in_ranges(sync, la)
                        && wactor != reader
                        && wclock.concurrent_with(self.clock(reader))
                    {
                        let written_at = self
                            .table
                            .state(key)
                            .map(|c| c.written_at)
                            .unwrap_or(Nanos::ZERO);
                        self.record(
                            key,
                            now,
                            ViolationKind::ConcurrentConflict {
                                first: wactor,
                                first_access: AccessKind::Write,
                                first_at: written_at,
                                first_clock: wclock.clone(),
                                second: reader,
                                second_access: AccessKind::Read,
                                second_at: now,
                                second_clock: self.snapshot(reader),
                            },
                            DedupKey::Concurrent {
                                line: la,
                                a: wactor.index().min(reader.index()),
                                b: wactor.index().max(reader.index()),
                                accesses: (AccessKind::Write, AccessKind::Read),
                            },
                        );
                    }
                    // Acquire on a sync line; elsewhere the join keeps
                    // one race from cascading, as in `on_load`.
                    self.join_from(reader, &wclock);
                }
            }
        }
        self.keys = keys;
    }

    fn record_dma_stale(
        &mut self,
        key: LineKey,
        now: Nanos,
        host: HostId,
        writer: HostId,
        dirty_since: Nanos,
    ) {
        self.record(
            key,
            now,
            ViolationKind::StaleRead {
                reader: host,
                writer,
                write_kind: WriteKind::Flush,
                written_at: dirty_since,
                // Never yet visible; report the dirtying time.
                visible_at: dirty_since,
            },
            DedupKey::Stale {
                line: key.1,
                reader: host.0,
                event: u64::MAX ^ key.1,
            },
        );
    }

    /// Records the completion edge of a DMA operation: the attach
    /// host's CPU observed the CQE/doorbell, so everything the device
    /// did happens-before the CPU's subsequent work.
    pub fn on_dma_complete(&mut self, host: HostId) {
        self.join_actor(Actor::Cpu(host), Actor::Dma(host));
    }

    /// Audits a dirty capacity eviction: the line is published *now*
    /// (the fabric writes it back immediately), an accidental publish
    /// the owner never ordered.
    pub fn on_dirty_eviction(&mut self, now: Nanos, host: HostId, la: u64) {
        let key = self.key_of(la);
        let base = self
            .table
            .view_entry(host.0, key)
            .map(|e| e.view.base_version)
            .unwrap_or(0);
        self.drop_view(host.0, key);
        self.tick(Actor::Cpu(host), key.0);
        let event = self.next_event;
        self.next_event += 1;
        let wclock = if self.vc_on() {
            self.snapshot(Actor::Cpu(host))
        } else {
            VClock::default()
        };
        self.apply_event(
            now,
            PendingEvent {
                event,
                writer: host,
                actor: Actor::Cpu(host),
                wclock,
                kind: WriteKind::Eviction,
                written_at: now,
                lines: vec![(la, base)],
            },
        );
    }

    /// Forgets all shadow state for `[base, end)` when the segment is
    /// freed: a reallocation of the space must be audited from scratch,
    /// not against ghosts of the previous tenant.
    pub fn on_segment_free(&mut self, base: u64, end: u64) {
        // Clear the range in *every* domain, not only the currently
        // mapped one: address reuse across domains must never see the
        // previous tenant's shadow state. The table clears states,
        // write clocks, and views (with their clock shadows) in one
        // range sweep; the callback keeps event refcounts balanced.
        let events = &mut self.events;
        self.table.free_range(base, end, |old| {
            if let Some(meta) = events.get_mut(&old.event) {
                meta.refs -= 1;
                if meta.refs == 0 {
                    events.remove(&old.event);
                }
            }
        });
        for ev in self.pending.values_mut() {
            ev.lines.retain(|&(la, _)| la < base || la >= end);
        }
        self.pending.retain(|_, ev| !ev.lines.is_empty());
        // Retire the freed range's domain mapping; a realloc of the
        // space registers its own.
        self.domain_map
            .retain(|&b, &mut (e, _)| e <= base || b >= end);
    }

    /// Counts a local-DRAM access (always coherent; nothing to check).
    pub fn on_local(&mut self) {
        self.report.local_ops += 1;
    }

    /// Lines still dirty per host: `(host, line, dirty_since)`. Used by
    /// finalize to flag unpublished writes on shared segments.
    pub fn dirty_lines(&self) -> Vec<(HostId, u64, Nanos)> {
        let mut out: Vec<(HostId, u64, Nanos)> = self
            .table
            .dirty_views()
            .into_iter()
            .map(|(h, la, since)| (HostId(h), la, since))
            .collect();
        out.sort_by_key(|&(h, la, _)| (h.0, la));
        out
    }

    /// Records an [`ViolationKind::UnflushedWrite`] found by finalize.
    pub fn record_unflushed(&mut self, now: Nanos, writer: HostId, la: u64, dirty_since: Nanos) {
        let key = self.key_of(la);
        self.record(
            key,
            now,
            ViolationKind::UnflushedWrite {
                writer,
                dirty_since,
            },
            DedupKey::Unflushed {
                line: la,
                writer: writer.0,
            },
        );
    }

    // ---------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------

    /// Drops `by`'s (== the overwriting host's) cached lines in the
    /// overwritten range `[hpa, hpa+len)`, whose line keys are `keys`,
    /// reporting dirty bytes the overwrite does not fully replace.
    fn discard_for_overwrite(
        &mut self,
        now: Nanos,
        victim: HostId,
        by: HostId,
        hpa: u64,
        len: u64,
        keys: &[LineKey],
    ) {
        let end = hpa + len;
        for &key in keys {
            let la = key.1;
            if let Some(view) = self.drop_view(victim.0, key) {
                let fully_covered = hpa <= la && la + CACHELINE <= end;
                if view.dirty && !fully_covered {
                    self.record(
                        key,
                        now,
                        ViolationKind::LostWrite {
                            victim,
                            by,
                            cause: LostWriteCause::OverwriteDiscard,
                            dirty_since: view.dirty_since,
                        },
                        DedupKey::Lost {
                            line: la,
                            victim: victim.0,
                            by: by.0,
                            cause: LostWriteCause::OverwriteDiscard,
                        },
                    );
                }
            }
        }
    }

    /// The (line, current-version) base pairs an overwrite of the lines
    /// `keys` is derived from.
    fn bases_for(&self, keys: &[LineKey]) -> Vec<(u64, u64)> {
        keys.iter()
            .map(|&key| {
                let base = self.table.state(key).map(|c| c.version).unwrap_or(0);
                (key.1, base)
            })
            .collect()
    }

    /// Counts and (deduplicated, under the cap) records one violation
    /// detected on line `key`.
    fn record(&mut self, key: LineKey, detected_at: Nanos, kind: ViolationKind, dedup: DedupKey) {
        match &kind {
            ViolationKind::StaleRead { .. } => self.report.counts.stale_reads += 1,
            ViolationKind::TornRead { .. } => self.report.counts.torn_reads += 1,
            ViolationKind::LostWrite { .. } => self.report.counts.lost_writes += 1,
            ViolationKind::WriteWriteConflict { .. } => self.report.counts.ww_conflicts += 1,
            ViolationKind::UnflushedWrite { .. } => self.report.counts.unflushed_writes += 1,
            ViolationKind::ConcurrentConflict { .. } => {
                self.report.counts.concurrent_conflicts += 1
            }
        }
        if !self.seen.insert((key.0, dedup))
            || self.report.violations.len() >= self.config.max_recorded
        {
            self.report.suppressed += 1;
            return;
        }
        self.report.violations.push(Violation {
            line: key.1,
            detected_at,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const L: u64 = CACHELINE;

    /// Version-mode config regardless of `CXL_AUDIT` (these tests pin
    /// the single-version semantics).
    fn ver() -> AuditConfig {
        AuditConfig {
            mode: AuditMode::Version,
            ..AuditConfig::default()
        }
    }

    /// Vector-clock-mode config regardless of `CXL_AUDIT`.
    fn vc() -> AuditConfig {
        AuditConfig {
            mode: AuditMode::VectorClock,
            ..AuditConfig::default()
        }
    }

    /// Drives the auditor directly (no fabric) through a stale-read
    /// scenario: host 1 caches a line, host 0 publishes, host 1 hits.
    #[test]
    fn stale_hit_after_remote_publish_is_flagged() {
        let mut a = Auditor::new(ver());
        // Host 1 load-misses line 0 (caches pool state, version 0).
        a.on_load(Nanos(0), HostId(1), &[(0, false)], &[], &[]);
        // Host 0 nt-stores the line, visible at t=100.
        a.on_nt_store(Nanos(10), HostId(0), 0, L, Nanos(100));
        a.advance(Nanos(100));
        // Host 1 hits its stale copy.
        a.on_load(Nanos(200), HostId(1), &[(0, true)], &[], &[]);
        let r = a.report();
        assert_eq!(r.counts.stale_reads, 1);
        match &r.violations[0].kind {
            ViolationKind::StaleRead { reader, writer, .. } => {
                assert_eq!(*reader, HostId(1));
                assert_eq!(*writer, HostId(0));
            }
            other => panic!("expected StaleRead, got {other:?}"),
        }
    }

    #[test]
    fn own_write_hit_is_not_stale() {
        let mut a = Auditor::new(ver());
        a.on_load(Nanos(0), HostId(0), &[(0, false)], &[], &[]);
        a.on_nt_store(Nanos(10), HostId(0), 0, L, Nanos(100));
        a.advance(Nanos(100));
        // Host 0 re-caching pre-publish bytes of its *own* write is an
        // ordering quirk, not a cross-host hazard.
        a.on_load(Nanos(200), HostId(0), &[(0, true)], &[], &[]);
        assert!(a.report().is_clean());
    }

    #[test]
    fn visibility_order_not_issue_order_decides_staleness() {
        let mut a = Auditor::new(ver());
        // Host 0 issues a slow write first (visible at 200), host 1 a
        // fast one second (visible at 100). Final state is host 0's.
        a.on_nt_store(Nanos(0), HostId(0), 0, L, Nanos(200));
        a.on_nt_store(Nanos(10), HostId(1), 0, L, Nanos(100));
        a.advance(Nanos(300));
        // A host that missed *after* both applied observes the final
        // (host 0) version: fresh, no violation.
        a.on_load(Nanos(300), HostId(1), &[(0, false)], &[], &[]);
        a.on_load(Nanos(310), HostId(1), &[(0, true)], &[], &[]);
        assert_eq!(a.report().counts.stale_reads, 0);
    }

    #[test]
    fn invalidate_of_dirty_line_loses_the_write() {
        let mut a = Auditor::new(ver());
        a.on_fill(HostId(0), 0);
        a.on_store(Nanos(5), HostId(0), 0);
        a.on_invalidate(Nanos(10), HostId(0), 0, L);
        let r = a.report();
        assert_eq!(r.counts.lost_writes, 1);
        match &r.violations[0].kind {
            ViolationKind::LostWrite { cause, victim, .. } => {
                assert_eq!(*cause, LostWriteCause::InvalidateDiscard);
                assert_eq!(*victim, HostId(0));
            }
            other => panic!("expected LostWrite, got {other:?}"),
        }
    }

    #[test]
    fn two_dirty_hosts_conflict() {
        let mut a = Auditor::new(ver());
        a.on_fill(HostId(0), 0);
        a.on_store(Nanos(5), HostId(0), 0);
        a.on_fill(HostId(1), 0);
        a.on_store(Nanos(9), HostId(1), 0);
        let r = a.report();
        assert_eq!(r.counts.ww_conflicts, 1);
        match &r.violations[0].kind {
            ViolationKind::WriteWriteConflict { first, second, .. } => {
                assert_eq!(*first, HostId(0));
                assert_eq!(*second, HostId(1));
            }
            other => panic!("expected WriteWriteConflict, got {other:?}"),
        }
    }

    #[test]
    fn stale_base_flush_clobbers_newer_write() {
        let mut a = Auditor::new(ver());
        // Host 1 fills at version 0 and dirties the line.
        a.on_fill(HostId(1), 0);
        a.on_store(Nanos(5), HostId(1), 0);
        // Host 0 publishes a newer value.
        a.on_nt_store(Nanos(10), HostId(0), 0, L, Nanos(50));
        a.advance(Nanos(50));
        // Host 1 flushes its version-0-based merge over it.
        a.on_flush(Nanos(60), HostId(1), 0, L, &[0], Nanos(120));
        a.advance(Nanos(120));
        let r = a.report();
        assert_eq!(r.counts.lost_writes, 1);
        match &r.violations[0].kind {
            ViolationKind::LostWrite {
                cause, victim, by, ..
            } => {
                assert_eq!(*cause, LostWriteCause::StaleBasePublish);
                assert_eq!(*victim, HostId(0));
                assert_eq!(*by, HostId(1));
            }
            other => panic!("expected LostWrite, got {other:?}"),
        }
    }

    #[test]
    fn torn_multi_line_read_is_flagged_and_tolerance_suppresses_it() {
        let mut a = Auditor::new(ver());
        // Host 1 caches both lines at version 0.
        a.on_load(Nanos(0), HostId(1), &[(0, false), (L, false)], &[], &[]);
        // Host 0 publishes a 2-line write.
        a.on_nt_store(Nanos(10), HostId(0), 0, 2 * L, Nanos(100));
        a.advance(Nanos(100));
        // Host 1's next load hits line 0 stale but misses line 1
        // (fresh): a torn observation of one event.
        a.on_load(Nanos(200), HostId(1), &[(0, true), (L, false)], &[], &[]);
        let r = a.report();
        assert_eq!(r.counts.torn_reads, 1);
        match &r
            .violations
            .iter()
            .find(|v| matches!(v.kind, ViolationKind::TornRead { .. }))
            .unwrap()
            .kind
        {
            ViolationKind::TornRead {
                fresh_line,
                stale_line,
                writer,
                reader,
                ..
            } => {
                assert_eq!(*fresh_line, L);
                assert_eq!(*stale_line, 0);
                assert_eq!(*writer, HostId(0));
                assert_eq!(*reader, HostId(1));
            }
            other => panic!("expected TornRead, got {other:?}"),
        }

        // The same pattern inside a tear-tolerant range stays quiet.
        let mut b = Auditor::new(ver());
        b.on_load(Nanos(0), HostId(1), &[(0, false), (L, false)], &[], &[]);
        b.on_nt_store(Nanos(10), HostId(0), 0, 2 * L, Nanos(100));
        b.advance(Nanos(100));
        b.on_load(
            Nanos(200),
            HostId(1),
            &[(0, true), (L, false)],
            &[(0, 2 * L)],
            &[],
        );
        assert_eq!(b.report().counts.torn_reads, 0);
    }

    #[test]
    fn duplicate_violations_count_but_record_once() {
        let mut a = Auditor::new(ver());
        a.on_load(Nanos(0), HostId(1), &[(0, false)], &[], &[]);
        a.on_nt_store(Nanos(10), HostId(0), 0, L, Nanos(100));
        a.advance(Nanos(100));
        a.on_load(Nanos(200), HostId(1), &[(0, true)], &[], &[]);
        a.on_load(Nanos(300), HostId(1), &[(0, true)], &[], &[]);
        a.on_load(Nanos(400), HostId(1), &[(0, true)], &[], &[]);
        let r = a.report();
        assert_eq!(r.counts.stale_reads, 3);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.suppressed, 2);
    }

    #[test]
    fn record_cap_suppresses_overflow() {
        let mut a = Auditor::new(AuditConfig {
            max_recorded: 1,
            ..ver()
        });
        a.on_fill(HostId(0), 0);
        a.on_store(Nanos(1), HostId(0), 0);
        a.on_invalidate(Nanos(2), HostId(0), 0, L);
        a.on_fill(HostId(0), L);
        a.on_store(Nanos(3), HostId(0), L);
        a.on_invalidate(Nanos(4), HostId(0), L, L);
        let r = a.report();
        assert_eq!(r.counts.lost_writes, 2);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn display_mentions_parties_and_kind() {
        let v = Violation {
            line: 0x40,
            detected_at: Nanos(7),
            kind: ViolationKind::StaleRead {
                reader: HostId(1),
                writer: HostId(0),
                write_kind: WriteKind::NtStore,
                written_at: Nanos(1),
                visible_at: Nanos(2),
            },
        };
        let s = v.to_string();
        assert!(s.contains("stale-read"));
        assert!(s.contains("host 1"));
        assert!(s.contains("host 0"));
    }

    // -----------------------------------------------------------------
    // Vector-clock mode
    // -----------------------------------------------------------------

    #[test]
    fn vclock_partial_order_basics() {
        let mut a = VClock::default();
        let mut b = VClock::default();
        a.bump(Actor::Cpu(HostId(0)).index());
        b.bump(Actor::Cpu(HostId(1)).index());
        assert!(a.concurrent_with(&b));
        assert!(!a.leq(&b) && !b.leq(&a));
        // Join orders them.
        b.join(&a);
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
        assert!(!a.concurrent_with(&b));
        assert_eq!(b.get(Actor::Cpu(HostId(0)).index()), 1);
        assert_eq!(b.get(Actor::Cpu(HostId(1)).index()), 1);
    }

    #[test]
    fn actor_index_roundtrip_and_display() {
        for actor in [
            Actor::Cpu(HostId(0)),
            Actor::Dma(HostId(0)),
            Actor::Cpu(HostId(5)),
            Actor::Dma(HostId(5)),
        ] {
            assert_eq!(Actor::from_index(actor.index()), actor);
        }
        assert_eq!(Actor::Cpu(HostId(3)).to_string(), "cpu3");
        assert_eq!(Actor::Dma(HostId(3)).to_string(), "dma3");
    }

    #[test]
    fn unordered_writes_race_in_vc_mode_but_not_version_mode() {
        // Two hosts publish the same line with no coherence edge
        // between them: version mode invents an order, vector clocks
        // call the race out.
        let run = |cfg: AuditConfig| {
            let mut a = Auditor::new(cfg);
            a.on_nt_store(Nanos(0), HostId(0), 0, L, Nanos(100));
            a.on_nt_store(Nanos(10), HostId(1), 0, L, Nanos(110));
            a.advance(Nanos(200));
            a.report().clone()
        };
        assert_eq!(run(ver()).counts.concurrent_conflicts, 0);
        let r = run(vc());
        assert_eq!(r.counts.concurrent_conflicts, 1);
        match &r
            .violations
            .iter()
            .find(|v| matches!(v.kind, ViolationKind::ConcurrentConflict { .. }))
            .unwrap()
            .kind
        {
            ViolationKind::ConcurrentConflict {
                first,
                second,
                first_clock,
                second_clock,
                ..
            } => {
                assert_eq!(*first, Actor::Cpu(HostId(0)));
                assert_eq!(*second, Actor::Cpu(HostId(1)));
                assert!(first_clock.concurrent_with(second_clock));
            }
            other => panic!("expected ConcurrentConflict, got {other:?}"),
        }
    }

    #[test]
    fn dma_completion_edge_orders_cpu_read_after_dma_write() {
        // Without the completion edge the attach CPU's fresh read of a
        // DMA-written line races it; with the edge it is ordered.
        let run = |complete: bool| {
            let mut a = Auditor::new(vc());
            a.on_dma_write(Nanos(0), HostId(0), 0, L, Nanos(100));
            a.advance(Nanos(100));
            if complete {
                a.on_dma_complete(HostId(0));
            }
            a.on_load(Nanos(200), HostId(0), &[(0, false)], &[], &[]);
            a.report().counts.concurrent_conflicts
        };
        assert_eq!(run(false), 1);
        assert_eq!(run(true), 0);
    }

    #[test]
    fn sync_range_miss_is_an_acquire_edge() {
        // Host 0 publishes a flag line registered as a sync range;
        // host 1's fresh read of it joins host 0's clock, ordering a
        // subsequent read of host 0's earlier data write.
        let run = |sync: &[(u64, u64)]| {
            let mut a = Auditor::new(vc());
            // Data write, then flag write (program order on cpu0).
            a.on_nt_store(Nanos(0), HostId(0), 2 * L, L, Nanos(90));
            a.on_nt_store(Nanos(10), HostId(0), 0, L, Nanos(100));
            a.advance(Nanos(150));
            // Host 1 reads flag then data, both fresh.
            a.on_load(Nanos(200), HostId(1), &[(0, false)], &[], sync);
            a.on_load(Nanos(210), HostId(1), &[(2 * L, false)], &[], sync);
            a.report().counts.concurrent_conflicts
        };
        // No sync range: the flag read itself races host 0's write.
        assert!(run(&[]) > 0);
        // Flag line registered: acquire edge, everything ordered.
        assert_eq!(run(&[(0, L)]), 0);
    }

    #[test]
    fn stale_hit_with_edge_is_precise_stale_read_not_race() {
        let mut a = Auditor::new(vc());
        // Host 1 caches the data line.
        a.on_load(Nanos(0), HostId(1), &[(2 * L, false)], &[], &[]);
        // Host 0 publishes data then a sync flag.
        a.on_nt_store(Nanos(10), HostId(0), 2 * L, L, Nanos(90));
        a.on_nt_store(Nanos(20), HostId(0), 0, L, Nanos(100));
        a.advance(Nanos(150));
        // Host 1 acquires via the flag, then hits its stale data copy:
        // the missed write is hb-ordered before the read, so this is a
        // definite stale read, not a race.
        a.on_load(Nanos(200), HostId(1), &[(0, false)], &[], &[(0, L)]);
        a.on_load(Nanos(210), HostId(1), &[(2 * L, true)], &[], &[(0, L)]);
        let r = a.report();
        assert_eq!(r.counts.stale_reads, 1);
        assert_eq!(r.counts.concurrent_conflicts, 0);
    }

    #[test]
    fn segment_free_clears_shadow_state() {
        let mut a = Auditor::new(vc());
        a.on_nt_store(Nanos(0), HostId(0), 0, 2 * L, Nanos(100));
        a.advance(Nanos(100));
        a.on_load(Nanos(110), HostId(1), &[(0, false)], &[], &[(0, 2 * L)]);
        a.on_segment_free(0, 2 * L);
        // The next tenant of the space starts from scratch: a fresh
        // read finds no prior write to race with.
        a.on_load(Nanos(200), HostId(2), &[(0, false), (L, false)], &[], &[]);
        assert!(a.report().is_clean());
        assert!(a.race_report().line_clocks.is_empty());
    }

    #[test]
    fn race_report_carries_clock_snapshots() {
        let mut a = Auditor::new(vc());
        a.on_nt_store(Nanos(0), HostId(0), 0, L, Nanos(100));
        a.on_nt_store(Nanos(10), HostId(1), 0, L, Nanos(110));
        a.advance(Nanos(200));
        let rr = a.race_report();
        assert_eq!(rr.conflicts.len(), 1);
        assert_eq!(rr.line_clocks.len(), 1);
        assert_eq!(rr.line_clocks[0].0, 0);
        assert!(rr
            .actor_clocks
            .iter()
            .any(|(actor, _)| *actor == Actor::Cpu(HostId(0))));
        let rendered = rr.render();
        assert!(rendered.contains("concurrent conflict"));
        assert!(rendered.contains("cpu0"));
    }

    #[test]
    fn version_mode_keeps_empty_race_report() {
        let mut a = Auditor::new(ver());
        a.on_nt_store(Nanos(0), HostId(0), 0, L, Nanos(100));
        a.advance(Nanos(100));
        let rr = a.race_report();
        assert!(rr.conflicts.is_empty());
        assert!(rr.actor_clocks.is_empty());
        assert!(rr.line_clocks.is_empty());
    }

    // -----------------------------------------------------------------
    // Failure-domain namespacing
    // -----------------------------------------------------------------

    #[test]
    fn domain_index_roundtrip_and_display() {
        let a = Actor::Dma(HostId(3));
        assert_eq!(a.index_in(DomainId(0)), a.index());
        let i = a.index_in(DomainId(2));
        assert_eq!(Actor::from_index(i), a);
        assert_eq!(domain_of_index(i), DomainId(2));
        // Distinct (actor, domain) pairs never collide.
        assert_ne!(
            Actor::Cpu(HostId(u16::MAX)).index_in(DomainId(0)),
            Actor::Cpu(HostId(0)).index_in(DomainId(1))
        );

        let mut c = VClock::default();
        c.bump(Actor::Cpu(HostId(1)).index_in(DomainId(0)));
        c.bump(Actor::Cpu(HostId(1)).index_in(DomainId(2)));
        let s = c.to_string();
        assert!(s.contains("cpu1:1"), "domain-0 component plain: {s}");
        assert!(s.contains("cpu1@d2:1"), "domain-2 component tagged: {s}");
    }

    #[test]
    fn unmapped_addresses_audit_in_domain_zero() {
        let a = Auditor::new(vc());
        assert_eq!(a.domain_of_line(0x1234_0000), DomainId(0));
    }

    #[test]
    fn map_segment_resolves_per_granule_domains() {
        let mut a = Auditor::new(vc());
        // Two-way interleave alternating domains every granule.
        a.map_segment(0, 4 * INTERLEAVE_GRANULE, vec![DomainId(0), DomainId(1)]);
        assert_eq!(a.domain_of_line(0), DomainId(0));
        assert_eq!(a.domain_of_line(INTERLEAVE_GRANULE), DomainId(1));
        assert_eq!(a.domain_of_line(2 * INTERLEAVE_GRANULE), DomainId(0));
        // Outside the mapping: default domain.
        assert_eq!(a.domain_of_line(4 * INTERLEAVE_GRANULE), DomainId(0));
    }

    /// Resolving a whole op's lines at once, one mapping lookup per run,
    /// gives every line the key a per-line lookup gives it, also across
    /// adjacent, overlapping and unmapped stretches.
    #[test]
    fn run_resolved_keys_match_per_line_lookup() {
        use simkit::rng::Rng;

        let mut rng = Rng::new(9);
        let mut a = Auditor::new(ver());
        let g = INTERLEAVE_GRANULE;
        for _ in 0..40 {
            let base = rng.below(64) * g / 2;
            let end = base + (rng.below(12) + 1) * g / 2;
            let ways = (0..rng.below(3) + 1)
                .map(|_| DomainId(rng.below(3) as u16))
                .collect();
            a.map_segment(base, end, ways);
            for _ in 0..8 {
                let lines: Vec<u64> = if rng.chance(0.5) {
                    let first = rng.below(40 * g / L) * L;
                    lines_of(first, (rng.below(64) + 1) * L).collect()
                } else {
                    (0..6).map(|_| rng.below(40 * g / L) * L).collect()
                };
                let mut keys = Vec::new();
                a.resolve_keys(lines.iter().copied(), &mut keys);
                let expect: Vec<LineKey> = lines.iter().map(|&la| a.key_of(la)).collect();
                assert_eq!(keys, expect);
            }
        }
    }

    #[test]
    fn per_domain_versions_do_not_cross() {
        let mut a = Auditor::new(ver());
        a.map_segment(0, INTERLEAVE_GRANULE, vec![DomainId(1)]);
        // A write in domain 1 then a host caching a domain-0 line: the
        // domain-0 view must not appear stale against domain 1's
        // version counter.
        a.on_nt_store(Nanos(0), HostId(0), 0, L, Nanos(50));
        a.advance(Nanos(50));
        let far = 0x10_0000;
        a.on_load(Nanos(60), HostId(1), &[(far, false)], &[], &[]);
        a.on_load(Nanos(70), HostId(1), &[(far, true)], &[], &[]);
        assert!(a.report().is_clean(), "{}", a.report().render());
    }

    #[test]
    fn one_write_is_one_version_per_domain() {
        let mut a = Auditor::new(ver());
        // Granules alternate domains: the write covers lines of both.
        a.map_segment(0, 4 * INTERLEAVE_GRANULE, vec![DomainId(0), DomainId(1)]);
        let len = INTERLEAVE_GRANULE + 2 * L;
        a.on_nt_store(Nanos(0), HostId(0), 0, len, Nanos(100));
        a.advance(Nanos(100));
        let version = |a: &Auditor, la: u64| a.table.state(a.key_of(la)).map(|s| s.version);
        for la in lines_of(0, len) {
            assert_eq!(version(&a, la), Some(1), "line {la:#x}");
        }
        // Reading the whole write back is not a torn read.
        let served: Vec<(u64, bool)> = lines_of(0, len).map(|la| (la, false)).collect();
        a.on_load(Nanos(200), HostId(1), &served, &[], &[]);
        assert!(a.report().is_clean(), "{}", a.report().render());
        // Each domain's counter moves on by one per event.
        a.on_nt_store(Nanos(300), HostId(0), 0, 2 * L, Nanos(400));
        a.on_nt_store(Nanos(310), HostId(0), INTERLEAVE_GRANULE, L, Nanos(410));
        a.advance(Nanos(500));
        assert_eq!(version(&a, L), Some(2));
        assert_eq!(version(&a, INTERLEAVE_GRANULE), Some(2));
        assert_eq!(version(&a, 2 * L), Some(1));
    }

    #[test]
    fn cross_domain_reuse_does_not_alias_shadow_state() {
        let mut a = Auditor::new(vc());
        // First tenant: the range lives in domain 0; host 0 publishes
        // and host 1 caches it.
        a.map_segment(0, 2 * L, vec![DomainId(0)]);
        a.on_nt_store(Nanos(0), HostId(0), 0, 2 * L, Nanos(100));
        a.advance(Nanos(100));
        a.on_load(Nanos(110), HostId(1), &[(0, false)], &[], &[(0, 2 * L)]);
        // Free and re-map the same addresses into domain 1.
        a.on_segment_free(0, 2 * L);
        a.map_segment(0, 2 * L, vec![DomainId(1)]);
        // The new tenant's fresh accesses find no ghost of the old
        // domain's writes: no stale read, no race, no line clocks.
        a.on_load(Nanos(200), HostId(2), &[(0, false), (L, false)], &[], &[]);
        a.on_nt_store(Nanos(210), HostId(2), 0, L, Nanos(300));
        a.advance(Nanos(300));
        assert!(a.report().is_clean(), "{}", a.report().render());
        let rr = a.race_report();
        assert_eq!(rr.line_clocks.len(), 1, "only the new tenant's write");
    }

    // -----------------------------------------------------------------
    // Shared-snapshot VClock vs BTreeMap reference
    // -----------------------------------------------------------------

    /// The `BTreeMap` clock `VClock` used before it became a shared
    /// sorted snapshot, kept as the reference model: each method is the
    /// old implementation.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct RefClock(BTreeMap<usize, u64>);

    impl RefClock {
        fn get(&self, i: usize) -> u64 {
            self.0.get(&i).copied().unwrap_or(0)
        }

        fn bump(&mut self, i: usize) {
            *self.0.entry(i).or_insert(0) += 1;
        }

        fn join(&mut self, other: &RefClock) {
            for (&i, &v) in &other.0 {
                let slot = self.0.entry(i).or_insert(0);
                if v > *slot {
                    *slot = v;
                }
            }
        }

        fn leq(&self, other: &RefClock) -> bool {
            self.0.iter().all(|(&i, &v)| v <= other.get(i))
        }

        fn concurrent_with(&self, other: &RefClock) -> bool {
            !self.leq(other) && !other.leq(self)
        }

        fn render(&self) -> String {
            let parts: Vec<String> = self
                .0
                .iter()
                .filter(|(_, &v)| v != 0)
                .map(|(&i, &v)| {
                    let d = domain_of_index(i);
                    if d == DomainId(0) {
                        format!("{}:{}", Actor::from_index(i), v)
                    } else {
                        format!("{}@d{}:{}", Actor::from_index(i), d.0, v)
                    }
                })
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
    }

    /// Every query the auditor makes agrees between a clock and its
    /// reference model.
    fn assert_clock_eq(c: &VClock, r: &RefClock, indices: &[usize], ctx: &str) {
        for &i in indices {
            assert_eq!(c.get(i), r.get(i), "{ctx}: get({i})");
        }
        assert_eq!(c.to_string(), r.render(), "{ctx}: display");
        assert_eq!(*c == VClock::default(), r.0.is_empty(), "{ctx}: empty");
    }

    /// The shared-snapshot `VClock` answers exactly like the `BTreeMap`
    /// clock it replaced over a seeded random mix of bumps, joins
    /// (including self-joins and joins of shared snapshots), clones and
    /// comparisons, and a snapshot never changes after it is taken:
    /// neither when its source moves on nor when a clone of it does.
    #[test]
    fn vclock_matches_btreemap_reference_model() {
        use simkit::rng::Rng;

        // Components in three domain namespaces, CPU and DMA actors.
        let indices: Vec<usize> = (0..3u16)
            .flat_map(|d| {
                (0..3u16).flat_map(move |h| {
                    [Actor::Cpu(HostId(h)), Actor::Dma(HostId(h))].map(|a| a.index_in(DomainId(d)))
                })
            })
            .collect();
        for seed in [3u64, 11, 42, 0xBEEF] {
            let mut rng = Rng::new(seed);
            let mut clocks: Vec<(VClock, RefClock)> = vec![Default::default(); 6];
            let mut frozen: Vec<(VClock, RefClock)> = Vec::new();
            for step in 0..1500 {
                let a = rng.below(clocks.len() as u64) as usize;
                let b = rng.below(clocks.len() as u64) as usize;
                match rng.below(8) {
                    0..=2 => {
                        let i = indices[rng.below(indices.len() as u64) as usize];
                        clocks[a].0.bump(i);
                        clocks[a].1.bump(i);
                    }
                    3 | 4 => {
                        let (oc, or) = clocks[b].clone();
                        clocks[a].0.join(&oc);
                        clocks[a].1.join(&or);
                    }
                    5 => clocks[a] = clocks[b].clone(),
                    // Freeze a snapshot; a few live at a time.
                    6 if frozen.len() < 8 => frozen.push(clocks[a].clone()),
                    6 => frozen[b] = clocks[a].clone(),
                    _ => clocks[a] = Default::default(),
                }
                let ctx = format!("seed {seed} step {step}");
                for (x, (cx, rx)) in clocks.iter().enumerate() {
                    assert_clock_eq(cx, rx, &indices, &ctx);
                    for (cy, ry) in &clocks {
                        assert_eq!(cx.leq(cy), rx.leq(ry), "{ctx}: leq from {x}");
                        assert_eq!(
                            cx.concurrent_with(cy),
                            rx.concurrent_with(ry),
                            "{ctx}: concurrent_with from {x}"
                        );
                        assert_eq!(cx == cy, rx == ry, "{ctx}: == from {x}");
                    }
                }
                for (cf, rf) in &frozen {
                    assert_clock_eq(cf, rf, &indices, &format!("{ctx} frozen"));
                }
            }
        }
    }

    #[test]
    fn vclock_snapshots_are_isolated_and_noop_joins_share() {
        let (i, j) = (Actor::Cpu(HostId(0)).index(), Actor::Dma(HostId(1)).index());
        let mut src = VClock::default();
        src.bump(i);
        // A snapshot keeps its value when the source bumps or joins on.
        let snap = src.clone();
        assert!(snap.same_snapshot(&src), "clone shares the snapshot");
        src.bump(i);
        let mut other = VClock::default();
        other.bump(j);
        src.join(&other);
        assert_eq!((snap.get(i), snap.get(j)), (1, 0));
        assert_eq!((src.get(i), src.get(j)), (2, 1));
        // And the reverse: moving a clone on leaves the source alone.
        let mut copy = src.clone();
        copy.bump(j);
        copy.join(&clk(Actor::Cpu(HostId(2)).index(), 4));
        assert_eq!((src.get(i), src.get(j)), (2, 1));
        assert_eq!(src.get(Actor::Cpu(HostId(2)).index()), 0);
        // A join that adds nothing copies nothing.
        let before = src.clone();
        src.join(&snap);
        src.join(&before);
        src.join(&VClock::default());
        assert!(src.same_snapshot(&before), "no-op join must not copy");
        // Joining into an empty clock shares the other snapshot.
        let mut empty = VClock::default();
        empty.join(&src);
        assert!(empty.same_snapshot(&src));
    }

    #[test]
    fn vclock_debug_reads_as_an_index_map() {
        let mut c = VClock::default();
        c.bump(3);
        c.bump(0);
        c.bump(3);
        assert_eq!(format!("{c:?}"), "VClock({0: 1, 3: 2})");
        assert_eq!(format!("{:?}", VClock::default()), "VClock({})");
    }

    // -----------------------------------------------------------------
    // Binary-searched range lookup vs linear scan
    // -----------------------------------------------------------------

    /// The linear scan `in_ranges` used to be: the line lies fully
    /// inside one registered range.
    fn in_ranges_linear(ranges: &[(u64, u64)], la: u64) -> bool {
        ranges
            .iter()
            .any(|&(start, end)| la >= start && la + CACHELINE <= end)
    }

    /// Binary search over the un-nested ranges answers exactly like a
    /// linear scan over every registration, on random nested, adjacent,
    /// duplicate and line-straddling ranges, through inserts and
    /// overlap removals.
    #[test]
    fn line_ranges_lookup_matches_linear_scan() {
        use simkit::rng::Rng;

        const SPAN: u64 = 4096;
        for seed in [1u64, 5, 42, 0xFACE] {
            let mut rng = Rng::new(seed);
            let mut set = LineRanges::default();
            let mut model: Vec<(u64, u64)> = Vec::new();
            for step in 0..600 {
                match rng.below(6) {
                    // Remove every range overlapping a random window.
                    0 => {
                        let base = rng.below(SPAN / 16) * 16;
                        let end = base + (rng.below(32) + 1) * 16;
                        set.remove_overlapping(base, end);
                        model.retain(|&(s, e)| e <= base || s >= end);
                    }
                    // Re-register an existing range: a duplicate.
                    1 if !model.is_empty() => {
                        let r = model[rng.below(model.len() as u64) as usize];
                        set.insert(r.0, r.1);
                        model.push(r);
                    }
                    // A range nested in, or adjacent to, an existing one.
                    2 if !model.is_empty() => {
                        let (s, e) = model[rng.below(model.len() as u64) as usize];
                        let r = if rng.chance(0.5) && e - s > 16 {
                            let lo = s + rng.below((e - s) / 16) * 16;
                            (lo, lo + (rng.below((e - lo) / 16) + 1) * 16)
                        } else {
                            (e, e + (rng.below(16) + 1) * 16)
                        };
                        set.insert(r.0, r.1);
                        model.push(r);
                    }
                    // A fresh range; 16-byte granularity makes ranges
                    // that straddle line boundaries common.
                    _ => {
                        let s = rng.below(SPAN / 16) * 16;
                        let r = (s, s + (rng.below(40) + 1) * 16);
                        set.insert(r.0, r.1);
                        model.push(r);
                    }
                }
                let mut sorted = model.clone();
                sorted.sort_unstable();
                assert_eq!(set.registered(), sorted, "seed {seed} step {step}");
                let outer = set.lookup();
                assert!(
                    outer.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1),
                    "seed {seed} step {step}: lookup ranges not a chain: {outer:?}"
                );
                for la in (0..SPAN + 1024).step_by(CACHELINE as usize) {
                    assert_eq!(
                        in_ranges(outer, la),
                        in_ranges_linear(&model, la),
                        "seed {seed} step {step} line {la:#x}"
                    );
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Flat table vs HashMap oracle
    // -----------------------------------------------------------------

    /// The HashMap shadow state the flat [`LineTable`] replaced, kept
    /// as a test oracle: every table operation has its literal map
    /// translation here, so a divergence is a table bug by definition.
    #[derive(Default)]
    struct OracleTable {
        o_states: HashMap<LineKey, LineState>,
        o_wclocks: HashMap<LineKey, (Actor, VClock)>,
        o_views: HashMap<(u16, LineKey), HostView>,
        o_view_clocks: HashMap<(u16, LineKey), VClock>,
        o_dirty_clocks: HashMap<(u16, LineKey), VClock>,
    }

    impl OracleTable {
        fn set_view(&mut self, h: u16, key: LineKey, view: HostView, vc: Option<VClock>) {
            self.o_views.insert((h, key), view);
            match vc {
                Some(c) => self.o_view_clocks.insert((h, key), c),
                None => self.o_view_clocks.remove(&(h, key)),
            };
            self.o_dirty_clocks.remove(&(h, key));
        }

        fn remove_view(&mut self, h: u16, key: LineKey) -> Option<HostView> {
            self.o_view_clocks.remove(&(h, key));
            self.o_dirty_clocks.remove(&(h, key));
            self.o_views.remove(&(h, key))
        }

        fn min_dirty_other(&self, h: u16, key: LineKey) -> Option<(HostId, Nanos)> {
            self.o_views
                .iter()
                .filter(|(&(vh, vk), v)| vk == key && vh != h && v.dirty)
                .min_by_key(|(&(vh, _), _)| vh)
                .map(|(&(vh, _), v)| (HostId(vh), v.dirty_since))
        }

        fn free_range(&mut self, base: u64, end: u64) -> Vec<u64> {
            let mut freed: Vec<u64> = Vec::new();
            self.o_states.retain(|&(_, la), st| {
                let gone = la >= base && la < end;
                if gone {
                    freed.push(st.event);
                }
                !gone
            });
            self.o_wclocks.retain(|&(_, la), _| la < base || la >= end);
            self.o_views
                .retain(|&(_, (_, la)), _| la < base || la >= end);
            self.o_view_clocks
                .retain(|&(_, (_, la)), _| la < base || la >= end);
            self.o_dirty_clocks
                .retain(|&(_, (_, la)), _| la < base || la >= end);
            freed.sort_unstable();
            freed
        }
    }

    fn st(event: u64, version: u64, writer: u16) -> LineState {
        LineState {
            event,
            version,
            writer: HostId(writer),
            kind: WriteKind::NtStore,
            written_at: Nanos(version),
            visible_at: Nanos(version + 1),
        }
    }

    fn hv(version: u64, event: u64) -> HostView {
        HostView {
            version,
            event,
            dirty: false,
            dirty_since: Nanos::ZERO,
            base_version: version,
        }
    }

    fn clk(i: usize, n: u64) -> VClock {
        let mut c = VClock::default();
        for _ in 0..n {
            c.bump(i);
        }
        c
    }

    /// ISSUE satellite: the flat paged table must be observationally
    /// equivalent to the HashMap shadow state it replaced. Drives both
    /// through one randomized op stream — including range frees and
    /// cross-domain reuse of the same line addresses after the free —
    /// and compares every query the auditor actually makes.
    #[test]
    fn flat_table_matches_hashmap_oracle_across_domain_reuse() {
        use simkit::rng::Rng;

        const FLOOR: u64 = 1 << 20;
        // Spans three 1024-line pages so page allocation, partial-page
        // frees, and whole-page drops are all exercised.
        const LINES: u64 = 2200;

        for seed in [1u64, 7, 42, 0xC0FFEE] {
            let mut rng = Rng::new(seed);
            let mut table = LineTable::default();
            let mut oracle = OracleTable::default();
            let mut ev = 1u64;
            let key_at = |rng: &mut Rng| -> LineKey {
                (
                    DomainId(rng.below(3) as u16),
                    FLOOR + rng.below(LINES) * CACHELINE,
                )
            };
            for step in 0..4000u64 {
                let key = key_at(&mut rng);
                let h = rng.below(4) as u16;
                match rng.below(10) {
                    0 | 1 => {
                        let s = st(ev, step, h);
                        ev += 1;
                        assert_eq!(table.set_state(key, s), oracle.o_states.insert(key, s));
                    }
                    2 => {
                        let a = Actor::Cpu(HostId(h));
                        let c = clk(h as usize, step % 5 + 1);
                        table.set_wclock(key, a, c.clone());
                        oracle.o_wclocks.insert(key, (a, c));
                    }
                    3 | 4 => {
                        let vc = rng.chance(0.5).then(|| clk(h as usize, step % 3 + 1));
                        table.set_view(h, key, hv(step, ev), vc.clone());
                        oracle.set_view(h, key, hv(step, ev), vc);
                    }
                    5 => {
                        // The on_store shape: seed-or-get, then dirty.
                        let seeded = hv(step, ev);
                        let dc = clk(h as usize, step % 4 + 1);
                        let entry = table.view_or_insert(h, key, seeded);
                        let oview = oracle.o_views.entry((h, key)).or_insert(seeded);
                        assert_eq!(entry.view, *oview);
                        if !entry.view.dirty {
                            entry.view.dirty = true;
                            entry.view.dirty_since = Nanos(step);
                            entry.view.base_version = entry.view.version;
                            entry.dirty_clock = Some(dc.clone());
                            oview.dirty = true;
                            oview.dirty_since = Nanos(step);
                            oview.base_version = oview.version;
                            oracle.o_dirty_clocks.insert((h, key), dc);
                        }
                    }
                    6 => {
                        assert_eq!(table.remove_view(h, key), oracle.remove_view(h, key));
                    }
                    7 if step.is_multiple_of(3) => {
                        // Free a random subrange, then (sometimes) the
                        // very next ops land on the same addresses in a
                        // *different* domain — the reuse case the free
                        // must not leak state into.
                        let lo = FLOOR + rng.below(LINES) * CACHELINE;
                        let hi = lo + (rng.below(600) + 1) * CACHELINE;
                        let mut freed = Vec::new();
                        table.free_range(lo, hi, |s| freed.push(s.event));
                        freed.sort_unstable();
                        assert_eq!(freed, oracle.free_range(lo, hi));
                    }
                    _ => {}
                }
                // Point queries the auditor hot paths make.
                let q = key_at(&mut rng);
                let qh = rng.below(4) as u16;
                assert_eq!(table.state(q), oracle.o_states.get(&q).copied());
                assert_eq!(table.wclock(q), oracle.o_wclocks.get(&q));
                assert_eq!(
                    table.view_entry(qh, q).map(|e| e.view),
                    oracle.o_views.get(&(qh, q)).copied()
                );
                assert_eq!(
                    table.view_entry(qh, q).and_then(|e| e.view_clock.as_ref()),
                    oracle.o_view_clocks.get(&(qh, q))
                );
                assert_eq!(
                    table.view_entry(qh, q).and_then(|e| e.dirty_clock.as_ref()),
                    oracle.o_dirty_clocks.get(&(qh, q))
                );
                assert_eq!(table.min_dirty_other(qh, q), oracle.min_dirty_other(qh, q));
            }
            // Full-dump equivalence: sorted views of everything.
            let mut dirty: Vec<(u16, u64, Nanos)> = oracle
                .o_views
                .iter()
                .filter(|(_, v)| v.dirty)
                .map(|(&(h, (_, la)), v)| (h, la, v.dirty_since))
                .collect();
            dirty.sort_unstable();
            let mut table_dirty = table.dirty_views();
            table_dirty.sort_unstable();
            assert_eq!(table_dirty, dirty, "seed {seed}");
            let mut wc: Vec<(LineKey, Actor)> = oracle
                .o_wclocks
                .iter()
                .map(|(&k, &(a, _))| (k, a))
                .collect();
            wc.sort_unstable_by_key(|&(k, _)| k);
            let table_wc: Vec<(LineKey, Actor)> = table
                .wclocks_sorted()
                .into_iter()
                .map(|(k, a, _)| (k, a))
                .collect();
            assert_eq!(table_wc, wc, "seed {seed}");
        }
    }
}
