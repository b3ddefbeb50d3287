//! The fabric proper: timed, contents-accurate memory operations against
//! the pool and against per-host local DRAM.
//!
//! Every operation takes the current simulated time and returns the
//! operation's *completion* time, with queueing on links and device
//! controllers modelled by [`simkit::server::BandwidthPipe`] timelines.
//! Writes to the pool become visible to other hosts only at their
//! completion time (an in-flight write buffer holds them until then), and
//! cached stores are not visible at all until flushed or evicted — the
//! two hazards software coherence must handle on real non-coherent pools.

use std::cell::Cell;
use std::collections::BTreeMap;

use simkit::metrics::{MetricsConfig, MetricsRecorder};
use simkit::server::BandwidthPipe;
use simkit::time::transfer_time;
use simkit::trace::{TraceConfig, TraceRecorder, Track};
use simkit::Nanos;

use crate::alloc::{DomainPlacement, PoolAllocator, Segment, SegmentId};
use crate::audit::{
    Actor, AuditConfig, AuditReport, Auditor, LineRanges, RaceReport, Violation, ViolationKind,
};
use crate::cache::{CacheStats, Eviction, HostCache, LoadOutcome};
use crate::error::FabricError;
use crate::params::{FabricParams, CACHELINE};
use crate::sparse::SparseMem;
use crate::topology::{HostId, LinkId, MhdId, Topology};

/// Cost of a load served from the host's own cache (an L2-ish hit).
const CACHE_HIT_NS: u64 = 5;
/// CPU cost of issuing one cache-line invalidate.
pub const INVALIDATE_NS: u64 = 2;

/// Construction parameters for a pod.
#[derive(Clone, Debug)]
pub struct PodConfig {
    /// Number of hosts.
    pub hosts: u16,
    /// Number of multi-headed devices.
    pub mhds: u16,
    /// Redundant paths per host (λ): links to λ distinct MHDs.
    pub lambda: u16,
    /// Number of failure domains the MHDs are spread over. Must divide
    /// `mhds` evenly. The default (`mhds`) puts each MHD in its own
    /// domain, matching [`Topology::dense`]; a smaller value groups
    /// MHDs round-robin via [`Topology::multi_domain`].
    pub domains: u16,
    /// Timing parameters.
    pub params: FabricParams,
    /// Capacity contributed by each MHD, in bytes.
    pub mhd_capacity: u64,
    /// Default interleave width for allocations made through
    /// [`Fabric::alloc_private`] / [`Fabric::alloc_shared`].
    pub default_ways: usize,
    /// Per-host local DDR5 bandwidth available to I/O, in GB/s.
    pub local_dram_gbps: f64,
}

impl PodConfig {
    /// A pod with the given shape and default timing/capacity.
    pub fn new(hosts: u16, mhds: u16, lambda: u16) -> PodConfig {
        PodConfig {
            hosts,
            mhds,
            lambda,
            domains: mhds,
            params: FabricParams::default(),
            mhd_capacity: 256 << 30,
            default_ways: lambda as usize,
            local_dram_gbps: 150.0,
        }
    }

    /// Overrides the timing parameters.
    pub fn with_params(mut self, params: FabricParams) -> PodConfig {
        self.params = params;
        self
    }

    /// Spreads the MHDs over `domains` failure domains (round-robin).
    ///
    /// # Panics
    ///
    /// Panics if `domains` is zero or does not divide `mhds` evenly.
    pub fn with_domains(mut self, domains: u16) -> PodConfig {
        assert!(
            domains > 0 && self.mhds.is_multiple_of(domains),
            "domains ({domains}) must evenly divide mhds ({})",
            self.mhds
        );
        self.domains = domains;
        self
    }
}

/// Aggregate operation counters for the whole fabric.
#[derive(Clone, Copy, Debug, Default)]
pub struct AccessStats {
    /// CPU loads against the pool.
    pub loads: u64,
    /// CPU (cached, write-back) stores against the pool.
    pub stores: u64,
    /// Non-temporal stores against the pool.
    pub nt_stores: u64,
    /// Cache-line flushes issued.
    pub flushes: u64,
    /// Device DMA reads from the pool.
    pub dma_reads: u64,
    /// Device DMA writes to the pool.
    pub dma_writes: u64,
    /// Total bytes moved host←pool (loads + DMA reads).
    pub bytes_read: u64,
    /// Total bytes moved host→pool (visible writes only).
    pub bytes_written: u64,
}

/// The per-line bookkeeping of one [`Fabric::load`].
#[derive(Default)]
struct LoadScratch {
    /// Every line the load touched, with whether the cache served it.
    served: Vec<(u64, bool)>,
    /// The lines fetched from the pool.
    missed: Vec<u64>,
    /// Cache victims of the fills.
    evictions: Vec<Eviction>,
}

struct PendingWrite {
    hpa: u64,
    data: Vec<u8>,
}

/// A CXL pod: topology + timing + contents + per-host caches.
pub struct Fabric {
    topology: Topology,
    params: FabricParams,
    alloc: PoolAllocator,
    pool: SparseMem,
    pending: BTreeMap<(Nanos, u64), PendingWrite>,
    pending_seq: u64,
    caches: Vec<HostCache>,
    local_mem: Vec<SparseMem>,
    local_pipes: Vec<BandwidthPipe>,
    uplinks: Vec<BandwidthPipe>,
    downlinks: Vec<BandwidthPipe>,
    mhd_pipes: Vec<BandwidthPipe>,
    default_ways: usize,
    stats: AccessStats,
    /// Opt-in coherence checker; boxed to keep the disabled fast path
    /// small.
    audit: Option<Box<Auditor>>,
    /// Ranges where torn multi-line reads are tolerated by protocol
    /// design (seqlock bodies). Kept even while auditing is off so a
    /// later [`Fabric::enable_audit`] still honours them.
    tear_tolerant: LineRanges,
    /// Ranges holding synchronization protocol state (ring slots,
    /// mailboxes, seqlock words): reads there are acquire operations
    /// in the vector-clock model. Kept even while auditing is off, as
    /// with `tear_tolerant`.
    sync_ranges: LineRanges,
    /// Opt-in flight recorder (see [`simkit::trace`]); boxed so the
    /// disabled fast path pays one pointer, mirroring `audit`.
    trace: Option<Box<TraceRecorder>>,
    /// Opt-in metrics registry + sampler (see [`simkit::metrics`]);
    /// boxed so the disabled fast path pays one pointer, mirroring
    /// `trace` and `audit`.
    metrics: Option<Box<MetricsRecorder>>,
    /// Reusable per-access scratch for [`Segment::spread_into`]: every
    /// pool access computes an interleave spread, and reusing one
    /// buffer keeps the datapath allocation-free. A `Cell` so the pure
    /// [`Fabric::idle_load_latency`] can borrow it too.
    spread_scratch: Cell<Vec<(MhdId, u64)>>,
    /// Reusable scratch for [`Fabric::load`], kept like
    /// `spread_scratch` so a load allocates nothing.
    load_scratch: LoadScratch,
    /// Bumped on every [`Fabric::topology_mut`] borrow, so callers that
    /// cache path-dependent answers (see [`Fabric::idle_load_latency`])
    /// know when to recompute them.
    topology_epoch: u64,
}

impl Fabric {
    /// Builds a pod from `config`.
    pub fn new(config: PodConfig) -> Fabric {
        let topology = if config.domains == config.mhds {
            Topology::dense(config.hosts, config.mhds, config.lambda)
        } else {
            assert!(
                config.domains > 0 && config.mhds.is_multiple_of(config.domains),
                "domains ({}) must evenly divide mhds ({})",
                config.domains,
                config.mhds
            );
            Topology::multi_domain(
                config.hosts,
                config.domains,
                config.mhds / config.domains,
                config.lambda,
            )
        };
        let link_gbps = config.params.link_gbps();
        let n_links = topology.links().len();
        Fabric {
            alloc: PoolAllocator::new(config.mhds, config.mhd_capacity),
            caches: (0..config.hosts)
                .map(|_| HostCache::new(config.params.host_cache_lines))
                .collect(),
            local_mem: (0..config.hosts).map(|_| SparseMem::new()).collect(),
            local_pipes: (0..config.hosts)
                .map(|_| BandwidthPipe::new(config.local_dram_gbps))
                .collect(),
            uplinks: (0..n_links)
                .map(|_| BandwidthPipe::new(link_gbps))
                .collect(),
            downlinks: (0..n_links)
                .map(|_| BandwidthPipe::new(link_gbps))
                .collect(),
            mhd_pipes: (0..config.mhds)
                .map(|_| BandwidthPipe::new(config.params.mhd_dram_gbps))
                .collect(),
            pool: SparseMem::new(),
            pending: BTreeMap::new(),
            pending_seq: 0,
            default_ways: config.default_ways.max(1),
            params: config.params,
            topology,
            stats: AccessStats::default(),
            audit: None,
            tear_tolerant: LineRanges::default(),
            sync_ranges: LineRanges::default(),
            trace: None,
            metrics: None,
            spread_scratch: Cell::default(),
            load_scratch: LoadScratch::default(),
            topology_epoch: 0,
        }
    }

    // ---------------------------------------------------------------
    // Coherence auditing
    // ---------------------------------------------------------------

    /// Turns on the coherence-violation checker. Every subsequent pool
    /// access is shadowed; see [`crate::audit`] for the hazards
    /// detected. Cached state present before the call is treated as
    /// current (enabling mid-run never invents violations).
    pub fn enable_audit(&mut self, config: AuditConfig) {
        let mut auditor = Box::new(Auditor::new(config));
        // Register live segments' failure-domain interleave patterns so
        // shadow state is namespaced correctly from the first access.
        for seg in self.alloc.segments() {
            let doms = seg
                .ways()
                .iter()
                .map(|&w| self.topology.domain_of(w))
                .collect();
            auditor.map_segment(seg.base(), seg.end(), doms);
        }
        self.audit = Some(auditor);
    }

    /// True when audit mode is on.
    pub fn audit_enabled(&self) -> bool {
        self.audit.is_some()
    }

    /// The auditor's findings so far, if auditing is enabled.
    pub fn audit_report(&self) -> Option<&AuditReport> {
        self.audit.as_deref().map(Auditor::report)
    }

    /// Removes and returns recorded violations (counters are kept).
    pub fn drain_audit_violations(&mut self) -> Vec<Violation> {
        // Emit any not-yet-traced violations first, then rewind the
        // trace watermark: the recorded list is about to reset.
        self.sync_trace_audit();
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.set_audit_watermark(0);
        }
        self.audit
            .as_deref_mut()
            .map(Auditor::drain_violations)
            .unwrap_or_default()
    }

    /// Settles all in-flight writes, flags dirty lines still unpublished
    /// on segments other hosts can read, and returns the final report.
    /// `now` stamps the unflushed-write findings.
    pub fn audit_finalize(&mut self, now: Nanos) -> Option<AuditReport> {
        self.apply_pending(Nanos::MAX);
        let audit = self.audit.as_deref_mut()?;
        for (host, la, dirty_since) in audit.dirty_lines() {
            if let Ok(seg) = self.alloc.segment_at(la) {
                if seg.owners().len() > 1 {
                    audit.record_unflushed(now, host, la, dirty_since);
                }
            }
        }
        let report = audit.report().clone();
        self.sync_trace_audit();
        Some(report)
    }

    /// Declares `[hpa, hpa + len)` tear-tolerant: a protocol there
    /// (e.g. a seqlock) detects and retries torn reads itself, so the
    /// auditor does not report them.
    pub fn mark_tear_tolerant(&mut self, hpa: u64, len: u64) {
        if len > 0 {
            self.tear_tolerant.insert(hpa, hpa + len);
        }
    }

    /// Declares `[hpa, hpa + len)` a synchronization range: the
    /// protocol state there (ring slots, mailbox lines, seqlock words)
    /// transfers ordering, so in vector-clock audit mode a fresh read
    /// of such a line is an *acquire* of the observed write's clock.
    /// Registered by the shmem channel/mailbox/seqlock constructors.
    pub fn mark_sync_range(&mut self, hpa: u64, len: u64) {
        if len > 0 {
            self.sync_ranges.insert(hpa, hpa + len);
        }
    }

    /// The happens-before race findings with clock snapshots, if
    /// auditing is enabled (empty unless the auditor runs in
    /// [`crate::audit::AuditMode::VectorClock`]).
    pub fn race_report(&self) -> Option<RaceReport> {
        self.audit.as_deref().map(Auditor::race_report)
    }

    /// Records a DMA completion observed by `host`'s CPU (the CQE /
    /// doorbell read): everything the device did happens-before the
    /// CPU's subsequent work. Called by `DmaEngine` after each pool
    /// DMA; a no-op unless vector-clock auditing is on.
    pub fn dma_complete(&mut self, host: HostId) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_dma_complete(host);
        }
    }

    // ---------------------------------------------------------------
    // Flight recorder
    // ---------------------------------------------------------------

    /// Turns on the flight recorder (see [`simkit::trace`]). Every
    /// instrumented datapath stage records spans/instants from here on;
    /// with [`TraceConfig::fabric_ops`] set, individual fabric accesses
    /// get spans too. Recording is observation only: it never advances
    /// any clock, so enabling it does not change simulated behavior.
    pub fn enable_trace(&mut self, config: TraceConfig) {
        self.trace = Some(Box::new(TraceRecorder::new(config)));
    }

    /// True when the flight recorder is on.
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The recorder, if enabled.
    pub fn trace(&self) -> Option<&TraceRecorder> {
        self.trace.as_deref()
    }

    /// Mutable recorder access for instrumentation sites. Callers must
    /// treat a `None` as "tracing off" and skip all recording work.
    pub fn trace_mut(&mut self) -> Option<&mut TraceRecorder> {
        self.trace.as_deref_mut()
    }

    /// Pushes `(op, device kind)` trace context; a no-op when tracing
    /// is off. Pair with [`Fabric::trace_pop`].
    pub fn trace_push(&mut self, op: u64, kind: u8) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.push_ctx(op, kind);
        }
    }

    /// Pops the top trace context; a no-op when tracing is off.
    pub fn trace_pop(&mut self) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.pop_ctx();
        }
    }

    // ---------------------------------------------------------------
    // Metrics plane
    // ---------------------------------------------------------------

    /// Turns on the metrics registry + sampler (see
    /// [`simkit::metrics`]). Layers holding `&mut Fabric` register
    /// series and record values; the pod's pump loop drives the
    /// simulated-time sampling tick.
    pub fn enable_metrics(&mut self, config: MetricsConfig) {
        self.metrics = Some(Box::new(MetricsRecorder::new(config)));
    }

    /// True when the metrics plane is on.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// The metrics recorder, if enabled.
    pub fn metrics(&self) -> Option<&MetricsRecorder> {
        self.metrics.as_deref()
    }

    /// Mutable access to the metrics recorder, if enabled.
    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRecorder> {
        self.metrics.as_deref_mut()
    }

    /// Records a span for one fabric access when verbose fabric-op
    /// tracing is requested.
    fn trace_fabric_op(&mut self, track: Track, name: &'static str, start: Nanos, end: Nanos) {
        if let Some(tr) = self.trace.as_deref_mut() {
            if tr.config().fabric_ops {
                tr.span(track, name, start, end);
            }
        }
    }

    /// Re-emits audit violations recorded since the last call as
    /// instant events on the offending actor's track, so races and
    /// stale reads are visible in context in the exported trace.
    fn sync_trace_audit(&mut self) {
        let (Some(tr), Some(a)) = (self.trace.as_deref_mut(), self.audit.as_deref()) else {
            return;
        };
        let vs = &a.report().violations;
        let mut seen = tr.audit_watermark();
        let (op, kind) = tr.ctx();
        while seen < vs.len() {
            let v = &vs[seen];
            tr.instant_for(
                violation_track(&v.kind),
                "audit/violation",
                op,
                kind,
                v.detected_at,
                Some(&format!("{} @{:#x}", v.kind.name(), v.line)),
            );
            seen += 1;
        }
        tr.set_audit_watermark(seen);
    }

    /// The pod topology (for failure injection and path inspection).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable topology access (failure injection). Every call counts
    /// as a topology change for [`Fabric::topology_epoch`].
    pub fn topology_mut(&mut self) -> &mut Topology {
        self.topology_epoch += 1;
        &mut self.topology
    }

    /// A counter that changes whenever the topology may have changed
    /// (link or MHD failure or repair). Answers derived from paths,
    /// such as [`Fabric::idle_load_latency`], stay valid while it
    /// holds still.
    pub fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    /// The timing parameters in force.
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// Aggregate operation counters.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Cache counters for one host.
    pub fn cache_stats(&self, host: HostId) -> CacheStats {
        self.caches[host.0 as usize].stats()
    }

    // ---------------------------------------------------------------
    // Allocation
    // ---------------------------------------------------------------

    /// Allocates a private segment for `host`.
    pub fn alloc_private(&mut self, host: HostId, len: u64) -> Result<Segment, FabricError> {
        let seg = self
            .alloc
            .alloc(&self.topology, &[host], len, self.default_ways)?;
        self.register_segment_domains(&seg);
        Ok(seg)
    }

    /// Allocates a segment shared by `hosts` (the substrate for
    /// cross-host I/O buffers and message channels).
    pub fn alloc_shared(&mut self, hosts: &[HostId], len: u64) -> Result<Segment, FabricError> {
        let seg = self
            .alloc
            .alloc(&self.topology, hosts, len, self.default_ways)?;
        self.register_segment_domains(&seg);
        Ok(seg)
    }

    /// Allocates with an explicit interleave width (for the interleave
    /// bandwidth experiments).
    pub fn alloc_interleaved(
        &mut self,
        hosts: &[HostId],
        len: u64,
        ways: usize,
    ) -> Result<Segment, FabricError> {
        let seg = self.alloc.alloc(&self.topology, hosts, len, ways)?;
        self.register_segment_domains(&seg);
        Ok(seg)
    }

    /// Allocates a segment shared by `hosts` under an explicit
    /// failure-domain placement (pin to one domain, or stripe across a
    /// minimum number of domains); see
    /// [`crate::alloc::DomainPlacement`].
    pub fn alloc_placed(
        &mut self,
        hosts: &[HostId],
        len: u64,
        max_ways: usize,
        placement: DomainPlacement,
    ) -> Result<Segment, FabricError> {
        let seg = self
            .alloc
            .alloc_placed(&self.topology, hosts, len, max_ways, placement)?;
        self.register_segment_domains(&seg);
        Ok(seg)
    }

    /// Tells the auditor which failure domain backs each interleave
    /// granule of a fresh segment (a no-op with auditing off).
    fn register_segment_domains(&mut self, seg: &Segment) {
        if let Some(a) = self.audit.as_deref_mut() {
            let doms = seg
                .ways()
                .iter()
                .map(|&w| self.topology.domain_of(w))
                .collect();
            a.map_segment(seg.base(), seg.end(), doms);
        }
    }

    /// Releases a segment. Tear-tolerant and sync ranges inside it are
    /// dropped, and the auditor forgets its shadow state for the
    /// space, so a reallocation is audited from scratch.
    pub fn free_segment(&mut self, id: SegmentId) -> Result<(), FabricError> {
        if let Some(seg) = self.alloc.segment(id) {
            let (base, end) = (seg.base(), seg.end());
            self.tear_tolerant.remove_overlapping(base, end);
            self.sync_ranges.remove_overlapping(base, end);
            if let Some(a) = self.audit.as_deref_mut() {
                a.on_segment_free(base, end);
            }
        }
        self.alloc.free(id)
    }

    /// Total free pool capacity in bytes.
    pub fn free_capacity(&self) -> u64 {
        self.alloc.total_free()
    }

    /// Free capacity on the *up* MHDs of one failure domain, in bytes
    /// (zero while the whole domain is failed). Placement policies use
    /// this as the domain's utilization signal.
    pub fn domain_free(&self, domain: crate::topology::DomainId) -> u64 {
        self.topology
            .mhds_in_domain(domain)
            .into_iter()
            .filter(|&m| self.topology.mhd_is_up(m))
            .map(|m| self.alloc.free_on(m))
            .sum()
    }

    /// Total capacity of the *up* MHDs of one failure domain, in bytes.
    /// With [`Fabric::domain_free`] this yields a domain utilization
    /// percentage for local-first placement thresholds.
    pub fn domain_capacity(&self, domain: crate::topology::DomainId) -> u64 {
        let up = self
            .topology
            .mhds_in_domain(domain)
            .into_iter()
            .filter(|&m| self.topology.mhd_is_up(m))
            .count() as u64;
        up * self.alloc.capacity_per_mhd()
    }

    /// Free capacity on one MHD, in bytes (zero while it is failed).
    /// The metrics plane samples this into per-MHD utilization series.
    pub fn mhd_free(&self, mhd: crate::topology::MhdId) -> u64 {
        if self.topology.mhd_is_up(mhd) {
            self.alloc.free_on(mhd)
        } else {
            0
        }
    }

    /// Resolves an address to its segment.
    pub fn segment_at(&self, hpa: u64) -> Result<&Segment, FabricError> {
        self.alloc.segment_at(hpa)
    }

    /// Looks up a live segment by id.
    pub fn segment(&self, id: SegmentId) -> Option<&Segment> {
        self.alloc.segment(id)
    }

    // ---------------------------------------------------------------
    // Pool access (CPU side)
    // ---------------------------------------------------------------

    /// CPU load of `buf.len()` bytes at `hpa` by `host`.
    ///
    /// Lines present in the host's cache are served locally — possibly
    /// returning *stale* data, exactly like real non-coherent CXL.
    /// Missing lines are fetched from the pool (timed) and cached.
    pub fn load(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        buf: &mut [u8],
    ) -> Result<Nanos, FabricError> {
        self.apply_pending(now);
        let len = buf.len() as u64;
        let slot = self.check(host, hpa, len)?;
        self.stats.loads += 1;
        self.stats.bytes_read += len;

        let mut scratch = std::mem::take(&mut self.load_scratch);
        scratch.served.clear();
        scratch.missed.clear();
        scratch.evictions.clear();
        let cache = &mut self.caches[host.0 as usize];
        for la in lines(hpa, len) {
            match cache.load(la) {
                LoadOutcome::Hit(data) => {
                    copy_line_to_buf(la, &data, hpa, buf);
                    scratch.served.push((la, true));
                }
                LoadOutcome::Miss => {
                    scratch.missed.push(la);
                    scratch.served.push((la, false));
                }
            }
        }
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_load(
                now,
                host,
                &scratch.served,
                self.tear_tolerant.lookup(),
                self.sync_ranges.lookup(),
            );
        }
        self.sync_trace_audit();
        if scratch.missed.is_empty() {
            self.load_scratch = scratch;
            let done = now + Nanos(CACHE_HIT_NS);
            self.trace_fabric_op(Track::HostCpu(host.0), "fabric/load", now, done);
            return Ok(done);
        }

        // Fetch missing lines from the pool and install them.
        for &la in &scratch.missed {
            let mut line = [0u8; CACHELINE as usize];
            self.pool.read(la, &mut line);
            copy_line_to_buf(la, &line, hpa, buf);
            if let Some(ev) = self.caches[host.0 as usize].fill(la, line) {
                scratch.evictions.push(ev);
            }
        }
        // Dirty evictions write back immediately (they ride the same
        // link traffic; visibility now is the conservative choice).
        for &ev in &scratch.evictions {
            self.apply_eviction(now, host, ev);
        }

        let bytes = scratch.missed.len() as u64 * CACHELINE;
        self.load_scratch = scratch;
        let issue = self.params.cxl_host_overhead_ns;
        let done = self.timed_read(now, host, slot, hpa, bytes, issue)?;
        self.trace_fabric_op(Track::HostCpu(host.0), "fabric/load", now, done);
        Ok(done)
    }

    /// CPU cached (write-back) store. The data lands in the host's cache
    /// only — other hosts will *not* see it until [`Fabric::flush`] or a
    /// capacity eviction. Write misses perform a timed read-for-ownership
    /// fetch.
    pub fn store(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        data: &[u8],
    ) -> Result<Nanos, FabricError> {
        self.apply_pending(now);
        let len = data.len() as u64;
        let slot = self.check(host, hpa, len)?;
        self.stats.stores += 1;
        if let Some(a) = self.audit.as_deref_mut() {
            a.count_store(host, hpa, len);
        }

        // RFO: fetch lines we don't own yet so partial-line stores merge
        // correctly.
        let mut fetched = 0u64;
        for la in lines(hpa, len) {
            if !self.caches[host.0 as usize].contains(la) {
                let mut line = [0u8; CACHELINE as usize];
                self.pool.read(la, &mut line);
                if let Some(ev) = self.caches[host.0 as usize].fill(la, line) {
                    self.apply_eviction(now, host, ev);
                }
                if let Some(a) = self.audit.as_deref_mut() {
                    a.on_fill(host, la);
                }
                fetched += CACHELINE;
            }
        }
        // Apply the store line by line.
        let mut cur = hpa;
        let end = hpa + len;
        while cur < end {
            let la = line_of(cur);
            let n = ((la + CACHELINE).min(end) - cur) as usize;
            let off = (cur - hpa) as usize;
            // simlint: allow(unwrap-in-datapath) -- off + n <= len == data.len() by the line-walk construction above
            if let Some(ev) = self.caches[host.0 as usize].store(cur, &data[off..off + n]) {
                self.apply_eviction(now, host, ev);
            }
            if let Some(a) = self.audit.as_deref_mut() {
                a.on_store(now, host, la);
            }
            cur += n as u64;
        }

        self.sync_trace_audit();
        if fetched == 0 {
            let done = now + Nanos(CACHE_HIT_NS);
            self.trace_fabric_op(Track::HostCpu(host.0), "fabric/store", now, done);
            return Ok(done);
        }
        let issue = self.params.cxl_host_overhead_ns;
        let done = self.timed_read(now, host, slot, hpa, fetched, issue)?;
        self.trace_fabric_op(Track::HostCpu(host.0), "fabric/store", now, done);
        Ok(done)
    }

    /// Non-temporal store: bypasses the host cache and becomes visible
    /// to all hosts at the returned completion time. Any locally cached
    /// copies of the touched lines are dropped.
    pub fn nt_store(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        data: &[u8],
    ) -> Result<Nanos, FabricError> {
        self.apply_pending(now);
        let len = data.len() as u64;
        let slot = self.check(host, hpa, len)?;
        self.stats.nt_stores += 1;
        self.stats.bytes_written += len;

        for la in lines(hpa, len) {
            self.caches[host.0 as usize].invalidate(la);
        }
        let issue = self.params.cxl_host_overhead_ns;
        let done = self.timed_write(now, host, slot, hpa, len, issue)?;
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_nt_store(now, host, hpa, len, done);
        }
        self.sync_trace_audit();
        self.trace_fabric_op(Track::HostCpu(host.0), "fabric/nt_store", now, done);
        self.enqueue_write(done, hpa, data.to_vec());
        Ok(done)
    }

    /// Flushes `[hpa, hpa + len)` from the host's cache: dirty lines are
    /// written to the pool (visible at the returned time), clean lines
    /// are dropped.
    pub fn flush(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        len: u64,
    ) -> Result<Nanos, FabricError> {
        self.apply_pending(now);
        let slot = self.check(host, hpa, len)?;
        self.stats.flushes += 1;

        let mut dirty: Vec<(u64, [u8; CACHELINE as usize])> = Vec::new();
        for la in lines(hpa, len) {
            if let Some(data) = self.caches[host.0 as usize].flush(la) {
                dirty.push((la, data));
            }
        }
        if dirty.is_empty() {
            if let Some(a) = self.audit.as_deref_mut() {
                a.on_flush(now, host, hpa, len, &[], now);
            }
            self.sync_trace_audit();
            let done = now + Nanos(CACHE_HIT_NS);
            self.trace_fabric_op(Track::HostCpu(host.0), "fabric/flush", now, done);
            return Ok(done);
        }
        let bytes = dirty.len() as u64 * CACHELINE;
        self.stats.bytes_written += bytes;
        let issue = self.params.cxl_host_overhead_ns;
        let done = self.timed_write(now, host, slot, hpa, bytes, issue)?;
        if let Some(a) = self.audit.as_deref_mut() {
            let dirty_lines: Vec<u64> = dirty.iter().map(|&(la, _)| la).collect();
            a.on_flush(now, host, hpa, len, &dirty_lines, done);
        }
        self.sync_trace_audit();
        self.trace_fabric_op(Track::HostCpu(host.0), "fabric/flush", now, done);
        for (la, data) in dirty {
            self.enqueue_write(done, la, data.to_vec());
        }
        Ok(done)
    }

    /// Drops `[hpa, hpa + len)` from the host's cache without writing
    /// back, so the next load refetches from the pool. This is how a
    /// reader guarantees freshness on non-coherent hardware.
    pub fn invalidate(&mut self, now: Nanos, host: HostId, hpa: u64, len: u64) -> Nanos {
        for la in lines(hpa, len) {
            self.caches[host.0 as usize].invalidate(la);
        }
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_invalidate(now, host, hpa, len);
        }
        self.sync_trace_audit();
        let done = now + Self::invalidate_cost(hpa, len);
        self.trace_fabric_op(Track::HostCpu(host.0), "fabric/invalidate", now, done);
        done
    }

    /// Lands every in-flight write visible by `now` in pool memory, as
    /// the start of any access at `now` does. A poll loop that skips
    /// empty polls calls this for the last poll it skipped, so the pool
    /// contents other hosts then read are the ones that poll would have
    /// left behind.
    pub fn settle(&mut self, now: Nanos) {
        self.apply_pending(now);
    }

    /// True while the write to `hpa` that becomes visible at
    /// `visible_at` is still in flight. Actors run on separate clocks:
    /// once any access at or after `visible_at` has landed the write,
    /// it is part of pool memory even for a reader whose clock is
    /// earlier.
    pub fn in_flight(&self, hpa: u64, visible_at: Nanos) -> bool {
        self.pending
            .range((visible_at, 0)..=(visible_at, u64::MAX))
            .any(|(_, w)| w.hpa == hpa)
    }

    /// CPU time [`Fabric::invalidate`] takes over `[hpa, hpa + len)`:
    /// [`INVALIDATE_NS`] per cache line touched.
    pub fn invalidate_cost(hpa: u64, len: u64) -> Nanos {
        Nanos(INVALIDATE_NS) * lines(hpa, len).count() as u64
    }

    /// Latency a [`Fabric::load`] of `len` bytes at `hpa` by `host`
    /// would see if every line missed the host cache and every pipe on
    /// its path were idle: the pure, uncontended form of the timed
    /// read. Books no pipe time and touches no cache, counter, audit or
    /// trace state. Fails exactly when the load would: access checks,
    /// or no up link to an MHD the range lives on.
    pub fn idle_load_latency(
        &self,
        host: HostId,
        hpa: u64,
        len: u64,
    ) -> Result<Nanos, FabricError> {
        let slot = self.check(host, hpa, len)?;
        let bytes = lines(hpa, len).count() as u64 * CACHELINE;
        let spread = self.spread(slot, hpa, bytes);
        let p = &self.params;
        let link_gbps = p.link_gbps();
        let wire = Nanos(p.cxl_wire_ns);
        let mut done = Nanos::ZERO;
        for &(mhd, b) in &spread {
            let up = self.topology.mhd_is_up(mhd)
                && self.topology.host_links(host).any(|l| l.up && l.mhd == mhd);
            if !up {
                return Err(FabricError::NoPath { host, mhd });
            }
            // Same stages as `timed_read_inner`, each starting the
            // moment the previous one ends.
            let path = Nanos(p.cxl_host_overhead_ns)
                + transfer_time(CACHELINE, link_gbps)
                + wire
                + transfer_time(b, p.mhd_dram_gbps)
                + Nanos(p.mhd_occupancy_ns)
                + Nanos(p.cxl_device_ns)
                + transfer_time(b, link_gbps)
                + wire;
            done = done.max(path);
        }
        self.spread_scratch.set(spread);
        Ok(done)
    }

    // ---------------------------------------------------------------
    // Pool access (device DMA side)
    // ---------------------------------------------------------------

    /// Device DMA read from the pool, issued by a device attached to
    /// `host`. Snoops the *attach host's* cache (DMA is coherent within
    /// one host on x86), so that host's dirty lines are observed; other
    /// hosts' caches are not snooped — their dirty data is invisible.
    pub fn dma_read(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        buf: &mut [u8],
    ) -> Result<Nanos, FabricError> {
        self.apply_pending(now);
        let len = buf.len() as u64;
        let slot = self.check(host, hpa, len)?;
        self.stats.dma_reads += 1;
        self.stats.bytes_read += len;
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_dma_read(now, host, hpa, len, self.sync_ranges.lookup());
        }

        self.pool.read(hpa, buf);
        // Overlay the attach host's dirty lines.
        for la in lines(hpa, len) {
            if self.caches[host.0 as usize].is_dirty(la) {
                if let LoadOutcome::Hit(line) = self.caches[host.0 as usize].load(la) {
                    copy_line_to_buf(la, &line, hpa, buf);
                }
            }
        }
        let done = self.timed_read(now, host, slot, hpa, len, 0)?;
        self.sync_trace_audit();
        self.trace_fabric_op(Track::Dma(host.0), "fabric/dma_read", now, done);
        Ok(done)
    }

    /// Device DMA write to the pool, issued by a device attached to
    /// `host`. Visible at the returned completion time; snoop-invalidates
    /// the attach host's cached copies (remote hosts stay stale — they
    /// must invalidate before reading).
    pub fn dma_write(
        &mut self,
        now: Nanos,
        host: HostId,
        hpa: u64,
        data: &[u8],
    ) -> Result<Nanos, FabricError> {
        self.apply_pending(now);
        let len = data.len() as u64;
        let slot = self.check(host, hpa, len)?;
        self.stats.dma_writes += 1;
        self.stats.bytes_written += len;

        for la in lines(hpa, len) {
            self.caches[host.0 as usize].invalidate(la);
        }
        let done = self.timed_write(now, host, slot, hpa, len, 0)?;
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_dma_write(now, host, hpa, len, done);
        }
        self.sync_trace_audit();
        self.trace_fabric_op(Track::Dma(host.0), "fabric/dma_write", now, done);
        self.enqueue_write(done, hpa, data.to_vec());
        Ok(done)
    }

    // ---------------------------------------------------------------
    // Local DRAM access
    // ---------------------------------------------------------------

    /// CPU load from the host's local DRAM (always coherent within the
    /// host).
    pub fn local_load(&mut self, now: Nanos, host: HostId, addr: u64, buf: &mut [u8]) -> Nanos {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_local();
        }
        self.local_mem[host.0 as usize].read(addr, buf);
        let xfer = self.local_pipes[host.0 as usize].transfer(now, buf.len() as u64);
        xfer + Nanos(self.params.local_load_ns)
    }

    /// CPU store to the host's local DRAM.
    pub fn local_store(&mut self, now: Nanos, host: HostId, addr: u64, data: &[u8]) -> Nanos {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_local();
        }
        self.local_mem[host.0 as usize].write(addr, data);
        let xfer = self.local_pipes[host.0 as usize].transfer(now, data.len() as u64);
        xfer + Nanos(self.params.local_store_ns)
    }

    /// Device DMA read from the attach host's local DRAM.
    pub fn local_dma_read(&mut self, now: Nanos, host: HostId, addr: u64, buf: &mut [u8]) -> Nanos {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_local();
        }
        self.local_mem[host.0 as usize].read(addr, buf);
        let xfer = self.local_pipes[host.0 as usize].transfer(now, buf.len() as u64);
        xfer + Nanos(self.params.local_load_ns)
    }

    /// Device DMA write to the attach host's local DRAM.
    pub fn local_dma_write(&mut self, now: Nanos, host: HostId, addr: u64, data: &[u8]) -> Nanos {
        if let Some(a) = self.audit.as_deref_mut() {
            a.on_local();
        }
        self.local_mem[host.0 as usize].write(addr, data);
        let xfer = self.local_pipes[host.0 as usize].transfer(now, data.len() as u64);
        xfer + Nanos(self.params.local_store_ns)
    }

    // ---------------------------------------------------------------
    // Debug / test access
    // ---------------------------------------------------------------

    /// Forces all in-flight writes visible and reads raw pool contents
    /// (no timing, no cache). For tests and assertions only; production
    /// builds compile this escape hatch out (`debug-peek` feature).
    #[cfg(any(test, feature = "debug-peek"))]
    pub fn peek_settled(&mut self, hpa: u64, buf: &mut [u8]) {
        self.apply_pending(Nanos::MAX);
        self.pool.read(hpa, buf);
    }

    /// Reads raw pool contents as currently visible (in-flight writes
    /// excluded). For tests only; production builds compile this escape
    /// hatch out (`debug-peek` feature).
    #[cfg(any(test, feature = "debug-peek"))]
    pub fn peek(&self, hpa: u64, buf: &mut [u8]) {
        self.pool.read(hpa, buf);
    }

    /// Utilization of a link's uplink direction over `[0, horizon]`.
    pub fn uplink_utilization(&self, link: LinkId, horizon: Nanos) -> f64 {
        self.uplinks[link.0 as usize].utilization(horizon)
    }

    /// Utilization of a link's downlink direction over `[0, horizon]`.
    pub fn downlink_utilization(&self, link: LinkId, horizon: Nanos) -> f64 {
        self.downlinks[link.0 as usize].utilization(horizon)
    }

    // ---------------------------------------------------------------
    // Internals
    // ---------------------------------------------------------------

    /// Checks that `host` may access `[hpa, hpa + len)` and returns
    /// the slot of its segment in the allocator's table. The access
    /// hands the slot on to its timed path, so each access resolves
    /// its address once.
    fn check(&self, host: HostId, hpa: u64, len: u64) -> Result<usize, FabricError> {
        if len == 0 {
            return Err(FabricError::EmptyAccess { hpa });
        }
        let slot = self.alloc.slot_at(hpa)?;
        let seg = self.alloc.at_slot(slot);
        if !seg.grants(host) {
            return Err(FabricError::AccessDenied { host, hpa });
        }
        if hpa + len > seg.end() {
            return Err(FabricError::OutOfBounds { hpa, len });
        }
        Ok(slot)
    }

    /// Settles one cache eviction: dirty victims write back to the
    /// pool immediately; clean victims just leave the host's shadow
    /// view so a later refetch is audited as a fresh miss.
    fn apply_eviction(&mut self, now: Nanos, host: HostId, ev: Eviction) {
        match ev.writeback {
            Some(data) => {
                self.pool.write(ev.addr, &data);
                self.stats.bytes_written += CACHELINE;
                if let Some(a) = self.audit.as_deref_mut() {
                    a.on_dirty_eviction(now, host, ev.addr);
                }
            }
            None => {
                if let Some(a) = self.audit.as_deref_mut() {
                    a.on_clean_eviction(host, ev.addr);
                }
            }
        }
    }

    fn apply_pending(&mut self, now: Nanos) {
        // The auditor's pending mirror advances in lockstep so its
        // shadow versions always match pool-visible contents.
        if let Some(a) = self.audit.as_deref_mut() {
            a.advance(now);
        }
        while let Some((&(ts, seq), _)) = self.pending.first_key_value() {
            if ts > now {
                break;
            }
            let w = self.pending.remove(&(ts, seq)).expect("key just seen");
            self.pool.write(w.hpa, &w.data);
        }
    }

    fn enqueue_write(&mut self, visible_at: Nanos, hpa: u64, data: Vec<u8>) {
        let seq = self.pending_seq;
        self.pending_seq += 1;
        self.pending
            .insert((visible_at, seq), PendingWrite { hpa, data });
    }

    /// Picks the least-backlogged up link from `host` to `mhd`.
    ///
    /// Iterates candidates directly (no intermediate `Vec`);
    /// `min_by_key` keeps the first of equal minimums, i.e. the lowest
    /// link id, matching the materialised-path order it replaced.
    fn pick_link(&self, now: Nanos, host: HostId, mhd: MhdId) -> Result<LinkId, FabricError> {
        if !self.topology.mhd_is_up(mhd) {
            return Err(FabricError::NoPath { host, mhd });
        }
        self.topology
            .host_links(host)
            .filter(|l| l.up && l.mhd == mhd)
            .map(|l| l.id)
            .min_by_key(|l| self.uplinks[l.0 as usize].backlog(now))
            .ok_or(FabricError::NoPath { host, mhd })
    }

    /// The interleave spread of `[hpa, hpa + bytes)`, clipped to the
    /// segment at `slot`, in the reusable scratch vector. Callers hand
    /// the vector back to `spread_scratch` when done; an error return
    /// drops it and the next access allocates a fresh one.
    fn spread(&self, slot: usize, hpa: u64, bytes: u64) -> Vec<(MhdId, u64)> {
        let seg = self.alloc.at_slot(slot);
        let mut out = self.spread_scratch.take();
        seg.spread_into(hpa, bytes.min(seg.end() - hpa).max(1), &mut out);
        out
    }

    /// Timed read of `bytes` spread over the interleave set of the
    /// segment at `slot`: a request goes up each involved link and the
    /// data streams back down. `issue_ns` is the CPU's issue overhead,
    /// zero for device DMA.
    fn timed_read(
        &mut self,
        now: Nanos,
        host: HostId,
        slot: usize,
        hpa: u64,
        bytes: u64,
        issue_ns: u64,
    ) -> Result<Nanos, FabricError> {
        let spread = self.spread(slot, hpa, bytes);
        let wire = Nanos(self.params.cxl_wire_ns);
        let dev_fixed = Nanos(self.params.cxl_device_ns);
        let occ = Nanos(self.params.mhd_occupancy_ns);
        let t_issue = now + Nanos(issue_ns);
        let mut done = Nanos::ZERO;
        for &(mhd, b) in &spread {
            let link = self.pick_link(now, host, mhd)?;
            // Request packet (header-sized; modelled as one line).
            let up = self.uplinks[link.0 as usize].transfer(t_issue, CACHELINE);
            let at_dev = up + wire;
            let dev_ready = self.mhd_pipes[mhd.0 as usize].transfer(at_dev, b) + occ;
            let stream_start = dev_ready + dev_fixed;
            let down = self.downlinks[link.0 as usize].transfer(stream_start, b);
            done = done.max(down + wire);
        }
        self.spread_scratch.set(spread);
        Ok(done)
    }

    /// Timed write of `bytes` over the interleave set of the segment at
    /// `slot` (non-temporal store, flush or device DMA). `issue_ns` is
    /// as for [`Fabric::timed_read`].
    fn timed_write(
        &mut self,
        now: Nanos,
        host: HostId,
        slot: usize,
        hpa: u64,
        bytes: u64,
        issue_ns: u64,
    ) -> Result<Nanos, FabricError> {
        let spread = self.spread(slot, hpa, bytes);
        let wire = Nanos(self.params.cxl_wire_ns);
        let dev_half = Nanos(self.params.cxl_device_ns / 2);
        let occ = Nanos(self.params.mhd_occupancy_ns);
        let t_issue = now + Nanos(issue_ns);
        let mut done = Nanos::ZERO;
        for &(mhd, b) in &spread {
            let link = self.pick_link(now, host, mhd)?;
            let up = self.uplinks[link.0 as usize].transfer(t_issue, b);
            let at_dev = up + wire;
            let landed = self.mhd_pipes[mhd.0 as usize].transfer(at_dev, b) + occ + dev_half;
            done = done.max(landed);
        }
        self.spread_scratch.set(spread);
        Ok(done)
    }
}

/// The trace track of the actor that triggered a violation (the later
/// access of the conflicting pair, where the hazard became observable).
fn violation_track(kind: &ViolationKind) -> Track {
    match kind {
        ViolationKind::StaleRead { reader, .. } => Track::HostCpu(reader.0),
        ViolationKind::TornRead { reader, .. } => Track::HostCpu(reader.0),
        ViolationKind::LostWrite { by, .. } => Track::HostCpu(by.0),
        ViolationKind::WriteWriteConflict { second, .. } => Track::HostCpu(second.0),
        ViolationKind::UnflushedWrite { writer, .. } => Track::HostCpu(writer.0),
        ViolationKind::ConcurrentConflict { second, .. } => match second {
            Actor::Cpu(h) => Track::HostCpu(h.0),
            Actor::Dma(h) => Track::Dma(h.0),
        },
    }
}

fn line_of(addr: u64) -> u64 {
    addr & !(CACHELINE - 1)
}

/// Iterates the line addresses overlapping `[hpa, hpa + len)`.
fn lines(hpa: u64, len: u64) -> impl Iterator<Item = u64> {
    let first = line_of(hpa);
    let last = line_of(hpa + len - 1);
    (first..=last).step_by(CACHELINE as usize)
}

/// Copies the overlap between cache line `la` (contents `line`) and the
/// buffer mapped at `[hpa, hpa + buf.len())` into the buffer.
fn copy_line_to_buf(la: u64, line: &[u8; CACHELINE as usize], hpa: u64, buf: &mut [u8]) {
    let buf_end = hpa + buf.len() as u64;
    let start = la.max(hpa);
    let end = (la + CACHELINE).min(buf_end);
    if start >= end {
        return;
    }
    let src = (start - la) as usize;
    let dst = (start - hpa) as usize;
    let n = (end - start) as usize;
    buf[dst..dst + n].copy_from_slice(&line[src..src + n]);
}

#[cfg(test)]
mod tests {
    // peek/peek_settled are the whole point of these assertions
    // (clippy.toml forbids them outside test code).
    #![allow(clippy::disallowed_methods)]

    use super::*;

    fn pod() -> Fabric {
        Fabric::new(PodConfig::new(4, 2, 2))
    }

    #[test]
    fn nt_store_visible_to_other_host_after_completion() {
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        let done = f
            .nt_store(Nanos(0), HostId(0), seg.base(), &[0xAB; 64])
            .expect("store");
        assert!(done > Nanos(0));
        // Before completion the old data (zero) is visible.
        let mut buf = [0xFFu8; 64];
        f.peek(seg.base(), &mut buf);
        assert_eq!(buf, [0u8; 64]);
        // At completion the new data is visible to host 1.
        let mut buf = [0u8; 64];
        f.load(done, HostId(1), seg.base(), &mut buf).expect("load");
        assert_eq!(buf, [0xABu8; 64]);
    }

    #[test]
    fn cached_store_is_stale_until_flush() {
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        // Host 0 writes through its cache (no flush).
        f.store(Nanos(0), HostId(0), seg.base(), &[1u8; 64])
            .expect("store");
        // Host 1 sees zeroes: the write sits in host 0's cache.
        let mut buf = [9u8; 64];
        f.load(Nanos(10_000), HostId(1), seg.base(), &mut buf)
            .expect("load");
        assert_eq!(buf, [0u8; 64], "host 1 must not see unflushed data");
        // After host 0 flushes, a *fresh* read by host 1 still returns
        // stale data from host 1's own cache...
        let done = f
            .flush(Nanos(20_000), HostId(0), seg.base(), 64)
            .expect("flush");
        let mut buf = [9u8; 64];
        f.load(done, HostId(1), seg.base(), &mut buf).expect("load");
        assert_eq!(buf, [0u8; 64], "host 1's cached copy is stale");
        // ...until host 1 invalidates its copy.
        let t = f.invalidate(done, HostId(1), seg.base(), 64);
        let mut buf = [9u8; 64];
        f.load(t, HostId(1), seg.base(), &mut buf).expect("load");
        assert_eq!(buf, [1u8; 64]);
    }

    #[test]
    fn idle_load_latency_matches_calibration() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        let mut buf = [0u8; 64];
        let done = f
            .load(Nanos(0), HostId(0), seg.base(), &mut buf)
            .expect("load");
        let idle = done.as_nanos();
        // Paper: ~2.15x local 90 ns => ~194 ns, allow ±10%.
        assert!(
            (idle as f64 - 194.0).abs() / 194.0 < 0.10,
            "idle CXL load {idle} ns"
        );
    }

    #[test]
    fn cache_hit_is_fast_and_stale() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        let mut buf = [0u8; 64];
        f.load(Nanos(0), HostId(0), seg.base(), &mut buf)
            .expect("miss");
        let done = f
            .load(Nanos(1000), HostId(0), seg.base(), &mut buf)
            .expect("hit");
        assert_eq!(done, Nanos(1000 + CACHE_HIT_NS));
    }

    #[test]
    fn local_dram_is_faster_than_pool() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        let mut buf = [0u8; 64];
        let pool_t = f
            .load(Nanos(0), HostId(0), seg.base(), &mut buf)
            .expect("load");
        let local_t = f.local_load(Nanos(0), HostId(0), 0x1000, &mut buf);
        assert!(local_t < pool_t, "local {local_t:?} vs pool {pool_t:?}");
        let ratio = pool_t.as_nanos() as f64 / local_t.as_nanos() as f64;
        assert!(ratio > 1.8, "CXL/local ratio {ratio}");
    }

    #[test]
    fn access_denied_for_non_owner() {
        let mut f = pod();
        let seg = f.alloc_private(HostId(0), 4096).expect("alloc");
        let mut buf = [0u8; 8];
        let err = f
            .load(Nanos(0), HostId(2), seg.base(), &mut buf)
            .unwrap_err();
        assert!(matches!(err, FabricError::AccessDenied { .. }));
    }

    #[test]
    fn out_of_bounds_is_caught() {
        let mut f = pod();
        let seg = f.alloc_private(HostId(0), 128).expect("alloc");
        let err = f
            .nt_store(Nanos(0), HostId(0), seg.base() + 100, &[0u8; 64])
            .unwrap_err();
        assert!(matches!(err, FabricError::OutOfBounds { .. }));
    }

    #[test]
    fn dma_write_then_remote_load_needs_invalidate() {
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        // Host 1 caches the line first.
        let mut buf = [0u8; 64];
        f.load(Nanos(0), HostId(1), seg.base(), &mut buf)
            .expect("load");
        // A device on host 0 DMA-writes it.
        let done = f
            .dma_write(Nanos(1000), HostId(0), seg.base(), &[5u8; 64])
            .expect("dma");
        // Host 1 still sees its stale cached copy...
        f.load(done, HostId(1), seg.base(), &mut buf).expect("load");
        assert_eq!(buf, [0u8; 64]);
        // ...until it invalidates.
        let t = f.invalidate(done, HostId(1), seg.base(), 64);
        f.load(t, HostId(1), seg.base(), &mut buf).expect("load");
        assert_eq!(buf, [5u8; 64]);
    }

    #[test]
    fn dma_read_snoops_attach_host_dirty_lines() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        f.store(Nanos(0), HostId(0), seg.base(), &[3u8; 64])
            .expect("store");
        // DMA by a device on host 0 sees the dirty cached data.
        let mut buf = [0u8; 64];
        f.dma_read(Nanos(100), HostId(0), seg.base(), &mut buf)
            .expect("dma");
        assert_eq!(buf, [3u8; 64]);
    }

    #[test]
    fn mhd_failure_makes_segment_unreachable() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        for m in 0..f.topology().mhds() {
            f.topology_mut().fail_mhd(MhdId(m));
        }
        let mut buf = [0u8; 8];
        // Cached lines still "work" (CPU cache survives) but a fresh
        // address misses and fails.
        let err = f
            .load(Nanos(0), HostId(0), seg.base() + 512, &mut buf)
            .unwrap_err();
        assert!(matches!(err, FabricError::NoPath { .. }));
    }

    #[test]
    fn idle_load_latency_equals_a_real_miss_on_idle_pipes() {
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        for (off, len) in [(0u64, 64usize), (64, 8), (100, 200), (256, 1024)] {
            let hpa = seg.base() + off;
            let idle = f
                .idle_load_latency(HostId(1), hpa, len as u64)
                .expect("path");
            let before = f.stats();
            let start = Nanos(1_000_000 * (off + 1));
            let t = f.invalidate(start, HostId(1), hpa, len as u64);
            let mut buf = vec![0u8; len];
            let done = f.load(t, HostId(1), hpa, &mut buf).expect("load");
            assert_eq!(done - t, idle, "range +{off}/{len}");
            assert_eq!(f.stats().loads, before.loads + 1);
        }
        // The pure query itself counts nothing.
        let before = f.stats().loads;
        f.idle_load_latency(HostId(0), seg.base(), 64)
            .expect("path");
        assert_eq!(f.stats().loads, before);
    }

    #[test]
    fn idle_load_latency_fails_like_the_load() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        assert!(matches!(
            f.idle_load_latency(HostId(1), seg.base(), 64),
            Err(FabricError::AccessDenied { .. })
        ));
        let epoch = f.topology_epoch();
        for m in 0..f.topology().mhds() {
            f.topology_mut().fail_mhd(MhdId(m));
        }
        assert!(f.topology_epoch() > epoch);
        assert!(matches!(
            f.idle_load_latency(HostId(0), seg.base(), 64),
            Err(FabricError::NoPath { .. })
        ));
    }

    #[test]
    fn invalidate_cost_is_per_line() {
        assert_eq!(Fabric::invalidate_cost(0, 64), Nanos(INVALIDATE_NS));
        assert_eq!(Fabric::invalidate_cost(60, 8), Nanos(2 * INVALIDATE_NS));
    }

    #[test]
    fn bulk_write_time_tracks_link_bandwidth() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 1 << 20).expect("alloc");
        let data = vec![1u8; 256 * 1024];
        let done = f
            .nt_store(Nanos(0), HostId(0), seg.base(), &data)
            .expect("store");
        // 256 KiB over 2x30 GB/s interleaved links: >= 4.3 us; with one
        // link it would be ~8.7 us. Accept the interleaved regime.
        let us = done.as_nanos() as f64 / 1000.0;
        assert!(us > 3.0 && us < 10.0, "bulk store took {us} us");
    }

    #[test]
    fn stats_count_operations() {
        let mut f = pod();
        let seg = f.alloc_shared(&[HostId(0)], 4096).expect("alloc");
        let mut buf = [0u8; 64];
        f.load(Nanos(0), HostId(0), seg.base(), &mut buf)
            .expect("load");
        f.nt_store(Nanos(10), HostId(0), seg.base(), &[0u8; 64])
            .expect("nt");
        f.flush(Nanos(20), HostId(0), seg.base(), 64)
            .expect("flush");
        let s = f.stats();
        assert_eq!(s.loads, 1);
        assert_eq!(s.nt_stores, 1);
        assert_eq!(s.flushes, 1);
    }

    #[test]
    fn lines_iterator_covers_range() {
        let ls: Vec<u64> = lines(100, 200).collect();
        assert_eq!(ls.first().copied(), Some(64));
        assert_eq!(ls.last().copied(), Some(256));
        assert_eq!(ls.len(), 4);
    }

    #[test]
    fn pending_writes_apply_in_timestamp_order() {
        let mut f = pod();
        let seg = f
            .alloc_shared(&[HostId(0), HostId(1)], 4096)
            .expect("alloc");
        // Two writes to the same line; the later-visible one wins.
        let d1 = f
            .nt_store(Nanos(0), HostId(0), seg.base(), &[1u8; 64])
            .expect("w1");
        let d2 = f
            .nt_store(d1, HostId(0), seg.base(), &[2u8; 64])
            .expect("w2");
        let mut buf = [0u8; 64];
        f.peek_settled(seg.base(), &mut buf);
        assert_eq!(buf, [2u8; 64]);
        assert!(d2 > d1);
    }

    /// Sync and tear-tolerant ranges registered inside live segments
    /// stay sorted through `free_segment`, and the binary-searched
    /// lookup the auditor receives matches a linear scan over every
    /// surviving registration, nested, adjacent and duplicate ones
    /// included.
    #[test]
    fn free_segment_keeps_ranges_sorted_and_lookups_exact() {
        use simkit::rng::Rng;

        let in_any = |ranges: &[(u64, u64)], la: u64| {
            ranges.iter().any(|&(s, e)| la >= s && la + CACHELINE <= e)
        };
        let mut rng = Rng::new(42);
        let mut f = pod();
        let mut live = Vec::new();
        let mut sync: Vec<(u64, u64)> = Vec::new();
        let mut tolerant: Vec<(u64, u64)> = Vec::new();
        for round in 0..40 {
            if live.len() < 4 || rng.chance(0.6) {
                let seg = f
                    .alloc_shared(&[HostId(0), HostId(1)], 4096)
                    .expect("alloc");
                let base = seg.base();
                for _ in 0..6 {
                    let start = base + rng.below(4096 / 32) * 32;
                    let len = (rng.below(16) + 1) * 32;
                    let len = len.min(base + 4096 - start);
                    let model = if rng.chance(0.5) {
                        f.mark_sync_range(start, len);
                        &mut sync
                    } else {
                        f.mark_tear_tolerant(start, len);
                        &mut tolerant
                    };
                    model.push((start, start + len));
                    // Nested and duplicate registrations.
                    if rng.chance(0.3) {
                        f.mark_sync_range(start, len);
                        sync.push((start, start + len));
                        f.mark_sync_range(start + 32, len.saturating_sub(64));
                        if len > 64 {
                            sync.push((start + 32, start + len - 32));
                        }
                    }
                }
                live.push(seg);
            } else {
                let seg = live.swap_remove(rng.below(live.len() as u64) as usize);
                let (base, end) = (seg.base(), seg.end());
                f.free_segment(seg.id()).expect("free");
                sync.retain(|&(s, e)| e <= base || s >= end);
                tolerant.retain(|&(s, e)| e <= base || s >= end);
            }
            for (set, model) in [
                (&f.sync_ranges, &mut sync),
                (&f.tear_tolerant, &mut tolerant),
            ] {
                model.sort_unstable();
                assert_eq!(set.registered(), model.as_slice(), "round {round}");
                for seg in &live {
                    for la in (seg.base()..seg.end()).step_by(CACHELINE as usize) {
                        assert_eq!(
                            crate::audit::in_ranges(set.lookup(), la),
                            in_any(model, la),
                            "round {round} line {la:#x}"
                        );
                    }
                }
            }
        }
    }
}
