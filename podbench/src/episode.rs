//! One episode's modelled outputs: the engine's report plus the
//! counters every layer exposes, read from outside after the run.

use cxl_fabric::{AccessStats, HostId};
use cxl_pool_core::pod::PodSim;
use cxl_pool_core::telemetry::PodReport;
use simkit::stats::{Histogram, Summary};
use workgen::RunReport;

/// Counters read from each layer's public stats after one episode.
/// Fabric, cache, agent and channel counters are deltas over the
/// `Engine::run` call (warm-up included); the rest start at zero with
/// the pod.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// `Fabric::stats` delta.
    pub fabric: FabricCounts,
    /// Cache hits summed over hosts (`Fabric::cache_stats`).
    pub cache_hits: u64,
    /// Cache misses summed over hosts.
    pub cache_misses: u64,
    /// Lines dropped by invalidation, summed over hosts.
    pub invalidations: u64,
    /// Forwarded ops agents served (`Agent::stats`).
    pub served: u64,
    /// Assignment updates agents applied.
    pub assigns: u64,
    /// Channel messages sent (`Agent::channel_stats`).
    pub msgs: u64,
    /// Sends that met a full ring.
    pub blocked: u64,
    /// Modelled ns messages spent stalled.
    pub stall_ns: u64,
    /// Orchestrator failovers (`telemetry::snapshot`).
    pub failovers: u64,
    /// Load-balancing migrations.
    pub migrations: u64,
    /// Whole-tenant migrations.
    pub tenant_migrations: u64,
    /// Device operations (NIC frames, SSD commands, accelerator jobs).
    pub dev_ops: u64,
    /// Bytes through the devices.
    pub dev_bytes: u64,
}

/// The parts of [`AccessStats`] the benchmark reports (a local copy so
/// it can be compared and summed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricCounts {
    /// CPU loads against the pool.
    pub loads: u64,
    /// Cached stores.
    pub stores: u64,
    /// Non-temporal stores.
    pub nt_stores: u64,
    /// Flushes.
    pub flushes: u64,
    /// DMA reads plus DMA writes.
    pub dma: u64,
    /// Bytes read plus bytes written.
    pub bytes: u64,
}

impl FabricCounts {
    fn delta(after: AccessStats, before: AccessStats) -> FabricCounts {
        FabricCounts {
            loads: after.loads - before.loads,
            stores: after.stores - before.stores,
            nt_stores: after.nt_stores - before.nt_stores,
            flushes: after.flushes - before.flushes,
            dma: (after.dma_reads + after.dma_writes) - (before.dma_reads + before.dma_writes),
            bytes: (after.bytes_read + after.bytes_written)
                - (before.bytes_read + before.bytes_written),
        }
    }
}

impl Counts {
    /// Adds another episode's counts.
    pub fn add(&mut self, o: &Counts) {
        let f = &mut self.fabric;
        f.loads += o.fabric.loads;
        f.stores += o.fabric.stores;
        f.nt_stores += o.fabric.nt_stores;
        f.flushes += o.fabric.flushes;
        f.dma += o.fabric.dma;
        f.bytes += o.fabric.bytes;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.invalidations += o.invalidations;
        self.served += o.served;
        self.assigns += o.assigns;
        self.msgs += o.msgs;
        self.blocked += o.blocked;
        self.stall_ns += o.stall_ns;
        self.failovers += o.failovers;
        self.migrations += o.migrations;
        self.tenant_migrations += o.tenant_migrations;
        self.dev_ops += o.dev_ops;
        self.dev_bytes += o.dev_bytes;
    }
}

/// Counter readings taken right before `Engine::run`, so the episode's
/// counts exclude pod construction.
pub struct Before {
    fabric: AccessStats,
    caches: (u64, u64, u64),
    agents: (u64, u64),
    channels: (u64, u64, u64),
}

fn cache_totals(pod: &PodSim) -> (u64, u64, u64) {
    (0..pod.agents.len() as u16).fold((0, 0, 0), |(h, m, i), host| {
        let s = pod.fabric.cache_stats(HostId(host));
        (h + s.hits, m + s.misses, i + s.invalidations)
    })
}

fn agent_totals(pod: &PodSim) -> (u64, u64) {
    pod.agents.iter().fold((0, 0), |(s, a), ag| {
        let st = ag.stats();
        (s + st.served, a + st.assigns)
    })
}

fn channel_totals(pod: &PodSim) -> (u64, u64, u64) {
    pod.agents.iter().fold((0, 0, 0), |(n, b, s), ag| {
        let c = ag.channel_stats();
        (n + c.sends, b + c.blocked_events, s + c.stall_ns)
    })
}

impl Before {
    /// Reads the counters of a freshly built pod.
    pub fn read(pod: &PodSim) -> Before {
        Before {
            fabric: pod.fabric.stats(),
            caches: cache_totals(pod),
            agents: agent_totals(pod),
            channels: channel_totals(pod),
        }
    }
}

/// Everything one episode produced that the benchmark reports or
/// checks.
#[derive(Clone, Debug)]
pub struct Episode {
    /// The engine's report.
    pub report: RunReport,
    /// Layer counters.
    pub counts: Counts,
    /// Migration blackout distribution (ns).
    pub blackout: Histogram,
    /// The modelled outputs as text: equal text means bit-identical
    /// modelled results (per-tenant ops, errors, latency summaries,
    /// op-class summaries, lifecycle events, and every counter).
    pub fingerprint: String,
}

impl Episode {
    /// Reads the layers' stats after `Engine::run` returned `report`;
    /// `snap` is the pod's `telemetry::snapshot` taken after the run.
    pub fn collect(pod: &PodSim, snap: &PodReport, before: &Before, report: RunReport) -> Episode {
        let (hits, misses, inval) = cache_totals(pod);
        let (served, assigns) = agent_totals(pod);
        let (msgs, blocked, stall) = channel_totals(pod);
        let counts = Counts {
            fabric: FabricCounts::delta(pod.fabric.stats(), before.fabric),
            cache_hits: hits - before.caches.0,
            cache_misses: misses - before.caches.1,
            invalidations: inval - before.caches.2,
            served: served - before.agents.0,
            assigns: assigns - before.agents.1,
            msgs: msgs - before.channels.0,
            blocked: blocked - before.channels.1,
            stall_ns: stall - before.channels.2,
            failovers: snap.failovers as u64,
            migrations: snap.migrations,
            tenant_migrations: snap.tenant_migrations,
            dev_ops: snap.devices.iter().map(|d| d.ops).sum(),
            dev_bytes: snap.devices.iter().map(|d| d.bytes).sum(),
        };
        let fingerprint = format!("{report:?}\n{counts:?}");
        Episode {
            report,
            counts,
            blackout: pod.lifecycle.blackout.clone(),
            fingerprint,
        }
    }

    /// Latency summaries of the named tenants (those with samples).
    pub fn tenant_latency<'a>(&'a self, names: &'a [&str]) -> impl Iterator<Item = Summary> + 'a {
        self.report
            .tenants
            .iter()
            .filter(move |t| names.contains(&t.name.as_str()))
            .map(|t| t.latency)
    }

    /// Accounting checks on the report: per tenant, completed plus
    /// errored ops equal measured ops, and the op-class summaries
    /// cover exactly the measured ops. Returns a description of each
    /// failure.
    pub fn accounting_errors(&self, measure_s: f64) -> Vec<String> {
        let mut errs = Vec::new();
        for t in &self.report.tenants {
            let completed_f = t.achieved_pps * measure_s;
            let completed = completed_f.round();
            if (completed_f - completed).abs() > 1e-6 * completed.max(1.0)
                || completed as u64 + t.errors != t.ops
                || t.latency.count != t.ops
            {
                errs.push(format!(
                    "tenant {}: completed {completed_f} + errored {} != measured {} (latency samples {})",
                    t.name, t.errors, t.ops, t.latency.count
                ));
            }
        }
        let by_kind: u64 = self.report.kinds.iter().map(|(_, s)| s.count).sum();
        if by_kind != self.report.ops {
            errs.push(format!(
                "op classes hold {by_kind} samples, tenants {}",
                self.report.ops
            ));
        }
        errs
    }
}
