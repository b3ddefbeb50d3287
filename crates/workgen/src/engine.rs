//! The workload engine: drives a [`PodSim`] through a [`WorkloadSpec`]
//! in simulated time.
//!
//! Open-loop tenants pre-compute their arrival schedules from the seed;
//! the engine issues each operation at (or as soon as possible after)
//! its scheduled arrival and measures latency *from the scheduled
//! arrival*, so a pod that falls behind accumulates queueing delay and
//! the tail blows up — the hockey stick every capacity search walks.
//! Closed-loop tenants run fixed-concurrency workers whose latency is
//! measured from the actual issue instant.
//!
//! Operations scheduled inside the warmup window run but are not
//! recorded; the measurement window follows. Failed or timed-out
//! operations are censored at the per-op deadline and counted as
//! errors (see [`crate::slo`]).

use std::collections::BTreeMap;

use cxl_fabric::{DomainId, HostId, MhdId};
use cxl_pool_core::lifecycle::{self as pod_lifecycle, TenantState};
use cxl_pool_core::pod::PodSim;
use cxl_pool_core::vdev::{DeviceKind, PoolError};
use pcie_sim::DeviceId;
use simkit::metrics::{Labels, MetricId};
use simkit::rng::Rng;
use simkit::stats::{Histogram, Summary};
use simkit::Nanos;

use crate::arrival::Arrival;
use crate::lifecycle::{thin_schedule, ChurnSpec, LifecycleEvent, LifecycleEventKind};
use crate::slo::SloVerdict;
use crate::spec::{FaultTarget, OpKind, TenantSpec, WorkloadSpec};

/// Per-tenant results for one run.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Mean offered rate (ops/s) over the measurement window; for
    /// closed-loop tenants this equals the achieved rate.
    pub offered_pps: f64,
    /// Successfully completed measured ops per second.
    pub achieved_pps: f64,
    /// Operations measured (including censored failures).
    pub ops: u64,
    /// Failed or timed-out operations among them.
    pub errors: u64,
    /// Measured latency distribution (ns).
    pub latency: Summary,
    /// The SLO verdict for this tenant.
    pub verdict: SloVerdict,
    /// Largest number of simultaneously outstanding operations
    /// (closed-loop tenants only; 0 for open loop).
    pub peak_in_flight: usize,
}

/// One applied lifecycle event, for reports and JSON.
#[derive(Clone, Debug)]
pub struct LifecycleEventReport {
    /// Offset from run start at which the event applied.
    pub at: Nanos,
    /// Churn tenant name.
    pub tenant: String,
    /// `"arrive"`, `"grow"`, `"shrink"` or `"depart"`.
    pub event: &'static str,
    /// True when the event triggered a live migration.
    pub migrated: bool,
    /// Blackout window of that migration, when one happened.
    pub blackout: Option<Nanos>,
}

/// The outcome of one engine run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-tenant results (residents first, then churn tenants).
    pub tenants: Vec<TenantReport>,
    /// Per-operation-class latency summaries, sorted by label.
    pub kinds: Vec<(&'static str, Summary)>,
    /// Total offered rate of the open-loop tenants (ops/s).
    pub offered_pps: f64,
    /// Total achieved rate across tenants (ops/s).
    pub achieved_pps: f64,
    /// Measured operations across tenants.
    pub ops: u64,
    /// Errors across tenants.
    pub errors: u64,
    /// Simulated time consumed by the run.
    pub elapsed: Nanos,
    /// Applied tenant-lifecycle events, in order (empty without churn).
    pub lifecycle: Vec<LifecycleEventReport>,
}

impl RunReport {
    /// True when every tenant met its SLO.
    pub fn all_slos_pass(&self) -> bool {
        self.tenants.iter().all(|t| t.verdict.pass)
    }
}

/// One pending issue source during the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Issue {
    /// Absolute simulated time of the (scheduled) issue.
    at: Nanos,
    /// Tenant index.
    tenant: usize,
    /// Closed-loop worker index, usize::MAX for open-loop arrivals.
    worker: usize,
}

/// Per-tenant metric handles, registered when the pod's metrics plane
/// is on (see `simkit::metrics`): an in-flight gauge, cumulative
/// completion/error counters and a running SLO-attainment fraction.
struct TenantMetricIds {
    /// `tenant/in_flight`.
    in_flight: MetricId,
    /// `tenant/completed`.
    completed: MetricId,
    /// `tenant/errors`.
    errors: MetricId,
    /// `tenant/slo_attainment`.
    slo: MetricId,
}

/// The workload engine. Construction is free; all state lives in
/// [`Engine::run`].
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    seed: u64,
}

impl Engine {
    /// Creates an engine whose every random choice derives from `seed`.
    pub fn new(seed: u64) -> Engine {
        Engine { seed }
    }

    /// Runs `spec` against `pod` and reports per-tenant latency and
    /// SLO verdicts. Panics if the spec does not validate against the
    /// pod (use [`WorkloadSpec::validate`] to pre-check).
    pub fn run(&self, pod: &mut PodSim, spec: &WorkloadSpec) -> RunReport {
        let kinds = pod.kinds_available();
        spec.validate(pod.agents.len() as u16, &kinds)
            .expect("workload spec fits the pod");

        let t0 = pod.time();
        let span = spec.warmup + spec.measure;
        let meas_start = t0 + spec.warmup;
        let meas_end = t0 + span;

        // Seed derivation: one schedule stream and one choice stream
        // per tenant, all forked from the master in tenant order.
        let mut master = Rng::new(self.seed);
        let mut schedules: Vec<Vec<Nanos>> = Vec::new();
        let mut choice_rngs: Vec<Rng> = Vec::new();
        for t in &spec.tenants {
            let sched_seed = master.next_u64();
            schedules.push(t.arrival.schedule(sched_seed, span));
            choice_rngs.push(master.fork());
        }

        // Churn: the lifecycle event schedule and the churn tenants'
        // thinned peak-rate schedules derive from the same master
        // stream, *after* the residents — a churn-free spec replays
        // bit-identically to a pre-churn engine.
        let churn = spec.churn.as_ref();
        let mut events: Vec<LifecycleEvent> = Vec::new();
        if let Some(c) = churn {
            let ev_seed = master.next_u64();
            events = c.schedule(ev_seed, span);
            for (ci, ct) in c.tenants.iter().enumerate() {
                let sched_seed = master.next_u64();
                let full = ct.spec.arrival.schedule(sched_seed, span);
                schedules.push(thin_schedule(full, &events, ci));
                choice_rngs.push(master.fork());
            }
        }
        let all_tenants: Vec<&TenantSpec> = spec
            .tenants
            .iter()
            .chain(
                churn
                    .into_iter()
                    .flat_map(|c| c.tenants.iter().map(|ct| &ct.spec)),
            )
            .collect();
        let resident_n = spec.tenants.len();
        // Each tenant's mix weights, in mix order, for the op draw.
        let weights: Vec<Vec<f64>> = all_tenants
            .iter()
            .map(|t| t.mix.iter().map(|&(_, w)| w).collect())
            .collect();

        // Issue sources: open-loop cursors + closed-loop workers.
        let mut cursors = vec![0usize; all_tenants.len()];
        let mut workers: Vec<Issue> = Vec::new();
        for (ti, t) in spec.tenants.iter().enumerate() {
            if let Arrival::ClosedLoop { concurrency, .. } = t.arrival {
                for w in 0..concurrency {
                    workers.push(Issue {
                        at: t0,
                        tenant: ti,
                        worker: w,
                    });
                }
            }
        }

        // Measurement state.
        let n = all_tenants.len();
        let mut hists: Vec<Histogram> = vec![Histogram::new(); n];
        let mut errors = vec![0u64; n];
        let mut completed = vec![0u64; n];
        let mut kind_hists: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        let mut intervals: Vec<Vec<(Nanos, Nanos)>> = vec![Vec::new(); n];
        let mut host_issued: BTreeMap<u16, u64> = BTreeMap::new();
        let mut within_slo = vec![0u64; n];

        // Per-tenant timelines on the pod's metrics plane, if enabled.
        // Gauges are refreshed around each executed op; the pod's
        // simulated-time sampler does the periodic recording.
        let tenant_metrics: Option<Vec<TenantMetricIds>> = pod.metrics_mut().map(|rec| {
            (0..n as u16)
                .map(|ti| TenantMetricIds {
                    in_flight: rec.gauge("tenant/in_flight", Labels::tenant(ti)),
                    completed: rec.counter("tenant/completed", Labels::tenant(ti)),
                    errors: rec.counter("tenant/errors", Labels::tenant(ti)),
                    slo: rec.gauge("tenant/slo_attainment", Labels::tenant(ti)),
                })
                .collect()
        });

        // Fault plan state.
        let mut fault_pending = spec.fault;
        let mut heal_at: Option<(Nanos, FaultTarget)> = None;
        let mut next_balance = spec.balance_every.map(|every| t0 + every);

        // Lifecycle runtime state: pool-resident tenant state, current
        // activity level per churn tenant, and the applied-event log.
        let churn_count = churn.map_or(0, |c| c.tenants.len());
        let mut lc_states: Vec<Option<TenantState>> = (0..churn_count).map(|_| None).collect();
        let mut lc_levels: Vec<f64> = vec![0.0; churn_count];
        let mut lc_next = 0usize;
        let mut lifecycle_log: Vec<LifecycleEventReport> = Vec::new();

        loop {
            // Earliest pending issue, deterministic tie-break.
            let open_head = cursors
                .iter()
                .enumerate()
                .filter_map(|(ti, &c)| {
                    schedules[ti].get(c).map(|&off| Issue {
                        at: t0 + off,
                        tenant: ti,
                        worker: usize::MAX,
                    })
                })
                .min_by_key(|i| (i.at, i.tenant));
            let worker_head = workers
                .iter()
                .filter(|i| i.at < meas_end)
                .min_by_key(|i| (i.at, i.tenant, i.worker))
                .copied();
            let issue = match (open_head, worker_head) {
                (Some(a), Some(b)) => {
                    if (a.at, a.tenant, a.worker) <= (b.at, b.tenant, b.worker) {
                        a
                    } else {
                        b
                    }
                }
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };

            // Fault plan: fail the target (one MHD or a whole failure
            // domain) once the schedule crosses the plan's offset,
            // recover `heal_after` later.
            if let Some(f) = fault_pending {
                if issue.at >= t0 + f.at {
                    match f.target {
                        FaultTarget::Mhd(m) => pod.fabric.topology_mut().fail_mhd(MhdId(m)),
                        FaultTarget::Domain(d) => {
                            pod.fabric.topology_mut().fail_domain(DomainId(d))
                        }
                    }
                    heal_at = Some((t0 + f.at + f.heal_after, f.target));
                    fault_pending = None;
                }
            }
            if let Some((t, target)) = heal_at {
                if issue.at >= t {
                    match target {
                        FaultTarget::Mhd(m) => {
                            pod.recover_pool_failure(MhdId(m));
                        }
                        FaultTarget::Domain(d) => {
                            pod.recover_domain_failure(DomainId(d));
                        }
                    }
                    heal_at = None;
                }
            }

            // Tenant lifecycle: apply every event the schedule has
            // crossed (same pattern as the fault plan).
            while let Some(&ev) = events.get(lc_next) {
                if issue.at < t0 + ev.at {
                    break;
                }
                lc_next += 1;
                let c = churn.expect("lifecycle events imply a churn spec");
                apply_lifecycle_event(
                    pod,
                    spec,
                    c,
                    &ev,
                    &mut lc_states,
                    &mut lc_levels,
                    &mut lifecycle_log,
                );
            }

            // Control-plane feedback: report per-host issue counts as
            // loads and let the orchestrator rebalance.
            if let (Some(t), Some(every)) = (next_balance, spec.balance_every) {
                if issue.at >= t {
                    let peak = host_issued.values().copied().max().unwrap_or(0).max(1);
                    for (&h, &count) in &host_issued {
                        let load = ((count * 100) / peak).min(100) as u8;
                        pod.report_host_load(HostId(h), load);
                    }
                    host_issued.clear();
                    pod.rebalance(30);
                    next_balance = Some(t + every);
                }
            }

            // Let the pod idle forward to the scheduled issue.
            let now = pod.time();
            if now < issue.at {
                pod.run_control(issue.at - now);
            }

            // Advance this source past the issue we are about to run.
            let tenant = all_tenants[issue.tenant];
            let closed = issue.worker != usize::MAX;
            if !closed {
                cursors[issue.tenant] += 1;
            }

            // Pick host and op class from the tenant's choice stream.
            let rng = &mut choice_rngs[issue.tenant];
            let host = tenant.hosts[rng.below(tenant.hosts.len() as u64) as usize];
            let op = tenant.mix[rng.weighted(&weights[issue.tenant])].0;
            let lba = rng.below(1 << 16);
            *host_issued.entry(host).or_insert(0) += 1;

            // Execute. Open loop measures from the scheduled arrival
            // (queueing delay included); closed loop from the actual
            // issue instant.
            let start = if closed {
                pod.time().max(issue.at)
            } else {
                issue.at
            };
            let deadline = pod.time().max(issue.at) + spec.op_timeout;
            if let Some(tm) = &tenant_metrics {
                let id = tm[issue.tenant].in_flight;
                if let Some(rec) = pod.metrics_mut() {
                    rec.gauge_set(id, 1.0);
                }
            }
            let result = execute(pod, HostId(host), op, lba, issue.at, deadline);
            let (end, failed) = match result {
                Ok(done) => (done, false),
                Err(_) => (deadline, true),
            };
            let latency = end.saturating_sub(start);

            let measured = issue.at >= meas_start && issue.at < meas_end;
            if measured {
                hists[issue.tenant].record_nanos(latency);
                kind_hists
                    .entry(op.label())
                    .or_default()
                    .record_nanos(latency);
                if failed {
                    errors[issue.tenant] += 1;
                } else {
                    completed[issue.tenant] += 1;
                }
                if closed {
                    intervals[issue.tenant].push((start, end));
                }
                if !failed && latency <= tenant.slo.limit {
                    within_slo[issue.tenant] += 1;
                }
            }
            if let Some(tm) = &tenant_metrics {
                let ids = &tm[issue.tenant];
                let measured_ops = hists[issue.tenant].count();
                let attainment = if measured_ops == 0 {
                    1.0
                } else {
                    within_slo[issue.tenant] as f64 / measured_ops as f64
                };
                let (in_flight, done, errs, slo) =
                    (ids.in_flight, ids.completed, ids.errors, ids.slo);
                let (done_v, errs_v) = (completed[issue.tenant], errors[issue.tenant]);
                if let Some(rec) = pod.metrics_mut() {
                    rec.gauge_set(in_flight, 0.0);
                    rec.gauge_set(done, done_v as f64);
                    rec.gauge_set(errs, errs_v as f64);
                    rec.gauge_set(slo, attainment);
                }
            }

            // Closed-loop worker reschedule.
            if closed {
                if let Arrival::ClosedLoop { think, .. } = tenant.arrival {
                    let slot = workers
                        .iter_mut()
                        .find(|i| i.tenant == issue.tenant && i.worker == issue.worker)
                        .expect("worker exists");
                    slot.at = end.max(issue.at) + think;
                }
            }
        }

        // Run out the remaining lifecycle events (departures scheduled
        // after the last issued op), then reclaim any tenant still
        // resident so the pod hands back every churn-owned segment.
        if let Some(c) = churn {
            while let Some(&ev) = events.get(lc_next) {
                lc_next += 1;
                apply_lifecycle_event(
                    pod,
                    spec,
                    c,
                    &ev,
                    &mut lc_states,
                    &mut lc_levels,
                    &mut lifecycle_log,
                );
            }
            for st in lc_states.into_iter().flatten() {
                st.release(pod);
            }
        }

        // Reduce.
        let secs = spec.measure.as_secs_f64();
        let mut tenants = Vec::with_capacity(n);
        for (ti, t) in all_tenants.iter().enumerate() {
            let achieved = completed[ti] as f64 / secs;
            // A churn tenant's offered rate is what its thinned
            // schedule actually put inside the measurement window.
            let offered = if ti >= resident_n {
                schedules[ti]
                    .iter()
                    .filter(|&&off| off >= spec.warmup && off < span)
                    .count() as f64
                    / secs
            } else {
                t.arrival.mean_rate_pps().unwrap_or(achieved)
            };
            tenants.push(TenantReport {
                name: t.name.clone(),
                offered_pps: offered,
                achieved_pps: achieved,
                ops: hists[ti].count(),
                errors: errors[ti],
                latency: hists[ti].summary(),
                verdict: t.slo.check(&hists[ti], errors[ti]),
                peak_in_flight: peak_overlap(&mut intervals[ti]),
            });
        }
        let achieved_total = tenants.iter().map(|t| t.achieved_pps).sum();
        RunReport {
            kinds: kind_hists
                .into_iter()
                .map(|(k, h)| (k, h.summary()))
                .collect(),
            offered_pps: spec.offered_pps(),
            achieved_pps: achieved_total,
            ops: tenants.iter().map(|t| t.ops).sum(),
            errors: tenants.iter().map(|t| t.errors).sum(),
            elapsed: pod.time().saturating_sub(t0),
            tenants,
            lifecycle: lifecycle_log,
        }
    }
}

/// The device class a churn tenant's traffic is judged on: its
/// heaviest-weighted op's kind.
fn primary_kind(t: &TenantSpec) -> DeviceKind {
    t.mix
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|&(op, _)| op.device_kind())
        .expect("validated mix is non-empty")
}

/// `t`'s mix weight fraction that lands on `kind`.
fn kind_share(t: &TenantSpec, kind: DeviceKind) -> f64 {
    let total: f64 = t
        .mix
        .iter()
        .filter(|&&(_, w)| w > 0.0)
        .map(|&(_, w)| w)
        .sum();
    if total <= 0.0 {
        return 0.0;
    }
    let on: f64 = t
        .mix
        .iter()
        .filter(|&&(op, w)| w > 0.0 && op.device_kind() == kind)
        .map(|&(_, w)| w)
        .sum();
    on / total
}

/// Offered-rate attribution for `kind`, in milli-ops/s per live
/// device: every open-loop tenant's mean rate (scaled by its mix
/// share on `kind` and, for churn tenants, its lifecycle level) is
/// split across its hosts and charged to the device each host is
/// currently bound to. Churn tenant `exclude` is left out so the
/// placement choice reflects the load it would *join*. Deterministic:
/// BTreeMap keying and integer milli-pps totals.
fn device_load_mpps(
    pod: &PodSim,
    spec: &WorkloadSpec,
    churn: &ChurnSpec,
    levels: &[f64],
    kind: DeviceKind,
    exclude: usize,
) -> BTreeMap<DeviceId, u64> {
    let mut load: BTreeMap<DeviceId, u64> = pod
        .orch
        .devices_of(kind)
        .into_iter()
        .filter(|&d| pod.orch.device(d).is_some_and(|i| i.up))
        .map(|d| (d, 0))
        .collect();
    let charge = |load: &mut BTreeMap<DeviceId, u64>, t: &TenantSpec, level: f64| {
        let Some(rate) = t.arrival.mean_rate_pps() else {
            return;
        };
        let share = kind_share(t, kind);
        if share <= 0.0 || level <= 0.0 {
            return;
        }
        let per_host = rate * share * level / t.hosts.len() as f64;
        for &h in &t.hosts {
            if let Some(d) = pod.binding(HostId(h), kind) {
                if let Some(v) = load.get_mut(&d) {
                    *v += (per_host * 1000.0) as u64;
                }
            }
        }
    };
    for t in &spec.tenants {
        charge(&mut load, t, 1.0);
    }
    for (ci, ct) in churn.tenants.iter().enumerate() {
        if ci != exclude {
            charge(&mut load, &ct.spec, levels[ci]);
        }
    }
    load
}

/// Live-migrates churn tenant `ci` to the least-loaded `kind` device
/// if that device carries strictly less attributed load than the
/// tenant's current one. Returns the blackout when a migration ran.
fn rebalance_tenant(
    pod: &mut PodSim,
    spec: &WorkloadSpec,
    c: &ChurnSpec,
    levels: &[f64],
    ci: usize,
    st: &mut TenantState,
    kind: DeviceKind,
) -> Option<Nanos> {
    let load = device_load_mpps(pod, spec, c, levels, kind, ci);
    let cur = pod.binding(st.hosts[0], kind)?;
    let (&target, &target_load) = load.iter().min_by_key(|&(&d, &l)| (l, d))?;
    let cur_load = load.get(&cur).copied().unwrap_or(u64::MAX);
    if target == cur || target_load >= cur_load {
        return None;
    }
    match pod_lifecycle::migrate_tenant(pod, st, kind, target) {
        Ok(Some(rep)) => Some(rep.blackout),
        _ => None,
    }
}

/// Applies one lifecycle event to the pod: arrival provisions and
/// statically places the tenant, grow/shrink re-checkpoint it,
/// departure releases everything it owns. With [`ChurnSpec::migrate`]
/// on, arrival/grow/shrink additionally rebalance by live migration.
fn apply_lifecycle_event(
    pod: &mut PodSim,
    spec: &WorkloadSpec,
    c: &ChurnSpec,
    ev: &LifecycleEvent,
    states: &mut [Option<TenantState>],
    levels: &mut [f64],
    log: &mut Vec<LifecycleEventReport>,
) {
    let ct = &c.tenants[ev.tenant];
    let kind = primary_kind(&ct.spec);
    let mut migrated = None;
    match ev.kind {
        LifecycleEventKind::Arrive => {
            let hosts: Vec<HostId> = ct.spec.hosts.iter().map(|&h| HostId(h)).collect();
            let Ok(mut st) =
                pod_lifecycle::provision(pod, ev.tenant as u16, &hosts, ct.state_len, ct.replicas)
            else {
                return;
            };
            levels[ev.tenant] = ev.kind.level();
            // Naive static placement: every tenant host lands on the
            // spec'd device, migration or not — the baseline the
            // orchestrator's churn response is judged against.
            let devs = pod.orch.devices_of(kind);
            if !devs.is_empty() {
                let naive = devs[ct.naive_dev.min(devs.len() - 1)];
                let now = pod.time();
                for &h in &hosts {
                    if pod.binding(h, kind) != Some(naive) {
                        let _ = pod_lifecycle::rebind(pod, h, kind, naive, now);
                    }
                }
            }
            if c.migrate {
                migrated = rebalance_tenant(pod, spec, c, levels, ev.tenant, &mut st, kind);
            }
            states[ev.tenant] = Some(st);
        }
        LifecycleEventKind::Grow | LifecycleEventKind::Shrink => {
            levels[ev.tenant] = ev.kind.level();
            let Some(mut st) = states[ev.tenant].take() else {
                return;
            };
            let _ = st.checkpoint(pod);
            if c.migrate {
                migrated = rebalance_tenant(pod, spec, c, levels, ev.tenant, &mut st, kind);
            }
            states[ev.tenant] = Some(st);
        }
        LifecycleEventKind::Depart => {
            levels[ev.tenant] = 0.0;
            let Some(st) = states[ev.tenant].take() else {
                return;
            };
            st.release(pod);
        }
    }
    log.push(LifecycleEventReport {
        at: ev.at,
        tenant: ct.spec.name.clone(),
        event: ev.kind.label(),
        migrated: migrated.is_some(),
        blackout: migrated,
    });
}

/// Runs one operation to completion; returns the completion time.
fn execute(
    pod: &mut PodSim,
    host: HostId,
    op: OpKind,
    lba: u64,
    issue_id: Nanos,
    deadline: Nanos,
) -> Result<Nanos, PoolError> {
    match op {
        OpKind::NicSend { bytes } => {
            let payload = payload(bytes, issue_id);
            pod.vnic_send(host, &payload, deadline).map(|r| r.at)
        }
        OpKind::NicRecv { bytes } => {
            let dev = pod
                .binding(host, DeviceKind::Nic)
                .ok_or(PoolError::NotAssigned(DeviceKind::Nic))?;
            pod.vnic_post_rx(host, deadline)?;
            let frame = payload(bytes, issue_id);
            pod.deliver_frame(dev, &frame)?;
            let ev = pod
                .vnic_poll_rx(host, deadline)
                .ok_or(PoolError::Timeout { op: 0 })?;
            Ok(ev.at)
        }
        OpKind::SsdRead { blocks } => pod
            .vssd_read(host, lba, blocks, deadline)
            .map(|(_, r)| r.at),
        OpKind::SsdWrite { blocks } => {
            let data = payload(op.io_bytes() as u32, issue_id);
            let (buf, staged) = pod.stage(host, &data)?;
            pod.agents[host.0 as usize].advance_clock(staged);
            pod.vssd_write(host, lba, blocks, buf, deadline)
                .map(|r| r.at)
        }
        OpKind::AccelRun { bytes } => {
            let input = payload(bytes, issue_id);
            pod.vaccel_run(host, &input, deadline).map(|(_, r)| r.at)
        }
    }
}

/// Deterministic payload bytes for one operation.
fn payload(bytes: u32, issue: Nanos) -> Vec<u8> {
    let tag = (issue.as_nanos() % 251) as u8;
    (0..bytes).map(|i| tag.wrapping_add(i as u8)).collect()
}

/// Maximum number of overlapping `(start, end)` intervals.
fn peak_overlap(intervals: &mut [(Nanos, Nanos)]) -> usize {
    if intervals.is_empty() {
        return 0;
    }
    let mut edges: Vec<(Nanos, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(s, e) in intervals.iter() {
        edges.push((s, 1));
        // Half-open: an op ending exactly when another starts does not
        // overlap it.
        edges.push((e, -1));
    }
    edges.sort_by_key(|&(t, d)| (t, d));
    let (mut cur, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        cur += d;
        peak = peak.max(cur);
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_overlap_counts_concurrency() {
        let mut iv = vec![
            (Nanos(0), Nanos(10)),
            (Nanos(5), Nanos(15)),
            (Nanos(10), Nanos(20)), // starts when the first ends: no overlap
        ];
        assert_eq!(peak_overlap(&mut iv), 2);
        assert_eq!(peak_overlap(&mut []), 0);
    }

    #[test]
    fn payload_is_deterministic() {
        assert_eq!(payload(8, Nanos(100)), payload(8, Nanos(100)));
        assert_eq!(payload(4, Nanos(0)), vec![0, 1, 2, 3]);
    }
}
