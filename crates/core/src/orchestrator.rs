//! The pooling orchestrator (§4.2): the pool's control plane.
//!
//! Runs as a management process on one host of the pod and talks to
//! every agent over shared-memory channels. It owns the device registry
//! and the device-to-host assignments, allocates devices on request
//! (local-first under a load threshold, else least-utilized in the pod),
//! reacts to device failures by re-assigning affected hosts, and
//! migrates load away from hot devices.

use std::collections::{BTreeMap, HashMap};

use cxl_fabric::{DomainId, Fabric, FabricError, HostId};
use pcie_sim::DeviceId;
use shmem::channel::{plan_idle_passes, skip_idle_passes, ChannelSend};
use shmem::ring::{IdleSkip, PollOutcome};
use simkit::rng::Rng;
use simkit::Nanos;

use crate::agent::Link;
use crate::proto::Msg;
use crate::striping::ReplicaSet;
use crate::vdev::{DeviceKind, PoolError};

/// Device allocation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocPolicy {
    /// The paper's policy: prefer a device attached to the requesting
    /// host while its load is below `threshold` (percent); otherwise
    /// pick the least-utilized device in the pod.
    LocalFirst {
        /// Load percentage above which local devices are bypassed.
        threshold: u8,
    },
    /// Always pick the least-utilized device, ignoring locality.
    LeastUtilized,
    /// Uniform random among live devices (ablation baseline).
    Random,
}

/// Registry entry for one physical device.
#[derive(Clone, Debug)]
pub struct DevInfo {
    /// Device class.
    pub kind: DeviceKind,
    /// Host it is physically attached to.
    pub attach: HostId,
    /// Liveness, as believed by the orchestrator.
    pub up: bool,
    /// Last reported load (0-100).
    pub load: u8,
    /// Hosts currently assigned to this device.
    pub users: Vec<HostId>,
}

/// One failover event, for the experiment log.
#[derive(Clone, Copy, Debug)]
pub struct FailoverEvent {
    /// When the orchestrator processed the failure report.
    pub at: Nanos,
    /// The failed device.
    pub failed: DeviceId,
    /// The host that was moved.
    pub host: HostId,
    /// Its replacement device.
    pub replacement: DeviceId,
}

/// The pooling orchestrator.
pub struct Orchestrator {
    /// Host the orchestrator runs on.
    pub host: HostId,
    policy: AllocPolicy,
    links: Vec<(HostId, Link)>,
    /// Device registry. Ordered so every walk (choose, balance,
    /// devices_of) visits devices in id order: `AllocPolicy::Random`
    /// indexes into the collected list with the seeded RNG, and a
    /// `HashMap` here made that pick — and thus placement — vary run
    /// to run (simlint `hash-iter`; same class as the PR 4
    /// `Segment::spread` bug).
    registry: BTreeMap<DeviceId, DevInfo>,
    assignments: HashMap<(HostId, DeviceKind), DeviceId>,
    host_loads: HashMap<HostId, u8>,
    /// Failovers performed, in order.
    pub failover_log: Vec<FailoverEvent>,
    /// Migrations performed by load balancing.
    pub migrations: u64,
    clock: Nanos,
    rng: Rng,
}

impl Orchestrator {
    /// Creates an orchestrator running on `host`.
    pub fn new(host: HostId, policy: AllocPolicy, seed: u64) -> Orchestrator {
        Orchestrator {
            host,
            policy,
            links: Vec::new(),
            registry: BTreeMap::new(),
            assignments: HashMap::new(),
            host_loads: HashMap::new(),
            failover_log: Vec::new(),
            migrations: 0,
            clock: Nanos::ZERO,
            rng: Rng::new(seed),
        }
    }

    /// Installs the link to `agent_host`'s agent: appended when it is
    /// new, swapped in place on pool-failure recovery.
    pub fn replace_link(&mut self, agent_host: HostId, link: Link) {
        if let Some(slot) = self.links.iter_mut().find(|(h, _)| *h == agent_host) {
            slot.1 = link;
        } else {
            self.links.push((agent_host, link));
        }
    }

    /// Registers a physical device.
    pub fn register(&mut self, dev: DeviceId, kind: DeviceKind, attach: HostId) {
        self.registry.insert(
            dev,
            DevInfo {
                kind,
                attach,
                up: true,
                load: 0,
                users: Vec::new(),
            },
        );
    }

    /// Registry lookup.
    pub fn device(&self, dev: DeviceId) -> Option<&DevInfo> {
        self.registry.get(&dev)
    }

    /// Overrides a device's reported load (tests and synthetic setups).
    pub fn set_load(&mut self, dev: DeviceId, load: u8) {
        if let Some(info) = self.registry.get_mut(&dev) {
            info.load = load;
        }
    }

    /// Records a host's reported load (normally fed by `HostLoad`
    /// messages; exposed for synthetic setups).
    pub fn set_host_load(&mut self, host: HostId, load: u8) {
        self.host_loads.insert(host, load);
    }

    /// Current assignment of `host` for `kind`.
    pub fn assignment(&self, host: HostId, kind: DeviceKind) -> Option<DeviceId> {
        self.assignments.get(&(host, kind)).copied()
    }

    /// The orchestrator's clock.
    pub fn clock(&self) -> Nanos {
        self.clock
    }

    /// Moves the clock forward.
    pub fn advance_clock(&mut self, to: Nanos) {
        if to > self.clock {
            self.clock = to;
        }
    }

    /// Picks a device of `kind` for `host` under the configured policy.
    /// Does not change any state.
    pub fn choose(&mut self, host: HostId, kind: DeviceKind) -> Result<DeviceId, PoolError> {
        let live: Vec<(DeviceId, u8, usize, HostId)> = self
            .registry
            .iter()
            .filter(|(_, d)| d.kind == kind && d.up)
            .map(|(id, d)| (*id, d.load, d.users.len(), d.attach))
            .collect();
        if live.is_empty() {
            return Err(PoolError::NoDevice(kind));
        }
        let pick = match self.policy {
            AllocPolicy::LocalFirst { threshold } => {
                let local = live
                    .iter()
                    .filter(|&&(_, load, _, attach)| attach == host && load < threshold)
                    .min_by_key(|&&(id, load, users, _)| (load, users, id));
                match local {
                    Some(&(id, _, _, _)) => id,
                    None => Self::least_utilized(&live),
                }
            }
            AllocPolicy::LeastUtilized => Self::least_utilized(&live),
            AllocPolicy::Random => live[self.rng.below(live.len() as u64) as usize].0,
        };
        Ok(pick)
    }

    fn least_utilized(live: &[(DeviceId, u8, usize, HostId)]) -> DeviceId {
        live.iter()
            .min_by_key(|&&(id, load, users, _)| (load, users, id))
            .map(|&(id, _, _, _)| id)
            .expect("nonempty")
    }

    /// Allocates a device of `kind` to `host`: choose, record, and push
    /// an `Assign` to the host's agent. Returns the device.
    pub fn allocate(
        &mut self,
        fabric: &mut Fabric,
        host: HostId,
        kind: DeviceKind,
    ) -> Result<DeviceId, PoolError> {
        let dev = self.choose(host, kind)?;
        self.bind(fabric, host, kind, dev)?;
        Ok(dev)
    }

    /// Binds `host` to a *specific* device (connection migration and
    /// operator-directed placement).
    pub fn allocate_specific(
        &mut self,
        fabric: &mut Fabric,
        host: HostId,
        kind: DeviceKind,
        dev: DeviceId,
    ) -> Result<(), PoolError> {
        let info = self.registry.get(&dev).ok_or(PoolError::NoDevice(kind))?;
        if !info.up || info.kind != kind {
            return Err(PoolError::NoDevice(kind));
        }
        self.bind(fabric, host, kind, dev)
    }

    fn bind(
        &mut self,
        fabric: &mut Fabric,
        host: HostId,
        kind: DeviceKind,
        dev: DeviceId,
    ) -> Result<(), PoolError> {
        // Unlink any previous assignment.
        if let Some(old) = self.assignments.insert((host, kind), dev) {
            if let Some(info) = self.registry.get_mut(&old) {
                info.users.retain(|&h| h != host);
            }
        }
        let info = self
            .registry
            .get_mut(&dev)
            .expect("chosen device is registered");
        info.users.push(host);
        // Optimistic estimate until the next DevLoad report, so a burst
        // of allocations does not pile onto one device.
        info.load = info.load.saturating_add(5);
        self.push_assign(fabric, host, kind, dev)
    }

    fn push_assign(
        &mut self,
        fabric: &mut Fabric,
        host: HostId,
        kind: DeviceKind,
        dev: DeviceId,
    ) -> Result<(), PoolError> {
        let msg = Msg::Assign {
            host,
            kind: kind.as_u8(),
            dev,
        };
        let clock = self.clock;
        let Some((_, link)) = self.links.iter_mut().find(|(h, _)| *h == host) else {
            // No link (unit tests / local bookkeeping only): the
            // registry update stands, but nothing is pushed.
            return Ok(());
        };
        match link.tx.send(fabric, clock, &msg.encode())? {
            ChannelSend::Sent(_) => {
                self.clock += Nanos(30);
                Ok(())
            }
            ChannelSend::Blocked { at, .. } => {
                self.clock = self.clock.max(at);
                Err(PoolError::ChannelBlocked)
            }
        }
    }

    /// The orchestrator's idle plan toward `until` ([`plan_idle_passes`]
    /// over the agent links).
    pub fn idle_plan(&self, fabric: &Fabric, until: Nanos) -> IdleSkip {
        let rxs = self.links.iter().map(|(_, l)| &l.rx);
        plan_idle_passes(fabric, self.clock, until, rxs)
    }

    /// Polls agent channels until `until`, reacting to failure and load
    /// reports. Passes that would find every ring empty are skipped with
    /// [`skip_idle_passes`]; only a pass that observes a published slot
    /// runs through the timed fabric.
    pub fn pump(&mut self, fabric: &mut Fabric, until: Nanos) {
        while self.clock < until {
            let rxs = self.links.iter().map(|(_, l)| &l.rx);
            self.clock = skip_idle_passes(fabric, self.clock, until, rxs);
            if self.clock >= until {
                return;
            }
            self.poll_pass(fabric, until);
        }
    }

    /// One pass through the timed fabric: poll every agent link once,
    /// then handle what arrived.
    pub(crate) fn poll_pass(&mut self, fabric: &mut Fabric, until: Nanos) {
        let before = self.clock;
        let mut inbox: Vec<Msg> = Vec::new();
        for i in 0..self.links.len() {
            let clock = self.clock;
            let outcome = {
                let (_, link) = &mut self.links[i];
                link.rx.poll(fabric, clock)
            };
            match outcome {
                Ok(PollOutcome::Empty(t)) => self.clock = t,
                Ok(PollOutcome::Msg { data, at }) => {
                    self.clock = at;
                    if let Ok(msg) = Msg::decode(&data) {
                        inbox.push(msg);
                    }
                }
                Err(_) => {}
            }
        }
        if self.clock == before {
            // Every link errored without consuming time (all rings
            // sit on failed pool memory): burn the quantum rather
            // than spinning forever during the outage.
            self.clock = self.clock.max(until);
        }
        for msg in inbox {
            self.handle(fabric, msg);
        }
    }

    fn handle(&mut self, fabric: &mut Fabric, msg: Msg) {
        match msg {
            Msg::DevFailed { dev, .. } => self.on_failure(fabric, dev),
            Msg::DevLoad { dev, load } => {
                if let Some(info) = self.registry.get_mut(&dev) {
                    info.load = load;
                }
            }
            Msg::HostLoad { host, load } => {
                self.host_loads.insert(host, load);
            }
            _ => {}
        }
    }

    /// Marks `dev` down and fails all its users over to replacements.
    pub fn on_failure(&mut self, fabric: &mut Fabric, dev: DeviceId) {
        let Some(info) = self.registry.get_mut(&dev) else {
            return;
        };
        if !info.up {
            return; // Duplicate report.
        }
        info.up = false;
        let kind = info.kind;
        let users = std::mem::take(&mut info.users);
        for host in users {
            self.assignments.remove(&(host, kind));
            match self.choose(host, kind) {
                Ok(replacement) => {
                    if self.bind(fabric, host, kind, replacement).is_ok() {
                        let at = self.clock;
                        self.failover_log.push(FailoverEvent {
                            at,
                            failed: dev,
                            host,
                            replacement,
                        });
                    }
                }
                Err(_) => {
                    // Pool exhausted for this kind; the host stays
                    // unbound and its next operation reports
                    // NotAssigned.
                }
            }
        }
    }

    /// Marks a repaired device up again (it rejoins the candidate set).
    pub fn on_repair(&mut self, dev: DeviceId) {
        if let Some(info) = self.registry.get_mut(&dev) {
            info.up = true;
            info.load = 0;
        }
    }

    /// One load-balancing pass: if the spread between the hottest and
    /// coolest live device of a kind exceeds `spread_pct`, move one user
    /// from the hottest to the coolest. Returns migrations performed.
    pub fn balance(&mut self, fabric: &mut Fabric, spread_pct: u8) -> u64 {
        let mut moved = 0;
        for kind in DeviceKind::ALL {
            let mut live: Vec<(DeviceId, u8, usize)> = self
                .registry
                .iter()
                .filter(|(_, d)| d.kind == kind && d.up)
                .map(|(id, d)| (*id, d.load, d.users.len()))
                .collect();
            if live.len() < 2 {
                continue;
            }
            live.sort_by_key(|&(id, load, _)| (load, id));
            let (cool, cool_load, _) = live[0];
            let &(hot, hot_load, hot_users) = live.last().expect("len >= 2");
            if hot_load.saturating_sub(cool_load) < spread_pct || hot_users == 0 {
                continue;
            }
            // Move the heaviest known user of the hot device (falling
            // back to the first when no host reports exist).
            let host = self.registry[&hot]
                .users
                .iter()
                .copied()
                .max_by_key(|h| self.host_loads.get(h).copied().unwrap_or(0))
                .expect("hot device has users");
            if self.bind(fabric, host, kind, cool).is_ok() {
                // Shift the load estimate so repeated passes don't
                // thrash before fresh reports arrive.
                let delta = (hot_load - cool_load) / 2;
                if let Some(i) = self.registry.get_mut(&hot) {
                    i.load = i.load.saturating_sub(delta);
                }
                self.migrations += 1;
                moved += 1;
            }
        }
        moved
    }

    /// Picks `copies` distinct failure domains for a tenant's
    /// replicated region, mirroring the device policy: the tenant's
    /// *home* domain leads while its utilization is below the
    /// local-first threshold, every further copy goes to the
    /// least-utilized (most-free) remaining domain — and two copies of
    /// one tenant's data never share a failure domain.
    pub fn choose_replica_domains(
        &self,
        fabric: &Fabric,
        tenant: HostId,
        len: u64,
        copies: usize,
    ) -> Result<Vec<DomainId>, PoolError> {
        assert!(copies > 0, "a placement needs at least one copy");
        let mut cands: Vec<DomainId> = fabric
            .topology()
            .reachable_domains(tenant)
            .into_iter()
            .filter(|&d| fabric.domain_free(d) >= len)
            .collect();
        if cands.len() < copies {
            return Err(PoolError::Fabric(FabricError::InsufficientDomains {
                wanted: copies,
                available: cands.len(),
            }));
        }
        // Least-utilized order, ties by id for determinism.
        cands.sort_by_key(|&d| (std::cmp::Reverse(fabric.domain_free(d)), d));
        if let AllocPolicy::LocalFirst { threshold } = self.policy {
            if let Some(home) = fabric.topology().home_domain(tenant) {
                let cap = fabric.domain_capacity(home);
                let used_pct = (cap - fabric.domain_free(home))
                    .checked_mul(100)
                    .and_then(|u| u.checked_div(cap))
                    .unwrap_or(100) as u8;
                if used_pct < threshold {
                    if let Some(pos) = cands.iter().position(|&d| d == home) {
                        let h = cands.remove(pos);
                        cands.insert(0, h);
                    }
                }
            }
        }
        cands.truncate(copies);
        Ok(cands)
    }

    /// Places a tenant's replicated region under
    /// [`Orchestrator::choose_replica_domains`] and allocates it as a
    /// [`ReplicaSet`] (one pinned, intra-domain-striped copy per chosen
    /// domain).
    pub fn place_replicas(
        &self,
        fabric: &mut Fabric,
        tenant: HostId,
        len: u64,
        copies: usize,
    ) -> Result<ReplicaSet, PoolError> {
        let domains = self.choose_replica_domains(fabric, tenant, len, copies)?;
        ReplicaSet::create(fabric, &[tenant], len, &domains).map_err(PoolError::from)
    }

    /// All registered devices of a kind, sorted.
    pub fn devices_of(&self, kind: DeviceKind) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = self
            .registry
            .iter()
            .filter(|(_, d)| d.kind == kind)
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_fabric::PodConfig;

    fn orch(policy: AllocPolicy) -> (Fabric, Orchestrator) {
        let f = Fabric::new(PodConfig::new(4, 2, 2));
        let mut o = Orchestrator::new(HostId(0), policy, 1);
        // NICs on hosts 0 and 1; none on 2, 3.
        o.register(DeviceId(0), DeviceKind::Nic, HostId(0));
        o.register(DeviceId(1), DeviceKind::Nic, HostId(1));
        (f, o)
    }

    #[test]
    fn local_first_prefers_local_device() {
        let (_f, mut o) = orch(AllocPolicy::LocalFirst { threshold: 80 });
        assert_eq!(o.choose(HostId(0), DeviceKind::Nic).unwrap(), DeviceId(0));
        assert_eq!(o.choose(HostId(1), DeviceKind::Nic).unwrap(), DeviceId(1));
    }

    #[test]
    fn local_first_spills_over_when_hot() {
        let (_f, mut o) = orch(AllocPolicy::LocalFirst { threshold: 80 });
        o.set_load(DeviceId(0), 95);
        // Host 0's local NIC is above threshold: go least-utilized.
        assert_eq!(o.choose(HostId(0), DeviceKind::Nic).unwrap(), DeviceId(1));
    }

    #[test]
    fn host_without_local_device_gets_least_utilized() {
        let (_f, mut o) = orch(AllocPolicy::LocalFirst { threshold: 80 });
        o.set_load(DeviceId(0), 50);
        o.set_load(DeviceId(1), 10);
        assert_eq!(o.choose(HostId(2), DeviceKind::Nic).unwrap(), DeviceId(1));
    }

    #[test]
    fn no_live_device_is_an_error() {
        let (mut f, mut o) = orch(AllocPolicy::LeastUtilized);
        o.on_failure(&mut f, DeviceId(0));
        o.on_failure(&mut f, DeviceId(1));
        assert!(matches!(
            o.choose(HostId(0), DeviceKind::Nic),
            Err(PoolError::NoDevice(DeviceKind::Nic))
        ));
    }

    #[test]
    fn allocation_tracks_users_and_assignment() {
        let (mut f, mut o) = orch(AllocPolicy::LeastUtilized);
        let dev = o
            .allocate(&mut f, HostId(2), DeviceKind::Nic)
            .expect("alloc");
        assert_eq!(o.assignment(HostId(2), DeviceKind::Nic), Some(dev));
        assert!(o.device(dev).unwrap().users.contains(&HostId(2)));
    }

    #[test]
    fn reallocation_unlinks_previous_device() {
        let (mut f, mut o) = orch(AllocPolicy::LeastUtilized);
        let d1 = o
            .allocate(&mut f, HostId(2), DeviceKind::Nic)
            .expect("alloc");
        // Tilt loads so the other device is picked next time.
        o.set_load(d1, 90);
        let d2 = o
            .allocate(&mut f, HostId(2), DeviceKind::Nic)
            .expect("realloc");
        assert_ne!(d1, d2);
        assert!(!o.device(d1).unwrap().users.contains(&HostId(2)));
        assert!(o.device(d2).unwrap().users.contains(&HostId(2)));
    }

    #[test]
    fn failure_moves_users_to_survivor() {
        let (mut f, mut o) = orch(AllocPolicy::LeastUtilized);
        o.allocate(&mut f, HostId(2), DeviceKind::Nic)
            .expect("alloc");
        o.allocate(&mut f, HostId(3), DeviceKind::Nic)
            .expect("alloc");
        // Both land on different devices (least-utilized + estimate);
        // fail device 0 and everyone must end up on device 1.
        o.on_failure(&mut f, DeviceId(0));
        assert!(!o.device(DeviceId(0)).unwrap().up);
        for h in [HostId(2), HostId(3)] {
            assert_eq!(o.assignment(h, DeviceKind::Nic), Some(DeviceId(1)));
        }
        assert!(!o.failover_log.is_empty());
    }

    #[test]
    fn duplicate_failure_reports_are_idempotent() {
        let (mut f, mut o) = orch(AllocPolicy::LeastUtilized);
        o.allocate(&mut f, HostId(2), DeviceKind::Nic)
            .expect("alloc");
        o.on_failure(&mut f, DeviceId(0));
        let log_len = o.failover_log.len();
        o.on_failure(&mut f, DeviceId(0));
        assert_eq!(o.failover_log.len(), log_len);
    }

    #[test]
    fn repair_rejoins_candidate_set() {
        let (mut f, mut o) = orch(AllocPolicy::LeastUtilized);
        o.on_failure(&mut f, DeviceId(0));
        o.on_repair(DeviceId(0));
        assert!(o.device(DeviceId(0)).unwrap().up);
        // Fresh device has load 0: it becomes the least-utilized pick.
        o.set_load(DeviceId(1), 40);
        assert_eq!(o.choose(HostId(2), DeviceKind::Nic).unwrap(), DeviceId(0));
    }

    #[test]
    fn random_policy_spreads_choices() {
        let (_f, mut o) = orch(AllocPolicy::Random);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(o.choose(HostId(2), DeviceKind::Nic).unwrap());
        }
        assert_eq!(seen.len(), 2, "both NICs should be chosen eventually");
    }

    #[test]
    fn balance_moves_user_off_hot_device() {
        let (mut f, mut o) = orch(AllocPolicy::LeastUtilized);
        o.allocate(&mut f, HostId(2), DeviceKind::Nic)
            .expect("alloc");
        // Find where host 2 landed and make it hot.
        let hot = o.assignment(HostId(2), DeviceKind::Nic).unwrap();
        let cool = if hot == DeviceId(0) {
            DeviceId(1)
        } else {
            DeviceId(0)
        };
        o.set_load(hot, 90);
        o.set_load(cool, 5);
        let moved = o.balance(&mut f, 30);
        assert_eq!(moved, 1);
        assert_eq!(o.assignment(HostId(2), DeviceKind::Nic), Some(cool));
    }

    #[test]
    fn balance_respects_spread_threshold() {
        let (mut f, mut o) = orch(AllocPolicy::LeastUtilized);
        o.allocate(&mut f, HostId(2), DeviceKind::Nic)
            .expect("alloc");
        o.set_load(DeviceId(0), 50);
        o.set_load(DeviceId(1), 45);
        assert_eq!(o.balance(&mut f, 30), 0, "spread 5 < threshold 30");
    }

    fn two_domain_fabric() -> Fabric {
        // 4 hosts, 4 MHDs round-robined over 2 domains, full links.
        Fabric::new(PodConfig::new(4, 4, 4).with_domains(2))
    }

    #[test]
    fn replica_domains_are_distinct() {
        let f = two_domain_fabric();
        let o = Orchestrator::new(HostId(0), AllocPolicy::LeastUtilized, 1);
        let doms = o
            .choose_replica_domains(&f, HostId(0), 4096, 2)
            .expect("choose");
        assert_eq!(doms.len(), 2);
        assert_ne!(doms[0], doms[1], "replicas must not share a domain");
    }

    #[test]
    fn replica_placement_leads_with_home_domain() {
        let f = two_domain_fabric();
        // Host 1's first link lands on MHD 1 → domain 1.
        let local = Orchestrator::new(HostId(0), AllocPolicy::LocalFirst { threshold: 80 }, 1);
        let doms = local
            .choose_replica_domains(&f, HostId(1), 4096, 2)
            .expect("choose");
        assert_eq!(doms[0], cxl_fabric::DomainId(1), "home domain leads");
        // Without locality the tie breaks by id.
        let lu = Orchestrator::new(HostId(0), AllocPolicy::LeastUtilized, 1);
        let doms = lu
            .choose_replica_domains(&f, HostId(1), 4096, 2)
            .expect("choose");
        assert_eq!(doms[0], cxl_fabric::DomainId(0));
    }

    #[test]
    fn replica_placement_rejects_when_domains_scarce() {
        let mut f = two_domain_fabric();
        let o = Orchestrator::new(HostId(0), AllocPolicy::LeastUtilized, 1);
        assert!(matches!(
            o.choose_replica_domains(&f, HostId(0), 4096, 3),
            Err(PoolError::Fabric(FabricError::InsufficientDomains {
                wanted: 3,
                available: 2,
            }))
        ));
        // A downed domain leaves the candidate set.
        f.topology_mut().fail_domain(cxl_fabric::DomainId(0));
        assert!(o.choose_replica_domains(&f, HostId(0), 4096, 2).is_err());
        let doms = o
            .choose_replica_domains(&f, HostId(0), 4096, 1)
            .expect("one copy still fits");
        assert_eq!(doms, vec![cxl_fabric::DomainId(1)]);
    }

    #[test]
    fn place_replicas_allocates_pinned_copies() {
        let mut f = two_domain_fabric();
        let o = Orchestrator::new(HostId(0), AllocPolicy::LocalFirst { threshold: 80 }, 1);
        let rs = o.place_replicas(&mut f, HostId(0), 8192, 2).expect("place");
        let doms = rs.domains();
        assert_eq!(doms.len(), 2);
        assert_ne!(doms[0], doms[1]);
        for r in rs.replicas() {
            let seg = f.segment(r.seg).expect("live");
            assert!(seg
                .ways()
                .iter()
                .all(|&w| f.topology().domain_of(w) == r.domain));
        }
    }

    #[test]
    fn devices_of_filters_by_kind() {
        let (_f, mut o) = orch(AllocPolicy::Random);
        o.register(DeviceId(9), DeviceKind::Ssd, HostId(0));
        assert_eq!(
            o.devices_of(DeviceKind::Nic),
            vec![DeviceId(0), DeviceId(1)]
        );
        assert_eq!(o.devices_of(DeviceKind::Ssd), vec![DeviceId(9)]);
        assert!(o.devices_of(DeviceKind::Accel).is_empty());
    }
}
