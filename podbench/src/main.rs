//! `podbench` — layer-resolved benchmark of the CXL pod simulator.
//!
//! ```text
//! podbench --workload <pool-mix|pool-mix-observed|tenant-churn>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the workload's modelled pass, times repeated passes
//! for `S` seconds and prints the end-to-end metrics; `--trace 1` makes
//! the separate traced run that prints the per-layer metrics. Both print
//! one line per metric, then the checks, then one JSON object as the
//! last line. The exit code is 0 when every check passed, 1 when a
//! modelled output was wrong (the JSON says `"correct": false`), and 2
//! on a usage or benchmark error (no JSON). See README.md.

mod calib;
mod catalog;
mod episode;
mod probes;
mod reduce;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cxl_fabric::AuditMode;
use cxl_pool_core::pod::PodSim;
use cxl_pool_core::telemetry;
use simkit::stats::Histogram;
use workgen::{Engine, WorkloadSpec};

use calib::Calib;
use catalog::Metric;
use episode::{Before, Counts, Episode};
use reduce::{
    median, pooled_quantile, quantile, ratio, tail_samples, valid_name, valid_unit, MIN_TAIL,
};
use spans::Spans;
use workloads::{build_pod, episode_seeds, Planes, Workload};

/// Pod builds timed back to back at the start of each chunk; the first
/// build after an episode runs on a cold allocator, the rest do not.
const SETUP_BATCH: usize = 5;

/// Shortest run of episodes between two calibration runs.
const CHUNK: Duration = Duration::from_millis(500);

/// Pod builds the traced run times before its passes.
const SETUP_BUILDS: usize = 20;

/// Rounds of the observability A/B runs in the traced run.
const AB_ROUNDS: usize = 3;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metric values of one run plus a note per metric (its base, sample
/// count or spread) for the printed report.
#[derive(Default)]
struct Out {
    values: BTreeMap<String, (f64, String)>,
}

impl Out {
    fn set(&mut self, name: &str, value: f64, note: String) {
        let prev = self.values.insert(name.to_string(), (value, note));
        assert!(prev.is_none(), "{name} emitted twice");
    }

    /// Emits `num / base`; a zero base is a benchmark error.
    fn ratio(&mut self, name: &str, num: f64, base: f64, base_label: &str) -> Result<(), String> {
        let v = ratio(num, base).ok_or(format!("{name}: zero base ({base_label})"))?;
        self.set(name, v, format!("= {num} / {base} {base_label}"));
        Ok(())
    }

    /// Emits the median of host-time samples, noting the count and
    /// quartiles.
    fn host_median(&mut self, name: &str, samples: &[f64], what: &str) -> Result<(), String> {
        let m = median(samples).ok_or(format!("{name}: no samples"))?;
        let q1 = quantile(samples, 0.25).expect("nonempty");
        let q3 = quantile(samples, 0.75).expect("nonempty");
        self.set(
            name,
            m,
            format!(
                "median of {} {what}; quartiles {q1:.6} .. {q3:.6}",
                samples.len()
            ),
        );
        Ok(())
    }

    /// Checks that exactly the catalog's metrics were emitted with
    /// finite values, then prints them with their unit, clock,
    /// direction and layer.
    fn finish(&self, catalog: &[Metric]) -> Result<(), String> {
        for m in catalog {
            let (v, _) = self
                .values
                .get(&m.name)
                .ok_or(format!("metric {} not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is {v}", m.name));
            }
            if !valid_name(&m.name) || !valid_unit(m.unit) {
                return Err(format!("metric {} has an illegal name or unit", m.name));
            }
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !catalog.iter().any(|m| &m.name == *k))
        {
            return Err(format!("metric {extra} is not in the catalog"));
        }
        for m in catalog {
            let (v, note) = &self.values[&m.name];
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", bound {}%", b * 100.0));
            println!(
                "  {:<34} {:>16} {:<9} [{} clock, {} is better, {}{bound}] {note}",
                m.name,
                fmt_value(*v),
                m.unit,
                m.clock.as_str(),
                m.better.as_str(),
                m.layer
            );
        }
        Ok(())
    }

    fn json(&self, catalog: &[Metric]) -> String {
        let body: Vec<String> = catalog
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, self.values[&m.name].0, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Host-time samples as measured and as scaled to the reference host
/// speed (see [`calib`]); the scaled median is the reported value.
#[derive(Default)]
struct Scaled {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

impl Scaled {
    fn push(&mut self, raw: f64, scaled: f64) {
        self.raw.push(raw);
        self.scaled.push(scaled);
    }

    /// Adds host times taken while the host needed `scale` times the
    /// reference host's time.
    fn add(&mut self, times: &[f64], scale: f64) {
        for &t in times {
            self.push(t, t / scale);
        }
    }

    fn emit(&self, out: &mut Out, name: &str, what: &str) -> Result<(), String> {
        let raw = median(&self.raw).ok_or(format!("{name}: no samples"))?;
        let what = format!("{what} at reference host speed ({raw:.6} as measured)");
        out.host_median(name, &self.scaled, &what)
    }
}

/// Failed correctness checks, plus the episodes they fell on.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
    passed: usize,
    attempted: u64,
    failed_episodes: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }

    /// Counts one episode, failed if any check failed since `mark`.
    fn episode_done(&mut self, mark: usize) {
        self.attempted += 1;
        if self.failures.len() > mark {
            self.failed_episodes += 1;
        }
    }
}

/// One episode: build the pod, run the engine (timed), read the
/// layers. Returns the episode, its pod and the run time.
fn run_episode(
    w: Workload,
    seed: u64,
    planes: Planes,
    spec: &WorkloadSpec,
) -> (Episode, PodSim, Duration) {
    let mut pod = build_pod(w, seed, planes);
    let before = Before::read(&pod);
    let t = Instant::now();
    let report = Engine::new(seed).run(&mut pod, spec);
    let run = t.elapsed();
    let snap = telemetry::snapshot(&pod);
    let ep = Episode::collect(&pod, &snap, &before, report);
    (ep, pod, run)
}

/// Checks that hold for every episode: nonzero work, accounting, and
/// a clean audit when the auditor is on.
fn check_episode(checks: &mut Checks, ep: &Episode, pod: &mut PodSim, spec: &WorkloadSpec) {
    checks.check(ep.report.ops > 0, || "episode measured no ops".into());
    for e in ep.accounting_errors(spec.measure.as_secs_f64()) {
        checks.check(false, || e);
    }
    if let Some(audit) = pod.audit_finalize() {
        let n = audit.counts.total();
        checks.check(n == 0, || format!("coherence audit found {n} violations"));
    }
}

/// Reads a `/proc/self/status` field in kB.
fn status_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(format!("no {field} in /proc/self/status"))
}

/// Pooled latency percentile `q` in µs over `summaries`, required to
/// rest on at least [`MIN_TAIL`] samples beyond it.
fn latency_us(
    out: &mut Out,
    name: &str,
    summaries: &[simkit::stats::Summary],
    q: f64,
    who: &str,
) -> Result<(), String> {
    let count: u64 = summaries.iter().map(|s| s.count).sum();
    let tail = tail_samples(count, q);
    if tail < MIN_TAIL {
        return Err(format!(
            "{name}: {count} samples leave {tail} beyond p{} (need {MIN_TAIL})",
            q * 100.0
        ));
    }
    let v = pooled_quantile(summaries, q).expect("count > 0") / 1000.0;
    out.set(
        name,
        v,
        format!(
            "p{} of {who}: {count} samples, {tail} beyond it, pooled over {} episode summaries",
            q * 100.0,
            summaries.len()
        ),
    );
    Ok(())
}

/// `--trace 0`: the modelled pass, then timed passes for `seconds`;
/// reports the end-to-end metrics.
fn end_to_end(a: &Args, out: &mut Out, checks: &mut Checks) -> Result<(), String> {
    let w = a.workload;
    let mut cal = Calib::new();
    let rss0 = status_kb("VmRSS")?;
    let planes = w.planes();

    // The modelled pass, untimed: every sim-clock metric comes from it.
    let spec = w.spec();
    let seeds = episode_seeds(a.seed, w.episodes());
    let reference: Option<(Workload, Vec<String>)> = w.same_outputs_as().map(|r| {
        let prints = seeds
            .iter()
            .map(|&s| {
                let mark = checks.failures.len();
                let (ep, _, _) = run_episode(r, s, r.planes(), &spec);
                checks.episode_done(mark);
                ep.fingerprint
            })
            .collect();
        (r, prints)
    });
    let mut pass: Vec<Episode> = Vec::with_capacity(seeds.len());
    for (k, &s) in seeds.iter().enumerate() {
        let mark = checks.failures.len();
        let (ep, mut pod, _) = run_episode(w, s, planes, &spec);
        check_episode(checks, &ep, &mut pod, &spec);
        if let Some((r, prints)) = &reference {
            checks.check(ep.fingerprint == prints[k], || {
                format!("episode {k}: modelled outputs differ from {}", r.name())
            });
        }
        pass.push(ep);
        checks.episode_done(mark);
    }

    // Timed passes over the timing episodes: at least two, whole passes
    // only, more while the budget lasts. Each rerun must reproduce the
    // episode's first run. They run in chunks: a calibration run, a
    // batch of back-to-back pod builds, episodes for at least CHUNK,
    // and a second calibration run that closes the chunk.
    let tspec = w.timing_spec();
    let tseeds = episode_seeds(a.seed, w.timing_episodes());
    let n = tseeds.len();
    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let more = |i: usize| i < 2 * n || start.elapsed() < budget || !i.is_multiple_of(n);
    let mut first: Vec<String> = Vec::with_capacity(n);
    let mut setup_s = Scaled::default();
    // Per pass: (host s as measured, host s scaled, measured ops, sim ms).
    let mut passes: Vec<[f64; 4]> = Vec::new();
    let mut i = 0;
    while more(i) {
        let cal_before = cal.run();
        let chunk_start = Instant::now();
        let mut builds = Vec::new();
        for _ in 0..SETUP_BATCH {
            let t = Instant::now();
            let pod = build_pod(w, tseeds[0], planes);
            builds.push(t.elapsed().as_secs_f64());
            drop(pod);
        }
        // (pass, host s, measured ops, sim ms) per episode of the chunk.
        let mut episodes: Vec<(usize, f64, f64, f64)> = Vec::new();
        while more(i) && chunk_start.elapsed() < CHUNK {
            let k = i % n;
            let mark = checks.failures.len();
            let (ep, mut pod, run) = run_episode(w, tseeds[k], planes, &tspec);
            check_episode(checks, &ep, &mut pod, &tspec);
            drop(pod);
            let ops = ep.report.ops;
            if ops == 0 {
                return Err(format!("timing episode {k} attempted no measured ops"));
            }
            let sim_ms = ep.report.elapsed.as_secs_f64() * 1e3;
            episodes.push((i / n, run.as_secs_f64(), ops as f64, sim_ms));
            if i < n {
                first.push(ep.fingerprint);
            } else {
                checks.check(ep.fingerprint == first[k], || {
                    format!("timing episode {k}: same-seed rerun changed the modelled outputs")
                });
            }
            checks.episode_done(mark);
            i += 1;
        }
        // Host time the chunk would have taken at reference speed.
        let scale = ((cal_before + cal.run()) / 2.0) / calib::REFERENCE_NS;
        setup_s.add(&builds, scale);
        for (p, wall, ops, sim_ms) in episodes {
            if passes.len() <= p {
                passes.push([0.0; 4]);
            }
            let acc = &mut passes[p];
            acc[0] += wall;
            acc[1] += wall / scale;
            acc[2] += ops;
            acc[3] += sim_ms;
        }
    }
    let peak_kb = status_kb("VmHWM")?;

    let mut wall_us_per_op = Scaled::default();
    let mut sim_ms_per_wall_s = Scaled::default();
    for &[raw_s, ref_s, ops, sim_ms] in &passes {
        wall_us_per_op.push(raw_s * 1e6 / ops, ref_s * 1e6 / ops);
        sim_ms_per_wall_s.push(sim_ms / raw_s, sim_ms / ref_s);
    }
    wall_us_per_op.emit(out, "wall_us_per_op", "passes")?;
    sim_ms_per_wall_s.emit(out, "sim_ms_per_wall_s", "passes")?;
    setup_s.emit(out, "setup_s", "pod builds")?;
    out.set(
        "peak_rss_mb",
        peak_kb.saturating_sub(rss0) as f64 / 1024.0,
        format!("VmHWM {peak_kb} kB less VmRSS {rss0} kB at start"),
    );
    let lat_tenant = [w.latency_tenant()];
    let lat: Vec<_> = pass
        .iter()
        .flat_map(|e| e.tenant_latency(&lat_tenant))
        .collect();
    latency_us(out, "lat_p50_us", &lat, 0.50, w.latency_tenant())?;
    latency_us(out, "lat_p99_us", &lat, 0.99, w.latency_tenant())?;
    let ssd: Vec<_> = pass
        .iter()
        .flat_map(|e| e.tenant_latency(w.ssd_tenants()))
        .collect();
    latency_us(out, "ssd_p99_us", &ssd, 0.99, &w.ssd_tenants().join("+"))?;
    Ok(())
}

/// `--trace 1`: the traced run that splits work and time by layer.
fn per_layer(a: &Args, out: &mut Out, checks: &mut Checks, sp: &mut Spans) -> Result<(), String> {
    let w = a.workload;
    let spec = w.spec();
    let planes = w.planes();
    let seeds = episode_seeds(a.seed, w.episodes());
    sp.enter("podbench.run");

    sp.enter("setup");
    for _ in 0..SETUP_BUILDS {
        sp.time("PodSim::new", || build_pod(w, seeds[0], planes));
    }
    sp.exit();

    // Untraced pass: the workload as `--trace 0` runs it.
    sp.enter("pass.untraced");
    let mut untraced: Vec<Episode> = Vec::new();
    let mut untraced_ns = 0;
    for &s in &seeds {
        let mark = checks.failures.len();
        let mut pod = sp.time("PodSim::new", || build_pod(w, s, planes)).0;
        let before = Before::read(&pod);
        let (report, ns) = sp.time("Engine::run", || Engine::new(s).run(&mut pod, &spec));
        untraced_ns += ns;
        let snap = telemetry::snapshot(&pod);
        let ep = Episode::collect(&pod, &snap, &before, report);
        check_episode(checks, &ep, &mut pod, &spec);
        untraced.push(ep);
        checks.episode_done(mark);
    }
    sp.exit();

    // Traced pass: the same episodes with the flight recorder on.
    sp.enter("pass.traced");
    let traced_planes = Planes {
        trace: true,
        ..planes
    };
    let mut traced_ns = 0;
    let mut stages: BTreeMap<(&str, &str), Histogram> = BTreeMap::new();
    let (mut snapshot_ms, mut finalize_ms, mut trace_ms, mut metrics_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut events, mut trace_dropped, mut metrics_dropped) = (0u64, 0u64, 0u64);
    let (mut ops_audited, mut violations) = (0u64, 0u64);
    for (k, &s) in seeds.iter().enumerate() {
        let mark = checks.failures.len();
        let mut pod = sp.time("PodSim::new", || build_pod(w, s, traced_planes)).0;
        let before = Before::read(&pod);
        let (report, ns) = sp.time("Engine::run", || Engine::new(s).run(&mut pod, &spec));
        traced_ns += ns;
        let (snap, ns) = sp.time("telemetry::snapshot", || telemetry::snapshot(&pod));
        snapshot_ms.push(ns as f64 / 1e6);
        let ep = Episode::collect(&pod, &snap, &before, report);
        checks.check(ep.fingerprint == untraced[k].fingerprint, || {
            format!("episode {k}: flight recorder changed the modelled outputs")
        });
        let (audit, ns) = sp.time("audit_finalize", || pod.audit_finalize());
        finalize_ms.push(ns as f64 / 1e6);
        if let Some(r) = audit {
            ops_audited += r.ops_audited;
            violations += r.counts.total();
            checks.check(r.counts.total() == 0, || {
                format!(
                    "episode {k}: coherence audit found {} violations",
                    r.counts.total()
                )
            });
        }
        let (json, ns) = sp.time("export_trace", || pod.export_trace());
        trace_ms.push(ns as f64 / 1e6);
        checks.check(json.is_some_and(|j| j.len() > 2), || {
            format!("episode {k}: empty trace export")
        });
        let (_, ns) = sp.time("export_metrics_json", || pod.export_metrics_json());
        metrics_ms.push(ns as f64 / 1e6);
        let tr = pod.trace().expect("recorder on");
        events += tr.event_count() as u64 + tr.dropped();
        trace_dropped += tr.dropped();
        metrics_dropped += snap.metrics_dropped;
        for (stage, code, _) in tr.stage_summaries() {
            if let Some(h) = tr.stage_histogram(stage, code) {
                let key = (stage, simkit::trace::kind_name(code));
                stages.entry(key).or_default().merge(h);
            }
        }
        checks.episode_done(mark);
    }
    sp.exit();

    // Observability A/B: each plane alone over the bare datapath, on a
    // prefix of the pass, in interleaved rounds.
    sp.enter("ab");
    let variants: [(&'static str, Planes); 4] = [
        ("ab.bare", Planes::BARE),
        (
            "ab.audit_version",
            Planes {
                audit: Some(AuditMode::Version),
                ..Planes::BARE
            },
        ),
        (
            "ab.audit_vc",
            Planes {
                audit: Some(AuditMode::VectorClock),
                ..Planes::BARE
            },
        ),
        (
            "ab.metrics",
            Planes {
                metrics: true,
                ..Planes::BARE
            },
        ),
    ];
    let ab_spec = w.timing_spec();
    let mut ab_ns: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut ab_bare: Vec<String> = Vec::new();
    for _ in 0..AB_ROUNDS {
        for (vi, &(name, vplanes)) in variants.iter().enumerate() {
            sp.enter(name);
            let mut round_ns = 0;
            for (k, &s) in seeds.iter().take(w.ab_episodes()).enumerate() {
                let mark = checks.failures.len();
                let mut pod = sp.time("PodSim::new", || build_pod(w, s, vplanes)).0;
                let before = Before::read(&pod);
                let (report, ns) =
                    sp.time("Engine::run", || Engine::new(s).run(&mut pod, &ab_spec));
                round_ns += ns;
                let snap = telemetry::snapshot(&pod);
                let ep = Episode::collect(&pod, &snap, &before, report);
                check_episode(checks, &ep, &mut pod, &ab_spec);
                if ab_bare.len() <= k {
                    ab_bare.push(ep.fingerprint);
                } else {
                    checks.check(ep.fingerprint == ab_bare[k], || {
                        format!("A/B episode {k}: {name} changed the modelled outputs")
                    });
                }
                checks.episode_done(mark);
            }
            ab_ns[vi].push(round_ns as f64);
            sp.exit();
        }
    }
    sp.exit();
    let ab_median = |vi: usize| median(&ab_ns[vi]).expect("AB_ROUNDS > 0");
    let ab_base = format!(
        "ab.bare over {} episode(s), median of {AB_ROUNDS} rounds",
        w.ab_episodes()
    );

    sp.enter("probes");
    let mut probe_results = Vec::new();
    for (name, probe) in probes::all() {
        let mut pod = PodSim::new(w.pod_params(seeds[0]));
        sp.enter(name);
        probe_results.push(probe(&mut pod));
        sp.exit();
    }
    sp.exit();
    sp.exit();

    // Reductions over the untraced pass.
    let mut c = Counts::default();
    let mut blackout = Histogram::new();
    let (mut ops, mut errors, mut sim_us) = (0u64, 0u64, 0.0);
    for ep in &untraced {
        c.add(&ep.counts);
        blackout.merge(&ep.blackout);
        ops += ep.report.ops;
        errors += ep.report.errors;
        sim_us += ep.report.elapsed.as_secs_f64() * 1e6;
    }
    if ops == 0 {
        return Err("the pass attempted no measured ops".into());
    }
    let ops_f = ops as f64;
    let per_op = "measured ops";
    let msgs = c.msgs as f64;
    let f = c.fabric;

    out.ratio("op_error_frac", errors as f64, ops_f, per_op)?;
    out.set(
        "workgen.ops",
        ops_f,
        format!("measured ops over {} episodes", untraced.len()),
    );
    out.set(
        "workgen.errors",
        errors as f64,
        "failed or timed-out measured ops".into(),
    );
    out.set(
        "workgen.run_s",
        untraced_ns as f64 / 1e9,
        "host s inside Engine::run over the untraced pass".into(),
    );
    out.ratio("core.served_per_op", c.served as f64, ops_f, per_op)?;
    out.set(
        "core.assigns",
        c.assigns as f64,
        "assignment updates applied".into(),
    );
    out.set("core.failovers", c.failovers as f64, String::new());
    out.set("core.migrations", c.migrations as f64, String::new());
    out.set(
        "core.tenant_migrations",
        c.tenant_migrations as f64,
        String::new(),
    );
    out.set(
        "core.blackout_p99_us",
        blackout.quantile(0.99) as f64 / 1000.0,
        format!(
            "p99 of {} migration windows (0 when none)",
            blackout.count()
        ),
    );
    out.host_median(
        "core.snapshot_ms",
        &snapshot_ms,
        "telemetry::snapshot calls",
    )?;
    out.ratio("shmem.msgs_per_op", msgs, ops_f, per_op)?;
    out.ratio(
        "shmem.blocked_per_msg",
        c.blocked as f64,
        msgs,
        "channel messages",
    )?;
    out.ratio(
        "shmem.stall_ns_per_msg",
        c.stall_ns as f64,
        msgs,
        "channel messages",
    )?;
    out.ratio(
        "shmem.loads_per_msg",
        f.loads as f64,
        msgs,
        "channel messages",
    )?;
    out.ratio("cxl_fabric.loads_per_op", f.loads as f64, ops_f, per_op)?;
    out.ratio(
        "cxl_fabric.loads_per_sim_us",
        f.loads as f64,
        sim_us,
        "simulated us",
    )?;
    out.ratio(
        "cxl_fabric.nt_stores_per_op",
        f.nt_stores as f64,
        ops_f,
        per_op,
    )?;
    out.ratio("cxl_fabric.stores_per_op", f.stores as f64, ops_f, per_op)?;
    out.ratio("cxl_fabric.flushes_per_op", f.flushes as f64, ops_f, per_op)?;
    out.ratio("cxl_fabric.dma_per_op", f.dma as f64, ops_f, per_op)?;
    out.ratio("cxl_fabric.bytes_per_op", f.bytes as f64, ops_f, per_op)?;
    out.ratio(
        "cxl_fabric.invalidations_per_op",
        c.invalidations as f64,
        ops_f,
        per_op,
    )?;
    out.ratio(
        "cxl_fabric.cache_hit_ratio",
        c.cache_hits as f64,
        (c.cache_hits + c.cache_misses) as f64,
        "cache lookups",
    )?;
    out.ratio(
        "audit.ops_audited_per_op",
        ops_audited as f64,
        ops_f,
        per_op,
    )?;
    out.set("audit.violations", violations as f64, "traced pass".into());
    out.host_median("audit.finalize_ms", &finalize_ms, "audit_finalize calls")?;
    out.ratio(
        "audit.version_overhead",
        ab_median(1),
        ab_median(0),
        &ab_base,
    )?;
    out.ratio("audit.vc_overhead", ab_median(2), ab_median(0), &ab_base)?;
    out.ratio("pcie_sim.dev_ops_per_op", c.dev_ops as f64, ops_f, per_op)?;
    out.ratio(
        "pcie_sim.dev_bytes_per_op",
        c.dev_bytes as f64,
        ops_f,
        per_op,
    )?;
    out.ratio("trace.events_per_op", events as f64, ops_f, per_op)?;
    out.set(
        "trace.dropped",
        trace_dropped as f64,
        format!("capacity {} per episode", workloads::TRACE_CAPACITY),
    );
    out.ratio(
        "trace.overhead",
        traced_ns as f64,
        untraced_ns as f64,
        "host ns in Engine::run, untraced pass",
    )?;
    out.host_median("trace.export_ms", &trace_ms, "export_trace calls")?;
    out.set(
        "metrics.dropped",
        metrics_dropped as f64,
        "traced pass".into(),
    );
    out.ratio("metrics.overhead", ab_median(3), ab_median(0), &ab_base)?;
    out.host_median(
        "metrics.export_ms",
        &metrics_ms,
        "export_metrics_json calls",
    )?;
    for p in probe_results {
        out.set(
            p.metric,
            p.median,
            format!(
                "probe: median of {} rounds x {} calls",
                probes::ROUNDS,
                p.iters
            ),
        );
    }
    for (stage, kind) in stages.keys() {
        if !catalog::STAGES.contains(&(stage, kind)) {
            println!("note: stage {stage} [{kind}] is recorded but has no metric");
        }
    }
    for &(stage, kind) in catalog::STAGES {
        let (v, n) = stages
            .get(&(stage, kind))
            .map_or((0, 0), |h| (h.quantile(0.5), h.count()));
        out.set(
            &catalog::stage_metric(stage, kind),
            v as f64,
            format!("p50 of {n} {stage} [{kind}] spans (0 when the stage does not occur)"),
        );
    }
    Ok(())
}

/// Prints each span name's count, total and self time, and writes the
/// spans to `out/` beside this package.
fn write_spans(sp: &Spans, a: &Args) -> Result<(), String> {
    println!("host time by span (self = total minus child spans):");
    println!(
        "  {:<24} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in sp.self_times() {
        println!(
            "  {:<24} {:>7} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{}.json", a.workload.name(), a.seed);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, sp.to_json()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("spans: {} written to {path}", sp.spans().len());
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "podbench: {e}\nusage: podbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let catalog = if a.trace {
        catalog::per_layer()
    } else {
        catalog::end_to_end()
    };
    println!(
        "podbench {} seed {} ({} run)",
        a.workload.name(),
        a.seed,
        if a.trace {
            "traced, per-layer"
        } else {
            "untraced, end-to-end"
        }
    );
    let mut out = Out::default();
    let mut checks = Checks::default();
    let mut spans = a
        .trace
        .then(|| Spans::new(format!("{}-seed{}", a.workload.name(), a.seed)));
    let result = match &mut spans {
        Some(sp) => per_layer(&a, &mut out, &mut checks, sp),
        None => end_to_end(&a, &mut out, &mut checks),
    };
    let result = result
        .and_then(|()| out.finish(&catalog))
        .and_then(|()| spans.as_ref().map_or(Ok(()), |sp| write_spans(sp, &a)));
    if let Err(e) = result {
        eprintln!("podbench: benchmark error: {e}");
        return ExitCode::from(2);
    }
    println!(
        "checks: {} passed, {} failed over {} episodes",
        checks.passed,
        checks.failures.len(),
        checks.attempted
    );
    for f in &checks.failures {
        println!("  FAILED: {f}");
    }
    let correct = checks.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted,
        checks.failed_episodes,
        out.json(&catalog)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::stats::Histogram;

    fn summary_of(n: u64) -> simkit::stats::Summary {
        let mut h = Histogram::new();
        for v in 1..=n {
            h.record(v * 100);
        }
        h.summary()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut out = Out::default();
        let thin = latency_us(&mut out, "lat_p99_us", &[summary_of(999)], 0.99, "t");
        assert!(thin.is_err());
        latency_us(&mut out, "lat_p99_us", &[summary_of(1000)], 0.99, "t").expect("1000 suffice");
        let (v, note) = &out.values["lat_p99_us"];
        assert_eq!(*v, summary_of(1000).p99 as f64 / 1000.0);
        assert!(note.contains("1000 samples, 10 beyond it"), "{note}");
    }

    #[test]
    fn zero_base_is_a_benchmark_error() {
        let mut out = Out::default();
        assert!(out
            .ratio("shmem.blocked_per_msg", 0.0, 0.0, "messages")
            .is_err());
        out.ratio("cxl_fabric.loads_per_op", 300.0, 3.0, "ops")
            .expect("nonzero base");
        let (v, note) = &out.values["cxl_fabric.loads_per_op"];
        assert_eq!(*v, 100.0);
        assert!(note.contains("/ 3 ops"), "{note}");
    }

    #[test]
    fn emitted_names_must_be_exactly_the_catalog() {
        let catalog = catalog::end_to_end();
        let mut out = Out::default();
        for m in &catalog[1..] {
            out.set(&m.name, 1.0, String::new());
        }
        assert!(
            out.finish(&catalog).is_err(),
            "a missing metric is an error"
        );
        out.set(&catalog[0].name, 1.0, String::new());
        assert!(out.finish(&catalog).is_ok());
        out.set("not.in.catalog", 1.0, String::new());
        assert!(out.finish(&catalog).is_err(), "an extra metric is an error");
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload tenant-churn --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::TenantChurn, 7, 3.0, true)
        );
        assert_eq!(parse("--workload pool-mix").expect("defaults").seed, 42);
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload pool-mix --trace 2").is_err());
        assert!(parse("--workload pool-mix --seconds 0").is_err());
        assert!(parse("--workload nope").is_err());
    }
}
