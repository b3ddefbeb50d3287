//! `bench workload` — the pool-scale workload and capacity bench.
//!
//! Drives a six-host, two-failure-domain pod through a three-tenant
//! mix (latency-sensitive NIC traffic, bursty storage scans,
//! closed-loop accelerator offload) with the [`workgen`] engine, then
//! binary-searches the maximum total offered load that still meets
//! every tenant's SLO — once on a healthy pod and once with a whole
//! failure domain (two of the four MHDs) lost mid-run. Results go to
//! `BENCH_workload.json` (machine readable, schema documented in
//! EXPERIMENTS.md) plus a human summary on stdout.
//!
//! Everything is a pure function of `--seed`: rerunning with the same
//! seed reproduces the JSON bit for bit (`--check` verifies this, along
//! with capacity degradation under the domain loss and audit
//! cleanliness).

use std::fs;
use std::process::ExitCode;

use cxl_pool_core::pod::{PodParams, PodSim};
use cxl_pool_core::telemetry;
use serde_json::Value;
use simkit::metrics::MetricsConfig;
use simkit::stats::Summary;
use simkit::Nanos;
use workgen::{
    Arrival, CapacityConfig, CapacityResult, ChurnSpec, ChurnTenant, Engine, FaultPlan, OpKind,
    RunReport, SloSpec, TenantSpec, WorkloadSpec,
};

use crate::Scale;

/// Stable schema tag for downstream consumers (v3: tenant-churn
/// scenario with live-migration vs naive-placement A/B).
pub const SCHEMA: &str = "cxl-pool-workload-bench/v3";

/// Default output path (gitignored; CI uploads it as an artifact).
pub const DEFAULT_OUT: &str = "BENCH_workload.json";

/// Bench configuration, from the CLI.
#[derive(Clone, Debug)]
pub struct Config {
    /// Master seed; every schedule, mix pick, and policy choice
    /// derives from it.
    pub seed: u64,
    /// Quick (CI) or full (paper-scale) windows and search depth.
    pub scale: Scale,
    /// Also run the tenant-churn scenario (live migration vs naive
    /// static placement) and emit the `churn` section.
    pub churn: bool,
}

/// The pod under test: six hosts, four MHDs round-robined over two
/// failure domains (λ = 4, so every host has two redundant links into
/// *each* domain and every host pair shares an MHD for its channel),
/// NICs behind hosts 0-1, SSDs behind 0-1, one accelerator behind
/// host 2. Hosts 3-5 own no devices and reach everything through the
/// pool — the paper's "pooled pod" shape.
pub fn pod_params(seed: u64) -> PodParams {
    let mut p = PodParams::new(6, 2);
    p.mhds = 4;
    p.domains = 2;
    p.lambda = 4;
    p.ssd_hosts = vec![0, 1];
    p.accel_hosts = vec![2];
    p.ring_slots = 128;
    p.io_slots = 32;
    p.seed = seed;
    p
}

/// The base three-tenant workload. Offered rates here are the
/// *baseline* operating point; the capacity search scales them
/// together, preserving the mix.
pub fn base_spec(scale: Scale) -> WorkloadSpec {
    let tenants = vec![
        // Latency-sensitive frontend: open-loop Poisson NIC traffic
        // from the device-less hosts.
        TenantSpec {
            name: "frontend".into(),
            arrival: Arrival::Poisson { rate_pps: 30_000.0 },
            mix: vec![
                (OpKind::NicSend { bytes: 1024 }, 0.9),
                (OpKind::NicRecv { bytes: 512 }, 0.1),
            ],
            hosts: vec![3, 4, 5],
            slo: SloSpec {
                quantile: 0.90,
                limit: Nanos::from_micros(30),
                max_error_frac: 0.10,
            },
        },
        // Bursty analytics scans against the pooled SSDs (MMPP).
        TenantSpec {
            name: "analytics".into(),
            arrival: Arrival::Bursty {
                low_pps: 5_000.0,
                high_pps: 40_000.0,
                dwell_low: Nanos::from_micros(300),
                dwell_high: Nanos::from_micros(100),
            },
            mix: vec![
                (OpKind::SsdRead { blocks: 1 }, 0.7),
                (OpKind::SsdWrite { blocks: 1 }, 0.3),
            ],
            hosts: vec![2, 4],
            slo: SloSpec {
                quantile: 0.90,
                limit: Nanos::from_micros(200),
                max_error_frac: 0.10,
            },
        },
        // Closed-loop ML offload: fixed concurrency, can't overload
        // the pod by itself but competes for fabric bandwidth.
        TenantSpec {
            name: "ml".into(),
            arrival: Arrival::ClosedLoop {
                concurrency: 3,
                think: Nanos::from_micros(5),
            },
            mix: vec![(OpKind::AccelRun { bytes: 2048 }, 1.0)],
            hosts: vec![3, 5],
            slo: SloSpec {
                quantile: 0.90,
                limit: Nanos::from_micros(200),
                max_error_frac: 0.10,
            },
        },
    ];
    WorkloadSpec {
        tenants,
        warmup: scale.pick(Nanos::from_micros(300), Nanos::from_millis(1)),
        measure: scale.pick(Nanos::from_micros(2_500), Nanos::from_millis(10)),
        op_timeout: Nanos::from_micros(150),
        balance_every: Some(Nanos::from_millis(1)),
        fault: None,
        churn: None,
    }
}

/// The pod for the churn scenario: eight hosts so the lifecycle
/// tenants can issue from device-less hosts 5-6 while the resident
/// tenant keeps hosts 3-4 busy; two NICs is the contended resource the
/// orchestrator spreads churn across.
pub fn churn_pod_params(seed: u64) -> PodParams {
    let mut p = PodParams::new(8, 2);
    p.mhds = 4;
    p.domains = 2;
    p.lambda = 4;
    p.ssd_hosts = vec![0, 1];
    p.accel_hosts = vec![2];
    p.ring_slots = 128;
    p.io_slots = 32;
    p.seed = seed;
    p
}

/// The churn workload: one resident NIC tenant plus two lifecycle
/// tenants arriving/growing/shrinking/departing on the seeded diurnal
/// schedule. The churn tenants run 8-block pooled-SSD scans — each op
/// occupies every flash channel for one read latency, so a single SSD
/// sustains ~12.5k ops/s — at peak rates sized so *one* SSD carries
/// both tenants only by blowing its tail. Naive placement pins every
/// churn tenant on SSD 0 — the static choice a pod without live
/// migration is stuck with — so the A/B pair (`migrate` on/off)
/// isolates exactly the orchestrator's churn response. The
/// control-plane balance feedback is off here for the same reason.
pub fn churn_workload(scale: Scale, migrate: bool) -> WorkloadSpec {
    let churn_tenant = |name: &str, rate_pps: f64, host: u16| ChurnTenant {
        spec: TenantSpec {
            name: name.into(),
            arrival: Arrival::Poisson { rate_pps },
            mix: vec![(OpKind::SsdRead { blocks: 8 }, 1.0)],
            hosts: vec![host],
            slo: SloSpec {
                quantile: 0.99,
                limit: Nanos::from_micros(300),
                max_error_frac: 0.05,
            },
        },
        state_len: 4096,
        replicas: 1,
        naive_dev: 0,
    };
    WorkloadSpec {
        tenants: vec![TenantSpec {
            name: "steady".into(),
            arrival: Arrival::Poisson { rate_pps: 20_000.0 },
            mix: vec![(OpKind::NicSend { bytes: 512 }, 1.0)],
            hosts: vec![3, 4],
            slo: SloSpec {
                quantile: 0.99,
                limit: Nanos::from_micros(100),
                max_error_frac: 0.05,
            },
        }],
        warmup: scale.pick(Nanos::from_micros(200), Nanos::from_micros(500)),
        measure: scale.pick(Nanos::from_millis(4), Nanos::from_millis(12)),
        op_timeout: Nanos::from_micros(600),
        balance_every: None,
        fault: None,
        churn: Some(ChurnSpec {
            tenants: vec![
                churn_tenant("diurnal-a", 8_000.0, 5),
                churn_tenant("diurnal-b", 8_000.0, 6),
            ],
            migrate,
        }),
    }
}

/// The same workload with failure domain 1 (MHDs 1 and 3) lost
/// mid-measurement and software recovery shortly after.
pub fn faulted_spec(scale: Scale) -> WorkloadSpec {
    let mut spec = base_spec(scale);
    spec.fault = Some(FaultPlan::domain(
        1,
        spec.warmup + scale.pick(Nanos::from_micros(600), Nanos::from_micros(2_400)),
        scale.pick(Nanos::from_micros(100), Nanos::from_micros(400)),
    ));
    spec
}

/// Capacity-search bounds: wide enough that the knee lands strictly
/// inside at both scales.
pub fn search_config(scale: Scale) -> CapacityConfig {
    CapacityConfig {
        lo_pps: 8_000.0,
        hi_pps: 240_000.0,
        iters: scale.pick(6, 8),
    }
}

/// Runs the whole bench and returns the (deterministic) JSON document.
pub fn run(cfg: &Config) -> Value {
    let build = || PodSim::new(pod_params(cfg.seed));
    let base = base_spec(cfg.scale);
    let faulted = faulted_spec(cfg.scale);
    let engine = Engine::new(cfg.seed);

    // Baseline at the nominal operating point, with the flight
    // recorder and coherence auditor on (audit mode follows CXL_AUDIT)
    // and — when `CXL_METRICS` asks for it — the sampled metrics plane.
    let mut pod = build();
    pod.enable_audit();
    pod.enable_trace_config(simkit::trace::TraceConfig {
        capacity: 1 << 15,
        fabric_ops: false,
    });
    if MetricsConfig::env_enabled() {
        pod.enable_metrics();
    }
    let baseline = engine.run(&mut pod, &base);
    let snap = telemetry::snapshot(&pod);
    let audit = pod.audit_finalize();

    // Capacity: clean pod, then with the mid-run MHD failure.
    let search = search_config(cfg.scale);
    let clean = workgen::capacity::search(build, &base, &search, cfg.seed);
    let under_fault = workgen::capacity::search(build, &faulted, &search, cfg.seed);

    // Tenant churn A/B: the same seeded lifecycle schedule, once with
    // orchestrator live migration answering each event and once stuck
    // with the naive static placement. Audit + flight recorder ride on
    // the migrating run — the interesting datapath.
    let churn_json = if cfg.churn {
        let engine = Engine::new(cfg.seed);
        let mig_spec = churn_workload(cfg.scale, true);
        let naive_spec = churn_workload(cfg.scale, false);

        let mut mig_pod = PodSim::new(churn_pod_params(cfg.seed));
        mig_pod.enable_audit();
        mig_pod.enable_trace_config(simkit::trace::TraceConfig {
            capacity: 1 << 15,
            fabric_ops: false,
        });
        if MetricsConfig::env_enabled() {
            mig_pod.enable_metrics();
        }
        let mig = engine.run(&mut mig_pod, &mig_spec);
        let mig_snap = telemetry::snapshot(&mig_pod);
        let mig_audit = mig_pod.audit_finalize();

        let mut naive_pod = PodSim::new(churn_pod_params(cfg.seed));
        let naive = engine.run(&mut naive_pod, &naive_spec);

        Some(churn_section(
            &mig_spec,
            &mig,
            &mig_snap,
            mig_audit.as_ref(),
            &naive,
        ))
    } else {
        None
    };

    let audit_mode = format!("{:?}", cxl_fabric::AuditConfig::default().mode);
    let audit_json = match audit {
        Some(r) => obj(vec![
            ("mode", Value::String(audit_mode)),
            ("ops_audited", num(r.ops_audited as f64)),
            ("violations", num(r.counts.total() as f64)),
        ]),
        None => Value::Null,
    };
    let stages: Vec<Value> = snap
        .stages
        .iter()
        .map(|s| {
            obj(vec![
                ("stage", Value::String(s.stage.to_string())),
                ("kind", Value::String(s.kind.to_string())),
                ("latency_ns", summary_json(&s.latency)),
            ])
        })
        .collect();

    obj(vec![
        ("schema", Value::String(SCHEMA.into())),
        ("seed", num(cfg.seed as f64)),
        (
            "scale",
            Value::String(
                match cfg.scale {
                    Scale::Quick => "quick",
                    Scale::Full => "full",
                }
                .into(),
            ),
        ),
        (
            "pod",
            obj(vec![
                ("hosts", num(6.0)),
                ("mhds", num(4.0)),
                ("domains", num(2.0)),
                ("lambda", num(4.0)),
                ("nic_hosts", num(2.0)),
                ("ssd_hosts", num(2.0)),
                ("accel_hosts", num(1.0)),
            ]),
        ),
        (
            "tenants",
            Value::Array(base.tenants.iter().map(tenant_spec_json).collect()),
        ),
        ("baseline", {
            let mut fields = report_json_fields(&baseline);
            fields.push(("stages", Value::Array(stages)));
            obj(fields)
        }),
        ("audit", audit_json),
        ("capacity", capacity_json(&clean, None)),
        (
            "capacity_under_fault",
            capacity_json(&under_fault, faulted.fault.as_ref()),
        ),
        ("churn", churn_json.unwrap_or(Value::Null)),
    ])
}

/// CLI entry: `bench workload [--seed N] [--out PATH] [--full] [--churn] [--check]`.
pub fn run_cli(args: &[String]) -> ExitCode {
    let mut seed = 42u64;
    let mut out = DEFAULT_OUT.to_string();
    let mut scale = Scale::Quick;
    let mut churn = false;
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("workload: --seed needs an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(v) => out = v.clone(),
                None => {
                    eprintln!("workload: --out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--full" => scale = Scale::Full,
            "--churn" => churn = true,
            "--check" => check = true,
            other => {
                eprintln!(
                    "workload: unknown argument {other}\n\
                     usage: bench workload [--seed N] [--out PATH] [--full] [--churn] [--check]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let cfg = Config { seed, scale, churn };
    let doc = run(&cfg);
    let text = serde_json::to_string_pretty(&doc).expect("serialize");
    if let Err(e) = fs::write(&out, &text) {
        eprintln!("workload: writing {out}: {e}");
        return ExitCode::FAILURE;
    }
    print_summary(&doc, &out);

    if check {
        match self_check(&cfg, &doc, &out) {
            Ok(()) => println!("workload: self-check OK"),
            Err(e) => {
                eprintln!("workload: self-check FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Re-runs the bench and validates the emitted document `doc`, written
/// to `out`: determinism, structure, the two-domain pod shape, a
/// positive clean capacity, strict degradation under the injected
/// whole-domain outage and a clean coherence audit.
fn self_check(cfg: &Config, doc: &Value, out: &str) -> Result<(), String> {
    // The file round-trips through the parser.
    let reread = fs::read_to_string(out).map_err(|e| format!("rereading {out}: {e}"))?;
    serde_json::from_str(&reread).map_err(|e| format!("reparsing {out}: {e:?}"))?;

    // Same seed, same file, byte for byte.
    let again = serde_json::to_string_pretty(&run(cfg)).expect("serialize");
    if again != reread {
        return Err("rerun with the same seed produced a different document".into());
    }

    let field = |path: &[&str]| -> Result<&Value, String> {
        let mut v = doc;
        for key in path {
            v = v
                .get(key)
                .ok_or_else(|| format!("missing field {}", path.join(".")))?;
        }
        Ok(v)
    };
    let getf = |path: &[&str]| -> Result<f64, String> {
        field(path)?
            .as_f64()
            .ok_or_else(|| format!("{} is not a number", path.join(".")))
    };

    if field(&["schema"])?.as_str() != Some(SCHEMA) {
        return Err("schema tag mismatch".into());
    }
    let tenants = field(&["baseline", "tenants"])?
        .as_array()
        .ok_or("baseline.tenants is not an array")?;
    if tenants.len() != 3 {
        return Err(format!("expected 3 tenant reports, got {}", tenants.len()));
    }
    for t in tenants {
        for key in ["name", "latency_ns", "slo", "ops"] {
            if t.get(key).is_none() {
                return Err(format!("tenant report missing {key}"));
            }
        }
    }

    if field(&["pod", "domains"])?.as_f64() != Some(2.0) {
        return Err("pod is not the two-failure-domain shape".into());
    }
    if field(&["capacity_under_fault", "fault", "target"])?.as_str() != Some("domain") {
        return Err("fault plan is not a whole-domain outage".into());
    }
    let clean = getf(&["capacity", "capacity_pps"])?;
    let faulted = getf(&["capacity_under_fault", "capacity_pps"])?;
    if clean <= 0.0 {
        return Err(format!("clean capacity is {clean}, expected > 0"));
    }
    if faulted >= clean {
        return Err(format!(
            "capacity under single-domain loss ({faulted}) is not strictly below clean ({clean})"
        ));
    }
    let violations = getf(&["audit", "violations"])?;
    if violations != 0.0 {
        return Err(format!("coherence audit reported {violations} violations"));
    }

    // The churn section: live migration must keep every tenant's SLO
    // green where the naive static placement fails at least one, the
    // blackout histogram must be populated, and the migrating datapath
    // must be audit-clean.
    if cfg.churn {
        let getb = |path: &[&str]| -> Result<bool, String> {
            field(path)?
                .as_bool()
                .ok_or_else(|| format!("{} is not a bool", path.join(".")))
        };
        if !getb(&["churn", "migrate", "all_slos_pass"])? {
            return Err("live migration failed to keep every churn-run SLO green".into());
        }
        if getb(&["churn", "naive", "all_slos_pass"])? {
            return Err(
                "naive static placement passed every SLO — the churn scenario does not \
                 discriminate"
                    .into(),
            );
        }
        let migrations = getf(&["churn", "migrate", "tenant_migrations"])?;
        if migrations < 1.0 {
            return Err("churn run performed no tenant migrations".into());
        }
        let blackouts = getf(&["churn", "migrate", "blackout_ns", "count"])?;
        if blackouts < 1.0 {
            return Err("blackout histogram is empty despite migrations".into());
        }
        let events = field(&["churn", "events"])?
            .as_array()
            .ok_or("churn.events is not an array")?;
        if !events
            .iter()
            .any(|e| e.get("event").and_then(Value::as_str) == Some("depart"))
        {
            return Err("no tenant departed within the churn run".into());
        }
        let churn_violations = getf(&["churn", "audit", "violations"])?;
        if churn_violations != 0.0 {
            return Err(format!(
                "churn coherence audit reported {churn_violations} violations"
            ));
        }
    }
    Ok(())
}

fn print_summary(doc: &Value, out: &str) {
    let g = |path: &[&str]| -> f64 {
        let mut v = doc;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return f64::NAN,
            }
        }
        v.as_f64().unwrap_or(f64::NAN)
    };
    println!("=== workload bench ===");
    println!(
        "baseline: offered {:.0} pps, achieved {:.0} pps, {} ops, {} errors",
        g(&["baseline", "offered_pps"]),
        g(&["baseline", "achieved_pps"]),
        g(&["baseline", "ops"]),
        g(&["baseline", "errors"]),
    );
    if let Some(tenants) = doc
        .get("baseline")
        .and_then(|b| b.get("tenants"))
        .and_then(Value::as_array)
    {
        for t in tenants {
            let name = t.get("name").and_then(Value::as_str).unwrap_or("?");
            let q = t
                .get("slo")
                .and_then(|s| s.get("quantile"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            let observed = t
                .get("slo")
                .and_then(|s| s.get("observed_ns"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            let limit = t
                .get("slo")
                .and_then(|s| s.get("limit_ns"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            let pass = t
                .get("slo")
                .and_then(|s| s.get("pass"))
                .and_then(Value::as_bool)
                .unwrap_or(false);
            println!(
                "  {name:<10} p{:<4.0} {:>8.1} us (limit {:.0} us) {}",
                q * 100.0,
                observed / 1_000.0,
                limit / 1_000.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    println!(
        "capacity: {:.0} pps clean, {:.0} pps with single-domain loss mid-run",
        g(&["capacity", "capacity_pps"]),
        g(&["capacity_under_fault", "capacity_pps"]),
    );
    if doc.get("churn").and_then(Value::as_object).is_some() {
        let pass = |path: &[&str]| -> &str {
            let mut v = doc;
            for key in path {
                match v.get(key) {
                    Some(next) => v = next,
                    None => return "?",
                }
            }
            match v.as_bool() {
                Some(true) => "all SLOs PASS",
                Some(false) => "SLO FAIL",
                None => "?",
            }
        };
        let n_events = doc
            .get("churn")
            .and_then(|c| c.get("events"))
            .and_then(Value::as_array)
            .map_or(0, Vec::len);
        println!(
            "churn: {} events, {} migrations; live migration: {}, naive placement: {}",
            n_events,
            g(&["churn", "migrate", "tenant_migrations"]),
            pass(&["churn", "migrate", "all_slos_pass"]),
            pass(&["churn", "naive", "all_slos_pass"]),
        );
        println!(
            "  blackout: n={} p50={:.1} us p99={:.1} us",
            g(&["churn", "migrate", "blackout_ns", "count"]),
            g(&["churn", "migrate", "blackout_ns", "p50"]) / 1_000.0,
            g(&["churn", "migrate", "blackout_ns", "p99"]) / 1_000.0,
        );
    }
    println!("wrote {out}");
}

// --- JSON helpers -------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn summary_json(s: &Summary) -> Value {
    obj(vec![
        ("count", num(s.count as f64)),
        ("mean", num(s.mean)),
        ("min", num(s.min as f64)),
        ("p50", num(s.p50 as f64)),
        ("p90", num(s.p90 as f64)),
        ("p99", num(s.p99 as f64)),
        ("max", num(s.max as f64)),
    ])
}

fn tenant_spec_json(t: &TenantSpec) -> Value {
    let arrival = match t.arrival {
        Arrival::Poisson { rate_pps } => obj(vec![
            ("model", Value::String("poisson".into())),
            ("rate_pps", num(rate_pps)),
        ]),
        Arrival::Bursty {
            low_pps,
            high_pps,
            dwell_low,
            dwell_high,
        } => obj(vec![
            ("model", Value::String("bursty".into())),
            ("low_pps", num(low_pps)),
            ("high_pps", num(high_pps)),
            ("dwell_low_ns", num(dwell_low.as_nanos() as f64)),
            ("dwell_high_ns", num(dwell_high.as_nanos() as f64)),
        ]),
        Arrival::Diurnal {
            base_pps,
            peak_pps,
            period,
        } => obj(vec![
            ("model", Value::String("diurnal".into())),
            ("base_pps", num(base_pps)),
            ("peak_pps", num(peak_pps)),
            ("period_ns", num(period.as_nanos() as f64)),
        ]),
        Arrival::ClosedLoop { concurrency, think } => obj(vec![
            ("model", Value::String("closed_loop".into())),
            ("concurrency", num(concurrency as f64)),
            ("think_ns", num(think.as_nanos() as f64)),
        ]),
    };
    obj(vec![
        ("name", Value::String(t.name.clone())),
        ("arrival", arrival),
        (
            "mix",
            Value::Array(
                t.mix
                    .iter()
                    .map(|&(op, w)| {
                        obj(vec![
                            ("op", Value::String(op.label().into())),
                            ("weight", num(w)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "hosts",
            Value::Array(t.hosts.iter().map(|&h| num(h as f64)).collect()),
        ),
        (
            "slo",
            obj(vec![
                ("quantile", num(t.slo.quantile)),
                ("limit_ns", num(t.slo.limit.as_nanos() as f64)),
                ("max_error_frac", num(t.slo.max_error_frac)),
            ]),
        ),
    ])
}

fn report_json_fields(r: &RunReport) -> Vec<(&'static str, Value)> {
    let tenants: Vec<Value> = r
        .tenants
        .iter()
        .map(|t| {
            obj(vec![
                ("name", Value::String(t.name.clone())),
                ("offered_pps", num(t.offered_pps)),
                ("achieved_pps", num(t.achieved_pps)),
                ("ops", num(t.ops as f64)),
                ("errors", num(t.errors as f64)),
                ("peak_in_flight", num(t.peak_in_flight as f64)),
                ("latency_ns", summary_json(&t.latency)),
                (
                    "slo",
                    obj(vec![
                        ("pass", Value::Bool(t.verdict.pass)),
                        ("quantile", num(t.verdict.spec.quantile)),
                        ("observed_ns", num(t.verdict.observed.as_nanos() as f64)),
                        ("limit_ns", num(t.verdict.spec.limit.as_nanos() as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    let kinds: Vec<Value> = r
        .kinds
        .iter()
        .map(|(label, s)| {
            obj(vec![
                ("op", Value::String((*label).into())),
                ("latency_ns", summary_json(s)),
            ])
        })
        .collect();
    vec![
        ("offered_pps", num(r.offered_pps)),
        ("achieved_pps", num(r.achieved_pps)),
        ("ops", num(r.ops as f64)),
        ("errors", num(r.errors as f64)),
        ("elapsed_ns", num(r.elapsed.as_nanos() as f64)),
        ("tenants", Value::Array(tenants)),
        ("kinds", Value::Array(kinds)),
    ]
}

/// The `churn` document section: the lifecycle timeline and migration
/// accounting from the migrating run, the A/B SLO verdicts, and the
/// audit result for the migrating datapath.
fn churn_section(
    spec: &WorkloadSpec,
    mig: &RunReport,
    mig_snap: &telemetry::PodReport,
    mig_audit: Option<&cxl_fabric::AuditReport>,
    naive: &RunReport,
) -> Value {
    let churn = spec.churn.as_ref().expect("churn workload");
    let churn_tenants: Vec<Value> = churn
        .tenants
        .iter()
        .map(|ct| {
            obj(vec![
                ("spec", tenant_spec_json(&ct.spec)),
                ("state_len", num(ct.state_len as f64)),
                ("replicas", num(ct.replicas as f64)),
                ("naive_dev", num(ct.naive_dev as f64)),
            ])
        })
        .collect();
    let events: Vec<Value> = mig
        .lifecycle
        .iter()
        .map(|e| {
            obj(vec![
                ("at_ns", num(e.at.as_nanos() as f64)),
                ("tenant", Value::String(e.tenant.clone())),
                ("event", Value::String(e.event.into())),
                ("migrated", Value::Bool(e.migrated)),
                (
                    "blackout_ns",
                    e.blackout.map_or(Value::Null, |b| num(b.as_nanos() as f64)),
                ),
            ])
        })
        .collect();
    let migrate_stage = mig_snap
        .stages
        .iter()
        .find(|s| s.stage == "lifecycle/migrate")
        .map_or(Value::Null, |s| summary_json(&s.latency));
    let side = |r: &RunReport| {
        let mut fields = report_json_fields(r);
        fields.push(("all_slos_pass", Value::Bool(r.all_slos_pass())));
        fields
    };
    let mut mig_fields = side(mig);
    mig_fields.push(("tenant_migrations", num(mig_snap.tenant_migrations as f64)));
    mig_fields.push((
        "blackout_ns",
        mig_snap.blackout.as_ref().map_or(Value::Null, summary_json),
    ));
    mig_fields.push(("migrate_stage_ns", migrate_stage));
    obj(vec![
        (
            "pod",
            obj(vec![
                ("hosts", num(8.0)),
                ("mhds", num(4.0)),
                ("domains", num(2.0)),
                ("nic_hosts", num(2.0)),
            ]),
        ),
        ("churn_tenants", Value::Array(churn_tenants)),
        ("events", Value::Array(events)),
        ("migrate", obj(mig_fields)),
        ("naive", obj(side(naive))),
        (
            "audit",
            match mig_audit {
                Some(r) => obj(vec![
                    (
                        "mode",
                        Value::String(format!("{:?}", cxl_fabric::AuditConfig::default().mode)),
                    ),
                    ("ops_audited", num(r.ops_audited as f64)),
                    ("violations", num(r.counts.total() as f64)),
                ]),
                None => Value::Null,
            },
        ),
    ])
}

fn capacity_json(c: &CapacityResult, fault: Option<&FaultPlan>) -> Value {
    let trials: Vec<Value> = c
        .trials
        .iter()
        .map(|t| {
            obj(vec![
                ("offered_pps", num(t.offered_pps)),
                ("pass", Value::Bool(t.pass)),
                ("worst_tenant", Value::String(t.worst_tenant.clone())),
                ("worst_observed_ns", num(t.worst_observed.as_nanos() as f64)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("capacity_pps", num(c.capacity_pps)),
        ("trials", Value::Array(trials)),
    ];
    if let Some(f) = fault {
        let (kind, index) = match f.target {
            workgen::FaultTarget::Mhd(m) => ("mhd", m),
            workgen::FaultTarget::Domain(d) => ("domain", d),
        };
        fields.push((
            "fault",
            obj(vec![
                ("target", Value::String(kind.into())),
                (kind, num(index as f64)),
                ("at_ns", num(f.at.as_nanos() as f64)),
                ("heal_after_ns", num(f.heal_after.as_nanos() as f64)),
            ]),
        ));
    }
    if let Some(r) = &c.report_at_capacity {
        fields.push(("report_at_capacity", obj(report_json_fields(r))));
    }
    obj(fields)
}
