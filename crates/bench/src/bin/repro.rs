//! Regenerates every figure and table of the paper.
//!
//! ```text
//! repro [--full] [--json PATH] [experiment…]
//!
//! experiments: fig2 sqrtn fig3 fig4 microbench orchestrator baselines
//!              extensions   (default: all)
//! ```
//!
//! `--json PATH` additionally writes every table as CSV-in-JSON for
//! downstream plotting. An unknown experiment or flag, or `--json`
//! without a path, prints this usage and exits with status 2.

use std::env;
use std::process::ExitCode;

use bench::{baselines, extensions, fig2, fig3, fig4, microbench, orchestrator, sqrtn, Scale};
use simkit::stats::Summary;
use simkit::table::Table;

const USAGE: &str = "\
usage: repro [--full] [--json PATH] [experiment…]

experiments: fig2 sqrtn fig3 fig4 microbench orchestrator baselines
             extensions   (default: all)";

/// Every experiment name `repro` accepts.
const EXPERIMENTS: &[&str] = &[
    "fig2",
    "sqrtn",
    "fig3",
    "fig4",
    "microbench",
    "orchestrator",
    "baselines",
    "extensions",
];

/// One parsed `repro` invocation.
#[derive(Debug, PartialEq)]
struct Args {
    scale: Scale,
    json_path: Option<String>,
    /// Requested experiments; empty means all of them.
    wanted: Vec<String>,
}

/// Parses the command line (program name already stripped). The error
/// names the offending argument.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        scale: Scale::Quick,
        json_path: None,
        wanted: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => parsed.scale = Scale::Full,
            "--json" => match it.next() {
                Some(path) if !path.starts_with("--") => parsed.json_path = Some(path.clone()),
                _ => return Err("--json needs a path".to_string()),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name if EXPERIMENTS.contains(&name) => parsed.wanted.push(name.to_string()),
            name => return Err(format!("unknown experiment {name}")),
        }
    }
    Ok(parsed)
}

struct Emitter {
    json: Vec<(String, serde_json::Value)>,
}

impl Emitter {
    fn emit(&mut self, title: &str, table: Table) {
        println!("\n=== {title} ===\n");
        println!("{}", table.render());
        self.json
            .push((title.to_string(), serde_json::Value::String(table.to_csv())));
    }

    /// Adds a JSON-only entry (no table rendering) for structured data
    /// like histogram summaries.
    fn emit_json(&mut self, title: &str, value: serde_json::Value) {
        self.json.push((title.to_string(), value));
    }
}

/// Compact, layout-stable serialization of a latency distribution:
/// fixed quantiles instead of raw buckets (those stay behind
/// `Histogram::bucket_counts`).
fn summary_json(s: &Summary) -> serde_json::Value {
    serde_json::Value::Object(vec![
        ("count".into(), serde_json::Value::Number(s.count as f64)),
        ("mean".into(), serde_json::Value::Number(s.mean)),
        ("min".into(), serde_json::Value::Number(s.min as f64)),
        ("p10".into(), serde_json::Value::Number(s.p10 as f64)),
        ("p50".into(), serde_json::Value::Number(s.p50 as f64)),
        ("p90".into(), serde_json::Value::Number(s.p90 as f64)),
        ("p99".into(), serde_json::Value::Number(s.p99 as f64)),
        ("p999".into(), serde_json::Value::Number(s.p999 as f64)),
        ("max".into(), serde_json::Value::Number(s.max as f64)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    // `bench workload …` is its own harness (see bench::workload).
    if args.first().map(String::as_str) == Some("workload") {
        return bench::workload::run_cli(&args[1..]);
    }
    let Args {
        scale,
        json_path,
        wanted,
    } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("repro: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let all = wanted.is_empty();
    let want = |name: &str| all || wanted.iter().any(|w| w == name);
    let mut out = Emitter { json: Vec::new() };

    if want("fig2") {
        out.emit(
            "Figure 2: stranded resources (unpooled fleet)",
            fig2::run(scale),
        );
        out.emit(
            "Figure 2 companion: churning fleet, time-averaged stranding",
            fig2::run_churn(scale),
        );
    }
    if want("sqrtn") {
        out.emit(
            "Section 2.1: pooling over N hosts (provisioning simulation)",
            sqrtn::run(scale),
        );
        out.emit(
            "Section 2.1: Erlang-C square-root staffing (analytic)",
            sqrtn::run_erlang(),
        );
        out.emit(
            "Section 2.1 ablation: correlated demand blunts pooling",
            sqrtn::run_correlation(scale),
        );
    }
    if want("fig3") {
        out.emit(
            "Figure 3: UDP latency-throughput, CXL vs local buffers",
            fig3::run(scale),
        );
        out.emit(
            "Figure 3 (saturation): throughput ceiling per placement",
            fig3::run_saturation(scale),
        );
        out.emit(
            "Figure 3 ablation: zero-copy vs copying stack",
            fig3::run_copy_ablation(scale),
        );
        out.emit(
            "Figure 1 scenario: serving through a pooled (remote) NIC",
            fig3::run_remote_nic(scale),
        );
    }
    if want("fig4") {
        let (table, summary) = fig4::run_with_summary(scale);
        out.emit("Figure 4: CXL shared-memory message-passing latency", table);
        out.emit_json("Figure 4 summary (latency ns)", summary_json(&summary));
        out.emit("Figure 4 ablation: link width", fig4::run_ablation(scale));
        out.emit(
            "Figure 4 ablation: pool under background load",
            fig4::run_contention(scale),
        );
    }
    if want("microbench") {
        out.emit(
            "Section 3 calibration: idle latencies",
            microbench::run_latency(),
        );
        out.emit(
            "Section 3 calibration: link + interleave bandwidth",
            microbench::run_bandwidth(scale),
        );
        out.emit(
            "Section 3: loaded latency on one x8 link",
            microbench::run_loaded_latency(scale),
        );
    }
    if want("orchestrator") {
        out.emit(
            "Section 4.2: local vs MMIO-forwarded submission",
            orchestrator::run_forwarding(scale),
        );
        out.emit(
            "Section 4.2: NIC failover latency",
            orchestrator::run_failover(scale),
        );
        out.emit(
            "Section 4.2: allocation policies",
            orchestrator::run_policies(scale),
        );
        out.emit("Section 4.2: load balancing", orchestrator::run_balancing());
        out.emit(
            "Section 4.2 ablation: doorbell batching on the forwarded path",
            orchestrator::run_batching(scale),
        );
        out.emit(
            "Section 4.2: dynamic load balancing vs static assignment",
            orchestrator::run_dynamic_balance(scale),
        );
        out.emit(
            "Section 4.1 ablation: descriptor-ring placement",
            orchestrator::run_desc_placement(scale),
        );
        out.emit(
            "Section 4.2: fair sharing of one NIC across hosts",
            orchestrator::run_sharing(scale),
        );
    }
    if want("baselines") {
        out.emit(
            "Section 1: storage access paths (local vs CXL-pooled vs RDMA)",
            baselines::run_storage_paths(scale),
        );
        out.emit(
            "Section 1: rack-level TCO (PCIe switch vs CXL pod)",
            baselines::run_tco(),
        );
    }
    if want("extensions") {
        out.emit(
            "Section 5: ToR-less rack availability",
            extensions::run_torless(scale),
        );
        out.emit(
            "Section 5: accelerator disaggregation",
            extensions::run_accelpool(scale),
        );
        out.emit(
            "Section 5: storage striping across pooled SSDs",
            extensions::run_striping(scale),
        );
        out.emit(
            "Section 5: connection-migration blackout",
            extensions::run_migration(scale),
        );
        out.emit(
            "Section 1: device harvesting (burst across all pool NICs)",
            extensions::run_harvest(scale),
        );
        out.emit(
            "Section 5: MHD failure and software pool recovery",
            extensions::run_pool_recovery(scale),
        );
        out.emit(
            "Section 5: pooled-SSD IOPS vs queue depth",
            extensions::run_ssd_qd(scale),
        );
    }

    if let Some(path) = json_path {
        let obj = serde_json::Value::Object(out.json);
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&obj).expect("serialize"),
        )
        .expect("write json");
        println!("\nresults written to {path}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn valid_invocation_parses() {
        assert_eq!(
            parse(&["--json", "out.json", "fig2", "--full", "fig3"]),
            Ok(Args {
                scale: Scale::Full,
                json_path: Some("out.json".to_string()),
                wanted: vec!["fig2".to_string(), "fig3".to_string()],
            })
        );
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        assert_eq!(parse(&["fig9"]), Err("unknown experiment fig9".to_string()));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert_eq!(
            parse(&["--jsno", "out.json", "fig9"]),
            Err("unknown flag --jsno".to_string())
        );
    }

    #[test]
    fn json_without_path_is_rejected() {
        assert_eq!(
            parse(&["fig2", "--json"]),
            Err("--json needs a path".to_string())
        );
        assert_eq!(
            parse(&["--json", "--full"]),
            Err("--json needs a path".to_string())
        );
    }
}
