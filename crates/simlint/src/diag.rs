//! Diagnostics: rule metadata, findings, and text/JSON rendering.

use std::fmt::Write as _;

/// Static description of one rule: id, one-line policy, and the
/// historical bug that motivated it (printed with every finding so the
/// diagnostic teaches, not just scolds).
pub struct RuleMeta {
    /// Stable kebab-case id, used in `allow(...)` directives.
    pub id: &'static str,
    /// What the rule forbids.
    pub summary: &'static str,
    /// The motivating-bug one-liner.
    pub motivation: &'static str,
}

/// Every rule simlint knows, in catalog order. `docs/LINTS.md` is the
/// long-form version of this table.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        id: "hash-iter",
        summary: "iteration over HashMap/HashSet in simulation code; use BTreeMap/BTreeSet or sort first",
        motivation: "PR 4: Segment::spread iterated a HashMap and leaked iteration order into simulated time",
    },
    RuleMeta {
        id: "wall-clock",
        summary: "wall-clock or OS entropy in simulation code (Instant::now, SystemTime, thread spawn, thread_rng, std::env)",
        motivation: "the simulation must be a pure function of its seed; host time/entropy breaks bit-identical --check replays",
    },
    RuleMeta {
        id: "float-accum",
        summary: "f32/f64 accumulation inside a loop over an unordered container",
        motivation: "float addition is not associative: unordered iteration makes sums drift between runs",
    },
    RuleMeta {
        id: "span-pair",
        summary: "unbalanced trace-span context calls (push_ctx/pop_ctx, trace_push/trace_pop) in one function body",
        motivation: "a leaked trace context attributes every later event to the wrong op (flight-recorder discipline, PR 3)",
    },
    RuleMeta {
        id: "flush-before-publish",
        summary: "a shared-segment `store` can reach a doorbell/ring publish without `flush`/`mark_sync_range` on some path",
        motivation: "the write->flush->publish discipline is the whole coherence model; the vc auditor only catches the paths a seed executes",
    },
    RuleMeta {
        id: "unwrap-in-datapath",
        summary: "unwrap/expect/panic!/computed-range indexing in hot-path datapath code; propagate the error instead",
        motivation: "fault injection (MHD outage, domain loss) must surface as Err values the orchestrator recovers from, not simulator aborts",
    },
    RuleMeta {
        id: "sim-time-arith",
        summary: "raw u64 nanosecond arithmetic (`Nanos(a - b)`, `.as_nanos() +`) that wraps silently in release builds",
        motivation: "an out-of-order instant subtraction underflows to ~584 years and the scheduler will happily sleep for it",
    },
    RuleMeta {
        id: "bad-suppression",
        summary: "malformed simlint suppression: unknown rule id or missing `-- reason`",
        motivation: "a suppression without a reason is a policy hole nobody can review",
    },
    RuleMeta {
        id: "unused-suppression",
        summary: "a well-formed `allow` directive that no longer suppresses any finding",
        motivation: "stale suppressions read as exemptions for code that stopped needing one; delete them so the policy stays reviewable",
    },
    RuleMeta {
        id: "wall-clock-allowlist",
        summary: "the per-file count of sanctioned `allow(wall-clock)` sites has drifted from the audited allowlist",
        motivation: "each sanctioned wall-clock site was reviewed once; new ones must be added to the allowlist deliberately, not ride in on an existing file's exemption",
    },
];

/// Looks up a rule id in the catalog.
pub fn rule_meta(id: &str) -> Option<&'static RuleMeta> {
    RULES.iter().find(|r| r.id == id)
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Rule id (an entry in [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Site-specific message (what was found, which symbol).
    pub msg: String,
}

impl Diagnostic {
    /// Renders `path:line:col: rule: msg (motivation)`.
    pub fn render(&self) -> String {
        let motivation = rule_meta(self.rule).map_or("", |m| m.motivation);
        format!(
            "{}:{}:{}: {}: {} [{}]",
            self.path, self.line, self.col, self.rule, self.msg, motivation
        )
    }
}

/// Full run outcome: findings that survived suppression, plus counts
/// for the report footer.
pub struct Report {
    /// Unsuppressed findings, sorted by (path, line, col, rule).
    pub findings: Vec<Diagnostic>,
    /// Findings silenced by a reasoned `allow` directive.
    pub suppressed: usize,
    /// Files analyzed.
    pub files: usize,
}

impl Report {
    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            let _ = writeln!(out, "{}", d.render());
        }
        let _ = writeln!(
            out,
            "simlint: {} finding(s), {} suppressed, {} file(s) checked",
            self.findings.len(),
            self.suppressed,
            self.files
        );
        out
    }

    /// JSON report (schema v1): stable field order, findings sorted.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"simlint-v1\",\n  \"findings\": [");
        for (i, d) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"msg\": {}, \"motivation\": {}}}",
                json_str(d.rule),
                json_str(&d.path),
                d.line,
                d.col,
                json_str(&d.msg),
                json_str(rule_meta(d.rule).map_or("", |m| m.motivation)),
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "],\n  \"suppressed\": {},\n  \"files\": {}\n}}\n",
            self.suppressed, self.files
        );
        out
    }

    /// GitHub Actions problem-matcher commands: one
    /// `::warning file=…,line=…,col=…,title=…::…` line per finding, so
    /// CI annotates the offending source lines in the diff view. The
    /// human footer goes to the log as plain text.
    pub fn render_github(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            let _ = writeln!(
                out,
                "::warning file={},line={},col={},title=simlint {}::{}",
                gh_prop(&d.path),
                d.line,
                d.col,
                gh_prop(d.rule),
                gh_msg(&d.msg)
            );
        }
        let _ = writeln!(
            out,
            "simlint: {} finding(s), {} suppressed, {} file(s) checked",
            self.findings.len(),
            self.suppressed,
            self.files
        );
        out
    }
}

/// Escapes a workflow-command *message* (everything after `::`).
fn gh_msg(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a workflow-command *property* value (file, title): message
/// escapes plus the property delimiters `:` and `,`.
fn gh_prop(s: &str) -> String {
    gh_msg(s).replace(':', "%3A").replace(',', "%2C")
}

/// Minimal JSON string escaping (the vendored serde_json parses this
/// back in the CLI self-test).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
