//! # simlint — workspace determinism & simulation-safety analyzer
//!
//! Every scale item on the roadmap rests on one invariant: **the
//! simulation is a pure function of its seed**. Two shipped bugs broke
//! it silently (a `HashMap` iteration order leaking into simulated
//! time; a pump infinite-spin found only by a flaky capacity search).
//! simlint rejects that class of bug at review time, before it costs a
//! day of bisecting bench JSON.
//!
//! The tool is self-contained: a hand-rolled lexer ([`lexer`]) that
//! handles comments, raw strings, char literals, and attributes
//! exactly, a recursive-descent statement parser ([`parser`]) feeding
//! per-function control-flow graphs ([`cfg`](mod@cfg)) and an
//! ordered-effects dataflow engine ([`dataflow`]) for the flow-aware rules
//! (flush-before-publish, span-pair), a per-file rule catalog
//! ([`rules`]), and a directory walker — no `cargo metadata`, no
//! external dependencies, so it runs in the offline build environment.
//!
//! The rule catalog and suppression syntax are documented in
//! `docs/LINTS.md`. Findings are suppressed inline with
//! `// simlint: allow(rule-id) -- reason` (the reason is mandatory).

#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use diag::{rule_meta, Diagnostic, Report};
use source::FileCtx;

/// Directories never descended into during workspace discovery.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".github", "node_modules"];

/// Discovers every `.rs` file under `root`, skipping build output and
/// vendored stand-ins. Results are sorted so runs are deterministic —
/// simlint holds itself to its own rules.
pub fn discover(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints one file's source, applying suppressions. Returns
/// (surviving findings, suppressed count).
pub fn lint_source(rel_path: &str, src: String) -> (Vec<Diagnostic>, usize) {
    let ctx = FileCtx::new(rel_path, src);
    let mut raw = Vec::new();
    rules::check_file(&ctx, &mut raw);
    apply_suppressions(&ctx, raw)
}

/// Applies the file's `allow` directives to raw findings and emits
/// `bad-suppression` findings for malformed directives.
fn apply_suppressions(ctx: &FileCtx, raw: Vec<Diagnostic>) -> (Vec<Diagnostic>, usize) {
    let mut suppressed = 0usize;
    let mut out = Vec::new();
    let mut directives = ctx.suppressions.clone();
    for d in raw {
        let hit = directives.iter_mut().find(|s| {
            s.target_line == d.line && s.has_reason && s.rules.iter().any(|r| r == d.rule)
        });
        match hit {
            Some(s) => {
                s.used = true;
                suppressed += 1;
            }
            None => out.push(d),
        }
    }
    // Directive hygiene is a production-code concern: rules skip test
    // files wholesale, so a directive there is inert, not a policy
    // hole.
    if ctx.class == source::FileClass::Test {
        return (out, suppressed);
    }
    for s in &directives {
        let unknown: Vec<&String> = s.rules.iter().filter(|r| rule_meta(r).is_none()).collect();
        if s.rules.is_empty() || !unknown.is_empty() {
            out.push(Diagnostic {
                rule: "bad-suppression",
                path: ctx.rel_path.clone(),
                line: s.line,
                col: s.col,
                msg: if s.rules.is_empty() {
                    "allow() names no rule".to_string()
                } else {
                    format!(
                        "allow() names unknown rule(s): {}",
                        unknown
                            .iter()
                            .map(|s| s.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                },
            });
        } else if !s.has_reason {
            out.push(Diagnostic {
                rule: "bad-suppression",
                path: ctx.rel_path.clone(),
                line: s.line,
                col: s.col,
                msg: format!(
                    "allow({}) has no `-- reason`; a suppression must say why",
                    s.rules.join(", ")
                ),
            });
        } else if !s.used {
            // Well-formed, reasoned — and silenced nothing. Stale
            // suppressions rot into policy holes: the next reader
            // assumes the site is exempt when the rule simply moved
            // on. Clippy's `#[warn(unused_attributes)]` analogue.
            out.push(Diagnostic {
                rule: "unused-suppression",
                path: ctx.rel_path.clone(),
                line: s.line,
                col: s.col,
                msg: format!(
                    "allow({}) suppressed nothing on line {}; delete the directive \
                     (or move it to the finding it was written for)",
                    s.rules.join(", "),
                    s.target_line
                ),
            });
        }
    }
    (out, suppressed)
}

/// Lints the whole workspace rooted at `root`: every discovered file
/// plus the `wall-clock-allowlist` self-check.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = discover(root)?;
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut n_files = 0usize;
    let mut wall_clock_sites: Vec<(String, usize)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(path)?;
        let n = count_wall_clock_allows(&rel, &src);
        if n > 0 {
            wall_clock_sites.push((rel.clone(), n));
        }
        let (mut f, s) = lint_source(&rel, src);
        findings.append(&mut f);
        suppressed += s;
        n_files += 1;
    }
    findings.extend(check_wall_clock_allowlist(&wall_clock_sites));
    sort_findings(&mut findings);
    Ok(Report {
        findings,
        suppressed,
        files: n_files,
    })
}

/// Orders findings by (path, line, col, rule) for stable output.
pub fn sort_findings(findings: &mut [Diagnostic]) {
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
}

/// Counts `allow(wall-clock)` suppression directives in one file, when
/// the file is simulation-production code (same path logic as the
/// engine's classification: under `crates/<sim-crate>` and not in a
/// tests/benches/examples/fixtures directory). Textual on purpose —
/// the self-check must count directives even when a rule rewrite stops
/// recognizing them.
fn count_wall_clock_allows(rel_path: &str, src: &str) -> usize {
    if rel_path
        .split('/')
        .any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"))
    {
        return 0;
    }
    let sim = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .is_some_and(|d| source::SIM_CRATES.contains(&d));
    if !sim {
        return 0;
    }
    src.lines()
        .filter(|l| l.contains("simlint: allow(") && l.contains("wall-clock"))
        .count()
}

/// The `wall-clock-allowlist` self-check: the per-file counts of
/// sanctioned `allow(wall-clock)` directives found in
/// simulation-production code must match
/// [`rules::wall_clock::ALLOWLIST`] exactly. A new suppression — even
/// in a file that already has some — is drift until the allowlist is
/// edited to sanction it; a stale allowlist entry is drift too.
pub fn check_wall_clock_allowlist(sites: &[(String, usize)]) -> Vec<Diagnostic> {
    let expected: BTreeMap<&str, usize> = rules::wall_clock::ALLOWLIST.iter().copied().collect();
    let found: BTreeMap<&str, usize> = sites.iter().map(|(p, n)| (p.as_str(), *n)).collect();
    let diag = |path: &str, msg: String| Diagnostic {
        rule: "wall-clock-allowlist",
        path: path.to_string(),
        line: 1,
        col: 1,
        msg,
    };
    let mut out = Vec::new();
    for (&path, &n) in &found {
        match expected.get(path) {
            None => out.push(diag(
                path,
                format!(
                    "{n} `allow(wall-clock)` directive(s) in a file the allowlist does not \
                     sanction; review the site(s) and add the file to \
                     `rules::wall_clock::ALLOWLIST` (or remove the suppressions)"
                ),
            )),
            Some(&want) if want != n => out.push(diag(
                path,
                format!(
                    "{n} `allow(wall-clock)` directive(s) but the allowlist sanctions {want}; \
                     update `rules::wall_clock::ALLOWLIST` to match the reviewed count"
                ),
            )),
            Some(_) => {}
        }
    }
    for (&path, &want) in &expected {
        if !found.contains_key(path) {
            out.push(diag(
                path,
                format!(
                    "allowlist sanctions {want} `allow(wall-clock)` directive(s) here but none \
                     were found; delete the stale `rules::wall_clock::ALLOWLIST` entry"
                ),
            ));
        }
    }
    out
}

/// Lints a fixture corpus: every `.rs` file under `dir`, where each
/// file's first line must be a `// simlint-fixture: path=<rel-path>`
/// header naming the workspace-relative path the engine should pretend
/// the file lives at (so fixtures exercise sim-crate and test-crate
/// classification without living there). The workspace-only
/// `wall-clock-allowlist` self-check is skipped.
pub fn lint_fixtures(dir: &Path) -> io::Result<Report> {
    let files = discover(dir)?;
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut n_files = 0usize;
    for path in &files {
        let src = fs::read_to_string(path)?;
        let first = src.lines().next().unwrap_or("");
        let Some(rel) = first
            .strip_prefix("// simlint-fixture: path=")
            .map(str::trim)
            .map(str::to_string)
        else {
            return Err(io::Error::other(format!(
                "fixture {} lacks a `// simlint-fixture: path=…` header",
                path.display()
            )));
        };
        let (mut f, s) = lint_source(&rel, src);
        // Re-anchor paths to the fixture file name so golden output
        // identifies the fixture, not the pretend location.
        let fixture_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_string();
        for d in &mut f {
            d.path = fixture_name.clone();
        }
        findings.append(&mut f);
        suppressed += s;
        n_files += 1;
    }
    sort_findings(&mut findings);
    Ok(Report {
        findings,
        suppressed,
        files: n_files,
    })
}

/// Walks upward from `start` to the first directory containing a
/// `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}
