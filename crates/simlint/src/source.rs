//! Per-file analysis context: crate classification, significant-token
//! view, `#[cfg(test)]` region detection, and suppression directives.

use crate::lexer::{lex, Tok, TokKind};

/// Crates whose code runs *inside* the simulation: any nondeterminism
/// here can leak into simulated time or reported results. Names are
/// directory names under `crates/` (package `cxl-pool-core` lives in
/// `crates/core`).
pub const SIM_CRATES: &[&str] = &[
    "simkit",
    "cxl-fabric",
    "pcie-sim",
    "net-sim",
    "shmem",
    "core",
    "workgen",
];

/// How a file participates in the build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Production code in a simulation crate (see [`SIM_CRATES`]).
    SimProd,
    /// Production code elsewhere (bench, stranding, root crate, simlint
    /// itself).
    OtherProd,
    /// Test, bench-harness, example, or fixture code: every rule skips
    /// these wholesale (tests may legitimately use wall-clock reads and
    /// unordered iteration).
    Test,
}

/// One `// simlint: allow(rule-id) -- reason` directive.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Rule ids listed in `allow(...)` (comma-separated).
    pub rules: Vec<String>,
    /// The line the directive suppresses findings on: its own line for
    /// a trailing comment, the next line for a standalone one.
    pub target_line: u32,
    /// Line the directive itself sits on (for bad-suppression
    /// diagnostics).
    pub line: u32,
    /// Column of the comment token.
    pub col: u32,
    /// True when a non-empty `-- reason` was given. A reason is
    /// mandatory; directives without one are themselves findings.
    pub has_reason: bool,
    /// Marked true by the engine when the directive suppressed at
    /// least one finding.
    pub used: bool,
}

/// Everything a rule needs to analyze one file.
pub struct FileCtx {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// `crates/<name>` directory, when under `crates/`.
    pub crate_dir: Option<String>,
    /// Production/test classification.
    pub class: FileClass,
    /// The source text.
    pub src: String,
    /// All tokens, trivia included (byte-exact partition of `src`).
    pub toks: Vec<Tok>,
    /// Indices into `toks` of significant tokens (no whitespace, no
    /// comments). Rules pattern-match over this view.
    pub sig: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(usize, usize)>,
    /// Parsed suppression directives, in source order.
    pub suppressions: Vec<Suppression>,
}

impl FileCtx {
    /// Builds the context for one file. `rel_path` must be relative to
    /// the workspace root.
    pub fn new(rel_path: &str, src: String) -> FileCtx {
        let toks = lex(&src);
        let sig: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let crate_dir = rel_path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .map(str::to_string);
        let class = classify(rel_path, crate_dir.as_deref());
        let test_regions = find_test_regions(&src, &toks, &sig);
        let suppressions = find_suppressions(&src, &toks);
        FileCtx {
            rel_path: rel_path.to_string(),
            crate_dir,
            class,
            src,
            toks,
            sig,
            test_regions,
            suppressions,
        }
    }

    /// The significant token at sig-index `i`, if any.
    pub fn sig_tok(&self, i: usize) -> Option<&Tok> {
        self.sig.get(i).map(|&ti| &self.toks[ti])
    }

    /// Text of the significant token at sig-index `i` (empty past the
    /// end).
    pub fn sig_text(&self, i: usize) -> &str {
        match self.sig.get(i) {
            Some(&ti) => self.toks[ti].text(&self.src),
            None => "",
        }
    }

    /// True when byte offset `off` falls inside a `#[cfg(test)]` /
    /// `#[test]` item.
    pub fn in_test_region(&self, off: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| off >= s && off < e)
    }

    /// True when the file's production code is simulation code and the
    /// offset is outside test regions: the scope of the determinism
    /// rules (R1/R2/R5).
    pub fn is_sim_prod(&self, off: usize) -> bool {
        self.class == FileClass::SimProd && !self.in_test_region(off)
    }

    /// True for production code of any crate outside test regions: the
    /// scope of the workspace-wide rules (R3/R4).
    pub fn is_prod(&self, off: usize) -> bool {
        self.class != FileClass::Test && !self.in_test_region(off)
    }
}

fn classify(rel_path: &str, crate_dir: Option<&str>) -> FileClass {
    let comps: Vec<&str> = rel_path.split('/').collect();
    // Anything under a tests/benches/examples/fixtures directory is
    // test-class, wherever it sits (root `tests/`, crate `tests/`,
    // simlint's fixture corpus).
    if comps
        .iter()
        .any(|c| matches!(*c, "tests" | "benches" | "examples" | "fixtures"))
    {
        return FileClass::Test;
    }
    match crate_dir {
        Some(d) if SIM_CRATES.contains(&d) => FileClass::SimProd,
        _ => FileClass::OtherProd,
    }
}

/// Finds items annotated `#[cfg(test)]` or `#[test]` and returns the
/// byte range each item covers (attribute through closing brace or
/// semicolon). Token-level: an attribute group is `#` `[` … `]`; the
/// item afterwards extends to the first `;` at depth 0 or the brace
/// block opened at depth 0.
fn find_test_regions(src: &str, toks: &[Tok], sig: &[usize]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < sig.len() {
        let t = &toks[sig[i]];
        if t.kind == TokKind::Punct && t.text(src) == "#" {
            // Parse one attribute group; `is_test` when it contains a
            // bare `test` or `cfg ( test …`.
            let attr_start = t.start;
            let mut j = i + 1;
            if sig.get(j).map(|&ti| toks[ti].text(src)) != Some("[") {
                i += 1;
                continue;
            }
            let mut depth = 0i32;
            let mut is_test = false;
            let mut saw_cfg = false;
            let mut saw_not = false;
            while j < sig.len() {
                let tj = &toks[sig[j]];
                match tj.text(src) {
                    "[" | "(" => depth += 1,
                    "]" | ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "cfg" => saw_cfg = true,
                    "not" => saw_not = true,
                    // `#[test]` (depth 1) or `#[cfg(test)]` /
                    // `#[cfg(all(test, …))]` (inside a cfg); a
                    // `not(…)` anywhere in the group disqualifies
                    // it (`#[cfg(not(test))]` is production code).
                    "test" if depth == 1 || saw_cfg => is_test = true,
                    _ => {}
                }
                j += 1;
            }
            let is_test = is_test && !saw_not;
            if !is_test {
                i = j + 1;
                continue;
            }
            // Skip any further attribute groups, then span the item.
            let mut k = j + 1;
            while sig.get(k).map(|&ti| toks[ti].text(src)) == Some("#")
                && sig.get(k + 1).map(|&ti| toks[ti].text(src)) == Some("[")
            {
                let mut d = 0i32;
                k += 1;
                while k < sig.len() {
                    match toks[sig[k]].text(src) {
                        "[" | "(" => d += 1,
                        "]" | ")" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                k += 1;
            }
            // Item body: first `;` at depth 0 ends it, or the brace
            // block opened at depth 0 ends it at its matching `}`.
            let mut d = 0i32;
            let mut end = src.len();
            while k < sig.len() {
                let tk = &toks[sig[k]];
                match tk.text(src) {
                    "{" => d += 1,
                    "}" => {
                        d -= 1;
                        if d == 0 {
                            end = tk.end();
                            break;
                        }
                    }
                    ";" if d == 0 => {
                        end = tk.end();
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            regions.push((attr_start, end));
            // Continue scanning *after* this item: nested `#[test]`
            // inside a `#[cfg(test)] mod` is already covered.
            while i < sig.len() && toks[sig[i]].start < end {
                i += 1;
            }
            continue;
        }
        i += 1;
    }
    regions
}

/// Parses `// simlint: allow(rule-a, rule-b) -- reason` directives out
/// of line comments. The reason (everything after `--`, trimmed) is
/// mandatory; its absence is recorded for the bad-suppression rule.
fn find_suppressions(src: &str, toks: &[Tok]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (idx, t) in toks.iter().enumerate() {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t.text(src).trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("simlint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow") else {
            continue;
        };
        let rest = rest.trim_start();
        let (rules, tail) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some((inner, tail)) => (
                inner
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect(),
                tail,
            ),
            None => (Vec::new(), rest),
        };
        let has_reason = tail
            .trim_start()
            .strip_prefix("--")
            .is_some_and(|r| !r.trim().is_empty());
        // Standalone comment (nothing significant earlier on its line)
        // targets the next line that holds code; a trailing comment
        // targets its own line.
        let standalone = !toks[..idx].iter().any(|p| {
            p.line == t.line
                && !matches!(
                    p.kind,
                    TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
                )
        });
        let target_line = if standalone {
            toks[idx + 1..]
                .iter()
                .filter(|p| {
                    !matches!(
                        p.kind,
                        TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
                    )
                })
                .map(|p| p.line)
                .find(|&l| l > t.line)
                .unwrap_or(t.line + 1)
        } else {
            t.line
        };
        out.push(Suppression {
            rules,
            target_line,
            line: t.line,
            col: t.col,
            has_reason,
            used: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            FileCtx::new("crates/simkit/src/sched.rs", String::new()).class,
            FileClass::SimProd
        );
        assert_eq!(
            FileCtx::new("crates/stranding/src/vm.rs", String::new()).class,
            FileClass::OtherProd
        );
        assert_eq!(
            FileCtx::new("crates/simkit/tests/t.rs", String::new()).class,
            FileClass::Test
        );
        assert_eq!(
            FileCtx::new("tests/chaos.rs", String::new()).class,
            FileClass::Test
        );
        assert_eq!(
            FileCtx::new("examples/quickstart.rs", String::new()).class,
            FileClass::Test
        );
        assert_eq!(
            FileCtx::new("src/lib.rs", String::new()).class,
            FileClass::OtherProd
        );
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src =
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn t() { bad(); }\n}\nfn prod2() {}\n";
        let ctx = FileCtx::new("crates/simkit/src/x.rs", src.to_string());
        let bad_off = src.find("bad").unwrap();
        assert!(ctx.in_test_region(bad_off));
        assert!(!ctx.in_test_region(src.find("prod2").unwrap()));
        assert!(!ctx.in_test_region(0));
    }

    #[test]
    fn test_attr_fn_is_a_test_region() {
        let src = "#[test]\n#[ignore]\nfn t() { x(); }\nfn prod() {}\n";
        let ctx = FileCtx::new("crates/simkit/src/x.rs", src.to_string());
        assert!(ctx.in_test_region(src.find("x()").unwrap()));
        assert!(!ctx.in_test_region(src.find("prod").unwrap()));
    }

    #[test]
    fn cfg_not_test_is_not_a_region() {
        let src = "#[cfg(feature = \"debug-peek\")]\nfn f() { y(); }\n";
        let ctx = FileCtx::new("crates/simkit/src/x.rs", src.to_string());
        assert!(!ctx.in_test_region(src.find("y()").unwrap()));
    }

    #[test]
    fn suppression_parsing() {
        let src = "\
// simlint: allow(hash-iter) -- order-insensitive: keys collected for removal only
let a = 1;
let b = 2; // simlint: allow(wall-clock, hash-iter) -- sanctioned
// simlint: allow(hash-iter)
let c = 3;
";
        let ctx = FileCtx::new("crates/simkit/src/x.rs", src.to_string());
        let s = &ctx.suppressions;
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].target_line, 2);
        assert!(s[0].has_reason);
        assert_eq!(s[1].target_line, 3);
        assert_eq!(s[1].rules, ["wall-clock", "hash-iter"]);
        assert!(!s[2].has_reason);
        assert_eq!(s[2].target_line, 5);
    }
}
