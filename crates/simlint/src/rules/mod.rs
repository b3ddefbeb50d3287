//! The rule catalog. Each rule is a pure function over a [`FileCtx`]'s
//! significant-token view; shared token-pattern helpers live here.
//!
//! Flow-aware rules additionally receive the file's parsed AST
//! ([`crate::parser`]) and, per function, a CFG ([`crate::cfg`]) via
//! [`lint_fns`].

use std::collections::BTreeSet;

use crate::cfg::Cfg;
use crate::diag::Diagnostic;
use crate::parser::{FileAst, FnDef};
use crate::source::FileCtx;

pub mod float_accum;
pub mod flush_publish;
pub mod hash_iter;
pub mod span_pair;
pub mod time_arith;
pub mod unwrap_datapath;
pub mod wall_clock;

/// Runs every per-file rule over one file.
pub fn check_file(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    hash_iter::check(ctx, out);
    wall_clock::check(ctx, out);
    float_accum::check(ctx, out);
    let ast = crate::parser::parse_file(ctx);
    span_pair::check(ctx, &ast, out);
    flush_publish::check(ctx, &ast, out);
    unwrap_datapath::check(ctx, &ast, out);
    time_arith::check(ctx, &ast, out);
}

/// Drives a flow-aware rule: visits every function definition whose
/// production code is in a simulation crate (test regions skipped),
/// building its CFG once, and hands `(ctx, def, cfg, out)` to the
/// rule body.
pub fn lint_fns(
    ctx: &FileCtx,
    ast: &FileAst,
    out: &mut Vec<Diagnostic>,
    mut f: impl FnMut(&FileCtx, &FnDef, &Cfg, &mut Vec<Diagnostic>),
) {
    for def in crate::parser::all_fns(ast) {
        let Some(name_tok) = ctx.sig_tok(def.name_sig) else {
            continue;
        };
        if !ctx.is_sim_prod(name_tok.start) {
            continue;
        }
        let cfg = crate::cfg::build(ctx, def);
        f(ctx, def, &cfg, out);
    }
}

/// True when the significant token at `i` is used as a call: followed
/// by `(` and not a definition name (preceded by `fn`). Covers both
/// method (`.name(`) and free/UFCS (`name(`, `Path::name(`) forms.
pub fn is_call(ctx: &FileCtx, i: usize) -> bool {
    ctx.sig_text(i + 1) == "(" && (i == 0 || ctx.sig_text(i - 1) != "fn")
}

/// True when significant tokens `i` and `i + 1` touch byte-wise (used
/// to tell `..` and `name!` from separated punctuation).
pub fn adjacent_sig(ctx: &FileCtx, i: usize) -> bool {
    match (ctx.sig_tok(i), ctx.sig_tok(i + 1)) {
        (Some(a), Some(b)) => b.start == a.end(),
        _ => false,
    }
}

/// Emits a diagnostic anchored at significant-token `i`.
pub fn diag_at(ctx: &FileCtx, i: usize, rule: &'static str, msg: String) -> Diagnostic {
    let t = ctx.sig_tok(i).expect("diag anchor in range");
    Diagnostic {
        rule,
        path: ctx.rel_path.clone(),
        line: t.line,
        col: t.col,
        msg,
    }
}

/// True when significant tokens `i` and `i + 1` form `::` (two colons
/// with no bytes between them).
pub fn is_path_sep(ctx: &FileCtx, i: usize) -> bool {
    match (ctx.sig_tok(i), ctx.sig_tok(i + 1)) {
        (Some(a), Some(b)) => {
            a.text(&ctx.src) == ":" && b.text(&ctx.src) == ":" && b.start == a.end()
        }
        _ => false,
    }
}

/// Matches a token pattern starting at significant index `i`. Pattern
/// atoms are literal token texts, except `"::"` which consumes two
/// adjacent colon tokens. Returns the significant index one past the
/// match.
pub fn match_seq(ctx: &FileCtx, mut i: usize, pat: &[&str]) -> Option<usize> {
    for &p in pat {
        if p == "::" {
            if !is_path_sep(ctx, i) {
                return None;
            }
            i += 2;
        } else {
            if ctx.sig_text(i) != p {
                return None;
            }
            i += 1;
        }
    }
    Some(i)
}

/// Significant index of the `}` matching the `{` at sig index `open`
/// (or the last token when unbalanced).
pub fn match_brace(ctx: &FileCtx, open: usize) -> usize {
    debug_assert_eq!(ctx.sig_text(open), "{");
    let mut depth = 0i32;
    let mut i = open;
    while i < ctx.sig.len() {
        match ctx.sig_text(i) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    ctx.sig.len().saturating_sub(1)
}

/// Names bound to `HashMap`/`HashSet` anywhere in the file: struct
/// fields and `let`/param type ascriptions (`name: HashMap<…>`, path
/// prefixes allowed) plus constructor bindings
/// (`let [mut] name = HashMap::new()` / `with_capacity`/`default`).
///
/// The table is per-file and name-based — deliberately conservative: a
/// same-named non-hash binding elsewhere in the file will also match,
/// and the reviewer answers with a reasoned `allow`.
pub fn hash_idents(ctx: &FileCtx) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..ctx.sig.len() {
        let t = ctx.sig_text(i);
        if t != "HashMap" && t != "HashSet" {
            continue;
        }
        // `name : [&] [mut] [path::]* HashMap` — walk back over the
        // path prefix (each `ident ::` pair), then any reference/mut
        // qualifiers and lifetimes.
        let mut j = i;
        while j >= 3 && is_path_sep(ctx, j - 2) {
            j -= 3;
        }
        while j >= 1
            && (matches!(ctx.sig_text(j - 1), "&" | "mut")
                || ctx
                    .sig_tok(j - 1)
                    .is_some_and(|t| t.kind == crate::lexer::TokKind::Lifetime))
        {
            j -= 1;
        }
        if j >= 2 && ctx.sig_text(j - 1) == ":" && !is_path_sep(ctx, j - 2) {
            let name = ctx.sig_text(j - 2);
            if is_ident(name) {
                names.insert(name.to_string());
                continue;
            }
        }
        // `= HashMap :: new(…)` — find the binding left of the `=`.
        if is_path_sep(ctx, i + 1)
            && matches!(ctx.sig_text(i + 3), "new" | "with_capacity" | "default")
            && j >= 1
            && ctx.sig_text(j - 1) == "="
        {
            let mut k = j - 1;
            // `let mut name =` / `let name =` / `name =`.
            if k >= 1 {
                k -= 1;
                let name = ctx.sig_text(k);
                if is_ident(name) && name != "mut" && name != "let" {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

/// Names with a float type in this file: `name: f64`/`f32` ascriptions
/// and `let [mut] name = <float literal>` bindings.
pub fn float_idents(ctx: &FileCtx) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..ctx.sig.len() {
        let t = ctx.sig_text(i);
        if t == "f64" || t == "f32" {
            if i >= 2 && ctx.sig_text(i - 1) == ":" && !is_path_sep(ctx, i - 2) {
                let name = ctx.sig_text(i - 2);
                if is_ident(name) {
                    names.insert(name.to_string());
                }
            }
        } else if is_float_literal(t) && i >= 2 && ctx.sig_text(i - 1) == "=" {
            let name = ctx.sig_text(i - 2);
            if is_ident(name) && name != "mut" && name != "let" {
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// A numeric token that is a float: contains a `.` or an `f32`/`f64`
/// suffix (hex literals never match: `.` and suffixes don't occur).
pub fn is_float_literal(t: &str) -> bool {
    let bytes = t.as_bytes();
    if bytes.first().is_none_or(|b| !b.is_ascii_digit()) {
        return false;
    }
    !t.starts_with("0x") && (t.contains('.') || t.ends_with("f32") || t.ends_with("f64"))
}

fn is_ident(t: &str) -> bool {
    let mut chars = t.chars();
    match chars.next() {
        Some(c) if c == '_' || c.is_alphabetic() => {}
        _ => return false,
    }
    chars.all(|c| c == '_' || c.is_alphanumeric())
}
