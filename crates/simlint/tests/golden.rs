//! Golden-diagnostic assertions: the fixture corpus must produce
//! exactly the committed diagnostics, the shipped workspace must be
//! clean, and the JSON rendering must parse back.

use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/simlint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn fixture_corpus_matches_golden() {
    let report = simlint::lint_fixtures(&fixtures_dir()).expect("fixture corpus lints");
    let golden =
        std::fs::read_to_string(fixtures_dir().join("golden.txt")).expect("golden.txt exists");
    assert_eq!(
        report.render_text(),
        golden,
        "fixture diagnostics drifted; if intended, regenerate with \
         `cargo run -p simlint -- --fixtures > crates/simlint/tests/fixtures/golden.txt`"
    );
}

#[test]
fn every_fixture_rule_fires_and_only_in_bad_files() {
    let report = simlint::lint_fixtures(&fixtures_dir()).expect("fixture corpus lints");
    // Each per-file rule must be exercised by at least one known-bad
    // fixture (wall-clock-allowlist is workspace-only: lint_fixtures
    // skips it).
    for rule in [
        "hash-iter",
        "wall-clock",
        "float-accum",
        "span-pair",
        "bad-suppression",
        "flush-before-publish",
        "unwrap-in-datapath",
        "sim-time-arith",
        "unused-suppression",
    ] {
        assert!(
            report.findings.iter().any(|d| d.rule == rule),
            "no fixture finding for rule `{rule}`"
        );
    }
    // Known-good fixtures must stay silent.
    for d in &report.findings {
        assert!(
            d.path.contains("bad"),
            "finding in a known-good fixture: {}",
            d.render()
        );
    }
    // The good corpus demonstrates reasoned suppression, so some
    // findings must have been silenced.
    assert!(report.suppressed > 0, "no suppression was exercised");
}

#[test]
fn shipped_workspace_is_clean() {
    // Satellite of the triage work: the tree this test ships in must
    // lint clean. A new finding means fix it or suppress it with a
    // reason — not ignore it.
    let report = simlint::lint_workspace(&workspace_root()).expect("workspace lints");
    let rendered: Vec<String> = report.findings.iter().map(|d| d.render()).collect();
    assert!(
        report.findings.is_empty(),
        "workspace has unsuppressed simlint findings:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.files > 100,
        "discovery looks broken: only {} files",
        report.files
    );
}

#[test]
fn wall_clock_allowlist_detects_drift_in_both_directions() {
    use simlint::check_wall_clock_allowlist as check;
    let sites: Vec<(String, usize)> = simlint::rules::wall_clock::ALLOWLIST
        .iter()
        .map(|&(p, n)| (p.to_string(), n))
        .collect();
    // In sync: no findings.
    assert!(check(&sites).is_empty());

    // One extra suppression in an already-sanctioned file is drift —
    // the exact failure mode the check exists for.
    let mut more = sites.clone();
    more[0].1 += 1;
    let d = check(&more);
    assert_eq!(d.len(), 1, "count drift must produce one finding");
    assert_eq!(d[0].rule, "wall-clock-allowlist");
    assert!(simlint::diag::rule_meta(d[0].rule).is_some());

    // A suppression in a file the allowlist never sanctioned.
    let mut extra = sites.clone();
    extra.push(("crates/simkit/src/rng.rs".to_string(), 1));
    let d = check(&extra);
    assert_eq!(d.len(), 1);
    assert!(d[0].msg.contains("does not sanction"));

    // A stale allowlist entry (file lost its suppressions) is drift
    // too: the exemption must shrink with the code.
    let fewer: Vec<(String, usize)> = sites[1..].to_vec();
    let d = check(&fewer);
    assert_eq!(d.len(), 1);
    assert!(d[0].msg.contains("stale"));
}

#[test]
fn json_rendering_parses_back() {
    let report = simlint::lint_fixtures(&fixtures_dir()).expect("fixture corpus lints");
    let v = serde_json::from_str(&report.render_json()).expect("render_json emits valid JSON");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("simlint-v1"));
    let findings = v
        .get("findings")
        .and_then(|f| f.as_array())
        .expect("findings array");
    assert_eq!(findings.len(), report.findings.len());
    for f in findings {
        for key in ["rule", "path", "msg", "motivation"] {
            assert!(
                f.get(key).and_then(|s| s.as_str()).is_some(),
                "finding lacks string field `{key}`"
            );
        }
        assert!(f
            .get("line")
            .and_then(|n| n.as_u64())
            .is_some_and(|n| n >= 1));
        assert!(f
            .get("col")
            .and_then(|n| n.as_u64())
            .is_some_and(|n| n >= 1));
    }
}
