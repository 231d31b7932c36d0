//! The repository must lint clean — this is the same gate
//! `scripts/ci.sh` runs via the `lint` binary, asserted in-process so
//! `cargo test` alone catches a regression. Also proves the tool is not
//! vacuous: the deliberately-bad fixture corpus must light up every
//! lint class, and the committed allowlist audit must be fresh.

use std::path::Path;

use devtools::lint;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_lints_clean() {
    let out = lint::run(repo_root()).expect("lint walk succeeds");
    assert!(out.files_scanned > 100, "walker saw only {} files", out.files_scanned);
    let rendered: Vec<String> = out.findings.iter().map(|f| f.to_string()).collect();
    assert!(out.clean(), "lint findings:\n{}", rendered.join("\n"));
}

#[test]
fn committed_policy_names_only_real_paths() {
    let text = std::fs::read_to_string(repo_root().join("lint.toml")).expect("read lint.toml");
    let cfg = lint::config::parse(&text).expect("lint.toml parses");
    let stale = cfg.stale_paths(repo_root());
    assert!(stale.is_empty(), "lint.toml names paths that do not exist:\n{}", stale.join("\n"));
}

#[test]
fn bad_fixtures_fail_every_lint_class() {
    let cfg = {
        let mut c = lint::Config::fallback();
        // The panic fixture plays a hot-path file.
        c.panic_paths = vec!["fx/panic.rs".into()];
        c
    };
    let mut out = lint::Outcome::default();
    for name in ["determinism", "concurrency", "panic", "hermeticity"] {
        let path = repo_root().join(format!("crates/devtools/tests/lint_fixtures/{name}.rs"));
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        lint_fixture(&mut out, &format!("fx/{name}.rs"), &src, &cfg);
    }
    // Every class is represented — the gate cannot silently go blind.
    for lint_name in [
        "no-wallclock",
        "no-unordered-map",
        "no-env",
        "no-thread-spawn",
        "no-static-mut",
        "no-unsafe",
        "no-panic",
        "no-unwrap",
        "no-slice-index",
        "no-process",
        "no-socket",
    ] {
        assert!(
            out.findings.iter().any(|f| f.lint == lint_name),
            "fixture corpus never triggers {lint_name}"
        );
    }
    assert!(!out.clean(), "a dirty tree must make the tool exit nonzero");
}

fn lint_fixture(out: &mut lint::Outcome, rel: &str, src: &str, cfg: &lint::Config) {
    lint::lint_source(rel, src, cfg, out);
}

#[test]
fn workspace_panic_clean_from_every_entry_point() {
    let a = lint::analyze(repo_root()).expect("lint walk succeeds");
    let cfg = lint::load_config(repo_root()).expect("lint.toml parses");
    // Non-vacuity: the graph must actually contain entry points in the
    // `[panic]`-path files, or "no findings" would prove nothing.
    let entries = a
        .graph
        .nodes
        .iter()
        .filter(|n| {
            !n.is_test
                && cfg.panic_paths.iter().any(|p| lint::config::path_has_prefix(&n.file, p))
        })
        .count();
    assert!(entries > 100, "only {entries} entry points under [panic] paths");
    let bad: Vec<String> = a
        .outcome
        .findings
        .iter()
        .filter(|f| f.lint == "panic-reachability")
        .map(|f| f.to_string())
        .collect();
    assert!(bad.is_empty(), "panic-reachable entry points:\n{}", bad.join("\n"));
}

#[test]
fn committed_callgraph_artifact_is_fresh() {
    let a = lint::analyze(repo_root()).expect("lint walk succeeds");
    let want = lint::graph::render(&a.graph);
    let path = repo_root().join("results/lint_callgraph.txt");
    let got = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "results/lint_callgraph.txt is stale — regenerate with \
         `cargo run --release -p devtools --bin lint -- --graph > results/lint_callgraph.txt`"
    );
}

#[test]
fn committed_allowlist_audit_is_fresh() {
    let out = lint::run(repo_root()).expect("lint walk succeeds");
    let want = lint::report(&out);
    let path = repo_root().join("results/lint_allowlist.txt");
    let got = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "results/lint_allowlist.txt is stale — regenerate with \
         `cargo run --release -p devtools --bin lint -- --report > results/lint_allowlist.txt`"
    );
}
