//! Seeded-violation self-tests, run through the production
//! [`modsram_analyzer::analyze_files`] entry point with the real
//! workspace configuration — so each test proves its rule is wired in
//! end to end (fixture paths match the real hot-path/lock/atomic
//! declarations), not just that the rule function works in isolation.
//! Disabling any rule in `analyze_files` makes its seeded test here
//! fail.
//!
//! The final test is the smoke check the CI `--deny` step depends on:
//! the workspace *as committed* must analyze clean.

use std::path::Path;

use modsram_analyzer::config::{Config, DriftSpec};
use modsram_analyzer::findings::Finding;
use modsram_analyzer::{analyze, analyze_files};

/// The real workspace config minus the drift spec: the in-memory
/// fixtures below don't carry the registry/CI/summary files, and a
/// missing registry would drown the rule under test in drift noise.
fn rules_config() -> Config {
    let mut cfg = Config::workspace();
    cfg.drift = None;
    cfg
}

fn run(files: &[(&str, &str)], cfg: &Config) -> Vec<Finding> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    analyze_files(&files, cfg)
}

fn denied_rules(files: &[(&str, &str)], cfg: &Config) -> Vec<&'static str> {
    run(files, cfg)
        .iter()
        .filter(|f| f.denied())
        .map(|f| f.rule)
        .collect()
}

// ---- no_panic ---------------------------------------------------------

#[test]
fn no_panic_catches_seeded_unwrap_on_a_hot_path() {
    let seeded = [(
        "crates/core/src/service.rs",
        "fn f(v: &[u32]) -> u32 { *v.first().unwrap() }",
    )];
    assert!(denied_rules(&seeded, &rules_config()).contains(&"no_panic"));
}

#[test]
fn no_panic_catches_seeded_indexing_where_banned() {
    let seeded = [(
        "crates/net/src/server.rs",
        "fn f(v: &[u32]) -> u32 { v[0] }",
    )];
    assert!(denied_rules(&seeded, &rules_config()).contains(&"no_panic"));
}

#[test]
fn no_panic_clean_twin_passes() {
    let clean = [(
        "crates/core/src/service.rs",
        "fn f(v: &[u32]) -> Option<u32> { v.first().copied() }",
    )];
    assert!(denied_rules(&clean, &rules_config()).is_empty());
}

#[test]
fn no_panic_ignores_test_code_and_cold_paths() {
    let files = [
        // Same unwrap, but inside a #[test] body: exempt.
        (
            "crates/core/src/service.rs",
            "#[test]\nfn t() { let v = vec![1]; v.first().unwrap(); }",
        ),
        // Same unwrap, but not in a declared hot path.
        (
            "crates/bench/src/lib.rs",
            "fn f(v: &[u32]) { v.first().unwrap(); }",
        ),
    ];
    assert!(denied_rules(&files, &rules_config()).is_empty());
}

// ---- lock_order -------------------------------------------------------

#[test]
fn lock_order_catches_seeded_inversion() {
    // homes (level 1) held while membership (level 0) is acquired.
    let seeded = [(
        "crates/core/src/cluster/mod.rs",
        "impl C { fn f(&self) { let h = self.homes.write(); let m = self.membership.read(); } }",
    )];
    assert!(denied_rules(&seeded, &rules_config()).contains(&"lock_order"));
}

#[test]
fn lock_order_catches_seeded_wait_across_lock() {
    let seeded = [(
        "crates/core/src/service.rs",
        "impl S { fn f(&self) { let g = self.inner.lock(); self.ticket.wait(); } }",
    )];
    assert!(denied_rules(&seeded, &rules_config()).contains(&"lock_order"));
}

#[test]
fn lock_order_clean_twin_passes() {
    let clean = [(
        "crates/core/src/cluster/mod.rs",
        "impl C { fn f(&self) { let m = self.membership.read(); let h = self.homes.write(); } }",
    )];
    assert!(denied_rules(&clean, &rules_config()).is_empty());
}

// ---- relaxed_atomic ---------------------------------------------------

#[test]
fn relaxed_atomic_catches_seeded_relaxed_on_gating_flag() {
    let seeded = [(
        "crates/core/src/cluster/mod.rs",
        "fn f(s: &S) -> bool { s.replicas_active.load(Ordering::Relaxed) > 0 }",
    )];
    assert!(denied_rules(&seeded, &rules_config()).contains(&"relaxed_atomic"));
}

#[test]
fn relaxed_atomic_clean_twins_pass() {
    let clean = [
        // Acquire on a gating flag: fine.
        (
            "crates/core/src/cluster/mod.rs",
            "fn f(s: &S) -> bool { s.replicas_active.load(Ordering::Acquire) > 0 }",
        ),
        // Relaxed on a plain counter outside the manifest: fine.
        (
            "crates/core/src/service.rs",
            "fn g(s: &S) { s.submitted.fetch_add(1, Ordering::Relaxed); }",
        ),
    ];
    assert!(denied_rules(&clean, &rules_config()).is_empty());
}

// ---- no_sleep ---------------------------------------------------------

#[test]
fn no_sleep_catches_seeded_sleep_in_serving_code() {
    let seeded = [(
        "crates/net/src/server.rs",
        "fn f() { std::thread::sleep(Duration::from_millis(2)); }",
    )];
    assert!(denied_rules(&seeded, &rules_config()).contains(&"no_sleep"));
}

#[test]
fn no_sleep_catches_seeded_sleep_in_test_code() {
    let sleep = "fn f() { std::thread::sleep(Duration::from_millis(2)); }";
    for path in [
        "crates/core/tests/cluster.rs",
        "crates/net/tests/loopback.rs",
        "tests/service_streaming.rs",
    ] {
        assert!(
            denied_rules(&[(path, sleep)], &rules_config()).contains(&"no_sleep"),
            "{path}"
        );
    }
    let in_module = [(
        "crates/net/src/tenant.rs",
        "#[cfg(test)]\nmod tests { fn t() { std::thread::sleep(d); } }",
    )];
    assert!(denied_rules(&in_module, &rules_config()).contains(&"no_sleep"));
}

#[test]
fn no_sleep_ignores_tests_test_util_and_other_crates() {
    // Out of scope: the slow-tile doubles in `test_util.rs`, and other
    // crates' code and tests.
    let sleep = "fn f() { std::thread::sleep(Duration::from_millis(2)); }";
    let files = [
        ("crates/core/src/test_util.rs", sleep),
        ("crates/bench/src/lib.rs", sleep),
        ("crates/modmul/tests/batch_timing.rs", sleep),
    ];
    assert!(denied_rules(&files, &rules_config()).is_empty());
}

#[test]
fn no_sleep_catches_seeded_yield_outside_test_code() {
    let spin = "fn f() { while !done() { std::thread::yield_now(); } }";
    let seeded = [("crates/core/src/service.rs", spin)];
    assert!(denied_rules(&seeded, &rules_config()).contains(&"no_sleep"));
    // Counter waits in test code stay legal, as does `test_util.rs`.
    let legal = [
        ("crates/net/tests/loopback.rs", spin),
        ("tests/service_streaming.rs", spin),
        ("crates/core/src/test_util.rs", spin),
        (
            "crates/core/src/cluster/mod.rs",
            "#[cfg(test)]\nmod tests { fn t() { std::thread::yield_now(); } }",
        ),
    ];
    assert!(denied_rules(&legal, &rules_config()).is_empty());
}

#[test]
fn no_sleep_catches_seeded_timed_waits_outside_test_code() {
    for call in [
        "self.wake.wait_timeout(state, d)",
        "self.wake.wait_timeout_while(state, d, |s| s.busy)",
        "stream.set_read_timeout(Some(d))",
        "stream.set_write_timeout(Some(d))",
        "rx.recv_timeout(d)",
        "std::thread::park_timeout(d)",
    ] {
        let src = format!("fn f() {{ let _ = {call}; }}");
        for path in ["crates/net/src/server.rs", "crates/core/src/service.rs"] {
            assert!(
                denied_rules(&[(path, &src)], &rules_config()).contains(&"no_sleep"),
                "{call} in {path}"
            );
        }
        // Test files and test regions may bound a wait with a stall
        // limit.
        let in_module = format!("#[cfg(test)]\nmod tests {{ {src} }}");
        let legal = [
            ("crates/net/tests/loopback.rs", src.as_str()),
            ("tests/service_streaming.rs", src.as_str()),
            ("crates/core/src/cluster/mod.rs", in_module.as_str()),
        ];
        assert!(denied_rules(&legal, &rules_config()).is_empty(), "{call}");
    }
}

// ---- allow machinery (allow_syntax) -----------------------------------

#[test]
fn reasoned_allow_downgrades_the_finding() {
    let files = [(
        "crates/core/src/service.rs",
        "fn f(v: &[u32]) -> u32 {\n    // analyzer: allow(no_panic, v is non-empty by construction)\n    *v.first().unwrap()\n}",
    )];
    let findings = run(&files, &rules_config());
    assert!(findings.iter().all(|f| !f.denied()), "allow did not apply");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "no_panic" && f.allowed.is_some()),
        "allowed finding must stay in the report"
    );
}

#[test]
fn allow_syntax_catches_seeded_reasonless_allow() {
    let seeded = [(
        "crates/core/src/service.rs",
        "// analyzer: allow(no_panic)\nfn f(v: &[u32]) -> u32 { *v.first().unwrap() }",
    )];
    let denied = denied_rules(&seeded, &rules_config());
    assert!(denied.contains(&"allow_syntax"));
    // A malformed allow suppresses nothing: the unwrap still counts.
    assert!(denied.contains(&"no_panic"));
}

#[test]
fn allow_syntax_catches_seeded_stale_allow() {
    let seeded = [(
        "crates/core/src/service.rs",
        "// analyzer: allow(no_panic, nothing below ever needed this)\nfn f() {}",
    )];
    assert!(denied_rules(&seeded, &rules_config()).contains(&"allow_syntax"));
}

// ---- drift ------------------------------------------------------------

fn drift_config() -> Config {
    Config {
        drift: Some(DriftSpec {
            registry_file: "engine.rs",
            engine_coverage_files: &["cov.rs"],
            bench_bin_dir: "bin",
            ci_file: "ci.yml",
            summary_file: "summary.rs",
            error_file: "error.rs",
            error_enum: "E",
        }),
        ..Config::default()
    }
}

fn drift_files() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "engine.rs",
            "pub const ENGINE_REGISTRY: &[(&str, fn())] = &[(\"alpha\", a), (\"beta\", b)];",
        ),
        ("cov.rs", "fn t() { run(\"alpha\"); run(\"beta\"); }"),
        (
            "bin/x.rs",
            "fn main() { write_json_artifact(\"x_sweep\", &v); }",
        ),
        (
            "ci.yml",
            "path: results/x_sweep.json\nrun: summary -- --require x_sweep\n",
        ),
        ("summary.rs", "const ARTIFACTS: &[&str] = &[\"x_sweep\"];"),
        (
            "error.rs",
            "pub enum E { A }\nfn c() -> E { E::A }\nfn d(e: &E) { match e { E::A => {} } }\n",
        ),
    ]
}

#[test]
fn drift_catches_seeded_uncovered_engine() {
    let mut files = drift_files();
    files[1].1 = "fn t() { run(\"alpha\"); }"; // beta no longer covered
    assert!(denied_rules(&files, &drift_config()).contains(&"drift"));
}

#[test]
fn drift_catches_seeded_unconstructed_error_variant() {
    let mut files = drift_files();
    files[5].1 = "pub enum E { A }\nfn d(e: &E) { match e { E::A => {} } }\n";
    assert!(denied_rules(&files, &drift_config()).contains(&"drift"));
}

#[test]
fn drift_clean_twin_passes() {
    assert!(denied_rules(&drift_files(), &drift_config()).is_empty());
}

// ---- the workspace as committed ---------------------------------------

/// Every declared lock is acquired in the file its spec names, and
/// every hot path matches a file: a spec that outlives its field or
/// file drops out of `lock_order` / `no_panic` without a finding.
#[test]
fn declared_locks_and_hot_paths_name_live_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = modsram_analyzer::walk::collect(&root);
    let cfg = Config::workspace();
    for spec in &cfg.locks {
        let acquired = files.iter().any(|(path, src)| {
            let code: String = src.split_whitespace().collect();
            path.ends_with(spec.file)
                && [".lock()", ".read()", ".write()"]
                    .iter()
                    .any(|call| code.contains(&format!("{}{call}", spec.field)))
        });
        assert!(acquired, "no `{}` lock in {}", spec.field, spec.file);
    }
    for spec in &cfg.hot_paths {
        assert!(
            files.iter().any(|(path, _)| path.starts_with(spec.path)),
            "hot path {} matches no file",
            spec.path
        );
    }
}

/// The contract behind the tier-1 CI step: `analyze --deny` over the
/// repo as committed exits clean. Every suppression must carry a
/// reason, every drift list must be in sync. If this test fails, fix
/// the finding it prints (or add a reasoned allow) before committing.
#[test]
fn committed_workspace_is_clean_under_deny() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = analyze(&root, &Config::workspace());
    let denied: Vec<String> = findings
        .iter()
        .filter(|f| f.denied())
        .map(Finding::render)
        .collect();
    assert!(
        denied.is_empty(),
        "workspace has {} unsuppressed finding(s):\n{}",
        denied.len(),
        denied.join("\n")
    );
}
