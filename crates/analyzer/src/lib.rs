//! `modsram_analyzer` — the workspace's in-repo concurrency and
//! invariant analyzer.
//!
//! The serving stack is deeply concurrent (scoped dispatch workers on
//! a shared chunk cursor, an epoch-versioned membership RwLock over
//! per-tile mutexes, condvar-parked tickets, lock-free atomic fast
//! paths), and
//! the failure modes that matter — a panic unwinding a worker, an
//! inverted lock pair, a too-relaxed atomic — are exactly the ones
//! `cargo test` is worst at catching. Loom/TSan-style tooling is
//! unavailable offline, so the checker lives in-repo, like the
//! vendored dependency shims: a hand-rolled lexer
//! ([`lexer`]) plus token-stream rules ([`rules`]), no external
//! parser dependencies, fast enough to run on every PR as a tier-1
//! CI step.
//!
//! # Rules
//!
//! | rule | what it enforces |
//! |------|------------------|
//! | `no_panic` | no `unwrap`/`expect`/panic-macros (and, where declared, no indexing) in hot-path modules |
//! | `lock_order` | lock acquisitions respect the declared hierarchy; no lock held across `wait*` |
//! | `relaxed_atomic` | no `Ordering::Relaxed` on manifest-declared data-gating atomics |
//! | `no_sleep` | no `thread::sleep` in the core and net crates, their tests, or the workspace tests; no `yield_now` or timed wait (`wait_timeout`, `recv_timeout`, `set_read_timeout`, …) outside their test code |
//! | `drift` | engine registry ↔ tests/docs, sweep artifacts ↔ CI/summary, error variants constructed & matched |
//! | `allow_syntax` | every suppression is well-formed, reasoned, and actually used |
//!
//! # The escape hatch
//!
//! A finding can be suppressed — visibly, with a reason — by a plain
//! line comment on the flagged line or the line above:
//!
//! ```text
//! // analyzer: allow(no_panic, len checked two lines up)
//! let first = parts[0];
//! ```
//!
//! Reasonless or stale allows are themselves findings, and every
//! suppression is counted per rule in `results/analyzer_report.json`
//! so creep is visible across PRs.
//!
//! # Usage
//!
//! ```sh
//! cargo run -p modsram_analyzer --release -- --deny   # CI mode: exit 1 on findings
//! cargo run -p modsram_analyzer --release            # report-only
//! ```

pub mod config;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod walk;

use std::path::Path;

use config::Config;
use findings::{parse_allows, report_unused_allows, Finding};
use rules::drift::FileSet;

/// Every rule id the analyzer can emit, in report order.
pub const RULE_IDS: &[&str] = &[
    rules::no_panic::RULE,
    rules::lock_order::RULE,
    rules::atomics::RULE,
    rules::no_sleep::RULE,
    rules::drift::RULE,
    "allow_syntax",
];

/// Analyzes the workspace rooted at `root` with `cfg`, returning all
/// findings (denied and allowed) sorted by file and line.
pub fn analyze(root: &Path, cfg: &Config) -> Vec<Finding> {
    analyze_files(&walk::collect(root), cfg)
}

/// Analyzes an in-memory file set — the same entry point the seeded
/// self-tests use, so a fixture exercises exactly the production path.
pub fn analyze_files(files: &FileSet, cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (path, src) in files {
        if !path.ends_with(".rs") {
            continue;
        }
        let lexed = lexer::lex(src);
        let allows = parse_allows(path, &lexed.comments, &mut findings);

        if let Some(spec) = cfg
            .hot_paths
            .iter()
            .find(|h| path.starts_with(h.path) || path == h.path)
        {
            rules::no_panic::check(path, &lexed, spec, &allows, &mut findings);
        }
        rules::lock_order::check(path, &lexed, cfg, &allows, &mut findings);
        if cfg.atomic_scope.iter().any(|p| path.starts_with(p)) {
            rules::atomics::check(path, &lexed, cfg, &allows, &mut findings);
        }
        if cfg.sleep_scope.iter().any(|p| path.starts_with(p)) {
            rules::no_sleep::check(path, &lexed, &allows, &mut findings);
        }
        report_unused_allows(path, &allows, &mut findings);
    }
    if let Some(drift) = &cfg.drift {
        rules::drift::check(files, drift, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}
