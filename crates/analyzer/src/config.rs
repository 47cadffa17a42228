//! The workspace's declared invariants — the one place the hot-path
//! designation, the lock hierarchy, the condvar allow-list, and the
//! data-gating atomics manifest live.
//!
//! # Lock hierarchy
//!
//! Locks are acquired in non-decreasing level order; acquiring a
//! *lower* level while holding a higher one is an inversion finding.
//! The declared order, outermost first:
//!
//! | level | lock (field) | file | what it guards |
//! |-------|--------------|------|----------------|
//! | 0 | `membership` | `core/src/cluster/mod.rs` | epoch-versioned tile snapshot (RwLock) |
//! | 1 | `homes`, `saturation`, `replicas` | `core/src/cluster/mod.rs` | router maps |
//! | 2 | `inner`, `executor` | `core/src/service.rs` | tile queue / executor join handle |
//! | 2 | `state`, `conns` | `net/src/server.rs` | outbox, conn writer, connections |
//! | 2 | `cache` | `core/src/dispatch.rs` | context-pool cache |
//! | 3 | `wall_ns`, `cycles` | `core/src/service.rs` | stats reservoirs |
//! | 3 | `first_error`, `parts` | `core/src/dispatch.rs` | worker result stitching |
//! | 4 | `slot` | `core/src/service.rs` | per-ticket completion slot |
//!
//! The `Membership` RwLock outranks every tile-level mutex: a tile
//! queue lock taken first must never try to read the membership. And
//! no known lock may be held across a `Ticket::wait*` park — the only
//! blessed lock-across-wait is a `Condvar` parking on its own guard
//! (receivers listed in [`Config::condvar_receivers`]).
//! The cluster's router (`core/src/cluster/route.rs`) takes no lock.
//! A self-test checks that each row names a lock its file acquires.

/// One hot-path designation for the `no_panic` rule.
#[derive(Debug, Clone)]
pub struct HotPathSpec {
    /// Workspace-relative path prefix (`/`-separated); a spec matches
    /// every file under it.
    pub path: &'static str,
    /// Whether slice/array indexing expressions are banned too (the
    /// orchestration hot paths, where an index panic means a dead
    /// worker; the limb kernels index fixed-width buffers by design
    /// and are exempt).
    pub ban_indexing: bool,
}

/// One known lock: a named field whose `.lock()` / `.read()` /
/// `.write()` the `lock_order` rule tracks.
#[derive(Debug, Clone)]
pub struct LockSpec {
    /// File suffix the field name is scoped to (field names like
    /// `inner` are only lock-shaped in their own file).
    pub file: &'static str,
    /// Receiver field name at the acquisition site.
    pub field: &'static str,
    /// Hierarchy level, outermost first (see module docs).
    pub level: u8,
}

/// A helper method that returns a lock guard (acquisition hidden
/// behind a call, e.g. `Shared::lock_inner`).
#[derive(Debug, Clone)]
pub struct LockHelperSpec {
    pub file: &'static str,
    pub method: &'static str,
    pub level: u8,
}

/// One entry of the data-gating atomics manifest: an atomic whose
/// loads/stores order *other* data, so `Ordering::Relaxed` on it is a
/// finding unless allowed with a reason.
#[derive(Debug, Clone)]
pub struct AtomicSpec {
    /// Field name of the atomic.
    pub field: &'static str,
    /// Why it gates data visibility (printed with the finding).
    pub why: &'static str,
}

/// Inputs for the drift checks (registry/tests, bench artifacts/CI,
/// error-variant liveness).
#[derive(Debug, Clone)]
pub struct DriftSpec {
    /// File holding `ENGINE_REGISTRY` with its `(name, ctor)` rows.
    pub registry_file: &'static str,
    /// Files that must cover every registered engine: either they
    /// iterate the registry (`all_engines` / `ENGINE_REGISTRY` /
    /// `engine_names`) or they must name each engine literally.
    pub engine_coverage_files: &'static [&'static str],
    /// Directory of bench binaries whose
    /// `write_json_artifact("<name>_sweep", …)` calls define the sweep
    /// artifact set.
    pub bench_bin_dir: &'static str,
    /// CI workflow that must upload each sweep artifact and `--require`
    /// it in the summary job.
    pub ci_file: &'static str,
    /// `bin/summary` source whose `ARTIFACTS` list must know each one.
    pub summary_file: &'static str,
    /// File defining the error enum.
    pub error_file: &'static str,
    /// The enum whose variants must all be constructed and matched.
    pub error_enum: &'static str,
}

/// Everything the rules need, in one declarative value.
#[derive(Debug, Clone, Default)]
pub struct Config {
    pub hot_paths: Vec<HotPathSpec>,
    pub locks: Vec<LockSpec>,
    pub lock_helpers: Vec<LockHelperSpec>,
    /// Condvar fields whose `wait*` legitimately consumes a guard.
    pub condvar_receivers: Vec<&'static str>,
    /// Path prefixes the `relaxed_atomic` rule scans.
    pub atomic_scope: Vec<&'static str>,
    /// Path prefixes the `no_sleep` rule scans.
    pub sleep_scope: Vec<&'static str>,
    /// Files under [`Config::sleep_scope`] the `no_sleep` rule skips.
    pub sleep_exempt: Vec<&'static str>,
    pub data_gating_atomics: Vec<AtomicSpec>,
    pub drift: Option<DriftSpec>,
}

impl Config {
    /// The workspace's checked-in invariant declaration — edit here
    /// (with review) when the architecture legitimately changes.
    pub fn workspace() -> Self {
        Config {
            hot_paths: vec![
                // The engine kernels: a panic here kills a dispatcher
                // worker mid-batch. Limb-indexed buffers are idiomatic
                // in the kernels, so indexing stays legal.
                HotPathSpec {
                    path: "crates/modmul/src/",
                    ban_indexing: false,
                },
                // Dispatch workers and the router: unwinding loses the
                // whole chunk/batch.
                HotPathSpec {
                    path: "crates/core/src/dispatch.rs",
                    ban_indexing: false,
                },
                HotPathSpec {
                    path: "crates/core/src/cluster/",
                    ban_indexing: false,
                },
                // The service executors and the wire
                // reader/completer additionally ban indexing: these
                // paths juggle caller-controlled queue positions, where
                // an off-by-one is reachable from the network.
                HotPathSpec {
                    path: "crates/core/src/service.rs",
                    ban_indexing: true,
                },
                HotPathSpec {
                    path: "crates/net/src/server.rs",
                    ban_indexing: true,
                },
                HotPathSpec {
                    path: "crates/net/src/frame.rs",
                    ban_indexing: false,
                },
            ],
            locks: vec![
                LockSpec {
                    file: "core/src/cluster/mod.rs",
                    field: "membership",
                    level: 0,
                },
                LockSpec {
                    file: "core/src/cluster/mod.rs",
                    field: "homes",
                    level: 1,
                },
                LockSpec {
                    file: "core/src/cluster/mod.rs",
                    field: "saturation",
                    level: 1,
                },
                LockSpec {
                    file: "core/src/cluster/mod.rs",
                    field: "replicas",
                    level: 1,
                },
                LockSpec {
                    file: "core/src/service.rs",
                    field: "inner",
                    level: 2,
                },
                LockSpec {
                    file: "core/src/service.rs",
                    field: "executor",
                    level: 2,
                },
                LockSpec {
                    file: "net/src/server.rs",
                    field: "state",
                    level: 2,
                },
                LockSpec {
                    file: "net/src/server.rs",
                    field: "conns",
                    level: 2,
                },
                LockSpec {
                    file: "core/src/dispatch.rs",
                    field: "cache",
                    level: 2,
                },
                LockSpec {
                    file: "core/src/service.rs",
                    field: "wall_ns",
                    level: 3,
                },
                LockSpec {
                    file: "core/src/service.rs",
                    field: "cycles",
                    level: 3,
                },
                LockSpec {
                    file: "core/src/dispatch.rs",
                    field: "first_error",
                    level: 3,
                },
                LockSpec {
                    file: "core/src/dispatch.rs",
                    field: "parts",
                    level: 3,
                },
                LockSpec {
                    file: "core/src/service.rs",
                    field: "slot",
                    level: 4,
                },
            ],
            lock_helpers: vec![
                LockHelperSpec {
                    file: "core/src/service.rs",
                    method: "lock_inner",
                    level: 2,
                },
                LockHelperSpec {
                    file: "core/src/service.rs",
                    method: "lock_slot",
                    level: 4,
                },
                LockHelperSpec {
                    file: "core/src/dispatch.rs",
                    method: "lock_cache",
                    level: 2,
                },
            ],
            condvar_receivers: vec!["ready", "not_empty", "not_full", "quiesced", "wake"],
            atomic_scope: vec!["crates/core/src/", "crates/net/src/", "crates/modmul/src/"],
            // Tests are in scope too: a test that sleeps is betting
            // that a timer outlasts the scheduler.
            sleep_scope: vec![
                "crates/core/src/",
                "crates/net/src/",
                "crates/core/tests/",
                "crates/net/tests/",
                "tests/",
            ],
            // The slow-tile fault doubles sleep by design.
            sleep_exempt: vec!["crates/core/src/test_util.rs"],
            data_gating_atomics: vec![
                AtomicSpec {
                    field: "stopped",
                    why: "gates whether queued state may still be trusted; \
                          pairs Release-store on shutdown with Acquire-loads",
                },
                AtomicSpec {
                    field: "draining",
                    why: "orders the drain flag before readers refuse submissions",
                },
                AtomicSpec {
                    field: "abort",
                    why: "publishes the first error before workers abandon chunks",
                },
                AtomicSpec {
                    field: "claimed",
                    why: "exactly-once chunk claim; the winner's writes must not race the loser",
                },
                AtomicSpec {
                    field: "replicas_active",
                    why: "fast-path gate for the replica map read; \
                          publish must not be reorderable before the map insert",
                },
                AtomicSpec {
                    field: "homes_full",
                    why: "gates whether the tracked-home map is consulted at all",
                },
                AtomicSpec {
                    field: "executor_panics",
                    why: "poison decisions read this across threads",
                },
                AtomicSpec {
                    field: "pardoned_panics",
                    why: "probation pardons subtract from the poison decision",
                },
            ],
            drift: Some(DriftSpec {
                registry_file: "crates/modmul/src/engine.rs",
                engine_coverage_files: &[
                    "tests/cross_engine.rs",
                    "crates/modmul/tests/proptests.rs",
                    "src/lib.rs",
                ],
                bench_bin_dir: "crates/bench/src/bin",
                ci_file: ".github/workflows/ci.yml",
                summary_file: "crates/bench/src/bin/summary.rs",
                error_file: "crates/core/src/error.rs",
                error_enum: "CoreError",
            }),
        }
    }
}
