//! # ModSRAM — reproduction of the DAC 2024 paper
//!
//! *ModSRAM: Algorithm-Hardware Co-Design for Large Number Modular
//! Multiplication in SRAM* (Ku et al., DAC 2024).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`bigint`] — big-integer arithmetic substrate ([`modsram_bigint`]).
//! * [`modmul`] — the modular-multiplication algorithm zoo, including the
//!   paper's R4CSA-LUT ([`modsram_modmul`]).
//! * [`sram`] — the behavioural 8T SRAM PIM simulator ([`modsram_sram`]).
//! * [`arch`] — the ModSRAM accelerator itself ([`modsram_core`]).
//! * [`baselines`] — prior-work comparison models ([`modsram_baselines`]).
//! * [`phys`] — 65 nm area/energy/frequency models ([`modsram_phys`]).
//! * [`rtl`] — gate-level netlists of the peripheral logic with
//!   equivalence checking, static timing, and Verilog export
//!   ([`modsram_rtl`]).
//! * [`net`] — the TCP wire front-end: a length-prefixed binary
//!   protocol, tenant auth with admission control, and a blocking
//!   client ([`modsram_net`]).
//! * [`ecc`] — elliptic curves, NTT, and MSM ([`modsram_ecc`]).
//! * [`zkp`] — the ZKP component op-count study ([`modsram_zkp`]).
//! * [`apps`] — application layer: SHA-256, ECDSA, Pedersen
//!   commitments, on-device modular exponentiation ([`modsram_apps`]).
//!
//! # Quickstart: serving, from one tile to a cluster
//!
//! Serving starts at the **tile**: a [`ModSramService`] owns one
//! macro's worth of execution — submit individual multiplications
//! from any number of threads, get a [`Ticket`] per job, and let the
//! tile's executor keep it saturated: whenever it is free it takes
//! whatever has queued up as its next batch (a multi-lane tile once a
//! producer waits on a ticket or fills a batch). The queue is bounded
//! ([`try_submit` backpressure](arch::service::SubmitHandle::try_submit)),
//! batches coalesce multiplicand-major (the paper's Table 1b reuse),
//! and [`ModSramService::shutdown`] drains every in-flight ticket:
//!
//! ```
//! use modsram::bigint::UBig;
//! use modsram::{ModSramService, MulJob, ServiceConfig};
//!
//! let service = ModSramService::for_engine_name(
//!     "r4csa-lut", // the paper's engine; any registry engine works
//!     ServiceConfig::default(),
//! ).unwrap();
//!
//! // Handles are cheap clones — one per producer thread.
//! let handle = service.handle();
//! let ticket = handle
//!     .submit(MulJob::new(UBig::from(55u64), UBig::from(44u64), UBig::from(97u64)))
//!     .unwrap();
//! assert_eq!(ticket.wait().unwrap(), UBig::from(55u64 * 44 % 97));
//!
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! assert!(stats.wall_p99_ns >= stats.wall_p50_ns);
//! ```
//!
//! A deployment serves many tenants across many macros, so the tile
//! scales out to a [`ServiceCluster`]: the same submit/ticket surface
//! over N tiles, with each job routed to its modulus's rendezvous
//! *home* tile (so per-modulus coalescing and LUT reuse survive the
//! sharding), spill to the least-loaded tile on backpressure under a
//! configurable [`SpillPolicy`], and poisoned tiles routed around:
//!
//! ```
//! use modsram::bigint::UBig;
//! use modsram::{ClusterConfig, MulJob, ServiceCluster};
//!
//! let cluster = ServiceCluster::for_engine_name(
//!     "r4csa-lut",
//!     4, // tiles
//!     ClusterConfig::default(),
//! ).unwrap();
//! let handle = cluster.handle();
//! let ticket = handle
//!     .submit(MulJob::new(UBig::from(55u64), UBig::from(44u64), UBig::from(97u64)))
//!     .unwrap();
//! assert_eq!(ticket.wait().unwrap(), UBig::from(55u64 * 44 % 97));
//!
//! let stats = cluster.shutdown();
//! assert_eq!(stats.completed, 1);
//! assert_eq!(stats.affinity_hit_rate(), 1.0); // uncontended: all home
//! ```
//!
//! Cluster membership is **elastic**: tiles can be added, drained for
//! maintenance, and re-admitted at runtime, with in-flight traffic
//! routing against epoch-versioned membership snapshots. A drain
//! pauses the tile, delivers every accepted ticket, and re-homes only
//! the moduli the tile was rank-0 for — nobody else's LUT warmth is
//! touched; probation ([`ServiceCluster::probe_tiles`]) brings a
//! recovered (drained or formerly poisoned) tile back:
//!
//! ```
//! use modsram::{ClusterConfig, ServiceCluster, TileState};
//!
//! let config = ClusterConfig { probation_after: 2, ..Default::default() };
//! let cluster = ServiceCluster::for_engine_name("r4csa-lut", 4, config).unwrap();
//! // Take tile 2 out for maintenance: admissions pause, its queue
//! // drains through the normal ticket machinery, its moduli fail over.
//! let report = cluster.drain_tile(2).unwrap();
//! assert_eq!(report.active_tiles, 3);
//! assert_eq!(cluster.tile_state(2), Some(TileState::Drained));
//! // Health probes re-admit it (probation_after consecutive passes)...
//! cluster.probe_tiles();
//! assert_eq!(cluster.probe_tiles().readmitted, vec![2]);
//! // ...and capacity can grow live with a brand-new tile.
//! use modsram::{ModSramService, ServiceConfig};
//! let extra = ModSramService::for_engine_name("r4csa-lut", ServiceConfig::default()).unwrap();
//! assert_eq!(cluster.add_tile(extra).unwrap().tile, 4);
//! cluster.shutdown();
//! ```
//!
//! Tiles need not be identical macros. Each tile carries a capacity
//! **weight** inside the same epoch-versioned membership snapshot,
//! and the weighted rendezvous router hands a 2× macro twice the
//! modulus share — equal weights reproduce the unweighted placement
//! exactly, so merely adopting weights re-homes nothing:
//!
//! ```
//! use modsram::{ClusterConfig, ServiceCluster};
//!
//! let cluster =
//!     ServiceCluster::for_engine_name("r4csa-lut", 4, ClusterConfig::default()).unwrap();
//! // Tile 0 is a double-capacity macro: one atomic epoch publish, and
//! // only moduli that move *onto* tile 0 are re-homed (each pays one
//! // context preparation — a Table 1b LUT refill — on arrival).
//! let change = cluster.set_tile_weight(0, 2).unwrap();
//! assert_eq!(cluster.tile_weight(0), Some(2));
//! // Re-publishing the same weight moves nothing.
//! assert_eq!(cluster.set_tile_weight(0, 2).unwrap().rehomed_moduli, 0);
//! cluster.shutdown();
//! ```
//!
//! Weights fix *persistent* skew; a single hot modulus under
//! [`SpillPolicy::Strict`] is transient skew, and the cluster watches
//! for exactly that. Sustained saturation over a probe window
//! promotes the modulus to a **replica set** of its top-k weighted
//! rendezvous tiles; the router then picks the replica with the most
//! queue headroom, and `probation_after` calm probes demote it again.
//! Each replica prepares its own context — one Table 1b LUT refill
//! per replica tile, paid lazily on that replica's first job — which
//! is why promotion demands sustained pressure rather than one
//! refused burst. [`ClusterStats`] surfaces the lifecycle as
//! `replicated_moduli` and `replica_routed`.
//!
//! Remote callers reach the same serving stack over TCP through the
//! [`net`] front-end: a [`net::WireServer`] fronts a tile handle or a
//! cluster handle with a length-prefixed binary protocol — tenants
//! authenticate with an API key, admission control answers
//! backpressure with typed retry-after frames instead of stalling the
//! socket, and responses stream back in completion order under
//! client-assigned request ids. The blocking [`net::WireClient`]
//! files out-of-order arrivals locally, so callers redeem ids in any
//! order:
//!
//! ```
//! use modsram::bigint::UBig;
//! use modsram::net::{
//!     NetBackend, TenantLimits, TenantRegistry, WireClient, WireConfig, WireResponse,
//!     WireServer,
//! };
//! use modsram::{ModSramService, MulJob, ServiceConfig};
//! use std::sync::Arc;
//!
//! let service = ModSramService::for_engine_name("r4csa-lut", ServiceConfig::default()).unwrap();
//! let registry = Arc::new(TenantRegistry::new());
//! registry.register("acme", 0xACE, TenantLimits::default());
//! let server = WireServer::bind(
//!     "127.0.0.1:0", // loopback; any bindable address works
//!     NetBackend::Tile(service.handle()),
//!     registry,
//!     WireConfig::default(),
//! ).unwrap();
//!
//! let mut client = WireClient::connect(server.local_addr(), "acme", 0xACE).unwrap();
//! let id = client
//!     .submit(MulJob::new(UBig::from(55u64), UBig::from(44u64), UBig::from(97u64)))
//!     .unwrap();
//! match client.wait(id).unwrap() {
//!     WireResponse::Done(product) => assert_eq!(product, UBig::from(55u64 * 44 % 97)),
//!     other => panic!("refused or failed: {other:?}"),
//! }
//! client.close().unwrap();
//! assert_eq!(server.shutdown().completed, 1);
//! service.shutdown();
//! ```
//!
//! Perfbench (`perfbench/`) times this stack end to end over loopback
//! TCP and reports the wire rung as `net.*`. The tests in
//! `crates/net/tests/` check it against the oracle through a live drain
//! (`loopback.rs`) and against an in-process closed loop (`wire_timing.rs`).
//!
//! Batch consumers — `apps::ecdsa::verify_batch`,
//! `PedersenCommitter::new_via`, `NttPlan::{forward,inverse}_via`, and
//! `msm_dispatched` over a `*_via` curve — take one `&dyn`
//! [`MulBackend`], implemented by exactly three types: a one-shot
//! [`Staged`] dispatcher + pool, a shared single-tile
//! [`ModSramService`], and a [`ServiceCluster`] where heterogeneous
//! tenants (ECDSA + Pedersen + NTT) interleave with per-modulus tile
//! affinity. Callers pass `&service`, `&cluster` or `&Staged { .. }`
//! directly; a new backend plugs in without touching a consumer.
//!
//! The [`SpillPolicy`] trade-offs (affinity and LUT-refill cost vs
//! tail latency under skew) and the add/drain/probation lifecycle are
//! documented in [`arch::cluster`].
//!
//! # The engine layer: prepare/execute
//!
//! Underneath, engines follow a **prepare/execute** split: all
//! per-modulus precomputation (Montgomery `R²`/`−p⁻¹`, Barrett `µ`,
//! R4CSA LUT rows) happens once in `prepare`, and the returned context
//! is immutable and `Send + Sync`:
//!
//! ```
//! use modsram::bigint::UBig;
//! use modsram::modmul::{ModMulEngine, R4CsaLutEngine};
//!
//! let p = UBig::from(97u64);
//! let ctx = R4CsaLutEngine::new().prepare(&p).unwrap();
//! let c = ctx.mod_mul(&UBig::from(55u64), &UBig::from(44u64)).unwrap();
//! assert_eq!(c, UBig::from((55u64 * 44) % 97));
//! ```
//!
//! The registry ([`modmul::ENGINE_REGISTRY`]) holds eight engines:
//!
//! | engine | reduction strategy | modulus | laned batch |
//! |---|---|---|---|
//! | `direct` | full product + Knuth-D remainder (the oracle) | any | — |
//! | `interleaved` | Algorithm 1 shift-add, reduce each bit | any | — |
//! | `radix4` | Algorithm 2 Booth radix-4 + Table 1b | any | — |
//! | `radix8` | radix-8 variant of Algorithm 2 | any | — |
//! | `r4csa-lut` | Algorithm 3: radix-4 + carry-save + LUTs | any | ✓ |
//! | `montgomery` | REDC in Montgomery domain | odd | ✓ |
//! | `barrett` | precomputed-reciprocal reduction | any | ✓ |
//! | `carryfree` | carry-save accumulation + bit-inspection reduction; carries propagate only at the final normalize | any | ✓ |
//! | *auto* | self-tuning: races the parity-legal engines per modulus and pins the measured winner ([`TunePolicy`]) | any | per winner |
//!
//! **When does laning win?** Engines marked ✓ transpose batches into
//! structure-of-arrays lanes ([`modmul::lanes`]) so eight independent
//! multiplications advance per limb pass. On `montgomery`, `barrett`
//! and `carryfree` the transpose amortises from roughly
//! [`modmul::LANE_MIN_PAIRS`] pairs up (below that the batch runs
//! scalar automatically); `r4csa-lut` runs every multiplication, a
//! single one included, on its laned digit loop, one lane per
//! multiplier for a short run. The win is largest when per-pair
//! bookkeeping dominates limb arithmetic: expect several-fold on the
//! bit/digit-serial engines (`r4csa-lut`, `carryfree`) and a more
//! modest but still ≥ 1.3× gain on `montgomery`/`barrett` at 256 bits,
//! shrinking as operands grow past ~2048 bits where big-integer limb
//! work dominates either way. `cargo run --release --bin hotpath`
//! regenerates `results/hotpath_sweep.json` with the numbers for your
//! host.
//!
//! # Self-tuning engine selection
//!
//! Picking from that table by hand bakes one host's trade-offs into
//! the code. The *auto* row instead lets the pool measure: under
//! [`TunePolicy::Race`] the first `prepare` of a modulus runs a
//! micro-race of every parity-legal engine on a deterministic,
//! oracle-checked calibration batch and pins the winner for that
//! modulus; the measured nanoseconds land in an [`EngineProfile`]
//! table keyed by `(bit_width, parity)`. [`TunePolicy::Profile`]
//! consumes such a table (from a prior run, or
//! `results/engine_profile.json` written by `cargo run --release
//! --bin autotune`) without racing at all, falling back to the cycle
//! models when a shape is cold, and [`TunePolicy::Pinned`] recovers
//! the old fixed-engine behaviour. Decisions survive LRU eviction,
//! and [`ServiceStats`]/[`ClusterStats`] report the tuning counters:
//!
//! ```
//! use std::sync::Arc;
//! use modsram::arch::{AutoTuner, ContextPool};
//! use modsram::bigint::UBig;
//! use modsram::TunePolicy;
//!
//! // Day one: race. The first prepare measures every candidate on an
//! // oracle-checked calibration batch and pins the winner.
//! let pool = ContextPool::auto(TunePolicy::race());
//! let p = UBig::from(1_000_003u64);
//! let c = pool.context(&p).unwrap()
//!     .mod_mul(&UBig::from(55u64), &UBig::from(44u64)).unwrap();
//! assert_eq!(c, UBig::from(55u64 * 44 % 1_000_003));
//! let tuner = pool.tuner().unwrap();
//! let chosen = tuner.chosen_engine(&p).unwrap();
//!
//! // Day two: the measured table warms a Profile pool — same winner,
//! // zero races paid.
//! let warmed = ContextPool::with_tuner(Arc::new(AutoTuner::with_profile(
//!     TunePolicy::Profile,
//!     tuner.profile_snapshot(),
//! )));
//! warmed.context(&p).unwrap();
//! assert_eq!(warmed.tuner().unwrap().chosen_engine(&p).unwrap(), chosen);
//! assert_eq!(warmed.tuner().unwrap().stats().races_run, 0);
//! ```
//!
//! The same policies plug into the serving layer via
//! [`ModSramService::auto`] and [`ServiceCluster::auto`] (one shared
//! tuner across all tiles, so a modulus races once cluster-wide).
//!
//! The cycle-accurate accelerator exposes the same two-phase API (its
//! prepared context holds a modulus-loaded device), alongside the
//! stats-returning device methods:
//!
//! ```
//! use modsram::arch::ModSram;
//! use modsram::bigint::UBig;
//!
//! let p = UBig::from(97u64);
//! let mut acc = ModSram::for_modulus(&p).unwrap();
//! let (c, stats) = acc.mod_mul(&UBig::from(55u64), &UBig::from(44u64)).unwrap();
//! assert_eq!(c, UBig::from((55u64 * 44) % 97));
//! assert!(stats.cycles > 0);
//! ```
//!
//! # Staged batches: banks, dispatch, and context pooling
//!
//! When the caller already holds a whole batch, the staged layer
//! ([`modsram_core::dispatch`]) runs it directly: batches are chunked
//! with LUT-refill-aware cost estimates, seeded least-loaded onto real
//! scoped-thread workers (with optional work stealing), and mixed-
//! modulus request streams share per-modulus preparations through a
//! [`arch::ContextPool`] (optionally LRU-bounded via
//! `ContextPool::with_capacity`). A [`arch::BankedModSram`] tile
//! routes the same machinery over per-bank prepared contexts:
//!
//! ```
//! use modsram::arch::{BankedModSram, ContextPool, Dispatcher, MulJob};
//! use modsram::bigint::UBig;
//!
//! // A 4-bank tile over prepared Montgomery contexts.
//! let p = UBig::from(1_000_003u64);
//! let tile = BankedModSram::with_engine_name(4, "montgomery", &p).unwrap();
//! let pairs = vec![(UBig::from(1234u64), UBig::from(5678u64)); 6];
//! let (results, stats) = tile.mod_mul_batch(&pairs).unwrap();
//! assert_eq!(results[0], UBig::from(1234u64 * 5678 % 1_000_003));
//! assert_eq!(stats.multiplications, 6);
//!
//! // A mixed-modulus stream through a shared pool.
//! let pool = ContextPool::for_engine_name("barrett").unwrap();
//! let jobs = vec![
//!     MulJob::new(UBig::from(5u64), UBig::from(6u64), UBig::from(97u64)),
//!     MulJob::new(UBig::from(5u64), UBig::from(6u64), UBig::from(101u64)),
//! ];
//! let (out, _) = Dispatcher::new(2).dispatch_jobs(&pool, &jobs).unwrap();
//! assert_eq!(out, vec![UBig::from(30u64), UBig::from(30u64)]);
//! ```
//!
//! # The in-repo analyzer
//!
//! The serving stack above is deeply concurrent, and its worst failure
//! modes — a panic unwinding a dispatcher worker, an inverted lock
//! pair, an `Ordering::Relaxed` on a flag that gates data — are
//! invisible to `cargo test` until they bite under load. The
//! `modsram_analyzer` crate checks them statically on every PR, as a
//! tier-1 CI step that must exit clean:
//!
//! ```sh
//! cargo run -p modsram_analyzer --release -- --deny
//! ```
//!
//! Five rule families run over a hand-rolled lexer (no external parser
//! dependencies, so the step works offline):
//!
//! * **`no_panic`** — no `unwrap`/`expect`/panic macros (and, in the
//!   queue-juggling service/server files, no slice indexing) in the
//!   declared hot-path modules: the modmul kernels, dispatch, service,
//!   cluster, and the wire server/frame codecs.
//! * **`lock_order`** — lock acquisitions respect the declared
//!   hierarchy (`membership` ≺ router maps ≺ tile queues ≺ stats
//!   reservoirs ≺ ticket slots; the full table lives in
//!   `modsram_analyzer::config`), and no known lock is held across a
//!   `Ticket::wait*` park.
//! * **`relaxed_atomic`** — `Ordering::Relaxed` on a manifest-declared
//!   data-gating atomic (`stopped`, `draining`, `replicas_active`, …)
//!   is a finding; plain counters stay relaxed.
//! * **`no_sleep`** — no `thread::sleep` in the core and net crates'
//!   non-test code: a serving path blocks on the event it waits for,
//!   not on a timer.
//! * **`drift`** — the engine registry matches the cross-engine tests
//!   and these docs, every sweep artifact a bench binary writes is
//!   uploaded and `--require`d in CI, and every `CoreError` variant is
//!   both constructed and matched.
//!
//! A finding that is intentional is suppressed *visibly* with a plain
//! line comment on the flagged line or the one above —
//! `// analyzer: allow(rule, reason)` — where the reason is mandatory;
//! reasonless or stale allows are themselves findings, and every
//! suppression is counted per rule in `results/analyzer_report.json`.

// The streaming service and its multi-tile cluster are the primary
// serving entry points; re-export them (and the job type they
// consume) at the crate root.
pub use modsram_core::autotune::{AutoTuner, AutotuneStats, EngineProfile, TunePolicy};
pub use modsram_core::cluster::{
    BulkSubmitFailure, ClusterConfig, ClusterHandle, ClusterStats, ClusterSubmitError,
    MembershipChange, ProbeReport, ServiceCluster, SpillPolicy, TileState,
};
pub use modsram_core::dispatch::MulJob;
pub use modsram_core::service::{
    ModSramService, MulBackend, ServiceConfig, ServiceStats, Staged, SubmitError, SubmitHandle,
    Ticket,
};

pub use modsram_apps as apps;
pub use modsram_baselines as baselines;
pub use modsram_bigint as bigint;
pub use modsram_core as arch;
pub use modsram_ecc as ecc;
pub use modsram_modmul as modmul;
pub use modsram_net as net;
pub use modsram_phys as phys;
pub use modsram_rtl as rtl;
pub use modsram_sram as sram;
pub use modsram_zkp as zkp;
