//! Multi-tile scale-out: a [`ServiceCluster`] routes a shared job
//! stream across N independent [`ModSramService`] tiles — the
//! multi-macro deployment shape (one ModSRAM macro per tile) that
//! LaMoS argues SRAM-CiM modular multiplication scales out to, grown
//! from this repo's single-tile streaming front-end.
//!
//! # Routing: modulus affinity first
//!
//! Every job is routed by **rendezvous hashing** on its modulus: each
//! `(modulus, tile)` pair gets a deterministic score and the job's
//! *home* is the highest-scoring routable tile. Two properties follow:
//!
//! * **Coalescing survives sharding.** All traffic for one modulus
//!   lands on one tile, so that tile's batcher still sees long
//!   modulus-major, multiplicand-major runs and the paper's Table 1b
//!   LUT reuse keeps amortising. Hashing jobs round-robin instead
//!   would shred exactly the locality the architecture is built on.
//! * **Stable under membership change.** When a tile leaves the
//!   routable set (drained, poisoned, or stopped), only the moduli
//!   homed on *that* tile move (to their next-ranked tile); every
//!   other modulus keeps the same score ordering and stays put — no
//!   global reshuffle, no cold LUT refills on healthy tiles. The same
//!   holds in reverse when a tile joins: only the moduli the new tile
//!   out-scores everywhere move onto it.
//!
//! # Elasticity: membership change at runtime
//!
//! Tile membership is an **epoch-versioned snapshot**
//! (`Arc<Membership>` behind an `RwLock`): every submission routes
//! against one consistent view, and [`ServiceCluster::add_tile`] /
//! [`ServiceCluster::drain_tile`] swap in a new snapshot atomically.
//! The lifecycle of a tile:
//!
//! ```text
//!   add_tile ─────────► Active ──drain_tile──► Draining ──(queue empty)──► Drained
//!                         ▲                                                  │
//!                         └── probe_tiles × probation_after (re-admission) ──┘
//! ```
//!
//! * **Draining** ([`ServiceCluster::drain_tile`]) pauses the tile's
//!   admissions (the [`ModSramService::pause_admissions`] seam), lets
//!   the existing ticket machinery deliver every already-accepted job,
//!   and re-homes *only* the moduli whose rendezvous rank-0 was the
//!   drained tile — the minimal-disruption property consistent-hashing
//!   caches rely on, proven by the `elasticity` proptest. The tile is
//!   never shut down, so it can return.
//! * **Probation** ([`ServiceCluster::probe_tiles`]) is how a drained
//!   or poisoned tile re-earns traffic: each probe passes when the
//!   tile is live and its caught-panic count has not grown since the
//!   previous probe; after [`ClusterConfig::probation_after`]
//!   consecutive passes the tile re-enters the routable set (drained
//!   tiles resume admissions; poisoned tiles get their panic count
//!   pardoned). Re-homing runs again, moving only the returning
//!   tile's moduli back.
//! * **Growing** ([`ServiceCluster::add_tile`]) appends a tile at a
//!   fresh index. Tile indices are stable for the life of the cluster
//!   (they are the rendezvous hash inputs), so draining never renumbers
//!   survivors — a drained tile's slot stays occupied until probation
//!   re-admits it.
//!
//! Re-homing invalidates LUT warmth: a moved modulus pays one context
//! preparation (Table 1b fill) on its new home, which is exactly why
//! only the moved tile's share of moduli — `1/active_tiles` of the
//! tracked set in expectation — may move per membership change.
//! [`ClusterStats::moduli_rehomed`] counts those moves.
//!
//! # Weighted routing: heterogeneous macros
//!
//! Tiles need not be equal: a tile backed by a bigger macro (or more
//! workers) can carry a proportionally larger modulus share via its
//! **capacity weight**. Weights live *inside* the epoch-versioned
//! membership snapshot, so [`ServiceCluster::set_tile_weight`] /
//! [`ServiceCluster::add_tile_weighted`] are one atomic publish plus
//! the same minimal re-home pass a drain runs — in-flight submissions
//! keep routing against the consistent snapshot they took. The score
//! uses the logarithmic method (`weight / -ln(u)` with `u` derived
//! from the rendezvous mix), which has two properties the tests pin:
//!
//! * **Equal weights ≡ legacy.** A cluster with every weight at 1
//!   places every modulus exactly where the unweighted router did —
//!   republishing weight 1 re-homes zero moduli.
//! * **Monotonicity.** Raising one tile's weight only ever pulls
//!   moduli *onto* that tile; no modulus homed elsewhere moves
//!   between two unchanged tiles. Each pulled modulus pays the usual
//!   one context preparation on its new home.
//!
//! The standalone planners have weighted variants
//! ([`weighted_home_tile_for`], [`weighted_rendezvous_ranking`]).
//!
//! # Hot-modulus replication
//!
//! Affinity routing's failure mode is a single modulus hot enough to
//! saturate its home tile while neighbours idle — under
//! [`SpillPolicy::Strict`] nothing relieves it. The cluster watches
//! for exactly that signature: every submission that finds **all** of
//! its allowed tiles full records one *saturation event* against its
//! modulus, and each [`ServiceCluster::probe_tiles`] pass closes a
//! window over those events. A modulus whose window delta reaches
//! [`ClusterConfig::replicate_after`] is **promoted** to a replica
//! set: its top-[`ClusterConfig::replica_tiles`] weighted rendezvous
//! tiles. From then on the router sends its jobs to the replica with
//! the most queue headroom (bypassing the spill policy — every
//! replica holds the modulus's prepared context, so coalescing and
//! LUT reuse survive), which is what turns one saturated macro into k
//! macros sharing the flood. The cost is one context preparation — a
//! Table 1b LUT refill on the ModSRAM backend — per replica tile,
//! paid lazily on each replica's first job, which is why promotion
//! demands *sustained* saturation rather than one refused burst.
//! Once the modulus stays calm for
//! [`ClusterConfig::probation_after`] consecutive probes it is
//! **demoted** back to plain single-home routing (the same probation
//! cadence sick tiles use). Replica sets are rebuilt on every
//! membership change and surfaced through
//! [`ClusterStats::replicated_moduli`] /
//! [`ClusterStats::replica_routed`] and
//! [`ProbeReport::promoted`] / [`ProbeReport::demoted`].
//!
//! # Backpressure: spill policies and their trade-off
//!
//! Each tile's queue is bounded, so the router must decide what to do
//! when a job's home tile refuses it with `QueueFull`. That choice is
//! the [`SpillPolicy`], and it is a genuine trade-off, not a free
//! knob:
//!
//! * [`SpillPolicy::Strict`] — never leave the home tile. Preserves
//!   perfect per-modulus affinity (every LUT refill for a modulus is
//!   paid on exactly one tile) and keeps per-tenant interference
//!   zero, at the cost of head-of-line blocking: a hot tenant
//!   saturates its home tile while neighbours idle. Non-blocking
//!   submission surfaces the saturation as
//!   [`CoreError::AllTilesSaturated`] so an upstream load-shedder can
//!   act; blocking submission waits for the home queue.
//! * [`SpillPolicy::Spill`] — after the home refuses, try up to
//!   `max_hops` other tiles, least-loaded (most queue headroom)
//!   first. Tail latency under skew improves — work flows to idle
//!   macros — but each spilled modulus is *prepared again* on the
//!   spill tile (a context-pool miss: Montgomery constants, Barrett
//!   µ, or a full Table 1b LUT fill) and the spill tile's batcher
//!   coalesces a foreign modulus it will likely never see again, so
//!   its resident tenants lose some multiplicand-run length. Spilling
//!   buys throughput under overload by diluting the very locality
//!   affinity routing exists to protect — which is why `max_hops`
//!   bounds the dilution.
//!
//! Blocking [`ClusterHandle::submit`] falls back to waiting on the
//! home tile once every allowed tile has refused without blocking; if
//! the home stops or drains mid-wait, the submission **re-routes**
//! against a fresh membership view instead of failing — the cluster
//! only reports [`ClusterSubmitError::Stopped`] when no routable tile
//! remains. Non-blocking [`ClusterHandle::try_submit`] refuses
//! instead.
//!
//! # Fault containment
//!
//! Tiles fail independently. A panicking context (see
//! [`crate::test_util::FailingPrepared`]) unwinds one executor, whose
//! guard fails that batch's tickets — waiters get
//! [`ServiceError::Stopped`](crate::service::ServiceError::Stopped)
//! instead of hanging, and other tiles never notice. The router
//! consults each tile's [`TileHealth`] and, once a tile's caught-panic
//! count (minus any probation pardon) reaches
//! [`ClusterConfig::poison_after`], treats it as poisoned and routes
//! around it (its moduli fail over to their next-ranked tile).
//! [`ServiceCluster::shutdown`] fans out to every tile and drains each
//! accepted ticket exactly once.
//!
//! # Examples
//!
//! ```
//! use modsram_bigint::UBig;
//! use modsram_core::cluster::{ClusterConfig, ServiceCluster};
//! use modsram_core::dispatch::MulJob;
//!
//! let cluster =
//!     ServiceCluster::for_engine_name("montgomery", 2, ClusterConfig::default()).unwrap();
//! let ticket = cluster
//!     .submit(MulJob::new(UBig::from(55u64), UBig::from(44u64), UBig::from(97u64)))
//!     .unwrap();
//! assert_eq!(ticket.wait().unwrap(), UBig::from(55u64 * 44 % 97));
//! let stats = cluster.shutdown();
//! assert_eq!(stats.completed, 1);
//! assert_eq!(stats.affinity_hits, 1);
//! ```
//!
//! Live membership change — drain a tile, let probation re-admit it:
//!
//! ```
//! use modsram_core::cluster::{ClusterConfig, ServiceCluster, TileState};
//!
//! let config = ClusterConfig { probation_after: 2, ..Default::default() };
//! let cluster = ServiceCluster::for_engine_name("barrett", 3, config).unwrap();
//! let report = cluster.drain_tile(1).unwrap();
//! assert_eq!(cluster.tile_state(1), Some(TileState::Drained));
//! assert_eq!(report.active_tiles, 2);
//! // Two clean probes later the tile is routable again.
//! cluster.probe_tiles();
//! let probe = cluster.probe_tiles();
//! assert_eq!(probe.readmitted, vec![1]);
//! assert_eq!(cluster.tile_state(1), Some(TileState::Active));
//! cluster.shutdown();
//! ```

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use modsram_bigint::UBig;
use modsram_modmul::{ModMulError, PreparedModMul};

use crate::autotune::{AutoTuner, AutotuneStats, TunePolicy};
use crate::dispatch::{ContextPool, MulJob};
use crate::error::CoreError;
use crate::modsram::ModSramConfig;
use crate::service::{
    backend_error, ticket_result, ModSramService, ServiceConfig, ServiceStats, SubmitError, Ticket,
    TileHealth,
};

/// What the router does when a job's home tile refuses it with
/// `QueueFull` (see the module docs for the trade-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillPolicy {
    /// Stay on the home tile: block there ([`ClusterHandle::submit`])
    /// or refuse with [`CoreError::AllTilesSaturated`]
    /// ([`ClusterHandle::try_submit`]).
    Strict,
    /// Try up to `max_hops` other live tiles, most queue headroom
    /// first, before blocking on (or refusing for) the home tile.
    Spill {
        /// Maximum non-home tiles to try per submission.
        max_hops: usize,
    },
}

impl Default for SpillPolicy {
    /// One spill hop: relieves hot-tenant skew while keeping LUT
    /// dilution bounded to a single foreign tile per overloaded burst.
    fn default() -> Self {
        SpillPolicy::Spill { max_hops: 1 }
    }
}

/// Tuning knobs of a [`ServiceCluster`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Backpressure policy (see [`SpillPolicy`]).
    pub spill: SpillPolicy,
    /// Per-tile service configuration (every tile the cluster builds
    /// itself is configured identically; heterogeneous tiles can be
    /// built via [`ServiceCluster::from_services`] or added live via
    /// [`ServiceCluster::add_tile`]).
    pub service: ServiceConfig,
    /// Caught executor panics after which a tile is considered
    /// poisoned and routed around (`0` disables poison detection).
    pub poison_after: u64,
    /// Consecutive passing [`ServiceCluster::probe_tiles`] checks after
    /// which a drained tile is re-admitted to the routable set (and a
    /// poisoned tile's panic count is pardoned). `0` disables
    /// probation: drained tiles sit out until shutdown. Hot-modulus
    /// replica sets also de-replicate after this many consecutive
    /// calm probes.
    pub probation_after: u64,
    /// Saturation events (submissions that found every allowed tile
    /// full) one modulus must accumulate between two
    /// [`ServiceCluster::probe_tiles`] passes before it is promoted to
    /// a replica set of its top-k weighted rendezvous tiles. `0`
    /// disables hot-modulus replication entirely.
    pub replicate_after: u64,
    /// Replica-set size for a promoted hot modulus (the `k` in top-k;
    /// values below 2 are treated as 2 — a 1-replica set is just the
    /// home tile again). Each replica tile pays one context
    /// preparation (a Table 1b LUT refill for the ModSRAM backend) for
    /// the replicated modulus.
    pub replica_tiles: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            spill: SpillPolicy::default(),
            service: ServiceConfig::default(),
            poison_after: 3,
            probation_after: 3,
            replicate_after: 64,
            replica_tiles: 2,
        }
    }
}

/// Why the cluster refused a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterSubmitError {
    /// Every tile the spill policy allowed is at queue capacity
    /// ([`ClusterHandle::try_submit`] only — blocking submission waits
    /// on the home tile instead).
    AllTilesSaturated {
        /// Tiles whose queues refused the job.
        tried: usize,
    },
    /// The cluster (or every routable tile) has shut down.
    Stopped,
}

impl core::fmt::Display for ClusterSubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClusterSubmitError::AllTilesSaturated { tried } => {
                write!(f, "all {tried} tile(s) the spill policy allows are full")
            }
            ClusterSubmitError::Stopped => write!(f, "cluster has shut down"),
        }
    }
}

impl std::error::Error for ClusterSubmitError {}

impl From<ClusterSubmitError> for CoreError {
    fn from(e: ClusterSubmitError) -> Self {
        match e {
            ClusterSubmitError::AllTilesSaturated { tried } => {
                CoreError::AllTilesSaturated { tried }
            }
            ClusterSubmitError::Stopped => CoreError::ClusterStopped,
        }
    }
}

/// A bulk submission that could not queue every job: the error plus
/// the tickets of the jobs that **were** accepted before the cluster
/// lost its last routable tile. Those jobs still execute and drain —
/// dropping their tickets would strand waiters on work that will run
/// anyway, so the router hands them back instead.
#[derive(Debug)]
pub struct BulkSubmitFailure {
    /// Why the remainder could not be queued.
    pub error: ClusterSubmitError,
    /// `(job index, ticket)` for every job that was accepted, in job
    /// order. Indices refer to the submitted `Vec<MulJob>`.
    pub accepted: Vec<(usize, Ticket)>,
}

impl core::fmt::Display for BulkSubmitFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "bulk submission failed ({}) after {} job(s) were accepted",
            self.error,
            self.accepted.len()
        )
    }
}

impl std::error::Error for BulkSubmitFailure {}

/// Where a tile sits in the membership lifecycle (see the module
/// docs' elasticity section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileState {
    /// In the routable set.
    Active,
    /// [`ServiceCluster::drain_tile`] is pausing admissions and
    /// waiting for the tile's accepted tickets to deliver.
    Draining,
    /// Fully drained and out of the routable set; eligible for
    /// probation re-admission via [`ServiceCluster::probe_tiles`].
    Drained,
}

/// The outcome of one membership change ([`ServiceCluster::add_tile`]
/// or [`ServiceCluster::drain_tile`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipChange {
    /// The membership epoch after the change.
    pub epoch: u64,
    /// The tile that was added or drained.
    pub tile: usize,
    /// Tracked moduli whose natural home moved because of this change
    /// (a subset of the moduli the router has seen; see
    /// [`ClusterStats::tracked_moduli`]).
    pub rehomed_moduli: u64,
    /// Routable tiles after the change.
    pub active_tiles: usize,
}

/// The outcome of one [`ServiceCluster::probe_tiles`] pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProbeReport {
    /// Drained tiles that completed probation and re-entered the
    /// routable set on this pass.
    pub readmitted: Vec<usize>,
    /// Poisoned-but-active tiles whose panic count was pardoned on
    /// this pass (they become routable again without a membership
    /// change).
    pub unpoisoned: Vec<usize>,
    /// Hot moduli promoted to a replica set on this pass (their
    /// saturation-event delta since the previous pass reached
    /// [`ClusterConfig::replicate_after`]).
    pub promoted: Vec<UBig>,
    /// Replicated moduli demoted back to single-home routing on this
    /// pass (calm for [`ClusterConfig::probation_after`] consecutive
    /// passes).
    pub demoted: Vec<UBig>,
}

/// One tile plus its routing tallies and probation bookkeeping.
///
/// The service is behind an `Arc` so out-of-band consumers (the wire
/// front-end, health scrapers) can hold a tile's submission seam via
/// [`ServiceCluster::tile_service`] while the cluster keeps routing to
/// it — both sides observe the same admissions gate.
struct TileCell {
    service: Arc<ModSramService>,
    /// Jobs accepted with this tile as their natural home.
    routed: AtomicU64,
    /// Jobs accepted here after spilling (or failing over) from
    /// another tile's home.
    spilled_in: AtomicU64,
    /// Panics forgiven by a completed probation: the poison check
    /// compares `executor_panics - pardoned_panics` against
    /// `poison_after`, so a recovered tile starts from a clean slate
    /// without the lifetime counter ever going backwards.
    pardoned_panics: AtomicU64,
    /// Consecutive passing probation probes.
    probe_ok: AtomicU64,
    /// Panic count observed by the previous probe (a probe passes only
    /// when this has not grown).
    probe_last_panics: AtomicU64,
}

impl TileCell {
    fn new(service: Arc<ModSramService>) -> Self {
        TileCell {
            service,
            routed: AtomicU64::new(0),
            spilled_in: AtomicU64::new(0),
            pardoned_panics: AtomicU64::new(0),
            probe_ok: AtomicU64::new(0),
            probe_last_panics: AtomicU64::new(0),
        }
    }
}

/// 64-bit finaliser (splitmix64) — mixes the modulus key with a tile
/// index into a rendezvous score.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The prepared-modulus routing key: equal moduli map to equal keys,
/// so all traffic for one prepared context shares one home tile.
fn modulus_key(p: &UBig) -> u64 {
    let mut h = DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// The weighted rendezvous score of `(modulus key, tile, weight)` —
/// **the single definition** of both the score and its tie-break,
/// shared by [`home_tile_for`] / [`weighted_home_tile_for`], the
/// router's hot-path argmax, and the full ranking, so they can never
/// drift. Higher is better.
///
/// The score uses the logarithmic method for weighted rendezvous
/// hashing: the mix is mapped to `u ∈ (0, 1)` and the score is
/// `weight / -ln(u)`, which makes each tile's win probability exactly
/// proportional to its weight. Because `u` is monotone in the mix,
/// **equal weights reproduce the unweighted mix ordering exactly** —
/// a weight-1 cluster places every modulus where the legacy
/// unweighted router did. Ties (the f64 mapping collapses nearby
/// mixes) fall back to the raw mix, then to the lower tile index
/// (`Reverse`), so the ordering stays total and deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RendezvousScore {
    score: f64,
    mix: u64,
    tie: std::cmp::Reverse<usize>,
}

impl Eq for RendezvousScore {}

impl Ord for RendezvousScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then(self.mix.cmp(&other.mix))
            .then(self.tie.cmp(&other.tie))
    }
}

impl PartialOrd for RendezvousScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

fn rendezvous_score(key: u64, tile: usize, weight: u32) -> RendezvousScore {
    let mix = mix64(key ^ (tile as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Top 52 mix bits → odd 53-bit numerator / 2^53: exactly
    // representable, strictly inside (0, 1) at both ends (so `ln` is
    // finite and negative), and monotone in the mix — the property the
    // equal-weights-≡-legacy guarantee rests on.
    let u = (((mix >> 12) << 1) | 1) as f64 / (1u64 << 53) as f64;
    RendezvousScore {
        score: weight as f64 / -u.ln(),
        mix,
        tie: std::cmp::Reverse(tile),
    }
}

/// The natural home tile for modulus `p` in a cluster of `tiles`
/// equal-weight tiles — the same deterministic rendezvous placement a
/// live [`ServiceCluster`] of that size computes (with every tile
/// active at weight 1), exposed standalone so workload planners
/// (capacity sizing, sweep generators) can predict placement without
/// standing a cluster up. `None` when `tiles == 0`, consistent with
/// [`rendezvous_ranking`] returning the empty ranking (and with the
/// membership's own `natural_home` when no tile is routable).
pub fn home_tile_for(p: &UBig, tiles: usize) -> Option<usize> {
    let key = modulus_key(p);
    (0..tiles).max_by_key(|&i| rendezvous_score(key, i, 1))
}

/// Tile indices `0..tiles` in rendezvous order (best score first,
/// equal weights) for modulus `p` — the full failover ranking behind
/// [`home_tile_for`] (which is its first element). Drain planners use
/// the second-ranked tile to predict where a modulus lands when its
/// home leaves.
pub fn rendezvous_ranking(p: &UBig, tiles: usize) -> Vec<usize> {
    let key = modulus_key(p);
    let mut order: Vec<usize> = (0..tiles).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(rendezvous_score(key, i, 1)));
    order
}

/// The weighted natural home for modulus `p` over a fleet described
/// by one capacity weight per tile: tile `i`'s probability of homing
/// a random modulus is `weights[i] / Σ weights`. With all weights
/// equal this is exactly [`home_tile_for`] — the placement the legacy
/// unweighted router computes. A zero-weight tile scores 0 and never
/// wins while any positive-weight tile exists (the live cluster
/// refuses weight 0 outright; see
/// [`ServiceCluster::set_tile_weight`]). `None` when `weights` is
/// empty.
pub fn weighted_home_tile_for(p: &UBig, weights: &[u32]) -> Option<usize> {
    let key = modulus_key(p);
    (0..weights.len()).max_by_key(|&i| rendezvous_score(key, i, weights[i]))
}

/// Tile indices `0..weights.len()` in weighted rendezvous order (best
/// score first) for modulus `p` — the weighted analogue of
/// [`rendezvous_ranking`], and the ranking hot-modulus replication
/// takes its top-k replica tiles from.
pub fn weighted_rendezvous_ranking(p: &UBig, weights: &[u32]) -> Vec<usize> {
    let key = modulus_key(p);
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(rendezvous_score(key, i, weights[i])));
    order
}

/// One epoch-versioned membership snapshot: which tiles exist and
/// which are routable. Submissions clone the `Arc` once and route
/// against a consistent view; membership changes publish a new
/// snapshot instead of mutating this one.
struct Membership {
    epoch: u64,
    tiles: Vec<Arc<TileCell>>,
    states: Vec<TileState>,
    /// Per-tile capacity weight (never 0 — [`ServiceCluster`] refuses
    /// zero weights). Lives *inside* the snapshot so a weight change
    /// is one atomic epoch publish and in-flight submissions keep
    /// routing against a consistent weighted view.
    weights: Vec<u32>,
}

impl Membership {
    fn routable(&self, tile: usize) -> bool {
        self.states[tile] == TileState::Active
    }

    fn active_count(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s == TileState::Active)
            .count()
    }

    fn score(&self, key: u64, tile: usize) -> RendezvousScore {
        rendezvous_score(key, tile, self.weights[tile])
    }

    /// Rank-0 routable tile for a modulus key; `None` when no tile is
    /// routable (all drained/draining).
    fn natural_home(&self, key: u64) -> Option<usize> {
        (0..self.tiles.len())
            .filter(|&i| self.routable(i))
            .max_by_key(|&i| self.score(key, i))
    }

    /// Routable tile indices in weighted rendezvous order (best score
    /// first) — deterministic for a given key and membership.
    fn ranked(&self, key: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.tiles.len())
            .filter(|&i| self.routable(i))
            .collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.score(key, i)));
        order
    }
}

/// Bound on the tracked-modulus map: beyond this many distinct moduli
/// the router stops recording new ones (re-home statistics become a
/// sample; routing itself is unaffected).
const TRACKED_MODULI_CAP: usize = 1 << 16;

/// Bound on the saturation-event map hot-modulus replication watches:
/// beyond this many distinct saturating moduli, new ones are no
/// longer candidates for promotion (existing replica sets are
/// unaffected).
const SATURATION_TRACK_CAP: usize = 1 << 12;

/// One promoted hot modulus: the replica tiles serving it and the
/// calm-probe counter that eventually demotes it.
struct ReplicaEntry {
    /// The replicated modulus (for reporting demotions).
    p: UBig,
    /// Top-k weighted rendezvous tiles at promotion time, rebuilt on
    /// every membership change (rank 0 is the natural home).
    tiles: Vec<usize>,
    /// Consecutive probe passes without a new saturation event;
    /// reaching `probation_after` demotes the modulus.
    calm: u64,
}

/// Per-modulus saturation bookkeeping feeding promotion decisions.
struct SatWindow {
    /// The saturating modulus itself, kept so promotion can report it
    /// and future warm-up hooks can prepare replica contexts eagerly.
    p: UBig,
    /// Lifetime saturation events for this modulus.
    events: u64,
    /// `events` as of the previous [`ServiceCluster::probe_tiles`]
    /// pass — the delta over one probe window drives promotion.
    seen: u64,
}

/// State shared by the cluster front, its handles, and its prepared
/// façades.
struct ClusterShared {
    membership: RwLock<Arc<Membership>>,
    spill: SpillPolicy,
    poison_after: u64,
    probation_after: u64,
    replicate_after: u64,
    replica_tiles: usize,
    stopped: AtomicBool,
    affinity_hits: AtomicU64,
    spilled: AtomicU64,
    saturated_rejections: AtomicU64,
    replica_routed: AtomicU64,
    tiles_added: AtomicU64,
    tiles_drained: AtomicU64,
    tiles_readmitted: AtomicU64,
    moduli_rehomed: AtomicU64,
    /// Moduli the router has routed, keyed by [`modulus_key`], each
    /// with its last-known natural home — the sample set membership
    /// changes walk to count (and republish) re-homings.
    homes: RwLock<HashMap<u64, usize>>,
    /// Set once `homes` reaches [`TRACKED_MODULI_CAP`], so the
    /// submission hot path stops touching the map's lock entirely.
    homes_full: AtomicBool,
    /// Per-modulus saturation events, keyed by [`modulus_key`] —
    /// written by refused/blocked submissions, read by the promotion
    /// pass in [`ServiceCluster::probe_tiles`].
    saturation: RwLock<HashMap<u64, SatWindow>>,
    /// Currently replicated hot moduli, keyed by [`modulus_key`].
    replicas: RwLock<HashMap<u64, ReplicaEntry>>,
    /// Mirror of `replicas.len()`: lets the submission hot path skip
    /// the replica map's lock entirely while nothing is replicated —
    /// the common case.
    replicas_active: AtomicU64,
}

impl ClusterShared {
    /// The current membership snapshot (one `Arc` clone).
    fn snapshot(&self) -> Arc<Membership> {
        Arc::clone(
            &self
                .membership
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Whether a tile may be targeted at all: routable in this
    /// membership, not stopped, not paused, and not poisoned.
    fn usable(&self, m: &Membership, tile: usize) -> bool {
        m.routable(tile) && self.usable_health(&m.tiles[tile], &m.tiles[tile].service.health())
    }

    /// [`ClusterShared::usable`]'s health half over an already-taken
    /// snapshot, so callers that also need capacity probe each tile
    /// only once.
    fn usable_health(&self, cell: &TileCell, health: &TileHealth) -> bool {
        !health.stopped && !health.paused && !self.poisoned(cell, health)
    }

    /// Poison check with the probation pardon applied.
    fn poisoned(&self, cell: &TileCell, health: &TileHealth) -> bool {
        self.poison_after != 0
            && health
                .executor_panics
                // analyzer: allow(relaxed_atomic, monotonic pardon counter; a stale read only delays or hastens one poison verdict by a single probe)
                .saturating_sub(cell.pardoned_panics.load(Ordering::Relaxed))
                >= self.poison_after
    }

    /// Records a first-seen modulus in the tracked-home map (bounded
    /// by [`TRACKED_MODULI_CAP`]): once the cap is hit a `Relaxed`
    /// flag short-circuits the whole thing, and before that the fast
    /// path is one uncontended read lock + probe — cheap next to the
    /// tile-queue mutex every submission takes anyway, and the price
    /// of per-membership-change re-home accounting.
    fn track_home(&self, key: u64, natural: usize) {
        // analyzer: allow(relaxed_atomic, one-way latch written under the homes write lock; a stale false costs one extra locked probe and can never lose a home)
        if self.homes_full.load(Ordering::Relaxed) {
            return;
        }
        {
            let homes = self.homes.read().unwrap_or_else(PoisonError::into_inner);
            if homes.contains_key(&key) {
                return;
            }
        }
        let mut homes = self.homes.write().unwrap_or_else(PoisonError::into_inner);
        if homes.len() < TRACKED_MODULI_CAP {
            homes.entry(key).or_insert(natural);
        } else {
            // analyzer: allow(relaxed_atomic, latch set while holding the homes write lock that guards the state it summarises)
            self.homes_full.store(true, Ordering::Relaxed);
        }
    }

    /// Re-computes every tracked modulus's natural home against a new
    /// membership, counting (and recording) the ones that moved, and
    /// rebuilds every live replica set against the new weighted
    /// ranking. Called with the membership write lock held, so
    /// concurrent membership changes serialise their re-home
    /// accounting.
    fn rehome_tracked(&self, m: &Membership) -> u64 {
        let mut homes = self.homes.write().unwrap_or_else(PoisonError::into_inner);
        let mut moved = 0u64;
        for (key, home) in homes.iter_mut() {
            if let Some(natural) = m.natural_home(*key) {
                if natural != *home {
                    *home = natural;
                    moved += 1;
                }
            }
        }
        drop(homes);
        self.moduli_rehomed.fetch_add(moved, Ordering::Relaxed);
        // Acquire pairs with replication_pass's Release store: a
        // non-zero count means the replica map it summarises is
        // visible, so the rebuild below touches every live entry.
        if self.replicas_active.load(Ordering::Acquire) > 0 {
            let mut replicas = self
                .replicas
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            for (key, entry) in replicas.iter_mut() {
                entry.tiles = m
                    .ranked(*key)
                    .into_iter()
                    .take(self.replica_tiles.max(2))
                    .collect();
            }
        }
        moved
    }

    /// Records one saturation event for a modulus: every submission
    /// that found all its allowed tiles full bumps this, and the
    /// promotion pass in [`ServiceCluster::probe_tiles`] compares the
    /// delta over a probe window against
    /// [`ClusterConfig::replicate_after`].
    fn note_saturation(&self, key: u64, p: &UBig) {
        if self.replicate_after == 0 {
            return;
        }
        let mut sat = self
            .saturation
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(window) = sat.get_mut(&key) {
            window.events += 1;
        } else if sat.len() < SATURATION_TRACK_CAP {
            sat.insert(
                key,
                SatWindow {
                    p: p.clone(),
                    events: 1,
                    seen: 0,
                },
            );
        }
    }

    /// The usable replica tiles for a replicated modulus, most queue
    /// headroom first — `None` when the modulus is not replicated (the
    /// hot path's one `Relaxed` load answers that without a lock) or
    /// when every replica is unusable (normal routing takes over).
    fn replica_candidates(&self, m: &Membership, key: u64) -> Option<Vec<usize>> {
        // Acquire pairs with replication_pass's Release store so the
        // hot path that sees a non-zero count also sees the promoted
        // entries behind it (this load gates reading the replica map).
        if self.replicas_active.load(Ordering::Acquire) == 0 {
            return None;
        }
        let replicas = self.replicas.read().unwrap_or_else(PoisonError::into_inner);
        let entry = replicas.get(&key)?;
        let mut live: Vec<(usize, usize)> = entry
            .tiles
            .iter()
            .copied()
            .filter(|&t| t < m.tiles.len() && m.routable(t))
            .filter_map(|t| {
                let health = m.tiles[t].service.health();
                self.usable_health(&m.tiles[t], &health)
                    .then(|| (health.headroom(), t))
            })
            .collect();
        if live.is_empty() {
            return None;
        }
        live.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        Some(live.into_iter().map(|(_, t)| t).collect())
    }

    /// One promotion/demotion pass over the saturation windows, run by
    /// [`ServiceCluster::probe_tiles`]: a modulus whose saturation
    /// delta since the previous pass reaches `replicate_after` is
    /// promoted to its top-k weighted rendezvous tiles; a replicated
    /// modulus that stayed calm for `probation_after` consecutive
    /// passes is demoted back to single-home routing.
    fn replication_pass(&self, m: &Membership, report: &mut ProbeReport) {
        let mut sat = self
            .saturation
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let mut replicas = self
            .replicas
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let demote_after = self.probation_after.max(1);
        let mut demote = Vec::new();
        for (key, window) in sat.iter_mut() {
            let delta = window.events - window.seen;
            window.seen = window.events;
            if let Some(entry) = replicas.get_mut(key) {
                if delta == 0 {
                    entry.calm += 1;
                    if entry.calm >= demote_after {
                        demote.push(*key);
                    }
                } else {
                    entry.calm = 0;
                }
            } else if delta >= self.replicate_after {
                let tiles: Vec<usize> = m
                    .ranked(*key)
                    .into_iter()
                    .take(self.replica_tiles.max(2))
                    .collect();
                // A replica set needs at least two live tiles to be
                // more than the home it already has.
                if tiles.len() >= 2 {
                    report.promoted.push(window.p.clone());
                    replicas.insert(
                        *key,
                        ReplicaEntry {
                            p: window.p.clone(),
                            tiles,
                            calm: 0,
                        },
                    );
                }
            }
        }
        for key in demote {
            if let Some(entry) = replicas.remove(&key) {
                report.demoted.push(entry.p);
            }
        }
        // Release publishes the promotions/demotions above to the
        // Acquire loads that gate the lock-free fast path.
        self.replicas_active
            .store(replicas.len() as u64, Ordering::Release);
    }

    /// The home tile for a modulus key under membership `m`: the
    /// natural (rank-0 routable) tile when it is usable — the common
    /// case, probed with one health check — otherwise the first usable
    /// tile in routable rendezvous order. `None` when every routable
    /// tile is stopped or poisoned (or none is routable).
    fn route(&self, m: &Membership, key: u64) -> Option<(usize, usize)> {
        let natural = m.natural_home(key)?;
        self.track_home(key, natural);
        if self.usable(m, natural) {
            return Some((natural, natural));
        }
        m.ranked(key)
            .into_iter()
            .find(|&i| self.usable(m, i))
            .map(|home| (home, natural))
    }

    /// Records an accepted job: per-tile tallies plus the cluster's
    /// affinity accounting (`natural` is the rank-0 routable tile the
    /// modulus hashes to, `landed` where the job was actually
    /// accepted). A landing on any member of the modulus's replica set
    /// counts as an affinity hit — the replica holds a prepared
    /// context for that modulus by design, so its coalescing and LUT
    /// reuse are intact — and as `replica_routed` when it was not the
    /// natural home.
    fn record(&self, m: &Membership, landed: usize, natural: usize, replicas: Option<&[usize]>) {
        let on_replica = replicas.is_some_and(|r| r.contains(&landed));
        if landed == natural || on_replica {
            m.tiles[landed].routed.fetch_add(1, Ordering::Relaxed);
            self.affinity_hits.fetch_add(1, Ordering::Relaxed);
            if on_replica && landed != natural {
                self.replica_routed.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            m.tiles[landed].spilled_in.fetch_add(1, Ordering::Relaxed);
            self.spilled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spill candidates for a job homed on `home`: usable non-home
    /// tiles, most queue headroom first, truncated to the policy's hop
    /// budget. Empty under [`SpillPolicy::Strict`].
    fn spill_candidates(&self, m: &Membership, home: usize) -> Vec<usize> {
        let SpillPolicy::Spill { max_hops } = self.spill else {
            return Vec::new();
        };
        let mut others: Vec<(usize, usize)> = (0..m.tiles.len())
            .filter(|&i| i != home && m.routable(i))
            .filter_map(|i| {
                // One health probe per tile covers both liveness and
                // headroom — this runs on the overloaded path, where
                // extra lock traffic on tile queues hurts most.
                let health = m.tiles[i].service.health();
                self.usable_health(&m.tiles[i], &health)
                    .then(|| (health.headroom(), i))
            })
            .collect();
        others.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        others.into_iter().map(|(_, i)| i).take(max_hops).collect()
    }

    fn submit_inner(&self, job: MulJob, block: bool) -> Result<Ticket, ClusterSubmitError> {
        let key = modulus_key(&job.modulus);
        // The blocking path may find its home tile gone (stopped or
        // drained) by the time its queue wait resolves; re-route
        // against a fresh membership/health view instead of reporting
        // the whole cluster down. Bounded: each retry needs the home
        // to have changed state, capped defensively against flapping.
        let mut reroutes = 0usize;
        loop {
            if self.stopped.load(Ordering::Acquire) {
                return Err(ClusterSubmitError::Stopped);
            }
            let m = self.snapshot();
            let Some((home, natural)) = self.route(&m, key) else {
                return Err(ClusterSubmitError::Stopped);
            };

            // A replicated hot modulus routes across its replica set,
            // most headroom first, instead of home-then-spill; the
            // spill policy is bypassed because every replica already
            // holds the modulus's prepared context.
            let replicas = self.replica_candidates(&m, key);
            let candidates = match &replicas {
                Some(r) => r.clone(),
                None => {
                    let mut c = vec![home];
                    c.extend(self.spill_candidates(&m, home));
                    c
                }
            };
            // The tile the blocking fall-through waits on: the best
            // replica for a replicated modulus, the home otherwise.
            let anchor = candidates[0];
            let tried = candidates.len();
            for tile in candidates {
                match m.tiles[tile].service.try_submit(job.clone()) {
                    Ok(ticket) => {
                        self.record(&m, tile, natural, replicas.as_deref());
                        return Ok(ticket);
                    }
                    // Full, draining, or racing its own shutdown: move
                    // to the next tile the policy allows.
                    Err(SubmitError::QueueFull)
                    | Err(SubmitError::Stopped)
                    | Err(SubmitError::Paused) => {}
                }
            }
            // Every allowed tile refused without blocking — a
            // saturation event for this modulus either way; enough of
            // them inside one probe window promotes it to a replica
            // set (see the module docs' replication section).
            self.note_saturation(key, &job.modulus);
            if !block {
                self.saturated_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(ClusterSubmitError::AllTilesSaturated { tried });
            }
            // Wait for the anchor queue so sustained overload still
            // lands with affinity (and still backpressures the
            // producer).
            match m.tiles[anchor].service.submit(job.clone()) {
                Ok(ticket) => {
                    self.record(&m, anchor, natural, replicas.as_deref());
                    return Ok(ticket);
                }
                Err(_) => {
                    // The home stopped or paused mid-wait. A fresh
                    // route() excludes it, so the job lands on the
                    // next-ranked live tile — the cluster is only down
                    // when no routable tile remains.
                    reroutes += 1;
                    if reroutes > m.tiles.len() + 1 {
                        return Err(ClusterSubmitError::Stopped);
                    }
                }
            }
        }
    }

    fn submit_many(&self, jobs: Vec<MulJob>) -> Result<Vec<Ticket>, BulkSubmitFailure> {
        let total = jobs.len();
        let mut slots: Vec<Option<Ticket>> = (0..total).map(|_| None).collect();
        let mut pending: Vec<(usize, MulJob)> = jobs.into_iter().enumerate().collect();
        let fail = |slots: Vec<Option<Ticket>>, error: ClusterSubmitError| BulkSubmitFailure {
            error,
            accepted: slots
                .into_iter()
                .enumerate()
                .filter_map(|(i, t)| t.map(|t| (i, t)))
                .collect(),
        };
        let mut stalled_rounds = 0usize;
        while !pending.is_empty() {
            if self.stopped.load(Ordering::Acquire) {
                return Err(fail(slots, ClusterSubmitError::Stopped));
            }
            let m = self.snapshot();
            // Route every pending job to its home tile under this
            // snapshot (bulk submission trusts affinity — spilling
            // inside a batch would interleave two tiles' completions
            // for one caller), then forward each tile's share under a
            // single queue acquisition.
            let mut per_tile: Vec<Vec<(usize, usize, MulJob)>> =
                (0..m.tiles.len()).map(|_| Vec::new()).collect();
            for (idx, job) in pending.drain(..) {
                let Some((home, natural)) = self.route(&m, modulus_key(&job.modulus)) else {
                    return Err(fail(slots, ClusterSubmitError::Stopped));
                };
                per_tile[home].push((idx, natural, job));
            }
            let mut progressed = false;
            for (tile, share) in per_tile.into_iter().enumerate() {
                if share.is_empty() {
                    continue;
                }
                // The tile may stop mid-share; keep the originals so
                // the unqueued remainder can re-route next round
                // instead of being dropped with its waiters stranded.
                let tile_jobs: Vec<MulJob> = share.iter().map(|(_, _, job)| job.clone()).collect();
                let (tickets, err) = m.tiles[tile]
                    .service
                    .handle()
                    .submit_many_partial(tile_jobs);
                let accepted = tickets.len();
                for ((idx, natural, _), ticket) in share.iter().take(accepted).zip(tickets) {
                    self.record(&m, tile, *natural, None);
                    slots[*idx] = Some(ticket);
                    progressed = true;
                }
                if err.is_some() {
                    pending.extend(
                        share
                            .into_iter()
                            .skip(accepted)
                            .map(|(idx, _, job)| (idx, job)),
                    );
                }
            }
            if pending.is_empty() {
                break;
            }
            if progressed {
                stalled_rounds = 0;
            } else {
                stalled_rounds += 1;
                if stalled_rounds > m.tiles.len() + 1 {
                    return Err(fail(slots, ClusterSubmitError::Stopped));
                }
            }
        }
        Ok(slots
            .into_iter()
            // analyzer: allow(no_panic, loop above only breaks when pending is empty and every drained pending entry filled its slot, so None here is a routing-logic bug worth a loud stop)
            .map(|t| t.expect("every job was queued on exactly one tile"))
            .collect())
    }
}

/// A cloneable cluster submission endpoint — the multi-tile analogue
/// of [`crate::service::SubmitHandle`], cheap to hand to every
/// producer thread.
#[derive(Clone)]
pub struct ClusterHandle {
    shared: Arc<ClusterShared>,
}

impl core::fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ClusterHandle {{ tiles: {} }}",
            self.shared.snapshot().tiles.len()
        )
    }
}

impl ClusterHandle {
    /// Submits one job, blocking on the home tile's queue once every
    /// tile the spill policy allows has refused without blocking. If
    /// the home tile stops or drains mid-wait the submission re-routes
    /// to the next live tile.
    ///
    /// # Errors
    ///
    /// [`ClusterSubmitError::Stopped`] once the cluster has shut down
    /// or no tile is routable.
    pub fn submit(&self, job: MulJob) -> Result<Ticket, ClusterSubmitError> {
        self.shared.submit_inner(job, true)
    }

    /// Submits one job without blocking: home tile first, then (under
    /// [`SpillPolicy::Spill`]) the least-loaded other tiles.
    ///
    /// # Errors
    ///
    /// [`ClusterSubmitError::AllTilesSaturated`] when every allowed
    /// tile is full (counted in
    /// [`ClusterStats::saturated_rejections`]),
    /// [`ClusterSubmitError::Stopped`] after shutdown.
    pub fn try_submit(&self, job: MulJob) -> Result<Ticket, ClusterSubmitError> {
        self.shared.submit_inner(job, false)
    }

    /// Submits a whole batch, each job routed to its home tile
    /// (bulk submission never spills), with per-tile bulk queue
    /// acquisition. Tickets are returned in job order. A tile that
    /// stops or drains mid-batch only re-routes its unqueued
    /// remainder — accepted tickets are never dropped.
    ///
    /// # Errors
    ///
    /// [`BulkSubmitFailure`] when no routable tile remains for the
    /// remainder; it carries the accepted prefix's tickets (those jobs
    /// still execute and drain).
    pub fn submit_many(&self, jobs: Vec<MulJob>) -> Result<Vec<Ticket>, BulkSubmitFailure> {
        self.shared.submit_many(jobs)
    }
}

/// Per-tile routing and service statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TileStats {
    /// Jobs accepted with this tile as their natural home (or as a
    /// replica of their modulus).
    pub routed: u64,
    /// Jobs accepted here after spilling from another tile's home.
    pub spilled_in: u64,
    /// The tile's capacity weight in the weighted rendezvous score.
    pub weight: u32,
    /// `true` when the router currently treats this tile as poisoned
    /// (caught panics minus probation pardons ≥ `poison_after`).
    pub poisoned: bool,
    /// The tile's membership lifecycle state.
    pub state: TileState,
    /// The tile's capacity/liveness probe at snapshot time.
    pub health: TileHealth,
    /// The tile's full service statistics (latency percentiles,
    /// coalesce shape, pool counters, modelled occupancy).
    pub service: ServiceStats,
}

/// Point-in-time statistics snapshot of the whole cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Per-tile breakdown, indexed by tile id (drained tiles keep
    /// their slot — tile ids are stable for the cluster's lifetime).
    pub tiles: Vec<TileStats>,
    /// The membership epoch (bumped by every add/drain/re-admission).
    pub membership_epoch: u64,
    /// Tiles currently in the routable set.
    pub active_tiles: usize,
    /// Tiles added live via [`ServiceCluster::add_tile`].
    pub tiles_added: u64,
    /// Tiles drained live via [`ServiceCluster::drain_tile`].
    pub tiles_drained: u64,
    /// Drained tiles re-admitted by probation.
    pub tiles_readmitted: u64,
    /// Tracked moduli whose natural home moved across all membership
    /// changes so far.
    pub moduli_rehomed: u64,
    /// Distinct moduli the router has tracked (bounded sample).
    pub tracked_moduli: u64,
    /// Jobs accepted cluster-wide.
    pub submitted: u64,
    /// Jobs that landed on their natural home tile.
    pub affinity_hits: u64,
    /// Jobs that landed off their natural home tile (backpressure
    /// spill or poison failover).
    pub spilled: u64,
    /// Non-blocking submissions refused with
    /// [`CoreError::AllTilesSaturated`].
    pub saturated_rejections: u64,
    /// Hot moduli currently served by a replica set.
    pub replicated_moduli: u64,
    /// Jobs that landed on a non-home member of their modulus's
    /// replica set (lifetime count — the traffic replication moved
    /// off saturated home tiles).
    pub replica_routed: u64,
    /// Jobs completed successfully, summed over tiles.
    pub completed: u64,
    /// Jobs completed with an error, summed over tiles.
    pub failed: u64,
    /// Aggregated self-tuning counters when tiles run autotuning pools
    /// ([`ServiceCluster::auto`]). Tiles sharing one tuner (the
    /// default for `auto`) are counted once, not once per tile.
    pub autotune: Option<AutotuneStats>,
}

impl ClusterStats {
    /// Fraction of accepted jobs that landed on their natural home
    /// tile (1.0 when nothing was accepted yet).
    pub fn affinity_hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.affinity_hits as f64 / self.submitted as f64
        }
    }

    /// The busiest tile's modelled occupancy, in device cycles — the
    /// cluster's modelled makespan, since tiles are independent macros
    /// running concurrently.
    pub fn modelled_makespan_cycles(&self) -> u64 {
        self.tiles
            .iter()
            .map(|t| t.service.modelled_cycles_total)
            .max()
            .unwrap_or(0)
    }
}

/// The multi-tile router (see the module docs).
pub struct ServiceCluster {
    shared: Arc<ClusterShared>,
}

impl core::fmt::Debug for ServiceCluster {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let m = self.shared.snapshot();
        write!(
            f,
            "ServiceCluster {{ tiles: {}, active: {}, epoch: {}, policy: {:?} }}",
            m.tiles.len(),
            m.active_count(),
            m.epoch,
            self.shared.spill
        )
    }
}

impl ServiceCluster {
    /// Builds a cluster with one tile per pool, every tile running
    /// `config.service`.
    ///
    /// # Panics
    ///
    /// Panics if `pools` is empty (a cluster needs at least one tile),
    /// or on the per-tile panics of [`ModSramService::new`].
    pub fn new(pools: Vec<ContextPool>, config: ClusterConfig) -> Self {
        let services = pools
            .into_iter()
            .map(|pool| ModSramService::new(pool, config.service.clone()))
            .collect();
        Self::from_services(services, &config)
    }

    /// Builds a cluster from already-running (possibly heterogeneous)
    /// tiles. `config.service` is ignored here — it only shapes tiles
    /// the cluster builds itself.
    ///
    /// # Panics
    ///
    /// Panics if `services` is empty.
    pub fn from_services(services: Vec<ModSramService>, config: &ClusterConfig) -> Self {
        assert!(!services.is_empty(), "a cluster needs at least one tile");
        let tiles: Vec<Arc<TileCell>> = services
            .into_iter()
            .map(|service| Arc::new(TileCell::new(Arc::new(service))))
            .collect();
        let states = vec![TileState::Active; tiles.len()];
        let weights = vec![1u32; tiles.len()];
        ServiceCluster {
            shared: Arc::new(ClusterShared {
                membership: RwLock::new(Arc::new(Membership {
                    epoch: 0,
                    tiles,
                    states,
                    weights,
                })),
                spill: config.spill,
                poison_after: config.poison_after,
                probation_after: config.probation_after,
                replicate_after: config.replicate_after,
                replica_tiles: config.replica_tiles,
                stopped: AtomicBool::new(false),
                affinity_hits: AtomicU64::new(0),
                spilled: AtomicU64::new(0),
                saturated_rejections: AtomicU64::new(0),
                replica_routed: AtomicU64::new(0),
                tiles_added: AtomicU64::new(0),
                tiles_drained: AtomicU64::new(0),
                tiles_readmitted: AtomicU64::new(0),
                moduli_rehomed: AtomicU64::new(0),
                homes: RwLock::new(HashMap::new()),
                homes_full: AtomicBool::new(false),
                saturation: RwLock::new(HashMap::new()),
                replicas: RwLock::new(HashMap::new()),
                replicas_active: AtomicU64::new(0),
            }),
        }
    }

    /// Cluster of `tiles` identical tiles over a registry engine.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownEngine`] for a name absent from the
    /// registry.
    pub fn for_engine_name(
        name: &str,
        tiles: usize,
        config: ClusterConfig,
    ) -> Result<Self, CoreError> {
        let pools: Result<Vec<ContextPool>, CoreError> = (0..tiles.max(1))
            .map(|_| {
                ContextPool::for_engine_name(name).ok_or_else(|| CoreError::unknown_engine(name))
            })
            .collect();
        Ok(Self::new(pools?, config))
    }

    /// Cluster of `tiles` identical tiles, each over its own pool of
    /// cycle-accurate ModSRAM devices.
    pub fn for_modsram(device: ModSramConfig, tiles: usize, config: ClusterConfig) -> Self {
        let pools = (0..tiles.max(1))
            .map(|_| ContextPool::for_modsram(device.clone()))
            .collect();
        Self::new(pools, config)
    }

    /// A self-tuning cluster: every tile runs an autotuning pool, and
    /// all tiles share **one** [`AutoTuner`] — a calibration race run
    /// on any tile warms the profile every tile consults, and a pool
    /// eviction on one tile never forgets a choice another tile still
    /// uses. Aggregated counters appear in [`ClusterStats::autotune`].
    pub fn auto(policy: TunePolicy, tiles: usize, config: ClusterConfig) -> Self {
        let tuner = Arc::new(AutoTuner::new(policy));
        let pools = (0..tiles.max(1))
            .map(|_| ContextPool::with_tuner(Arc::clone(&tuner)))
            .collect();
        Self::new(pools, config)
    }

    /// A cloneable submission endpoint for producer threads.
    pub fn handle(&self) -> ClusterHandle {
        ClusterHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Submits one job, blocking once every allowed tile has refused
    /// (see [`ClusterHandle::submit`]).
    ///
    /// # Errors
    ///
    /// As [`ClusterHandle::submit`].
    pub fn submit(&self, job: MulJob) -> Result<Ticket, ClusterSubmitError> {
        self.handle().submit(job)
    }

    /// Submits one job without blocking (see
    /// [`ClusterHandle::try_submit`]).
    ///
    /// # Errors
    ///
    /// As [`ClusterHandle::try_submit`].
    pub fn try_submit(&self, job: MulJob) -> Result<Ticket, ClusterSubmitError> {
        self.handle().try_submit(job)
    }

    /// A [`PreparedModMul`] façade over the cluster for modulus `p`:
    /// the drop-in that lets engine-generic consumers (curves,
    /// committers, NTT shards) stream through the router unchanged.
    pub fn prepared(&self, p: &UBig) -> ClusterPrepared {
        ClusterPrepared {
            handle: self.handle(),
            p: p.clone(),
        }
    }

    /// Number of tile slots, including drained ones (tile ids are
    /// stable; see [`ServiceCluster::active_tiles`] for the routable
    /// count).
    pub fn tiles(&self) -> usize {
        self.shared.snapshot().tiles.len()
    }

    /// Tiles currently in the routable set.
    pub fn active_tiles(&self) -> usize {
        self.shared.snapshot().active_count()
    }

    /// The current membership epoch (bumped by every add, drain, and
    /// probation re-admission).
    pub fn membership_epoch(&self) -> u64 {
        self.shared.snapshot().epoch
    }

    /// A tile's membership lifecycle state, `None` for an out-of-range
    /// index.
    pub fn tile_state(&self, tile: usize) -> Option<TileState> {
        self.shared.snapshot().states.get(tile).copied()
    }

    /// A shared handle to one tile's underlying service, `None` for an
    /// out-of-range index.
    ///
    /// This is the seam a wire front-end uses to expose a single tile
    /// directly (tenant pinned to one tile) while the cluster keeps
    /// owning its lifecycle: both sides submit through the same
    /// admissions gate, so a live [`ServiceCluster::drain_tile`] is
    /// observed by the out-of-band holder as
    /// [`SubmitError`](crate::service::SubmitError)`::Paused`.
    pub fn tile_service(&self, tile: usize) -> Option<Arc<ModSramService>> {
        self.shared
            .snapshot()
            .tiles
            .get(tile)
            .map(|cell| Arc::clone(&cell.service))
    }

    /// The natural home tile (weighted rendezvous rank 0 among
    /// **routable** tiles, health ignored) for a modulus — where its
    /// traffic lands in steady state under the current membership.
    /// `None` when no tile is routable (every tile drained — possible
    /// on a fully-drained cluster), the state in which the router
    /// refuses submissions with [`ClusterSubmitError::Stopped`].
    pub fn home_tile(&self, p: &UBig) -> Option<usize> {
        self.shared.snapshot().natural_home(modulus_key(p))
    }

    /// A tile's capacity weight under the current membership, `None`
    /// for an out-of-range index.
    pub fn tile_weight(&self, tile: usize) -> Option<u32> {
        self.shared.snapshot().weights.get(tile).copied()
    }

    /// Adds a running tile to the cluster at a fresh index with
    /// weight 1 (see [`ServiceCluster::add_tile_weighted`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::ClusterStopped`] after shutdown.
    pub fn add_tile(&self, service: ModSramService) -> Result<MembershipChange, CoreError> {
        self.add_tile_weighted(service, 1)
    }

    /// Adds a running tile to the cluster at a fresh index with the
    /// given capacity weight and publishes a new membership epoch.
    /// Only the moduli the new tile out-scores everywhere re-home onto
    /// it; everything else stays put (each move costs its modulus one
    /// cold context preparation on the new tile).
    ///
    /// # Errors
    ///
    /// [`CoreError::ZeroTileWeight`] for `weight == 0`,
    /// [`CoreError::ClusterStopped`] after shutdown.
    pub fn add_tile_weighted(
        &self,
        service: ModSramService,
        weight: u32,
    ) -> Result<MembershipChange, CoreError> {
        let mut guard = self
            .shared
            .membership
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        // Checked under the write lock: shutdown() stores the flag
        // before snapshotting the tile list, so any add that passes
        // this check publishes its tile in time to be drained by that
        // very shutdown — a stopped cluster can never grow a live,
        // never-joined tile.
        if self.shared.stopped.load(Ordering::Acquire) {
            return Err(CoreError::ClusterStopped);
        }
        let tile = guard.tiles.len();
        if weight == 0 {
            return Err(CoreError::ZeroTileWeight { tile });
        }
        let mut tiles = guard.tiles.clone();
        let mut states = guard.states.clone();
        let mut weights = guard.weights.clone();
        tiles.push(Arc::new(TileCell::new(Arc::new(service))));
        states.push(TileState::Active);
        weights.push(weight);
        let next = Arc::new(Membership {
            epoch: guard.epoch + 1,
            tiles,
            states,
            weights,
        });
        *guard = Arc::clone(&next);
        self.shared.tiles_added.fetch_add(1, Ordering::Relaxed);
        let rehomed = self.shared.rehome_tracked(&next);
        Ok(MembershipChange {
            epoch: next.epoch,
            tile,
            rehomed_moduli: rehomed,
            active_tiles: next.active_count(),
        })
    }

    /// Re-weights one tile live: publishes a new membership epoch with
    /// the tile's capacity weight changed and re-homes the tracked
    /// moduli the new weighted ranking moves — raising a tile's
    /// weight only ever pulls moduli *onto* it, lowering it only ever
    /// pushes moduli *off* it (monotonicity of the weighted score),
    /// and republishing the same weight moves nothing. In-flight
    /// submissions keep routing against the snapshot they took;
    /// accepted tickets are never lost across the swap (pinned by the
    /// live-reweigh soak in `tests/elasticity.rs`).
    ///
    /// Re-weighting a draining or drained tile is allowed — the new
    /// weight takes effect when probation re-admits it.
    ///
    /// # Errors
    ///
    /// [`CoreError::ZeroTileWeight`] for `weight == 0` (weights are
    /// multiplicative capacity, not membership — drain the tile
    /// instead), [`CoreError::UnknownTile`] for an out-of-range index,
    /// [`CoreError::ClusterStopped`] after shutdown.
    pub fn set_tile_weight(&self, tile: usize, weight: u32) -> Result<MembershipChange, CoreError> {
        if weight == 0 {
            return Err(CoreError::ZeroTileWeight { tile });
        }
        let mut guard = self
            .shared
            .membership
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if self.shared.stopped.load(Ordering::Acquire) {
            return Err(CoreError::ClusterStopped);
        }
        if tile >= guard.tiles.len() {
            return Err(CoreError::UnknownTile { tile });
        }
        let mut weights = guard.weights.clone();
        weights[tile] = weight;
        let next = Arc::new(Membership {
            epoch: guard.epoch + 1,
            tiles: guard.tiles.clone(),
            states: guard.states.clone(),
            weights,
        });
        *guard = Arc::clone(&next);
        let rehomed = self.shared.rehome_tracked(&next);
        Ok(MembershipChange {
            epoch: next.epoch,
            tile,
            rehomed_moduli: rehomed,
            active_tiles: next.active_count(),
        })
    }

    /// Drains a tile live: atomically removes it from the routable set
    /// (new epoch — in-flight submissions racing the swap are refused
    /// by the paused tile and re-route), pauses its admissions, waits
    /// until the existing ticket machinery has delivered every job the
    /// tile had accepted, then marks it [`TileState::Drained`]
    /// (probation-eligible). Only the moduli whose rendezvous rank-0
    /// was this tile move; the proptest in `tests/elasticity.rs` pins
    /// that property.
    ///
    /// Draining the last routable tile is allowed (maintenance on a
    /// 1-tile cluster); submissions are refused with
    /// [`ClusterSubmitError::Stopped`] until a tile returns.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownTile`] for an out-of-range index,
    /// [`CoreError::TileDraining`] if the tile is already draining or
    /// drained, [`CoreError::ClusterStopped`] after shutdown.
    pub fn drain_tile(&self, tile: usize) -> Result<MembershipChange, CoreError> {
        // Phase 1: atomically publish the tile as non-routable and
        // pause its admissions, so no submission — racing or future —
        // can land on it past this point.
        let (cell, rehomed) = {
            let mut guard = self
                .shared
                .membership
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            // Under the write lock, like add_tile: a drain racing
            // shutdown() either errors here or completes its pause
            // before the shutdown snapshot fans out.
            if self.shared.stopped.load(Ordering::Acquire) {
                return Err(CoreError::ClusterStopped);
            }
            if tile >= guard.tiles.len() {
                return Err(CoreError::UnknownTile { tile });
            }
            if guard.states[tile] != TileState::Active {
                return Err(CoreError::TileDraining { tile });
            }
            let mut states = guard.states.clone();
            states[tile] = TileState::Draining;
            let next = Arc::new(Membership {
                epoch: guard.epoch + 1,
                tiles: guard.tiles.clone(),
                states,
                weights: guard.weights.clone(),
            });
            *guard = Arc::clone(&next);
            let cell = Arc::clone(&next.tiles[tile]);
            cell.service.pause_admissions();
            let rehomed = self.shared.rehome_tracked(&next);
            (cell, rehomed)
        };
        // Phase 2: the existing ticket machinery drains the tile —
        // admissions are paused, so delivered == submitted is a
        // monotone barrier.
        while !cell.service.quiesced() {
            if self.shared.stopped.load(Ordering::Acquire) {
                // A concurrent shutdown drains every tile itself.
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        // Phase 3: mark the empty tile Drained (probation-eligible).
        let (epoch, active_tiles) = {
            let mut guard = self
                .shared
                .membership
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            if guard.states[tile] == TileState::Draining {
                let mut states = guard.states.clone();
                states[tile] = TileState::Drained;
                *guard = Arc::new(Membership {
                    epoch: guard.epoch + 1,
                    tiles: guard.tiles.clone(),
                    states,
                    weights: guard.weights.clone(),
                });
            }
            (guard.epoch, guard.active_count())
        };
        self.shared.tiles_drained.fetch_add(1, Ordering::Relaxed);
        Ok(MembershipChange {
            epoch,
            tile,
            rehomed_moduli: rehomed,
            active_tiles,
        })
    }

    /// Runs one probation pass over every sidelined tile: drained
    /// tiles and poisoned-but-active tiles each take a [`TileHealth`]
    /// probe, which **passes** when the tile is live and its caught
    /// panic count has not grown since the previous probe. After
    /// [`ClusterConfig::probation_after`] consecutive passes a drained
    /// tile resumes admissions and re-enters the routable set (new
    /// membership epoch, its moduli re-home back), and a poisoned
    /// tile's panics are pardoned. Call this on whatever cadence the
    /// deployment's health checker runs; a pass with nothing on
    /// probation is cheap. `probation_after == 0` disables
    /// re-admission entirely.
    pub fn probe_tiles(&self) -> ProbeReport {
        let mut report = ProbeReport::default();
        if self.shared.stopped.load(Ordering::Acquire) {
            return report;
        }
        let m = self.shared.snapshot();
        // Hot-modulus promotion/demotion rides the same cadence as
        // tile probation: each pass closes one saturation window.
        if self.shared.replicate_after > 0 {
            self.shared.replication_pass(&m, &mut report);
        }
        if self.probation() == 0 {
            return report;
        }
        for (tile, cell) in m.tiles.iter().enumerate() {
            match m.states[tile] {
                TileState::Draining => continue,
                TileState::Drained => {
                    if self.probe_cell(cell) && self.readmit(tile) {
                        report.readmitted.push(tile);
                    }
                }
                TileState::Active => {
                    let health = cell.service.health();
                    if !self.shared.poisoned(cell, &health) {
                        continue;
                    }
                    // A completed probation pardons inside probe_cell
                    // (the poison comparison starts over from the
                    // current count), so the tile is routable again
                    // without a membership change — it never left the
                    // Active set.
                    if self.probe_cell(cell) {
                        report.unpoisoned.push(tile);
                    }
                }
            }
        }
        report
    }

    fn probation(&self) -> u64 {
        self.shared.probation_after
    }

    /// One probe of one sidelined tile: pass ⇔ live and no new panics
    /// since the previous probe. Returns `true` when the tile has just
    /// completed its probation window.
    fn probe_cell(&self, cell: &TileCell) -> bool {
        let health = cell.service.health();
        let last = cell
            .probe_last_panics
            .swap(health.executor_panics, Ordering::Relaxed);
        if health.stopped || health.executor_panics != last {
            cell.probe_ok.store(0, Ordering::Relaxed);
            return false;
        }
        let ok = cell.probe_ok.fetch_add(1, Ordering::Relaxed) + 1;
        if ok < self.probation() {
            return false;
        }
        cell.probe_ok.store(0, Ordering::Relaxed);
        cell.pardoned_panics
            // analyzer: allow(relaxed_atomic, pardon level only trails the monotonic panic counter; a stale read re-poisons for at most one probe round)
            .store(health.executor_panics, Ordering::Relaxed);
        true
    }

    /// Re-admits a drained tile that completed probation: resumes its
    /// admissions and publishes a new epoch with the tile Active.
    /// Returns `false` if the tile was concurrently moved out of
    /// `Drained` (e.g. by a racing shutdown).
    fn readmit(&self, tile: usize) -> bool {
        let mut guard = self
            .shared
            .membership
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if guard.states.get(tile) != Some(&TileState::Drained) {
            return false;
        }
        let mut states = guard.states.clone();
        states[tile] = TileState::Active;
        let next = Arc::new(Membership {
            epoch: guard.epoch + 1,
            tiles: guard.tiles.clone(),
            states,
            weights: guard.weights.clone(),
        });
        *guard = Arc::clone(&next);
        next.tiles[tile].service.resume_admissions();
        self.shared.tiles_readmitted.fetch_add(1, Ordering::Relaxed);
        self.shared.rehome_tracked(&next);
        true
    }

    /// A point-in-time statistics snapshot across every tile.
    pub fn stats(&self) -> ClusterStats {
        let m = self.shared.snapshot();
        let tiles: Vec<TileStats> = m
            .tiles
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let health = cell.service.health();
                TileStats {
                    routed: cell.routed.load(Ordering::Relaxed),
                    spilled_in: cell.spilled_in.load(Ordering::Relaxed),
                    weight: m.weights[i],
                    poisoned: self.shared.poisoned(cell, &health),
                    state: m.states[i],
                    health,
                    service: cell.service.stats(),
                }
            })
            .collect();
        let affinity_hits = self.shared.affinity_hits.load(Ordering::Relaxed);
        let spilled = self.shared.spilled.load(Ordering::Relaxed);
        // Aggregate tuning counters over the *distinct* tuners behind
        // the tiles: `ServiceCluster::auto` shares one tuner
        // cluster-wide, and counting it per tile would multiply every
        // number by the tile count.
        let mut seen_tuners: Vec<*const AutoTuner> = Vec::new();
        let mut autotune: Option<AutotuneStats> = None;
        for cell in m.tiles.iter() {
            let Some(tuner) = cell.service.pool().tuner() else {
                continue;
            };
            let ptr = Arc::as_ptr(tuner);
            if seen_tuners.contains(&ptr) {
                continue;
            }
            seen_tuners.push(ptr);
            let snapshot = tuner.stats();
            match &mut autotune {
                None => autotune = Some(snapshot),
                Some(agg) => agg.merge(&snapshot),
            }
        }
        ClusterStats {
            membership_epoch: m.epoch,
            active_tiles: m.active_count(),
            tiles_added: self.shared.tiles_added.load(Ordering::Relaxed),
            tiles_drained: self.shared.tiles_drained.load(Ordering::Relaxed),
            tiles_readmitted: self.shared.tiles_readmitted.load(Ordering::Relaxed),
            moduli_rehomed: self.shared.moduli_rehomed.load(Ordering::Relaxed),
            tracked_moduli: self
                .shared
                .homes
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len() as u64,
            submitted: affinity_hits + spilled,
            affinity_hits,
            spilled,
            saturated_rejections: self.shared.saturated_rejections.load(Ordering::Relaxed),
            replicated_moduli: self
                .shared
                .replicas
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len() as u64,
            replica_routed: self.shared.replica_routed.load(Ordering::Relaxed),
            completed: tiles.iter().map(|t| t.service.completed).sum(),
            failed: tiles.iter().map(|t| t.service.failed).sum(),
            autotune,
            tiles,
        }
    }

    /// Starts a fresh statistics window on every tile (see
    /// [`ModSramService::reset_window`]); routing tallies are lifetime
    /// counters and are untouched.
    pub fn reset_window(&self) {
        for cell in &self.shared.snapshot().tiles {
            cell.service.reset_window();
        }
    }

    /// Gracefully stops the cluster: refuses new submissions, then
    /// fans out to every tile's draining shutdown — every accepted
    /// ticket completes exactly once before this returns. Idempotent.
    pub fn shutdown(&self) -> ClusterStats {
        self.shared.stopped.store(true, Ordering::Release);
        // Tiles drain concurrently: each `shutdown` closes that tile's
        // queue and joins its threads while the remaining tiles keep
        // executing their own backlogs. Drained/paused tiles stop too.
        for cell in &self.shared.snapshot().tiles {
            cell.service.shutdown();
        }
        self.stats()
    }
}

impl Drop for ServiceCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A [`PreparedModMul`] whose every multiplication is routed through a
/// [`ServiceCluster`] — the cluster analogue of
/// [`crate::service::ServicePrepared`].
///
/// Obtained from [`ServiceCluster::prepared`]. `mod_mul` submits one
/// job and blocks on its ticket; `mod_mul_batch` submits the whole
/// batch (routed home-tile-major) before waiting, so independent
/// multiplications still coalesce on their home tile.
pub struct ClusterPrepared {
    handle: ClusterHandle,
    p: UBig,
}

impl core::fmt::Debug for ClusterPrepared {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ClusterPrepared {{ p: {} }}", self.p)
    }
}

impl PreparedModMul for ClusterPrepared {
    fn engine_name(&self) -> &'static str {
        "cluster"
    }

    fn modulus(&self) -> &UBig {
        &self.p
    }

    fn mod_mul(&self, a: &UBig, b: &UBig) -> Result<UBig, ModMulError> {
        let ticket = self
            .handle
            .submit(MulJob::new(a.clone(), b.clone(), self.p.clone()))
            .map_err(backend_error)?;
        ticket_result(ticket.wait())
    }

    fn mod_mul_batch(&self, pairs: &[(UBig, UBig)]) -> Result<Vec<UBig>, ModMulError> {
        let jobs: Vec<MulJob> = pairs
            .iter()
            .map(|(a, b)| MulJob::new(a.clone(), b.clone(), self.p.clone()))
            .collect();
        let tickets = self
            .handle
            .submit_many(jobs)
            .map_err(|f| backend_error(f.error))?;
        tickets.iter().map(|t| ticket_result(t.wait())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{gated_pool, saturate_gated_home, slow_pool, FailureMode, Gate};
    use std::time::Duration;

    fn small_config() -> ClusterConfig {
        ClusterConfig {
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 64,
                max_batch: 8,
                flush_interval: Duration::from_micros(50),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn rendezvous_tie_break_prefers_the_lower_tile_index() {
        // The shared score is (score, mix, Reverse(index)): on a full
        // collision the *lower* index must win, for all call sites at
        // once — this is the single definition they share.
        let a = RendezvousScore {
            score: 1.0,
            mix: 7,
            tie: std::cmp::Reverse(1),
        };
        let b = RendezvousScore {
            score: 1.0,
            mix: 7,
            tie: std::cmp::Reverse(2),
        };
        assert!(
            a > b,
            "equal score and mix must break toward the lower index"
        );
        assert!(
            RendezvousScore {
                score: 1.0,
                mix: 8,
                tie: std::cmp::Reverse(9),
            } > a,
            "mix breaks equal scores"
        );
        assert!(
            RendezvousScore {
                score: 2.0,
                mix: 0,
                tie: std::cmp::Reverse(9),
            } > a,
            "the weighted score dominates the mix"
        );
        // The argmax and the full ranking agree on every probed key —
        // they both go through rendezvous_score, so the rank-0 of the
        // ranking IS the home.
        for key in [0u64, 1, 97, 0xDEAD_BEEF, u64::MAX] {
            for tiles in 1..=6usize {
                let best = (0..tiles)
                    .max_by_key(|&i| rendezvous_score(key, i, 1))
                    .unwrap();
                let mut order: Vec<usize> = (0..tiles).collect();
                order.sort_by_key(|&i| std::cmp::Reverse(rendezvous_score(key, i, 1)));
                assert_eq!(order[0], best, "key {key}, {tiles} tiles");
            }
        }
    }

    #[test]
    fn planners_agree_on_degenerate_tile_counts() {
        // Regression (ISSUE 9 satellite 1): home_tile_for(p, 0) used
        // to return tile index 0 — out of range for an empty cluster —
        // while rendezvous_ranking(p, 0) returned []. Both planners
        // (and their weighted variants) must agree with
        // Membership::natural_home: no tiles, no home.
        let p = UBig::from(1_000_003u64);
        assert_eq!(home_tile_for(&p, 0), None);
        assert!(rendezvous_ranking(&p, 0).is_empty());
        assert_eq!(weighted_home_tile_for(&p, &[]), None);
        assert!(weighted_rendezvous_ranking(&p, &[]).is_empty());
        // One tile: the only possible answer, for every modulus.
        for m in [3u64, 97, 65537, 0xffff_fffb] {
            let p = UBig::from(m);
            assert_eq!(home_tile_for(&p, 1), Some(0));
            assert_eq!(rendezvous_ranking(&p, 1), vec![0]);
            assert_eq!(weighted_home_tile_for(&p, &[7]), Some(0));
            assert_eq!(weighted_rendezvous_ranking(&p, &[7]), vec![0]);
        }
    }

    #[test]
    fn equal_weights_reproduce_the_legacy_placement() {
        // The logarithmic score is monotone in the mix, so an
        // all-equal-weights fleet must rank every tile exactly as the
        // unweighted planner does — at any common weight, not just 1.
        for i in 0..200u64 {
            let p = UBig::from(2 * i + 3);
            for tiles in 1..=5usize {
                let legacy = rendezvous_ranking(&p, tiles);
                for w in [1u32, 2, 7, u32::MAX] {
                    let weights = vec![w; tiles];
                    assert_eq!(
                        weighted_rendezvous_ranking(&p, &weights),
                        legacy,
                        "weight {w}, {tiles} tiles, modulus {p}"
                    );
                    assert_eq!(weighted_home_tile_for(&p, &weights), Some(legacy[0]));
                }
            }
        }
    }

    #[test]
    fn weighted_share_tracks_weights() {
        // 2:1:1:1 over a large modulus sample: the 2× tile should home
        // ~40% of moduli (double each 1× tile's ~20%).
        let weights = [2u32, 1, 1, 1];
        let mut per_tile = [0usize; 4];
        let samples = 4000u64;
        for i in 0..samples {
            let p = UBig::from(2 * i + 3);
            per_tile[weighted_home_tile_for(&p, &weights).unwrap()] += 1;
        }
        let total: f64 = samples as f64;
        let weight_sum: u32 = weights.iter().sum();
        for (tile, &count) in per_tile.iter().enumerate() {
            let want = weights[tile] as f64 / weight_sum as f64;
            let got = count as f64 / total;
            assert!(
                (got - want).abs() / want < 0.15,
                "tile {tile}: share {got:.3} vs weight share {want:.3}"
            );
        }
    }

    #[test]
    fn rendezvous_order_is_a_stable_permutation() {
        let cluster = ServiceCluster::for_engine_name("barrett", 4, small_config()).unwrap();
        for m in [97u64, 101, 65537, 1_000_003, 0xffff_fffb] {
            let p = UBig::from(m);
            let home = cluster.home_tile(&p).unwrap();
            assert!(home < 4);
            // Stable across calls and equal to the standalone planner.
            assert_eq!(Some(home), cluster.home_tile(&p));
            assert_eq!(Some(home), home_tile_for(&p, 4));
            let order = rendezvous_ranking(&p, 4);
            assert_eq!(order[0], home, "ranking rank-0 is the home");
            let live = cluster.shared.snapshot().ranked(modulus_key(&p));
            assert_eq!(order, live, "standalone ranking == live ranking");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "ranked() must permute tiles");
        }
    }

    #[test]
    fn moduli_spread_across_tiles() {
        let cluster = ServiceCluster::for_engine_name("barrett", 4, small_config()).unwrap();
        let mut per_tile = [0usize; 4];
        for i in 0..128u64 {
            per_tile[cluster.home_tile(&UBig::from(2 * i + 3)).unwrap()] += 1;
        }
        for (tile, &count) in per_tile.iter().enumerate() {
            assert!(count > 0, "tile {tile} homed no modulus out of 128");
        }
    }

    #[test]
    fn submit_routes_and_completes_with_full_affinity() {
        let cluster = ServiceCluster::for_engine_name("barrett", 2, small_config()).unwrap();
        let moduli = [97u64, 101, 1_000_003, 0xffff_fffb];
        let mut tickets = Vec::new();
        for i in 0..40u64 {
            let p = UBig::from(moduli[(i % 4) as usize]);
            let a = UBig::from(i * 7 + 1);
            let b = UBig::from(i * 11 + 2);
            let want = &(&a * &b) % &p;
            tickets.push((cluster.submit(MulJob::new(a, b, p)).unwrap(), want));
        }
        for (ticket, want) in &tickets {
            assert_eq!(&ticket.wait().unwrap(), want);
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.submitted, 40);
        assert_eq!(stats.completed, 40);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.spilled, 0, "uncontended cluster never spills");
        assert_eq!(stats.affinity_hit_rate(), 1.0);
        assert_eq!(stats.tracked_moduli, 4, "router tracked every modulus");
        assert_eq!(stats.membership_epoch, 0, "no membership change");
        // Routing tallies agree with the per-tile service counters.
        for tile in &stats.tiles {
            assert_eq!(tile.routed + tile.spilled_in, tile.service.submitted);
        }
    }

    #[test]
    fn submit_many_returns_tickets_in_job_order() {
        let cluster = ServiceCluster::for_engine_name("barrett", 3, small_config()).unwrap();
        let jobs: Vec<MulJob> = (0..30u64)
            .map(|i| {
                let p = UBig::from([97u64, 101, 65537][(i % 3) as usize]);
                MulJob::new(UBig::from(i + 2), UBig::from(i + 5), p)
            })
            .collect();
        let tickets = cluster.handle().submit_many(jobs.clone()).unwrap();
        assert_eq!(tickets.len(), jobs.len());
        for (job, ticket) in jobs.iter().zip(&tickets) {
            assert_eq!(ticket.wait().unwrap(), &(&job.a * &job.b) % &job.modulus);
        }
        cluster.shutdown();
    }

    #[test]
    fn stopped_cluster_refuses_submissions() {
        let cluster = ServiceCluster::for_engine_name("barrett", 2, small_config()).unwrap();
        cluster.shutdown();
        let job = MulJob::new(UBig::from(1u64), UBig::from(2u64), UBig::from(97u64));
        assert_eq!(
            cluster.submit(job.clone()).err(),
            Some(ClusterSubmitError::Stopped)
        );
        assert_eq!(
            cluster.try_submit(job.clone()).err(),
            Some(ClusterSubmitError::Stopped)
        );
        let bulk = cluster.handle().submit_many(vec![job]).unwrap_err();
        assert_eq!(bulk.error, ClusterSubmitError::Stopped);
        assert!(bulk.accepted.is_empty(), "nothing was queued");
        // Membership changes are refused too.
        assert_eq!(cluster.drain_tile(0).err(), Some(CoreError::ClusterStopped));
        // Shutdown is idempotent.
        let stats = cluster.shutdown();
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn blocking_submit_survives_a_home_tile_stop_mid_wait() {
        // Regression (ISSUE 5 satellite 1): one stopped tile + one
        // live tile. The home tile's queue is full, so the blocking
        // path parks on it; the home then stops underneath the waiter.
        // The old router mapped the home's `Stopped` to cluster-wide
        // `Stopped` even though the neighbour was live — the fix
        // re-routes and must land the job on the surviving tile.
        let tile = ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch: 1,
            flush_interval: Duration::ZERO,
            pipeline_depth: 1,
            ..Default::default()
        };
        let config = ClusterConfig {
            spill: SpillPolicy::Strict,
            service: tile.clone(),
            ..Default::default()
        };
        // Both tiles hold every multiplication at one shut gate, so the
        // test waits on queue state, never on a sleep outlasting the
        // scheduler.
        let gate = Gate::new();
        let cluster = ServiceCluster::new(vec![gated_pool(&gate), gated_pool(&gate)], config);
        // A modulus homed on tile 0.
        let p = (0..64u64)
            .map(|i| UBig::from(1_000_003u64 + 2 * i))
            .find(|p| cluster.home_tile(p) == Some(0))
            .expect("some modulus homes on tile 0");
        let warm = saturate_gated_home(&cluster, &p, &tile);
        let job = MulJob::new(UBig::from(11u64), UBig::from(13u64), p.clone());
        let want = &(&job.a * &job.b) % &p;
        let waiter = std::thread::spawn({
            let handle = cluster.handle();
            move || handle.submit(job)
        });
        // Stop tile 0's service directly (not the cluster). Whether the
        // waiter has parked on the full queue yet or not, tile 0 can
        // never take it: its queue stays full until the gate opens.
        // The stop joins tile 0's executor, so it runs on a helper.
        let helper = std::thread::spawn({
            let shared = Arc::clone(&cluster.shared);
            move || {
                shared.snapshot().tiles[0].service.shutdown();
            }
        });
        let ticket = waiter
            .join()
            .unwrap()
            .expect("submit must re-route to the live tile, not report Stopped");
        gate.open();
        helper.join().unwrap();
        assert_eq!(ticket.wait().unwrap(), want);
        for t in &warm {
            assert!(t.wait().is_ok(), "the stop drained the warm backlog");
        }
        let stats = cluster.stats();
        assert_eq!(
            stats.tiles[1].service.submitted, 1,
            "re-routed job landed on the live tile"
        );
        cluster.shutdown();
    }

    #[test]
    fn submit_many_mid_batch_stop_returns_the_accepted_prefix() {
        // Regression (ISSUE 5 satellite 2): a bulk submission that
        // blocks on a held tile's capacity while the cluster shuts
        // down must hand back the tickets it already queued — those
        // jobs still execute, and dropping their handles would strand
        // the waiter.
        let config = ClusterConfig {
            spill: SpillPolicy::Strict,
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 2,
                max_batch: 1,
                flush_interval: Duration::ZERO,
                pipeline_depth: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        // Every multiplication parks at one shut gate, so the tile
        // holds the jobs it accepted and the bulk call blocks on its
        // tiny queue however the scheduler runs the threads.
        let gate = Gate::new();
        let cluster = ServiceCluster::new(vec![gated_pool(&gate)], config);
        let p = UBig::from(1_000_003u64);
        let jobs: Vec<MulJob> = (0..16u64)
            .map(|i| MulJob::new(UBig::from(i + 2), UBig::from(i + 3), p.clone()))
            .collect();
        let oracle: Vec<UBig> = jobs.iter().map(|j| &(&j.a * &j.b) % &j.modulus).collect();
        let bulk = std::thread::spawn({
            let handle = cluster.handle();
            move || handle.submit_many(jobs)
        });
        // Once the first job executes the bulk call has queued work;
        // then pull the plug. Shutdown joins the executor parked at the
        // gate, so it runs on a helper until the gate opens.
        gate.wait_entered(1);
        let bulk_result = std::thread::scope(|scope| {
            let stopper = scope.spawn(|| cluster.shutdown());
            let bulk_result = bulk.join();
            gate.open();
            stopper.join().unwrap();
            bulk_result
        });
        let failure = bulk_result
            .unwrap()
            .expect_err("shutdown mid-batch fails the bulk call");
        assert_eq!(failure.error, ClusterSubmitError::Stopped);
        assert!(
            !failure.accepted.is_empty(),
            "jobs queued before the stop must keep their tickets"
        );
        // Every accepted ticket was drained by shutdown and is correct.
        for (idx, ticket) in &failure.accepted {
            assert!(ticket.is_done(), "shutdown drains accepted tickets");
            assert_eq!(ticket.wait().unwrap(), oracle[*idx], "job {idx}");
        }
    }

    #[test]
    fn drain_tile_rejects_bad_and_repeated_indices() {
        let config = ClusterConfig {
            probation_after: 2,
            ..small_config()
        };
        let cluster = ServiceCluster::for_engine_name("barrett", 3, config).unwrap();
        assert_eq!(
            cluster.drain_tile(7).err(),
            Some(CoreError::UnknownTile { tile: 7 })
        );
        let report = cluster.drain_tile(1).unwrap();
        assert_eq!(report.tile, 1);
        assert_eq!(report.active_tiles, 2);
        assert!(report.epoch >= 1);
        assert_eq!(cluster.tile_state(1), Some(TileState::Drained));
        assert_eq!(
            cluster.drain_tile(1).err(),
            Some(CoreError::TileDraining { tile: 1 }),
            "double drain is refused"
        );
        // Jobs for every modulus still complete on the 2 live tiles,
        // and none land on the drained tile.
        let mut tickets = Vec::new();
        for i in 0..12u64 {
            let p = UBig::from(2 * i + 97);
            assert_ne!(
                cluster.home_tile(&p),
                Some(1),
                "drained tile is not routable"
            );
            let job = MulJob::new(UBig::from(i + 2), UBig::from(i + 3), p.clone());
            let want = &(&job.a * &job.b) % &p;
            tickets.push((cluster.submit(job).unwrap(), want));
        }
        for (t, want) in &tickets {
            assert_eq!(&t.wait().unwrap(), want);
        }
        let stats = cluster.stats();
        assert_eq!(stats.tiles[1].service.submitted, 0);
        assert_eq!(stats.tiles_drained, 1);
        assert_eq!(stats.active_tiles, 2);
        cluster.shutdown();
    }

    #[test]
    fn add_tile_grows_the_routable_set_and_rehomes_minimally() {
        let cluster = ServiceCluster::for_engine_name("barrett", 2, small_config()).unwrap();
        // Route (and track) a spread of moduli, recording their homes.
        let moduli: Vec<UBig> = (0..48u64).map(|i| UBig::from(2 * i + 101)).collect();
        for p in &moduli {
            let t = cluster
                .submit(MulJob::new(UBig::from(3u64), UBig::from(5u64), p.clone()))
                .unwrap();
            t.wait().unwrap();
        }
        let before: Vec<Option<usize>> = moduli.iter().map(|p| cluster.home_tile(p)).collect();
        let service = ModSramService::for_engine_name("barrett", small_config().service).unwrap();
        let report = cluster.add_tile(service).unwrap();
        assert_eq!(report.tile, 2);
        assert_eq!(report.active_tiles, 3);
        let after: Vec<Option<usize>> = moduli.iter().map(|p| cluster.home_tile(p)).collect();
        let mut moved = 0u64;
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if b != a {
                assert_eq!(*a, Some(2), "modulus {i} may only move TO the new tile");
                moved += 1;
            }
        }
        assert!(moved > 0, "a new tile must win some moduli");
        assert_eq!(
            report.rehomed_moduli, moved,
            "re-home accounting matches observed home moves"
        );
        // New-tile traffic actually lands there.
        let Some(p) = moduli.iter().find(|p| cluster.home_tile(p) == Some(2)) else {
            panic!("some tracked modulus homes on the new tile");
        };
        let t = cluster
            .submit(MulJob::new(UBig::from(7u64), UBig::from(9u64), p.clone()))
            .unwrap();
        t.wait().unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.tiles.len(), 3);
        assert_eq!(stats.tiles_added, 1);
        assert!(stats.tiles[2].service.submitted >= 1);
        cluster.shutdown();
    }

    #[test]
    fn poisoned_tile_is_pardoned_after_probation() {
        use crate::test_util::recovering_pool;
        // Tile 0 panics on calls 1..=2 then recovers for good. With
        // poison_after = 2 the router sidelines it; two clean probes
        // later probe_tiles() pardons it and its modulus comes home.
        let config = ClusterConfig {
            spill: SpillPolicy::Spill { max_hops: 1 },
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 16,
                max_batch: 1,
                flush_interval: Duration::ZERO,
                pipeline_depth: 1,
                ..Default::default()
            },
            poison_after: 2,
            probation_after: 2,
            ..Default::default()
        };
        let sick = recovering_pool(1, 2, FailureMode::Panic);
        let healthy = ContextPool::for_engine_name("barrett").unwrap();
        let cluster = ServiceCluster::new(vec![sick, healthy], config);
        let p = (0..64u64)
            .map(|i| UBig::from(1_000_003u64 + 2 * i))
            .find(|p| cluster.home_tile(p) == Some(0))
            .expect("some modulus homes on tile 0");
        let job = |i: u64| MulJob::new(UBig::from(i + 2), UBig::from(i + 3), p.clone());
        // Two panicking batches poison tile 0.
        for i in 0..2u64 {
            let t = cluster.submit(job(i)).unwrap();
            assert!(t.wait().is_err(), "panicked batch fails its ticket");
        }
        let stats = cluster.stats();
        assert!(stats.tiles[0].poisoned, "tile 0 hit poison_after");
        // Its modulus fails over to tile 1 (counted as spilled).
        let t = cluster.submit(job(10)).unwrap();
        t.wait().unwrap();
        assert!(cluster.stats().spilled >= 1);
        // Probation: the first probe only records the panic baseline
        // (the count grew since construction, so it cannot pass); the
        // next two clean probes complete the window and pardon.
        assert_eq!(cluster.probe_tiles(), ProbeReport::default());
        assert_eq!(cluster.probe_tiles(), ProbeReport::default());
        let report = cluster.probe_tiles();
        assert_eq!(report.unpoisoned, vec![0]);
        assert!(!cluster.stats().tiles[0].poisoned, "pardon cleared poison");
        // Traffic returns to the recovered home tile and succeeds
        // (the pool's fuse has burned out).
        let t = cluster.submit(job(20)).unwrap();
        let want = &(&UBig::from(22u64) * &UBig::from(23u64)) % &p;
        assert_eq!(t.wait().unwrap(), want);
        let stats = cluster.shutdown();
        assert!(
            stats.tiles[0].service.completed >= 1,
            "home tile serves again"
        );
    }

    #[test]
    fn cluster_submit_error_maps_into_core_error() {
        assert_eq!(
            CoreError::from(ClusterSubmitError::Stopped),
            CoreError::ClusterStopped
        );
        assert_eq!(
            CoreError::from(ClusterSubmitError::AllTilesSaturated { tried: 2 }),
            CoreError::AllTilesSaturated { tried: 2 }
        );
        assert!(CoreError::AllTilesSaturated { tried: 2 }
            .to_string()
            .contains("2 tile(s)"));
        assert!(CoreError::UnknownTile { tile: 9 }.to_string().contains("9"));
        assert!(CoreError::TileDraining { tile: 3 }
            .to_string()
            .contains("3"));
    }

    #[test]
    fn set_tile_weight_rejects_zero_and_unknown() {
        let cluster = ServiceCluster::for_engine_name("barrett", 2, small_config()).unwrap();
        assert_eq!(
            cluster.set_tile_weight(0, 0).err(),
            Some(CoreError::ZeroTileWeight { tile: 0 })
        );
        assert_eq!(
            cluster.set_tile_weight(9, 3).err(),
            Some(CoreError::UnknownTile { tile: 9 })
        );
        let service = ModSramService::for_engine_name("barrett", small_config().service).unwrap();
        assert!(matches!(
            cluster.add_tile_weighted(service, 0).err(),
            Some(CoreError::ZeroTileWeight { tile: 2 })
        ));
        assert_eq!(cluster.tile_weight(0), Some(1));
        assert_eq!(cluster.tile_weight(9), None);
        cluster.shutdown();
    }

    #[test]
    fn set_tile_weight_pulls_moduli_only_onto_the_raised_tile() {
        let cluster = ServiceCluster::for_engine_name("barrett", 4, small_config()).unwrap();
        // Route (and track) a spread of moduli.
        let moduli: Vec<UBig> = (0..64u64).map(|i| UBig::from(2 * i + 101)).collect();
        for p in &moduli {
            cluster
                .submit(MulJob::new(UBig::from(3u64), UBig::from(5u64), p.clone()))
                .unwrap()
                .wait()
                .unwrap();
        }
        let before: Vec<Option<usize>> = moduli.iter().map(|p| cluster.home_tile(p)).collect();
        // Republishing the same weight is a no-op placement-wise.
        let change = cluster.set_tile_weight(2, 1).unwrap();
        assert_eq!(change.rehomed_moduli, 0, "weight-1 republish moves nothing");
        // Raising tile 2's weight only ever pulls moduli onto tile 2.
        let change = cluster.set_tile_weight(2, 4).unwrap();
        assert_eq!(cluster.tile_weight(2), Some(4));
        let after: Vec<Option<usize>> = moduli.iter().map(|p| cluster.home_tile(p)).collect();
        let mut moved = 0u64;
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if b != a {
                assert_eq!(*a, Some(2), "modulus {i} may only move TO the raised tile");
                moved += 1;
            }
        }
        assert!(moved > 0, "a 4x tile must win some moduli from 64");
        assert_eq!(change.rehomed_moduli, moved, "re-home accounting matches");
        assert_eq!(cluster.stats().tiles[2].weight, 4);
        // The weighted standalone planner predicts the live router.
        for (p, a) in moduli.iter().zip(&after) {
            assert_eq!(weighted_home_tile_for(p, &[1, 1, 4, 1]), *a);
        }
        cluster.shutdown();
    }

    #[test]
    fn hot_modulus_replication_promotes_routes_and_demotes() {
        // One modulus hot enough to saturate its Strict home must be
        // promoted to a replica set, served by both replicas, and
        // demoted once the pressure subsides.
        let config = ClusterConfig {
            spill: SpillPolicy::Strict,
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 2,
                max_batch: 1,
                flush_interval: Duration::ZERO,
                pipeline_depth: 1,
                ..Default::default()
            },
            poison_after: 0,
            probation_after: 2,
            replicate_after: 3,
            replica_tiles: 2,
        };
        let delay = Duration::from_millis(2);
        let cluster = ServiceCluster::new(vec![slow_pool(delay), slow_pool(delay)], config);
        let p = (0..64u64)
            .map(|i| UBig::from(1_000_003u64 + 2 * i))
            .find(|p| cluster.home_tile(p) == Some(0))
            .expect("some modulus homes on tile 0");
        let job = |i: u64| MulJob::new(UBig::from(i + 2), UBig::from(i + 3), p.clone());
        // Saturate the home: accepted jobs fill the tiny queue, then
        // refused try_submits rack up saturation events.
        let mut tickets = Vec::new();
        let mut refused = 0u64;
        for i in 0..32u64 {
            match cluster.try_submit(job(i)) {
                Ok(t) => tickets.push(t),
                Err(_) => refused += 1,
            }
        }
        assert!(refused >= 3, "the Strict home must have refused a burst");
        for t in tickets.drain(..) {
            t.wait().unwrap();
        }
        // The probe window closes: the modulus is promoted.
        let report = cluster.probe_tiles();
        assert_eq!(report.promoted, vec![p.clone()], "hot modulus promoted");
        assert_eq!(cluster.stats().replicated_moduli, 1);
        // A modest burst (within the two replicas' combined buffering,
        // so it saturates nothing and the calm window below is clean)
        // now lands across both replicas, most headroom first.
        for i in 100..106u64 {
            tickets.push(cluster.submit(job(i)).unwrap());
        }
        for t in tickets.drain(..) {
            t.wait().unwrap();
        }
        let stats = cluster.stats();
        assert!(
            stats.replica_routed >= 1,
            "some jobs must land on the non-home replica (stats: {} replica_routed)",
            stats.replica_routed
        );
        assert!(
            stats.tiles[1].routed >= 1,
            "the replica tile serves the hot modulus as affinity traffic"
        );
        assert_eq!(stats.spilled, 0, "replica landings are not spills");
        // Demotion takes `probation_after = 2` *consecutive* calm
        // probes, so the very next probe can never demote: the calm
        // counter is at most 1 (it is 0 if the burst itself recorded a
        // saturation event before the replicas absorbed it).
        assert!(cluster.probe_tiles().demoted.is_empty());
        // Within two further idle probes the calm window closes.
        let mut demoted = cluster.probe_tiles().demoted;
        if demoted.is_empty() {
            demoted = cluster.probe_tiles().demoted;
        }
        assert_eq!(demoted, vec![p.clone()], "calm modulus demoted");
        assert_eq!(cluster.stats().replicated_moduli, 0);
        cluster.shutdown();
    }

    #[test]
    fn cluster_prepared_streams_through_the_router() {
        let cluster = ServiceCluster::for_engine_name("montgomery", 2, small_config()).unwrap();
        let ctx = cluster.prepared(&UBig::from(1_000_003u64));
        assert_eq!(ctx.engine_name(), "cluster");
        assert_eq!(ctx.modulus(), &UBig::from(1_000_003u64));
        assert_eq!(
            ctx.mod_mul(&UBig::from(2024u64), &UBig::from(4096u64))
                .unwrap(),
            UBig::from(2024u64 * 4096 % 1_000_003)
        );
        let pairs = vec![(UBig::from(3u64), UBig::from(5u64)); 6];
        assert_eq!(
            ctx.mod_mul_batch(&pairs).unwrap(),
            vec![UBig::from(15u64); 6]
        );
        let stats = cluster.shutdown();
        assert_eq!(stats.completed, 7);
    }
}
