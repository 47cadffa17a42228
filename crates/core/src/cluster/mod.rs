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
//!   lands on one tile, so that tile's executor still takes long
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
//! Every placement is one call into a pure, lock-free router. A
//! submission reads each tile's [`TileHealth`] at most once, and a
//! spill candidate's only after the home tile has refused the job.
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
//! * [`SpillPolicy::Spill`] — after the home refuses, offer the job
//!   to the next `max_hops` usable tiles in the modulus's own
//!   weighted rendezvous ranking: the ranking that gives the natural
//!   home and the failover order. Work flows off a saturated macro,
//!   and it flows to the same warm tile every time. A spilled modulus
//!   is prepared there once (a context-pool miss: Montgomery
//!   constants, Barrett µ, or a full Table 1b LUT fill), and that
//!   context stays warm for every later spill and for the day the
//!   home drains and the modulus moves there for good. The price is
//!   the spill tile's resident tenants, whose executor now coalesces
//!   a foreign modulus and loses some multiplicand-run length; that
//!   is why `max_hops` bounds the dilution. The router never reads a
//!   queue depth: a tile's own `try_submit` refusal is the load
//!   signal, so one hot modulus saturating its home costs each
//!   spilled job one extra health probe per hop, not one per tile.
//!
//! Blocking [`ClusterHandle::submit`] falls back to waiting on the
//! home tile once every allowed tile has refused without blocking; if
//! the home stops or drains mid-wait, the submission **re-routes**
//! against a fresh membership view instead of failing — the cluster
//! only reports [`ClusterSubmitError::Stopped`] when no routable tile
//! remains. Non-blocking [`ClusterHandle::try_submit`] refuses
//! instead. [`ClusterHandle::try_submit_many`] admits a whole batch
//! without blocking: each home tile's share lands under one queue
//! lock, so an idle executor takes it as one batch, and only the share
//! a tile refuses takes `try_submit`'s per-job spill path.
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

mod route;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use modsram_bigint::UBig;
use modsram_modmul::{ModMulError, PreparedModMul};

use crate::autotune::{AutoTuner, AutotuneStats, TunePolicy};
use crate::dispatch::{ContextPool, MulJob};
use crate::error::CoreError;
use crate::service::{
    backend_error, ticket_result, ModSramService, ServiceConfig, ServiceStats, Ticket, TileHealth,
};
pub use route::{
    home_tile_for, rendezvous_ranking, weighted_home_tile_for, weighted_rendezvous_ranking,
};
use route::{modulus_key, Fleet, Health};

/// What the router does when a job's home tile refuses it with
/// `QueueFull` (see the module docs for the trade-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillPolicy {
    /// Stay on the home tile: block there ([`ClusterHandle::submit`])
    /// or refuse with [`CoreError::AllTilesSaturated`]
    /// ([`ClusterHandle::try_submit`]).
    Strict,
    /// Try up to `max_hops` more usable tiles, in the modulus's
    /// rendezvous order after its home, before blocking on (or
    /// refusing for) the home tile.
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
    /// itself is configured identically; heterogeneous tiles join live
    /// via [`ServiceCluster::add_tile_weighted`]).
    pub service: ServiceConfig,
    /// Caught executor panics after which a tile is considered
    /// poisoned and routed around (`0` disables poison detection).
    pub poison_after: u64,
    /// Consecutive passing [`ServiceCluster::probe_tiles`] checks after
    /// which a drained tile is re-admitted to the routable set (and a
    /// poisoned tile's panic count is pardoned). `0` disables
    /// probation: drained tiles sit out until shutdown.
    pub probation_after: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            spill: SpillPolicy::default(),
            service: ServiceConfig::default(),
            poison_after: 3,
            probation_after: 3,
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

/// One epoch-versioned membership snapshot: the tiles, and the
/// [`Fleet`] (state and weight per tile) the router decides on. A
/// submission clones the `Arc` once and routes against one consistent
/// weighted view; [`ClusterShared::publish`] swaps in a new snapshot.
struct Membership {
    epoch: u64,
    tiles: Vec<Arc<TileCell>>,
    fleet: Fleet,
}

/// Bound on the tracked-modulus map: beyond this many distinct moduli
/// the router stops recording new ones (re-home statistics become a
/// sample; routing itself is unaffected).
const TRACKED_MODULI_CAP: usize = 1 << 16;

/// State shared by the cluster front, its handles, and its prepared
/// façades.
struct ClusterShared {
    membership: RwLock<Arc<Membership>>,
    config: ClusterConfig,
    stopped: AtomicBool,
    affinity_hits: AtomicU64,
    spilled: AtomicU64,
    saturated_rejections: AtomicU64,
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

    /// Publishes the next membership epoch: applies `change` (which
    /// returns the tile it changed) to a copy of the current tiles and
    /// fleet, bumps the epoch and re-homes the tracked moduli. Refused
    /// once stopped: shutdown() stores the flag before snapshotting the
    /// tile list, so any change that passes this check under the write
    /// lock is published in time for that shutdown to reach its tile.
    fn publish(
        &self,
        change: impl FnOnce(&mut Vec<Arc<TileCell>>, &mut Fleet) -> Result<usize, CoreError>,
    ) -> Result<MembershipChange, CoreError> {
        let mut guard = self
            .membership
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if self.stopped.load(Ordering::Acquire) {
            return Err(CoreError::ClusterStopped);
        }
        let mut tiles = guard.tiles.clone();
        let mut fleet = guard.fleet.clone();
        let tile = change(&mut tiles, &mut fleet)?;
        let next = Arc::new(Membership {
            epoch: guard.epoch + 1,
            tiles,
            fleet,
        });
        *guard = Arc::clone(&next);
        Ok(MembershipChange {
            epoch: next.epoch,
            tile,
            rehomed_moduli: self.rehome_tracked(&next),
            active_tiles: next.fleet.active_count(),
        })
    }

    /// Poison check with the probation pardon applied.
    fn poisoned(&self, cell: &TileCell, health: &TileHealth) -> bool {
        self.config.poison_after != 0
            && health
                .executor_panics
                // analyzer: allow(relaxed_atomic, monotonic pardon counter; a stale read only delays or hastens one poison verdict by a single probe)
                .saturating_sub(cell.pardoned_panics.load(Ordering::Relaxed))
                >= self.config.poison_after
    }

    /// The router's health view of `m`'s tiles: a tile is usable when
    /// it is live, admitting, and not poisoned.
    fn health<'a>(&'a self, m: &'a Membership) -> Health<impl FnMut(usize) -> bool + 'a> {
        Health::new(m.tiles.len(), move |tile| {
            let cell = &m.tiles[tile];
            let health = cell.service.health();
            !health.stopped && !health.paused && !self.poisoned(cell, &health)
        })
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
    /// membership, counting (and recording) the ones that moved.
    /// Called with the membership write lock held, so
    /// concurrent membership changes serialise their re-home
    /// accounting.
    fn rehome_tracked(&self, m: &Membership) -> u64 {
        let mut homes = self.homes.write().unwrap_or_else(PoisonError::into_inner);
        let mut moved = 0u64;
        for (key, home) in homes.iter_mut() {
            if let Some(natural) = m.fleet.natural(*key) {
                if natural != *home {
                    *home = natural;
                    moved += 1;
                }
            }
        }
        drop(homes);
        self.moduli_rehomed.fetch_add(moved, Ordering::Relaxed);
        moved
    }

    /// Records an accepted job: per-tile tallies plus the cluster's
    /// affinity accounting (`natural` is the rank-0 routable tile the
    /// modulus hashes to, `landed` where the job was actually
    /// accepted).
    fn record(&self, m: &Membership, landed: usize, natural: usize) {
        if landed == natural {
            m.tiles[landed].routed.fetch_add(1, Ordering::Relaxed);
            self.affinity_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            m.tiles[landed].spilled_in.fetch_add(1, Ordering::Relaxed);
            self.spilled.fetch_add(1, Ordering::Relaxed);
        }
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
            let mut health = self.health(&m);
            let Some(route) = route::route(&m.fleet, &mut health, key) else {
                return Err(ClusterSubmitError::Stopped);
            };
            self.track_home(key, route.natural);
            let offer = |tiles: &[usize]| {
                tiles.iter().find_map(|&tile| {
                    // A refusal (full, draining, or racing its own
                    // shutdown) moves on to the next tile offered.
                    let ticket = m.tiles[tile].service.try_submit(job.clone()).ok()?;
                    self.record(&m, tile, route.natural);
                    Some(ticket)
                })
            };
            if let Some(ticket) = offer(&[route.home]) {
                return Ok(ticket);
            }
            let spill = route::spill(&mut health, &route, self.config.spill);
            if let Some(ticket) = offer(&spill) {
                return Ok(ticket);
            }
            if !block {
                self.saturated_rejections.fetch_add(1, Ordering::Relaxed);
                let tried = 1 + spill.len();
                return Err(ClusterSubmitError::AllTilesSaturated { tried });
            }
            // Every allowed tile refused without blocking: wait for the
            // home queue so sustained overload still lands with
            // affinity (and still backpressures the producer).
            if let Ok(ticket) = m.tiles[route.home].service.submit(job.clone()) {
                self.record(&m, route.home, route.natural);
                return Ok(ticket);
            }
            // The home stopped or paused mid-wait. A fresh route
            // excludes it, so the job lands on the next-ranked live
            // tile — the cluster is only down when no routable tile
            // remains.
            reroutes += 1;
            if reroutes > m.tiles.len() + 1 {
                return Err(ClusterSubmitError::Stopped);
            }
        }
    }

    /// Routes `jobs`, each tagged with its index in the caller's batch,
    /// to their home tiles under `m` (each distinct modulus once, all
    /// against one health view) and queues every tile's share under a
    /// single lock: waiting for room when `block` is set, refusing the
    /// rest of the share otherwise. Accepted tickets land in `slots`.
    /// Returns the jobs left over, in batch order: those a tile
    /// refused and those with no usable tile. (Blocking bulk
    /// submission trusts affinity: spilling inside a batch would
    /// interleave two tiles' completions for one caller.)
    fn enqueue_by_home(
        &self,
        m: &Membership,
        jobs: Vec<(usize, MulJob)>,
        block: bool,
        slots: &mut [Option<Ticket>],
    ) -> Vec<(usize, MulJob)> {
        let mut health = self.health(m);
        let mut routes: HashMap<u64, Option<(usize, usize)>> = HashMap::new();
        let mut per_tile: Vec<Vec<(usize, usize, MulJob)>> =
            (0..m.tiles.len()).map(|_| Vec::new()).collect();
        let mut rest = Vec::new();
        for (idx, job) in jobs {
            let key = modulus_key(&job.modulus);
            let route = *routes.entry(key).or_insert_with(|| {
                let route = route::route(&m.fleet, &mut health, key)?;
                self.track_home(key, route.natural);
                Some((route.home, route.natural))
            });
            match route {
                Some((home, natural)) => per_tile[home].push((idx, natural, job)),
                None => rest.push((idx, job)),
            }
        }
        for (tile, share) in per_tile.into_iter().enumerate() {
            if share.is_empty() {
                continue;
            }
            let (meta, tile_jobs): (Vec<(usize, usize)>, Vec<MulJob>) = share
                .into_iter()
                .map(|(idx, natural, job)| ((idx, natural), job))
                .unzip();
            let (tickets, refused) = m.tiles[tile]
                .service
                .handle()
                .enqueue_many(tile_jobs, block);
            let accepted = tickets.len();
            for (&(idx, natural), ticket) in meta.iter().zip(tickets) {
                self.record(m, tile, natural);
                slots[idx] = Some(ticket);
            }
            if let Some((_, refused)) = refused {
                rest.extend(meta[accepted..].iter().map(|&(idx, _)| idx).zip(refused));
            }
        }
        rest.sort_unstable_by_key(|&(idx, _)| idx);
        rest
    }

    fn try_submit_many(&self, jobs: Vec<MulJob>) -> Vec<Result<Ticket, ClusterSubmitError>> {
        // A batch of one gains nothing from bulk admission, and the
        // per-job path reports a stopped cluster.
        if jobs.len() == 1 || self.stopped.load(Ordering::Acquire) {
            return jobs
                .into_iter()
                .map(|job| self.submit_inner(job, false))
                .collect();
        }
        let mut slots: Vec<Option<Ticket>> = (0..jobs.len()).map(|_| None).collect();
        let jobs = jobs.into_iter().enumerate().collect();
        let rest = self.enqueue_by_home(&self.snapshot(), jobs, false, &mut slots);
        let mut outcomes: Vec<Result<Ticket, ClusterSubmitError>> = slots
            .into_iter()
            .map(|t| t.ok_or(ClusterSubmitError::Stopped))
            .collect();
        for (idx, job) in rest {
            outcomes[idx] = self.submit_inner(job, false);
        }
        outcomes
    }

    fn submit_many(&self, jobs: Vec<MulJob>) -> Result<Vec<Ticket>, BulkSubmitFailure> {
        let mut slots: Vec<Option<Ticket>> = (0..jobs.len()).map(|_| None).collect();
        let mut pending: Vec<(usize, MulJob)> = jobs.into_iter().enumerate().collect();
        let mut stalled_rounds = 0usize;
        while !pending.is_empty() && !self.stopped.load(Ordering::Acquire) {
            let m = self.snapshot();
            // A tile may stop mid-share, and a modulus may find no
            // routable tile; what was not queued re-routes next round
            // against a fresh snapshot instead of being dropped with its
            // waiters stranded.
            let before = pending.len();
            pending = self.enqueue_by_home(&m, pending, true, &mut slots);
            if pending.len() < before {
                stalled_rounds = 0;
            } else {
                stalled_rounds += 1;
                if stalled_rounds > m.tiles.len() + 1 {
                    break;
                }
            }
        }
        // A job still pending has no ticket: the cluster stopped, or
        // lost its last routable tile, before it could be queued.
        if slots.iter().all(Option::is_some) {
            return Ok(slots.into_iter().flatten().collect());
        }
        Err(BulkSubmitFailure {
            error: ClusterSubmitError::Stopped,
            accepted: slots
                .into_iter()
                .enumerate()
                .filter_map(|(i, t)| t.map(|t| (i, t)))
                .collect(),
        })
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
    /// [`SpillPolicy::Spill`]) the next usable tiles in the modulus's
    /// rendezvous ranking.
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

    /// Submits a whole batch without blocking and returns one outcome
    /// per job, in job order. Each home tile's share is queued under a
    /// single lock with a single wake-up, so an idle tile takes it as
    /// one batch. The share a tile refuses goes through
    /// [`ClusterHandle::try_submit`]'s per-job path, which spills as
    /// the [`SpillPolicy`] allows. Each refused offer
    /// counts in that tile's [`ServiceStats::rejected`], so a job the
    /// home refuses in bulk and again on the per-job path counts twice
    /// there.
    ///
    /// # Errors
    ///
    /// Per job, as [`ClusterHandle::try_submit`].
    pub fn try_submit_many(&self, jobs: Vec<MulJob>) -> Vec<Result<Ticket, ClusterSubmitError>> {
        self.shared.try_submit_many(jobs)
    }
}

/// Per-tile routing and service statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TileStats {
    /// Jobs accepted with this tile as their natural home.
    pub routed: u64,
    /// Jobs accepted here after spilling (or failing over) from
    /// another tile's home.
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
            m.fleet.active_count(),
            m.epoch,
            self.shared.config.spill
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
        assert!(!pools.is_empty(), "a cluster needs at least one tile");
        let tiles: Vec<Arc<TileCell>> = pools
            .into_iter()
            .map(|pool| {
                let service = ModSramService::new(pool, config.service.clone());
                Arc::new(TileCell::new(Arc::new(service)))
            })
            .collect();
        let fleet = Fleet {
            states: vec![TileState::Active; tiles.len()],
            weights: vec![1; tiles.len()],
        };
        ServiceCluster {
            shared: Arc::new(ClusterShared {
                membership: RwLock::new(Arc::new(Membership {
                    epoch: 0,
                    tiles,
                    fleet,
                })),
                config,
                stopped: AtomicBool::new(false),
                affinity_hits: AtomicU64::new(0),
                spilled: AtomicU64::new(0),
                saturated_rejections: AtomicU64::new(0),
                tiles_added: AtomicU64::new(0),
                tiles_drained: AtomicU64::new(0),
                tiles_readmitted: AtomicU64::new(0),
                moduli_rehomed: AtomicU64::new(0),
                homes: RwLock::new(HashMap::new()),
                homes_full: AtomicBool::new(false),
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
        self.shared.snapshot().fleet.active_count()
    }

    /// The current membership epoch (bumped by every add, drain, and
    /// probation re-admission).
    pub fn membership_epoch(&self) -> u64 {
        self.shared.snapshot().epoch
    }

    /// A tile's membership lifecycle state, `None` for an out-of-range
    /// index.
    pub fn tile_state(&self, tile: usize) -> Option<TileState> {
        self.shared.snapshot().fleet.states.get(tile).copied()
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
        self.shared.snapshot().fleet.natural(modulus_key(p))
    }

    /// A tile's capacity weight under the current membership, `None`
    /// for an out-of-range index.
    pub fn tile_weight(&self, tile: usize) -> Option<u32> {
        self.shared.snapshot().fleet.weights.get(tile).copied()
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
        let change = self.shared.publish(|tiles, fleet| {
            let tile = tiles.len();
            if weight == 0 {
                return Err(CoreError::ZeroTileWeight { tile });
            }
            tiles.push(Arc::new(TileCell::new(Arc::new(service))));
            fleet.states.push(TileState::Active);
            fleet.weights.push(weight);
            Ok(tile)
        })?;
        self.shared.tiles_added.fetch_add(1, Ordering::Relaxed);
        Ok(change)
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
        self.shared.publish(|_, fleet| {
            let slot = fleet
                .weights
                .get_mut(tile)
                .ok_or(CoreError::UnknownTile { tile })?;
            *slot = weight;
            Ok(tile)
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
    /// drained, [`CoreError::ClusterStopped`] after shutdown (also when
    /// a shutdown lands mid-drain).
    pub fn drain_tile(&self, tile: usize) -> Result<MembershipChange, CoreError> {
        // Phase 1: publish the tile as non-routable and pause its
        // admissions under the same write lock, so no submission —
        // racing or future — can land on it past this point.
        let paused = self.shared.publish(|tiles, fleet| {
            let cell = tiles.get(tile).ok_or(CoreError::UnknownTile { tile })?;
            if fleet.states[tile] != TileState::Active {
                return Err(CoreError::TileDraining { tile });
            }
            fleet.states[tile] = TileState::Draining;
            cell.service.pause_admissions();
            Ok(tile)
        })?;
        // Phase 2: with admissions paused the tile signals once every
        // accepted job is delivered; a concurrent shutdown ends the wait.
        if let Some(service) = self.tile_service(tile) {
            service.wait_quiesced();
        }
        // Phase 3: mark the empty tile Drained (probation-eligible).
        let drained = self.shared.publish(|_, fleet| {
            fleet.states[tile] = TileState::Drained;
            Ok(tile)
        })?;
        self.shared.tiles_drained.fetch_add(1, Ordering::Relaxed);
        Ok(MembershipChange {
            rehomed_moduli: paused.rehomed_moduli,
            ..drained
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
        if self.shared.config.probation_after == 0 {
            return report;
        }
        let m = self.shared.snapshot();
        for (tile, cell) in m.tiles.iter().enumerate() {
            match m.fleet.states[tile] {
                TileState::Draining => continue,
                TileState::Drained => {
                    // Probation complete: resume admissions and publish
                    // the tile Active, unless a racing probe or
                    // shutdown moved it out of Drained first.
                    let readmit = |tiles: &mut Vec<Arc<TileCell>>, fleet: &mut Fleet| {
                        if fleet.states[tile] != TileState::Drained {
                            return Err(CoreError::TileDraining { tile });
                        }
                        fleet.states[tile] = TileState::Active;
                        tiles[tile].service.resume_admissions();
                        Ok(tile)
                    };
                    if self.probe_cell(cell) && self.shared.publish(readmit).is_ok() {
                        self.shared.tiles_readmitted.fetch_add(1, Ordering::Relaxed);
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
        if ok < self.shared.config.probation_after {
            return false;
        }
        cell.probe_ok.store(0, Ordering::Relaxed);
        cell.pardoned_panics
            // analyzer: allow(relaxed_atomic, pardon level only trails the monotonic panic counter; a stale read re-poisons for at most one probe round)
            .store(health.executor_panics, Ordering::Relaxed);
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
                    weight: m.fleet.weights[i],
                    poisoned: self.shared.poisoned(cell, &health),
                    state: m.fleet.states[i],
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
            active_tiles: m.fleet.active_count(),
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
    use super::route::{rendezvous_score, RendezvousScore};
    use super::*;
    use crate::test_util::{gated_pool, saturate_gated_home, FailureMode, Gate};

    fn small_config() -> ClusterConfig {
        ClusterConfig {
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 64,
                max_batch: 8,
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
            let live = cluster.shared.snapshot().fleet.ranked(modulus_key(&p));
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
    fn try_submit_many_returns_outcomes_in_job_order() {
        let cluster = ServiceCluster::for_engine_name("barrett", 3, small_config()).unwrap();
        let jobs: Vec<MulJob> = (0..30u64)
            .map(|i| {
                let p = UBig::from([97u64, 101, 65537][(i % 3) as usize]);
                MulJob::new(UBig::from(i + 2), UBig::from(i + 5), p)
            })
            .collect();
        let outcomes = cluster.handle().try_submit_many(jobs.clone());
        assert_eq!(outcomes.len(), jobs.len());
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            let ticket = outcome.as_ref().expect("idle tiles take every share");
            assert_eq!(ticket.wait().unwrap(), &(&job.a * &job.b) % &job.modulus);
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.submitted, 30);
        assert_eq!(stats.affinity_hit_rate(), 1.0);
        assert_eq!(stats.spilled, 0);
    }

    #[test]
    fn try_submit_many_spills_the_refused_remainder_as_the_policy_says() {
        let tile = ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch: 1,
        };
        for spill in [SpillPolicy::Spill { max_hops: 1 }, SpillPolicy::Strict] {
            let gate = Gate::new();
            let config = ClusterConfig {
                spill,
                service: tile.clone(),
                ..Default::default()
            };
            let cluster = ServiceCluster::new(vec![gated_pool(&gate), gated_pool(&gate)], config);
            let p = (0..64u64)
                .map(|i| UBig::from(1_000_003u64 + 2 * i))
                .find(|p| cluster.home_tile(p) == Some(0))
                .expect("some modulus homes on tile 0");
            let jobs: Vec<MulJob> = (0..5u64)
                .map(|i| MulJob::new(UBig::from(i + 2), UBig::from(i + 3), p.clone()))
                .collect();
            // The home's executor holds job 0 at the gate, leaving room
            // for exactly two queued jobs: the batch's first two.
            let held = cluster.try_submit(jobs[0].clone()).unwrap();
            gate.wait_entered(1);
            let outcomes = cluster.handle().try_submit_many(jobs[1..].to_vec());
            assert!(outcomes[0].is_ok() && outcomes[1].is_ok(), "{spill:?}");
            let stats = cluster.stats();
            assert_eq!(stats.tiles[0].service.submitted, 3, "{spill:?}");
            match spill {
                SpillPolicy::Spill { .. } => {
                    assert!(outcomes[2..].iter().all(Result::is_ok));
                    assert_eq!(stats.spilled, 2);
                    assert_eq!(stats.tiles[1].spilled_in, 2);
                }
                SpillPolicy::Strict => {
                    for outcome in &outcomes[2..] {
                        assert_eq!(
                            outcome.as_ref().err(),
                            Some(&ClusterSubmitError::AllTilesSaturated { tried: 1 })
                        );
                    }
                    assert_eq!(stats.saturated_rejections, 2);
                    assert_eq!(stats.tiles[1].service.submitted, 0);
                }
            }
            gate.open();
            let tickets = std::iter::once(Ok(held)).chain(outcomes);
            for (job, outcome) in jobs.iter().zip(tickets) {
                if let Ok(ticket) = outcome {
                    assert_eq!(ticket.wait().unwrap(), &(&job.a * &job.b) % &p);
                }
            }
            cluster.shutdown();
        }
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
        assert_eq!(
            cluster.handle().try_submit_many(vec![job.clone()])[0]
                .as_ref()
                .err(),
            Some(&ClusterSubmitError::Stopped)
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
        let warm = saturate_gated_home(&cluster, &gate, &p, &tile);
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
            },
            poison_after: 2,
            probation_after: 2,
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

    #[test]
    fn a_submission_probes_a_tile_once_and_spill_tiles_only_after_a_refusal() {
        for spill in [SpillPolicy::Strict, SpillPolicy::Spill { max_hops: 1 }] {
            let config = ClusterConfig {
                spill,
                ..small_config()
            };
            let cluster = ServiceCluster::for_engine_name("barrett", 3, config).unwrap();
            // Service stats read the probe counter without probing.
            let probes = || -> u64 {
                (0..3)
                    .map(|t| cluster.tile_service(t).unwrap().stats().health_probes)
                    .sum()
            };
            let before = probes();
            let p = UBig::from(1_000_003u64);
            let job = MulJob::new(UBig::from(5u64), UBig::from(7u64), p.clone());
            let ticket = cluster.try_submit(job).unwrap();
            assert_eq!(probes() - before, 1, "{spill:?}: the home accepted");
            assert_eq!(ticket.wait().unwrap(), UBig::from(35u64));
            let jobs: Vec<MulJob> = (0..32u64)
                .map(|i| MulJob::new(UBig::from(i + 2), UBig::from(3u64), UBig::from(2 * i + 101)))
                .collect();
            let before = probes();
            let outcomes = cluster.handle().try_submit_many(jobs.clone());
            assert!(probes() - before <= 3, "{spill:?}: one probe per tile");
            for (job, outcome) in jobs.iter().zip(outcomes) {
                let want = &(&job.a * &job.b) % &job.modulus;
                assert_eq!(outcome.unwrap().wait().unwrap(), want);
            }
            cluster.shutdown();
        }
    }

    #[test]
    fn drain_waits_on_the_tile_and_a_shutdown_ends_the_wait() {
        for shutdown in [false, true] {
            let gate = Gate::new();
            let config = ClusterConfig {
                service: ServiceConfig {
                    workers: 1,
                    queue_capacity: 4,
                    max_batch: 1,
                },
                ..Default::default()
            };
            let cluster = ServiceCluster::new(vec![gated_pool(&gate), gated_pool(&gate)], config);
            let held = cluster
                .submit(MulJob::new(
                    UBig::from(2u64),
                    UBig::from(3u64),
                    UBig::from(97u64),
                ))
                .unwrap();
            gate.wait_entered(1);
            let tile = cluster.home_tile(&UBig::from(97u64)).unwrap();
            std::thread::scope(|scope| {
                let drain = scope.spawn(|| cluster.drain_tile(tile));
                while cluster.tile_state(tile) != Some(TileState::Draining) {
                    std::thread::yield_now();
                }
                assert!(!drain.is_finished(), "the held job keeps the tile busy");
                if shutdown {
                    // The tile's shutdown joins the executor held at
                    // the gate, but it closes the queue first, and that
                    // alone must end the drain's wait.
                    let stopper = scope.spawn(|| cluster.shutdown());
                    assert_eq!(drain.join().unwrap(), Err(CoreError::ClusterStopped));
                    gate.open();
                    stopper.join().unwrap();
                } else {
                    gate.open();
                    let change = drain.join().unwrap().unwrap();
                    assert_eq!(change.active_tiles, 1);
                    assert_eq!(cluster.tile_state(tile), Some(TileState::Drained));
                }
            });
            assert_eq!(held.wait().unwrap(), UBig::from(6u64));
            cluster.shutdown();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The live cluster places every job on the pure router's first
        /// tile for the membership and health it routed against, over
        /// random sequences of grows, reweighs, drains, probation
        /// probes, tile stops (a routable tile that is not usable) and
        /// submissions. One thread drives each case and
        /// every job is waited on, so no thread races the check.
        #[test]
        fn live_placement_is_the_pure_routers_first_tile(
            ops in proptest::prop::collection::vec((0u8..6, 0usize..8, 1u32..5, 0u64..24), 1..24),
        ) {
            let config = ClusterConfig {
                probation_after: 1,
                ..small_config()
            };
            let cluster = ServiceCluster::for_engine_name("barrett", 2, config).unwrap();
            for (op, tile, weight, m) in ops {
                let tile = tile % cluster.tiles();
                match op {
                    0 => {
                        let service =
                            ModSramService::for_engine_name("barrett", small_config().service)
                                .unwrap();
                        cluster.add_tile_weighted(service, weight).unwrap();
                    }
                    1 => {
                        cluster.set_tile_weight(tile, weight).unwrap();
                    }
                    2 => {
                        let _ = cluster.drain_tile(tile);
                    }
                    3 => {
                        cluster.probe_tiles();
                    }
                    4 => {
                        cluster.tile_service(tile).unwrap().shutdown();
                    }
                    _ => {
                        let p = UBig::from(2 * m + 1_000_003);
                        let before = cluster.stats();
                        let fleet = Fleet {
                            states: before.tiles.iter().map(|t| t.state).collect(),
                            weights: before.tiles.iter().map(|t| t.weight).collect(),
                        };
                        let mut health = Health::new(fleet.states.len(), |t| {
                            let tile = &before.tiles[t];
                            !tile.health.stopped && !tile.health.paused && !tile.poisoned
                        });
                        let key = modulus_key(&p);
                        let want = route::route(&fleet, &mut health, key).map(|r| r.home);
                        proptest::prop_assert_eq!(cluster.home_tile(&p), fleet.natural(key));
                        let job = MulJob::new(UBig::from(m + 2), UBig::from(3u64), p.clone());
                        let landed = match cluster.try_submit(job) {
                            Ok(ticket) => {
                                ticket.wait().unwrap();
                                let after = cluster.stats();
                                after.tiles.iter().zip(&before.tiles).position(|(a, b)| {
                                    a.service.submitted > b.service.submitted
                                })
                            }
                            Err(e) => {
                                proptest::prop_assert_eq!(e, ClusterSubmitError::Stopped);
                                None
                            }
                        };
                        proptest::prop_assert_eq!(landed, want);
                    }
                }
            }
            cluster.shutdown();
        }
    }
}
