//! Sharded batch dispatch over prepared contexts: the serving layer of
//! the paper's §6 system-level direction.
//!
//! Three pieces compose into a multi-modulus batch scheduler:
//!
//! * [`Chunk`] planning — a batch of `(a, b)` pairs is cut into
//!   contiguous chunks, each carrying a **cost estimate** that charges
//!   [`LUT_REFILL_COST`] work units for every multiplicand change
//!   inside the chunk (Table 1b is rebuilt when `B` changes, so a chunk
//!   full of distinct multiplicands is genuinely more expensive than a
//!   same-length run sharing one — the reason plain round-robin
//!   assignment is no longer within one job of optimal).
//! * [`Dispatcher`] — real `std::thread::scope` workers over the
//!   chunked queue. Chunks are seeded onto per-worker deques by
//!   **least-loaded** greedy assignment over the cost estimates; under
//!   [`StealPolicy::WorkStealing`] an idle worker then steals from the
//!   *back* of the most recently seeded victim ranges (owners drain
//!   front-to-back, preserving multiplicand-run locality). Results are
//!   stitched back in input order and per-worker tallies (items, busy
//!   nanoseconds, steals) are aggregated into [`DispatchStats`].
//! * [`ContextPool`] — a thread-safe cache of prepared contexts keyed
//!   by modulus, so mixed-modulus batches (ECDSA verify over `n` and
//!   `p`, Pedersen over two curves) reuse Montgomery/Barrett/LUT
//!   preparation instead of re-deriving it per request.
//!
//! Chunk claiming is lock-free and race-proof: seeded ranges are only
//! advisory orderings, and every chunk carries an atomic claim flag
//! that exactly one worker can win, whether it arrives as the owner or
//! as a thief.
//!
//! This module is the **staged** half of the serving story: callers
//! materialise a whole batch and dispatch it in one call. The
//! **streaming** half lives in [`crate::service`]: a
//! [`crate::service::ModSramService`] owns a bounded submission queue
//! and a coalescing batcher whose knobs
//! ([`crate::service::ServiceConfig::max_batch`],
//! [`crate::service::ServiceConfig::flush_interval`]) control how many
//! queued jobs are merged into each multiplicand-major batch handed to
//! this dispatcher.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use modsram_bigint::UBig;
//! use modsram_core::dispatch::{ContextPool, Dispatcher, MulJob};
//!
//! let pool = ContextPool::for_engine_name("barrett").unwrap();
//! let dispatcher = Dispatcher::new(2);
//! let jobs: Vec<MulJob> = [(3u64, 4u64, 97u64), (5, 6, 101), (7, 8, 97)]
//!     .iter()
//!     .map(|&(a, b, p)| MulJob::new(UBig::from(a), UBig::from(b), UBig::from(p)))
//!     .collect();
//! let (results, stats) = dispatcher.dispatch_jobs(&pool, &jobs).unwrap();
//! assert_eq!(results, vec![UBig::from(12u64), UBig::from(30u64), UBig::from(56u64)]);
//! assert_eq!(stats.items, 3);
//! assert_eq!(pool.len(), 2); // 97 prepared once, shared by jobs 0 and 2
//! ```

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use modsram_bigint::UBig;
use modsram_modmul::{EngineCtor, ModMulError, PreparedModMul, ENGINE_REGISTRY};

use crate::autotune::{AutoTuner, TunePolicy};
use crate::error::CoreError;
use crate::modsram::{ModSramConfig, PreparedModSram};

// The refill cost constant moved to `crate::cycles` alongside the other
// modelled-cycle numbers; the re-export keeps `dispatch::LUT_REFILL_COST`
// paths compiling.
pub use crate::cycles::LUT_REFILL_COST;

/// A contiguous slice of the work queue plus its estimated cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Item index range into the submitted batch.
    pub range: Range<usize>,
    /// Estimated cost in multiplication-equivalents (items plus
    /// [`LUT_REFILL_COST`] per multiplicand change).
    pub cost: u64,
}

impl Chunk {
    /// Number of items in the chunk.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// `true` when the chunk covers no items.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// Picks a chunk size that gives every worker several chunks to smooth
/// imbalance without drowning small batches in scheduling overhead.
pub fn auto_chunk_size(items: usize, workers: usize) -> usize {
    (items / (workers.max(1) * 4)).max(1)
}

/// Cuts `pairs` into chunks of at most `target` items, costing each
/// chunk by its length plus [`LUT_REFILL_COST`] per multiplicand
/// change (the first pair of a chunk always counts as a change — a
/// fresh bank has to fill Table 1b no matter what ran before).
pub fn plan_mul_chunks(pairs: &[(UBig, UBig)], target: usize) -> Vec<Chunk> {
    plan_chunks_by(pairs.len(), target, |i| &pairs[i].1, |_| true)
}

/// As [`plan_mul_chunks`], but also splits at every modulus boundary so
/// a chunk never mixes jobs for two different prepared contexts.
pub fn plan_job_chunks(jobs: &[MulJob], target: usize) -> Vec<Chunk> {
    plan_chunks_by(
        jobs.len(),
        target,
        |i| &jobs[i].b,
        |i| jobs[i].modulus == jobs[i - 1].modulus,
    )
}

/// Shared chunk-planning walk: cut at `target` items or wherever
/// `may_join(i)` forbids item `i` from joining item `i − 1`'s chunk.
fn plan_chunks_by<'a>(
    items: usize,
    target: usize,
    multiplicand: impl Fn(usize) -> &'a UBig,
    may_join: impl Fn(usize) -> bool,
) -> Vec<Chunk> {
    let target = target.max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut cost = 0u64;
    for i in 0..items {
        if i > start && (i - start >= target || !may_join(i)) {
            chunks.push(Chunk {
                range: start..i,
                cost,
            });
            start = i;
            cost = 0;
        }
        let changed = i == start || multiplicand(i) != multiplicand(i - 1);
        cost += 1 + if changed { LUT_REFILL_COST } else { 0 };
    }
    if start < items {
        chunks.push(Chunk {
            range: start..items,
            cost,
        });
    }
    chunks
}

/// Greedy least-loaded seeding: chunks are assigned, in index order, to
/// whichever worker currently carries the smallest summed cost (ties
/// break toward the lowest worker index). Replaces the seed's
/// `i % n_banks` round-robin, whose optimality claim stopped holding
/// once per-chunk multiplicand-change precompute made costs uneven.
pub fn seed_assignments(chunks: &[Chunk], workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1);
    let mut load = vec![0u64; workers];
    let mut assignments = vec![Vec::new(); workers];
    for (id, chunk) in chunks.iter().enumerate() {
        // `workers >= 1`, so the fold always visits at least index 0.
        let lightest = (1..workers).fold(0, |best, w| if load[w] < load[best] { w } else { best });
        load[lightest] += chunk.cost;
        assignments[lightest].push(id);
    }
    assignments
}

/// Whether idle workers may take chunks seeded onto other workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealPolicy {
    /// Idle workers steal from the back of victims' queues — maximum
    /// host throughput; which worker executes a chunk depends on OS
    /// scheduling.
    #[default]
    WorkStealing,
    /// Every worker executes exactly its seeded chunks. Deterministic
    /// worker-to-chunk mapping — what a tile of physical macros with
    /// private queues does, and what cycle-accurate per-bank statistics
    /// require (see [`crate::BankedModSram`]).
    Static,
}

/// Per-run tallies aggregated from the workers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DispatchStats {
    /// Items executed.
    pub items: u64,
    /// Chunks the batch was cut into.
    pub chunks: u64,
    /// Chunks executed by a worker other than the one they were seeded
    /// on (always 0 under [`StealPolicy::Static`]).
    pub steals: u64,
    /// Items executed per worker.
    pub per_worker_items: Vec<u64>,
    /// Nanoseconds each worker spent executing chunks (excludes queue
    /// scanning and thread start-up).
    pub per_worker_busy_ns: Vec<u64>,
    /// Wall-clock nanoseconds for the whole dispatch.
    pub elapsed_ns: u64,
}

impl DispatchStats {
    /// Modelled parallel speedup: total busy time over the critical
    /// path (the busiest worker). This is the speedup a tile with one
    /// physical lane per worker achieves, independent of how many host
    /// cores the simulation itself was timesliced onto.
    pub fn busy_speedup(&self) -> f64 {
        let total: u64 = self.per_worker_busy_ns.iter().sum();
        let max = self.per_worker_busy_ns.iter().copied().max().unwrap_or(0);
        if max == 0 {
            1.0
        } else {
            total as f64 / max as f64
        }
    }
}

/// One multiplication request in a mixed-modulus batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MulJob {
    /// Multiplier.
    pub a: UBig,
    /// Multiplicand (the operand whose LUT is rebuilt on change).
    pub b: UBig,
    /// Modulus; the pool resolves it to a prepared context.
    pub modulus: UBig,
}

impl MulJob {
    /// Bundles a request.
    pub fn new(a: UBig, b: UBig, modulus: UBig) -> Self {
        MulJob { a, b, modulus }
    }
}

/// How a [`ContextPool`] prepares a context for a new modulus.
type Preparer = Box<dyn Fn(&UBig) -> Result<Box<dyn PreparedModMul>, ModMulError> + Send + Sync>;

/// A cached context plus the logical timestamp of its last use (the
/// LRU ordering key when the pool is capacity-bounded).
struct PoolEntry {
    ctx: Arc<dyn PreparedModMul>,
    last_used: u64,
}

/// A thread-safe cache of prepared contexts keyed by modulus.
///
/// Preparation (Montgomery `R²`/`−p⁻¹`, Barrett `µ`, LUT rows, or a
/// whole modulus-loaded ModSRAM device) runs at most once per distinct
/// modulus; every later request for the same modulus gets the cached
/// `Arc`. Safe to share across threads — concurrent first requests for
/// one modulus may race to prepare, but exactly one context wins the
/// cache and everyone receives that winner.
///
/// Unbounded by default; [`ContextPool::with_capacity`] bounds the
/// cache for long mixed-modulus streams, evicting the least-recently
/// used modulus once the bound is exceeded (contexts already handed
/// out stay alive through their `Arc`s — eviction only drops the
/// cache's reference, so a re-request re-prepares).
pub struct ContextPool {
    preparer: Preparer,
    cache: Mutex<HashMap<UBig, PoolEntry>>,
    capacity: Option<usize>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Present on autotuning pools ([`ContextPool::auto`]): the
    /// decision engine that picks a per-modulus engine and remembers
    /// the choice across evictions.
    tuner: Option<Arc<AutoTuner>>,
}

impl std::fmt::Debug for ContextPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ContextPool {{ moduli: {}, capacity: {:?}, hits: {}, misses: {}, evictions: {} }}",
            self.len(),
            self.capacity,
            self.hits(),
            self.misses(),
            self.evictions()
        )
    }
}

impl ContextPool {
    /// Builds a pool around an arbitrary preparation function.
    pub fn new(
        preparer: impl Fn(&UBig) -> Result<Box<dyn PreparedModMul>, ModMulError> + Send + Sync + 'static,
    ) -> Self {
        ContextPool {
            preparer: Box::new(preparer),
            cache: Mutex::new(HashMap::new()),
            capacity: None,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tuner: None,
        }
    }

    /// A self-tuning pool: each distinct modulus gets whatever engine
    /// `policy` decides — pinned, profile-table lookup, or a prepare-
    /// time calibration race — instead of one pool-wide constructor.
    /// See [`crate::autotune`] for the decision machinery.
    pub fn auto(policy: TunePolicy) -> Self {
        Self::with_tuner(Arc::new(AutoTuner::new(policy)))
    }

    /// A self-tuning pool sharing an existing [`AutoTuner`] — the way a
    /// cluster gives every tile the benefit of every tile's
    /// calibration (and an eviction on one tile never forgets a
    /// choice another tile still uses).
    pub fn with_tuner(tuner: Arc<AutoTuner>) -> Self {
        let decision = Arc::clone(&tuner);
        let mut pool = Self::new(move |p| decision.prepare(p));
        pool.tuner = Some(tuner);
        pool
    }

    /// The autotuner behind this pool, if it was built with
    /// [`ContextPool::auto`]/[`ContextPool::with_tuner`].
    pub fn tuner(&self) -> Option<&Arc<AutoTuner>> {
        self.tuner.as_ref()
    }

    /// Bounds the cache to `max_moduli` distinct moduli (at least 1).
    /// When a fresh preparation would exceed the bound, the
    /// least-recently-used modulus is evicted and counted in
    /// [`ContextPool::evictions`].
    pub fn with_capacity(mut self, max_moduli: usize) -> Self {
        self.capacity = Some(max_moduli.max(1));
        self
    }

    /// Pool over a registry engine constructor.
    pub fn for_engine_ctor(ctor: EngineCtor) -> Self {
        Self::new(move |p| ctor().prepare(p))
    }

    /// Pool over a registry engine by name, or `None` for an unknown
    /// name.
    pub fn for_engine_name(name: &str) -> Option<Self> {
        let (_, ctor) = ENGINE_REGISTRY.iter().find(|(n, _)| *n == name)?;
        Some(Self::for_engine_ctor(*ctor))
    }

    /// Pool of cycle-accurate ModSRAM devices: each distinct modulus
    /// gets its own modulus-loaded device sized for that modulus.
    pub fn for_modsram(config: ModSramConfig) -> Self {
        Self::new(move |p| {
            Ok(Box::new(PreparedModSram::new(p, &config)?) as Box<dyn PreparedModMul>)
        })
    }

    /// Locks the cache, refusing (instead of unwinding) when a previous
    /// holder panicked mid-update.
    fn lock_cache(&self) -> Result<std::sync::MutexGuard<'_, HashMap<UBig, PoolEntry>>, CoreError> {
        self.cache.lock().map_err(|_| CoreError::PoisonedLock {
            what: "context pool",
        })
    }

    /// Returns the prepared context for `p`, preparing it on first use.
    ///
    /// # Errors
    ///
    /// Propagates the preparation error (zero modulus, even modulus for
    /// the Montgomery family, …) as [`CoreError::ModMul`]; failures are
    /// not cached. [`CoreError::PoisonedLock`] if a previous caller
    /// panicked while holding the cache.
    pub fn context(&self, p: &UBig) -> Result<Arc<dyn PreparedModMul>, CoreError> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut cache = self.lock_cache()?;
            if let Some(entry) = cache.get_mut(p) {
                entry.last_used = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.ctx));
            }
        }
        // Prepare outside the lock so a slow preparation (device
        // construction, LUT fill) doesn't serialise unrelated moduli.
        let fresh: Arc<dyn PreparedModMul> =
            Arc::from((self.preparer)(p).map_err(CoreError::ModMul)?);
        let mut cache = self.lock_cache()?;
        // A concurrent preparer may have won the race; keep the cached
        // one so every caller shares a single canonical context, and
        // count the race loser as a hit — `misses` stays "distinct
        // cache fills", deterministic no matter how requests race.
        let ctx = match cache.entry(p.clone()) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                let entry = entry.get_mut();
                entry.last_used = entry.last_used.max(stamp);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&entry.ctx)
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Arc::clone(
                    &slot
                        .insert(PoolEntry {
                            ctx: fresh,
                            last_used: stamp,
                        })
                        .ctx,
                )
            }
        };
        self.evict_over_capacity(&mut cache, p);
        Ok(ctx)
    }

    /// Evicts least-recently-used entries (never `keep`) until the
    /// cache fits the configured capacity.
    fn evict_over_capacity(&self, cache: &mut HashMap<UBig, PoolEntry>, keep: &UBig) {
        let Some(cap) = self.capacity else { return };
        while cache.len() > cap {
            let victim = cache
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    cache.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    // The tuner's learned choice outlives the context:
                    // a re-request re-prepares the remembered winner
                    // without re-racing.
                    if let Some(tuner) = &self.tuner {
                        tuner.note_eviction(&k);
                    }
                }
                None => break,
            }
        }
    }

    /// Number of distinct moduli currently cached.
    pub fn len(&self) -> usize {
        // Read-only observation: recover the map from a poisoned lock
        // rather than failing a stats probe.
        self.cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when no modulus has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Distinct cache fills: requests whose preparation actually
    /// entered the cache. When concurrent first requests for one
    /// modulus race, exactly one counts here and the losers count as
    /// hits — so `misses` equals the number of distinct moduli
    /// prepared-and-cached, deterministic under any interleaving.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Contexts dropped from a capacity-bounded cache.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// A work-stealing batch scheduler over `std::thread::scope` workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dispatcher {
    workers: usize,
    chunk_size: Option<usize>,
    policy: StealPolicy,
}

impl Dispatcher {
    /// A dispatcher with `workers` threads, automatic chunk sizing, and
    /// work stealing enabled.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        Dispatcher {
            workers,
            chunk_size: None,
            policy: StealPolicy::default(),
        }
    }

    /// Overrides the automatic chunk size.
    pub fn chunk_size(mut self, items: usize) -> Self {
        self.chunk_size = Some(items.max(1));
        self
    }

    /// Sets the steal policy.
    pub fn policy(mut self, policy: StealPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The chunk size used for a batch of `items`.
    pub fn chunk_size_for(&self, items: usize) -> usize {
        self.chunk_size
            .unwrap_or_else(|| auto_chunk_size(items, self.workers))
    }

    /// The generic work-stealing core: executes pre-planned `chunks`,
    /// giving each worker its own state from `init` (built on the
    /// worker thread, so it need not be `Send`), and stitches the
    /// per-chunk result vectors back together in input order.
    ///
    /// `work` must return exactly `chunk.len()` results on success.
    ///
    /// # Errors
    ///
    /// Returns the first chunk error encountered; remaining chunks are
    /// abandoned as soon as workers observe the abort flag.
    ///
    /// # Panics
    ///
    /// Panics if a `work` call returns a result vector whose length
    /// differs from its chunk, or if a worker thread panics.
    pub fn run_chunks<S, R, E>(
        &self,
        chunks: Vec<Chunk>,
        init: impl Fn(usize) -> S + Sync,
        work: impl Fn(&mut S, &Chunk) -> Result<Vec<R>, E> + Sync,
    ) -> Result<(Vec<R>, DispatchStats), E>
    where
        R: Send,
        E: Send,
    {
        let total_items: usize = chunks.iter().map(Chunk::len).sum();
        let workers = self.workers.min(chunks.len()).max(1);
        let mut stats = DispatchStats {
            items: 0,
            chunks: chunks.len() as u64,
            steals: 0,
            per_worker_items: vec![0; workers],
            per_worker_busy_ns: vec![0; workers],
            elapsed_ns: 0,
        };
        if chunks.is_empty() {
            return Ok((Vec::new(), stats));
        }

        let assignments = seed_assignments(&chunks, workers);
        let claimed: Vec<AtomicBool> = (0..chunks.len()).map(|_| AtomicBool::new(false)).collect();
        let abort = AtomicBool::new(false);
        let first_error: Mutex<Option<E>> = Mutex::new(None);
        let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(chunks.len()));
        let steals = AtomicU64::new(0);
        let worker_items: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let worker_busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let started = Instant::now();

        std::thread::scope(|scope| {
            for w in 0..workers {
                let assignments = &assignments;
                let chunks = &chunks;
                let claimed = &claimed;
                let abort = &abort;
                let first_error = &first_error;
                let parts = &parts;
                let steals = &steals;
                let worker_items = &worker_items;
                let worker_busy = &worker_busy;
                let init = &init;
                let work = &work;
                let policy = self.policy;
                scope.spawn(move || {
                    let mut state = init(w);
                    let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                    let mut items = 0u64;
                    let mut busy = 0u64;
                    let mut execute = |id: usize, state: &mut S| {
                        let chunk = &chunks[id];
                        let t0 = Instant::now();
                        let outcome = work(state, chunk);
                        busy += t0.elapsed().as_nanos() as u64;
                        match outcome {
                            Ok(results) => {
                                assert_eq!(
                                    results.len(),
                                    chunk.len(),
                                    "work returned a wrong-sized chunk result"
                                );
                                items += results.len() as u64;
                                local.push((id, results));
                            }
                            Err(e) => {
                                // A poisoned error slot means another
                                // worker panicked; recover the slot —
                                // the abort flag still wins the race.
                                let mut slot =
                                    first_error.lock().unwrap_or_else(PoisonError::into_inner);
                                slot.get_or_insert(e);
                                abort.store(true, Ordering::Release);
                            }
                        }
                    };
                    // Own queue, front to back: preserves the seeded
                    // multiplicand-run locality.
                    for &id in &assignments[w] {
                        if abort.load(Ordering::Acquire) {
                            break;
                        }
                        if !claimed[id].swap(true, Ordering::AcqRel) {
                            execute(id, &mut state);
                        }
                    }
                    // Steal from victims, back to front, until a full
                    // sweep finds nothing unclaimed.
                    if policy == StealPolicy::WorkStealing {
                        loop {
                            if abort.load(Ordering::Acquire) {
                                break;
                            }
                            let mut found = false;
                            for offset in 1..workers {
                                let victim = (w + offset) % workers;
                                for &id in assignments[victim].iter().rev() {
                                    if abort.load(Ordering::Acquire) {
                                        break;
                                    }
                                    if !claimed[id].swap(true, Ordering::AcqRel) {
                                        steals.fetch_add(1, Ordering::Relaxed);
                                        found = true;
                                        execute(id, &mut state);
                                    }
                                }
                            }
                            if !found {
                                break;
                            }
                        }
                    }
                    parts
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .append(&mut local);
                    worker_items[w].store(items, Ordering::Relaxed);
                    worker_busy[w].store(busy, Ordering::Relaxed);
                });
            }
        });

        stats.elapsed_ns = started.elapsed().as_nanos() as u64;
        if let Some(e) = first_error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(e);
        }
        stats.steals = steals.into_inner();
        for (w, (i, b)) in worker_items.iter().zip(&worker_busy).enumerate() {
            stats.per_worker_items[w] = i.load(Ordering::Relaxed);
            stats.per_worker_busy_ns[w] = b.load(Ordering::Relaxed);
        }
        stats.items = stats.per_worker_items.iter().sum();

        let mut parts = parts.into_inner().unwrap_or_else(PoisonError::into_inner);
        parts.sort_unstable_by_key(|(id, _)| chunks[*id].range.start);
        let mut results = Vec::with_capacity(total_items);
        for (_, mut part) in parts {
            results.append(&mut part);
        }
        debug_assert_eq!(results.len(), total_items);
        Ok((results, stats))
    }

    /// Work-stealing parallel map over `items` independent tasks, with
    /// per-worker state. Convenience wrapper over [`Dispatcher::run_chunks`]
    /// with uniform chunking.
    ///
    /// # Errors
    ///
    /// Returns the first task error encountered.
    pub fn run_items<S, R, E>(
        &self,
        items: usize,
        init: impl Fn(usize) -> S + Sync,
        task: impl Fn(&mut S, usize) -> Result<R, E> + Sync,
    ) -> Result<(Vec<R>, DispatchStats), E>
    where
        R: Send,
        E: Send,
    {
        let target = self.chunk_size_for(items);
        let mut chunks = Vec::new();
        let mut start = 0usize;
        while start < items {
            let end = (start + target).min(items);
            chunks.push(Chunk {
                range: start..end,
                cost: (end - start) as u64,
            });
            start = end;
        }
        self.run_chunks(chunks, init, |state, chunk| {
            chunk
                .range
                .clone()
                .map(|i| task(state, i))
                .collect::<Result<Vec<R>, E>>()
        })
    }

    /// Dispatches one batch over a single shared context (the pure
    /// functional engines are `Sync`, so every worker multiplies
    /// through the same preparation).
    ///
    /// # Errors
    ///
    /// Propagates the first engine error.
    pub fn dispatch(
        &self,
        ctx: &dyn PreparedModMul,
        pairs: &[(UBig, UBig)],
    ) -> Result<(Vec<UBig>, DispatchStats), CoreError> {
        let chunks = plan_mul_chunks(pairs, self.chunk_size_for(pairs.len()));
        self.run_chunks(
            chunks,
            |_| (),
            |(), chunk| {
                ctx.mod_mul_batch(&pairs[chunk.range.clone()])
                    .map_err(CoreError::ModMul)
            },
        )
    }

    /// Dispatches one batch over per-worker shard contexts: worker `w`
    /// multiplies through `shards[w % shards.len()]`. This is the
    /// banked path — each shard is typically a modulus-loaded device or
    /// an independently prepared engine context.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shards disagree on modulus.
    pub fn dispatch_sharded(
        &self,
        shards: &[Arc<dyn PreparedModMul>],
        pairs: &[(UBig, UBig)],
    ) -> Result<(Vec<UBig>, DispatchStats), CoreError> {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(
            shards.iter().all(|s| s.modulus() == shards[0].modulus()),
            "shards must share one modulus"
        );
        let chunks = plan_mul_chunks(pairs, self.chunk_size_for(pairs.len()));
        self.run_chunks(
            chunks,
            |w| Arc::clone(&shards[w % shards.len()]),
            |ctx, chunk| {
                ctx.mod_mul_batch(&pairs[chunk.range.clone()])
                    .map_err(CoreError::ModMul)
            },
        )
    }

    /// Dispatches a mixed-modulus batch: chunks never span a modulus
    /// boundary, and every worker resolves its chunk's modulus through
    /// the pool (so interleaved moduli still prepare each modulus only
    /// once). Results come back in job order.
    ///
    /// # Errors
    ///
    /// Propagates the first preparation or multiplication error.
    pub fn dispatch_jobs(
        &self,
        pool: &ContextPool,
        jobs: &[MulJob],
    ) -> Result<(Vec<UBig>, DispatchStats), CoreError> {
        let chunks = plan_job_chunks(jobs, self.chunk_size_for(jobs.len()));
        self.run_chunks(
            chunks,
            |_| (),
            |(), chunk| {
                let slice = &jobs[chunk.range.clone()];
                let first = slice.first().ok_or(CoreError::EmptyChunk)?;
                let ctx = pool.context(&first.modulus)?;
                let pairs: Vec<(UBig, UBig)> =
                    slice.iter().map(|j| (j.a.clone(), j.b.clone())).collect();
                ctx.mod_mul_batch(&pairs).map_err(CoreError::ModMul)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsram_modmul::{DirectEngine, ModMulEngine};

    fn pairs_with_multiplicands(bs: &[u64]) -> Vec<(UBig, UBig)> {
        bs.iter()
            .enumerate()
            .map(|(i, &b)| (UBig::from(i as u64 + 2), UBig::from(b)))
            .collect()
    }

    #[test]
    fn chunk_costs_charge_multiplicand_changes() {
        // Run of 4 sharing b=5, then 4 distinct multiplicands.
        let pairs = pairs_with_multiplicands(&[5, 5, 5, 5, 9, 11, 13, 17]);
        let chunks = plan_mul_chunks(&pairs, 4);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].cost, 4 + LUT_REFILL_COST);
        assert_eq!(chunks[1].cost, 4 + 4 * LUT_REFILL_COST);
    }

    #[test]
    fn least_loaded_seeding_balances_uneven_costs() {
        // One expensive chunk (all-distinct multiplicands) and three
        // cheap ones: round-robin over 2 workers puts the expensive
        // chunk plus a cheap one on worker 0 (cost 40+12 vs 12+12);
        // least-loaded pairs the expensive chunk with nothing else.
        let chunks = vec![
            Chunk {
                range: 0..4,
                cost: 40,
            },
            Chunk {
                range: 4..8,
                cost: 12,
            },
            Chunk {
                range: 8..12,
                cost: 12,
            },
            Chunk {
                range: 12..16,
                cost: 12,
            },
        ];
        let assignments = seed_assignments(&chunks, 2);
        let load = |ids: &[usize]| ids.iter().map(|&i| chunks[i].cost).sum::<u64>();
        assert_eq!(assignments[0], vec![0]);
        assert_eq!(assignments[1], vec![1, 2, 3]);
        assert_eq!(load(&assignments[0]), 40);
        assert_eq!(load(&assignments[1]), 36);
    }

    #[test]
    fn job_chunks_never_span_moduli() {
        let jobs: Vec<MulJob> = [(1u64, 2u64, 97u64), (3, 4, 97), (5, 6, 101), (7, 8, 97)]
            .iter()
            .map(|&(a, b, p)| MulJob::new(UBig::from(a), UBig::from(b), UBig::from(p)))
            .collect();
        let chunks = plan_job_chunks(&jobs, 64);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].range, 0..2);
        assert_eq!(chunks[1].range, 2..3);
        assert_eq!(chunks[2].range, 3..4);
    }

    #[test]
    fn dispatch_preserves_input_order() {
        let p = UBig::from(1_000_003u64);
        let ctx = DirectEngine::new().prepare(&p).unwrap();
        let pairs: Vec<(UBig, UBig)> = (0..37u64)
            .map(|i| (UBig::from(i * 7 + 1), UBig::from(i * 13 + 2)))
            .collect();
        for workers in [1usize, 2, 8] {
            let d = Dispatcher::new(workers).chunk_size(3);
            let (results, stats) = d.dispatch(ctx.as_ref(), &pairs).unwrap();
            for ((a, b), c) in pairs.iter().zip(&results) {
                assert_eq!(c, &(&(a * b) % &p), "workers={workers}");
            }
            assert_eq!(stats.items, 37);
            assert_eq!(stats.per_worker_items.iter().sum::<u64>(), 37);
        }
    }

    #[test]
    fn static_policy_reports_zero_steals() {
        let p = UBig::from(97u64);
        let ctx = DirectEngine::new().prepare(&p).unwrap();
        let pairs: Vec<(UBig, UBig)> = (0..16u64)
            .map(|i| (UBig::from(i), UBig::from(i + 1)))
            .collect();
        let d = Dispatcher::new(4).chunk_size(1).policy(StealPolicy::Static);
        let (results, stats) = d.dispatch(ctx.as_ref(), &pairs).unwrap();
        assert_eq!(results.len(), 16);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.chunks, 16);
    }

    #[test]
    fn empty_batch_is_fine() {
        let p = UBig::from(97u64);
        let ctx = DirectEngine::new().prepare(&p).unwrap();
        let (results, stats) = Dispatcher::new(4).dispatch(ctx.as_ref(), &[]).unwrap();
        assert!(results.is_empty());
        assert_eq!(stats.items, 0);
        assert_eq!(stats.busy_speedup(), 1.0);
    }

    #[test]
    fn errors_surface_and_abort() {
        let d = Dispatcher::new(2).chunk_size(1);
        let err = d
            .run_items(8, |_| (), |(), i| if i == 5 { Err("boom") } else { Ok(i) })
            .unwrap_err();
        assert_eq!(err, "boom");
    }

    #[test]
    fn pool_caches_by_modulus() {
        let pool = ContextPool::for_engine_ctor(|| Box::new(DirectEngine::new()));
        let p1 = UBig::from(97u64);
        let p2 = UBig::from(101u64);
        let a = pool.context(&p1).unwrap();
        let b = pool.context(&p1).unwrap();
        let c = pool.context(&p2).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same modulus must share one context");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.misses(), 2);
        assert_eq!(pool.hits(), 1);
        assert_eq!(
            a.mod_mul(&UBig::from(10u64), &UBig::from(10u64)).unwrap(),
            UBig::from(3u64)
        );
    }

    #[test]
    fn pool_rejects_unknown_engine_and_bad_modulus() {
        assert!(ContextPool::for_engine_name("no-such-engine").is_none());
        let pool = ContextPool::for_engine_name("montgomery").unwrap();
        assert_eq!(
            pool.context(&UBig::zero()).err(),
            Some(CoreError::ModMul(ModMulError::ZeroModulus))
        );
        assert_eq!(
            pool.context(&UBig::from(8u64)).err(),
            Some(CoreError::ModMul(ModMulError::EvenModulus))
        );
        assert!(pool.is_empty(), "failures are not cached");
    }

    #[test]
    fn bounded_pool_evicts_least_recently_used() {
        let pool = ContextPool::for_engine_ctor(|| Box::new(DirectEngine::new())).with_capacity(2);
        let (p1, p2, p3) = (UBig::from(97u64), UBig::from(101u64), UBig::from(103u64));
        let first = pool.context(&p1).unwrap();
        let _ = pool.context(&p2).unwrap();
        // Touch p1 so p2 becomes the LRU victim when p3 arrives.
        let _ = pool.context(&p1).unwrap();
        let _ = pool.context(&p3).unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.evictions(), 1);
        assert_eq!(pool.capacity(), Some(2));
        // p1 survived (same Arc), p2 was dropped and re-prepares.
        let again = pool.context(&p1).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "p1 must still be cached");
        let misses_before = pool.misses();
        let _ = pool.context(&p2).unwrap();
        assert_eq!(pool.misses(), misses_before + 1, "p2 was evicted");
        // The evicted-then-reprepared context still multiplies correctly.
        assert_eq!(
            pool.context(&p2)
                .unwrap()
                .mod_mul(&UBig::from(10u64), &UBig::from(11u64))
                .unwrap(),
            UBig::from(110u64 % 101)
        );
    }

    #[test]
    fn unbounded_pool_never_evicts() {
        let pool = ContextPool::for_engine_ctor(|| Box::new(DirectEngine::new()));
        for i in 0..16u64 {
            let _ = pool.context(&UBig::from(101 + 2 * i)).unwrap();
        }
        assert_eq!(pool.len(), 16);
        assert_eq!(pool.evictions(), 0);
        assert_eq!(pool.capacity(), None);
    }

    #[test]
    fn busy_speedup_is_work_over_critical_path() {
        let stats = DispatchStats {
            per_worker_busy_ns: vec![100, 100, 200],
            ..Default::default()
        };
        assert!((stats.busy_speedup() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn static_busy_speedup_scales_with_workers() {
        // The static-assignment lane model must put roughly equal work
        // on each worker, so the modelled speedup tracks the worker
        // count even on a single-core host. Best of three passes.
        use modsram_bigint::ubig_below;
        use rand::{rngs::SmallRng, SeedableRng};
        let p = UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let pairs: Vec<(UBig, UBig)> = (0..96)
            .map(|_| (ubig_below(&mut rng, &p), ubig_below(&mut rng, &p)))
            .collect();
        let oracle: Vec<UBig> = pairs.iter().map(|(a, b)| &(a * b) % &p).collect();
        let ctx = modsram_modmul::engine_by_name("montgomery")
            .unwrap()
            .prepare(&p)
            .unwrap();
        let best_speedup = |workers: usize| {
            (0..3)
                .map(|_| {
                    let d = Dispatcher::new(workers).policy(StealPolicy::Static);
                    let (results, stats) = d.dispatch(ctx.as_ref(), &pairs).unwrap();
                    assert_eq!(results, oracle, "{workers} workers diverged");
                    stats.busy_speedup()
                })
                .fold(0.0f64, f64::max)
        };
        assert!(
            (best_speedup(1) - 1.0).abs() < 1e-9,
            "one lane is its own critical path"
        );
        let at4 = best_speedup(4);
        assert!(at4 > 2.0, "modelled speedup at 4 workers was {at4:.2}");
    }
}
