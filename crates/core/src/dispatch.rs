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
//!   chunked batch (worker 0 is the calling thread, so a one-worker
//!   dispatch spawns nothing). Every worker claims the next chunk from
//!   one shared cursor; results are stitched back in input order and
//!   per-worker busy time is returned in [`DispatchStats`].
//! * [`ContextPool`] — a thread-safe cache of prepared contexts keyed
//!   by modulus, so mixed-modulus batches (ECDSA verify over `n` and
//!   `p`, Pedersen over two curves) reuse Montgomery/Barrett/LUT
//!   preparation instead of re-deriving it per request.
//!
//! The dispatcher is the **staged** fan-out: a caller that holds a
//! whole batch spreads it over host threads in one call (the
//! [`crate::service::Staged`] backend, `run_items` in the ECDSA and MSM
//! consumers). Where a chunk runs changes no LUT reuse, which happens
//! inside one `mod_mul_batch` call, so the dispatcher places nothing.
//! Chunk costs and [`seed_assignments`] feed only the modelled lanes
//! and banks: the streaming tile ([`crate::service::ModSramService`]),
//! the banked tile ([`crate::BankedModSram`]) and
//! [`crate::cycles::modelled_batch_cycles`] assign chunks to lanes and
//! banks with them, but execute on one thread.
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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// Per-run tallies aggregated from the workers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DispatchStats {
    /// Items executed.
    pub items: u64,
    /// Nanoseconds each worker spent executing chunks (excludes
    /// claiming and thread start-up), in worker order.
    pub per_worker_busy_ns: Vec<u64>,
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

/// A batch scheduler over `std::thread::scope` workers that claim
/// chunks from one shared cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dispatcher {
    workers: usize,
}

/// What one worker hands back: its finished `(chunk index, results)`
/// parts, or the chunk index and error that stopped it, plus the
/// nanoseconds it spent executing chunks.
type WorkerOutcome<R, E> = (Result<Vec<(usize, Vec<R>)>, (usize, E)>, u64);

impl Dispatcher {
    /// A dispatcher with `workers` threads and automatic chunk sizing
    /// ([`auto_chunk_size`]).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        Dispatcher { workers }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes pre-planned `chunks`, giving each worker its own state
    /// from `init` (built on the worker thread, so it need not be
    /// `Send`), and stitches the per-chunk result vectors back together
    /// in input order. Worker 0 runs on the calling thread and only the
    /// other `workers − 1` are spawned, so a one-worker dispatch spawns
    /// no thread. Each worker claims the next chunk index from one
    /// shared cursor until the index passes the end.
    ///
    /// `work` must return exactly `chunk.len()` results on success.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failed chunk; a failure
    /// moves the cursor past the end, so no later chunk starts.
    ///
    /// # Panics
    ///
    /// Panics if a `work` call returns a result vector whose length
    /// differs from its chunk, or if a worker thread panics.
    fn run_chunks<S, R, E>(
        &self,
        chunks: Vec<Chunk>,
        init: impl Fn(usize) -> S + Sync,
        work: impl Fn(&mut S, &Chunk) -> Result<Vec<R>, E> + Sync,
    ) -> Result<(Vec<R>, DispatchStats), E>
    where
        R: Send,
        E: Send,
    {
        if chunks.is_empty() {
            return Ok((Vec::new(), DispatchStats::default()));
        }
        let workers = self.workers.min(chunks.len());
        // A claim needs only the atomicity of `fetch_add`: results come
        // back through each worker's slot, not through the cursor.
        let cursor = AtomicUsize::new(0);
        let run_worker = |w: usize| -> WorkerOutcome<R, E> {
            let mut state = init(w);
            let mut parts = Vec::new();
            let mut busy = 0u64;
            loop {
                let id = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(chunk) = chunks.get(id) else { break };
                let t0 = Instant::now();
                let outcome = work(&mut state, chunk);
                busy += t0.elapsed().as_nanos() as u64;
                match outcome {
                    Ok(results) => {
                        assert_eq!(
                            results.len(),
                            chunk.len(),
                            "work returned a wrong-sized chunk result"
                        );
                        parts.push((id, results));
                    }
                    Err(e) => {
                        cursor.store(chunks.len(), Ordering::Relaxed);
                        return (Err((id, e)), busy);
                    }
                }
            }
            (Ok(parts), busy)
        };
        // Each worker writes its own slot; the scope's end publishes the
        // slots, and re-raises a worker's panic. An explicit `join`
        // would also wait for each OS thread to exit.
        let mut outcomes: Vec<Option<WorkerOutcome<R, E>>> = Vec::new();
        outcomes.resize_with(workers, || None);
        std::thread::scope(|scope| {
            if let Some((first, rest)) = outcomes.split_first_mut() {
                for (w, slot) in (1..).zip(rest) {
                    let run_worker = &run_worker;
                    scope.spawn(move || *slot = Some(run_worker(w)));
                }
                *first = Some(run_worker(0));
            }
        });

        let mut stats = DispatchStats::default();
        let mut parts = Vec::with_capacity(chunks.len());
        let mut errors = Vec::new();
        for (outcome, busy) in outcomes.into_iter().flatten() {
            stats.per_worker_busy_ns.push(busy);
            match outcome {
                Ok(mut done) => parts.append(&mut done),
                Err(failed) => errors.push(failed),
            }
        }
        if let Some((_, e)) = errors.into_iter().min_by_key(|(id, _)| *id) {
            return Err(e);
        }
        parts.sort_unstable_by_key(|(id, _)| *id);
        let mut results = Vec::with_capacity(chunks.iter().map(Chunk::len).sum());
        for (_, mut part) in parts {
            results.append(&mut part);
        }
        stats.items = results.len() as u64;
        Ok((results, stats))
    }

    /// Parallel map over `items` independent tasks, with per-worker
    /// state, cut into uniform chunks of [`auto_chunk_size`] items.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed chunk that failed.
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
        let target = auto_chunk_size(items, self.workers);
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
        let chunks = plan_job_chunks(jobs, auto_chunk_size(jobs.len(), self.workers));
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
        let pool = ContextPool::for_engine_ctor(|| Box::new(DirectEngine::new()));
        let jobs: Vec<MulJob> = (0..37u64)
            .map(|i| MulJob::new(UBig::from(i * 7 + 1), UBig::from(i * 13 + 2), p.clone()))
            .collect();
        for workers in [1usize, 2, 8] {
            let d = Dispatcher::new(workers);
            let (results, stats) = d.dispatch_jobs(&pool, &jobs).unwrap();
            for (job, c) in jobs.iter().zip(&results) {
                assert_eq!(c, &(&(&job.a * &job.b) % &p), "workers={workers}");
            }
            assert_eq!(stats.items, 37);
            assert_eq!(
                stats.per_worker_busy_ns.len(),
                workers,
                "one tally per worker"
            );
        }
    }

    #[test]
    fn worker_zero_runs_on_the_calling_thread() {
        use std::collections::HashSet;
        use std::thread::{self, ThreadId};
        let p = UBig::from(1_000_003u64);
        let ctx = DirectEngine::new().prepare(&p).unwrap();
        let pairs: Vec<(UBig, UBig)> = (0..40u64)
            .map(|i| (UBig::from(i * 7 + 1), UBig::from(i * 13 + 2)))
            .collect();
        let per_call: Vec<UBig> = pairs
            .iter()
            .map(|(a, b)| ctx.mod_mul(a, b).unwrap())
            .collect();
        let caller = thread::current().id();
        for workers in [1usize, 4] {
            // Each worker's state records the thread it was built on;
            // every `work` call records the thread it ran on.
            let inits: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
            let ran: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            let (results, stats) = Dispatcher::new(workers)
                .run_chunks(
                    plan_mul_chunks(&pairs, 1),
                    |w| inits.lock().unwrap().push((w, thread::current().id())),
                    |(), chunk| {
                        ran.lock().unwrap().insert(thread::current().id());
                        ctx.mod_mul_batch(&pairs[chunk.range.clone()])
                    },
                )
                .unwrap();
            assert_eq!(results, per_call, "{workers} workers");
            assert_eq!(stats.items, 40);
            let inits = inits.into_inner().unwrap();
            let threads: HashSet<ThreadId> = inits.iter().map(|&(_, t)| t).collect();
            assert_eq!(inits.len(), workers, "one state per worker");
            assert_eq!(threads.len(), workers, "one thread per worker");
            assert!(
                inits.contains(&(0, caller)),
                "worker 0 is the calling thread"
            );
            let ran = ran.into_inner().unwrap();
            assert!(ran.is_subset(&threads), "work ran only on worker threads");
            if workers == 1 {
                assert_eq!(ran, HashSet::from([caller]), "one lane spawns nothing");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = ContextPool::for_engine_ctor(|| Box::new(DirectEngine::new()));
        let (results, stats) = Dispatcher::new(4).dispatch_jobs(&pool, &[]).unwrap();
        assert!(results.is_empty());
        assert_eq!(stats, DispatchStats::default());
    }

    #[test]
    fn errors_surface_and_abort() {
        let d = Dispatcher::new(2);
        let err = d
            .run_items(8, |_| (), |(), i| if i == 5 { Err("boom") } else { Ok(i) })
            .unwrap_err();
        assert_eq!(err, "boom");
        // Chunks are claimed in index order, so the failure at 1 always
        // runs and outranks one at 6, whether or not 6 started.
        let err = d
            .run_items(
                8,
                |_| (),
                |(), i| if i == 1 || i == 6 { Err(i) } else { Ok(i) },
            )
            .unwrap_err();
        assert_eq!(err, 1);
        // One worker claims 2-item chunks in order: nothing after the
        // failing chunk starts.
        let ran = AtomicUsize::new(0);
        let err = Dispatcher::new(1)
            .run_items(
                8,
                |_| (),
                |(), i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 5 {
                        Err("boom")
                    } else {
                        Ok(i)
                    }
                },
            )
            .unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(ran.into_inner(), 6);
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
}
