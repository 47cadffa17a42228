//! The streaming front-end of the serving stack: a [`ModSramService`]
//! accepts individual [`MulJob`]s from any number of threads and keeps
//! the tile saturated without callers ever staging a batch.
//!
//! The staged path ([`Dispatcher::dispatch_jobs`]) forces
//! every consumer to materialise a `Vec<MulJob>` before anything runs —
//! fine for a solver that owns its whole workload, wrong for a server
//! multiplexing ECDSA verifications, Pedersen commitments, and NTT
//! stages from independent tenants. The service closes that gap with
//! three pieces:
//!
//! * **Submission handles** — [`ModSramService::handle`] returns a
//!   cloneable [`SubmitHandle`]; [`SubmitHandle::submit`] enqueues one
//!   job and returns a [`Ticket`] redeemable for the product
//!   (blocking [`Ticket::wait`], non-blocking [`Ticket::try_poll`], or
//!   pushed to a completion hook with [`Ticket::on_done`]).
//! * **Backpressure** — the queue is bounded
//!   ([`ServiceConfig::queue_capacity`]). `submit` blocks until space
//!   frees; [`SubmitHandle::try_submit`] refuses immediately with
//!   [`SubmitError::QueueFull`] so open-loop producers can shed load.
//! * **Natural batching** — a tile models one SRAM array, so it runs
//!   one executor thread, which pulls straight from the queue, at most
//!   [`ServiceConfig::max_batch`] jobs per batch. No timer waits for
//!   stragglers; jobs pile up while the executor is busy, and that is
//!   when batching saves LUT refills. A one-lane tile takes queued jobs
//!   at once; a multi-lane tile holds them until a producer waits on,
//!   polls, hooks or drops a pending [`Ticket`], submits in bulk
//!   ([`SubmitHandle::submit_many`], [`SubmitHandle::try_submit_many`],
//!   a wire `SubmitBatch` frame) or fills `max_batch` (or the queue),
//!   or the tile pauses or stops. So streamed single jobs fill the
//!   lanes together, whatever the scheduler does. Each batch is sorted
//!   **multiplicand-major** (modulus-major, then by `b`) so the
//!   paper's Table 1b reuse survives interleaved tenants, and the
//!   executor runs each run of one modulus as one `mod_mul_batch` on
//!   its own thread, through a shared [`ContextPool`]. A tile's lanes
//!   ([`ServiceConfig::workers`]) are modelled, not spawned. Results
//!   are routed back to tickets in submission order regardless of the
//!   coalesced execution order.
//!
//! [`ModSramService::shutdown`] closes the queue, lets the executor
//! drain every in-flight ticket, and returns the final
//! [`ServiceStats`] (queue depth, coalesce sizes, and p50/p99 latency
//! in both wall-clock nanoseconds and modelled device cycles).
//!
//! # Examples
//!
//! ```
//! use modsram_bigint::UBig;
//! use modsram_core::service::{ModSramService, ServiceConfig};
//! use modsram_core::dispatch::MulJob;
//!
//! let service = ModSramService::for_engine_name(
//!     "montgomery",
//!     ServiceConfig::default(),
//! ).unwrap();
//! let handle = service.handle();
//! let ticket = handle
//!     .submit(MulJob::new(UBig::from(55u64), UBig::from(44u64), UBig::from(97u64)))
//!     .unwrap();
//! assert_eq!(ticket.wait().unwrap(), UBig::from(55u64 * 44 % 97));
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use modsram_bigint::UBig;
use modsram_modmul::{ModMulError, PreparedModMul};

use crate::autotune::{AutotuneStats, TunePolicy};
use crate::cluster::ServiceCluster;
use crate::cycles::modelled_batch_cycles;
use crate::dispatch::{auto_chunk_size, ContextPool, Dispatcher, MulJob};
use crate::error::CoreError;
use crate::modsram::ModSramConfig;

/// Tuning knobs of a [`ModSramService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Modelled lanes of the tile. The executor runs every batch on
    /// its own thread; the lane count shapes the modelled makespan
    /// ([`modelled_batch_cycles`] over the least-loaded chunk plan) and
    /// the release rule: with more than one lane, queued jobs wait for
    /// a producer to release them (see the module docs).
    pub workers: usize,
    /// Bound on queued-but-not-yet-drained jobs: `submit` blocks and
    /// `try_submit` returns [`SubmitError::QueueFull`] beyond it.
    pub queue_capacity: usize,
    /// Most jobs the executor takes from the queue as one batch; a
    /// multi-lane tile takes one unasked at `max_batch.min(queue_capacity)`.
    pub max_batch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 1024,
            max_batch: 512,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full ([`SubmitHandle::try_submit`] only —
    /// the blocking [`SubmitHandle::submit`] waits instead).
    QueueFull,
    /// The service has shut down; no further jobs are accepted.
    Stopped,
    /// Admissions are paused ([`ModSramService::pause_admissions`]) —
    /// the tile is draining or on probation. Already-queued jobs keep
    /// executing; new ones are refused without blocking, so a cluster
    /// router can re-route them instead of wedging a producer on a
    /// tile that will never admit again this epoch.
    Paused,
}

impl core::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue is full"),
            SubmitError::Stopped => write!(f, "service has shut down"),
            SubmitError::Paused => write!(f, "service admissions are paused"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted job ultimately failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The service stopped before the job completed: an executor
    /// thread panicked mid-batch (its unwind guard fails the batch's
    /// remaining tickets rather than leaving waiters hung). A graceful
    /// [`ModSramService::shutdown`] never produces this — it drains.
    Stopped,
    /// The execution layer rejected the job (bad modulus for the
    /// configured engine, poisoned pool, …).
    Mul(CoreError),
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceError::Stopped => write!(f, "service stopped before the job ran"),
            ServiceError::Mul(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServiceError> for CoreError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Stopped => CoreError::ServiceStopped,
            ServiceError::Mul(core) => core,
        }
    }
}

/// What an [`Ticket::on_done`] hook receives: the job's result.
type DoneHook = Box<dyn FnOnce(Result<UBig, ServiceError>) + Send>;

/// One ticket's completion slot.
struct TicketState {
    slot: Mutex<Slot>,
    ready: Condvar,
}

/// The slot's contents: the result once delivered, and the hook a
/// consumed ticket left to receive it.
#[derive(Default)]
struct Slot {
    result: Option<Result<UBig, ServiceError>>,
    hook: Option<DoneHook>,
}

impl TicketState {
    fn new() -> Arc<Self> {
        Arc::new(TicketState {
            slot: Mutex::new(Slot::default()),
            ready: Condvar::new(),
        })
    }

    /// Delivers a result if none has been delivered yet; returns
    /// whether this call won the slot (later calls are no-ops, which
    /// makes the executor's panic guard idempotent with normal
    /// delivery). A registered hook runs after the slot lock is
    /// released, so it may take locks the slot outranks.
    fn complete(&self, result: Result<UBig, ServiceError>) -> bool {
        let mut slot = self.lock_slot();
        if slot.result.is_some() {
            return false;
        }
        let hook = slot.hook.take();
        if let Some(hook) = hook {
            // The hook's ticket is consumed, so nobody waits here.
            slot.result = Some(result.clone());
            drop(slot);
            hook(result);
        } else {
            slot.result = Some(result);
            drop(slot);
            self.ready.notify_all();
        }
        true
    }

    fn lock_slot(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A claim on one submitted job's eventual product.
///
/// Redeem with [`Ticket::wait`] (blocking), poll with
/// [`Ticket::try_poll`], or hand the ticket a completion hook with
/// [`Ticket::on_done`]. On a multi-lane tile, waiting on, polling,
/// hooking or dropping a pending ticket releases the batch the tile
/// holds.
pub struct Ticket {
    state: Arc<TicketState>,
    /// The multi-lane tile holding the job; `None` on a one-lane tile.
    tile: Option<Arc<Shared>>,
    /// Set once this ticket has released its tile's held batch.
    asked: AtomicBool,
}

impl core::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Ticket {{ done: {} }}", self.is_done())
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.ask();
    }
}

impl Ticket {
    /// Releases the tile's held batch the first time a producer wants
    /// this pending job; `wanted` then stays set until a take empties
    /// the queue, so the job runs. Holds no slot lock while asking.
    fn ask(&self) {
        let Some(tile) = &self.tile else { return };
        if self.asked.load(Ordering::Relaxed) {
            return;
        }
        if self.state.lock_slot().result.is_none() && !self.asked.swap(true, Ordering::Relaxed) {
            tile.want();
        }
    }

    /// Blocks until the job completes and returns its result.
    pub fn wait(&self) -> Result<UBig, ServiceError> {
        self.ask();
        let mut slot = self.state.lock_slot();
        loop {
            if let Some(result) = slot.result.as_ref() {
                return result.clone();
            }
            slot = self
                .state
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Returns the result if the job has completed, `None` while it is
    /// still queued or executing.
    pub fn try_poll(&self) -> Option<Result<UBig, ServiceError>> {
        let result = self.state.lock_slot().result.clone();
        if result.is_none() {
            self.ask();
        }
        result
    }

    /// `true` once a result (success or failure) is available.
    pub fn is_done(&self) -> bool {
        self.try_poll().is_some()
    }

    /// Consumes the ticket and calls `f` with the job's result exactly
    /// once: at once on this thread if the job is already done,
    /// otherwise on the thread that completes it (the executor, or its
    /// panic guard with [`ServiceError::Stopped`]), after that thread
    /// releases the ticket's lock. `f` should be short: it delays the
    /// rest of the executor's batch. Registering releases a held batch,
    /// as a wait does.
    pub fn on_done(self, f: impl FnOnce(Result<UBig, ServiceError>) + Send + 'static) {
        let mut slot = self.state.lock_slot();
        // Cloned, not taken: a filled slot is how a later panic-guard
        // `complete` knows the job was already delivered.
        match slot.result.clone() {
            Some(result) => {
                drop(slot);
                f(result);
            }
            None => slot.hook = Some(Box::new(f)),
        }
        // Dropping `self` here asks for the held batch.
    }
}

/// One accepted job waiting in the queue.
struct Queued {
    job: MulJob,
    ticket: Arc<TicketState>,
    submitted: Instant,
}

/// Queue state guarded by the service mutex.
struct QueueInner {
    jobs: VecDeque<Queued>,
    closed: bool,
    /// Admissions paused (drain/probation seam): submissions are
    /// refused with [`SubmitError::Paused`] while queued jobs keep
    /// draining. Unlike `closed`, this is reversible.
    paused: bool,
    /// A producer wants a queued result, or a bulk submission queued a
    /// batch: a multi-lane tile takes its batch now (see [`next_batch`]).
    wanted: bool,
}

/// Fixed-size reservoir sample of `u64` observations with a
/// deterministic xorshift replacement stream — bounded memory no matter
/// how long the service runs, unbiased enough for p50/p99 reporting.
/// The service's latency windows and the wire server's
/// request-to-response latency share this one sampler, so percentile
/// quality matches across every layer's artifacts.
#[derive(Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    rng: u64,
    samples: Vec<u64>,
}

impl Reservoir {
    /// An empty reservoir keeping at most `cap` samples (at least 1).
    pub fn new(cap: usize) -> Self {
        Reservoir {
            cap: cap.max(1),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            samples: Vec::new(),
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic, no external RNG dependency.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Observes one value: kept outright until the reservoir is full,
    /// then replacing a uniformly drawn slot with probability
    /// `cap / seen`.
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            let j = self.next_rand() % self.seen;
            if let Some(slot) = self.samples.get_mut(j as usize) {
                *slot = v;
            }
        }
    }

    /// Forgets every observation (the sample and the seen-count); the
    /// replacement stream keeps its position so refilled windows stay
    /// deterministic per service lifetime.
    pub fn clear(&mut self) {
        self.seen = 0;
        self.samples.clear();
    }

    /// Nearest-rank percentile over the sample (`q` in `[0, 1]`); 0
    /// when nothing has been observed.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted.get(rank).copied().unwrap_or(0)
    }
}

/// Counters and latency reservoirs shared by handles, the executor,
/// and stats readers.
///
/// Two lifetimes coexist here: the plain counters (`submitted`,
/// `completed`, `batches`, …) accumulate forever, while the
/// **window** metrics (coalesce shape and the two latency reservoirs)
/// cover the span since construction or the last
/// [`ModSramService::reset_window`] — the distinction sweeps need to
/// measure a steady-state phase instead of a lifetime aggregate.
struct StatsCell {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    executor_panics: AtomicU64,
    health_probes: AtomicU64,
    modelled_cycles_total: AtomicU64,
    window_batches: AtomicU64,
    window_jobs: AtomicU64,
    coalesce_min: AtomicU64,
    coalesce_max: AtomicU64,
    wall_ns: Mutex<Reservoir>,
    cycles: Mutex<Reservoir>,
}

impl StatsCell {
    fn new() -> Self {
        StatsCell {
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            executor_panics: AtomicU64::new(0),
            health_probes: AtomicU64::new(0),
            modelled_cycles_total: AtomicU64::new(0),
            window_batches: AtomicU64::new(0),
            window_jobs: AtomicU64::new(0),
            coalesce_min: AtomicU64::new(u64::MAX),
            coalesce_max: AtomicU64::new(0),
            wall_ns: Mutex::new(Reservoir::new(4096)),
            cycles: Mutex::new(Reservoir::new(4096)),
        }
    }

    /// Clears the window metrics (coalesce min/mean/max and both
    /// latency reservoirs); lifetime counters are untouched.
    fn reset_window(&self) {
        self.window_batches.store(0, Ordering::Relaxed);
        self.window_jobs.store(0, Ordering::Relaxed);
        self.coalesce_min.store(u64::MAX, Ordering::Relaxed);
        self.coalesce_max.store(0, Ordering::Relaxed);
        self.wall_ns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.cycles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// Queue + stats shared between the service, its handles, and the
/// executor thread.
struct Shared {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Wakes [`ModSramService::wait_quiesced`]: notified by shutdown and
    /// by the executor before each take while admissions are paused.
    quiesced: Condvar,
    capacity: usize,
    /// Queued jobs that release a batch unasked: 1 on a one-lane tile,
    /// `max_batch.min(capacity)` on a multi-lane one.
    release_at: usize,
    stats: StatsCell,
}

impl Shared {
    fn lock_inner(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Releases the held batch for a producer that wants a queued
    /// result (`wanted` is only ever set on a non-empty queue).
    fn want(&self) {
        let mut inner = self.lock_inner();
        inner.wanted = !inner.jobs.is_empty();
        drop(inner);
        self.not_empty.notify_one();
    }
}

/// A cloneable submission endpoint: cheap to hand to every producer
/// thread; all clones feed the one bounded queue.
#[derive(Clone)]
pub struct SubmitHandle {
    shared: Arc<Shared>,
}

impl core::fmt::Debug for SubmitHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "SubmitHandle {{ queue_depth: {} }}",
            self.shared.lock_inner().jobs.len()
        )
    }
}

impl SubmitHandle {
    /// Submits one job, blocking while the queue is at capacity.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once the service has shut down,
    /// [`SubmitError::Paused`] while admissions are paused (returned
    /// without blocking, even if the pause lands mid-wait).
    pub fn submit(&self, job: MulJob) -> Result<Ticket, SubmitError> {
        self.submit_one(job, true)
    }

    /// Submits one job without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the queue is at capacity (the
    /// rejection is counted in [`ServiceStats::rejected`]),
    /// [`SubmitError::Stopped`] after shutdown, [`SubmitError::Paused`]
    /// while admissions are paused.
    pub fn try_submit(&self, job: MulJob) -> Result<Ticket, SubmitError> {
        self.submit_one(job, false)
    }

    fn submit_one(&self, job: MulJob, block: bool) -> Result<Ticket, SubmitError> {
        let (mut tickets, refused) = self.enqueue_many(vec![job], block);
        // No ticket means the job was refused, so `refused` holds why.
        tickets
            .pop()
            .ok_or_else(|| refused.map_or(SubmitError::Stopped, |(e, _)| e))
    }

    /// Submits a whole slice of jobs under one queue acquisition —
    /// per-job locking vanishes from the producer's hot path, while
    /// backpressure still applies (the call blocks whenever the queue
    /// is at capacity, releasing the lock until space frees).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] (or [`SubmitError::Paused`]) if the
    /// service stops admitting before every job is queued. Jobs
    /// already queued by then still execute and drain, but their
    /// tickets are not returned — treat the whole call as failed.
    pub fn submit_many(&self, jobs: Vec<MulJob>) -> Result<Vec<Ticket>, SubmitError> {
        match self.enqueue_many(jobs, true) {
            (tickets, None) => Ok(tickets),
            (_, Some((e, _))) => Err(e),
        }
    }

    /// Non-blocking bulk submission: queues the longest prefix of
    /// `jobs` the queue has room for, under one lock acquisition and
    /// with one executor wake-up, so an idle executor takes the prefix
    /// as one batch. Returns the prefix's tickets and, when a suffix
    /// was refused, why plus the refused jobs in order. A suffix
    /// refused with [`SubmitError::QueueFull`] counts in
    /// [`ServiceStats::rejected`], one per job, as if each had been
    /// offered to [`SubmitHandle::try_submit`].
    pub fn try_submit_many(
        &self,
        jobs: Vec<MulJob>,
    ) -> (Vec<Ticket>, Option<(SubmitError, Vec<MulJob>)>) {
        self.enqueue_many(jobs, false)
    }

    /// Queues `jobs` in order under one lock acquisition. At capacity
    /// it waits for room when `block` is set and refuses the rest
    /// otherwise; a stop or pause refuses the rest either way. Returns
    /// the accepted prefix's tickets and, if anything was refused, why
    /// plus the refused suffix in order.
    pub(crate) fn enqueue_many(
        &self,
        jobs: Vec<MulJob>,
        block: bool,
    ) -> (Vec<Ticket>, Option<(SubmitError, Vec<MulJob>)>) {
        let bulk = jobs.len() > 1;
        let tile = (self.shared.release_at > 1).then(|| Arc::clone(&self.shared));
        let mut jobs = VecDeque::from(jobs);
        let mut tickets = Vec::with_capacity(jobs.len());
        let mut inner = self.shared.lock_inner();
        let refusal = loop {
            if jobs.is_empty() {
                break None;
            }
            if inner.closed {
                break Some(SubmitError::Stopped);
            }
            if inner.paused {
                break Some(SubmitError::Paused);
            }
            if inner.jobs.len() >= self.shared.capacity {
                if !block {
                    break Some(SubmitError::QueueFull);
                }
                // Let the executor drain what this call queued so far.
                self.shared.not_empty.notify_one();
                inner = self
                    .shared
                    .not_full
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            if let Some(job) = jobs.pop_front() {
                let state = TicketState::new();
                inner.jobs.push_back(Queued {
                    job,
                    ticket: Arc::clone(&state),
                    submitted: Instant::now(),
                });
                inner.wanted |= bulk;
                self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
                tickets.push(Ticket {
                    state,
                    tile: tile.clone(),
                    asked: AtomicBool::new(false),
                });
            }
        };
        let release = inner.wanted || inner.jobs.len() >= self.shared.release_at;
        drop(inner);
        if release && !tickets.is_empty() {
            self.shared.not_empty.notify_one();
        }
        if refusal == Some(SubmitError::QueueFull) {
            self.shared
                .stats
                .rejected
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        }
        (tickets, refusal.map(|e| (e, Vec::from(jobs))))
    }

    /// Jobs currently queued (excludes the batch being executed).
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_inner().jobs.len()
    }
}

/// Point-in-time statistics snapshot of a running service.
///
/// Lifetime counters (`submitted` through `modelled_cycles_total`)
/// accumulate from construction; the coalesce shape and the latency
/// percentiles are **window** metrics covering the span since
/// construction or the last [`ModSramService::reset_window`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Jobs currently queued (not yet drained into a batch).
    pub queue_depth: usize,
    /// Jobs accepted (blocking and non-blocking submissions).
    pub submitted: u64,
    /// `try_submit` calls refused with [`SubmitError::QueueFull`].
    pub rejected: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs completed with an error.
    pub failed: u64,
    /// Coalesced batches dispatched.
    pub batches: u64,
    /// Executor panics caught by the unwind guard (each one failed its
    /// batch's undelivered tickets with [`ServiceError::Stopped`]).
    pub executor_panics: u64,
    /// [`ModSramService::health`] probes taken, from every caller:
    /// routing consults health per submission, probation per check,
    /// and statistics snapshots (including
    /// [`ServiceCluster`](crate::cluster::ServiceCluster)`::stats`)
    /// once per tile — so on an idle cluster this climbs with the
    /// monitoring cadence, not with traffic.
    pub health_probes: u64,
    /// Total modelled device occupancy, in cycles: the sum of every
    /// dispatched batch's [`modelled_batch_cycles`] makespan. Batches
    /// on one tile are serialised in the modelled domain, so this is
    /// the tile's busy time — the quantity a multi-tile cluster sweep
    /// takes the per-tile max of.
    pub modelled_cycles_total: u64,
    /// Smallest batch dispatched in the window (0 before the first).
    pub coalesce_min: u64,
    /// Largest batch dispatched in the window.
    pub coalesce_max: u64,
    /// Mean jobs per dispatched batch in the window.
    pub coalesce_mean: f64,
    /// Median submit→complete latency, wall-clock nanoseconds
    /// (includes queue wait and coalescing delay). Window metric.
    pub wall_p50_ns: u64,
    /// 99th-percentile wall-clock latency, nanoseconds. Window metric.
    pub wall_p99_ns: u64,
    /// Median modelled latency in device cycles: the
    /// [`modelled_batch_cycles`] makespan of the batch the job rode in.
    /// Window metric.
    pub modelled_p50_cycles: u64,
    /// 99th-percentile modelled latency, device cycles. Window metric.
    pub modelled_p99_cycles: u64,
    /// Context-pool cache hits.
    pub pool_hits: u64,
    /// Context-pool cache misses (preparations run).
    pub pool_misses: u64,
    /// Context-pool LRU evictions.
    pub pool_evictions: u64,
    /// Self-tuning counters when the tile runs an autotuning pool
    /// ([`ModSramService::auto`]): tuned moduli, races run/skipped,
    /// calibration nanoseconds, per-engine wins. `None` on pinned
    /// pools.
    pub autotune: Option<AutotuneStats>,
}

/// A point-in-time capacity/liveness probe of one service tile — the
/// seam a [`ServiceCluster`](crate::cluster::ServiceCluster) routes on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileHealth {
    /// Jobs currently queued (not yet drained into a batch).
    pub queue_depth: usize,
    /// The bounded queue's capacity.
    pub queue_capacity: usize,
    /// `true` once the tile has shut down.
    pub stopped: bool,
    /// `true` while admissions are paused
    /// ([`ModSramService::pause_admissions`]) — the tile is draining
    /// or sitting out a probation window; queued jobs keep executing.
    pub paused: bool,
    /// Executor panics caught so far — a tile whose panics keep
    /// climbing has a poisoned context and should be routed around.
    pub executor_panics: u64,
}

impl TileHealth {
    /// Queue slots still free.
    pub fn headroom(&self) -> usize {
        self.queue_capacity.saturating_sub(self.queue_depth)
    }
}

/// The streaming modular-multiplication service (see the module docs).
pub struct ModSramService {
    shared: Arc<Shared>,
    pool: Arc<ContextPool>,
    executor: Mutex<Option<JoinHandle<()>>>,
    config: ServiceConfig,
}

impl core::fmt::Debug for ModSramService {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ModSramService {{ workers: {}, capacity: {}, queue_depth: {} }}",
            self.config.workers,
            self.config.queue_capacity,
            self.queue_depth()
        )
    }
}

impl ModSramService {
    /// Starts a service executing through `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers`, `config.queue_capacity`, or
    /// `config.max_batch` is zero.
    pub fn new(pool: ContextPool, config: ServiceConfig) -> Self {
        Self::with_shared_pool(Arc::new(pool), config)
    }

    /// Starts a service over an already-shared pool (e.g. one also
    /// serving staged dispatch elsewhere).
    ///
    /// # Panics
    ///
    /// As [`ModSramService::new`], plus when the OS refuses to spawn a
    /// service thread — use
    /// [`ModSramService::try_with_shared_pool`] to handle that case.
    pub fn with_shared_pool(pool: Arc<ContextPool>, config: ServiceConfig) -> Self {
        // analyzer: allow(no_panic, panicking convenience ctor by contract; the fallible path is try_with_shared_pool)
        Self::try_with_shared_pool(pool, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Starts a service over an already-shared pool, surfacing a
    /// thread-spawn refusal as [`CoreError::Spawn`] instead of
    /// panicking — the constructor an admission-controlled front-end
    /// (which must shed load, not unwind) should call.
    ///
    /// # Panics
    ///
    /// As [`ModSramService::new`] for zero `workers`,
    /// `queue_capacity`, or `max_batch` (those are caller bugs, not
    /// runtime conditions).
    ///
    /// # Errors
    ///
    /// [`CoreError::Spawn`] when the OS cannot start the executor
    /// thread.
    pub fn try_with_shared_pool(
        pool: Arc<ContextPool>,
        config: ServiceConfig,
    ) -> Result<Self, CoreError> {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.max_batch > 0, "max batch must be positive");
        let shared = Arc::new(Shared {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
                paused: false,
                wanted: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            quiesced: Condvar::new(),
            capacity: config.queue_capacity,
            release_at: if config.workers > 1 {
                config.max_batch.min(config.queue_capacity)
            } else {
                1
            },
            stats: StatsCell::new(),
        });
        let (thread_shared, thread_pool) = (Arc::clone(&shared), Arc::clone(&pool));
        let thread_config = config.clone();
        let executor = std::thread::Builder::new()
            .name("modsram-exec".into())
            .spawn(move || executor_loop(thread_shared, thread_pool, thread_config))
            .map_err(|_| CoreError::Spawn {
                what: "executor thread",
            })?;
        Ok(ModSramService {
            shared,
            pool,
            executor: Mutex::new(Some(executor)),
            config,
        })
    }

    /// Service over a registry engine by name.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownEngine`] for a name absent from the
    /// registry.
    pub fn for_engine_name(name: &str, config: ServiceConfig) -> Result<Self, CoreError> {
        let pool =
            ContextPool::for_engine_name(name).ok_or_else(|| CoreError::unknown_engine(name))?;
        Ok(Self::new(pool, config))
    }

    /// Service over a pool of cycle-accurate ModSRAM devices (one
    /// modulus-loaded device per distinct modulus).
    pub fn for_modsram(device: ModSramConfig, config: ServiceConfig) -> Self {
        Self::new(ContextPool::for_modsram(device), config)
    }

    /// A self-tuning service: each distinct modulus is served by
    /// whatever engine `policy` decides — pinned, profile-table
    /// lookup, or a prepare-time calibration race (see
    /// [`crate::autotune`]). Tuning counters appear in
    /// [`ServiceStats::autotune`].
    pub fn auto(policy: TunePolicy, config: ServiceConfig) -> Self {
        Self::new(ContextPool::auto(policy), config)
    }

    /// A cloneable submission endpoint for producer threads.
    pub fn handle(&self) -> SubmitHandle {
        SubmitHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Submits one job, blocking while the queue is at capacity (see
    /// [`SubmitHandle::submit`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Stopped`] once the service has shut down.
    pub fn submit(&self, job: MulJob) -> Result<Ticket, SubmitError> {
        self.handle().submit(job)
    }

    /// Submits one job without blocking (see
    /// [`SubmitHandle::try_submit`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, [`SubmitError::Stopped`]
    /// after shutdown.
    pub fn try_submit(&self, job: MulJob) -> Result<Ticket, SubmitError> {
        self.handle().try_submit(job)
    }

    /// A [`PreparedModMul`] façade over this service for modulus `p`:
    /// every `mod_mul` submits through the queue, so existing
    /// engine-generic consumers (curves, committers, NTT shards)
    /// stream their multiplications through the shared tile.
    pub fn prepared(&self, p: &UBig) -> ServicePrepared {
        ServicePrepared {
            handle: self.handle(),
            p: p.clone(),
        }
    }

    /// The shared context pool (for staged callers riding the same
    /// preparations).
    pub fn pool(&self) -> &Arc<ContextPool> {
        &self.pool
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Jobs currently queued.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_inner().jobs.len()
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.shared.stats;
        let window_batches = s.window_batches.load(Ordering::Relaxed);
        let window_jobs = s.window_jobs.load(Ordering::Relaxed);
        let min = s.coalesce_min.load(Ordering::Relaxed);
        let (wall_p50, wall_p99) = {
            let r = s.wall_ns.lock().unwrap_or_else(PoisonError::into_inner);
            (r.percentile(0.50), r.percentile(0.99))
        };
        let (cyc_p50, cyc_p99) = {
            let r = s.cycles.lock().unwrap_or_else(PoisonError::into_inner);
            (r.percentile(0.50), r.percentile(0.99))
        };
        ServiceStats {
            queue_depth: self.queue_depth(),
            submitted: s.submitted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            // Acquire pairs with the executor's Release bump so a
            // non-zero panic count implies the ticket failures that
            // accompanied it are visible too.
            executor_panics: s.executor_panics.load(Ordering::Acquire),
            health_probes: s.health_probes.load(Ordering::Relaxed),
            modelled_cycles_total: s.modelled_cycles_total.load(Ordering::Relaxed),
            coalesce_min: if min == u64::MAX { 0 } else { min },
            coalesce_max: s.coalesce_max.load(Ordering::Relaxed),
            coalesce_mean: if window_batches == 0 {
                0.0
            } else {
                window_jobs as f64 / window_batches as f64
            },
            wall_p50_ns: wall_p50,
            wall_p99_ns: wall_p99,
            modelled_p50_cycles: cyc_p50,
            modelled_p99_cycles: cyc_p99,
            pool_hits: self.pool.hits(),
            pool_misses: self.pool.misses(),
            pool_evictions: self.pool.evictions(),
            autotune: self.pool.tuner().map(|t| t.stats()),
        }
    }

    /// Starts a fresh statistics **window**: clears the coalesce
    /// min/mean/max aggregates and both latency reservoirs while
    /// leaving every lifetime counter (submitted, completed, batches,
    /// panics, modelled occupancy) untouched.
    ///
    /// Sweeps call this between phases — e.g. after a warm-up pass that
    /// paid the per-modulus preparation cost — so the percentiles and
    /// coalesce shape they report describe one steady-state phase
    /// instead of a lifetime aggregate that smears phases together.
    pub fn reset_window(&self) {
        self.shared.stats.reset_window();
    }

    /// The capacity/liveness probe a cluster router consults before
    /// targeting this tile. Every probe is counted in
    /// [`ServiceStats::health_probes`].
    pub fn health(&self) -> TileHealth {
        self.shared
            .stats
            .health_probes
            .fetch_add(1, Ordering::Relaxed);
        let inner = self.shared.lock_inner();
        TileHealth {
            queue_depth: inner.jobs.len(),
            queue_capacity: self.config.queue_capacity,
            stopped: inner.closed,
            paused: inner.paused,
            // Acquire pairs with the executor's Release bump: a router
            // steering away from a panicking tile must also observe the
            // failure state that justified the bump.
            executor_panics: self.shared.stats.executor_panics.load(Ordering::Acquire),
        }
    }

    /// Pauses admissions: every subsequent (or currently blocked)
    /// submission is refused with [`SubmitError::Paused`], while the
    /// queue keeps draining and every already-accepted ticket still
    /// completes. This is the drain seam a
    /// [`ServiceCluster`](crate::cluster::ServiceCluster) uses: pause,
    /// [`ModSramService::wait_quiesced`], and the tile is empty
    /// without ever being shut down — so it can
    /// [`resume_admissions`](ModSramService::resume_admissions) after a
    /// probation window instead of being rebuilt. Idempotent.
    pub fn pause_admissions(&self) {
        {
            let mut inner = self.shared.lock_inner();
            inner.paused = true;
        }
        // Wake blocked submitters so they observe the pause and refuse
        // instead of waiting for capacity that may never be offered to
        // them again this epoch, and the executor so a drain never
        // waits on a held batch.
        self.shared.not_full.notify_all();
        self.shared.not_empty.notify_one();
    }

    /// Re-opens admissions after [`ModSramService::pause_admissions`].
    /// Idempotent; a no-op on a stopped service.
    pub fn resume_admissions(&self) {
        {
            let mut inner = self.shared.lock_inner();
            inner.paused = false;
        }
        self.shared.not_full.notify_all();
    }

    /// Blocks until every accepted job has been delivered (completed or
    /// failed) or the service has shut down — with admissions paused,
    /// until the tile is fully drained.
    pub fn wait_quiesced(&self) {
        let s = &self.shared.stats;
        // The executor bumps the delivery counters before it takes this
        // lock to notify, so reading them under it misses no wake-up.
        let busy = |inner: &mut QueueInner| {
            let delivered = s.completed.load(Ordering::Relaxed) + s.failed.load(Ordering::Relaxed);
            !inner.closed && delivered != s.submitted.load(Ordering::Relaxed)
        };
        let inner = self.shared.lock_inner();
        drop(self.shared.quiesced.wait_while(inner, busy));
    }

    /// Gracefully stops the service: refuses new submissions, lets the
    /// executor drain and complete every queued ticket, joins it, and
    /// returns the final statistics. Idempotent.
    pub fn shutdown(&self) -> ServiceStats {
        {
            let mut inner = self.shared.lock_inner();
            inner.closed = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        self.shared.quiesced.notify_all();
        // The executor keeps taking batches until the closed queue is
        // empty, so joining it completes every accepted ticket.
        let executor = self
            .executor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = executor {
            let _ = handle.join();
        }
        self.stats()
    }
}

impl Drop for ModSramService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocks until the queue releases a batch, then takes up to
/// `max_batch` jobs; `None` once the queue is closed and empty. A
/// batch is released once [`Shared::release_at`] jobs are queued (one
/// on a one-lane tile), a producer wants a queued result, or the queue
/// is paused or closed. Only a take that empties the queue clears
/// `wanted`: a waited-on job may be left behind a full batch.
fn next_batch(shared: &Shared, max_batch: usize) -> Option<Vec<Queued>> {
    let mut inner = shared.lock_inner();
    // Every earlier batch is delivered by now: a drain may be waiting
    // for exactly that.
    if inner.paused || inner.closed {
        shared.quiesced.notify_all();
    }
    loop {
        let queued = inner.jobs.len();
        let release = inner.wanted || inner.paused || inner.closed || queued >= shared.release_at;
        if queued > 0 && release {
            break;
        }
        if inner.closed {
            return None;
        }
        inner = shared
            .not_empty
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
    }
    let take = inner.jobs.len().min(max_batch);
    let batch: Vec<Queued> = inner.jobs.drain(..take).collect();
    inner.wanted &= !inner.jobs.is_empty();
    drop(inner);
    // Capacity freed: wake every blocked submitter.
    shared.not_full.notify_all();
    Some(batch)
}

/// An executor thread: takes, sorts, executes, and delivers batches
/// until the queue is closed and empty.
///
/// Execution runs under an unwind guard: if anything in the execution
/// path panics, the batch's undelivered tickets fail with
/// [`ServiceError::Stopped`] instead of hanging their waiters, and the
/// executor keeps serving later batches.
fn executor_loop(shared: Arc<Shared>, pool: Arc<ContextPool>, config: ServiceConfig) {
    while let Some(batch) = next_batch(&shared, config.max_batch) {
        let tickets: Vec<Arc<TicketState>> = batch.iter().map(|q| Arc::clone(&q.ticket)).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_batch(&shared, &pool, &config, batch);
        }));
        if outcome.is_err() {
            // Release so a monitor that observes the bumped count also
            // sees the ticket failures published below it (the counter
            // gates "did anything go wrong" health probes).
            shared.stats.executor_panics.fetch_add(1, Ordering::Release);
            let mut failed = 0u64;
            for ticket in &tickets {
                if ticket.complete(Err(ServiceError::Stopped)) {
                    failed += 1;
                }
            }
            shared.stats.failed.fetch_add(failed, Ordering::Relaxed);
        }
    }
}

/// A cheap grouping key for multiplicand-major coalescing: jobs with
/// equal `(modulus, b)` map to equal keys, so sorting by the key
/// produces the contiguous shared-multiplicand runs the LUT engines
/// amortise — without O(n log n) big-integer comparisons on the
/// executor's critical path. (A hash collision merely places two
/// unrelated runs next to each other; runs are still split where the
/// modulus actually changes, so correctness never depends on the
/// key.)
fn group_key(job: &MulJob) -> (u64, u64) {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let mut h = DefaultHasher::new();
    job.modulus.hash(&mut h);
    let modulus = h.finish();
    let mut h = DefaultHasher::new();
    job.b.hash(&mut h);
    (modulus, h.finish())
}

/// Sorts a drained batch multiplicand-major, executes each run of one
/// modulus as one `mod_mul_batch` on the executor's own thread, and
/// delivers each result to its ticket. The tile's lanes are modelled,
/// not spawned: `config.workers` only shapes the modelled makespan.
fn execute_batch(
    shared: &Shared,
    pool: &ContextPool,
    config: &ServiceConfig,
    mut batch: Vec<Queued>,
) {
    if batch.is_empty() {
        return;
    }
    let stats = &shared.stats;
    let n = batch.len() as u64;
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.window_batches.fetch_add(1, Ordering::Relaxed);
    stats.window_jobs.fetch_add(n, Ordering::Relaxed);
    stats.coalesce_min.fetch_min(n, Ordering::Relaxed);
    stats.coalesce_max.fetch_max(n, Ordering::Relaxed);

    // Multiplicand-major coalescing: group by modulus, then by `b`, so
    // interleaved tenants still hand the LUT engines long shared-`B`
    // runs. Each entry carries its own ticket, so execution order and
    // delivery need no permutation bookkeeping.
    batch.sort_by_cached_key(|q| group_key(&q.job));
    let mut jobs = Vec::with_capacity(batch.len());
    let mut meta = Vec::with_capacity(batch.len());
    for queued in batch {
        jobs.push(queued.job);
        meta.push((queued.ticket, queued.submitted));
    }

    let chunk_target = auto_chunk_size(jobs.len(), config.workers);
    let makespan_cycles = modelled_batch_cycles(&jobs, config.workers, chunk_target);
    stats
        .modelled_cycles_total
        .fetch_add(makespan_cycles, Ordering::Relaxed);

    let mut outcomes: Vec<Result<UBig, ServiceError>> = Vec::with_capacity(jobs.len());
    let mut jobs = jobs.into_iter().peekable();
    while let Some(first) = jobs.next() {
        let mut pairs = vec![(first.a, first.b)];
        while let Some(job) = jobs.next_if(|j| j.modulus == first.modulus) {
            pairs.push((job.a, job.b));
        }
        outcomes.extend(execute_run(pool, &first.modulus, &pairs));
    }

    // Record the samples first and drop both reservoir guards, so
    // `stats()` never waits on a whole batch of deliveries.
    let done = Instant::now();
    {
        let mut wall = stats.wall_ns.lock().unwrap_or_else(PoisonError::into_inner);
        let mut cycles = stats.cycles.lock().unwrap_or_else(PoisonError::into_inner);
        for (_, submitted) in &meta {
            wall.push(done.saturating_duration_since(*submitted).as_nanos() as u64);
            cycles.push(makespan_cycles);
        }
    }
    let (mut ok, mut errs) = (0u64, 0u64);
    for ((ticket, _), outcome) in meta.into_iter().zip(outcomes) {
        match &outcome {
            Ok(_) => ok += 1,
            Err(_) => errs += 1,
        }
        ticket.complete(outcome);
    }
    stats.completed.fetch_add(ok, Ordering::Relaxed);
    stats.failed.fetch_add(errs, Ordering::Relaxed);
}

/// Executes one run of jobs on modulus `p` as one batch. Verdicts are
/// per run: a context error fails only this run's jobs, and a batch
/// error (one poisoned pair, say) falls back to per-job execution so
/// the run's innocent neighbours still complete.
fn execute_run(
    pool: &ContextPool,
    p: &UBig,
    pairs: &[(UBig, UBig)],
) -> Vec<Result<UBig, ServiceError>> {
    let ctx = match pool.context(p) {
        Ok(ctx) => ctx,
        Err(e) => return vec![Err(ServiceError::Mul(e)); pairs.len()],
    };
    match ctx.mod_mul_batch(pairs) {
        Ok(results) => {
            // A wrong-sized result breaks the batch contract; the panic
            // reaches the executor's unwind guard, which fails the batch.
            assert_eq!(results.len(), pairs.len(), "wrong-sized batch result");
            results.into_iter().map(Ok).collect()
        }
        Err(_) => pairs
            .iter()
            .map(|(a, b)| {
                ctx.mod_mul(a, b)
                    .map_err(|e| ServiceError::Mul(CoreError::ModMul(e)))
            })
            .collect(),
    }
}

/// A [`PreparedModMul`] whose every multiplication streams through a
/// [`ModSramService`] — the bridge that lets engine-generic consumers
/// (curves over dynamic field contexts, Pedersen committers, NTT
/// shards) interleave on one shared tile.
///
/// Obtained from [`ModSramService::prepared`]. `mod_mul` submits one
/// job and blocks on its ticket; `mod_mul_batch` submits the whole
/// batch before waiting, so independent multiplications coalesce.
pub struct ServicePrepared {
    handle: SubmitHandle,
    p: UBig,
}

impl core::fmt::Debug for ServicePrepared {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ServicePrepared {{ p: {} }}", self.p)
    }
}

pub(crate) fn backend_error(e: impl core::fmt::Display) -> ModMulError {
    ModMulError::Backend {
        reason: e.to_string(),
    }
}

/// Unwraps a ticket result into the engine error space: algorithmic
/// errors pass through, service-level failures become
/// [`ModMulError::Backend`].
pub(crate) fn ticket_result(result: Result<UBig, ServiceError>) -> Result<UBig, ModMulError> {
    match result {
        Ok(v) => Ok(v),
        Err(ServiceError::Mul(CoreError::ModMul(e))) => Err(e),
        Err(other) => Err(backend_error(other)),
    }
}

impl PreparedModMul for ServicePrepared {
    fn engine_name(&self) -> &'static str {
        "service"
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
        let tickets = self.handle.submit_many(jobs).map_err(backend_error)?;
        tickets.iter().map(|t| ticket_result(t.wait())).collect()
    }
}

/// The one execution seam batch consumers run their modular
/// multiplications through: a **one-shot** [`Staged`] dispatch the
/// caller owns end to end, a **shared** [`ModSramService`] several
/// consumers feed concurrently, or a multi-tile [`ServiceCluster`] that
/// routes each job to its modulus's home tile.
///
/// The `*_via` curve constructors, `PedersenCommitter::new_via`,
/// `NttPlan::{forward,inverse}_via` and `apps::ecdsa::verify_batch`
/// take a `&dyn MulBackend`, so the same verification/NTT/MSM code
/// serves a batch CLI tool, a mixed-tenant server and a rack of tiles.
pub trait MulBackend: Sync {
    /// Executes a batch of jobs, returning products in job order.
    ///
    /// # Errors
    ///
    /// Propagates the first preparation/execution error; a stopped
    /// service surfaces as [`CoreError::ServiceStopped`], a paused one
    /// as [`CoreError::ServicePaused`], a stopped cluster as
    /// [`CoreError::ClusterStopped`].
    fn mul_jobs(&self, jobs: &[MulJob]) -> Result<Vec<UBig>, CoreError>;

    /// A shareable prepared context for `p`: the pooled context when
    /// staged, a [`ServicePrepared`] stream on a service, a
    /// cluster-routed stream on a cluster.
    ///
    /// # Errors
    ///
    /// Staged: the pool's preparation error. Service/cluster: never
    /// fails here — invalid moduli surface on first use.
    fn context(&self, p: &UBig) -> Result<Arc<dyn PreparedModMul>, CoreError>;
}

/// Stage whole batches through a caller-owned dispatcher and pool.
#[derive(Debug)]
pub struct Staged<'a> {
    /// The dispatcher executing each staged batch.
    pub dispatcher: &'a Dispatcher,
    /// Per-modulus context cache.
    pub pool: &'a ContextPool,
}

impl MulBackend for Staged<'_> {
    fn mul_jobs(&self, jobs: &[MulJob]) -> Result<Vec<UBig>, CoreError> {
        self.dispatcher
            .dispatch_jobs(self.pool, jobs)
            .map(|(r, _)| r)
    }

    fn context(&self, p: &UBig) -> Result<Arc<dyn PreparedModMul>, CoreError> {
        self.pool.context(p)
    }
}

impl MulBackend for ModSramService {
    fn mul_jobs(&self, jobs: &[MulJob]) -> Result<Vec<UBig>, CoreError> {
        let tickets = self
            .handle()
            .submit_many(jobs.to_vec())
            .map_err(|e| match e {
                // A paused tile may admit again; only a stop is final.
                SubmitError::Paused => CoreError::ServicePaused,
                // `submit_many` blocks on a full queue, never refuses.
                SubmitError::Stopped | SubmitError::QueueFull => CoreError::ServiceStopped,
            })?;
        tickets
            .iter()
            .map(|t| t.wait().map_err(CoreError::from))
            .collect()
    }

    fn context(&self, p: &UBig) -> Result<Arc<dyn PreparedModMul>, CoreError> {
        Ok(Arc::new(self.prepared(p)))
    }
}

impl MulBackend for ServiceCluster {
    fn mul_jobs(&self, jobs: &[MulJob]) -> Result<Vec<UBig>, CoreError> {
        let tickets = self
            .handle()
            .submit_many(jobs.to_vec())
            .map_err(|failure| CoreError::from(failure.error))?;
        tickets
            .iter()
            .map(|t| t.wait().map_err(CoreError::from))
            .collect()
    }

    fn context(&self, p: &UBig) -> Result<Arc<dyn PreparedModMul>, CoreError> {
        Ok(Arc::new(self.prepared(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::{modelled_mul_cycles, MODELLED_REFILL_CYCLES};
    use crate::test_util::SATURATE_STALL_LIMIT;
    use std::sync::mpsc;

    fn jobs_mod(p: u64, count: u64) -> Vec<MulJob> {
        (0..count)
            .map(|i| MulJob::new(UBig::from(i * 3 + 1), UBig::from(i * 7 + 2), UBig::from(p)))
            .collect()
    }

    fn tiny_config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            max_batch: 8,
        }
    }

    #[test]
    fn submit_wait_roundtrip() {
        let service = ModSramService::for_engine_name("barrett", tiny_config()).unwrap();
        let tickets: Vec<Ticket> = jobs_mod(97, 20)
            .into_iter()
            .map(|j| service.submit(j).unwrap())
            .collect();
        for (i, t) in tickets.iter().enumerate() {
            let i = i as u64;
            assert_eq!(
                t.wait().unwrap(),
                UBig::from((i * 3 + 1) * (i * 7 + 2) % 97)
            );
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.failed, 0);
        assert!(stats.batches >= 1);
        assert!(stats.coalesce_max <= 8);
    }

    #[test]
    fn submit_many_matches_per_job_submission() {
        let service = ModSramService::for_engine_name("barrett", tiny_config()).unwrap();
        let jobs = jobs_mod(1_000_003, 25);
        let tickets = service.handle().submit_many(jobs.clone()).unwrap();
        assert_eq!(tickets.len(), 25);
        for (job, ticket) in jobs.iter().zip(&tickets) {
            assert_eq!(ticket.wait().unwrap(), &(&job.a * &job.b) % &job.modulus);
        }
        // Bulk submission larger than the queue capacity still drains
        // (the call blocks per slot, the executor frees space).
        let big = jobs_mod(97, 200);
        let tickets = service.handle().submit_many(big.clone()).unwrap();
        for (job, ticket) in big.iter().zip(&tickets) {
            assert_eq!(ticket.wait().unwrap(), &(&job.a * &job.b) % &job.modulus);
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 225);
        // submit_many after shutdown is refused.
        assert_eq!(
            service.handle().submit_many(jobs_mod(97, 2)).err(),
            Some(SubmitError::Stopped)
        );
    }

    #[test]
    fn try_submit_many_queues_the_prefix_that_fits() {
        use crate::test_util::{gated_pool, Gate};
        let gate = Gate::new();
        let config = ServiceConfig {
            workers: 1,
            queue_capacity: 3,
            ..Default::default()
        };
        let service = ModSramService::new(gated_pool(&gate), config);
        let jobs = jobs_mod(97, 6);
        // The executor holds job 0 at the gate: three slots stay free.
        let held = service.submit(jobs[0].clone()).unwrap();
        gate.wait_entered(1);
        let handle = service.handle();
        let (tickets, refused) = handle.try_submit_many(jobs[1..].to_vec());
        assert_eq!(tickets.len(), 3);
        assert_eq!(refused, Some((SubmitError::QueueFull, jobs[4..].to_vec())));
        assert_eq!(service.stats().rejected, 2, "one per refused job");
        service.pause_admissions();
        let (none, paused) = handle.try_submit_many(jobs[4..].to_vec());
        assert!(none.is_empty());
        assert_eq!(paused, Some((SubmitError::Paused, jobs[4..].to_vec())));
        gate.open();
        for (job, ticket) in jobs.iter().zip(std::iter::once(&held).chain(&tickets)) {
            assert_eq!(ticket.wait().unwrap(), &(&job.a * &job.b) % &job.modulus);
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.batches, 2, "the queued prefix ran as one batch");
        let (none, stopped) = handle.try_submit_many(jobs_mod(97, 1));
        assert!(none.is_empty());
        assert_eq!(stopped.map(|(e, _)| e), Some(SubmitError::Stopped));
    }

    #[test]
    fn a_tile_runs_one_batch_at_a_time() {
        use crate::test_util::{gated_pool, Gate};
        let gate = Gate::new();
        let config = ServiceConfig {
            workers: 1,
            ..Default::default()
        };
        let service = ModSramService::new(gated_pool(&gate), config);
        let jobs = jobs_mod(97, 6);
        // The first batch holds the tile at the gate.
        let first = service.submit(jobs[0].clone()).unwrap();
        gate.wait_entered(1);
        let queued: Vec<Ticket> = jobs[1..]
            .iter()
            .map(|job| service.submit(job.clone()).unwrap())
            .collect();
        // Nothing else takes them while the first batch runs. Look
        // before opening the gate, assert after, so a failure cannot
        // leave the executor parked.
        let depth_while_held = service.queue_depth();
        let entered_while_held = gate.entered();
        let done_while_held = std::iter::once(&first)
            .chain(&queued)
            .filter(|t| t.is_done())
            .count();
        gate.open();
        assert_eq!(depth_while_held, queued.len());
        assert_eq!(entered_while_held, 1);
        assert_eq!(done_while_held, 0);
        for (job, ticket) in jobs.iter().zip(std::iter::once(&first).chain(&queued)) {
            assert_eq!(ticket.wait().unwrap(), &(&job.a * &job.b) % &job.modulus);
        }
        let stats = service.shutdown();
        assert_eq!(stats.completed, jobs.len() as u64);
        assert_eq!(
            stats.batches, 2,
            "the jobs queued during the hold ran as one batch"
        );
        assert_eq!(stats.coalesce_max, queued.len() as u64);
    }

    #[test]
    fn try_poll_transitions_to_done() {
        let service = ModSramService::for_engine_name("direct", tiny_config()).unwrap();
        let ticket = service
            .submit(MulJob::new(
                UBig::from(6u64),
                UBig::from(7u64),
                UBig::from(97u64),
            ))
            .unwrap();
        let value = ticket.wait().unwrap();
        assert_eq!(value, UBig::from(42u64));
        assert_eq!(ticket.try_poll(), Some(Ok(UBig::from(42u64))));
        assert!(ticket.is_done());
    }

    #[test]
    fn on_done_runs_its_hook_exactly_once() {
        // Pending: the completing thread runs the hook, once; a second
        // completion (the panic guard's) is a no-op. The hook owns the
        // only sender, so a closed channel means it ran and was dropped.
        let state = TicketState::new();
        let ticket = Ticket {
            state: Arc::clone(&state),
            tile: None,
            asked: AtomicBool::new(false),
        };
        let (tx, rx) = mpsc::channel();
        ticket.on_done(move |r| tx.send((r, std::thread::current().id())).unwrap());
        assert!(rx.try_recv().is_err(), "the hook ran before completion");
        let completer = std::thread::spawn(move || {
            let won = state.complete(Ok(UBig::from(9u64)));
            let again = state.complete(Err(ServiceError::Stopped));
            (won, again, std::thread::current().id())
        });
        let (won, again, completer_id) = completer.join().unwrap();
        assert!(won && !again);
        assert_eq!(rx.recv().unwrap(), (Ok(UBig::from(9u64)), completer_id));
        assert!(rx.recv().is_err(), "the hook ran once");

        // Done: the hook runs at once, on the caller's thread.
        let service = ModSramService::for_engine_name("direct", tiny_config()).unwrap();
        let ticket = service.submit(jobs_mod(97, 1).remove(0)).unwrap();
        let product = ticket.wait().unwrap();
        let (tx, rx) = mpsc::channel();
        ticket.on_done(move |r| tx.send((r, std::thread::current().id())).unwrap());
        assert_eq!(
            rx.try_recv(),
            Ok((Ok(product), std::thread::current().id()))
        );
        service.shutdown();

        // Pending on a two-lane tile: registering releases the held job.
        let service = ModSramService::for_engine_name("barrett", tiny_config()).unwrap();
        let job = jobs_mod(97, 1).remove(0);
        let ticket = service.submit(job.clone()).unwrap();
        assert_eq!(service.queue_depth(), 1, "the job is held");
        assert_eq!(redeem(ticket), &(&job.a * &job.b) % &job.modulus);
        service.shutdown();

        // A panicking batch: the unwind guard calls the hook with
        // `Stopped`, and counts the job failed once.
        use crate::test_util::{failing_pool, FailureMode};
        let config = ServiceConfig {
            workers: 1,
            ..tiny_config()
        };
        let service = ModSramService::new(failing_pool(1, FailureMode::Panic), config);
        let (tx, rx) = mpsc::channel();
        let ticket = service.submit(jobs_mod(97, 1).remove(0)).unwrap();
        ticket.on_done(move |r| tx.send(r).unwrap());
        assert_eq!(
            rx.recv_timeout(SATURATE_STALL_LIMIT),
            Ok(Err(ServiceError::Stopped))
        );
        let stats = service.shutdown();
        assert_eq!((stats.executor_panics, stats.failed), (1, 1));
    }

    /// Takes a redemption's result from `rx`, failing instead of hanging
    /// if the tile never releases its batch.
    fn received(rx: mpsc::Receiver<Result<UBig, ServiceError>>) -> UBig {
        rx.recv_timeout(SATURATE_STALL_LIMIT)
            .expect("the held batch was never released")
            .unwrap()
    }

    /// Redeems `ticket` through [`Ticket::on_done`].
    fn redeem(ticket: Ticket) -> UBig {
        let (tx, rx) = mpsc::channel();
        ticket.on_done(move |r| drop(tx.send(r)));
        received(rx)
    }

    /// Redeems `ticket` through a blocking [`Ticket::wait`] on a helper
    /// thread, with the same stall limit as [`redeem`].
    fn redeem_by_wait(ticket: Ticket) -> UBig {
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || tx.send(ticket.wait()));
        let product = received(rx);
        waiter.join().unwrap().unwrap();
        product
    }

    /// Spins until `service` has completed `jobs` jobs, failing after
    /// [`SATURATE_STALL_LIMIT`] without progress.
    fn wait_for_completed(service: &ModSramService, jobs: u64) {
        let (mut seen, mut last_progress) = (0, Instant::now());
        while seen < jobs {
            let completed = service.stats().completed;
            if completed > seen {
                (seen, last_progress) = (completed, Instant::now());
            }
            assert!(
                last_progress.elapsed() < SATURATE_STALL_LIMIT,
                "completions stalled at {seen} of {jobs}"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn waiting_on_a_streamed_job_releases_the_whole_stream() {
        // Two lanes, max_batch 8: five single jobs wait in the queue
        // until the producer asks for a result, then run as one batch.
        let service = ModSramService::for_engine_name("barrett", tiny_config()).unwrap();
        let jobs = jobs_mod(97, 5);
        let tickets: Vec<Ticket> = jobs
            .iter()
            .map(|j| service.submit(j.clone()).unwrap())
            .collect();
        assert_eq!(service.queue_depth(), jobs.len(), "the stream is held");
        let mut tickets = tickets.into_iter();
        let first = tickets.next().expect("five tickets");
        assert_eq!(
            redeem_by_wait(first),
            &(&jobs[0].a * &jobs[0].b) % &jobs[0].modulus
        );
        for (job, ticket) in jobs[1..].iter().zip(tickets) {
            assert_eq!(redeem(ticket), &(&job.a * &job.b) % &job.modulus);
        }
        let stats = service.shutdown();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.coalesce_max, jobs.len() as u64);
    }

    #[test]
    fn an_ask_outlives_a_take_that_leaves_its_job_behind() {
        use crate::test_util::{gated_pool, Gate};
        // While the gate holds the tile busy, 11 jobs queue up and the
        // producer asks for the last one. The next take runs 8 of them;
        // the ask must still release the 3 left behind, as the asked
        // ticket does not ask again.
        let gate = Gate::new();
        let service = ModSramService::new(gated_pool(&gate), tiny_config());
        let jobs = jobs_mod(97, 12);
        let first = service.submit(jobs[0].clone()).unwrap();
        assert_eq!(first.try_poll(), None);
        gate.wait_entered(1);
        let queued: Vec<Ticket> = jobs[1..]
            .iter()
            .map(|j| service.submit(j.clone()).unwrap())
            .collect();
        // Ask before opening the gate, assert after, so a failure
        // cannot leave the executor parked.
        let mut queued = queued;
        let last = queued.pop().expect("eleven queued");
        let asked = last.try_poll();
        gate.open();
        assert_eq!(asked, None);
        assert_eq!(
            redeem(last),
            &(&jobs[11].a * &jobs[11].b) % &jobs[11].modulus
        );
        for (job, ticket) in jobs.iter().zip(std::iter::once(first).chain(queued)) {
            assert_eq!(redeem(ticket), &(&job.a * &job.b) % &job.modulus);
        }
        let stats = service.shutdown();
        assert_eq!((stats.batches, stats.coalesce_max), (3, 8));
    }

    #[test]
    fn dropping_the_tickets_of_a_held_stream_releases_it() {
        let service = ModSramService::for_engine_name("barrett", tiny_config()).unwrap();
        let tickets: Vec<Ticket> = jobs_mod(97, 5)
            .into_iter()
            .map(|j| service.submit(j).unwrap())
            .collect();
        assert_eq!(service.queue_depth(), 5, "the stream is held");
        drop(tickets);
        wait_for_completed(&service, 5);
        assert_eq!(service.stats().batches, 1);
        service.shutdown();
    }

    #[test]
    fn an_untouched_stream_runs_once_a_full_batch_is_queued() {
        // A producer that never waits is served by the threshold:
        // `max_batch` jobs, or the whole queue when it is smaller.
        for (queue_capacity, full) in [(64, 8), (3, 3)] {
            let config = ServiceConfig {
                queue_capacity,
                ..tiny_config()
            };
            let service = ModSramService::for_engine_name("barrett", config).unwrap();
            let jobs = jobs_mod(97, full);
            let tickets: Vec<Ticket> = jobs
                .iter()
                .map(|j| service.submit(j.clone()).unwrap())
                .collect();
            wait_for_completed(&service, full);
            let stats = service.stats();
            assert_eq!((stats.batches, stats.coalesce_max), (1, full));
            for (job, ticket) in jobs.iter().zip(tickets) {
                assert_eq!(redeem(ticket), &(&job.a * &job.b) % &job.modulus);
            }
            service.shutdown();
        }
    }

    #[test]
    fn bad_modulus_fails_only_its_own_ticket() {
        // Montgomery rejects even moduli: a coalesced batch mixing good
        // and bad jobs must fail only the bad ones.
        let service = ModSramService::for_engine_name("montgomery", tiny_config()).unwrap();
        let good = service
            .submit(MulJob::new(
                UBig::from(5u64),
                UBig::from(6u64),
                UBig::from(97u64),
            ))
            .unwrap();
        let bad = service
            .submit(MulJob::new(
                UBig::from(5u64),
                UBig::from(6u64),
                UBig::from(96u64),
            ))
            .unwrap();
        assert_eq!(good.wait().unwrap(), UBig::from(30u64));
        assert_eq!(
            bad.wait(),
            Err(ServiceError::Mul(CoreError::ModMul(
                ModMulError::EvenModulus
            )))
        );
        let stats = service.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn submit_after_shutdown_is_refused() {
        let service = ModSramService::for_engine_name("direct", tiny_config()).unwrap();
        service.shutdown();
        assert_eq!(
            service
                .submit(MulJob::new(
                    UBig::from(1u64),
                    UBig::from(2u64),
                    UBig::from(97u64)
                ))
                .err(),
            Some(SubmitError::Stopped)
        );
        assert_eq!(
            service
                .try_submit(MulJob::new(
                    UBig::from(1u64),
                    UBig::from(2u64),
                    UBig::from(97u64)
                ))
                .err(),
            Some(SubmitError::Stopped)
        );
    }

    #[test]
    fn service_prepared_context_multiplies() {
        let service = ModSramService::for_engine_name("montgomery", tiny_config()).unwrap();
        let ctx = service.prepared(&UBig::from(1_000_003u64));
        assert_eq!(ctx.engine_name(), "service");
        assert_eq!(ctx.modulus(), &UBig::from(1_000_003u64));
        assert_eq!(
            ctx.mod_mul(&UBig::from(2024u64), &UBig::from(4096u64))
                .unwrap(),
            UBig::from(2024u64 * 4096 % 1_000_003)
        );
        let pairs = vec![(UBig::from(3u64), UBig::from(5u64)); 4];
        assert_eq!(
            ctx.mod_mul_batch(&pairs).unwrap(),
            vec![UBig::from(15u64); 4]
        );
    }

    #[test]
    fn exec_backend_staged_and_service_agree() {
        let jobs: Vec<MulJob> = jobs_mod(97, 9)
            .into_iter()
            .chain(jobs_mod(1_000_003, 9))
            .collect();
        let pool = ContextPool::for_engine_name("barrett").unwrap();
        let dispatcher = Dispatcher::new(2);
        let staged = Staged {
            dispatcher: &dispatcher,
            pool: &pool,
        }
        .mul_jobs(&jobs)
        .unwrap();
        let service = ModSramService::for_engine_name("barrett", tiny_config()).unwrap();
        let streamed = service.mul_jobs(&jobs).unwrap();
        assert_eq!(staged, streamed);
        for (job, got) in jobs.iter().zip(&staged) {
            assert_eq!(got, &(&(&job.a * &job.b) % &job.modulus));
        }
    }

    #[test]
    fn mul_jobs_on_a_paused_service_reports_paused_not_stopped() {
        // A draining or probationary tile is paused, not gone: its
        // consumers must be able to tell the two apart and retry.
        let service = ModSramService::for_engine_name("barrett", tiny_config()).unwrap();
        let jobs = jobs_mod(1_000_003, 5);
        service.pause_admissions();
        assert_eq!(service.mul_jobs(&jobs), Err(CoreError::ServicePaused));
        service.resume_admissions();
        let products = service.mul_jobs(&jobs).unwrap();
        for (job, got) in jobs.iter().zip(&products) {
            assert_eq!(got, &(&(&job.a * &job.b) % &job.modulus));
        }
        service.shutdown();
        assert_eq!(service.mul_jobs(&jobs), Err(CoreError::ServiceStopped));
    }

    #[test]
    fn modelled_cycles_match_paper_anchor() {
        // One 256-bit multiplication: 767 cycles plus one LUT refill.
        let p = &UBig::pow2(256) - &UBig::from(189u64);
        let jobs = vec![MulJob::new(UBig::from(3u64), UBig::from(4u64), p)];
        assert_eq!(modelled_mul_cycles(256), 767);
        assert_eq!(
            modelled_batch_cycles(&jobs, 1, 1),
            767 + MODELLED_REFILL_CYCLES
        );
        // A shared-multiplicand run pays one refill; distinct
        // multiplicands pay one each.
        let shared: Vec<MulJob> = (0..4u64)
            .map(|i| MulJob::new(UBig::from(i + 1), UBig::from(9u64), UBig::from(97u64)))
            .collect();
        let cycles_97 = modelled_mul_cycles(7);
        assert_eq!(
            modelled_batch_cycles(&shared, 1, 64),
            4 * cycles_97 + MODELLED_REFILL_CYCLES
        );
    }

    #[test]
    fn reservoir_percentiles_are_sane() {
        let mut r = Reservoir::new(128);
        for v in 1..=100u64 {
            r.push(v);
        }
        assert_eq!(r.percentile(0.0), 1);
        assert_eq!(r.percentile(1.0), 100);
        let p50 = r.percentile(0.5);
        assert!((49..=52).contains(&p50), "p50 {p50}");
        // Overflow the capacity: samples stay bounded, stats plausible.
        let mut r = Reservoir::new(16);
        for v in 0..10_000u64 {
            r.push(v);
        }
        assert_eq!(r.samples.len(), 16);
        assert!(r.percentile(1.0) <= 9_999);
    }
}
