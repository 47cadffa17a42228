//! Deterministic test doubles for the serving stack, shared by this
//! crate's integration tests, the workspace suite, and downstream
//! consumers hardening their own service/cluster wiring.
//!
//! Production code never constructs these; they live in the library
//! (rather than `#[cfg(test)]`) because fault-injection suites in
//! *other* crates — `tests/` at the workspace root, app-level soak
//! tests — need the same doubles, and a feature gate would just be an
//! extra knob for the offline build to mis-set.
//!
//! * [`FailingPrepared`] — a [`PreparedModMul`] that succeeds for the
//!   first `k − 1` calls and then, from the k-th call on, either
//!   returns an error or panics ([`FailureMode`]). The panic flavour
//!   is how a test poisons one tile of a cluster: the executing
//!   worker unwinds, the tile's panic guard fails the batch's
//!   tickets, and the router must route subsequent jobs around the
//!   sick tile.
//! * [`SlowPrepared`] — a correct context that sleeps before every
//!   multiplication: the deterministic way to hold a tile's executor
//!   busy so its bounded queue fills and backpressure/spill paths
//!   trigger on cue.
//!
//! * [`GatedPrepared`] — a correct context that parks every
//!   multiplication on a shared [`Gate`] until the test opens it, and
//!   counts the calls that have entered: the race-free way to hold a
//!   tile busy, because the test waits on state, not on a sleep
//!   outlasting a scheduler.
//!
//! All ship pool constructors ([`failing_pool`], [`slow_pool`],
//! [`gated_pool`]) so a test can stand up a whole
//! [`crate::service::ModSramService`] tile — or one tile of a
//! [`crate::cluster::ServiceCluster`] — over them in one line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use modsram_bigint::UBig;
use modsram_modmul::{ModMulError, PreparedModMul, DEFAULT_LANES, LANE_MIN_PAIRS};

use crate::cluster::{ClusterSubmitError, ServiceCluster};
use crate::dispatch::{ContextPool, MulJob};
use crate::service::{ServiceConfig, Ticket};

/// What a [`FailingPrepared`] does once its fuse runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// Return [`ModMulError::Backend`] — the polite failure; coalesced
    /// neighbours in the same batch still complete via the service's
    /// per-job fallback.
    Error,
    /// Panic on the executing worker thread — the violent failure; the
    /// service's unwind guard must fail the batch's tickets instead of
    /// hanging their waiters.
    Panic,
}

/// A [`PreparedModMul`] that multiplies correctly until its k-th call,
/// then fails — either every call from there on ([`FailingPrepared::new`])
/// or a bounded window of calls after which it recovers for good
/// ([`FailingPrepared::recovering`], the double that exercises poison
/// **probation**: a tile that was sick, got routed around, and is
/// healthy again when the probes come knocking).
///
/// Call counting is global across threads (one shared atomic), so
/// "the k-th call" is well-defined even when dispatch workers race.
pub struct FailingPrepared {
    p: UBig,
    fail_from: u64,
    /// First call (1-based) that succeeds again; `u64::MAX` = never.
    recover_from: u64,
    mode: FailureMode,
    calls: AtomicU64,
    laned_batches: AtomicU64,
}

impl FailingPrepared {
    /// A context for modulus `p` whose calls numbered `fail_from` and
    /// above (1-based) fail with `mode`. `fail_from == 1` fails from
    /// the very first multiplication; `fail_from == 0` is treated as 1.
    pub fn new(p: UBig, fail_from: u64, mode: FailureMode) -> Self {
        FailingPrepared {
            p,
            fail_from: fail_from.max(1),
            recover_from: u64::MAX,
            mode,
            calls: AtomicU64::new(0),
            laned_batches: AtomicU64::new(0),
        }
    }

    /// A context whose calls `fail_from .. fail_from + fail_count`
    /// (1-based) fail with `mode`, and every call after that window
    /// succeeds again — a transient fault, not a terminal one.
    pub fn recovering(p: UBig, fail_from: u64, fail_count: u64, mode: FailureMode) -> Self {
        let fail_from = fail_from.max(1);
        FailingPrepared {
            p,
            fail_from,
            recover_from: fail_from.saturating_add(fail_count),
            mode,
            calls: AtomicU64::new(0),
            laned_batches: AtomicU64::new(0),
        }
    }

    /// Multiplications attempted so far (including failed ones).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Batches that entered through the lane-vectorized seam
    /// ([`PreparedModMul::mod_mul_batch_laned`]) — lets a test assert
    /// the fault actually fired on the laned path.
    pub fn laned_batches(&self) -> u64 {
        self.laned_batches.load(Ordering::Relaxed)
    }
}

impl core::fmt::Debug for FailingPrepared {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "FailingPrepared {{ fail_from: {}, mode: {:?}, calls: {} }}",
            self.fail_from,
            self.mode,
            self.calls()
        )
    }
}

impl PreparedModMul for FailingPrepared {
    fn engine_name(&self) -> &'static str {
        "failing-test-double"
    }

    fn modulus(&self) -> &UBig {
        &self.p
    }

    fn mod_mul(&self, a: &UBig, b: &UBig) -> Result<UBig, ModMulError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if call >= self.fail_from && call < self.recover_from {
            match self.mode {
                FailureMode::Error => {
                    return Err(ModMulError::Backend {
                        reason: format!("injected failure on call {call}"),
                    })
                }
                FailureMode::Panic => panic!("injected panic on call {call}"),
            }
        }
        Ok(&(a * b) % &self.p)
    }

    fn mod_mul_batch(&self, pairs: &[(UBig, UBig)]) -> Result<Vec<UBig>, ModMulError> {
        // Mirror the real engines' dispatch: batches of
        // `LANE_MIN_PAIRS` and up take the laned seam, shorter ones the
        // scalar seam — so fault-injection suites exercise the same
        // path production traffic does.
        if pairs.len() >= LANE_MIN_PAIRS {
            self.mod_mul_batch_laned(pairs, DEFAULT_LANES)
        } else {
            self.mod_mul_batch_scalar(pairs)
        }
    }

    fn mod_mul_batch_scalar(&self, pairs: &[(UBig, UBig)]) -> Result<Vec<UBig>, ModMulError> {
        pairs.iter().map(|(a, b)| self.mod_mul(a, b)).collect()
    }

    fn mod_mul_batch_laned(
        &self,
        pairs: &[(UBig, UBig)],
        _lanes: usize,
    ) -> Result<Vec<UBig>, ModMulError> {
        self.laned_batches.fetch_add(1, Ordering::Relaxed);
        // Per-pair call counting is unchanged on the laned path, so
        // "the k-th call fails" means the same thing on every seam.
        pairs.iter().map(|(a, b)| self.mod_mul(a, b)).collect()
    }
}

/// A correct [`PreparedModMul`] that sleeps for a fixed delay before
/// every multiplication — the deterministic executor stall that forces
/// bounded queues to fill. On the lane-vectorized seam the stall is
/// charged once per lane *group* (a laned kernel advances `lanes`
/// multiplications per limb pass), so slow-tile tests see the same
/// relative laned-over-scalar shape real engines have.
pub struct SlowPrepared {
    p: UBig,
    delay: Duration,
    sleeps: AtomicU64,
}

impl SlowPrepared {
    /// A context for `p` that sleeps `delay` per call.
    pub fn new(p: UBig, delay: Duration) -> Self {
        SlowPrepared {
            p,
            delay,
            sleeps: AtomicU64::new(0),
        }
    }

    /// Stalls taken so far — per multiplication on the per-call and
    /// scalar seams, per lane group on the laned seam.
    pub fn sleeps(&self) -> u64 {
        self.sleeps.load(Ordering::Relaxed)
    }
}

impl core::fmt::Debug for SlowPrepared {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SlowPrepared {{ delay: {:?} }}", self.delay)
    }
}

impl PreparedModMul for SlowPrepared {
    fn engine_name(&self) -> &'static str {
        "slow-test-double"
    }

    fn modulus(&self) -> &UBig {
        &self.p
    }

    fn mod_mul(&self, a: &UBig, b: &UBig) -> Result<UBig, ModMulError> {
        self.sleeps.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.delay);
        Ok(&(a * b) % &self.p)
    }

    fn mod_mul_batch(&self, pairs: &[(UBig, UBig)]) -> Result<Vec<UBig>, ModMulError> {
        if pairs.len() >= LANE_MIN_PAIRS {
            self.mod_mul_batch_laned(pairs, DEFAULT_LANES)
        } else {
            self.mod_mul_batch_scalar(pairs)
        }
    }

    fn mod_mul_batch_scalar(&self, pairs: &[(UBig, UBig)]) -> Result<Vec<UBig>, ModMulError> {
        pairs.iter().map(|(a, b)| self.mod_mul(a, b)).collect()
    }

    fn mod_mul_batch_laned(
        &self,
        pairs: &[(UBig, UBig)],
        lanes: usize,
    ) -> Result<Vec<UBig>, ModMulError> {
        let lanes = lanes.max(1);
        let mut out = Vec::with_capacity(pairs.len());
        for group in pairs.chunks(lanes) {
            self.sleeps.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.delay);
            for (a, b) in group {
                out.push(&(a * b) % &self.p);
            }
        }
        Ok(out)
    }
}

/// A latch shared by [`GatedPrepared`] contexts: closed until
/// [`Gate::open`] (and again after [`Gate::close`]), counting every
/// multiplication that reaches it.
#[derive(Debug, Default)]
pub struct Gate {
    /// `(open, entered)`.
    state: Mutex<(bool, u64)>,
    wake: Condvar,
}

impl Gate {
    /// A closed gate, shareable between a test and its pools.
    pub fn new() -> Arc<Self> {
        Arc::new(Gate::default())
    }

    /// Releases every parked multiplication and lets later ones pass.
    pub fn open(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).0 = true;
        self.wake.notify_all();
    }

    /// Shuts the gate again, so a test can hold its tiles round after
    /// round: later multiplications park until the next
    /// [`Gate::open`]. The entered count keeps counting.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).0 = false;
    }

    /// Multiplications that have reached the gate so far.
    pub fn entered(&self) -> u64 {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).1
    }

    /// Blocks until at least `n` multiplications have reached the gate.
    pub fn wait_entered(&self, n: u64) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while state.1 < n {
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.1 += 1;
        self.wake.notify_all();
        while !state.0 {
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A correct [`PreparedModMul`] whose every multiplication (on every
/// batch seam) waits at its [`Gate`] until the gate opens.
#[derive(Debug)]
pub struct GatedPrepared {
    p: UBig,
    gate: Arc<Gate>,
}

impl GatedPrepared {
    /// A context for `p` held by `gate`.
    pub fn new(p: UBig, gate: Arc<Gate>) -> Self {
        GatedPrepared { p, gate }
    }
}

impl PreparedModMul for GatedPrepared {
    fn engine_name(&self) -> &'static str {
        "gated-test-double"
    }

    fn modulus(&self) -> &UBig {
        &self.p
    }

    fn mod_mul(&self, a: &UBig, b: &UBig) -> Result<UBig, ModMulError> {
        self.gate.pass();
        Ok(&(a * b) % &self.p)
    }
}

/// A [`ContextPool`] whose every prepared context is a
/// [`GatedPrepared`] held by `gate`.
pub fn gated_pool(gate: &Arc<Gate>) -> ContextPool {
    let gate = Arc::clone(gate);
    ContextPool::new(move |p| {
        Ok(Box::new(GatedPrepared::new(p.clone(), Arc::clone(&gate))) as Box<dyn PreparedModMul>)
    })
}

/// How long [`saturate_gated_home`] waits for a gate-held tile to take
/// one more job before it declares the fixed point unreachable, and
/// [`wait_for_submitted`] waits for one more accepted submission.
pub const SATURATE_STALL_LIMIT: Duration = Duration::from_secs(30);

/// Fills `p`'s home tile of a cluster built over [`gated_pool`]s with
/// tiles shaped like `tile` (`max_batch: 1`) to its fixed point while
/// the gate is shut: the tile's one executor holds the job it took,
/// and the queue its whole capacity. Nothing moves until the gate
/// opens, so every later submission to that tile is refused (or
/// parks). Returns the accepted tickets.
///
/// # Panics
///
/// Panics if `tile.max_batch != 1` (partial batches have no fixed
/// count), if the cluster refuses for any reason but saturation, if the
/// tile accepts nothing for [`SATURATE_STALL_LIMIT`] before reaching the
/// fixed point (the count over-estimates what the tile holds), or if it
/// still accepts once full (a non-`Strict` spill policy).
pub fn saturate_gated_home(
    cluster: &ServiceCluster,
    p: &UBig,
    tile: &ServiceConfig,
) -> Vec<Ticket> {
    assert_eq!(tile.max_batch, 1, "one job per batch");
    let fixed_point = 1 + tile.queue_capacity;
    let job = |i: usize| MulJob::new(UBig::from(i as u64 + 2), UBig::from(3u64), p.clone());
    let mut accepted = Vec::new();
    let mut last_accept = Instant::now();
    while accepted.len() < fixed_point {
        match cluster.try_submit(job(accepted.len())) {
            Ok(ticket) => {
                accepted.push(ticket);
                last_accept = Instant::now();
            }
            // An executor has not taken its job from the queue yet.
            Err(ClusterSubmitError::AllTilesSaturated { .. }) => {
                assert!(
                    last_accept.elapsed() < SATURATE_STALL_LIMIT,
                    "home tile stalled at {} of {fixed_point} jobs",
                    accepted.len()
                );
                std::thread::yield_now();
            }
            Err(e) => panic!(
                "home tile refused after {} of {fixed_point} jobs: {e}",
                accepted.len()
            ),
        }
    }
    assert!(
        matches!(
            cluster.try_submit(job(fixed_point)),
            Err(ClusterSubmitError::AllTilesSaturated { .. })
        ),
        "the home tile is saturated"
    );
    accepted
}

/// Spins until `cluster` has accepted more than `jobs` submissions, so
/// a soak acts on a stream with real in-flight depth instead of after a
/// guessed sleep.
///
/// # Panics
///
/// Panics if the accepted count stops growing for
/// [`SATURATE_STALL_LIMIT`] before it passes `jobs`.
pub fn wait_for_submitted(cluster: &ServiceCluster, jobs: u64) {
    let (mut seen, mut last_progress) = (0, Instant::now());
    while seen <= jobs {
        let submitted = cluster.stats().submitted;
        if submitted > seen {
            (seen, last_progress) = (submitted, Instant::now());
        }
        assert!(
            last_progress.elapsed() < SATURATE_STALL_LIMIT,
            "submissions stalled at {seen} of {jobs}"
        );
        std::thread::yield_now();
    }
}

/// A [`ContextPool`] whose every prepared context is a
/// [`FailingPrepared`] with the given fuse — each distinct modulus gets
/// its own call counter.
pub fn failing_pool(fail_from: u64, mode: FailureMode) -> ContextPool {
    ContextPool::new(move |p| {
        Ok(Box::new(FailingPrepared::new(p.clone(), fail_from, mode)) as Box<dyn PreparedModMul>)
    })
}

/// A [`ContextPool`] whose every prepared context is a *recovering*
/// [`FailingPrepared`]: calls `fail_from .. fail_from + fail_count`
/// fail with `mode`, later calls succeed — each distinct modulus gets
/// its own call counter. The pool for probation tests: poison a tile,
/// let the fuse burn out, and probe it back into the routable set.
pub fn recovering_pool(fail_from: u64, fail_count: u64, mode: FailureMode) -> ContextPool {
    ContextPool::new(move |p| {
        Ok(Box::new(FailingPrepared::recovering(
            p.clone(),
            fail_from,
            fail_count,
            mode,
        )) as Box<dyn PreparedModMul>)
    })
}

/// A [`ContextPool`] whose every prepared context is a
/// [`SlowPrepared`] with the given per-call delay.
pub fn slow_pool(delay: Duration) -> ContextPool {
    ContextPool::new(move |p| {
        Ok(Box::new(SlowPrepared::new(p.clone(), delay)) as Box<dyn PreparedModMul>)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failing_prepared_counts_down_then_errors() {
        let ctx = FailingPrepared::new(UBig::from(97u64), 3, FailureMode::Error);
        let a = UBig::from(5u64);
        let b = UBig::from(6u64);
        assert_eq!(ctx.mod_mul(&a, &b).unwrap(), UBig::from(30u64));
        assert_eq!(ctx.mod_mul(&a, &b).unwrap(), UBig::from(30u64));
        assert!(matches!(
            ctx.mod_mul(&a, &b),
            Err(ModMulError::Backend { .. })
        ));
        assert!(matches!(
            ctx.mod_mul(&a, &b),
            Err(ModMulError::Backend { .. })
        ));
        assert_eq!(ctx.calls(), 4);
    }

    #[test]
    fn failing_prepared_panics_on_cue() {
        let ctx = FailingPrepared::new(UBig::from(97u64), 1, FailureMode::Panic);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = ctx.mod_mul(&UBig::from(2u64), &UBig::from(3u64));
        }));
        assert!(outcome.is_err());
    }

    #[test]
    fn recovering_prepared_heals_after_its_window() {
        let ctx = FailingPrepared::recovering(UBig::from(97u64), 2, 2, FailureMode::Error);
        let a = UBig::from(5u64);
        let b = UBig::from(6u64);
        assert_eq!(ctx.mod_mul(&a, &b).unwrap(), UBig::from(30u64));
        assert!(ctx.mod_mul(&a, &b).is_err(), "call 2 inside the window");
        assert!(ctx.mod_mul(&a, &b).is_err(), "call 3 inside the window");
        assert_eq!(
            ctx.mod_mul(&a, &b).unwrap(),
            UBig::from(30u64),
            "call 4 is past the window: recovered for good"
        );
        assert_eq!(ctx.mod_mul(&a, &b).unwrap(), UBig::from(30u64));
    }

    #[test]
    fn slow_prepared_is_correct() {
        let ctx = SlowPrepared::new(UBig::from(101u64), Duration::from_millis(1));
        assert_eq!(
            ctx.mod_mul(&UBig::from(20u64), &UBig::from(30u64)).unwrap(),
            UBig::from(600u64 % 101)
        );
    }

    #[test]
    fn gated_prepared_holds_every_call_until_the_gate_opens() {
        let gate = Gate::new();
        let ctx = Arc::new(GatedPrepared::new(UBig::from(101u64), Arc::clone(&gate)));
        let caller = std::thread::spawn({
            let ctx = Arc::clone(&ctx);
            move || ctx.mod_mul_batch(&pairs(3))
        });
        gate.wait_entered(1);
        assert_eq!(gate.entered(), 1, "the batch parks on its first call");
        gate.open();
        let out = caller.join().unwrap().unwrap();
        let p = UBig::from(101u64);
        let expect: Vec<UBig> = pairs(3).iter().map(|(a, b)| &(a * b) % &p).collect();
        assert_eq!(out, expect);
        assert_eq!(gate.entered(), 3, "an open gate still counts");
    }

    fn pairs(n: u64) -> Vec<(UBig, UBig)> {
        (0..n)
            .map(|i| (UBig::from(i + 2), UBig::from(2 * i + 3)))
            .collect()
    }

    #[test]
    fn failing_batch_dispatches_laned_and_fires_the_fuse_there() {
        let ctx = FailingPrepared::new(UBig::from(97u64), 6, FailureMode::Error);
        let batch = pairs(LANE_MIN_PAIRS as u64 + 4);
        assert!(ctx.mod_mul_batch(&batch).is_err(), "fuse is inside batch");
        assert_eq!(
            ctx.laned_batches(),
            1,
            "long batch must take the laned seam"
        );
        // Short batches stay scalar.
        let short = FailingPrepared::new(UBig::from(97u64), u64::MAX, FailureMode::Error);
        short
            .mod_mul_batch(&pairs(LANE_MIN_PAIRS as u64 - 1))
            .unwrap();
        assert_eq!(short.laned_batches(), 0);
    }

    #[test]
    fn slow_batch_amortizes_the_stall_per_lane_group() {
        let p = UBig::from(101u64);
        let ctx = SlowPrepared::new(p.clone(), Duration::from_micros(10));
        let batch = pairs(16);
        let out = ctx.mod_mul_batch_laned(&batch, 8).unwrap();
        let expect: Vec<UBig> = batch.iter().map(|(a, b)| &(a * b) % &p).collect();
        assert_eq!(out, expect, "laned seam must stay correct");
        assert_eq!(ctx.sleeps(), 2, "one stall per group of 8, not per pair");
        ctx.mod_mul_batch_scalar(&batch[..3]).unwrap();
        assert_eq!(ctx.sleeps(), 5, "scalar seam stalls per pair");
    }
}
