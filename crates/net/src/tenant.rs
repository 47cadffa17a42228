//! Per-tenant identity and admission limits.
//!
//! A [`TenantRegistry`] maps tenant names to API keys and limits.
//! Limits are enforced **per tenant, across all of that tenant's
//! connections**: one [`TenantCell`] is shared by every connection
//! that authenticated as the tenant, so the in-flight count and the
//! token bucket see the tenant's aggregate traffic, not one socket's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Admission limits for one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantLimits {
    /// Jobs the tenant may have in flight (accepted, response not yet
    /// delivered) across all its connections.
    pub max_inflight: u32,
    /// Sustained submissions per second, `0.0` for unlimited. Enforced
    /// by a token bucket refilled continuously.
    pub rate_per_sec: f64,
    /// Bucket depth: how far above the sustained rate a burst may go.
    pub burst: u32,
}

impl Default for TenantLimits {
    fn default() -> Self {
        TenantLimits {
            max_inflight: 4096,
            rate_per_sec: 0.0,
            burst: 256,
        }
    }
}

/// Why a tenant-level admission check refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantRefusal {
    /// Token bucket empty; a token accrues in roughly `retry_after`,
    /// clamped to [`MAX_RETRY_AFTER`].
    RateLimited { retry_after: Duration },
    /// At [`TenantLimits::max_inflight`]; capacity frees when
    /// responses are delivered. When a tenant is at both limits this
    /// refusal wins: retrying on a timer is pointless while every
    /// slot is occupied.
    InflightFull,
}

/// Ceiling on [`TenantRefusal::RateLimited`]'s `retry_after`. A
/// pathologically tiny [`TenantLimits::rate_per_sec`] (down to
/// `f64::MIN_POSITIVE`) makes the deficit division produce hours,
/// infinities, or NaN — all of which `Duration::from_secs_f64` would
/// panic on or faithfully report as a useless multi-year backoff.
/// Clamping here keeps the advice honest: "not before an hour" is as
/// much as a retry hint can usefully say.
pub const MAX_RETRY_AFTER: Duration = Duration::from_secs(3600);

struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

/// One authenticated tenant's shared admission state.
pub struct TenantCell {
    name: String,
    key: u64,
    limits: TenantLimits,
    inflight: AtomicU64,
    bucket: Mutex<Bucket>,
}

// The API key stays out of Debug output on purpose.
impl std::fmt::Debug for TenantCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantCell")
            .field("name", &self.name)
            .field("limits", &self.limits)
            .field("inflight", &self.inflight())
            .finish()
    }
}

impl TenantCell {
    fn new(name: String, key: u64, limits: TenantLimits) -> Self {
        TenantCell {
            name,
            key,
            limits,
            inflight: AtomicU64::new(0),
            bucket: Mutex::new(Bucket {
                tokens: limits.burst.max(1) as f64,
                last_refill: Instant::now(),
            }),
        }
    }

    /// The tenant's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's limits as registered.
    pub fn limits(&self) -> TenantLimits {
        self.limits
    }

    /// Jobs currently in flight for this tenant.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Claims one admission slot: takes an in-flight slot, then
    /// charges the token bucket. On `Ok(())` the caller **must** pair
    /// the claim with [`TenantCell::end_job`] once the job's terminal
    /// response is delivered.
    ///
    /// The in-flight cap is checked first so a refusal at the cap
    /// never touches the bucket — there is no token refund path, and
    /// therefore no refund/refill race to under-admit a bursty
    /// tenant. A rate refusal releases the slot it just claimed;
    /// releasing an `AcqRel` increment is exact, unlike refunding a
    /// token into a bucket a concurrent refill may have topped up.
    pub fn begin_job(&self) -> Result<(), TenantRefusal> {
        self.begin_job_at(Instant::now())
    }

    /// [`TenantCell::begin_job`] with the bucket refilled up to `now`,
    /// so tests can advance the clock instead of sleeping.
    pub(crate) fn begin_job_at(&self, now: Instant) -> Result<(), TenantRefusal> {
        // The CAS loop (rather than optimistic fetch_add + rollback)
        // means `inflight` can never transiently exceed the cap:
        // a reader always sees `inflight() <= max_inflight`, and a
        // peer arriving at exactly the cap is never refused by a
        // doomed increment that was about to roll back.
        let cap = u64::from(self.limits.max_inflight);
        let mut seen = self.inflight.load(Ordering::Relaxed);
        loop {
            if seen >= cap {
                return Err(TenantRefusal::InflightFull);
            }
            match self.inflight.compare_exchange_weak(
                seen,
                seen + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
        if self.limits.rate_per_sec > 0.0 {
            let mut bucket = self.bucket.lock().unwrap_or_else(PoisonError::into_inner);
            let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
            bucket.tokens = (bucket.tokens + elapsed * self.limits.rate_per_sec)
                .min(self.limits.burst.max(1) as f64);
            bucket.last_refill = now;
            if bucket.tokens < 1.0 {
                let deficit = 1.0 - bucket.tokens;
                drop(bucket);
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                // `deficit / rate` overflows Duration's range (or
                // divides to inf/NaN) for tiny rates; clamp rather
                // than panic.
                let secs = deficit / self.limits.rate_per_sec;
                let retry_after = if secs.is_finite() && secs < MAX_RETRY_AFTER.as_secs_f64() {
                    Duration::from_secs_f64(secs.max(0.001))
                } else {
                    MAX_RETRY_AFTER
                };
                return Err(TenantRefusal::RateLimited { retry_after });
            }
            bucket.tokens -= 1.0;
        }
        Ok(())
    }

    /// Releases the in-flight slot claimed by [`TenantCell::begin_job`].
    pub fn end_job(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Why a `Hello` was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// No tenant registered under the presented name.
    UnknownTenant,
    /// The name exists but the key does not match.
    BadKey,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::UnknownTenant => write!(f, "unknown tenant"),
            AuthError::BadKey => write!(f, "bad API key"),
        }
    }
}

/// The tenant directory a [`crate::server::WireServer`] authenticates
/// against. Registration is allowed while the server runs.
#[derive(Default)]
pub struct TenantRegistry {
    tenants: RwLock<HashMap<String, Arc<TenantCell>>>,
}

impl TenantRegistry {
    /// An empty registry (every `Hello` is refused until tenants are
    /// registered).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a tenant under `name` with API `key`.
    pub fn register(&self, name: &str, key: u64, limits: TenantLimits) -> Arc<TenantCell> {
        let cell = Arc::new(TenantCell::new(name.to_string(), key, limits));
        self.tenants
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), Arc::clone(&cell));
        cell
    }

    /// Authenticates a `Hello`; constant shape regardless of which
    /// check fails so the reply doesn't oracle tenant existence any
    /// more than its typed variant admits.
    pub fn authenticate(&self, name: &str, key: u64) -> Result<Arc<TenantCell>, AuthError> {
        let tenants = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        let cell = tenants.get(name).ok_or(AuthError::UnknownTenant)?;
        if cell.key != key {
            return Err(AuthError::BadKey);
        }
        Ok(Arc::clone(cell))
    }

    /// Registered tenant names, sorted (for stats rendering).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authenticate_checks_name_and_key() {
        let registry = TenantRegistry::new();
        registry.register("alice", 42, TenantLimits::default());
        assert!(registry.authenticate("alice", 42).is_ok());
        assert_eq!(
            registry.authenticate("alice", 41).unwrap_err(),
            AuthError::BadKey
        );
        assert_eq!(
            registry.authenticate("bob", 42).unwrap_err(),
            AuthError::UnknownTenant
        );
    }

    #[test]
    fn inflight_cap_is_claimed_and_released() {
        let registry = TenantRegistry::new();
        let cell = registry.register(
            "t",
            1,
            TenantLimits {
                max_inflight: 2,
                ..Default::default()
            },
        );
        cell.begin_job().unwrap();
        cell.begin_job().unwrap();
        assert_eq!(cell.begin_job().unwrap_err(), TenantRefusal::InflightFull);
        cell.end_job();
        cell.begin_job().unwrap();
        assert_eq!(cell.inflight(), 2);
    }

    #[test]
    fn token_bucket_limits_sustained_rate() {
        let registry = TenantRegistry::new();
        let cell = registry.register(
            "t",
            1,
            TenantLimits {
                max_inflight: 100,
                rate_per_sec: 5.0,
                burst: 2,
            },
        );
        let now = Instant::now();
        cell.begin_job_at(now).unwrap();
        cell.begin_job_at(now).unwrap();
        let refusal = cell.begin_job_at(now).unwrap_err();
        let TenantRefusal::RateLimited { retry_after } = refusal else {
            panic!("expected rate refusal, got {refusal:?}");
        };
        assert!(retry_after > Duration::ZERO);
        assert!(retry_after <= Duration::from_millis(250));
        // Tokens accrue with time: after a full token's worth of wait
        // the tenant is admitted again.
        cell.begin_job_at(now + Duration::from_millis(220)).unwrap();
    }

    #[test]
    fn refused_inflight_does_not_eat_a_token() {
        let registry = TenantRegistry::new();
        let cell = registry.register(
            "t",
            1,
            TenantLimits {
                max_inflight: 1,
                rate_per_sec: 1000.0,
                burst: 2,
            },
        );
        cell.begin_job().unwrap();
        assert_eq!(cell.begin_job().unwrap_err(), TenantRefusal::InflightFull);
        cell.end_job();
        // The inflight refusal never touched the bucket, so this
        // immediate retry still has a token available.
        cell.begin_job().unwrap();
    }

    #[test]
    fn at_both_limits_the_inflight_refusal_wins_and_costs_nothing() {
        // Regression: the old rate-first ordering charged (then
        // refunded) a token for a job that was doomed at the in-flight
        // cap, and reported `RateLimited` — telling the client to back
        // off on a timer when the real wait is for a response slot.
        let registry = TenantRegistry::new();
        let cell = registry.register(
            "t",
            1,
            TenantLimits {
                max_inflight: 1,
                rate_per_sec: 5.0,
                burst: 1,
            },
        );
        // Takes the only slot AND the only token: both limits are now
        // simultaneously exhausted.
        cell.begin_job().unwrap();
        assert_eq!(cell.begin_job().unwrap_err(), TenantRefusal::InflightFull);
        assert_eq!(cell.inflight(), 1, "a refusal holds no slot");
    }

    #[test]
    fn contended_begin_jobs_never_overshoot_the_cap() {
        // Regression for the optimistic fetch_add/fetch_sub window:
        // with the cap fully held, hammering `begin_job` from several
        // threads must never let a reader observe `inflight()` above
        // `max_inflight` (the old rollback left a transient overshoot
        // that also refused a peer arriving at exactly the cap).
        let registry = TenantRegistry::new();
        let cell = registry.register(
            "t",
            1,
            TenantLimits {
                max_inflight: 2,
                rate_per_sec: 0.0,
                burst: 256,
            },
        );
        cell.begin_job().unwrap();
        cell.begin_job().unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..20_000 {
                        assert_eq!(cell.begin_job().unwrap_err(), TenantRefusal::InflightFull);
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..100_000 {
                    let seen = cell.inflight();
                    assert!(seen <= 2, "inflight overshot the cap: {seen}");
                }
            });
        });
        assert_eq!(cell.inflight(), 2);
    }

    #[test]
    fn tiny_rates_clamp_retry_after_instead_of_panicking() {
        // Regression: `deficit / f64::MIN_POSITIVE` is ~4.5e307
        // seconds, far past `Duration::from_secs_f64`'s panic
        // threshold. The refusal must clamp to MAX_RETRY_AFTER and
        // release the in-flight slot it claimed.
        let registry = TenantRegistry::new();
        let cell = registry.register(
            "t",
            1,
            TenantLimits {
                max_inflight: 4,
                rate_per_sec: f64::MIN_POSITIVE,
                burst: 1,
            },
        );
        // The bucket starts at burst (one token); eat it.
        cell.begin_job().unwrap();
        let refusal = cell.begin_job().unwrap_err();
        let TenantRefusal::RateLimited { retry_after } = refusal else {
            panic!("expected rate refusal, got {refusal:?}");
        };
        assert_eq!(retry_after, MAX_RETRY_AFTER);
        assert_eq!(cell.inflight(), 1, "the rate refusal released its slot");
    }
}
