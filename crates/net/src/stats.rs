//! Connection-level metering: per-tenant frame/byte/outcome counters
//! and request-to-response latency percentiles, mirroring the
//! `ServiceStats`/`ClusterStats` shape one layer down so perfbench's
//! net rung lines up with the service and cluster rungs below it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

use modsram_core::Reservoir;

use crate::frame::RetryReason;

/// Mutable counters for one tenant, updated by connection threads.
#[derive(Default)]
struct TenantCounters {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
}

/// Live metering shared by every connection thread of one server.
pub(crate) struct NetMeter {
    connections_accepted: AtomicU64,
    connections_closed: AtomicU64,
    auth_failures: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    retry_by_reason: Mutex<HashMap<&'static str, u64>>,
    latency: Mutex<Reservoir>,
    tenants: RwLock<HashMap<String, TenantCounters>>,
}

impl NetMeter {
    pub(crate) fn new() -> Self {
        NetMeter {
            connections_accepted: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            auth_failures: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            retry_by_reason: Mutex::new(HashMap::new()),
            latency: Mutex::new(Reservoir::new(4096)),
            tenants: RwLock::new(HashMap::new()),
        }
    }

    fn with_tenant(&self, tenant: &str, f: impl Fn(&TenantCounters)) {
        {
            let tenants = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(counters) = tenants.get(tenant) {
                f(counters);
                return;
            }
        }
        let mut tenants = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        f(tenants.entry(tenant.to_string()).or_default());
    }

    pub(crate) fn connection_accepted(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn auth_failure(&self) {
        self.auth_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn frame_in(&self, tenant: Option<&str>, bytes: usize) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
        if let Some(t) = tenant {
            self.with_tenant(t, |c| {
                c.frames_in.fetch_add(1, Ordering::Relaxed);
                c.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
            });
        }
    }

    pub(crate) fn frame_out(&self, tenant: Option<&str>, bytes: usize) {
        self.frames_out_batch(tenant, 1, bytes);
    }

    /// Meters a coalesced write of `count` frames totalling `bytes` in
    /// one pass — the delivery path sends whole completion bursts, and
    /// per-frame metering would reintroduce a lock round per job.
    pub(crate) fn frames_out_batch(&self, tenant: Option<&str>, count: u64, bytes: usize) {
        self.frames_out.fetch_add(count, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
        if let Some(t) = tenant {
            self.with_tenant(t, |c| {
                c.frames_out.fetch_add(count, Ordering::Relaxed);
                c.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
            });
        }
    }

    pub(crate) fn job_accepted(&self, tenant: &str) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.with_tenant(tenant, |c| {
            c.accepted.fetch_add(1, Ordering::Relaxed);
        });
    }

    pub(crate) fn job_rejected(&self, tenant: &str, reason: RetryReason) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.with_tenant(tenant, |c| {
            c.rejected.fetch_add(1, Ordering::Relaxed);
        });
        *self
            .retry_by_reason
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(reason.label())
            .or_insert(0) += 1;
    }

    /// A job refused terminally (dead backend) before acceptance: it
    /// counts as failed but never entered the latency distribution.
    pub(crate) fn job_dead(&self, tenant: &str) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.with_tenant(tenant, |c| {
            c.failed.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Meters a whole delivery burst in one pass: one tenant lookup
    /// and one reservoir lock however many jobs the burst retired.
    pub(crate) fn jobs_done_batch(
        &self,
        tenant: &str,
        completed: u64,
        failed: u64,
        latencies_ns: &[u64],
    ) {
        if completed + failed == 0 {
            return;
        }
        self.completed.fetch_add(completed, Ordering::Relaxed);
        self.failed.fetch_add(failed, Ordering::Relaxed);
        self.with_tenant(tenant, |c| {
            c.completed.fetch_add(completed, Ordering::Relaxed);
            c.failed.fetch_add(failed, Ordering::Relaxed);
        });
        let mut reservoir = self.latency.lock().unwrap_or_else(PoisonError::into_inner);
        for &latency_ns in latencies_ns {
            reservoir.push(latency_ns);
        }
    }

    pub(crate) fn snapshot(&self) -> NetStats {
        let (p50, p99) = {
            let latency = self.latency.lock().unwrap_or_else(PoisonError::into_inner);
            (latency.percentile(0.50), latency.percentile(0.99))
        };
        let mut retry_after: Vec<(String, u64)> = self
            .retry_by_reason
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        retry_after.sort();
        let mut tenants: Vec<TenantNetStats> = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, c)| TenantNetStats {
                tenant: name.clone(),
                frames_in: c.frames_in.load(Ordering::Relaxed),
                frames_out: c.frames_out.load(Ordering::Relaxed),
                bytes_in: c.bytes_in.load(Ordering::Relaxed),
                bytes_out: c.bytes_out.load(Ordering::Relaxed),
                accepted: c.accepted.load(Ordering::Relaxed),
                rejected: c.rejected.load(Ordering::Relaxed),
                completed: c.completed.load(Ordering::Relaxed),
                failed: c.failed.load(Ordering::Relaxed),
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        NetStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            auth_failures: self.auth_failures.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            wire_p50_ns: p50,
            wire_p99_ns: p99,
            retry_after,
            tenants,
        }
    }
}

/// One tenant's share of [`NetStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantNetStats {
    /// Tenant name as registered.
    pub tenant: String,
    /// Frames received from this tenant's connections.
    pub frames_in: u64,
    /// Frames sent to this tenant's connections.
    pub frames_out: u64,
    /// Wire bytes received from this tenant.
    pub bytes_in: u64,
    /// Wire bytes sent to this tenant.
    pub bytes_out: u64,
    /// Jobs admitted into the serving stack.
    pub accepted: u64,
    /// Jobs refused with a retry-after frame.
    pub rejected: u64,
    /// Terminal successes delivered.
    pub completed: u64,
    /// Terminal failures delivered.
    pub failed: u64,
}

/// A point-in-time snapshot of a server's connection-level metering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Connections the acceptor admitted.
    pub connections_accepted: u64,
    /// Connections fully torn down.
    pub connections_closed: u64,
    /// `Hello` frames refused (unknown tenant / bad key).
    pub auth_failures: u64,
    /// Total frames received.
    pub frames_in: u64,
    /// Total frames sent.
    pub frames_out: u64,
    /// Total bytes received.
    pub bytes_in: u64,
    /// Total bytes sent.
    pub bytes_out: u64,
    /// Jobs admitted into the serving stack.
    pub accepted: u64,
    /// Jobs refused with a retry-after frame.
    pub rejected: u64,
    /// Terminal successes delivered back over the wire.
    pub completed: u64,
    /// Terminal failures delivered back over the wire.
    pub failed: u64,
    /// p50 request-to-response latency (first byte in to terminal
    /// frame queued), reservoir-sampled, nanoseconds.
    pub wire_p50_ns: u64,
    /// p99 of the same distribution.
    pub wire_p99_ns: u64,
    /// Retry-after frames sent, by reason label, sorted by label.
    pub retry_after: Vec<(String, u64)>,
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<TenantNetStats>,
}

impl NetStats {
    /// Retry-after count for one reason label, `0` if never sent.
    pub fn retries(&self, label: &str) -> u64 {
        self.retry_after
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_aggregates_per_tenant_and_reasons() {
        let meter = NetMeter::new();
        meter.connection_accepted();
        meter.frame_in(Some("a"), 100);
        meter.frame_in(Some("b"), 50);
        meter.frame_out(Some("a"), 30);
        meter.job_accepted("a");
        meter.jobs_done_batch("a", 1, 0, &[1_000]);
        meter.job_rejected("b", RetryReason::QueueFull);
        meter.job_rejected("b", RetryReason::Saturated { tried: 2 });
        meter.job_rejected("b", RetryReason::QueueFull);
        meter.connection_closed();
        let stats = meter.snapshot();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.connections_closed, 1);
        assert_eq!(stats.bytes_in, 150);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.retries("queue_full"), 2);
        assert_eq!(stats.retries("saturated"), 1);
        assert_eq!(stats.retries("draining"), 0);
        assert_eq!(stats.tenants.len(), 2);
        let a = &stats.tenants[0];
        assert_eq!((a.tenant.as_str(), a.accepted, a.bytes_in), ("a", 1, 100));
        let b = &stats.tenants[1];
        assert_eq!((b.tenant.as_str(), b.rejected, b.bytes_in), ("b", 3, 50));
    }

    #[test]
    fn latency_percentiles_come_from_the_reservoir() {
        let meter = NetMeter::new();
        let latencies: Vec<u64> = (1..=100u64).map(|i| i * 1000).collect();
        meter.jobs_done_batch("t", 100, 0, &latencies);
        let stats = meter.snapshot();
        assert!(stats.wire_p50_ns >= 40_000 && stats.wire_p50_ns <= 60_000);
        assert!(stats.wire_p99_ns >= 90_000 && stats.wire_p99_ns <= 100_000);
    }
}
