//! Closed-loop traffic shared by the loopback and wire-timing tests:
//! client `c` authenticates as tenant `c % 2`, whose modulus is
//! `p - 2 * (c % 2)`.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use modsram_bigint::{ubig_below, UBig};
use modsram_core::cluster::{ClusterConfig, ServiceCluster};
use modsram_core::dispatch::MulJob;
use modsram_net::{
    NetBackend, RetryReason, TenantLimits, TenantRegistry, WireClient, WireConfig, WireResponse,
    WireServer,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A 2-tile `engine` cluster, 2 lanes per tile, default spill policy.
pub fn cluster(engine: &str) -> ServiceCluster {
    let mut config = ClusterConfig::default();
    config.service.workers = 2;
    config.service.queue_capacity = 8192;
    config.service.max_batch = 256;
    ServiceCluster::for_engine_name(engine, 2, config).unwrap()
}

/// A loopback server in front of `cluster` that admits both tenants.
pub fn serve(cluster: &ServiceCluster) -> WireServer {
    let registry = Arc::new(TenantRegistry::new());
    for t in 0..2 {
        registry.register(&format!("tenant{t}"), 0xA11CE + t, TenantLimits::default());
    }
    let backend = NetBackend::Cluster(cluster.handle());
    WireServer::bind("127.0.0.1:0", backend, registry, WireConfig::default()).unwrap()
}

/// Client `c`'s connection.
pub fn connect(addr: SocketAddr, c: usize) -> WireClient {
    let t = (c % 2) as u64;
    WireClient::connect(addr, &format!("tenant{t}"), 0xA11CE + t).unwrap()
}

/// Each client's jobs, in multiplicand runs of 8, each with its
/// big-integer oracle.
pub fn job_lists(p: &UBig, clients: usize, jobs: usize, seed: u64) -> Vec<Vec<(MulJob, UBig)>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..clients)
        .map(|c| {
            let p = p - &UBig::from(2 * (c % 2) as u64);
            let mut b = UBig::zero();
            (0..jobs)
                .map(|i| {
                    if i % 8 == 0 {
                        b = ubig_below(&mut rng, &p);
                    }
                    let a = ubig_below(&mut rng, &p);
                    let product = &(&a * &b) % &p;
                    (MulJob::new(a, b.clone(), p.clone()), product)
                })
                .collect()
        })
        .collect()
}

/// Drives one closed loop over the wire: keeps `window` ids
/// outstanding, checks every `Done` against the oracle and resends
/// every `RetryAfter` under a fresh id, until each job is delivered
/// once. Returns the refusals; fails if no job lands for 30 s.
pub fn pump(client: &mut WireClient, jobs: &[(MulJob, UBig)], window: usize) -> Vec<RetryReason> {
    let mut pending: VecDeque<usize> = (0..jobs.len()).collect();
    let (mut refusals, mut last_progress) = (Vec::new(), Instant::now());
    while !pending.is_empty() {
        let round: Vec<usize> = pending.drain(..window.min(pending.len())).collect();
        let ids = client.submit_batch_refs(round.iter().map(|&i| &jobs[i].0));
        for (req_id, &i) in ids.unwrap().zip(&round) {
            match client.wait(req_id).unwrap() {
                WireResponse::Done(product) => {
                    assert_eq!(product, jobs[i].1, "wire job {i} diverged from oracle");
                    last_progress = Instant::now();
                }
                WireResponse::RetryAfter { reason, .. } => {
                    refusals.push(reason);
                    pending.push_back(i);
                }
                WireResponse::Failed(reason) => panic!("wire job {i} failed: {reason}"),
            }
        }
        assert!(last_progress.elapsed().as_secs() < 30, "stalled 30 s");
    }
    refusals
}
