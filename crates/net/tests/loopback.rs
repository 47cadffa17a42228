//! Loopback-socket integration tests: admission edge cases surfaced
//! at the wire boundary, tenant limits over a real TCP connection,
//! the multi-client drain-on-shutdown soak the CI tier-1 step runs by
//! name, and a live tile drain under closed-loop traffic.

mod common;

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use modsram_bigint::UBig;
use modsram_core::cluster::{home_tile_for, ClusterConfig, ServiceCluster, SpillPolicy};
use modsram_core::dispatch::{ContextPool, MulJob};
use modsram_core::service::{ModSramService, ServiceConfig};
use modsram_core::test_util::{gated_pool, Gate};
use modsram_net::frame::{read_frame, write_frame, DEFAULT_MAX_PAYLOAD};
use modsram_net::{
    Frame, NetBackend, RetryReason, TenantLimits, TenantRegistry, WireClient, WireConfig,
    WireError, WireResponse, WireServer,
};

fn job(a: u64, b: u64, p: u64) -> MulJob {
    MulJob::new(UBig::from(a), UBig::from(b), UBig::from(p))
}

fn registry_with(name: &str, key: u64, limits: TenantLimits) -> Arc<TenantRegistry> {
    let registry = Arc::new(TenantRegistry::new());
    registry.register(name, key, limits);
    registry
}

/// How long a test waits without progress before it fails instead of
/// hanging.
const STALL_LIMIT: Duration = Duration::from_secs(30);

fn oracle(job: &MulJob) -> UBig {
    &(&job.a * &job.b) % &job.modulus
}

/// Reads the next frame the server sends on a raw connection.
fn recv(stream: &mut TcpStream) -> Frame {
    match read_frame(stream, DEFAULT_MAX_PAYLOAD) {
        Ok(Some((frame, _))) => frame,
        other => panic!("expected a frame, got {other:?}"),
    }
}

/// A raw connection that has said `Hello` as `tenant` and read
/// `HelloOk`; reads fail after [`STALL_LIMIT`] instead of hanging.
fn authenticated(server: &WireServer, tenant: &str, key: u64) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(STALL_LIMIT)).unwrap();
    let hello = Frame::Hello {
        tenant: tenant.into(),
        key,
    };
    write_frame(&mut stream, &hello).unwrap();
    assert!(matches!(recv(&mut stream), Frame::HelloOk { .. }));
    stream
}

/// Spins until the server has accepted `jobs` jobs, failing after
/// [`STALL_LIMIT`] without a new acceptance.
fn wait_for_accepted(server: &WireServer, jobs: u64) {
    let (mut seen, mut last_progress) = (0, Instant::now());
    while seen < jobs {
        let accepted = server.stats().accepted;
        if accepted > seen {
            (seen, last_progress) = (accepted, Instant::now());
        }
        assert!(
            last_progress.elapsed() < STALL_LIMIT,
            "traffic stalled at {seen} of {jobs} accepted jobs"
        );
        std::thread::yield_now();
    }
}

/// The acceptor blocks in `accept`; the drain wakes it with one
/// loopback connect, rewritten from the unspecified bind address. The
/// wake connection is not metered, and the listener is gone once
/// `shutdown` returns.
#[test]
fn shutdown_wakes_the_blocked_acceptor_on_an_unspecified_address() {
    let cluster = ServiceCluster::for_engine_name("barrett", 1, ClusterConfig::default()).unwrap();
    let server = WireServer::bind(
        "0.0.0.0:0",
        NetBackend::Cluster(cluster.handle()),
        registry_with("idle", 1, TenantLimits::default()),
        WireConfig::default(),
    )
    .unwrap();
    let port = server.local_addr().port();

    let (done, stats) = mpsc::channel();
    let stopper = std::thread::spawn(move || done.send(server.shutdown()).unwrap());
    let stats = stats
        .recv_timeout(STALL_LIMIT)
        .expect("shutdown of an idle server hung on its acceptor");
    stopper.join().unwrap();

    assert_eq!(stats.connections_accepted, 0, "the wake was metered");
    assert_eq!(stats.connections_closed, 0);
    assert!(
        WireClient::connect(("127.0.0.1", port), "idle", 1).is_err(),
        "the listener outlived the shutdown"
    );
    cluster.shutdown();
}

/// A `SubmitBatch` frame reaches the tile whole: on an idle
/// single-tile server its 64 jobs run as exactly one batch, window
/// after window. (Admitted job by job, a warm executor takes the
/// first jobs of a frame before the rest arrive.)
#[test]
fn submit_batch_frame_runs_as_one_batch_on_an_idle_tile() {
    let cluster = ServiceCluster::for_engine_name("barrett", 1, ClusterConfig::default()).unwrap();
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry_with("window", 5, TenantLimits::default()),
        WireConfig::default(),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr(), "window", 5).unwrap();
    // A closed-loop window: eight runs of eight jobs sharing `b`.
    let jobs: Vec<MulJob> = (0..64u64)
        .map(|i| job(i + 2, i / 8 + 3, 1_000_003))
        .collect();
    for window in 1..=8u64 {
        let ids = client.submit_batch(jobs.clone()).unwrap();
        for (job, id) in jobs.iter().zip(ids) {
            match client.wait(id).unwrap() {
                WireResponse::Done(product) => assert_eq!(product, oracle(job)),
                other => panic!("job {id}: {other:?}"),
            }
        }
        let tile = cluster.stats().tiles[0].service.clone();
        assert_eq!(tile.batches, window, "each frame ran as one batch");
        assert_eq!((tile.coalesce_min, tile.coalesce_max), (64, 64));
    }
    client.close().unwrap();
    server.shutdown();
    cluster.shutdown();
}

/// A frame longer than the tile's free queue capacity: the tile takes
/// the prefix that fits, exactly the overflow suffix gets `RetryAfter`
/// (in request-id order), and the accepted prefix answers correctly.
#[test]
fn submit_batch_overflow_suffix_gets_retry_after_in_order() {
    // The same frame over a one-tile cluster and over a bare tile: only
    // the refusal reason differs.
    for over_cluster in [true, false] {
        overflow_suffix_gets_retry_after_in_order(over_cluster);
    }
}

fn overflow_suffix_gets_retry_after_in_order(over_cluster: bool) {
    let tile = ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..Default::default()
    };
    let gate = Gate::new();
    let (backend, cluster, service, want_reason) = if over_cluster {
        let config = ClusterConfig {
            service: tile,
            ..Default::default()
        };
        let cluster = ServiceCluster::new(vec![gated_pool(&gate)], config);
        let backend = NetBackend::Cluster(cluster.handle());
        (
            backend,
            Some(cluster),
            None,
            RetryReason::Saturated { tried: 1 },
        )
    } else {
        let service = ModSramService::new(gated_pool(&gate), tile);
        let backend = NetBackend::Tile(service.handle());
        (backend, None, Some(service), RetryReason::QueueFull)
    };
    let server = WireServer::bind(
        "127.0.0.1:0",
        backend,
        registry_with("overflow", 9, TenantLimits::default()),
        WireConfig::default(),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(STALL_LIMIT)).unwrap();
    let hello = Frame::Hello {
        tenant: "overflow".into(),
        key: 9,
    };
    write_frame(&mut stream, &hello).unwrap();
    assert!(matches!(recv(&mut stream), Frame::HelloOk { .. }));

    // The executor takes job 0 and holds it at the shut gate, so the
    // queue's whole capacity is free and stays free.
    let jobs: Vec<MulJob> = (0..13u64).map(|i| job(i + 2, 3, 1_000_003)).collect();
    let first = Frame::Submit {
        req_id: 0,
        job: jobs[0].clone(),
    };
    write_frame(&mut stream, &first).unwrap();
    gate.wait_entered(1);
    // Twelve jobs for eight free slots: ids 1..=8 fit, 9..=12 overflow.
    let batch = Frame::SubmitBatch {
        first_req_id: 1,
        jobs: jobs[1..].to_vec(),
    };
    write_frame(&mut stream, &batch).unwrap();
    // Nothing can complete while the gate is shut, so the refusals are
    // the first frames back.
    for want in 9..=12u64 {
        match recv(&mut stream) {
            Frame::RetryAfter { req_id, reason, .. } => {
                assert_eq!(req_id, want, "refusals arrive in request-id order");
                assert_eq!(reason, want_reason);
            }
            other => panic!("expected RetryAfter for {want}, got {other:?}"),
        }
    }
    gate.open();
    let mut done = HashMap::new();
    while done.len() < 9 {
        match recv(&mut stream) {
            Frame::Done { req_id, product } => {
                assert!(done.insert(req_id, product).is_none(), "duplicate {req_id}");
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }
    for (req_id, job) in jobs.iter().enumerate().take(9) {
        assert_eq!(
            done.get(&(req_id as u64)),
            Some(&oracle(job)),
            "job {req_id}"
        );
    }
    write_frame(&mut stream, &Frame::Goodbye).unwrap();
    assert_eq!(recv(&mut stream), Frame::Bye { completed: 9 });

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 9);
    assert_eq!(stats.retries(want_reason.label()), 4);
    if let Some(cluster) = cluster {
        cluster.shutdown();
    }
    if let Some(service) = service {
        // The tile counts the refused suffix itself, one per job.
        assert_eq!(service.shutdown().rejected, 4);
    }
}

#[test]
fn hello_is_authenticated_against_the_registry() {
    let cluster = ServiceCluster::for_engine_name("barrett", 1, ClusterConfig::default()).unwrap();
    let registry = registry_with("alice", 7, TenantLimits::default());
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry,
        WireConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    match WireClient::connect(addr, "alice", 8) {
        Err(WireError::AuthRefused(_)) => {}
        other => panic!("bad key must be refused, got {other:?}"),
    }
    match WireClient::connect(addr, "mallory", 7) {
        Err(WireError::AuthRefused(_)) => {}
        other => panic!("unknown tenant must be refused, got {other:?}"),
    }
    let ok = WireClient::connect(addr, "alice", 7).unwrap();
    assert_eq!(ok.max_inflight(), TenantLimits::default().max_inflight);
    drop(ok);

    let stats = server.shutdown();
    assert_eq!(stats.auth_failures, 2);
    assert_eq!(stats.connections_accepted, 3);
    cluster.shutdown();
}

/// Satellite: a live `drain_tile` pauses the tile's admissions, and a
/// wire server fronting that tile (via `tile_service`) must answer
/// with a `TilePaused` retry-after frame — while every job accepted
/// before the pause is still delivered with the right product.
#[test]
fn paused_tile_during_live_drain_maps_to_tile_paused_retry_frame() {
    let cluster = ServiceCluster::for_engine_name(
        "barrett",
        2,
        ClusterConfig {
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 256,
                max_batch: 16,
            },
            ..Default::default()
        },
    )
    .unwrap();
    let victim = 0usize;
    let tile = cluster.tile_service(victim).unwrap();
    let registry = registry_with("pinned", 11, TenantLimits::default());
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Tile(tile.handle()),
        registry,
        WireConfig::default(),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr(), "pinned", 11).unwrap();

    // Jobs accepted before the drain: the drain must deliver them.
    let before: Vec<u64> = (0..32u64)
        .map(|i| client.submit(job(i + 2, 3, 1_000_003)).unwrap())
        .collect();

    // The drain is live: the cluster keeps serving on the other tile,
    // and this wire server's tile refuses from the instant admissions
    // pause.
    let report = cluster.drain_tile(victim).unwrap();
    assert!(report.active_tiles >= 1);

    for (i, id) in before.iter().enumerate() {
        let i = i as u64;
        match client.wait(*id).unwrap() {
            WireResponse::Done(product) => {
                assert_eq!(product, UBig::from((i + 2) * 3 % 1_000_003));
            }
            // A job racing the pause itself may be refused — but then
            // it must be refused as paused, not dropped.
            WireResponse::RetryAfter { reason, .. } => {
                assert_eq!(reason, RetryReason::TilePaused);
            }
            other => panic!("job {i} neither delivered nor typed-refused: {other:?}"),
        }
    }

    // Post-drain the tile is paused for good (until probation): the
    // refusal must be the typed TilePaused frame with a backoff hint.
    let id = client.submit(job(5, 7, 1_000_003)).unwrap();
    match client.wait(id).unwrap() {
        WireResponse::RetryAfter { reason, millis } => {
            assert_eq!(reason, RetryReason::TilePaused);
            assert!(millis >= 1);
        }
        other => panic!("expected TilePaused retry-after, got {other:?}"),
    }

    client.close().unwrap();
    let stats = server.shutdown();
    assert!(stats.retries("tile_paused") >= 1);
    assert_eq!(stats.retries("queue_full"), 0);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed,
        "every accepted job got a terminal frame"
    );
    cluster.shutdown();
}

/// Satellite: under `SpillPolicy::Strict` a full home queue has
/// nowhere to go — the wire answer must be the `Saturated` retry-after
/// frame carrying the tried-tile count, distinct from `TilePaused`.
#[test]
fn strict_saturation_maps_to_saturated_retry_frame() {
    let cluster = ServiceCluster::for_engine_name(
        "r4csa-lut", // slow enough that a burst outruns one worker
        1,
        ClusterConfig {
            spill: SpillPolicy::Strict,
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                max_batch: 4,
            },
            ..Default::default()
        },
    )
    .unwrap();
    let registry = registry_with("burst", 3, TenantLimits::default());
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry,
        WireConfig::default(),
    )
    .unwrap();
    let mut client = WireClient::connect(server.local_addr(), "burst", 3).unwrap();

    // One big 256-bit batch: the reader admits far faster than one
    // worker multiplies, so the 4-deep queue must overflow.
    let p =
        UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f").unwrap();
    let jobs: Vec<MulJob> = (0..256u64)
        .map(|i| MulJob::new(UBig::from(i + 1), UBig::from(12345u64), p.clone()))
        .collect();
    let ids = client.submit_batch(jobs.clone()).unwrap();

    let mut done = 0u64;
    let mut refused = Vec::new();
    for (i, id) in ids.enumerate() {
        match client.wait(id).unwrap() {
            WireResponse::Done(product) => {
                let expect = &(&jobs[i].a * &jobs[i].b) % &p;
                assert_eq!(product, expect);
                done += 1;
            }
            WireResponse::RetryAfter { reason, .. } => {
                // Strict: exactly one tile was offered the job.
                assert_eq!(reason, RetryReason::Saturated { tried: 1 });
                refused.push((jobs[i].clone(), oracle(&jobs[i])));
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    let saturated = refused.len() as u64;
    assert_eq!(done + saturated, 256);
    assert!(done >= 1, "some of the burst must land");
    assert!(
        saturated >= 1,
        "a 4-deep queue cannot swallow a 256-job burst"
    );

    // Resending every refused job until it lands delivers the whole
    // burst; the resends may saturate again, and only saturate.
    let again = common::pump(&mut client, &refused, refused.len());

    client.close().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.retries("saturated"), saturated + again.len() as u64);
    assert_eq!(stats.retries("tile_paused"), 0, "distinct retry reasons");
    assert_eq!(stats.accepted, 256, "every burst job delivered");
    assert_eq!(stats.completed, 256);
    cluster.shutdown();
}

#[test]
fn tenant_rate_limit_and_inflight_cap_are_typed_refusals() {
    let cluster = ServiceCluster::for_engine_name("barrett", 1, ClusterConfig::default()).unwrap();
    let registry = Arc::new(TenantRegistry::new());
    registry.register(
        "throttled",
        1,
        TenantLimits {
            max_inflight: 1024,
            rate_per_sec: 2.0,
            burst: 2,
        },
    );
    registry.register(
        "narrow",
        2,
        TenantLimits {
            max_inflight: 1,
            rate_per_sec: 0.0,
            burst: 1,
        },
    );
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry,
        WireConfig::default(),
    )
    .unwrap();

    // Token bucket: burst of 2 admitted, the third refused with a
    // positive backoff computed from the deficit.
    let mut throttled = WireClient::connect(server.local_addr(), "throttled", 1).unwrap();
    let ids: Vec<u64> = (0..3)
        .map(|_| throttled.submit(job(6, 7, 97)).unwrap())
        .collect();
    let mut rate_limited = 0;
    for id in ids {
        match throttled.wait(id).unwrap() {
            WireResponse::Done(product) => assert_eq!(product, UBig::from(42u64)),
            WireResponse::RetryAfter {
                reason: RetryReason::RateLimited,
                millis,
            } => {
                assert!(millis >= 1);
                rate_limited += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!(rate_limited, 1, "burst 2 admits 2 of 3");
    throttled.close().unwrap();

    // In-flight cap of 1, cap shared across the tenant's connections:
    // a second connection's submit while the first job is in flight is
    // refused as InflightCap. A paused-forever job holds the slot.
    // (The "narrow" tenant has rate 0, so only the cap can refuse.)
    let mut first = WireClient::connect(server.local_addr(), "narrow", 2).unwrap();
    let mut second = WireClient::connect(server.local_addr(), "narrow", 2).unwrap();
    // Burst both connections; with a cap of 1 at least one of the
    // four submissions must be refused with InflightCap.
    let first_ids: Vec<u64> = (0..2)
        .map(|_| first.submit(job(3, 5, 97)).unwrap())
        .collect();
    let second_ids: Vec<u64> = (0..2)
        .map(|_| second.submit(job(3, 5, 97)).unwrap())
        .collect();
    let mut capped = 0;
    for (client, ids) in [(&mut first, first_ids), (&mut second, second_ids)] {
        for id in ids {
            match client.wait(id).unwrap() {
                WireResponse::Done(product) => assert_eq!(product, UBig::from(15u64)),
                WireResponse::RetryAfter {
                    reason: RetryReason::InflightCap,
                    ..
                } => capped += 1,
                other => panic!("unexpected response: {other:?}"),
            }
        }
    }
    assert!(capped >= 1, "cap of 1 must refuse a 4-deep double burst");
    first.close().unwrap();
    second.close().unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.retries("rate_limited"), 1);
    assert!(stats.retries("inflight_cap") >= 1);
    cluster.shutdown();
}

/// The CI tier-1 soak, run by name: several clients stream batches
/// while the server drains on shutdown mid-traffic. Every accepted
/// job's response must be delivered (server-side invariant), every
/// delivered product must match the oracle, and no request id may see
/// two terminal frames.
#[test]
fn multi_client_drain_on_shutdown_delivers_every_accepted_response() {
    let cluster = ServiceCluster::for_engine_name(
        "barrett",
        2,
        ClusterConfig {
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 512,
                max_batch: 64,
            },
            ..Default::default()
        },
    )
    .unwrap();
    let registry = Arc::new(TenantRegistry::new());
    registry.register("even", 10, TenantLimits::default());
    registry.register("odd", 11, TenantLimits::default());
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        Arc::clone(&registry),
        WireConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let clients = 4usize;
    let mut workers = Vec::new();
    for c in 0..clients {
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let (tenant, key) = if c % 2 == 0 {
                ("even", 10)
            } else {
                ("odd", 11)
            };
            let modulus = 1_000_003u64 + 2 * c as u64; // per-client modulus
            let mut client = match WireClient::connect(addr, tenant, key) {
                Ok(client) => client,
                // The drain can beat a late connection to the
                // listener; that is the advertised behaviour.
                Err(_) => return (0u64, 0u64),
            };
            let mut delivered = 0u64;
            let mut refused = 0u64;
            'outer: loop {
                let jobs: Vec<MulJob> = (0..32u64)
                    .map(|i| job(i * 5 + c as u64 + 1, 7, modulus))
                    .collect();
                let ids = match client.submit_batch(jobs.clone()) {
                    Ok(ids) => ids,
                    Err(_) => break, // socket closed by the drain
                };
                for (i, id) in ids.enumerate() {
                    match client.wait(id) {
                        Ok(WireResponse::Done(product)) => {
                            let expect = &(&jobs[i].a * &jobs[i].b) % &jobs[i].modulus;
                            assert_eq!(product, expect, "oracle mismatch over the wire");
                            delivered += 1;
                        }
                        Ok(WireResponse::RetryAfter { .. }) => refused += 1,
                        Ok(WireResponse::Failed(reason)) => {
                            panic!("no job may fail in this soak: {reason}")
                        }
                        // Ids written after the server stopped reading
                        // never got accepted; the connection closing
                        // is their (legitimate) outcome.
                        Err(_) => break 'outer,
                    }
                }
                if stop.load(Ordering::Acquire) && client.closed() {
                    break;
                }
            }
            assert_eq!(client.duplicates(), 0, "no id may complete twice");
            (delivered, refused)
        }));
    }

    // Let traffic flow, then drain mid-stream.
    wait_for_accepted(&server, 256);
    stop.store(true, Ordering::Release);
    let stats = server.shutdown();
    let mut client_delivered = 0u64;
    for worker in workers {
        let (delivered, _refused) = worker.join().unwrap();
        client_delivered += delivered;
    }

    assert!(stats.accepted > 0, "the soak must move real traffic");
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed,
        "drain lost accepted responses: {stats:?}"
    );
    assert_eq!(stats.failed, 0);
    // Every response the server delivered reached a client map; the
    // clients may not have waited on all of them before exiting, but
    // none may exceed what the server sent.
    assert!(client_delivered <= stats.completed);
    assert_eq!(
        stats.connections_accepted, stats.connections_closed,
        "every connection fully torn down"
    );
    cluster.shutdown();
}

/// A live `drain_tile` mid-stream: four clients keep closed-loop
/// windows in flight against a 2-tile spill cluster, resending every
/// refusal under a fresh id, while the tile homing client 0 drains.
/// Every job is delivered exactly once with the oracle's product,
/// nothing fails, and the membership epoch advances.
#[test]
fn live_drain_mid_stream_delivers_every_job_exactly_once() {
    let (clients, window, jobs_per_client) = (4, 16, 128);
    let p = UBig::from(0xffff_ffff_ffff_ffc5u64);
    let job_lists = common::job_lists(&p, clients, jobs_per_client, 7);
    let cluster = common::cluster("barrett");
    let server = common::serve(&cluster);
    let epoch_before = cluster.membership_epoch();
    let victim = cluster.home_tile(&p).unwrap(); // client 0's home
    std::thread::scope(|scope| {
        for (c, jobs) in job_lists.iter().enumerate() {
            let addr = server.local_addr();
            scope.spawn(move || {
                let mut client = common::connect(addr, c);
                common::pump(&mut client, jobs, window);
                assert_eq!(client.duplicates(), 0, "no id may complete twice");
                client.close().unwrap();
            });
        }
        // Two windows per client accepted: every client is mid-stream.
        wait_for_accepted(&server, 2 * (clients * window) as u64);
        cluster.drain_tile(victim).expect("live drain succeeds");
    });

    assert!(cluster.membership_epoch() > epoch_before, "epoch advanced");
    let stats = server.shutdown();
    cluster.shutdown();
    assert_eq!(stats.failed, 0, "a drain re-homes work, it fails none");
    assert_eq!(stats.accepted, stats.completed + stats.failed);
    let jobs = (clients * jobs_per_client) as u64;
    assert_eq!(stats.completed, jobs, "each job delivered once");
}

/// Results leave as they finish. On a 2-tile cluster of 2-lane tiles,
/// a single-job frame homed on tile 0, whose executor the gate holds,
/// stays unanswered while a later one homed on tile 1 is answered; once
/// the gate opens the first is answered too, and each only once.
#[test]
fn a_later_job_on_a_free_tile_is_answered_first_and_each_job_once() {
    let gate = Gate::new();
    let config = ClusterConfig {
        service: ServiceConfig {
            workers: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let pools = vec![
        gated_pool(&gate),
        ContextPool::for_engine_name("barrett").unwrap(),
    ];
    let cluster = ServiceCluster::new(pools, config);
    let homed_on = |tile| {
        (0..64u64)
            .map(|i| 1_000_003 + 2 * i)
            .find(|&p| home_tile_for(&UBig::from(p), 2) == Some(tile))
            .expect("some modulus homes on each tile")
    };
    let (held, free) = (job(6, 7, homed_on(0)), job(8, 9, homed_on(1)));
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry_with("order", 4, TenantLimits::default()),
        WireConfig::default(),
    )
    .unwrap();
    // Dropped before the server on a failing test's unwind, so jobs
    // still on a tile run and the server's drain can finish.
    let _stop_first = StopOnDrop(&cluster);
    let mut stream = authenticated(&server, "order", 4);
    for (req_id, job) in [(1, &held), (2, &free)] {
        let submit = Frame::Submit {
            req_id,
            job: job.clone(),
        };
        write_frame(&mut stream, &submit).unwrap();
    }
    // Read before opening the gate, assert after, so a failure cannot
    // leave tile 0's executor parked.
    let first = read_frame(&mut stream, DEFAULT_MAX_PAYLOAD);
    gate.open();
    match first {
        Ok(Some((frame, _))) => assert_eq!(
            frame,
            Frame::Done {
                req_id: 2,
                product: oracle(&free)
            },
            "tile 1's job is answered while tile 0's is held"
        ),
        other => panic!("expected tile 1's Done, got {other:?}"),
    }
    let second = Frame::Done {
        req_id: 1,
        product: oracle(&held),
    };
    assert_eq!(recv(&mut stream), second);
    // Nothing else before `Bye`: each job was answered exactly once.
    write_frame(&mut stream, &Frame::Goodbye).unwrap();
    assert_eq!(recv(&mut stream), Frame::Bye { completed: 2 });
    let stats = server.shutdown();
    assert_eq!((stats.accepted, stats.completed), (2, 2));
    assert_eq!(gate.entered(), 1, "tile 0 ran its job once");
}

/// Shuts its cluster down when dropped.
struct StopOnDrop<'a>(&'a ServiceCluster);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// The drain reaches connections that send nothing: one that never
/// said `Hello`, and one that authenticated and went quiet. `shutdown`
/// returns, the quiet client reads `Bye`, the silent one reads the end
/// of its stream, and both connections are torn down.
#[test]
fn drain_reaches_connections_that_send_nothing() {
    let cluster = ServiceCluster::for_engine_name("barrett", 1, ClusterConfig::default()).unwrap();
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry_with("quiet", 2, TenantLimits::default()),
        WireConfig::default(),
    )
    .unwrap();
    let mut silent = TcpStream::connect(server.local_addr()).unwrap();
    silent.set_read_timeout(Some(STALL_LIMIT)).unwrap();
    // The silent connection has reached its handshake read, not just
    // the listen backlog (a drain drops backlogged ones unmetered).
    let start = Instant::now();
    while server.stats().connections_accepted < 1 {
        assert!(
            start.elapsed() < STALL_LIMIT,
            "the connection was never accepted"
        );
        std::thread::yield_now();
    }
    let mut quiet = authenticated(&server, "quiet", 2);

    let (done, stats) = mpsc::channel();
    let stopper = std::thread::spawn(move || done.send(server.shutdown()).unwrap());
    let stats = stats
        .recv_timeout(STALL_LIMIT)
        .expect("the drain hung on an idle connection");
    stopper.join().unwrap();

    assert_eq!(recv(&mut quiet), Frame::Bye { completed: 0 });
    assert!(
        matches!(read_frame(&mut silent, DEFAULT_MAX_PAYLOAD), Ok(None)),
        "the connection without a Hello was closed"
    );
    assert_eq!(stats.connections_accepted, 2);
    assert_eq!(stats.connections_accepted, stats.connections_closed);
    cluster.shutdown();
}
