//! Cluster hardening: deterministic fault injection (a panicking tile
//! fails only its batch's tickets and gets routed around), forced
//! backpressure (spill lands on the modulus's next-ranked tile;
//! `Strict` surfaces `AllTilesSaturated`), and a concurrent soak in which a
//! mid-stream `shutdown()` must drain every accepted ticket exactly
//! once.

use modsram_bigint::UBig;
use modsram_core::cluster::{
    home_tile_for, rendezvous_ranking, ClusterConfig, ClusterSubmitError, ServiceCluster,
    SpillPolicy,
};
use modsram_core::dispatch::{ContextPool, MulJob};
use modsram_core::service::{ServiceConfig, ServiceError, Ticket};
use modsram_core::test_util::{failing_pool, gated_pool, FailureMode, Gate};

mod common;
use common::wait_for_submitted;

fn oracle(job: &MulJob) -> UBig {
    &(&job.a * &job.b) % &job.modulus
}

/// The first odd modulus from `seed_base` upward whose rendezvous home
/// in a cluster of `tiles` is `tile` — computed with the standalone
/// planner, no live cluster needed.
fn modulus_homed_on(tile: usize, tiles: usize, seed_base: u64) -> UBig {
    (0..64u64)
        .map(|i| UBig::from(seed_base + 2 * i))
        .find(|p| home_tile_for(p, tiles) == Some(tile))
        .unwrap_or_else(|| panic!("no probed modulus homes on tile {tile}"))
}

/// Builds a 2-tile cluster where the sick pool sits on tile 0 and the
/// other tile is a healthy Barrett tile, returning it with a modulus
/// whose natural home is the sick tile.
fn two_tiles_one_sick(
    sick_pool: ContextPool,
    config: ClusterConfig,
) -> (ServiceCluster, UBig, usize) {
    let sick = 0;
    let modulus = modulus_homed_on(sick, 2, 1_000_003);
    let healthy = ContextPool::for_engine_name("barrett").unwrap();
    let cluster = ServiceCluster::new(vec![sick_pool, healthy], config);
    assert_eq!(cluster.home_tile(&modulus), Some(sick));
    (cluster, modulus, sick)
}

fn tiny_tile_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 2,
    }
}

#[test]
fn tile_panic_fails_only_its_batch_and_gets_routed_around() {
    let config = ClusterConfig {
        spill: SpillPolicy::Spill { max_hops: 1 },
        service: tiny_tile_config(),
        poison_after: 2,
        ..Default::default()
    };
    // The sick tile panics on every multiplication from the first call.
    let (cluster, modulus, sick) = two_tiles_one_sick(failing_pool(1, FailureMode::Panic), config);
    let healthy_tile = 1 - sick;
    let job = |i: u64| MulJob::new(UBig::from(i + 2), UBig::from(i + 3), modulus.clone());

    // Phase 1: jobs routed to the sick tile fail their tickets (no
    // hang — the panic guard delivers) while a healthy-homed modulus
    // is untouched by the neighbour's panics.
    let healthy_modulus = modulus_homed_on(healthy_tile, 2, 2_000_003);
    for i in 0..2u64 {
        let sick_ticket = cluster.submit(job(i)).unwrap();
        assert_eq!(
            sick_ticket.wait(),
            Err(ServiceError::Stopped),
            "panicked batch must fail its tickets, not hang"
        );
        let ok_job = MulJob::new(
            UBig::from(i + 7),
            UBig::from(i + 9),
            healthy_modulus.clone(),
        );
        let want = oracle(&ok_job);
        let ok_ticket = cluster.submit(ok_job).unwrap();
        assert_eq!(ok_ticket.wait().unwrap(), want, "healthy tile unaffected");
    }

    // Phase 2: the sick tile has now caught >= poison_after panics, so
    // the router fails its moduli over to the healthy tile — later
    // jobs for the same modulus succeed.
    let mut stats = cluster.stats();
    assert!(
        stats.tiles[sick].service.executor_panics >= 2,
        "panic guard counted the unwinds"
    );
    assert!(stats.tiles[sick].poisoned, "tile marked poisoned");
    for i in 10..20u64 {
        let j = job(i);
        let want = oracle(&j);
        let ticket = cluster.submit(j).unwrap();
        assert_eq!(
            ticket.wait().unwrap(),
            want,
            "poisoned tile must be routed around"
        );
    }
    stats = cluster.stats();
    assert!(
        stats.spilled >= 10,
        "failover jobs counted as off-home placements ({} spilled)",
        stats.spilled
    );
    assert_eq!(stats.tiles[sick].service.completed, 0);

    let final_stats = cluster.shutdown();
    assert_eq!(final_stats.failed, 2, "exactly the two panicked-batch jobs");
    assert_eq!(final_stats.completed, final_stats.submitted - 2);
}

#[test]
fn error_mode_fails_only_jobs_from_the_kth_call_on() {
    // The polite failure mode: calls from the k-th on return an error
    // instead of panicking; each failing job gets its own error
    // verdict and earlier jobs are untouched. One-job batches keep the
    // call numbering deterministic (a failed multi-job batch would be
    // re-run per job by the service's fallback, shifting the count).
    let config = ClusterConfig {
        spill: SpillPolicy::Strict,
        service: tiny_tile_config_with_batch(1),
        poison_after: 0,
        ..Default::default()
    };
    let cluster = ServiceCluster::new(vec![failing_pool(3, FailureMode::Error)], config);
    let p = UBig::from(97u64);
    let tickets: Vec<Ticket> = (0..5u64)
        .map(|i| {
            cluster
                .submit(MulJob::new(UBig::from(i + 2), UBig::from(i + 3), p.clone()))
                .unwrap()
        })
        .collect();
    let outcomes: Vec<bool> = tickets.iter().map(|t| t.wait().is_ok()).collect();
    let stats = cluster.shutdown();
    // Calls 1 and 2 (jobs 0 and 1) succeed; job 2 trips the fuse and
    // every later call keeps failing.
    assert_eq!(outcomes, vec![true, true, false, false, false]);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 3);
    assert_eq!(
        stats.tiles[0].service.executor_panics, 0,
        "error mode never unwinds"
    );
}

fn tiny_tile_config_with_batch(max_batch: usize) -> ServiceConfig {
    ServiceConfig {
        max_batch,
        ..tiny_tile_config()
    }
}

#[test]
fn backpressure_spills_to_the_next_ranked_tile_and_strict_saturates() {
    // Two gated tiles, tiny queues: each tile's executor holds the
    // first job it takes at the shut gate, so a tile admits exactly one
    // job plus a full queue and non-blocking submissions must spill.
    // On two tiles the modulus's next-ranked tile is the only other.
    let tile = ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        max_batch: 1,
    };
    let config = ClusterConfig {
        spill: SpillPolicy::Spill { max_hops: 1 },
        service: tile.clone(),
        poison_after: 0,
        ..Default::default()
    };
    let gate = Gate::new();
    let cluster = ServiceCluster::new(vec![gated_pool(&gate), gated_pool(&gate)], config);
    let p = modulus_homed_on(0, 2, 1_000_003);
    let job = |i: u64| MulJob::new(UBig::from(i + 2), UBig::from(i + 3), p.clone());

    // Offered burst >> capacity of both tiles: accepts fill the home
    // tile, spill to tile 1, then saturate.
    let mut tickets = Vec::new();
    let mut saturated = 0u64;
    for i in 0..32u64 {
        match cluster.try_submit(job(i)) {
            Ok(t) => {
                tickets.push((i, t));
                // Every tile that has a job holds one at the gate
                // before its queue fills any further.
                let busy = cluster
                    .stats()
                    .tiles
                    .iter()
                    .filter(|t| t.service.submitted > 0)
                    .count();
                gate.wait_entered(busy as u64);
            }
            Err(ClusterSubmitError::AllTilesSaturated { tried }) => {
                assert_eq!(tried, 2, "home plus one spill hop");
                saturated += 1;
            }
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert_eq!(
        tickets.len(),
        6,
        "each tile holds 1 at the gate plus 2 queued"
    );
    assert_eq!(saturated, 26, "the burst exhausts both tiny queues");

    let stats = cluster.stats();
    assert_eq!(
        stats.spilled, 3,
        "home-tile QueueFull spills to the other tile"
    );
    assert_eq!(stats.saturated_rejections, saturated);
    assert_eq!(stats.tiles[1].spilled_in, 3, "tile 1 took the spill");

    // Every accepted ticket completes with the right product.
    gate.open();
    for (i, ticket) in &tickets {
        assert_eq!(ticket.wait().unwrap(), oracle(&job(*i)), "job {i}");
    }
    let final_stats = cluster.shutdown();
    assert_eq!(final_stats.completed as usize, tickets.len());
    assert_eq!(final_stats.failed, 0);

    // Strict policy, same pressure: no spilling — the home tile fills
    // and every further non-blocking submission is refused as
    // AllTilesSaturated{tried: 1} while the other tile sits idle.
    let strict = ClusterConfig {
        spill: SpillPolicy::Strict,
        service: tile,
        poison_after: 0,
        ..Default::default()
    };
    let gate = Gate::new();
    let cluster = ServiceCluster::new(vec![gated_pool(&gate), gated_pool(&gate)], strict);
    let mut accepted = 0u64;
    let mut strict_saturated = 0u64;
    for i in 0..32u64 {
        match cluster.try_submit(job(i)) {
            Ok(_) => {
                accepted += 1;
                gate.wait_entered(1);
            }
            Err(ClusterSubmitError::AllTilesSaturated { tried }) => {
                assert_eq!(tried, 1, "Strict only ever tries the home tile");
                strict_saturated += 1;
            }
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert_eq!(accepted, 3, "the home holds 1 at the gate plus 2 queued");
    assert_eq!(strict_saturated, 29);
    gate.open();
    let stats = cluster.shutdown();
    assert_eq!(stats.spilled, 0, "Strict never spills");
    assert_eq!(stats.tiles[1].service.submitted, 0, "off-home tile idle");
    assert_eq!(stats.completed, accepted);
}

#[test]
fn a_hot_modulus_spills_only_to_its_next_ranked_tile() {
    // Four gated tiles, tiny queues, one spill hop: one hot modulus
    // fills its home, and every job the home refuses is offered to the
    // modulus's rank-1 tile alone, the tile that takes the modulus over
    // if its home drains. The other two tiles are never probed for it.
    let tile = ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        max_batch: 1,
    };
    let config = ClusterConfig {
        spill: SpillPolicy::Spill { max_hops: 1 },
        service: tile,
        poison_after: 0,
        ..Default::default()
    };
    let gate = Gate::new();
    let pools = (0..4).map(|_| gated_pool(&gate)).collect();
    let cluster = ServiceCluster::new(pools, config);
    let p = UBig::from(1_000_003u64);
    let ranking = rendezvous_ranking(&p, 4);
    let (home, next) = (ranking[0], ranking[1]);
    assert_eq!(cluster.home_tile(&p), Some(home));
    let job = |i: u64| MulJob::new(UBig::from(i + 2), UBig::from(i + 3), p.clone());
    // Tile service stats read the probe counter without probing.
    let probes = || -> u64 {
        (0..4)
            .map(|t| cluster.tile_service(t).unwrap().stats().health_probes)
            .sum()
    };

    let mut tickets = Vec::new();
    for i in 0..32u64 {
        // Read before the probe count: a cluster snapshot probes every tile.
        let spilled = cluster.stats().spilled;
        let before = probes();
        let outcome = cluster.try_submit(job(i));
        let cost = probes() - before;
        let stats = cluster.stats();
        if let Ok(ticket) = outcome {
            tickets.push((i, ticket));
            let landed_home = stats.spilled == spilled;
            assert_eq!(cost, if landed_home { 1 } else { 2 }, "job {i}");
            // Every tile that has a job holds one at the gate before
            // its queue fills any further.
            let busy = stats
                .tiles
                .iter()
                .filter(|t| t.service.submitted > 0)
                .count();
            gate.wait_entered(busy as u64);
        } else {
            assert_eq!(cost, 2, "job {i}: the home and one spill hop");
        }
    }

    let stats = cluster.stats();
    assert_eq!(tickets.len(), 6, "home and rank-1 tile each hold 3");
    assert_eq!(stats.spilled, 3);
    assert_eq!(
        stats.tiles[next].spilled_in, 3,
        "every spill lands on rank 1"
    );
    for t in [ranking[2], ranking[3]] {
        assert_eq!(stats.tiles[t].service.submitted, 0, "tile {t} untouched");
    }
    assert_eq!(
        stats.tiles[next].service.pool_misses, 1,
        "the spill tile prepares the hot modulus once"
    );
    gate.open();
    for (i, ticket) in &tickets {
        assert_eq!(ticket.wait().unwrap(), oracle(&job(*i)), "job {i}");
    }
    let final_stats = cluster.shutdown();
    assert_eq!(final_stats.completed as usize, tickets.len());
}

#[test]
fn soak_shutdown_mid_stream_drains_every_ticket_exactly_once() {
    // 4 submitter threads x 3 tiles x 5 moduli; the main thread pulls
    // the plug mid-stream. Every accepted ticket must complete exactly
    // once (tile counters sum to the accepted count) and none may be
    // left pending — the promoted, cluster-wide version of the
    // single-tile shutdown-drains test.
    let cluster = ServiceCluster::for_engine_name(
        "montgomery",
        3,
        ClusterConfig {
            spill: SpillPolicy::Spill { max_hops: 2 },
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 128,
                max_batch: 16,
            },
            poison_after: 3,
            ..Default::default()
        },
    )
    .unwrap();
    let moduli: Vec<UBig> = [97u64, 1_000_003, 999_979, 0xffff_fffb, 2_000_003]
        .map(UBig::from)
        .to_vec();
    let all_tickets: std::sync::Mutex<Vec<(MulJob, Ticket)>> = std::sync::Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let handle = cluster.handle();
            let moduli = &moduli;
            let all_tickets = &all_tickets;
            scope.spawn(move || {
                let mut tickets: Vec<(MulJob, Ticket)> = Vec::new();
                for i in 0..10_000u64 {
                    let p = moduli[((t + i) % 5) as usize].clone();
                    let job = MulJob::new(
                        UBig::from(t * 1_000_003 + i * 17 + 1),
                        UBig::from(t * 999_979 + i * 31 + 2),
                        p,
                    );
                    match handle.submit(job.clone()) {
                        Ok(ticket) => tickets.push((job, ticket)),
                        Err(ClusterSubmitError::Stopped) => break,
                        Err(e) => panic!("blocking submit never saturates: {e}"),
                    }
                }
                all_tickets.lock().unwrap().extend(tickets);
            });
        }
        // Let the submitters build up real in-flight depth (a tenth of
        // their 40 000 jobs), then pull the plug while they are
        // mid-stream. `shutdown` returns only after every tile has
        // drained.
        wait_for_submitted(&cluster, 4_000);
        cluster.shutdown();
    });

    // `shutdown()` has returned: every accepted ticket must already be
    // delivered — redeeming it now must never block.
    let tickets = all_tickets.into_inner().unwrap();
    let accepted = tickets.len() as u64;
    for (job, ticket) in &tickets {
        assert!(ticket.is_done(), "shutdown returned with a pending ticket");
        assert_eq!(ticket.wait().unwrap(), oracle(job));
    }
    let stats = cluster.stats();
    assert!(accepted > 0, "soak accepted no work");
    assert_eq!(
        stats.completed + stats.failed,
        accepted,
        "every accepted ticket completed exactly once (no leak, no double-complete)"
    );
    assert_eq!(stats.failed, 0, "all moduli are montgomery-valid");
    assert_eq!(stats.submitted, accepted);
    // Every tile's queue fully drained.
    for (i, tile) in stats.tiles.iter().enumerate() {
        assert_eq!(tile.service.queue_depth, 0, "tile {i} queue not drained");
        assert_eq!(
            tile.service.completed + tile.service.failed,
            tile.service.submitted,
            "tile {i} leaked tickets"
        );
    }
}

#[test]
fn reset_window_clears_coalesce_and_latency_but_not_lifetime_counters() {
    let cluster = ServiceCluster::for_engine_name(
        "barrett",
        2,
        ClusterConfig {
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 64,
                max_batch: 4,
            },
            ..Default::default()
        },
    )
    .unwrap();
    let p = UBig::from(1_000_003u64);
    let tickets: Vec<Ticket> = (0..20u64)
        .map(|i| {
            cluster
                .submit(MulJob::new(UBig::from(i + 1), UBig::from(i + 2), p.clone()))
                .unwrap()
        })
        .collect();
    for t in &tickets {
        t.wait().unwrap();
    }
    let before = cluster.stats();
    let home = cluster.home_tile(&p).expect("a routable tile homes p");
    assert!(before.tiles[home].service.coalesce_max > 0);
    assert!(before.tiles[home].service.wall_p99_ns > 0);

    cluster.reset_window();
    let after = cluster.stats();
    let svc = &after.tiles[home].service;
    // Window metrics cleared...
    assert_eq!(svc.coalesce_min, 0);
    assert_eq!(svc.coalesce_max, 0);
    assert_eq!(svc.coalesce_mean, 0.0);
    assert_eq!(svc.wall_p50_ns, 0);
    assert_eq!(svc.wall_p99_ns, 0);
    assert_eq!(svc.modelled_p99_cycles, 0);
    // ...lifetime counters kept.
    assert_eq!(svc.completed, before.tiles[home].service.completed);
    assert_eq!(svc.batches, before.tiles[home].service.batches);
    assert_eq!(
        svc.modelled_cycles_total,
        before.tiles[home].service.modelled_cycles_total
    );
    assert_eq!(after.submitted, 20);

    // A fresh window fills with fresh observations.
    let t = cluster
        .submit(MulJob::new(UBig::from(3u64), UBig::from(4u64), p.clone()))
        .unwrap();
    t.wait().unwrap();
    cluster.shutdown();
    let last = cluster.stats();
    assert!(last.tiles[home].service.coalesce_max >= 1);
    assert_eq!(last.completed, 21);
}
