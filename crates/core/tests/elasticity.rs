//! Runtime elasticity: membership change under load. The proptest
//! pins the minimal-disruption re-homing property (a drain moves
//! exactly the drained tile's moduli), the soak drains a tile
//! mid-stream without losing a single accepted ticket, and the
//! lifecycle test walks drain → probation → re-admission → add
//! through the public API.

use modsram_bigint::UBig;
use modsram_core::cluster::{
    home_tile_for, rendezvous_ranking, weighted_home_tile_for, weighted_rendezvous_ranking,
    ClusterConfig, ServiceCluster, SpillPolicy, TileState,
};
use modsram_core::dispatch::MulJob;
use modsram_core::service::{ModSramService, ServiceConfig, Ticket};
use modsram_core::test_util::{gated_pool, saturate_gated_home, Gate};
use modsram_core::CoreError;
use proptest::prelude::*;

mod common;
use common::wait_for_submitted;

fn oracle(job: &MulJob) -> UBig {
    &(&job.a * &job.b) % &job.modulus
}

fn quick_config() -> ClusterConfig {
    ClusterConfig {
        service: ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            max_batch: 8,
        },
        probation_after: 2,
        ..Default::default()
    }
}

proptest! {
    // Each case stands up (and tears down) a live cluster; keep the
    // case count modest — the property space is (tiles × drained ×
    // modulus offset), and 24 cases cover it densely.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// **The minimal-disruption property.** Draining tile `d` re-homes
    /// exactly the moduli whose rendezvous rank-0 was `d` — each to
    /// its rank-1 tile — and every other modulus keeps its home. This
    /// is what makes live membership change affordable: a drain costs
    /// `~1/active` of the moduli one cold context preparation, never a
    /// global reshuffle.
    #[test]
    fn drain_rehomes_exactly_the_drained_tiles_moduli(
        tiles in 2usize..=5,
        drained in 0usize..5,
        offset in 0u64..1000,
    ) {
        let drained = drained % tiles;
        let cluster = ServiceCluster::for_engine_name("barrett", tiles, quick_config()).unwrap();
        let moduli: Vec<UBig> = (0..40u64)
            .map(|i| UBig::from(2 * (offset + i) + 101))
            .collect();
        let before: Vec<Option<usize>> = moduli.iter().map(|p| cluster.home_tile(p)).collect();
        // The live router agrees with the standalone planner while
        // every tile is routable.
        for (p, &b) in moduli.iter().zip(&before) {
            prop_assert_eq!(b, home_tile_for(p, tiles));
        }
        let report = cluster.drain_tile(drained).unwrap();
        prop_assert_eq!(report.active_tiles, tiles - 1);
        prop_assert_eq!(cluster.tile_state(drained), Some(TileState::Drained));
        for (i, p) in moduli.iter().enumerate() {
            let after = cluster.home_tile(p);
            if before[i] == Some(drained) {
                // Moved — and precisely to its rank-1 tile, the next
                // entry of the full rendezvous ranking.
                let ranking = rendezvous_ranking(p, tiles);
                prop_assert_eq!(ranking[0], drained);
                prop_assert_eq!(
                    after, Some(ranking[1]),
                    "modulus {} must fail over to its rank-1 tile", i
                );
            } else {
                prop_assert_eq!(
                    after, before[i],
                    "modulus {} was not homed on the drained tile and must not move", i
                );
            }
        }
        cluster.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// **Equal weights are the legacy planner.** The weighted
    /// rendezvous score is calibrated so a uniform weight vector —
    /// any uniform value, not just 1 — reproduces the unweighted
    /// placement ranking exactly. This is what makes adopting
    /// weights free: publishing a uniform-weight membership moves
    /// zero moduli.
    #[test]
    fn all_equal_weights_reproduce_the_unweighted_planner(
        tiles in 1usize..=8,
        w in 1u32..1000,
        offset in 0u64..10_000,
    ) {
        // Cover the extremes too: the calibration must hold at any
        // uniform magnitude, including saturating weights.
        for weights in [vec![w; tiles], vec![u32::MAX; tiles]] {
            for i in 0..16u64 {
                let p = UBig::from(2 * (offset + i) + 3);
                prop_assert_eq!(weighted_home_tile_for(&p, &weights), home_tile_for(&p, tiles));
                prop_assert_eq!(
                    weighted_rendezvous_ranking(&p, &weights),
                    rendezvous_ranking(&p, tiles)
                );
            }
        }
    }

    /// **Monotonicity.** Raising one tile's weight only ever pulls
    /// moduli onto that tile — a modulus already homed there never
    /// leaves, and no modulus moves between two *other* tiles. This
    /// bounds the re-home cost of a capacity upgrade to the moduli
    /// the upgraded tile wins.
    #[test]
    fn raising_one_tiles_weight_never_moves_a_modulus_away(
        tiles in 2usize..=6,
        raised in 0usize..6,
        mult in 2u32..=64,
        offset in 0u64..10_000,
    ) {
        let raised = raised % tiles;
        let before = vec![1u32; tiles];
        let mut after = before.clone();
        after[raised] = mult;
        for i in 0..16u64 {
            let p = UBig::from(2 * (offset + i) + 3);
            let b = weighted_home_tile_for(&p, &before);
            let a = weighted_home_tile_for(&p, &after);
            if b == Some(raised) {
                prop_assert_eq!(a, Some(raised), "a raised tile never loses a modulus");
            } else {
                prop_assert!(
                    a == b || a == Some(raised),
                    "a modulus may only move TO the raised tile (was {:?}, now {:?})",
                    b,
                    a
                );
            }
        }
    }
}

proptest! {
    // Each case stands up a live cluster, so keep the count modest —
    // the property is exact (zero rehomed), not statistical.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// **A weight-1 republish is a placement no-op.** Re-publishing a
    /// tile's existing weight bumps the membership epoch but re-homes
    /// nothing — the live-cluster twin of
    /// `all_equal_weights_reproduce_the_unweighted_planner`.
    #[test]
    fn weight_one_republish_rehomes_nothing(
        tiles in 1usize..=4,
        tile in 0usize..4,
        offset in 0u64..1000,
    ) {
        let tile = tile % tiles;
        let cluster = ServiceCluster::for_engine_name("barrett", tiles, quick_config()).unwrap();
        // Track some moduli so the re-home pass has homes to recount.
        for i in 0..12u64 {
            let p = UBig::from(2 * (offset + i) + 101);
            cluster
                .submit(MulJob::new(UBig::from(7u64), UBig::from(9u64), p))
                .unwrap()
                .wait()
                .unwrap();
        }
        let epoch0 = cluster.membership_epoch();
        let change = cluster.set_tile_weight(tile, 1).unwrap();
        prop_assert!(change.epoch > epoch0, "a republish is a real epoch");
        prop_assert_eq!(change.rehomed_moduli, 0, "uniform weights move nothing");
        cluster.shutdown();
    }
}

#[test]
fn reweigh_mid_stream_loses_no_accepted_ticket() {
    // The weighted twin of `drain_mid_stream_loses_no_accepted_ticket`:
    // 4 submitter threads stream against a 4-tile cluster while the
    // main thread doubles one tile's weight (a live capacity upgrade)
    // and then publishes it back to 1. Every accepted ticket must
    // complete exactly once with the right product — jobs in flight
    // keep routing against their consistent membership snapshot.
    let cluster = ServiceCluster::for_engine_name(
        "montgomery",
        4,
        ClusterConfig {
            spill: SpillPolicy::Spill { max_hops: 2 },
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 128,
                max_batch: 16,
            },
            probation_after: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let moduli: Vec<UBig> = [97u64, 1_000_003, 999_979, 0xffff_fffb, 2_000_003, 750_019]
        .map(UBig::from)
        .to_vec();
    // Raise a tile that does NOT home tenant 0, so the upgrade can
    // actually pull moduli onto it.
    let home0 = cluster
        .home_tile(&moduli[0])
        .expect("a routable tile homes tenant 0");
    let upgraded = (home0 + 1) % 4;
    let all_tickets: std::sync::Mutex<Vec<(MulJob, Ticket)>> = std::sync::Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let handle = cluster.handle();
            let moduli = &moduli;
            let all_tickets = &all_tickets;
            scope.spawn(move || {
                let mut tickets: Vec<(MulJob, Ticket)> = Vec::new();
                for i in 0..4_000u64 {
                    let p = moduli[((t + i) % 6) as usize].clone();
                    let job = MulJob::new(
                        UBig::from(t * 1_000_003 + i * 17 + 1),
                        UBig::from(t * 999_979 + i * 31 + 2),
                        p,
                    );
                    match handle.submit(job.clone()) {
                        Ok(ticket) => tickets.push((job, ticket)),
                        // A reweigh must be invisible to producers.
                        Err(e) => panic!("submit failed during a reweigh: {e}"),
                    }
                }
                all_tickets.lock().unwrap().extend(tickets);
            });
        }
        // Let the submitters build real in-flight depth, then flip the
        // weight up and back down under load, each flip after another
        // eighth of the 16 000 jobs.
        wait_for_submitted(&cluster, 2_000);
        let up = cluster
            .set_tile_weight(upgraded, 8)
            .expect("live reweigh succeeds");
        assert_eq!(cluster.tile_weight(upgraded), Some(8));
        wait_for_submitted(&cluster, 4_000);
        let down = cluster
            .set_tile_weight(upgraded, 1)
            .expect("live reweigh back succeeds");
        assert!(down.epoch > up.epoch, "each publish is one atomic epoch");
    });

    // Every accepted ticket redeems exactly once, correctly.
    let tickets = all_tickets.into_inner().unwrap();
    let accepted = tickets.len() as u64;
    assert_eq!(accepted, 16_000, "every submission was accepted");
    for (job, ticket) in &tickets {
        assert_eq!(ticket.wait().unwrap(), oracle(job));
    }
    let stats = cluster.stats();
    assert_eq!(
        stats.completed + stats.failed,
        accepted,
        "every accepted ticket completed exactly once (no leak, no double-complete)"
    );
    assert_eq!(stats.failed, 0, "all moduli are montgomery-valid");
    assert_eq!(
        stats.tiles.iter().map(|t| t.weight).collect::<Vec<_>>(),
        vec![1, 1, 1, 1],
        "the fleet ended uniform again"
    );
    cluster.shutdown();
}

#[test]
fn drain_mid_stream_loses_no_accepted_ticket() {
    // 4 submitter threads stream against a 4-tile cluster; the main
    // thread drains one tile while they are mid-stream. Every accepted
    // ticket must complete exactly once with the right product —
    // drained-tile jobs via its paused-queue drain, re-routed jobs on
    // the survivors.
    let cluster = ServiceCluster::for_engine_name(
        "montgomery",
        4,
        ClusterConfig {
            spill: SpillPolicy::Spill { max_hops: 2 },
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 128,
                max_batch: 16,
            },
            probation_after: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let moduli: Vec<UBig> = [97u64, 1_000_003, 999_979, 0xffff_fffb, 2_000_003, 750_019]
        .map(UBig::from)
        .to_vec();
    // Drain a tile that actually homes at least one tenant, so the
    // drain forces a live re-home, not a no-op.
    let victim = cluster
        .home_tile(&moduli[0])
        .expect("a routable tile homes modulus 0");
    let all_tickets: std::sync::Mutex<Vec<(MulJob, Ticket)>> = std::sync::Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let handle = cluster.handle();
            let moduli = &moduli;
            let all_tickets = &all_tickets;
            scope.spawn(move || {
                let mut tickets: Vec<(MulJob, Ticket)> = Vec::new();
                for i in 0..4_000u64 {
                    let p = moduli[((t + i) % 6) as usize].clone();
                    let job = MulJob::new(
                        UBig::from(t * 1_000_003 + i * 17 + 1),
                        UBig::from(t * 999_979 + i * 31 + 2),
                        p,
                    );
                    match handle.submit(job.clone()) {
                        Ok(ticket) => tickets.push((job, ticket)),
                        // Only a full shutdown may refuse — a drain
                        // must be invisible to producers.
                        Err(e) => panic!("submit failed during a drain: {e}"),
                    }
                }
                all_tickets.lock().unwrap().extend(tickets);
            });
        }
        // Let the submitters build real in-flight depth (3 000 of
        // their 16 000 jobs), then drain the victim tile under load.
        wait_for_submitted(&cluster, 3_000);
        let report = cluster.drain_tile(victim).expect("live drain succeeds");
        assert_eq!(report.active_tiles, 3);
    });

    // Every accepted ticket redeems exactly once, correctly.
    let tickets = all_tickets.into_inner().unwrap();
    let accepted = tickets.len() as u64;
    assert_eq!(accepted, 16_000, "every submission was accepted");
    for (job, ticket) in &tickets {
        assert_eq!(ticket.wait().unwrap(), oracle(job));
    }
    let stats = cluster.stats();
    assert_eq!(
        stats.completed + stats.failed,
        accepted,
        "every accepted ticket completed exactly once (no leak, no double-complete)"
    );
    assert_eq!(stats.failed, 0, "all moduli are montgomery-valid");
    // The drained tile is empty and sidelined; its moduli moved.
    assert_eq!(stats.tiles[victim].state, TileState::Drained);
    assert_eq!(stats.tiles[victim].health.queue_depth, 0);
    assert!(stats.tiles[victim].health.paused);
    assert_ne!(cluster.home_tile(&moduli[0]), Some(victim));
    assert!(stats.tiles_drained == 1 && stats.moduli_rehomed > 0);
    cluster.shutdown();
}

#[test]
fn blocked_submit_rideses_out_a_drain_of_its_home() {
    // Public-API twin of the in-module stopped-home regression test:
    // a blocking submit parked on its full home queue must survive
    // that tile being *drained* mid-wait by re-routing to a live tile.
    let tile = ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        max_batch: 1,
    };
    let config = ClusterConfig {
        spill: SpillPolicy::Strict,
        service: tile.clone(),
        probation_after: 2,
        ..Default::default()
    };
    // Every multiplication waits at one shut gate: the home tile stays
    // saturated until the test opens it, whatever the scheduler does.
    let gate = Gate::new();
    let cluster = ServiceCluster::new(vec![gated_pool(&gate), gated_pool(&gate)], config);
    let p = (0..64u64)
        .map(|i| UBig::from(1_000_003u64 + 2 * i))
        .find(|p| cluster.home_tile(p) == Some(0))
        .expect("some modulus homes on tile 0");
    let warm = saturate_gated_home(&cluster, &gate, &p, &tile);

    let job = MulJob::new(UBig::from(11u64), UBig::from(13u64), p.clone());
    let want = oracle(&job);
    let waiter = std::thread::spawn({
        let handle = cluster.handle();
        move || handle.submit(job)
    });
    // Drain the home under the waiter, parked or not yet submitted.
    // The drain pauses admissions (waking a parked waiter to re-route)
    // and blocks until the tile's backlog delivers, which needs the
    // gate open, so it runs on a helper.
    std::thread::scope(|scope| {
        let drain = scope.spawn(|| cluster.drain_tile(0));
        let ticket = waiter
            .join()
            .unwrap()
            .expect("blocked submit must re-route to the live tile, not fail");
        gate.open();
        let report = drain.join().unwrap().unwrap();
        assert_eq!(report.active_tiles, 1);
        assert_eq!(ticket.wait().unwrap(), want);
    });
    // The drain delivered the whole warm backlog too.
    for t in &warm {
        assert!(t.is_done(), "drain returned with a pending ticket");
    }
    let stats = cluster.stats();
    assert_eq!(
        stats.tiles[1].service.submitted, 1,
        "re-route landed on tile 1"
    );
    cluster.shutdown();
}

#[test]
fn drain_probation_readmit_add_lifecycle() {
    // The full elasticity loop on one cluster: drain a tile, serve
    // without it, probe it back in (its moduli come home), then grow
    // the cluster with a brand-new tile.
    let cluster = ServiceCluster::for_engine_name("barrett", 3, quick_config()).unwrap();
    let moduli: Vec<UBig> = (0..30u64).map(|i| UBig::from(2 * i + 1_001)).collect();
    let run = |tag: u64| {
        let mut tickets = Vec::new();
        for (i, p) in moduli.iter().enumerate() {
            let job = MulJob::new(
                UBig::from(tag + i as u64 + 2),
                UBig::from(tag + i as u64 + 3),
                p.clone(),
            );
            let want = oracle(&job);
            tickets.push((cluster.submit(job).unwrap(), want));
        }
        for (t, want) in &tickets {
            assert_eq!(&t.wait().unwrap(), want);
        }
    };
    run(0);
    let before: Vec<Option<usize>> = moduli.iter().map(|p| cluster.home_tile(p)).collect();
    let victim = before[0].expect("modulus 0 homes on a routable tile");
    let epoch0 = cluster.membership_epoch();

    // Drain: victim's moduli move, the rest stay (proptest covers the
    // exact set; here we just exercise the lifecycle end to end).
    let drained = cluster.drain_tile(victim).unwrap();
    assert!(drained.epoch > epoch0);
    assert!(drained.rehomed_moduli > 0, "victim homed tracked moduli");
    let victim_jobs_before = cluster.stats().tiles[victim].service.submitted;
    run(100);
    assert_eq!(
        cluster.stats().tiles[victim].service.submitted,
        victim_jobs_before,
        "a drained tile takes no new work"
    );

    // Probation: a drained healthy tile passes every probe; after
    // `probation_after = 2` consecutive passes it is re-admitted and
    // its moduli return.
    assert_eq!(cluster.probe_tiles().readmitted, Vec::<usize>::new());
    let probe = cluster.probe_tiles();
    assert_eq!(probe.readmitted, vec![victim]);
    assert_eq!(cluster.tile_state(victim), Some(TileState::Active));
    let after_readmit: Vec<Option<usize>> = moduli.iter().map(|p| cluster.home_tile(p)).collect();
    assert_eq!(after_readmit, before, "re-admission restores every home");
    run(200);

    // Growth: a fresh tile joins at a fresh index and wins only the
    // moduli it out-scores everywhere.
    let extra = ModSramService::for_engine_name("barrett", quick_config().service).unwrap();
    let added = cluster.add_tile(extra).unwrap();
    assert_eq!(added.tile, 3);
    assert_eq!(added.active_tiles, 4);
    for (i, p) in moduli.iter().enumerate() {
        let h = cluster.home_tile(p);
        assert!(
            h == before[i] || h == Some(3),
            "modulus {i} may only move onto the new tile"
        );
    }
    run(300);
    let stats = cluster.shutdown();
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.tiles_drained, 1);
    assert_eq!(stats.tiles_readmitted, 1);
    assert_eq!(stats.tiles_added, 1);

    // Membership ops on a stopped cluster are refused.
    assert_eq!(cluster.drain_tile(0).err(), Some(CoreError::ClusterStopped));
}
