//! The multi-tile cluster sweep: closed-loop throughput and affinity
//! across tiles × spill policy, a deterministic saturation probe of
//! the spill-vs-shed trade-off (acceptance: one spill hop accepts
//! ≥ 1.5× what `Strict` does), the **elasticity sweep** — a live
//! drain-under-load → probation re-admission → live-add cycle whose
//! acceptance gates are zero lost tickets in every phase and ≥ 95 %
//! affinity in the first full window after the add
//! (`results/elasticity_sweep.json`) — and the **weighted sweep**
//! (`results/weighted_sweep.json`): modulus share vs weight share on
//! a 2:1:1:1 fleet (±10 %), equal-weights ≡ legacy placement, a
//! capacity-normalised makespan win for the weighted router, and zero
//! lost tickets through a live `set_tile_weight`.
//!
//! ```sh
//! cargo run --release --bin cluster
//! # CI-sized run:
//! cargo run --release --bin cluster -- --jobs-per-tenant 16 --per-combo 2
//! ```
//!
//! The headline column is the **modelled speedup**: the ratio of
//! 1-tile to N-tile modelled makespan (busiest tile's device-cycle
//! occupancy), the multi-macro throughput a rack of independent
//! ModSRAM tiles achieves. It is deterministic on any host; the wall
//! column only tracks it when the host has a core per lane. The lane
//! speedup inside one tile is the perfbench ladder's
//! `dispatch.busy_speedup`, and streamed cluster throughput is its
//! cluster rung. Acceptance: ≥ 1.8× at 2 tiles, ≥ 3× at 4
//! tiles on r4csa-lut, with affinity hit rate ≥ 90% at moderate load.

use modsram_bench::{
    cluster_spill_probe, cluster_sweep, elasticity_sweep, print_table, weighted_sweep,
    write_json_artifact, ClusterSweepSpec, ElasticitySweepSpec, WeightedSweepSpec,
};

struct Args {
    engine: String,
    bits: usize,
    tiles: Vec<usize>,
    policies: Vec<String>,
    jobs_per_tenant: usize,
    per_combo: usize,
    submitters: usize,
    workers: usize,
    probe_offered: u64,
    elasticity_tiles: usize,
    elasticity_tenants: usize,
    elasticity_jobs: usize,
    weighted_moduli: usize,
    weighted_per_tile: usize,
    weighted_jobs: usize,
    reweigh_jobs: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            engine: "r4csa-lut".to_string(),
            bits: 256,
            tiles: vec![1, 2, 4],
            policies: vec!["strict".to_string(), "spill1".to_string()],
            jobs_per_tenant: 32,
            per_combo: 3,
            submitters: 4,
            workers: 4,
            probe_offered: 64,
            elasticity_tiles: 4,
            elasticity_tenants: 12,
            elasticity_jobs: 480,
            weighted_moduli: 4000,
            weighted_per_tile: 15,
            weighted_jobs: 12,
            reweigh_jobs: 600,
        }
    }
}

fn parse_usize_list(v: &str) -> Vec<usize> {
    v.split(',')
        .map(|s| s.trim().parse().expect("comma-separated integers"))
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().expect("flag needs a value");
        match flag.as_str() {
            "--engine" => args.engine = value(),
            "--bits" => args.bits = value().parse().expect("integer"),
            "--tiles" => args.tiles = parse_usize_list(&value()),
            "--policies" => {
                args.policies = value().split(',').map(|s| s.trim().to_string()).collect()
            }
            "--jobs-per-tenant" => args.jobs_per_tenant = value().parse().expect("integer"),
            "--per-combo" => args.per_combo = value().parse().expect("integer"),
            "--submitters" => args.submitters = value().parse().expect("integer"),
            "--workers" => args.workers = value().parse().expect("integer"),
            "--probe-offered" => args.probe_offered = value().parse().expect("integer"),
            "--elasticity-tiles" => args.elasticity_tiles = value().parse().expect("integer"),
            "--elasticity-tenants" => args.elasticity_tenants = value().parse().expect("integer"),
            "--elasticity-jobs" => args.elasticity_jobs = value().parse().expect("integer"),
            "--weighted-moduli" => args.weighted_moduli = value().parse().expect("integer"),
            "--weighted-per-tile" => args.weighted_per_tile = value().parse().expect("integer"),
            "--weighted-jobs" => args.weighted_jobs = value().parse().expect("integer"),
            "--reweigh-jobs" => args.reweigh_jobs = value().parse().expect("integer"),
            other => panic!("unknown flag '{other}'"),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    let rows = cluster_sweep(&ClusterSweepSpec {
        engine: args.engine.clone(),
        bits: args.bits,
        tile_counts: args.tiles.clone(),
        policies: args.policies.clone(),
        jobs_per_tenant: args.jobs_per_tenant,
        per_combo: args.per_combo,
        workers_per_tile: args.workers,
        seed: 0xC1A5,
    });
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.tiles.to_string(),
                r.policy.clone(),
                r.jobs.to_string(),
                r.modelled_makespan_cycles.to_string(),
                format!("{:.2}x", r.modelled_speedup),
                format!("{:.1}%", r.affinity_hit_rate * 100.0),
                r.spilled.to_string(),
                format!("{:.0}", r.wall_jobs_per_s),
                format!("{:?}", r.per_tile_submitted),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Cluster sweep: {} at {} bits ({} tenants x {} jobs, {} lanes/tile, one producer per tile)",
            args.engine,
            args.bits,
            rows.first().map_or(0, |r| r.tenants),
            args.jobs_per_tenant,
            args.workers,
        ),
        &[
            "tiles",
            "policy",
            "jobs",
            "makespan cyc",
            "modelled",
            "affinity",
            "spilled",
            "wall jobs/s",
            "per-tile",
        ],
        &table,
    );

    let probe = cluster_spill_probe(args.probe_offered, &args.policies);
    let probe_table: Vec<Vec<String>> = probe
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.offered.to_string(),
                r.accepted.to_string(),
                r.spilled.to_string(),
                r.shed.to_string(),
            ]
        })
        .collect();
    print_table(
        "Saturation probe: one hot tenant, 2 gated tiles, tiny queues",
        &["policy", "offered", "accepted", "spilled", "shed"],
        &probe_table,
    );

    let artifact = serde_json::json!({
        "sweep": rows.iter().map(|r| serde_json::json!({
            "tiles": r.tiles,
            "policy": r.policy.clone(),
            "jobs": r.jobs,
            "tenants": r.tenants,
            "wall_jobs_per_s": r.wall_jobs_per_s,
            "modelled_makespan_cycles": r.modelled_makespan_cycles,
            "modelled_speedup": r.modelled_speedup,
            "affinity_hit_rate": r.affinity_hit_rate,
            "spilled": r.spilled,
            "per_tile_submitted": r.per_tile_submitted.clone(),
        })).collect::<Vec<_>>(),
        "saturation_probe": probe.iter().map(|r| serde_json::json!({
            "policy": r.policy.clone(),
            "offered": r.offered,
            "accepted": r.accepted,
            "spilled": r.spilled,
            "shed": r.shed,
        })).collect::<Vec<_>>(),
    });
    let path = write_json_artifact("cluster_sweep", &artifact);
    println!("\nartifact: {path}");

    for r in &rows {
        if r.tiles > 1 {
            println!(
                "{} tiles ({}): {:.2}x modelled closed-loop speedup, affinity {:.1}%",
                r.tiles,
                r.policy,
                r.modelled_speedup,
                r.affinity_hit_rate * 100.0
            );
        }
    }
    // Acceptance: spilling relieves a saturated home. The probe's
    // gated tiles make both counts exact (strict 5, spill1 10).
    let accepted = |label: &str| probe.iter().find(|r| r.policy == label).map(|r| r.accepted);
    if let (Some(strict), Some(spill)) = (accepted("strict"), accepted("spill1")) {
        let relief = spill as f64 / strict.max(1) as f64;
        println!("saturation probe: spill1 accepts {spill}, strict {strict} ({relief:.2}x)");
        assert!(
            relief >= 1.5,
            "spill acceptance: spill1 accepted {spill}, under 1.5x strict's {strict}"
        );
    }

    // --- Elasticity: drain-under-load → probation → live add ------------
    let phases = elasticity_sweep(&ElasticitySweepSpec {
        engine: args.engine.clone(),
        bits: args.bits,
        tiles: args.elasticity_tiles,
        tenants: args.elasticity_tenants,
        jobs_per_phase: args.elasticity_jobs,
        submitters: args.submitters,
        workers_per_tile: args.workers,
        seed: 0xE1A5,
    });
    let phase_table: Vec<Vec<String>> = phases
        .iter()
        .map(|r| {
            vec![
                r.phase.clone(),
                r.active_tiles.to_string(),
                r.membership_epoch.to_string(),
                r.jobs.to_string(),
                format!("{:.0}", r.wall_jobs_per_s),
                format!("{:.1}%", r.affinity_hit_rate * 100.0),
                r.lost_tickets.to_string(),
                r.rehomed_moduli.to_string(),
                format!("{:.1}%", r.moved_tile_share * 100.0),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Elasticity sweep: {} at {} bits ({} tiles, {} tenants, {} jobs/phase)",
            args.engine,
            args.bits,
            args.elasticity_tiles,
            args.elasticity_tenants,
            args.elasticity_jobs
        ),
        &[
            "phase",
            "active",
            "epoch",
            "jobs",
            "wall jobs/s",
            "affinity",
            "lost",
            "rehomed",
            "moved share",
        ],
        &phase_table,
    );

    let elasticity_artifact = serde_json::json!({
        "engine": args.engine.clone(),
        "bits": args.bits,
        "tiles": args.elasticity_tiles,
        "tenants": args.elasticity_tenants,
        "jobs_per_phase": args.elasticity_jobs,
        "phases": phases.iter().map(|r| serde_json::json!({
            "phase": r.phase.clone(),
            "active_tiles": r.active_tiles,
            "membership_epoch": r.membership_epoch,
            "jobs": r.jobs,
            "wall_jobs_per_s": r.wall_jobs_per_s,
            "affinity_hit_rate": r.affinity_hit_rate,
            "lost_tickets": r.lost_tickets,
            "rehomed_moduli": r.rehomed_moduli,
            "moved_tile_share": r.moved_tile_share,
        })).collect::<Vec<_>>(),
    });
    let epath = write_json_artifact("elasticity_sweep", &elasticity_artifact);
    println!("\nelasticity artifact: {epath}");

    let lost: u64 = phases.iter().map(|r| r.lost_tickets).sum();
    let post_add = phases.last().expect("phases non-empty");
    println!(
        "elasticity: {} phases, {} lost tickets, post-add affinity {:.1}% ({} active tiles)",
        phases.len(),
        lost,
        post_add.affinity_hit_rate * 100.0,
        post_add.active_tiles
    );
    assert_eq!(lost, 0, "elasticity acceptance: zero lost tickets");
    assert!(
        post_add.affinity_hit_rate >= 0.95,
        "elasticity acceptance: post-add affinity {:.3} < 0.95",
        post_add.affinity_hit_rate
    );

    // --- Weighted routing --------------------------------------------------
    let weighted = weighted_sweep(&WeightedSweepSpec {
        engine: args.engine.clone(),
        bits: args.bits,
        planner_moduli: args.weighted_moduli,
        per_tile: args.weighted_per_tile,
        jobs_per_tenant: args.weighted_jobs,
        submitters: args.submitters,
        reweigh_jobs: args.reweigh_jobs,
        seed: 0x57E1,
    });

    let share_table: Vec<Vec<String>> = weighted
        .share
        .weights
        .iter()
        .enumerate()
        .map(|(tile, &w)| {
            vec![
                tile.to_string(),
                w.to_string(),
                format!("{:.1}%", weighted.share.weight_share[tile] * 100.0),
                format!("{:.1}%", weighted.share.share[tile] * 100.0),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Weighted share: {} moduli over a 2:1:1:1 fleet (max rel err {:.1}%, {} moved at equal weights)",
            weighted.share.moduli,
            weighted.share.max_rel_err * 100.0,
            weighted.share.equal_weight_moved
        ),
        &["tile", "weight", "weight share", "modulus share"],
        &share_table,
    );

    print_table(
        &format!(
            "Weighted makespan: {} jobs on a fleet whose tile 0 is a 2x macro",
            weighted.makespan.jobs
        ),
        &["router", "makespan cyc (cap-normalised)", "per-tile"],
        &[
            vec![
                "weighted".to_string(),
                weighted.makespan.weighted_makespan_cycles.to_string(),
                format!("{:?}", weighted.makespan.weighted_per_tile),
            ],
            vec![
                "unweighted".to_string(),
                weighted.makespan.unweighted_makespan_cycles.to_string(),
                format!("{:?}", weighted.makespan.unweighted_per_tile),
            ],
        ],
    );

    println!(
        "live reweigh: {} accepted, {} lost, {} rehomed up / {} back, {} on republish",
        weighted.reweigh.accepted,
        weighted.reweigh.lost_tickets,
        weighted.reweigh.rehomed_up,
        weighted.reweigh.rehomed_down,
        weighted.reweigh.republish_rehomed
    );

    let weighted_artifact = serde_json::json!({
        "engine": args.engine.clone(),
        "bits": args.bits,
        "share": {
            "weights": weighted.share.weights.clone(),
            "moduli": weighted.share.moduli,
            "share": weighted.share.share.clone(),
            "weight_share": weighted.share.weight_share.clone(),
            "max_rel_err": weighted.share.max_rel_err,
            "equal_weight_moved": weighted.share.equal_weight_moved,
        },
        "makespan": {
            "capacity": weighted.makespan.capacity.clone(),
            "jobs": weighted.makespan.jobs,
            "weighted_makespan_cycles": weighted.makespan.weighted_makespan_cycles,
            "unweighted_makespan_cycles": weighted.makespan.unweighted_makespan_cycles,
            "makespan_gain": weighted.makespan.makespan_gain,
            "weighted_per_tile": weighted.makespan.weighted_per_tile.clone(),
            "unweighted_per_tile": weighted.makespan.unweighted_per_tile.clone(),
        },
        "live_reweigh": {
            "accepted": weighted.reweigh.accepted,
            "lost_tickets": weighted.reweigh.lost_tickets,
            "rehomed_up": weighted.reweigh.rehomed_up,
            "rehomed_down": weighted.reweigh.rehomed_down,
            "republish_rehomed": weighted.reweigh.republish_rehomed,
        },
    });
    let wpath = write_json_artifact("weighted_sweep", &weighted_artifact);
    println!("\nweighted artifact: {wpath}");

    // Acceptance: the weighted-routing gates, asserted in-binary
    // so CI fails loudly rather than publishing a regressed artifact.
    assert!(
        weighted.share.max_rel_err <= 0.10,
        "weighted acceptance: modulus share off weight share by {:.1}% (> 10%)",
        weighted.share.max_rel_err * 100.0
    );
    assert_eq!(
        weighted.share.equal_weight_moved, 0,
        "weighted acceptance: equal weights must reproduce the legacy placement"
    );
    assert_eq!(
        weighted.reweigh.republish_rehomed, 0,
        "weighted acceptance: a weight-1 republish must move nothing"
    );
    assert!(
        weighted.makespan.makespan_gain > 1.0,
        "weighted acceptance: weighted makespan {} must beat unweighted {}",
        weighted.makespan.weighted_makespan_cycles,
        weighted.makespan.unweighted_makespan_cycles
    );
    assert_eq!(
        weighted.reweigh.lost_tickets, 0,
        "weighted acceptance: zero lost tickets through a live reweigh"
    );
}
