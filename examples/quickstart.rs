//! Quickstart: stream multiplications through a single-tile
//! `ModSramService`, scale the same traffic out to a multi-tile
//! `ServiceCluster`, serve it to remote callers over the TCP wire
//! protocol, then drop down to the prepare/execute engine API and the
//! cycle-accurate ModSRAM macro underneath it all.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use modsram::arch::ModSram;
use modsram::bigint::UBig;
use modsram::modmul::{CarryFreeEngine, ModMulEngine, MontgomeryEngine, R4CsaLutEngine};
use modsram::net::{
    NetBackend, TenantLimits, TenantRegistry, WireClient, WireConfig, WireResponse, WireServer,
};
use modsram::{
    AutoTuner, ClusterConfig, ModSramService, MulJob, ServiceCluster, ServiceConfig, TunePolicy,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The secp256k1 field prime — a 256-bit modulus, the paper's target.
    let p = UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")?;

    let a = UBig::from_hex("7234567812345678123456781234567812345678123456781234567812345678")?;
    let b = UBig::from_hex("0fedcba9876543210fedcba9876543210fedcba9876543210fedcba987654321")?;

    // ---- The streaming service: the serving entry point ------------------
    // A ModSramService owns a bounded submission queue, executor
    // threads that each take whatever has queued up (at most
    // `max_batch` jobs) as one batch, and the dispatch workers that
    // execute each batch. Producers hold cloneable handles and never
    // stage batches themselves.
    let service = ModSramService::for_engine_name(
        "r4csa-lut", // the paper's engine; any registry engine works
        ServiceConfig {
            workers: 4,
            queue_capacity: 1024,
            max_batch: 256,
        },
    )?;

    // Four producer threads stream jobs and redeem tickets.
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let handle = service.handle();
            let p = p.clone();
            let b = b.clone();
            scope.spawn(move || {
                for i in 0..50u64 {
                    let a = UBig::from(t * 1_000_003 + i * 17 + 1);
                    // Blocking submit: waits when the queue is full
                    // (use try_submit to shed load instead).
                    let ticket = handle
                        .submit(MulJob::new(a.clone(), b.clone(), p.clone()))
                        .expect("service running");
                    let c = ticket.wait().expect("valid modulus");
                    assert_eq!(c, &(&a * &b) % &p);
                }
            });
        }
    });

    // Graceful shutdown drains every in-flight ticket and returns the
    // final statistics — including latency percentiles in both
    // wall-clock time and modelled device cycles.
    let stats = service.shutdown();
    println!("streaming service:");
    println!("  jobs completed   : {}", stats.completed);
    println!(
        "  coalesced        : {:.1} jobs/batch over {} batches",
        stats.coalesce_mean, stats.batches
    );
    println!(
        "  latency p50/p99  : {:.1}/{:.1} us wall, {}/{} modelled cycles",
        stats.wall_p50_ns as f64 / 1000.0,
        stats.wall_p99_ns as f64 / 1000.0,
        stats.modelled_p50_cycles,
        stats.modelled_p99_cycles
    );

    // ---- Scale-out: the same traffic across a cluster of tiles -----------
    // A ServiceCluster owns N tiles and routes each job to its
    // modulus's rendezvous home tile, so per-modulus coalescing (and
    // the paper's LUT reuse) survives the sharding. On backpressure
    // jobs spill to the modulus's next-ranked tile (SpillPolicy::Spill),
    // and a tile whose executor keeps panicking is routed around.
    let cluster = ServiceCluster::for_engine_name("r4csa-lut", 2, ClusterConfig::default())?;
    let moduli = [p.clone(), UBig::from(0xffff_fffb_u64)];
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let handle = cluster.handle();
            let moduli = &moduli;
            scope.spawn(move || {
                for i in 0..25u64 {
                    let p = &moduli[((t + i) % 2) as usize];
                    let a = UBig::from(t * 999_979 + i * 13 + 1);
                    let b = UBig::from(i / 8 + 2); // multiplicand reuse runs
                    let ticket = handle
                        .submit(MulJob::new(a.clone(), b.clone(), p.clone()))
                        .expect("cluster running");
                    assert_eq!(ticket.wait().expect("valid modulus"), &(&a * &b) % p);
                }
            });
        }
    });
    let cstats = cluster.shutdown();
    println!("\nservice cluster (2 tiles):");
    println!("  jobs completed   : {}", cstats.completed);
    println!(
        "  affinity         : {:.1}% home-tile hits, {} spilled",
        cstats.affinity_hit_rate() * 100.0,
        cstats.spilled
    );
    for (i, tile) in cstats.tiles.iter().enumerate() {
        println!(
            "  tile {i}           : {} routed, {} spilled in, {} modelled cycles",
            tile.routed, tile.spilled_in, tile.service.modelled_cycles_total
        );
    }

    // ---- Elasticity: change tile membership at runtime -------------------
    // Membership is an epoch-versioned snapshot, so tiles can be
    // drained for maintenance (admissions pause, the queue delivers
    // every accepted ticket, and ONLY the drained tile's moduli
    // re-home — each re-homed modulus pays one cold LUT fill on its
    // new tile, everyone else's warmth is untouched), re-admitted by
    // health probation, and added live for capacity.
    let cluster = ServiceCluster::for_engine_name(
        "r4csa-lut",
        3,
        ClusterConfig {
            probation_after: 2, // consecutive clean probes to re-admit
            ..Default::default()
        },
    )?;
    // Route once so the router tracks the modulus (re-home accounting
    // covers the moduli the cluster has actually seen).
    cluster
        .submit(MulJob::new(a.clone(), b.clone(), p.clone()))?
        .wait()
        .expect("valid modulus");
    let victim = cluster.home_tile(&p).expect("a routable tile homes p");
    let report = cluster.drain_tile(victim)?; // live: safe under traffic
    println!("\nelasticity:");
    println!(
        "  drained tile {victim}   : epoch {}, {} moduli re-homed, {} tiles active",
        report.epoch, report.rehomed_moduli, report.active_tiles
    );
    assert_ne!(cluster.home_tile(&p), Some(victim), "modulus failed over");
    let ticket = cluster.submit(MulJob::new(a.clone(), b.clone(), p.clone()))?;
    ticket
        .wait()
        .expect("survivors serve the drained tile's moduli");
    // Probation: the drained tile passes `probation_after` consecutive
    // health probes and re-enters the routable set; its moduli return
    // (and pay one LUT refill coming home).
    cluster.probe_tiles();
    let probe = cluster.probe_tiles();
    println!("  re-admitted      : tiles {:?}", probe.readmitted);
    assert_eq!(cluster.home_tile(&p), Some(victim), "modulus came home");
    // Growth: a brand-new tile joins at the next index and wins only
    // the moduli it out-scores everywhere.
    let extra = ModSramService::for_engine_name("r4csa-lut", ServiceConfig::default())?;
    let added = cluster.add_tile(extra)?;
    println!(
        "  added tile {}     : epoch {}, {} moduli re-homed onto it",
        added.tile, added.epoch, added.rehomed_moduli
    );
    // ---- Weighted routing: heterogeneous tiles ---------------------------
    // Tiles need not be equal. A capacity weight inside the membership
    // snapshot gives a bigger macro a proportionally larger modulus
    // share: doubling tile 0's weight is one atomic epoch publish plus
    // the same minimal re-home pass a drain runs — only moduli pulled
    // ONTO tile 0 move (each pays one LUT fill there), and a weight-1
    // republish moves nothing.
    let reweigh = cluster.set_tile_weight(0, 2)?;
    println!(
        "  tile 0 weight 2  : epoch {}, {} moduli pulled onto it",
        reweigh.epoch, reweigh.rehomed_moduli
    );
    let wstats = cluster.stats();
    println!(
        "  tile weights     : {:?}",
        wstats.tiles.iter().map(|t| t.weight).collect::<Vec<_>>()
    );
    cluster.shutdown();

    // ---- Serving over the wire: the TCP front-end ------------------------
    // A WireServer fronts the same tile/cluster handles with a
    // length-prefixed binary protocol. Tenants authenticate with an
    // API key, admission control answers backpressure with typed
    // retry-after frames instead of stalling the socket, and
    // responses stream back in completion order under
    // client-assigned request ids — the blocking WireClient files
    // out-of-order arrivals locally, so callers redeem ids in any
    // order they like.
    let cluster = ServiceCluster::for_engine_name("r4csa-lut", 2, ClusterConfig::default())?;
    let registry = Arc::new(TenantRegistry::new());
    registry.register(
        "acme",
        0xACE,
        TenantLimits {
            max_inflight: 64,
            ..Default::default()
        },
    );
    let server = WireServer::bind(
        "127.0.0.1:0",
        NetBackend::Cluster(cluster.handle()),
        registry,
        WireConfig::default(),
    )?;
    let mut client = WireClient::connect(server.local_addr(), "acme", 0xACE)?;
    let jobs: Vec<MulJob> = (1..=8u64)
        .map(|i| MulJob::new(UBig::from(i * 104_729), b.clone(), p.clone()))
        .collect();
    let ids: Vec<u64> = client.submit_batch(jobs.clone())?.collect();
    // Redeem in reverse submission order — arrival order is the
    // server's business, not the caller's.
    for (&id, job) in ids.iter().zip(&jobs).rev() {
        match client.wait(id)? {
            WireResponse::Done(product) => assert_eq!(product, &(&job.a * &job.b) % &job.modulus),
            other => panic!("admission refused a tiny batch: {other:?}"),
        }
    }
    let delivered = client.close()?;
    let net = server.shutdown();
    cluster.shutdown();
    println!("\nwire front-end:");
    println!(
        "  delivered        : {} responses over TCP ({} said by the server's Bye)",
        net.completed,
        delivered.expect("clean goodbye"),
    );
    println!(
        "  frames in/out    : {}/{} ({}/{} bytes)",
        net.frames_in, net.frames_out, net.bytes_in, net.bytes_out
    );
    println!(
        "  wire p50/p99     : {:.1}/{:.1} us request-to-response",
        net.wire_p50_ns as f64 / 1000.0,
        net.wire_p99_ns as f64 / 1000.0
    );

    // ---- Self-tuning engine selection -------------------------------------
    // Instead of naming an engine, let the service measure: under
    // TunePolicy::Race the first prepare of each modulus races every
    // parity-legal engine on a deterministic, oracle-checked
    // calibration batch and pins the winner (montgomery is skipped
    // for even moduli automatically). The measured table is an
    // EngineProfile keyed by (bit_width, parity).
    let service = ModSramService::auto(TunePolicy::race(), ServiceConfig::default());
    let even = UBig::from(1_000_006u64);
    for p in [&p, &even] {
        let ticket = service.submit(MulJob::new(a.clone(), b.clone(), p.clone()))?;
        assert_eq!(ticket.wait().expect("valid modulus"), &(&a * &b) % p);
    }
    let stats = service.shutdown();
    let tuning = stats.autotune.expect("auto service reports tuning stats");
    println!("\nself-tuning service:");
    println!(
        "  policy {}: {} moduli tuned in {} races ({:.2} ms calibration)",
        tuning.policy,
        tuning.tuned_moduli,
        tuning.races_run,
        tuning.calibration_ns as f64 / 1e6
    );
    for (engine, wins) in &tuning.engine_wins {
        println!("  winner           : {engine} x{wins}");
    }

    // Day two: warm a Profile pool from the table the races filled in
    // — the same winners, no races paid. (bin/autotune persists such
    // a table to results/engine_profile.json; EngineProfile::load
    // warm-starts from disk.)
    let race_tuner = AutoTuner::new(TunePolicy::race());
    race_tuner.prepare(&p)?;
    let chosen = race_tuner
        .chosen_engine(&p)
        .expect("race committed a choice");
    let warmed = AutoTuner::with_profile(TunePolicy::Profile, race_tuner.profile_snapshot());
    warmed.prepare(&p)?;
    assert_eq!(warmed.chosen_engine(&p).expect("table hit"), chosen);
    assert_eq!(warmed.stats().races_run, 0, "profile pools never race");
    println!("  profile warm-start re-picks {chosen} without racing: ok");

    // ---- The engine layer: prepare once, execute hot -----------------------
    let ctx = R4CsaLutEngine::new().prepare(&p)?;
    let c = ctx.mod_mul(&a, &b)?;
    println!("\nA*B mod p   = 0x{}", c.to_hex());
    assert_eq!(c, &(&a * &b) % &p, "must match big-integer arithmetic");

    // Montgomery amortisation, the reason the API is split: the R²/−p⁻¹
    // constants are computed once, so the context multiplies in two REDC
    // passes instead of the four the per-call engine spells out.
    let mont = MontgomeryEngine::new().prepare(&p)?;
    assert_eq!(mont.mod_mul(&a, &b)?, c);
    println!("montgomery context agrees: ok");

    // The carry-free engine accumulates in carry-save form and reduces
    // by inspecting overflow bits, so carries propagate only in the
    // final normalize — and unlike Montgomery it accepts any modulus
    // parity, covering the even moduli REDC must refuse.
    let cf = CarryFreeEngine::new().prepare(&p)?;
    assert_eq!(cf.mod_mul(&a, &b)?, c);
    let even = UBig::from(1_000_000u64);
    let cf_even = CarryFreeEngine::new().prepare(&even)?;
    assert_eq!(cf_even.mod_mul(&a, &b)?, &(&a * &b) % &even);
    println!("carryfree context agrees (odd and even moduli): ok");

    // When does laning win? mod_mul_batch transposes batches of
    // LANE_MIN_PAIRS (4) or more pairs into structure-of-arrays lanes,
    // advancing eight multiplications per limb pass; shorter batches
    // run scalar because the transpose doesn't amortise (r4csa-lut
    // runs even one multiplication on its laned loop). The win is
    // several-fold on the bit/digit-serial engines (r4csa-lut,
    // carryfree) and >= 1.3x on montgomery/barrett at 256 bits —
    // `cargo run --release --bin hotpath` sweeps it on your host.
    let pairs: Vec<(UBig, UBig)> = (1..=16u64)
        .map(|i| (UBig::from(i * 7919), b.clone()))
        .collect();
    let batch = mont.mod_mul_batch(&pairs)?; // 16 pairs: the laned path
    for ((x, y), got) in pairs.iter().zip(&batch) {
        assert_eq!(got, &(&(x * y) % &p));
    }
    println!("laned batch of {} agrees: ok", pairs.len());

    // ---- The accelerator as a prepared context ---------------------------
    // The cycle-accurate device offers the same two-phase shape; its
    // context holds a modulus-loaded 64x256 8T macro (Table 2 wordlines
    // written once — the paper's §3.2 data-reuse claim).
    let device_ctx = ModSram::for_modulus(&p)?.prepare(&p)?;
    assert_eq!(device_ctx.mod_mul(&a, &b)?, c);
    println!("prepared ModSRAM device agrees: ok");

    // For run statistics, drive the device directly.
    let mut device = ModSram::for_modulus(&p)?;
    let (c2, run) = device.mod_mul(&a, &b)?;
    assert_eq!(c2, c);
    println!("\ndevice run statistics:");
    println!("  cycles           : {} (paper Table 3: 767)", run.cycles);
    println!("  iterations       : {} radix-4 digits", run.iterations);
    println!("  SRAM activations : {}", run.activations);
    println!("  energy (modelled): {:.1} pJ", run.energy_pj);
    println!("  latency @420 MHz : {:.2} us", run.latency_us(420.0));

    // The LUTs are reused while B and p stay the same (the paper's
    // data-reuse claim): a second multiplication does no precompute.
    let before = device.precompute_total.clone();
    let (_, run2) = device.mod_mul(&UBig::from(12345u64), &b)?;
    assert_eq!(device.precompute_total, before);
    println!("\nsecond multiply reused the LUTs: {} cycles", run2.cycles);

    // ---- Keeping the stack honest ----------------------------------------
    // Everything above leans on concurrency invariants (no-panic hot
    // paths, a declared lock hierarchy, Acquire/Release on data-gating
    // atomics) that `cargo test` cannot see. The in-repo analyzer
    // checks them statically — CI runs it as a tier-1 step, and any
    // intentional exception must carry a reasoned
    // `// analyzer: allow(rule, reason)` annotation:
    //
    //     cargo run -p modsram_analyzer --release -- --deny
    println!(
        "\n(invariants are machine-checked: cargo run -p modsram_analyzer --release -- --deny)"
    );
    Ok(())
}
