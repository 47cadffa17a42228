//! Data collection for every table and figure in the paper's evaluation.

use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use modsram_baselines::{BpNttModel, DataOrg, MenttModel};
use modsram_bigint::{ubig_below, UBig};
use modsram_core::cluster::{
    home_tile_for, weighted_home_tile_for, ClusterConfig, ServiceCluster, SpillPolicy,
};
use modsram_core::dispatch::MulJob;
use modsram_core::service::{ModSramService, ServiceConfig, Ticket};
use modsram_core::test_util::{gated_pool, Gate};
use modsram_core::{BankedModSram, ModSram, ModSramConfig, RunStats};
use modsram_modmul::{engine_by_name, CycleModel, LutOverflow, R4CsaLutEngine};
use modsram_phys::{AreaModel, Component, FreqModel};
use modsram_zkp::{figure7, MsmPreset, WorkloadCounts};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One bitwidth point of Figure 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig1Point {
    /// Operand bitwidth.
    pub bits: usize,
    /// R4CSA-LUT (this work): `3n − 1`.
    pub ours: u64,
    /// MeNTT analytic: `(n+1)²`.
    pub mentt: u64,
    /// MeNTT projected from its 16-bit design point.
    pub mentt_projected: u64,
    /// BP-NTT linear model.
    pub bpntt: u64,
}

/// Figure 1: cycles vs bitwidth for the algorithm comparison.
pub fn fig1_data() -> Vec<Fig1Point> {
    let ours = R4CsaLutEngine::new();
    let mentt = MenttModel::new();
    let bpntt = BpNttModel::new();
    [8usize, 16, 32, 64, 128, 256]
        .iter()
        .map(|&bits| Fig1Point {
            bits,
            ours: ours.cycles(bits),
            mentt: mentt.cycles(bits),
            mentt_projected: mentt.projected_cycles(bits),
            bpntt: bpntt.cycles(bits),
        })
        .collect()
}

/// Figure 3: the 5-bit dataflow trace (A=10101, B=10010, p=11000),
/// rendered one line per cycle.
pub fn fig3_trace() -> (Vec<String>, UBig) {
    let config = ModSramConfig {
        n_bits: 5,
        trace: true,
        ..Default::default()
    };
    let mut dev = ModSram::new(config).expect("64 rows suffice");
    dev.load_modulus(&UBig::from(0b11000u64)).expect("valid p");
    let (result, _) = dev
        .mod_mul(&UBig::from(0b10101u64), &UBig::from(0b10010u64))
        .expect("paper example");
    let lines = dev.last_trace.iter().map(|s| s.render(6)).collect();
    (lines, result)
}

/// Figure 5: component areas (µm²), shares, total, and overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Data {
    /// `(component name, area µm², share)` in Figure 5 order.
    pub components: Vec<(&'static str, f64, f64)>,
    /// Total area, mm².
    pub total_mm2: f64,
    /// Overhead vs a plain SRAM macro (§5.3's 32 %).
    pub overhead: f64,
    /// Modelled clock, MHz (§5.3's 420 MHz).
    pub fmax_mhz: f64,
}

/// Figure 5 + the §5.3 frequency/overhead numbers.
pub fn fig5_data() -> Fig5Data {
    let model = AreaModel::modsram_default();
    let b = model.modsram_breakdown();
    let components = Component::all()
        .iter()
        .zip(b.component_um2.iter())
        .map(|(&c, &um2)| (c.name(), um2, b.share(c)))
        .collect();
    Fig5Data {
        components,
        total_mm2: b.total_mm2(),
        overhead: model.overhead_vs_plain(),
        fmax_mhz: FreqModel::tsmc65().fmax_mhz(),
    }
}

/// Figure 6: the data-organisation comparison at 256 bits.
pub fn fig6_data() -> DataOrg {
    DataOrg::at_bits(256)
}

/// Figure 7: measured NTT/MSM op counts. `log_n = 15` reproduces the
/// paper's operating point (takes a few seconds in release builds).
pub fn fig7_data(log_n: usize) -> [WorkloadCounts; 2] {
    figure7(log_n, MsmPreset::Auto)
}

/// A measured 256-bit multiplication on the cycle-accurate device,
/// returning its stats (cycles = 767 for MSB-clear multipliers).
pub fn measured_modsram_run() -> RunStats {
    let p = UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
        .expect("const");
    let mut dev = ModSram::for_modulus(&p).expect("default geometry");
    let a = &UBig::pow2(255) - &UBig::from(3u64);
    let b = &UBig::pow2(254) + &UBig::from(5u64);
    // Clear bit 255 so the paper's ⌈n/2⌉ iteration count applies.
    let a = a.with_bit(255, false);
    let (_, stats) = dev.mod_mul(&a, &b).expect("in-range operands");
    stats
}

/// Table 3 rows with our measured cycle count and modelled area.
pub fn table3_data() -> Vec<modsram_baselines::Table3Row> {
    let stats = measured_modsram_run();
    let area = AreaModel::modsram_default().modsram_breakdown().total_mm2();
    modsram_baselines::table3_rows(stats.cycles, area)
}

/// The `lut_usage` experiment: a random-operand sweep recording which
/// overflow-LUT indices the exact-accounting algorithm touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LutUsage {
    /// Histogram over all 16 allocated entries.
    pub histogram: [u64; LutOverflow::ENTRIES],
    /// Highest index observed.
    pub max_index: usize,
    /// Multiplications performed.
    pub samples: u64,
    /// `true` when everything stayed within the paper's 8-entry Table 2.
    pub within_paper_table: bool,
}

/// Runs the `lut_usage` sweep: `samples` random 256-bit multiplications.
pub fn lut_usage(samples: u64, seed: u64) -> LutUsage {
    use modsram_modmul::ModMulEngine;
    let p = UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
        .expect("const");
    let mut engine = R4CsaLutEngine::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..samples {
        let a = ubig_below(&mut rng, &p);
        let b = ubig_below(&mut rng, &p);
        engine.mod_mul(&a, &b, &p).expect("valid modulus");
    }
    let histogram = *engine.cumulative_ov_histogram();
    let max_index = histogram
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &c)| c > 0)
        .map(|(i, _)| i)
        .unwrap_or(0);
    LutUsage {
        histogram,
        max_index,
        samples,
        within_paper_table: max_index < LutOverflow::PAPER_ENTRIES,
    }
}

/// One engine × bitwidth × run-length point of the lane-vectorization
/// sweep behind `results/hotpath_sweep.json`: the forced scalar batch
/// path against the forced laned batch path on identical operands.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathSweepRow {
    /// Engine name from the registry.
    pub engine: &'static str,
    /// Operand bitwidth.
    pub bits: usize,
    /// Pairs multiplied per mode.
    pub pairs: usize,
    /// Multiplicand run length: consecutive pairs sharing one `b`. At 1
    /// every R4CSA multiplication is its own run, the cost of a tile's
    /// first job for a modulus; at 8 a run fills the default lanes.
    pub run: usize,
    /// Lane count of the laned pass.
    pub lanes: usize,
    /// Nanoseconds per multiplication, forced scalar batch (best pass).
    pub scalar_ns: f64,
    /// Nanoseconds per multiplication, forced laned batch (best pass).
    pub laned_ns: f64,
    /// `scalar_ns / laned_ns` — the lane-vectorization win.
    pub speedup: f64,
}

/// The engines with a structure-of-arrays laned batch path, in sweep
/// order.
pub const HOTPATH_ENGINES: [&str; 4] = ["montgomery", "barrett", "r4csa-lut", "carryfree"];

/// Multiplicand run lengths the hot-path sweep times: single jobs, and
/// runs of 8 (the locality the service's batch sort produces).
pub const HOTPATH_RUNS: [usize; 2] = [1, 8];

/// Runs the scalar-vs-laned sweep at each bitwidth and each of
/// [`HOTPATH_RUNS`] over `pairs` operand pairs whose multiplicands repeat
/// in runs of that length. Each mode is timed best-of-`reps`; both modes
/// are asserted identical to the big-integer oracle every pass.
///
/// # Panics
///
/// Panics if either path diverges from the oracle — an engine bug, not
/// a measurement artifact.
pub fn hotpath_sweep(
    bits_list: &[usize],
    pairs_for_bits: impl Fn(usize) -> usize,
    reps: usize,
    seed: u64,
) -> Vec<HotpathSweepRow> {
    use modsram_modmul::DEFAULT_LANES;
    let mut rows = Vec::new();
    for &bits in bits_list {
        let pairs = pairs_for_bits(bits).max(1);
        let p = sweep_modulus(bits);
        for run in HOTPATH_RUNS {
            let mut rng = SmallRng::seed_from_u64(seed ^ bits as u64);
            let operands: Vec<(UBig, UBig)> = {
                let mut out = Vec::with_capacity(pairs);
                let mut b = ubig_below(&mut rng, &p);
                for i in 0..pairs {
                    if i % run == 0 {
                        b = ubig_below(&mut rng, &p);
                    }
                    out.push((ubig_below(&mut rng, &p), b.clone()));
                }
                out
            };
            let oracle: Vec<UBig> = operands.iter().map(|(a, b)| &(a * b) % &p).collect();
            for name in HOTPATH_ENGINES {
                let engine = engine_by_name(name).expect("registry name");
                let prep = engine.prepare(&p).expect("odd sweep modulus");
                let mut scalar_best = f64::INFINITY;
                let mut laned_best = f64::INFINITY;
                for _ in 0..reps.max(1) {
                    let start = Instant::now();
                    let scalar = prep.mod_mul_batch_scalar(&operands).expect("scalar path");
                    scalar_best = scalar_best.min(start.elapsed().as_secs_f64());
                    let start = Instant::now();
                    let laned = prep
                        .mod_mul_batch_laned(&operands, DEFAULT_LANES)
                        .expect("laned path");
                    laned_best = laned_best.min(start.elapsed().as_secs_f64());
                    assert_eq!(scalar, oracle, "{name}: scalar diverged at {bits} bits");
                    assert_eq!(laned, oracle, "{name}: laned diverged at {bits} bits");
                }
                let scalar_ns = scalar_best * 1e9 / pairs as f64;
                let laned_ns = laned_best * 1e9 / pairs as f64;
                rows.push(HotpathSweepRow {
                    engine: name,
                    bits,
                    pairs,
                    run,
                    lanes: DEFAULT_LANES,
                    scalar_ns,
                    laned_ns,
                    speedup: scalar_ns / laned_ns,
                });
            }
        }
    }
    rows
}

/// Picks the sweep modulus for a bitwidth (shared by the hot-path and
/// banked-device sweeps): the named 64/256-bit primes, else a
/// full-width odd value.
fn sweep_modulus(bits: usize) -> UBig {
    match bits {
        64 => UBig::from(0xffff_ffff_ffff_ffc5u64),
        256 => UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .expect("const"),
        _ => &UBig::pow2(bits) - &UBig::from(1u64),
    }
}

/// One bank-count point of the cycle-accurate device sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BankSweepRow {
    /// Banks in the tile.
    pub banks: usize,
    /// Operand bitwidth.
    pub bits: usize,
    /// Pairs in the batch.
    pub pairs: usize,
    /// Busiest bank's cycles (multiplications + LUT refills).
    pub makespan_cycles: u64,
    /// Modelled speedup: summed per-bank cycles over the makespan.
    pub speedup: f64,
    /// Total array energy for the batch, picojoules.
    pub energy_pj: f64,
}

/// Runs the banked-device sweep: the same batch on tiles of 1..n
/// cycle-accurate macros, reporting the deterministic cycle-modelled
/// speedup-vs-banks.
///
/// # Panics
///
/// Panics if a tile rejects the batch or diverges from the oracle.
pub fn banked_device_sweep(
    bits: usize,
    pairs: usize,
    banks_list: &[usize],
    seed: u64,
) -> Vec<BankSweepRow> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let p = sweep_modulus(bits);
    let operands: Vec<(UBig, UBig)> = (0..pairs)
        .map(|_| (ubig_below(&mut rng, &p), ubig_below(&mut rng, &p)))
        .collect();
    let oracle: Vec<UBig> = operands.iter().map(|(a, b)| &(a * b) % &p).collect();
    banks_list
        .iter()
        .map(|&banks| {
            let config = ModSramConfig {
                n_bits: bits,
                ..Default::default()
            };
            let tile = BankedModSram::new(banks, config, &p).expect("valid tile");
            let (results, stats) = tile.mod_mul_batch(&operands).expect("in-range batch");
            assert_eq!(results, oracle, "banked tile diverged");
            BankSweepRow {
                banks,
                bits,
                pairs,
                makespan_cycles: stats.makespan_cycles,
                speedup: stats.speedup(),
                energy_pj: stats.energy_pj,
            }
        })
        .collect()
}

/// One `(tiles, policy)` point of the multi-tile cluster sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSweepRow {
    /// Tiles in the cluster.
    pub tiles: usize,
    /// Spill policy label (`strict` or `spill<hops>`).
    pub policy: String,
    /// Jobs executed in the measured (post-warm-up) phase.
    pub jobs: usize,
    /// Distinct tenant moduli in the workload.
    pub tenants: usize,
    /// Closed-loop wall throughput, jobs per second (host-core bound —
    /// only meaningful when the host has a core per lane).
    pub wall_jobs_per_s: f64,
    /// The busiest tile's modelled occupancy in device cycles — the
    /// cluster's modelled makespan (tiles are independent macros).
    pub modelled_makespan_cycles: u64,
    /// Modelled closed-loop throughput speedup vs the same policy's
    /// smallest swept tile count (normally 1): `makespan₁ /
    /// makespanₙ` — the headline that is deterministic on any host.
    /// The per-worker lane speedup inside one tile is the perfbench
    /// ladder's `dispatch.busy_speedup`.
    pub modelled_speedup: f64,
    /// Fraction of accepted jobs that landed on their home tile.
    pub affinity_hit_rate: f64,
    /// Jobs that landed off their home tile.
    pub spilled: u64,
    /// Measured-phase jobs accepted per tile (routing balance;
    /// excludes warm-up, so the entries sum to `jobs`).
    pub per_tile_submitted: Vec<u64>,
}

/// Per-combo tenant targets that are simultaneously balanced at every
/// tile count in `levels` (ascending). Rendezvous homes nest: if a
/// modulus's home at the largest count is tile `d`, then its home at
/// any smaller count `t > d` is *forced* to `d` (tile `d` already
/// out-scores tiles `0..t`), while counts `t ≤ d` are free. The
/// allocator walks levels largest-first, splits the total evenly over
/// that level's homes, pins the forced smaller levels, and recurses
/// into the free ones — producing only *consistent* combos, each with
/// an integral target.
fn alloc_home_targets(levels: &[usize], total: usize) -> Vec<(Vec<usize>, usize)> {
    let Some((&last, rest)) = levels.split_last() else {
        return vec![(Vec::new(), total)];
    };
    let share = total / last;
    let mut out = Vec::new();
    for d in 0..last {
        let free: Vec<usize> = rest.iter().copied().filter(|&t| t <= d).collect();
        let forced = rest.len() - free.len();
        for (sub, n) in alloc_home_targets(&free, share) {
            let mut combo = sub;
            combo.extend(std::iter::repeat_n(d, forced));
            combo.push(d);
            out.push((combo, n));
        }
    }
    out
}

/// Draws tenant moduli of exactly `bits` bits whose rendezvous homes
/// are load-balanced at *every* swept cluster size simultaneously
/// (`per_combo` moduli per consistent home combination — the tenant
/// count is `per_combo × Π tiles`). This is the steady state a
/// capacity planner provisions for; a skewed tenant mix spills
/// instead (see [`cluster_spill_probe`]).
fn balanced_tenant_moduli(
    bits: usize,
    tile_counts: &[usize],
    per_combo: usize,
    rng: &mut SmallRng,
) -> Vec<UBig> {
    let mut multi: Vec<usize> = tile_counts.iter().copied().filter(|&t| t > 1).collect();
    multi.sort_unstable();
    multi.dedup();
    let total: usize = multi.iter().product::<usize>() * per_combo;
    let targets: std::collections::HashMap<Vec<usize>, usize> =
        alloc_home_targets(&multi, total).into_iter().collect();
    let top = UBig::pow2(bits - 1);
    let mut buckets: std::collections::HashMap<Vec<usize>, Vec<UBig>> =
        std::collections::HashMap::new();
    let mut found = 0usize;
    for _ in 0..500_000 {
        if found == total {
            break;
        }
        // Exactly `bits` bits, odd (valid for the Montgomery family
        // and the LUT engines alike).
        let mut p = &top + &ubig_below(rng, &top);
        if &p % &UBig::from(2u64) == UBig::from(0u64) {
            p = &p + &UBig::from(1u64);
        }
        let key: Vec<usize> = multi
            .iter()
            .map(|&t| home_tile_for(&p, t).expect("at least one tile"))
            .collect();
        let Some(&target) = targets.get(&key) else {
            continue;
        };
        let bucket = buckets.entry(key).or_default();
        if bucket.len() < target {
            bucket.push(p);
            found += 1;
        }
    }
    assert_eq!(found, total, "failed to fill every home-tile bucket");
    let mut keys: Vec<Vec<usize>> = buckets.keys().cloned().collect();
    keys.sort();
    keys.into_iter()
        .flat_map(|k| buckets.remove(&k).expect("key from the map"))
        .collect()
}

/// Parses a spill-policy label: `"strict"` or `"spill<hops>"`
/// (e.g. `spill1`) — shared by [`cluster_sweep`] and
/// [`cluster_spill_probe`] so the two cannot drift.
fn parse_policy_label(label: &str) -> SpillPolicy {
    if label == "strict" {
        SpillPolicy::Strict
    } else if let Some(hops) = label.strip_prefix("spill") {
        SpillPolicy::Spill {
            max_hops: hops.parse().expect("spill<hops> label"),
        }
    } else {
        panic!("unknown policy label '{label}' (use strict or spill<hops>)")
    }
}

/// The shape of one [`cluster_sweep`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSweepSpec {
    /// Engine name from the registry.
    pub engine: String,
    /// Operand bitwidth of the tenant moduli.
    pub bits: usize,
    /// Tile counts to sweep; the smallest (normally 1) becomes the
    /// speedup baseline, whatever order they are given in.
    pub tile_counts: Vec<usize>,
    /// Policy labels: `"strict"` or `"spill<hops>"` (e.g. `spill1`).
    pub policies: Vec<String>,
    /// Measured jobs per tenant modulus.
    pub jobs_per_tenant: usize,
    /// Tenants per consistent home combination (tenant count is
    /// `per_combo × Π tile_counts`).
    pub per_combo: usize,
    /// Modelled lanes per tile.
    pub workers_per_tile: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

/// Sends every job to its home tile and checks each product against
/// `oracle`. One producer thread per home tile sends that tile's whole
/// share with one blocking `submit_many`, so every tile queues its jobs
/// in one fixed order and forms the same batches in every run: the
/// modelled makespans are deterministic.
///
/// # Panics
///
/// Panics on a stopped cluster or a diverged result.
fn send_home_shares(cluster: &ServiceCluster, jobs: &[MulJob], oracle: &[UBig]) {
    let mut shares: Vec<Vec<usize>> = vec![Vec::new(); cluster.tiles()];
    for (i, job) in jobs.iter().enumerate() {
        let home = cluster
            .home_tile(&job.modulus)
            .expect("every tile routable");
        shares[home].push(i);
    }
    std::thread::scope(|scope| {
        for share in &shares {
            let handle = cluster.handle();
            scope.spawn(move || {
                let tickets = handle
                    .submit_many(share.iter().map(|&i| jobs[i].clone()).collect())
                    .expect("running");
                for (&i, ticket) in share.iter().zip(&tickets) {
                    assert_eq!(
                        ticket.wait().expect("valid modulus"),
                        oracle[i],
                        "cluster job {i} diverged"
                    );
                }
            });
        }
    });
}

/// Runs the closed-loop cluster sweep over `tile_counts` ×
/// `policies`: a balanced multi-tenant workload (tenants'
/// rendezvous homes cover every swept tile count evenly, multiplicands
/// repeat in runs of 8 per tenant) runs through a fresh
/// [`ServiceCluster`] per point, after a one-job-per-tenant warm-up
/// that pays context preparation and is then excluded from the
/// latency window via [`ServiceCluster::reset_window`]. Jobs go out
/// through [`send_home_shares`], so the modelled makespan and speedup
/// columns are deterministic.
///
/// # Panics
///
/// Panics on an unknown engine/policy label or a diverged result.
pub fn cluster_sweep(spec: &ClusterSweepSpec) -> Vec<ClusterSweepRow> {
    let ClusterSweepSpec {
        engine,
        bits,
        tile_counts,
        policies,
        jobs_per_tenant,
        per_combo,
        workers_per_tile,
        seed,
    } = spec;
    let (bits, jobs_per_tenant, per_combo, workers_per_tile) =
        (*bits, *jobs_per_tenant, *per_combo, *workers_per_tile);
    let mut rng = SmallRng::seed_from_u64(*seed);
    let tenants = balanced_tenant_moduli(bits, tile_counts, per_combo, &mut rng);

    // Tenant-interleaved job order: every tile's share mixes its
    // tenants, with multiplicand reuse runs of 8 inside each tenant.
    let mut per_tenant_b: Vec<UBig> = tenants.iter().map(|p| ubig_below(&mut rng, p)).collect();
    let mut jobs: Vec<MulJob> = Vec::with_capacity(tenants.len() * jobs_per_tenant);
    for i in 0..jobs_per_tenant {
        for (t, p) in tenants.iter().enumerate() {
            if i % 8 == 0 {
                per_tenant_b[t] = ubig_below(&mut rng, p);
            }
            jobs.push(MulJob::new(
                ubig_below(&mut rng, p),
                per_tenant_b[t].clone(),
                p.clone(),
            ));
        }
    }
    let oracle: Vec<UBig> = jobs.iter().map(|j| &(&j.a * &j.b) % &j.modulus).collect();

    // Sweep tile counts ascending so the speedup baseline (the
    // smallest swept count, normally 1) is always measured first.
    let mut tile_counts = tile_counts.clone();
    tile_counts.sort_unstable();
    tile_counts.dedup();

    let mut rows = Vec::new();
    for policy_label in policies {
        let mut baseline_makespan: Option<u64> = None;
        for &tiles in &tile_counts {
            let cluster = ServiceCluster::for_engine_name(
                engine,
                tiles,
                ClusterConfig {
                    spill: parse_policy_label(policy_label),
                    service: ServiceConfig {
                        workers: workers_per_tile,
                        queue_capacity: 8192,
                        max_batch: 256,
                    },
                    poison_after: 3,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|_| panic!("unknown engine '{engine}'"));

            // Warm-up: prepare every tenant's context on its home
            // tile, then open a fresh stats window so percentiles and
            // coalesce shape describe the steady-state phase only.
            let warmup: Vec<Ticket> = tenants
                .iter()
                .map(|p| {
                    cluster
                        .submit(MulJob::new(UBig::from(2u64), UBig::from(3u64), p.clone()))
                        .expect("cluster running")
                })
                .collect();
            for t in &warmup {
                t.wait().expect("warm-up job valid");
            }
            let warmup_stats = cluster.stats();
            cluster.reset_window();

            let start = Instant::now();
            send_home_shares(&cluster, &jobs, &oracle);
            let elapsed = start.elapsed().as_secs_f64();
            let stats = cluster.shutdown();
            assert_eq!(stats.failed, 0, "balanced workload never fails");

            // Subtract the warm-up phase per tile *before* taking the
            // max, so the makespan covers the measured jobs only even
            // when a different tile was busiest during warm-up.
            let makespan = stats
                .tiles
                .iter()
                .zip(&warmup_stats.tiles)
                .map(|(t, w)| {
                    t.service
                        .modelled_cycles_total
                        .saturating_sub(w.service.modelled_cycles_total)
                })
                .max()
                .unwrap_or(0);
            // The smallest swept tile count (normally 1) is the
            // speedup baseline; tile_counts was sorted above, so it is
            // always measured before the larger points.
            let base = *baseline_makespan.get_or_insert(makespan);
            let speedup = if makespan > 0 {
                base as f64 / makespan as f64
            } else {
                1.0
            };
            rows.push(ClusterSweepRow {
                tiles,
                policy: policy_label.clone(),
                jobs: jobs.len(),
                tenants: tenants.len(),
                wall_jobs_per_s: jobs.len() as f64 / elapsed,
                modelled_makespan_cycles: makespan,
                modelled_speedup: speedup,
                affinity_hit_rate: stats.affinity_hit_rate(),
                spilled: stats.spilled,
                per_tile_submitted: stats
                    .tiles
                    .iter()
                    .zip(&warmup_stats.tiles)
                    .map(|(t, w)| t.service.submitted - w.service.submitted)
                    .collect(),
            });
        }
    }
    rows
}

/// One policy point of the deterministic saturation probe.
#[derive(Debug, Clone, PartialEq)]
pub struct SpillProbeRow {
    /// Spill policy label.
    pub policy: String,
    /// Jobs offered via `try_submit` to one hot tenant.
    pub offered: u64,
    /// Jobs accepted somewhere in the cluster.
    pub accepted: u64,
    /// Accepted jobs that landed off the hot tenant's home tile.
    pub spilled: u64,
    /// Jobs refused with `AllTilesSaturated`.
    pub shed: u64,
}

/// The policy trade-off made measurable: one hot tenant bursts
/// `offered` non-blocking submissions at a 2-tile cluster of gated
/// tiles with tiny queues. Each tile's one-lane executor holds the
/// first job it takes at the shut gate, so a tile admits exactly one
/// job plus a full queue, whatever the scheduler does. `Strict` sheds
/// everything beyond the home tile while the other tile idles; `Spill`
/// fills the neighbour first and sheds less. The gate opens after the
/// burst, and every accepted job is verified against the oracle.
pub fn cluster_spill_probe(offered: u64, policies: &[String]) -> Vec<SpillProbeRow> {
    policies
        .iter()
        .map(|label| {
            let spill = parse_policy_label(label);
            let gate = Gate::new();
            let cluster = ServiceCluster::new(
                vec![gated_pool(&gate), gated_pool(&gate)],
                ClusterConfig {
                    spill,
                    service: ServiceConfig {
                        workers: 1,
                        queue_capacity: 4,
                        max_batch: 1,
                    },
                    poison_after: 0,
                    ..Default::default()
                },
            );
            // A modulus homed on tile 0 — the hot tenant (the
            // standalone planner predicts the live cluster's routing).
            let p = (0..64u64)
                .map(|i| UBig::from(1_000_003u64 + 2 * i))
                .find(|p| home_tile_for(p, 2) == Some(0))
                .expect("some modulus homes on tile 0");
            let mut tickets = Vec::new();
            let mut shed = 0u64;
            for i in 0..offered {
                let job = MulJob::new(UBig::from(i + 2), UBig::from(i + 3), p.clone());
                match cluster.try_submit(job) {
                    Ok(t) => {
                        tickets.push((i, t));
                        // Every tile that has a job holds one at the
                        // gate before its queue fills any further.
                        let busy = cluster
                            .stats()
                            .tiles
                            .iter()
                            .filter(|t| t.service.submitted > 0)
                            .count();
                        gate.wait_entered(busy as u64);
                    }
                    Err(_) => shed += 1,
                }
            }
            gate.open();
            for (i, ticket) in &tickets {
                assert_eq!(
                    ticket.wait().expect("gated tile is correct"),
                    &UBig::from((i + 2) * (i + 3)) % &p,
                    "probe job {i} diverged"
                );
            }
            let stats = cluster.shutdown();
            SpillProbeRow {
                policy: label.clone(),
                offered,
                accepted: tickets.len() as u64,
                spilled: stats.spilled,
                shed,
            }
        })
        .collect()
}

/// One phase of the [`elasticity_sweep`]: a measurement window
/// delimited by [`ServiceCluster::reset_window`] calls, with the
/// affinity hit rate computed from counter deltas over exactly that
/// window.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticityPhaseRow {
    /// Phase label (`steady-4`, `drain-live`, `drained-3`,
    /// `readmit-4`, `add-5`).
    pub phase: String,
    /// Routable tiles at the end of the phase.
    pub active_tiles: usize,
    /// Membership epoch at the end of the phase.
    pub membership_epoch: u64,
    /// Jobs submitted (and verified) in this phase.
    pub jobs: u64,
    /// Closed-loop wall throughput over the phase (host-core bound).
    pub wall_jobs_per_s: f64,
    /// Fraction of this phase's accepted jobs that landed on their
    /// natural home tile (counter delta, not lifetime).
    pub affinity_hit_rate: f64,
    /// Accepted tickets that failed to deliver — the drain-safety
    /// headline; must be 0.
    pub lost_tickets: u64,
    /// Tracked moduli re-homed by this phase's membership change (0
    /// for steady phases).
    pub rehomed_moduli: u64,
    /// Fraction of tenants whose home was the moved tile when the
    /// change happened (the re-home fraction should track this — the
    /// minimal-disruption yardstick).
    pub moved_tile_share: f64,
}

/// The shape of one [`elasticity_sweep`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticitySweepSpec {
    /// Engine name from the registry.
    pub engine: String,
    /// Operand bitwidth of the tenant moduli.
    pub bits: usize,
    /// Tiles the cluster starts with.
    pub tiles: usize,
    /// Distinct tenant moduli.
    pub tenants: usize,
    /// Jobs per measurement phase.
    pub jobs_per_phase: usize,
    /// Concurrent submitter threads.
    pub submitters: usize,
    /// Modelled lanes per tile.
    pub workers_per_tile: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

/// The live-elasticity acceptance run: one cluster walks
/// steady → **drain under load** → drained steady → probation
/// re-admission → **live add**, with every phase a fresh
/// `reset_window()` measurement window. Each phase verifies every
/// ticket against the oracle and counts lost tickets (always 0 — the
/// drain path must deliver the drained tile's backlog and re-route
/// the rest). Membership-change phases record how many tracked moduli
/// re-homed against the moved tile's tenant share.
///
/// # Panics
///
/// Panics on an unknown engine, a diverged result, a lost ticket, or
/// a failed membership operation.
pub fn elasticity_sweep(spec: &ElasticitySweepSpec) -> Vec<ElasticityPhaseRow> {
    let ElasticitySweepSpec {
        engine,
        bits,
        tiles,
        tenants,
        jobs_per_phase,
        submitters,
        workers_per_tile,
        seed,
    } = spec;
    let (bits, tiles, tenants, jobs_per_phase, submitters, workers_per_tile) = (
        *bits,
        *tiles,
        *tenants,
        *jobs_per_phase,
        *submitters,
        *workers_per_tile,
    );
    let mut rng = SmallRng::seed_from_u64(*seed);
    let top = UBig::pow2(bits - 1);
    let moduli: Vec<UBig> = (0..tenants)
        .map(|_| {
            // Exactly `bits` bits, odd (valid for the Montgomery
            // family and the LUT engines alike).
            let mut p = &top + &ubig_below(&mut rng, &top);
            if &p % &UBig::from(2u64) == UBig::from(0u64) {
                p = &p + &UBig::from(1u64);
            }
            p
        })
        .collect();

    let service_config = ServiceConfig {
        workers: workers_per_tile,
        queue_capacity: 8192,
        max_batch: 256,
    };
    let cluster = ServiceCluster::for_engine_name(
        engine,
        tiles,
        ClusterConfig {
            spill: SpillPolicy::Spill { max_hops: 1 },
            service: service_config.clone(),
            poison_after: 3,
            probation_after: 2,
        },
    )
    .unwrap_or_else(|_| panic!("unknown engine '{engine}'"));

    // Warm-up: prepare every tenant's context on its home tile.
    for p in &moduli {
        cluster
            .submit(MulJob::new(UBig::from(2u64), UBig::from(3u64), p.clone()))
            .expect("cluster running")
            .wait()
            .expect("warm-up job valid");
    }

    // One phase = one measurement window: generate a tenant-interleaved
    // job list (multiplicand runs of 8 per tenant), stream it with
    // `submitters` threads, optionally perform a mid-stream membership
    // action, verify every ticket, and report windowed affinity.
    let mut phase_seed = *seed;
    let mut run_phase = |label: &str,
                         action: Option<&dyn Fn(&ServiceCluster)>,
                         rehomed: u64,
                         moved_share: f64|
     -> ElasticityPhaseRow {
        phase_seed = phase_seed.wrapping_add(0x9E37_79B9);
        let mut rng = SmallRng::seed_from_u64(phase_seed);
        let mut per_tenant_b: Vec<UBig> = moduli.iter().map(|p| ubig_below(&mut rng, p)).collect();
        let mut jobs: Vec<MulJob> = Vec::with_capacity(jobs_per_phase);
        for i in 0..jobs_per_phase {
            let t = i % moduli.len();
            if i % (8 * moduli.len()) < moduli.len() {
                per_tenant_b[t] = ubig_below(&mut rng, &moduli[t]);
            }
            jobs.push(MulJob::new(
                ubig_below(&mut rng, &moduli[t]),
                per_tenant_b[t].clone(),
                moduli[t].clone(),
            ));
        }
        let oracle: Vec<UBig> = jobs.iter().map(|j| &(&j.a * &j.b) % &j.modulus).collect();

        cluster.reset_window();
        let before = cluster.stats();
        let lost = std::sync::atomic::AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for s in 0..submitters {
                let handle = cluster.handle();
                let jobs = &jobs;
                let oracle = &oracle;
                let lost = &lost;
                scope.spawn(move || {
                    let mine: Vec<usize> =
                        (0..jobs.len()).filter(|i| i % submitters == s).collect();
                    let tickets: Vec<Ticket> = mine
                        .iter()
                        .map(|&i| handle.submit(jobs[i].clone()).expect("cluster routable"))
                        .collect();
                    for (&i, ticket) in mine.iter().zip(&tickets) {
                        match ticket.wait() {
                            Ok(got) => assert_eq!(got, oracle[i], "job {i} diverged"),
                            Err(_) => {
                                lost.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            if let Some(act) = action {
                // Let the submitters build real in-flight depth, then
                // change membership under load.
                std::thread::sleep(Duration::from_millis(10));
                act(&cluster);
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let after = cluster.stats();
        let accepted = after.submitted - before.submitted;
        assert_eq!(accepted as usize, jobs.len(), "phase accepted every job");
        let hits = after.affinity_hits - before.affinity_hits;
        ElasticityPhaseRow {
            phase: label.to_string(),
            active_tiles: after.active_tiles,
            membership_epoch: after.membership_epoch,
            jobs: accepted,
            wall_jobs_per_s: accepted as f64 / elapsed,
            affinity_hit_rate: if accepted == 0 {
                1.0
            } else {
                hits as f64 / accepted as f64
            },
            lost_tickets: lost.into_inner(),
            rehomed_moduli: rehomed,
            moved_tile_share: moved_share,
        }
    };

    let mut rows = Vec::new();
    rows.push(run_phase("steady-4", None, 0, 0.0));

    // Live drain: pick the tile homing tenant 0, measure its tenant
    // share, and drain it while the submitters stream.
    let victim = cluster
        .home_tile(&moduli[0])
        .expect("a routable tile homes tenant 0");
    let victim_share = moduli
        .iter()
        .filter(|p| cluster.home_tile(p) == Some(victim))
        .count() as f64
        / moduli.len() as f64;
    let drain_report = std::sync::Mutex::new(None);
    {
        let drain_report = &drain_report;
        rows.push(run_phase(
            "drain-live",
            Some(&move |c: &ServiceCluster| {
                let report = c.drain_tile(victim).expect("live drain succeeds");
                *drain_report.lock().unwrap() = Some(report);
            }),
            0,
            victim_share,
        ));
    }
    let drain_report = drain_report.into_inner().unwrap().expect("drain ran");
    rows.last_mut().unwrap().rehomed_moduli = drain_report.rehomed_moduli;

    rows.push(run_phase("drained-3", None, 0, 0.0));

    // Probation: first probe baselines, second re-admits (healthy
    // drained tile, probation_after = 2).
    cluster.probe_tiles();
    let probe = cluster.probe_tiles();
    assert_eq!(
        probe.readmitted,
        vec![victim],
        "probation re-admits the tile"
    );
    let readmit_rehomed = cluster.stats().moduli_rehomed - drain_report.rehomed_moduli;
    rows.push(run_phase("readmit-4", None, readmit_rehomed, victim_share));

    // Live add: a fresh tile joins under load.
    let add_report = std::sync::Mutex::new(None);
    {
        let add_report = &add_report;
        let engine = engine.to_string();
        let service_config = service_config.clone();
        rows.push(run_phase(
            "add-5",
            Some(&move |c: &ServiceCluster| {
                let extra = ModSramService::for_engine_name(&engine, service_config.clone())
                    .expect("engine exists");
                let report = c.add_tile(extra).expect("live add succeeds");
                *add_report.lock().unwrap() = Some(report);
            }),
            0,
            0.0,
        ));
    }
    let add_report = add_report.into_inner().unwrap().expect("add ran");
    let last = rows.last_mut().unwrap();
    last.rehomed_moduli = add_report.rehomed_moduli;
    last.moved_tile_share = moduli
        .iter()
        .filter(|p| cluster.home_tile(p) == Some(add_report.tile))
        .count() as f64
        / moduli.len() as f64;

    // A clean post-add window: affinity here is measured entirely
    // under the grown membership — the acceptance gate (≥ 95 % within
    // one reset_window() window of the add).
    rows.push(run_phase("steady-5", None, 0, 0.0));

    let stats = cluster.shutdown();
    assert_eq!(stats.failed, 0, "elasticity workload never fails");
    for row in &rows {
        assert_eq!(row.lost_tickets, 0, "phase '{}' lost tickets", row.phase);
    }
    rows
}

/// One `(bit_width, parity)` row of the autotune sweep: what the
/// self-tuning pool picked there and how it compares, on the same
/// oracle-checked operand batch, against the two pinned baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct AutotuneSweepRow {
    /// Operand/modulus bitwidth.
    pub bits: usize,
    /// `"odd"` or `"even"` — the modulus parity of the row.
    pub parity: &'static str,
    /// Pairs multiplied per timed pass.
    pub pairs: usize,
    /// The engine the autotuner chose for this row's modulus.
    pub chosen_engine: String,
    /// Nanoseconds per multiplication through the chosen engine
    /// (best-of-reps, oracle-checked every pass).
    pub auto_ns: f64,
    /// Always-`r4csa-lut` pinned baseline, same batch.
    pub r4csa_ns: f64,
    /// Always-`montgomery` pinned baseline; `None` on even rows where
    /// Montgomery cannot prepare the modulus at all.
    pub montgomery_ns: Option<f64>,
    /// `r4csa_ns / auto_ns`.
    pub speedup_vs_r4csa: f64,
    /// `montgomery_ns / auto_ns`, when the baseline exists.
    pub speedup_vs_montgomery: Option<f64>,
    /// Speedup against the **best** pinned baseline of the row — the
    /// win-condition column (`>= 1.0` everywhere, `> 1.15` on at least
    /// two rows).
    pub speedup_vs_best: f64,
}

/// The autotune sweep result: the chosen-engine matrix, the tuner's
/// aggregate counters, and the profile table the races filled in
/// (written to `results/engine_profile.json` by `bin/autotune`).
#[derive(Debug, Clone)]
pub struct AutotuneSweep {
    /// One row per `(bit_width, parity)` point.
    pub rows: Vec<AutotuneSweepRow>,
    /// The tuner's counters after the whole sweep (races, calibration
    /// nanoseconds, per-engine wins).
    pub stats: modsram_core::AutotuneStats,
    /// The measured profile the sweep's races produced.
    pub profile: modsram_core::EngineProfile,
}

/// Times every engine in `engines` on the same operand batch: one
/// untimed warmup pass each (page faults, allocator growth, and
/// branch-predictor warm-up land there, not in the first timed rep),
/// then the timed reps interleaved round-robin across the engines
/// with a per-engine minimum — so slow drift in process state hits
/// every engine equally instead of whichever happened to run last.
/// Every pass, warmup included, is asserted against `oracle`. Returns
/// `(engine, ns_per_mul)` in input order; one measurement per engine
/// name, so when the autotuner's choice is itself a baseline its
/// speedup is exactly 1.0 rather than measurement noise.
fn measure_row(
    engines: &[String],
    p: &UBig,
    operands: &[(UBig, UBig)],
    oracle: &[UBig],
    reps: usize,
) -> Vec<(String, f64)> {
    let prepared: Vec<_> = engines
        .iter()
        .map(|engine| {
            let prep = engine_by_name(engine)
                .expect("registry name")
                .prepare(p)
                .expect("parity-legal candidate");
            let warm = prep.mod_mul_batch(operands).expect("warmup batch");
            assert_eq!(warm, oracle, "{engine} diverged from the oracle");
            prep
        })
        .collect();
    let mut best = vec![f64::INFINITY; engines.len()];
    for _ in 0..reps.max(1) {
        for (i, prep) in prepared.iter().enumerate() {
            let start = Instant::now();
            let out = prep.mod_mul_batch(operands).expect("batch");
            best[i] = best[i].min(start.elapsed().as_secs_f64());
            assert_eq!(out, oracle, "{} diverged from the oracle", engines[i]);
        }
    }
    engines
        .iter()
        .zip(best)
        .map(|(engine, secs)| (engine.clone(), secs * 1e9 / operands.len() as f64))
        .collect()
}

/// The self-tuning sweep: one `TunePolicy::Race` tuner serves every
/// `(bit_width, parity)` modulus in `bits_list` × {odd, even}; each
/// row then times the chosen engine against the always-`r4csa-lut`
/// and always-`montgomery` pinned baselines on one shared operand
/// batch (multiplicand reuse runs of 8, like the service's batch sort
/// produces). Every calibration pass inside the tuner and every timed
/// pass here is checked against the big-integer oracle.
///
/// # Panics
///
/// Panics if any engine diverges from the oracle — an engine bug, not
/// a measurement artifact.
pub fn autotune_sweep(
    bits_list: &[usize],
    pairs_for_bits: impl Fn(usize) -> usize,
    calib_pairs: usize,
    reps: usize,
    seed: u64,
) -> AutotuneSweep {
    use modsram_core::{AutoTuner, TunePolicy};
    let tuner = AutoTuner::new(TunePolicy::Race {
        calib_pairs,
        repay_mults: u64::MAX,
    });
    let mut rows = Vec::new();
    for &bits in bits_list {
        let odd = sweep_modulus(bits);
        let even = &odd - &UBig::from(1u64);
        for (parity, p) in [("odd", odd), ("even", even)] {
            let pairs = pairs_for_bits(bits).max(1);
            let mut rng = SmallRng::seed_from_u64(seed ^ (bits as u64) ^ (parity.len() as u64));
            let operands: Vec<(UBig, UBig)> = {
                let mut out = Vec::with_capacity(pairs);
                let mut b = ubig_below(&mut rng, &p);
                for i in 0..pairs {
                    if i % 8 == 0 {
                        b = ubig_below(&mut rng, &p);
                    }
                    out.push((ubig_below(&mut rng, &p), b.clone()));
                }
                out
            };
            let oracle: Vec<UBig> = operands.iter().map(|(a, b)| &(a * b) % &p).collect();
            tuner.prepare(&p).expect("race prepares a legal candidate");
            let mut chosen = tuner.chosen_engine(&p).expect("decision committed");
            let mut engines: Vec<String> = vec!["r4csa-lut".to_string()];
            if parity == "odd" {
                engines.push("montgomery".to_string());
            }
            if !engines.contains(&chosen) {
                engines.push(chosen.clone());
            }
            let measured = measure_row(&engines, &p, &operands, &oracle, reps);
            // Close the loop: this batch is production-shaped traffic,
            // so the tuner learns its measurements — and when the race's
            // small-batch winner is beaten here (near-tied engines flip
            // with batch shape), the choice follows the evidence.
            for (engine, ns) in &measured {
                tuner.observe(&p, engine, *ns);
            }
            let (fastest, _) = measured
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one engine measured");
            if *fastest != chosen && tuner.adopt_choice(&p, fastest) {
                chosen = fastest.clone();
            }
            let ns_of = |engine: &str| {
                measured
                    .iter()
                    .find(|(name, _)| name == engine)
                    .map(|(_, ns)| *ns)
            };
            let auto_ns = ns_of(&chosen).expect("chosen engine was measured");
            let r4csa_ns = ns_of("r4csa-lut").expect("baseline measured");
            let montgomery_ns = ns_of("montgomery");
            let best_baseline = montgomery_ns.map_or(r4csa_ns, |m| m.min(r4csa_ns));
            rows.push(AutotuneSweepRow {
                bits,
                parity,
                pairs,
                chosen_engine: chosen,
                auto_ns,
                r4csa_ns,
                montgomery_ns,
                speedup_vs_r4csa: r4csa_ns / auto_ns,
                speedup_vs_montgomery: montgomery_ns.map(|m| m / auto_ns),
                speedup_vs_best: best_baseline / auto_ns,
            });
        }
    }
    AutotuneSweep {
        rows,
        stats: tuner.stats(),
        profile: tuner.profile_snapshot(),
    }
}

/// The shape of one [`weighted_sweep`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedSweepSpec {
    /// Engine name from the registry.
    pub engine: String,
    /// Operand bitwidth of the moduli.
    pub bits: usize,
    /// Sample size for the planner-level share measurement.
    pub planner_moduli: usize,
    /// Tenants per tile under the *unweighted* router in the makespan
    /// section (the fleet carries `4 × per_tile` tenants, balanced so
    /// the unweighted makespan is exact).
    pub per_tile: usize,
    /// Measured jobs per tenant in the makespan section.
    pub jobs_per_tenant: usize,
    /// Concurrent submitter threads in the live-reweigh soak.
    pub submitters: usize,
    /// Jobs per submitter thread in the live-reweigh soak.
    pub reweigh_jobs: usize,
    /// Workload RNG seed.
    pub seed: u64,
}

/// Planner-level share of a 2:1:1:1 fleet, plus the equal-weights ≡
/// legacy calibration check.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedShareStats {
    /// The fleet's weight vector.
    pub weights: Vec<u32>,
    /// Moduli sampled.
    pub moduli: usize,
    /// Fraction of the sample homed per tile.
    pub share: Vec<f64>,
    /// Each tile's weight over the total weight.
    pub weight_share: Vec<f64>,
    /// Largest relative error of `share` against `weight_share`.
    pub max_rel_err: f64,
    /// Sampled moduli whose uniform-weight home differs from the
    /// legacy unweighted planner — must be zero.
    pub equal_weight_moved: u64,
}

/// Capacity-normalised modelled makespan of the weighted vs the
/// unweighted router on the same skewed fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedMakespanStats {
    /// Per-tile capacity (tile 0 is the 2× macro).
    pub capacity: Vec<u32>,
    /// Measured jobs per run.
    pub jobs: usize,
    /// `max_i(modelled_cycles_i / capacity_i)` with weights published.
    pub weighted_makespan_cycles: u64,
    /// Same fleet, same jobs, weights left uniform.
    pub unweighted_makespan_cycles: u64,
    /// `unweighted / weighted` — > 1.0 means the weighted router won.
    pub makespan_gain: f64,
    /// Measured-phase submissions per tile, weighted run.
    pub weighted_per_tile: Vec<u64>,
    /// Measured-phase submissions per tile, unweighted run.
    pub unweighted_per_tile: Vec<u64>,
}

/// The live `set_tile_weight` soak: a capacity flip under load must
/// lose nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveReweighStats {
    /// Jobs accepted across all submitters.
    pub accepted: u64,
    /// Accepted tickets that failed to redeem with the right product.
    pub lost_tickets: u64,
    /// Moduli re-homed by the mid-stream weight raise.
    pub rehomed_up: u64,
    /// Moduli re-homed by the mid-stream drop back to uniform.
    pub rehomed_down: u64,
    /// Moduli re-homed by a final weight-1 republish — must be zero.
    pub republish_rehomed: u64,
}

/// Everything [`weighted_sweep`] measures.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedSweep {
    /// Planner share + equal-weights calibration.
    pub share: WeightedShareStats,
    /// Weighted-vs-unweighted makespan on the skewed fleet.
    pub makespan: WeightedMakespanStats,
    /// Live reweigh soak.
    pub reweigh: LiveReweighStats,
}

/// A random odd modulus of exactly `bits` bits.
fn odd_modulus(bits: usize, rng: &mut SmallRng) -> UBig {
    let top = UBig::pow2(bits - 1);
    let mut p = &top + &ubig_below(rng, &top);
    if &p % &UBig::from(2u64) == UBig::from(0u64) {
        p = &p + &UBig::from(1u64);
    }
    p
}

/// One closed-loop run of the makespan section: publish `weights`
/// (uniform = skip), send every job with [`send_home_shares`], and
/// return the capacity-normalised makespan plus measured per-tile
/// submissions.
fn weighted_fleet_run(
    engine: &str,
    tenants: &[UBig],
    jobs: &[MulJob],
    oracle: &[UBig],
    weights: &[u32],
    capacity: &[u32],
) -> (u64, Vec<u64>) {
    let cluster = ServiceCluster::for_engine_name(
        engine,
        capacity.len(),
        ClusterConfig {
            spill: SpillPolicy::Strict,
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 8192,
                max_batch: 256,
            },
            poison_after: 3,
            ..Default::default()
        },
    )
    .unwrap_or_else(|_| panic!("unknown engine '{engine}'"));
    // Publish the weight vector *before* warm-up so every tenant's
    // context is prepared on its final home.
    for (tile, &w) in weights.iter().enumerate() {
        if w != 1 {
            cluster.set_tile_weight(tile, w).expect("live cluster");
        }
    }
    let warmup: Vec<Ticket> = tenants
        .iter()
        .map(|p| {
            cluster
                .submit(MulJob::new(UBig::from(2u64), UBig::from(3u64), p.clone()))
                .expect("cluster running")
        })
        .collect();
    for t in &warmup {
        t.wait().expect("warm-up job valid");
    }
    let warmup_stats = cluster.stats();
    cluster.reset_window();
    send_home_shares(&cluster, jobs, oracle);
    let stats = cluster.shutdown();
    assert_eq!(stats.failed, 0, "the fleet workload never fails");
    let per_tile: Vec<u64> = stats
        .tiles
        .iter()
        .zip(&warmup_stats.tiles)
        .map(|(t, w)| t.service.submitted - w.service.submitted)
        .collect();
    // A 2× macro retires its occupancy on two lanes: normalise each
    // tile's measured device-cycles by its capacity before taking the
    // fleet makespan.
    let makespan = stats
        .tiles
        .iter()
        .zip(&warmup_stats.tiles)
        .zip(capacity)
        .map(|((t, w), &cap)| {
            let cycles = t
                .service
                .modelled_cycles_total
                .saturating_sub(w.service.modelled_cycles_total);
            (cycles as f64 / f64::from(cap.max(1))).round() as u64
        })
        .max()
        .unwrap_or(0);
    (makespan, per_tile)
}

/// The live-reweigh soak: `submitters` threads stream blocking
/// submissions against a 4-tile cluster while the main thread raises
/// one tile's weight and drops it back. Every accepted ticket must
/// redeem with the right product.
fn live_reweigh_soak(spec: &WeightedSweepSpec, rng: &mut SmallRng) -> LiveReweighStats {
    let cluster = ServiceCluster::for_engine_name(
        &spec.engine,
        4,
        ClusterConfig {
            spill: SpillPolicy::Spill { max_hops: 2 },
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 1024,
                max_batch: 64,
            },
            probation_after: 2,
            ..Default::default()
        },
    )
    .unwrap_or_else(|_| panic!("unknown engine '{}'", spec.engine));
    let moduli: Vec<UBig> = (0..6).map(|_| odd_modulus(spec.bits, rng)).collect();
    // Raise a tile that does not home tenant 0, so the upgrade pulls
    // real moduli onto it.
    let home0 = cluster
        .home_tile(&moduli[0])
        .expect("a routable tile homes tenant 0");
    let upgraded = (home0 + 1) % 4;
    let lost = AtomicU64::new(0);
    let accepted = AtomicU64::new(0);
    let mut rehomed_up = 0u64;
    let mut rehomed_down = 0u64;

    std::thread::scope(|scope| {
        for t in 0..spec.submitters as u64 {
            let handle = cluster.handle();
            let moduli = &moduli;
            let lost = &lost;
            let accepted = &accepted;
            let jobs = spec.reweigh_jobs as u64;
            scope.spawn(move || {
                let mut tickets = Vec::new();
                for i in 0..jobs {
                    let p = moduli[((t + i) % 6) as usize].clone();
                    let job = MulJob::new(
                        UBig::from(t * 1_000_003 + i * 17 + 1),
                        UBig::from(t * 999_979 + i * 31 + 2),
                        p,
                    );
                    let want = &(&job.a * &job.b) % &job.modulus;
                    match handle.submit(job) {
                        Ok(ticket) => {
                            accepted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            tickets.push((ticket, want));
                        }
                        // A reweigh must be invisible to producers.
                        Err(e) => panic!("submit failed during a reweigh: {e}"),
                    }
                }
                for (ticket, want) in tickets {
                    if ticket.wait().ok() != Some(want) {
                        lost.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(5));
        let up = cluster
            .set_tile_weight(upgraded, 8)
            .expect("live reweigh succeeds");
        rehomed_up = up.rehomed_moduli;
        std::thread::sleep(Duration::from_millis(5));
        let down = cluster
            .set_tile_weight(upgraded, 1)
            .expect("live reweigh back succeeds");
        rehomed_down = down.rehomed_moduli;
    });
    // A weight-1 republish after the fleet is uniform again must move
    // nothing — the live twin of the equal-weights calibration.
    let republish = cluster
        .set_tile_weight(upgraded, 1)
        .expect("republish succeeds");
    cluster.shutdown();
    LiveReweighStats {
        accepted: accepted.into_inner(),
        lost_tickets: lost.into_inner(),
        rehomed_up,
        rehomed_down,
        republish_rehomed: republish.rehomed_moduli,
    }
}

/// Runs the weighted-routing sweep: (1) planner-level modulus share of
/// a 2:1:1:1 fleet against its weight share, with the equal-weights ≡
/// legacy calibration check; (2) capacity-normalised modelled makespan
/// of the weighted vs the unweighted router on a fleet whose tile 0 is
/// a 2× macro; (3) a live `set_tile_weight` soak.
///
/// # Panics
///
/// Panics on an unknown engine or a diverged result. The acceptance
/// assertions themselves live in `bin/cluster`, next to the artifact.
pub fn weighted_sweep(spec: &WeightedSweepSpec) -> WeightedSweep {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let weights = vec![2u32, 1, 1, 1];

    // --- (1) planner share + equal-weights calibration ---------------
    let mut counts = vec![0u64; weights.len()];
    let mut equal_weight_moved = 0u64;
    let uniform = vec![1u32; weights.len()];
    for _ in 0..spec.planner_moduli {
        let p = odd_modulus(spec.bits, &mut rng);
        let home = weighted_home_tile_for(&p, &weights).expect("a non-empty fleet");
        counts[home] += 1;
        if weighted_home_tile_for(&p, &uniform) != home_tile_for(&p, weights.len()) {
            equal_weight_moved += 1;
        }
    }
    let total_weight: u32 = weights.iter().sum();
    let share: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / spec.planner_moduli as f64)
        .collect();
    let weight_share: Vec<f64> = weights
        .iter()
        .map(|&w| f64::from(w) / f64::from(total_weight))
        .collect();
    let max_rel_err = share
        .iter()
        .zip(&weight_share)
        .map(|(s, w)| (s - w).abs() / w)
        .fold(0.0f64, f64::max);
    let share = WeightedShareStats {
        weights: weights.clone(),
        moduli: spec.planner_moduli,
        share,
        weight_share,
        max_rel_err,
        equal_weight_moved,
    };

    // --- (2) makespan on the skewed fleet -----------------------------
    // Tenants balanced under the *unweighted* router, so the
    // unweighted makespan is exact: the 1× tiles each carry `per_tile`
    // tenants while the 2× macro runs half-occupied. The weighted
    // router shifts ~2/5 of the fleet onto the 2× macro instead.
    let tenants = balanced_tenant_moduli(spec.bits, &[4], spec.per_tile, &mut rng);
    let mut jobs: Vec<MulJob> = Vec::with_capacity(tenants.len() * spec.jobs_per_tenant);
    let mut per_tenant_b: Vec<UBig> = tenants.iter().map(|p| ubig_below(&mut rng, p)).collect();
    for i in 0..spec.jobs_per_tenant {
        for (t, p) in tenants.iter().enumerate() {
            if i % 8 == 0 {
                per_tenant_b[t] = ubig_below(&mut rng, p);
            }
            jobs.push(MulJob::new(
                ubig_below(&mut rng, p),
                per_tenant_b[t].clone(),
                p.clone(),
            ));
        }
    }
    let oracle: Vec<UBig> = jobs.iter().map(|j| &(&j.a * &j.b) % &j.modulus).collect();
    let capacity = weights.clone();
    let (weighted_makespan, weighted_per_tile) =
        weighted_fleet_run(&spec.engine, &tenants, &jobs, &oracle, &weights, &capacity);
    let (unweighted_makespan, unweighted_per_tile) =
        weighted_fleet_run(&spec.engine, &tenants, &jobs, &oracle, &uniform, &capacity);
    let makespan = WeightedMakespanStats {
        capacity,
        jobs: jobs.len(),
        weighted_makespan_cycles: weighted_makespan,
        unweighted_makespan_cycles: unweighted_makespan,
        makespan_gain: if weighted_makespan > 0 {
            unweighted_makespan as f64 / weighted_makespan as f64
        } else {
            1.0
        },
        weighted_per_tile,
        unweighted_per_tile,
    };

    // --- (3) live reweigh soak ----------------------------------------
    let reweigh = live_reweigh_soak(spec, &mut rng);

    WeightedSweep {
        share,
        makespan,
        reweigh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elasticity_sweep_small_run_keeps_tickets_and_recovers_affinity() {
        // Tiny but complete: drain-under-load, probation re-admission,
        // and live add all happen; no phase may lose a ticket, and the
        // post-add window must restore >= 95% affinity.
        let rows = elasticity_sweep(&ElasticitySweepSpec {
            engine: "barrett".to_string(),
            bits: 64,
            tiles: 4,
            tenants: 8,
            jobs_per_phase: 96,
            submitters: 2,
            workers_per_tile: 2,
            seed: 0xE1A5,
        });
        assert_eq!(rows.len(), 6);
        let labels: Vec<&str> = rows.iter().map(|r| r.phase.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "steady-4",
                "drain-live",
                "drained-3",
                "readmit-4",
                "add-5",
                "steady-5"
            ]
        );
        for row in &rows {
            assert_eq!(row.lost_tickets, 0, "phase '{}'", row.phase);
            assert_eq!(row.jobs, 96);
        }
        assert_eq!(rows[0].active_tiles, 4);
        assert_eq!(rows[2].active_tiles, 3, "drain sidelined one tile");
        assert_eq!(rows[3].active_tiles, 4, "probation re-admitted it");
        assert_eq!(rows[4].active_tiles, 5, "live add grew the cluster");
        assert!(rows[1].membership_epoch > rows[0].membership_epoch);
        let last = rows.last().unwrap();
        assert!(
            last.affinity_hit_rate >= 0.95,
            "post-add affinity {:.3} below the acceptance floor",
            last.affinity_hit_rate
        );
    }

    #[test]
    fn fig1_matches_paper_anchors() {
        let data = fig1_data();
        let at256 = data.iter().find(|p| p.bits == 256).unwrap();
        assert_eq!(at256.ours, 767);
        assert_eq!(at256.mentt, 66_049);
        assert_eq!(at256.bpntt, 1465);
        // Crossover shape: ours scales linearly, MeNTT quadratically.
        let at8 = data.iter().find(|p| p.bits == 8).unwrap();
        assert!(at256.ours / at8.ours < 40);
        assert!(at256.mentt / at8.mentt > 500);
    }

    #[test]
    fn fig3_reproduces_the_worked_example() {
        let (lines, result) = fig3_trace();
        assert_eq!(result, UBig::from(18u64)); // 21·18 mod 24
        assert_eq!(lines.len(), 18); // 17 cycles + finalize marker
        assert!(lines[0].contains("fetch"));
    }

    #[test]
    fn fig5_matches_paper_shape() {
        let d = fig5_data();
        assert!((d.total_mm2 - 0.053).abs() < 0.003);
        assert!((d.overhead - 0.32).abs() < 0.04);
        assert!((d.fmax_mhz - 420.0).abs() < 10.0);
        assert!((d.components[0].2 - 0.67).abs() < 0.03); // array share
    }

    #[test]
    fn measured_run_hits_767() {
        assert_eq!(measured_modsram_run().cycles, 767);
    }

    #[test]
    fn lut_usage_small_sweep() {
        let usage = lut_usage(20, 42);
        assert_eq!(usage.samples, 20);
        assert!(usage.max_index <= 11);
        assert!(usage.histogram.iter().sum::<u64>() > 0);
    }

    #[test]
    fn banked_sweep_speedup_tracks_banks() {
        let rows = banked_device_sweep(32, 16, &[1, 4], 13);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].speedup > 3.0, "speedup {:.2}", rows[1].speedup);
        assert!(rows[1].makespan_cycles < rows[0].makespan_cycles);
    }

    #[test]
    fn fig7_small_scale() {
        let [ntt, msm] = fig7_data(6);
        assert_eq!(ntt.modmuls, WorkloadCounts::ntt_modmul_model(6));
        assert!(msm.modmuls > ntt.modmuls);
    }

    #[test]
    fn balanced_tenants_cover_every_swept_tile_count() {
        let mut rng = SmallRng::seed_from_u64(11);
        let tenants = balanced_tenant_moduli(64, &[1, 2, 4], 1, &mut rng);
        assert_eq!(tenants.len(), 8, "per_combo × 2 × 4");
        for tiles in [2usize, 4] {
            let mut per_tile = vec![0usize; tiles];
            for p in &tenants {
                per_tile[home_tile_for(p, tiles).unwrap()] += 1;
            }
            assert!(
                per_tile.iter().all(|&c| c == tenants.len() / tiles),
                "unbalanced at {tiles} tiles: {per_tile:?}"
            );
        }
    }

    #[test]
    fn cluster_sweep_small_run_scales_and_keeps_affinity() {
        // Correctness of every job is asserted inside the sweep; here
        // the headline invariants: more tiles → smaller modelled
        // makespan, an uncontended balanced workload never spills, and
        // a second run reproduces every modelled makespan.
        let spec = ClusterSweepSpec {
            engine: "montgomery".to_string(),
            bits: 64,
            tile_counts: vec![1, 2],
            policies: vec!["spill1".to_string()],
            jobs_per_tenant: 4,
            per_combo: 1,
            workers_per_tile: 2,
            seed: 0xC1A5,
        };
        let rows = cluster_sweep(&spec);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].tiles, 1);
        assert_eq!(rows[1].tiles, 2);
        assert!(
            rows[1].modelled_speedup > 1.5,
            "2 tiles must cut the modelled makespan ({:.2}x)",
            rows[1].modelled_speedup
        );
        for row in &rows {
            assert_eq!(row.affinity_hit_rate, 1.0);
            assert_eq!(row.spilled, 0);
            assert_eq!(row.per_tile_submitted.len(), row.tiles);
        }
        let makespans = |rows: &[ClusterSweepRow]| -> Vec<u64> {
            rows.iter().map(|r| r.modelled_makespan_cycles).collect()
        };
        assert_eq!(makespans(&cluster_sweep(&spec)), makespans(&rows));
    }

    #[test]
    fn autotune_sweep_covers_both_parities_and_never_loses() {
        let sweep = autotune_sweep(&[64], |_| 96, 16, 2, 7);
        assert_eq!(sweep.rows.len(), 2);
        assert_eq!(sweep.rows[0].parity, "odd");
        assert_eq!(sweep.rows[1].parity, "even");
        assert!(sweep.rows[0].montgomery_ns.is_some());
        assert!(
            sweep.rows[1].montgomery_ns.is_none(),
            "montgomery cannot baseline an even modulus"
        );
        for row in &sweep.rows {
            assert_ne!(row.chosen_engine, "direct", "oracle never serves");
            assert!(
                row.speedup_vs_best > 0.0 && row.auto_ns > 0.0,
                "timing must be positive"
            );
        }
        assert_eq!(sweep.stats.races_run, 2);
        assert_eq!(sweep.stats.tuned_moduli, 2);
        assert!(!sweep.profile.is_empty());
    }

    #[test]
    fn weighted_sweep_small_run_holds_its_invariants() {
        let sweep = weighted_sweep(&WeightedSweepSpec {
            engine: "barrett".to_string(),
            bits: 64,
            planner_moduli: 400,
            per_tile: 16,
            jobs_per_tenant: 8,
            submitters: 2,
            reweigh_jobs: 200,
            seed: 0x57E1,
        });
        assert_eq!(
            sweep.share.equal_weight_moved, 0,
            "uniform weights are the legacy planner"
        );
        // One producer per home tile: the same batches, so the same
        // makespans, in every run. Sixteen tenants per tile are enough
        // for the weighted router's makespan win to show (a gain of
        // 1.14, as in the full-size run).
        let makespan = &sweep.makespan;
        assert_eq!(
            (
                makespan.weighted_makespan_cycles,
                makespan.unweighted_makespan_cycles
            ),
            (10787, 12328)
        );
        assert!(makespan.weighted_makespan_cycles < makespan.unweighted_makespan_cycles);
        assert_eq!(sweep.reweigh.lost_tickets, 0, "reweigh loses nothing");
        assert_eq!(
            sweep.reweigh.republish_rehomed, 0,
            "a weight-1 republish is a placement no-op"
        );
    }

    #[test]
    fn spill_probe_shows_the_policy_tradeoff() {
        let rows = cluster_spill_probe(24, &["strict".to_string(), "spill1".to_string()]);
        let (strict, spill) = (&rows[0], &rows[1]);
        // Each tile admits one job at the gate plus a 4-job queue.
        assert_eq!((strict.accepted, strict.spilled, strict.shed), (5, 0, 19));
        assert_eq!((spill.accepted, spill.spilled, spill.shed), (10, 5, 14));
    }
}
