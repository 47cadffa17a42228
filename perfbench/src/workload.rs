//! The named workloads and the seeded generator that builds their
//! jobs. The stack receives only what [`generate`] produces.

use modsram_bigint::{ubig_below, ubig_with_bits, UBig};
use modsram_core::MulJob;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Operand and modulus width of every workload: the paper's headline
/// 256-bit row.
pub const BITS: usize = 256;

/// Consecutive jobs of one modulus that share a multiplicand `b`, so the
/// Table 1b LUT refill is paid once per run.
pub const RUN_LEN: usize = 8;

/// Closed-loop window: jobs one client keeps outstanding per round.
pub const WINDOW: usize = 64;

/// Tiles behind the wire, each with one worker: two execution lanes on a
/// two-core host.
pub const TILES: usize = 2;

/// Jobs per generated stream; clients cycle through their stream. A
/// multiple of [`WINDOW`] and [`RUN_LEN`], so rounds never split a run.
pub const STREAM_JOBS: usize = 64 * WINDOW;

/// How a workload's generator offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Each connection keeps one round of `WINDOW` jobs outstanding and
    /// submits the next round only when the last one has answered.
    Closed,
    /// One single-job `Submit` frame every `1 / rate_per_s` seconds,
    /// whatever the stack does.
    Open { rate_per_s: f64 },
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Distinct moduli (one tenant each on closed-loop workloads).
    pub moduli: usize,
    /// How many of the moduli are even.
    pub even_moduli: usize,
    /// Generator threads, one connection each.
    pub connections: usize,
    pub arrival: Arrival,
    /// Registry engine every tile runs.
    pub engine: &'static str,
}

impl Workload {
    /// `true` for the open-loop workload.
    pub fn is_open(&self) -> bool {
        matches!(self.arrival, Arrival::Open { .. })
    }
}

/// Offered rate of `openloop-mixed`. Single-job frames saturate the
/// stack near 150k/s on a 2-core host; a third of that leaves the
/// headroom that keeps tail latency a property of the stack rather than
/// of how busy the shared host is (at 80k/s, a third of `stack-barrett`,
/// p99 doubled whenever the host got busier).
pub const OPEN_RATE_PER_S: f64 = 50_000.0;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // Barrett keeps the kernel a small share of per-job time, so the
    // cost of the net, cluster, service and dispatch layers dominates.
    Workload {
        name: "stack-barrett",
        moduli: 2,
        even_moduli: 0,
        connections: 2,
        arrival: Arrival::Closed,
        engine: "barrett",
    },
    // The same loop on the paper's engine: the kernel dominates, and the
    // modelled device cycles are the paper-realistic figure.
    Workload {
        name: "device-r4csa",
        moduli: 2,
        even_moduli: 0,
        connections: 2,
        arrival: Arrival::Closed,
        engine: "r4csa-lut",
    },
    // Arrivals interleave across many moduli well below saturation, so
    // coalescing timers, the per-frame path and routing set latency.
    Workload {
        name: "openloop-mixed",
        moduli: 32,
        even_moduli: 16,
        connections: 1,
        arrival: Arrival::Open {
            rate_per_s: OPEN_RATE_PER_S,
        },
        engine: "barrett",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Key of the fixed modulus set. Moduli do not depend on the run seed:
/// a seed varies the operands, never the tenants' placement on tiles.
/// Under this key `stack-barrett`'s two moduli have different home tiles
/// and `openloop-mixed`'s 32 split 16 to 16, so both tiles work.
const MODULI_KEY: u64 = 0x4D6F_6453_5241_4D55;

/// The workload's `count` full-width moduli, the last `even` of them
/// even, the rest odd.
pub fn moduli(count: usize, even: usize) -> Vec<UBig> {
    let mut rng = SmallRng::seed_from_u64(MODULI_KEY);
    (0..count)
        .map(|i| {
            ubig_with_bits(&mut rng, BITS)
                .with_bit(BITS - 1, true)
                .with_bit(0, i < count - even)
        })
        .collect()
}

/// One connection's job stream with its big-integer oracle.
#[derive(Debug, Clone)]
pub struct Stream {
    pub jobs: Vec<MulJob>,
    /// `a·b mod p` for each job, computed with `UBig` arithmetic.
    pub oracle: Vec<UBig>,
    /// Index into [`Generated::moduli`] of each job's modulus.
    pub modulus_ix: Vec<usize>,
    /// For each modulus the stream uses, the index of its first job:
    /// what set-up submits to get a first result per modulus.
    pub first_per_modulus: Vec<usize>,
}

/// Everything a run feeds the stack.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The workload's engine, which every rung runs.
    pub engine: &'static str,
    pub moduli: Vec<UBig>,
    /// One stream per connection.
    pub streams: Vec<Stream>,
}

/// Builds the workload's inputs from `seed`: the same seed gives the same
/// jobs.
pub fn generate(w: &Workload, seed: u64) -> Generated {
    let moduli = moduli(w.moduli, w.even_moduli);
    let mut rng = SmallRng::seed_from_u64(seed);
    let streams = (0..w.connections)
        .map(|c| {
            // Closed loops give each connection (tenant) its own modulus;
            // the open loop interleaves every modulus on one connection.
            let own: Vec<usize> = if w.is_open() {
                (0..moduli.len()).collect()
            } else {
                vec![c % moduli.len()]
            };
            let mut multiplicand: Vec<Option<UBig>> = vec![None; moduli.len()];
            let mut issued = vec![0usize; moduli.len()];
            let mut first = vec![usize::MAX; moduli.len()];
            let mut jobs = Vec::with_capacity(STREAM_JOBS);
            let mut modulus_ix = Vec::with_capacity(STREAM_JOBS);
            for i in 0..STREAM_JOBS {
                let m = own[rng.random_range(0..own.len())];
                let p = &moduli[m];
                if issued[m].is_multiple_of(RUN_LEN) {
                    multiplicand[m] = Some(ubig_below(&mut rng, p));
                }
                issued[m] += 1;
                first[m] = first[m].min(i);
                modulus_ix.push(m);
                let b = multiplicand[m]
                    .clone()
                    .expect("set at the start of each run");
                jobs.push(MulJob::new(ubig_below(&mut rng, p), b, p.clone()));
            }
            let oracle = jobs.iter().map(|j| &(&j.a * &j.b) % &j.modulus).collect();
            Stream {
                jobs,
                oracle,
                modulus_ix,
                first_per_modulus: first.into_iter().filter(|&i| i != usize::MAX).collect(),
            }
        })
        .collect();
    Generated {
        engine: w.engine,
        moduli,
        streams,
    }
}
