//! The lane-vectorization hot-path sweep: forced scalar vs forced laned
//! batch throughput for every SoA-capable engine at 64/128/256/2048
//! bits (`results/hotpath_sweep.json`). End-to-end streamed throughput
//! over the laned kernels is the perfbench ladder's cluster rung.
//!
//! ```sh
//! cargo run --release --bin hotpath
//! # Smaller run:
//! cargo run --release --bin hotpath -- --pairs 512
//! ```
//!
//! Acceptance: the laned path wins ≥ 1.3× over the scalar path at 256
//! bits on at least two engines. Both paths are oracle-checked on every
//! timed pass, so a reported speedup is never bought with a wrong
//! result.

use modsram_bench::{hotpath_sweep, print_table, write_json_artifact};

struct Args {
    bits: Vec<usize>,
    /// Pair-count override; 0 keeps the per-bitwidth defaults.
    pairs: usize,
    reps: usize,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            bits: vec![64, 128, 256, 2048],
            pairs: 0,
            reps: 3,
            seed: 0x407_9A7,
        }
    }
}

/// Default pair counts shrink with width so the scalar reference pass
/// stays fast at 2048 bits.
fn default_pairs(bits: usize) -> usize {
    match bits {
        0..=64 => 4096,
        65..=128 => 4096,
        129..=256 => 2048,
        _ => 192,
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().expect("flag needs a value");
        match flag.as_str() {
            "--bits" => {
                args.bits = value()
                    .split(',')
                    .map(|s| s.trim().parse().expect("comma-separated integers"))
                    .collect()
            }
            "--pairs" => args.pairs = value().parse().expect("integer"),
            "--reps" => args.reps = value().parse().expect("integer"),
            "--seed" => args.seed = value().parse().expect("integer"),
            other => panic!("unknown flag '{other}'"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let fixed_pairs = args.pairs;
    let rows = hotpath_sweep(
        &args.bits,
        |bits| {
            if fixed_pairs > 0 {
                fixed_pairs
            } else {
                default_pairs(bits)
            }
        },
        args.reps,
        args.seed,
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.engine.to_string(),
                r.bits.to_string(),
                r.pairs.to_string(),
                r.lanes.to_string(),
                format!("{:.0}", r.scalar_ns),
                format!("{:.0}", r.laned_ns),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    print_table(
        "Hot-path sweep: forced scalar vs laned batch (ns per multiplication)",
        &[
            "engine",
            "bits",
            "pairs",
            "lanes",
            "scalar",
            "laned",
            "laned win",
        ],
        &table,
    );

    let artifact = serde_json::json!({
        "sweep": rows.iter().map(|r| serde_json::json!({
            "engine": r.engine,
            "bits": r.bits,
            "pairs": r.pairs,
            "lanes": r.lanes,
            "scalar_ns": r.scalar_ns,
            "laned_ns": r.laned_ns,
            "speedup": r.speedup,
        })).collect::<Vec<_>>(),
    });
    let path = write_json_artifact("hotpath_sweep", &artifact);
    println!("\nartifact: {path}");

    // Acceptance: ≥ 1.3× laned-over-scalar at 256 bits on ≥ 2 engines.
    let winners: Vec<_> = rows
        .iter()
        .filter(|r| r.bits == 256 && r.speedup >= 1.3)
        .map(|r| format!("{} {:.2}x", r.engine, r.speedup))
        .collect();
    println!("256-bit laned wins >= 1.3x: [{}]", winners.join(", "));
    assert!(
        winners.len() >= 2,
        "acceptance: need >= 2 engines at >= 1.3x laned speedup for 256 bits, got {winners:?}"
    );
}
