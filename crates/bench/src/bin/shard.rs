//! The banked-device sweep: the cycle-accurate `BankedModSram`
//! makespan, speedup and energy vs bank count for one batch — the
//! multi-bank serving architecture in the device-cycle domain.
//!
//! ```sh
//! cargo run --release --bin shard
//! # CI-sized run:
//! cargo run --release --bin shard -- --device-pairs 32 --banks 1,2,4
//! ```
//!
//! Every column is modelled, so the table is deterministic on any
//! host. The host-side lane speedup of the dispatcher (total per-lane
//! busy time over the busiest lane) is the perfbench ladder's
//! `dispatch.busy_speedup`.

use modsram_bench::{banked_device_sweep, print_table, write_json_artifact};

struct Args {
    device_bits: usize,
    device_pairs: usize,
    banks: Vec<usize>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            device_bits: 32,
            device_pairs: 64,
            banks: vec![1, 2, 4, 8],
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().expect("flag needs a value");
        match flag.as_str() {
            "--device-bits" => args.device_bits = value().parse().expect("integer"),
            "--device-pairs" => args.device_pairs = value().parse().expect("integer"),
            "--banks" => {
                args.banks = value()
                    .split(',')
                    .map(|s| s.trim().parse().expect("comma-separated integers"))
                    .collect()
            }
            other => panic!("unknown flag '{other}'"),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    let device_rows = banked_device_sweep(args.device_bits, args.device_pairs, &args.banks, 0xD15);
    let table: Vec<Vec<String>> = device_rows
        .iter()
        .map(|r| {
            vec![
                r.banks.to_string(),
                r.makespan_cycles.to_string(),
                format!("{:.2}x", r.speedup),
                format!("{:.1}", r.energy_pj),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Banked ModSRAM tile at {} bits ({} pairs, cycle-accurate)",
            args.device_bits, args.device_pairs
        ),
        &["banks", "makespan cycles", "speedup", "energy pJ"],
        &table,
    );

    let artifact = serde_json::json!({
        "banked_device_sweep": device_rows.iter().map(|r| serde_json::json!({
            "banks": r.banks,
            "bits": r.bits,
            "pairs": r.pairs,
            "makespan_cycles": r.makespan_cycles,
            "speedup": r.speedup,
            "energy_pj": r.energy_pj,
        })).collect::<Vec<_>>(),
    });
    let path = write_json_artifact("shard_sweep", &artifact);
    println!("\nartifact: {path}");
}
