//! The single home of the modelled-cycle constants and formulas shared
//! by the serving stack.
//!
//! Before this module existed, the `6k − 1` per-multiplication formula
//! and the 13-wordline refill charge lived in `service.rs` while the
//! planning-unit refill cost lived in `dispatch.rs`; both re-export from
//! here now, so an engine with a different latency shape (e.g. the
//! carry-free engine's `3n + 2`) plugs its model in exactly once — see
//! [`modelled_engine_mul_cycles`].

use modsram_bigint::UBig;
use modsram_modmul::modelled_cycles_by_name;

use crate::dispatch::{plan_job_chunks, seed_assignments, MulJob};

/// Wordline rewrites charged per multiplicand change in the modelled
/// latency estimate: the 5 radix-4 rows of Table 1b plus the 8
/// overflow-LUT rows are rewritten whenever `B` changes.
pub const MODELLED_REFILL_CYCLES: u64 = 13;

/// Relative cost (in multiplication-equivalents) charged per
/// multiplicand change when estimating chunk costs: rebuilding the five
/// Table 1b wordlines plus the near-memory derivations is on the order
/// of several multiplications' worth of row writes.
pub const LUT_REFILL_COST: u64 = 8;

/// Modelled cycles of one R4CSA-LUT multiplication at `bits` operand
/// width: `6·⌈bits/2⌉ − 1` (the paper's Table 3 formula — 767 cycles at
/// 256 bits).
pub fn modelled_mul_cycles(bits: usize) -> u64 {
    let digits = bits.div_ceil(2).max(1) as u64;
    6 * digits - 1
}

/// Modelled cycles of one multiplication on a named registry engine,
/// routed through the engine's own `CycleModel` via
/// [`modelled_cycles_by_name`]. Names with no hardware model (`direct`,
/// unknown) fall back to the R4CSA-LUT device formula — the service
/// models an R4CSA device unless told otherwise.
pub fn modelled_engine_mul_cycles(engine_name: &str, bits: usize) -> u64 {
    modelled_cycles_by_name(engine_name, bits).unwrap_or_else(|| modelled_mul_cycles(bits))
}

/// Modelled makespan, in device cycles, of executing `jobs` as one
/// coalesced batch over `workers` modelled lanes: chunks of at most
/// `chunk_target` jobs are planned (never spanning a modulus) and
/// seeded least-loaded onto the lanes, each chunk is costed with
/// [`modelled_mul_cycles`] per job plus [`MODELLED_REFILL_CYCLES`] per
/// multiplicand change, and the makespan is the busiest lane's total.
/// The lanes exist only here: a service tile executes the whole batch
/// on its one executor thread.
pub fn modelled_batch_cycles(jobs: &[MulJob], workers: usize, chunk_target: usize) -> u64 {
    if jobs.is_empty() {
        return 0;
    }
    let chunks = plan_job_chunks(jobs, chunk_target);
    let cycles: Vec<u64> = chunks
        .iter()
        .map(|c| {
            let mut cyc = 0u64;
            let mut prev: Option<&UBig> = None;
            for job in &jobs[c.range.clone()] {
                cyc += modelled_mul_cycles(job.modulus.bit_len());
                if prev != Some(&job.b) {
                    cyc += MODELLED_REFILL_CYCLES;
                }
                prev = Some(&job.b);
            }
            cyc
        })
        .collect();
    let lanes = workers.min(chunks.len()).max(1);
    seed_assignments(&chunks, lanes)
        .iter()
        .map(|ids| ids.iter().map(|&i| cycles[i]).sum::<u64>())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_cycles() {
        assert_eq!(modelled_mul_cycles(256), 767);
        assert_eq!(modelled_mul_cycles(0), 5); // one digit minimum
    }

    #[test]
    fn refill_constant_matches_wordline_budget() {
        // 5 Table 1b rows + 8 paper Table 2 rows.
        assert_eq!(MODELLED_REFILL_CYCLES, 13);
    }

    #[test]
    fn engine_models_route_by_name() {
        assert_eq!(
            modelled_engine_mul_cycles("r4csa-lut", 256),
            modelled_mul_cycles(256)
        );
        assert_eq!(modelled_engine_mul_cycles("carryfree", 256), 3 * 256 + 2);
        // Unknown names take the device default.
        assert_eq!(
            modelled_engine_mul_cycles("no-such-engine", 64),
            modelled_mul_cycles(64)
        );
    }

    #[test]
    fn batch_cycles_charge_refills_per_multiplicand_change() {
        let p = UBig::from(97u64);
        let same_b: Vec<MulJob> = (0..8u64)
            .map(|i| MulJob::new(UBig::from(i), UBig::from(7u64), p.clone()))
            .collect();
        let mixed_b: Vec<MulJob> = (0..8u64)
            .map(|i| MulJob::new(UBig::from(i), UBig::from(i + 1), p.clone()))
            .collect();
        let same = modelled_batch_cycles(&same_b, 1, 64);
        let mixed = modelled_batch_cycles(&mixed_b, 1, 64);
        assert!(mixed > same, "distinct multiplicands must cost refills");
        assert_eq!(mixed - same, 7 * MODELLED_REFILL_CYCLES);
    }
}
