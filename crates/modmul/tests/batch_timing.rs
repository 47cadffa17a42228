//! The timing check of the prepare/execute split: with the per-modulus
//! precompute amortised, one prepared `mod_mul_batch` beats the legacy
//! per-call `mod_mul(a, b, p)` for the reduce-after-multiply family.
//! `benches/bench_batch.rs` in the bench crate reports the full
//! per-call / prepared / batch comparison.

use std::time::Instant;

use modsram_bigint::UBig;
use modsram_modmul::engine_by_name;

fn secp256k1_prime() -> UBig {
    UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
        .expect("const")
}

/// `count` deterministic operand pairs below `p`, one xorshift stream
/// per seed.
fn operands(p: &UBig, count: usize, seed: u64) -> Vec<(UBig, UBig)> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
    let mut limb = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut below_p = || {
        let wide = (0..4).fold(UBig::zero(), |acc, _| &(&acc << 64) + &UBig::from(limb()));
        &wide % p
    };
    (0..count).map(|_| (below_p(), below_p())).collect()
}

/// `per-call ns / batch ns` for one fresh engine over `pairs`; both
/// paths are checked against each other.
fn batch_speedup(name: &str, p: &UBig, pairs: &[(UBig, UBig)]) -> f64 {
    let mut engine = engine_by_name(name).expect("registered");
    let start = Instant::now();
    let per_call: Vec<UBig> = pairs
        .iter()
        .map(|(a, b)| engine.mod_mul(a, b, p).expect("odd modulus"))
        .collect();
    let per_call_s = start.elapsed().as_secs_f64();

    let prep = engine.prepare(p).expect("odd modulus");
    let start = Instant::now();
    let batch = prep.mod_mul_batch(pairs).expect("prepared");
    let batch_s = start.elapsed().as_secs_f64();

    assert_eq!(per_call, batch, "{name}: batch diverged from per-call");
    per_call_s / batch_s
}

#[test]
fn montgomery_and_barrett_batch_beats_per_call_at_256_bits() {
    // Wall-clock on a shared CI runner is noisy, so take the best of
    // three operand streams per engine and keep the margin generous —
    // the real effect (fewer REDC passes, no per-call cache clone) is
    // ~2.7x for Montgomery and ~1.3x for Barrett in release mode.
    let p = secp256k1_prime();
    let mut best = [("montgomery", 0.0f64), ("barrett", 0.0f64)];
    for attempt in 0..3u64 {
        let pairs = operands(&p, 96, 11 + attempt);
        for (name, best_speedup) in &mut best {
            *best_speedup = best_speedup.max(batch_speedup(name, &p, &pairs));
        }
    }
    for (name, speedup) in best {
        assert!(
            speedup > 1.02,
            "{name}: best batch-vs-per-call speedup over 3 sweeps was {speedup:.3}x"
        );
    }
}
