//! Property tests: every engine must agree with the direct oracle on
//! random operands across bitwidths, and the R4CSA-LUT loop invariant
//! must hold after every iteration.

use modsram_bigint::{radix4_digits_msb_first, UBig};
use modsram_modmul::{
    all_engines, DirectEngine, ModMulEngine, ModMulError, PreparedModMul, PreparedR4Csa,
    R4CsaLutEngine, R4CsaStepper, TimingPolicy, MAX_LANES,
};
use proptest::prelude::*;

/// A random (a, b, p) triple with p of `limbs` limbs and a, b below p.
fn triple(limbs: usize) -> impl Strategy<Value = (UBig, UBig, UBig)> {
    (
        prop::collection::vec(any::<u64>(), limbs),
        prop::collection::vec(any::<u64>(), limbs),
        prop::collection::vec(any::<u64>(), limbs),
    )
        .prop_map(|(a, b, p)| {
            let mut p = UBig::from_limbs(p);
            if p.is_zero() {
                p = UBig::from(3u64);
            }
            let a = &UBig::from_limbs(a) % &p;
            let b = &UBig::from_limbs(b) % &p;
            (a, b, p)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engines_agree_1_limb((a, b, p) in triple(1)) {
        engines_agree(&a, &b, &p);
    }

    #[test]
    fn engines_agree_4_limbs((a, b, p) in triple(4)) {
        engines_agree(&a, &b, &p);
    }

    #[test]
    fn engines_agree_8_limbs((a, b, p) in triple(8)) {
        engines_agree(&a, &b, &p);
    }

    #[test]
    fn r4csa_invariant_random((a, b, p) in triple(3)) {
        let n = p.bit_len().max(1);
        let mut stepper = R4CsaStepper::new(&b, &p).unwrap();
        let mut reference = UBig::zero();
        for d in radix4_digits_msb_first(&a, n) {
            let trace = stepper.step(d);
            reference = &(&reference << 2) % &p;
            reference = &(&reference + stepper.lut_radix4().value(d)) % &p;
            prop_assert_eq!(
                &stepper.represented_value() % &p,
                reference.clone(),
                "invariant broken"
            );
            // The exact-accounting bound from DESIGN.md §3.2.
            prop_assert!(trace.ov_index <= 11);
        }
        prop_assert_eq!(stepper.finalize().0, &(&a * &b) % &p);
    }

    #[test]
    fn constant_time_matches_data_dependent((a, b, p) in triple(4)) {
        let mut ct = R4CsaLutEngine::with_policy(TimingPolicy::ConstantTime);
        let mut dd = R4CsaLutEngine::with_policy(TimingPolicy::DataDependent);
        prop_assert_eq!(
            ct.mod_mul(&a, &b, &p).unwrap(),
            dd.mod_mul(&a, &b, &p).unwrap()
        );
    }

    #[test]
    fn mod_mul_is_commutative_per_engine((a, b, p) in triple(4)) {
        for engine in all_engines().iter_mut() {
            let ab = engine.mod_mul(&a, &b, &p);
            let ba = engine.mod_mul(&b, &a, &p);
            match (ab, ba) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "{} not commutative", engine.name()),
                (Err(ModMulError::EvenModulus), Err(ModMulError::EvenModulus)) => {}
                (x, y) => prop_assert!(false, "inconsistent errors {x:?} {y:?}"),
            }
        }
    }

    /// The prepare/execute contract: for every engine and random
    /// odd/even moduli, `mod_mul_batch` ≡ per-call prepared `mod_mul`
    /// ≡ the direct-engine oracle. Operands are *not* pre-reduced, so
    /// canonicalisation inside the prepared paths is exercised too.
    #[test]
    fn prepared_batch_equals_per_call_equals_oracle(batch in batch_input(3)) {
        let (pairs, p) = batch;
        let oracle = DirectEngine::new().prepare(&p).expect("non-zero modulus");
        for engine in all_engines() {
            let prep = match engine.prepare(&p) {
                Ok(prep) => prep,
                Err(ModMulError::EvenModulus) => {
                    prop_assert!(p.is_even(), "{} refused an odd modulus", engine.name());
                    continue;
                }
                Err(e) => panic!("{} unexpected error {e}", engine.name()),
            };
            prop_assert_eq!(prep.modulus(), &p);
            let batch = prep.mod_mul_batch(&pairs).expect("prepared context");
            prop_assert_eq!(batch.len(), pairs.len());
            for ((a, b), got) in pairs.iter().zip(&batch) {
                let want = oracle.mod_mul(a, b).expect("oracle");
                prop_assert_eq!(got, &want, "{} batch diverged", engine.name());
                prop_assert_eq!(
                    &prep.mod_mul(a, b).expect("prepared context"),
                    &want,
                    "{} per-call diverged",
                    engine.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lane-vectorization contract: for every engine, forcing the
    /// laned batch path at a random lane count gives bit-identical
    /// results to the forced scalar path and to the oracle. Batches are
    /// built from runs of equal multiplicands (run lengths 1..64) so the
    /// R4CSA run-detection sees realistic coalesced input.
    #[test]
    fn laned_equals_scalar_equals_oracle(input in laned_batch_input(2)) {
        let (pairs, p, lanes) = input;
        let oracle = DirectEngine::new().prepare(&p).expect("non-zero modulus");
        for engine in all_engines() {
            let prep = match engine.prepare(&p) {
                Ok(prep) => prep,
                Err(ModMulError::EvenModulus) => {
                    prop_assert!(p.is_even(), "{} refused an odd modulus", engine.name());
                    continue;
                }
                Err(e) => panic!("{} unexpected error {e}", engine.name()),
            };
            let scalar = prep.mod_mul_batch_scalar(&pairs).expect("scalar path");
            let laned = prep
                .mod_mul_batch_laned(&pairs, lanes)
                .expect("laned path");
            prop_assert_eq!(
                &scalar,
                &laned,
                "{} scalar/laned diverge at {} lanes",
                engine.name(),
                lanes
            );
            for ((a, b), got) in pairs.iter().zip(&laned) {
                prop_assert_eq!(
                    got,
                    &oracle.mod_mul(a, b).expect("oracle"),
                    "{} laned diverged from oracle",
                    engine.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// R4CSA-LUT's prepared path runs single jobs and short runs on the
    /// laned kernel: for a run of 1–3 multipliers, `mod_mul` and
    /// `mod_mul_batch` equal the `UBig` stepper behind
    /// `mod_mul_batch_scalar` and the oracle, under both timing
    /// policies, at widths from 1 to 2048 bits.
    #[test]
    fn r4csa_short_runs_match_stepper_and_oracle(input in short_run_input()) {
        let (pairs, p, policy) = input;
        let prep = PreparedR4Csa::new(&p, policy).expect("non-zero modulus");
        let oracle: Vec<UBig> = pairs.iter().map(|(a, b)| &(a * b) % &p).collect();
        let bits = p.bit_len();
        prop_assert_eq!(
            &prep.mod_mul_batch_scalar(&pairs).expect("stepper path"),
            &oracle,
            "stepper diverged at {} bits",
            bits
        );
        prop_assert_eq!(
            &prep.mod_mul_batch(&pairs).expect("batch path"),
            &oracle,
            "batch diverged at {} bits",
            bits
        );
        for ((a, b), want) in pairs.iter().zip(&oracle) {
            prop_assert_eq!(
                &prep.mod_mul(a, b).expect("single-job path"),
                want,
                "mod_mul diverged at {} bits",
                bits
            );
        }
    }
}

/// One multiplicand run of 1–3 pairs, a timing policy, and a modulus of
/// 1–2048 bits: widths 1–2 give the moduli below 4, and from 2 bits up
/// the modulus is even half the time. Operands are drawn one limb wider
/// than the modulus and reduced only half the time, so most are ≥ p.
fn short_run_input() -> impl Strategy<Value = (Vec<(UBig, UBig)>, UBig, TimingPolicy)> {
    (
        0usize..4,
        1usize..=3,
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(class, run, even, constant_time, seed)| {
            let mut x = seed | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let spread = next() as usize;
            let bits = match class {
                0 => 1 + spread % 2,
                1 => 3 + spread % 62,
                2 => 65 + spread % 448,
                _ => 513 + spread % 1536,
            };
            let limbs = bits.div_ceil(64);
            let mut p_limbs: Vec<u64> = (0..limbs).map(|_| next()).collect();
            let top = (bits - 1) % 64;
            p_limbs[limbs - 1] &= u64::MAX >> (63 - top);
            p_limbs[limbs - 1] |= 1 << top;
            if bits >= 2 {
                if even {
                    p_limbs[0] &= !1;
                } else {
                    p_limbs[0] |= 1;
                }
            }
            let p = UBig::from_limbs(p_limbs);
            let mut operand = || {
                let v = UBig::from_limbs((0..=limbs).map(|_| next()).collect());
                if next() & 1 == 0 {
                    &v % &p
                } else {
                    v
                }
            };
            let b = operand();
            let pairs = (0..run).map(|_| (operand(), b.clone())).collect();
            let policy = if constant_time {
                TimingPolicy::ConstantTime
            } else {
                TimingPolicy::DataDependent
            };
            (pairs, p, policy)
        })
}

/// Runs of equal multiplicands (lengths 1..64), a modulus of `limbs`
/// limbs that is even roughly half the time, and a lane count in
/// `1..=MAX_LANES`. Multipliers are unreduced, exercising in-path
/// canonicalisation.
fn laned_batch_input(limbs: usize) -> impl Strategy<Value = (Vec<(UBig, UBig)>, UBig, usize)> {
    (
        prop::collection::vec(
            (prop::collection::vec(any::<u64>(), limbs), 1usize..64),
            1..4,
        ),
        prop::collection::vec(any::<u64>(), limbs),
        1usize..=MAX_LANES,
        any::<u64>(),
    )
        .prop_map(move |(runs, p, lanes, seed)| {
            let mut p = UBig::from_limbs(p);
            if p.is_zero() {
                p = UBig::from(6u64);
            }
            let mut x = seed | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let limb_count = limbs;
            let mut pairs = Vec::new();
            for (b_limbs, len) in runs {
                let b = UBig::from_limbs(b_limbs);
                for _ in 0..len {
                    let a = UBig::from_limbs((0..limb_count).map(|_| next()).collect());
                    pairs.push((a, b.clone()));
                }
            }
            (pairs, p, lanes)
        })
}

/// Deterministic scalar/laned/dispatch equivalence sweep across the
/// 64–2048-bit widths of the hot-path benchmark, odd and even moduli,
/// all eight engines. Complements the proptest above with the widths too
/// slow to sample at volume.
#[test]
fn laned_batch_width_sweep() {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // (bits, pairs, run length, lanes) — pair counts shrink as widths
    // grow to keep the scalar reference paths fast.
    for (bits, n_pairs, run_len, lanes) in [
        (64, 24, 8, 8),
        (128, 18, 5, 3),
        (256, 16, 8, 16),
        (2048, 6, 3, 4),
    ] {
        let limbs = bits / 64;
        for make_even in [false, true] {
            let p = {
                let mut v: Vec<u64> = (0..limbs).map(|_| next()).collect();
                v[limbs - 1] |= 1 << 63; // keep the full width
                if make_even {
                    v[0] &= !1;
                } else {
                    v[0] |= 1;
                }
                UBig::from_limbs(v)
            };
            let pairs: Vec<(UBig, UBig)> = {
                let mut out = Vec::with_capacity(n_pairs);
                let mut b = UBig::zero();
                for i in 0..n_pairs {
                    if i % run_len == 0 {
                        b = &UBig::from_limbs((0..limbs).map(|_| next()).collect()) % &p;
                    }
                    out.push((
                        &UBig::from_limbs((0..limbs).map(|_| next()).collect()) % &p,
                        b.clone(),
                    ));
                }
                out
            };
            let want: Vec<UBig> = pairs.iter().map(|(a, b)| &(a * b) % &p).collect();
            for engine in all_engines() {
                let prep = match engine.prepare(&p) {
                    Ok(prep) => prep,
                    Err(ModMulError::EvenModulus) => {
                        assert!(p.is_even(), "{} refused an odd modulus", engine.name());
                        continue;
                    }
                    Err(e) => panic!("{} unexpected error {e}", engine.name()),
                };
                let name = engine.name();
                assert_eq!(
                    prep.mod_mul_batch_scalar(&pairs).unwrap(),
                    want,
                    "{name} scalar diverged at {bits} bits (even={make_even})"
                );
                assert_eq!(
                    prep.mod_mul_batch_laned(&pairs, lanes).unwrap(),
                    want,
                    "{name} laned diverged at {bits} bits (even={make_even})"
                );
                assert_eq!(
                    prep.mod_mul_batch(&pairs).unwrap(),
                    want,
                    "{name} dispatch diverged at {bits} bits (even={make_even})"
                );
            }
        }
    }
}

/// Random unreduced operand pairs plus a modulus that is even half the
/// time (drawn unconstrained from limbs).
fn batch_input(limbs: usize) -> impl Strategy<Value = (Vec<(UBig, UBig)>, UBig)> {
    (
        prop::collection::vec(
            (
                prop::collection::vec(any::<u64>(), limbs),
                prop::collection::vec(any::<u64>(), limbs),
            ),
            0..6,
        ),
        prop::collection::vec(any::<u64>(), limbs),
    )
        .prop_map(|(raw_pairs, p)| {
            let mut p = UBig::from_limbs(p);
            if p.is_zero() {
                p = UBig::from(4u64);
            }
            let pairs = raw_pairs
                .into_iter()
                .map(|(a, b)| (UBig::from_limbs(a), UBig::from_limbs(b)))
                .collect();
            (pairs, p)
        })
}

fn engines_agree(a: &UBig, b: &UBig, p: &UBig) {
    let want = &(a * b) % p;
    for engine in all_engines().iter_mut() {
        match engine.mod_mul(a, b, p) {
            Ok(got) => assert_eq!(got, want, "{} disagrees with oracle", engine.name()),
            Err(ModMulError::EvenModulus) => {
                assert!(p.is_even(), "{} refused an odd modulus", engine.name())
            }
            Err(e) => panic!("{} unexpected error {e}", engine.name()),
        }
    }
}

/// Deterministic high-volume sweep of the overflow-index instrumentation
/// across widths — the data behind the `lut_usage` experiment.
#[test]
fn lut_overflow_index_bounds_sweep() {
    let mut engine = R4CsaLutEngine::new();
    let mut x = 0x853c_49e6_748f_ea9bu64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for bits in [8usize, 16, 32, 64, 128, 256] {
        for _ in 0..50 {
            let limbs = bits.div_ceil(64);
            let p = {
                let mut v: Vec<u64> = (0..limbs).map(|_| next()).collect();
                let top = bits % 64;
                if top != 0 {
                    v[limbs - 1] >>= 64 - top;
                }
                let mut p = UBig::from_limbs(v);
                if p <= UBig::one() {
                    p = UBig::from(3u64);
                }
                p
            };
            let a = &UBig::from_limbs((0..limbs).map(|_| next()).collect()) % &p;
            let b = &UBig::from_limbs((0..limbs).map(|_| next()).collect()) % &p;
            let got = engine.mod_mul(&a, &b, &p).unwrap();
            assert_eq!(got, &(&a * &b) % &p);
        }
    }
    let hist = engine.cumulative_ov_histogram();
    let max_used = hist
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &c)| c > 0)
        .map(|(i, _)| i)
        .unwrap();
    // Exact accounting never exceeds index 11.
    assert!(max_used <= 11, "histogram: {hist:?}");
}
