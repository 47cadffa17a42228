//! Dispatcher correctness under concurrency: dispatched batches must
//! equal the per-call oracle for any worker count, chunking, and
//! modulus mix, and a [`ContextPool`] must be safely shareable across
//! scoped threads.

use std::sync::Arc;

use modsram_bigint::UBig;
use modsram_core::dispatch::{auto_chunk_size, ContextPool, Dispatcher, MulJob};
use modsram_core::{BankedModSram, ModSramConfig};
use modsram_modmul::{BarrettEngine, MontgomeryEngine};
use proptest::prelude::*;

/// Oracle: plain big-integer multiply-and-reduce.
fn oracle(a: &UBig, b: &UBig, p: &UBig) -> UBig {
    &(a * b) % p
}

/// A small pool of moduli mixing odd and even values (the Barrett
/// engine accepts both; Montgomery would reject the even ones at
/// prepare time, which `pool_surfaces_prepare_errors` covers).
fn modulus_pool() -> Vec<UBig> {
    vec![
        UBig::from(97u64),
        UBig::from(0x1_0000u64), // even: 2^16
        UBig::from(1_000_003u64),
        UBig::from(0xffff_fffb_u64),
        UBig::from(0xdead_beee_u64), // even
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same-modulus batches: dispatched == per-call oracle for every
    /// worker count and chunk size. The dispatcher sizes chunks by
    /// `auto_chunk_size` (items / (4 × workers)), so each case reaches
    /// chunk size `chunk` through the batch length: `chunk × 4 ×
    /// workers` jobs plus a remainder below `4 × workers`.
    #[test]
    fn dispatched_equals_oracle(
        seeds in prop::collection::vec((any::<u64>(), any::<u64>()), 1..40),
        chunk in 1usize..7,
    ) {
        let p = UBig::from(0xffff_fffb_u64);
        let pool = ContextPool::for_engine_ctor(|| Box::new(MontgomeryEngine::new()));
        for workers in [1usize, 2, 8] {
            let shares = 4 * workers;
            let len = chunk * shares + seeds.len() % shares;
            prop_assert_eq!(auto_chunk_size(len, workers), chunk);
            let jobs: Vec<MulJob> = seeds
                .iter()
                .cycle()
                .take(len)
                .map(|&(a, b)| MulJob::new(&UBig::from(a) % &p, &UBig::from(b) % &p, p.clone()))
                .collect();
            let want: Vec<UBig> = jobs.iter().map(|j| oracle(&j.a, &j.b, &p)).collect();
            let d = Dispatcher::new(workers);
            let (got, stats) = d.dispatch_jobs(&pool, &jobs).unwrap();
            prop_assert_eq!(&got, &want, "workers={}", workers);
            prop_assert_eq!(stats.items as usize, jobs.len());
        }
    }

    /// Mixed odd/even moduli through a shared pool: results stay in
    /// input order and match the oracle regardless of worker count.
    #[test]
    fn mixed_modulus_jobs_equal_oracle(
        picks in prop::collection::vec((0usize..5, any::<u64>(), any::<u64>()), 1..48),
    ) {
        let moduli = modulus_pool();
        let jobs: Vec<MulJob> = picks
            .iter()
            .map(|&(m, a, b)| {
                let p = moduli[m].clone();
                MulJob::new(&UBig::from(a) % &p, &UBig::from(b) % &p, p)
            })
            .collect();
        let want: Vec<UBig> = jobs.iter().map(|j| oracle(&j.a, &j.b, &j.modulus)).collect();
        let pool = ContextPool::for_engine_ctor(|| Box::new(BarrettEngine::new()));
        for workers in [1usize, 2, 8] {
            let d = Dispatcher::new(workers);
            let (got, stats) = d.dispatch_jobs(&pool, &jobs).unwrap();
            prop_assert_eq!(&got, &want, "workers={}", workers);
            prop_assert_eq!(stats.items as usize, jobs.len());
        }
        // Distinct moduli in the job stream bound the pool size.
        let distinct: std::collections::HashSet<&UBig> =
            jobs.iter().map(|j| &j.modulus).collect();
        prop_assert_eq!(pool.len(), distinct.len());
    }

    /// The banked tile agrees with the per-call oracle across backends.
    #[test]
    fn banked_tile_equals_oracle(
        seeds in prop::collection::vec((any::<u64>(), any::<u64>()), 1..24),
        banks in 1usize..5,
    ) {
        let p = UBig::from(0xffff_fffb_u64);
        let pairs: Vec<(UBig, UBig)> = seeds
            .iter()
            .map(|&(a, b)| (&UBig::from(a) % &p, &UBig::from(b) % &p))
            .collect();
        let want: Vec<UBig> = pairs.iter().map(|(a, b)| oracle(a, b, &p)).collect();
        for name in ["montgomery", "barrett"] {
            let tile = BankedModSram::with_engine_name(banks, name, &p).unwrap();
            let (got, _) = tile.mod_mul_batch(&pairs).unwrap();
            prop_assert_eq!(&got, &want, "{} banks={}", name, banks);
        }
    }
}

#[test]
fn two_threads_share_one_context_pool() {
    // The satellite's contract: one pool, two scoped threads, disjoint
    // and overlapping moduli — every context resolves correctly, and
    // the pool ends up holding each modulus exactly once.
    let pool = ContextPool::for_engine_name("montgomery").unwrap();
    let moduli: Vec<UBig> = (0..8u64).map(|i| UBig::from(1_000_003 + 2 * i)).collect();
    std::thread::scope(|scope| {
        for t in 0..2 {
            let pool = &pool;
            let moduli = &moduli;
            scope.spawn(move || {
                for round in 0..4 {
                    for (i, p) in moduli.iter().enumerate() {
                        let ctx = pool.context(p).expect("odd modulus");
                        let a = UBig::from((t * 31 + i as u64 * 7 + round) % 1000);
                        let b = UBig::from((t * 17 + i as u64 * 3 + round) % 1000);
                        assert_eq!(ctx.mod_mul(&a, &b).unwrap(), &(&a * &b) % p);
                    }
                }
            });
        }
    });
    assert_eq!(pool.len(), moduli.len());
    assert_eq!(
        pool.hits() + pool.misses(),
        2 * 4 * moduli.len() as u64,
        "every request either hit or missed"
    );
    assert!(pool.hits() >= pool.misses(), "repeat requests must hit");
}

#[test]
fn pool_surfaces_prepare_errors() {
    let pool = ContextPool::for_engine_name("montgomery").unwrap();
    assert!(pool.context(&UBig::from(4096u64)).is_err(), "even modulus");
    // A failing modulus in a job stream aborts the dispatch cleanly.
    let d = Dispatcher::new(2);
    let jobs = vec![
        MulJob::new(UBig::from(2u64), UBig::from(3u64), UBig::from(97u64)),
        MulJob::new(UBig::from(2u64), UBig::from(3u64), UBig::from(96u64)),
    ];
    assert!(d.dispatch_jobs(&pool, &jobs).is_err());
}

#[test]
fn device_pool_caches_whole_devices() {
    let config = ModSramConfig {
        n_bits: 32,
        ..Default::default()
    };
    let pool = ContextPool::for_modsram(config);
    let p = UBig::from(0xffff_fffb_u64);
    let ctx = pool.context(&p).unwrap();
    assert_eq!(ctx.engine_name(), "modsram");
    assert_eq!(
        ctx.mod_mul(&UBig::from(0x1234u64), &UBig::from(0x5678u64))
            .unwrap(),
        UBig::from(0x1234u64 * 0x5678)
    );
    assert!(Arc::ptr_eq(&ctx, &pool.context(&p).unwrap()));
}

#[test]
fn banked_tile_from_pooled_contexts() {
    // A tile can be assembled from pool-cached contexts: the pool pays
    // preparation once and the tile fans the batch out.
    let pool = ContextPool::for_engine_name("barrett").unwrap();
    let p = UBig::from(1_000_003u64);
    let ctxs = (0..3).map(|_| pool.context(&p).unwrap()).collect();
    let tile = BankedModSram::from_contexts(ctxs);
    assert_eq!(pool.misses(), 1, "one preparation serves every bank");
    let pairs: Vec<(UBig, UBig)> = (0..9u64)
        .map(|i| (UBig::from(i * 11), UBig::from(i * 13)))
        .collect();
    let (got, stats) = tile.mod_mul_batch(&pairs).unwrap();
    for ((a, b), c) in pairs.iter().zip(&got) {
        assert_eq!(c, &oracle(a, b, &p));
    }
    assert_eq!(stats.multiplications, 9);
}
