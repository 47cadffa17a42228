//! Heterogeneous tenants on one streaming service: ECDSA batch
//! verification, a Pedersen committer, a dispatched NTT, and a raw
//! `MulJob` stream all feed a single `ModSramService` concurrently —
//! the mixed-tenant serving shape the streaming front-end exists for.
//! The same tenants then run unchanged against a multi-tile
//! [`ServiceCluster`] through the same `MulBackend` seam, and a proptest
//! pins streamed-via-cluster ≡ staged ≡ oracle over random tile
//! counts, spill policies, and coalescing knobs.

use modsram::apps::ecdsa::{verify_batch, SigningKey, VerifyRequest};
use modsram::apps::PedersenCommitter;
use modsram::arch::cluster::{ClusterConfig, ServiceCluster, SpillPolicy};
use modsram::arch::dispatch::ContextPool;
use modsram::arch::service::{ModSramService, ServiceConfig};
use modsram::arch::{Dispatcher, MulJob, Ticket};
use modsram::bigint::UBig;
use modsram::ecc::curves::bn254_fr_ctx;
use modsram::ecc::ntt::NttPlan;
use modsram::ecc::{DynCtx, FieldCtx};
use modsram::modmul::engine_by_name;
use proptest::prelude::*;

#[test]
fn heterogeneous_tenants_interleave_on_one_service() {
    // Tenants trickle dependent multiplications: each one runs as soon
    // as an executor is free, batched with whatever else has queued.
    let service = ModSramService::for_engine_name(
        "montgomery",
        ServiceConfig {
            workers: 4,
            queue_capacity: 512,
            max_batch: 64,
        },
    )
    .unwrap();

    // Tenant 1 prep: two signed messages (signing itself stays local —
    // only verification streams).
    let sk = SigningKey::new(&UBig::from(987_654_321u64)).unwrap();
    let vk = sk.verifying_key();
    let requests: Vec<VerifyRequest> = (0..2u8)
        .map(|i| {
            let msg = vec![b't', i];
            VerifyRequest {
                x: vk.x.clone(),
                y: vk.y.clone(),
                sig: sk.sign(&msg),
                msg,
            }
        })
        .collect();

    // Tenant 3 prep: the NTT field modulus (the plan itself is built
    // on the tenant thread — its field context is single-threaded).
    let ntt_modulus = bn254_fr_ctx().modulus().clone();
    let ntt_input: Vec<UBig> = (0..16u64).map(|v| UBig::from(v * 7919 + 3)).collect();

    std::thread::scope(|scope| {
        // Tenant 1: ECDSA verification, request fan-out on 2 local
        // workers, every field/scalar multiplication streamed.
        let service_ref = &service;
        let requests = &requests;
        scope.spawn(move || {
            let fanout = Dispatcher::new(2);
            let verdicts = verify_batch(requests, service_ref, &fanout).unwrap();
            assert_eq!(verdicts, vec![Ok(true), Ok(true)]);
        });

        // Tenant 2: Pedersen commitments over BN254.
        scope.spawn(move || {
            let committer = PedersenCommitter::new_via(2, b"svc-tenant", service_ref).unwrap();
            let values: Vec<UBig> = [11u64, 22].map(UBig::from).to_vec();
            let r = UBig::from(7u64);
            let commitment = committer.commit(&values, &r);
            assert!(committer.open(&commitment, &values, &r));
            assert!(!committer.open(&commitment, &values, &UBig::from(8u64)));
        });

        // Tenant 3: a forward/inverse NTT roundtrip, stage batches
        // submitted twiddle-major.
        let ntt_input = &ntt_input;
        let ntt_modulus = &ntt_modulus;
        scope.spawn(move || {
            let dyn_ctx = DynCtx::new(ntt_modulus, engine_by_name("montgomery").unwrap());
            let plan = NttPlan::new(&dyn_ctx, 4, &UBig::from(5u64)).unwrap();
            let mut serial = ntt_input.clone();
            plan.forward(&mut serial);
            let mut data = ntt_input.clone();
            plan.forward_via(&mut data, service_ref).unwrap();
            assert_eq!(data, serial);
            plan.inverse_via(&mut data, service_ref).unwrap();
            assert_eq!(&data, ntt_input);
        });

        // Tenant 4: a raw mixed-modulus job stream through a bare
        // handle.
        let handle = service.handle();
        scope.spawn(move || {
            let p = UBig::from(0xffff_fffb_u64);
            for i in 0..50u64 {
                let a = UBig::from(i * 13 + 1);
                let b = UBig::from(i * 31 + 2);
                let ticket = handle
                    .submit(MulJob::new(a.clone(), b.clone(), p.clone()))
                    .unwrap();
                assert_eq!(ticket.wait().unwrap(), &(&a * &b) % &p);
            }
        });
    });

    let stats = service.shutdown();
    assert_eq!(stats.failed, 0);
    assert!(
        stats.completed > 100,
        "all four tenants streamed real work ({} jobs)",
        stats.completed
    );
    // One pool served every tenant: secp256k1 p and n, BN254 base
    // field, BN254 Fr, and the raw tenant's 32-bit prime — prepared
    // once each.
    assert_eq!(stats.pool_misses, 5, "five distinct moduli prepared once");
    assert!(stats.batches >= 1);
    assert!(stats.coalesce_mean >= 1.0);
}

#[test]
fn heterogeneous_tenants_interleave_on_a_cluster() {
    // The same four tenants, unchanged, against a 3-tile cluster: the
    // `MulBackend` seam is the whole migration. Each tenant modulus is
    // rendezvous-homed on one tile, so per-modulus coalescing survives
    // the scale-out.
    let cluster = ServiceCluster::for_engine_name(
        "montgomery",
        3,
        ClusterConfig {
            spill: SpillPolicy::Spill { max_hops: 1 },
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 512,
                max_batch: 64,
            },
            poison_after: 3,
            ..Default::default()
        },
    )
    .unwrap();

    let sk = SigningKey::new(&UBig::from(123_456_789u64)).unwrap();
    let vk = sk.verifying_key();
    let requests: Vec<VerifyRequest> = (0..2u8)
        .map(|i| {
            let msg = vec![b'c', i];
            VerifyRequest {
                x: vk.x.clone(),
                y: vk.y.clone(),
                sig: sk.sign(&msg),
                msg,
            }
        })
        .collect();
    let ntt_modulus = bn254_fr_ctx().modulus().clone();
    let ntt_input: Vec<UBig> = (0..16u64).map(|v| UBig::from(v * 6151 + 5)).collect();

    std::thread::scope(|scope| {
        let cluster_ref = &cluster;
        let requests = &requests;
        scope.spawn(move || {
            let fanout = Dispatcher::new(2);
            let verdicts = verify_batch(requests, cluster_ref, &fanout).unwrap();
            assert_eq!(verdicts, vec![Ok(true), Ok(true)]);
        });

        scope.spawn(move || {
            let committer = PedersenCommitter::new_via(2, b"cluster-tenant", cluster_ref).unwrap();
            let values: Vec<UBig> = [33u64, 44].map(UBig::from).to_vec();
            let r = UBig::from(9u64);
            let commitment = committer.commit(&values, &r);
            assert!(committer.open(&commitment, &values, &r));
        });

        let ntt_input = &ntt_input;
        let ntt_modulus = &ntt_modulus;
        scope.spawn(move || {
            let dyn_ctx = DynCtx::new(ntt_modulus, engine_by_name("montgomery").unwrap());
            let plan = NttPlan::new(&dyn_ctx, 4, &UBig::from(5u64)).unwrap();
            let mut serial = ntt_input.clone();
            plan.forward(&mut serial);
            let mut data = ntt_input.clone();
            plan.forward_via(&mut data, cluster_ref).unwrap();
            assert_eq!(data, serial);
            plan.inverse_via(&mut data, cluster_ref).unwrap();
            assert_eq!(&data, ntt_input);
        });

        let handle = cluster.handle();
        scope.spawn(move || {
            let p = UBig::from(0xffff_fffb_u64);
            for i in 0..40u64 {
                let a = UBig::from(i * 13 + 1);
                let b = UBig::from(i * 31 + 2);
                let ticket = handle
                    .submit(MulJob::new(a.clone(), b.clone(), p.clone()))
                    .unwrap();
                assert_eq!(ticket.wait().unwrap(), &(&a * &b) % &p);
            }
        });
    });

    let stats = cluster.shutdown();
    assert_eq!(stats.failed, 0);
    assert!(
        stats.completed > 100,
        "all four tenants streamed real work ({} jobs)",
        stats.completed
    );
    // Uncontended cluster: every job landed on its modulus's home tile.
    assert_eq!(stats.spilled, 0);
    assert_eq!(stats.affinity_hit_rate(), 1.0);
    // Affinity keeps each modulus's preparation on one tile: summed
    // pool misses across tiles still equal the five distinct moduli.
    let total_misses: u64 = stats.tiles.iter().map(|t| t.service.pool_misses).sum();
    assert_eq!(total_misses, 5, "no modulus was prepared on two tiles");
}

fn cluster_modulus_pool() -> Vec<UBig> {
    vec![
        UBig::from(97u64),
        UBig::from(0x1_0000u64), // even: barrett accepts it
        UBig::from(1_000_003u64),
        UBig::from(0xffff_fffb_u64),
        UBig::from(999_979u64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The cluster equivalence: for any mixed-modulus job stream, any
    /// tile count, any spill policy, and any coalescing knobs,
    /// streamed-via-cluster ≡ staged dispatch ≡ the big-integer
    /// oracle — and the router's accounting balances.
    #[test]
    fn streamed_via_cluster_equals_staged_equals_oracle(
        picks in prop::collection::vec((0usize..5, any::<u64>(), any::<u64>()), 1..50),
        tiles_pick in 0usize..3,
        strict in any::<bool>(),
        max_hops in 0usize..3,
        max_batch in 1usize..16,
    ) {
        let tiles = [1usize, 2, 4][tiles_pick];
        let moduli = cluster_modulus_pool();
        let jobs: Vec<MulJob> = picks
            .iter()
            .map(|&(m, a, b)| {
                let p = moduli[m].clone();
                MulJob::new(&UBig::from(a) % &p, &UBig::from(b) % &p, p)
            })
            .collect();
        let want: Vec<UBig> = jobs
            .iter()
            .map(|j| &(&j.a * &j.b) % &j.modulus)
            .collect();

        // Staged reference.
        let pool = ContextPool::for_engine_name("barrett").unwrap();
        let (staged, _) = Dispatcher::new(2).dispatch_jobs(&pool, &jobs).unwrap();
        prop_assert_eq!(&staged, &want);

        // Streamed through a cluster with the sampled shape.
        let cluster = ServiceCluster::for_engine_name(
            "barrett",
            tiles,
            ClusterConfig {
                spill: if strict {
                    SpillPolicy::Strict
                } else {
                    SpillPolicy::Spill { max_hops }
                },
                service: ServiceConfig {
                    workers: 2,
                    queue_capacity: 32,
                    max_batch,
                },
                poison_after: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let tickets: Vec<Ticket> = jobs
            .iter()
            .map(|j| cluster.submit(j.clone()).unwrap())
            .collect();
        let streamed: Vec<UBig> = tickets
            .iter()
            .map(|t| t.wait().expect("all moduli valid for barrett"))
            .collect();
        prop_assert_eq!(&streamed, &want);

        let stats = cluster.shutdown();
        prop_assert_eq!(stats.completed as usize, jobs.len());
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(stats.submitted, stats.affinity_hits + stats.spilled);
        let per_tile_submitted: u64 =
            stats.tiles.iter().map(|t| t.service.submitted).sum();
        prop_assert_eq!(per_tile_submitted, stats.submitted);
        prop_assert!(stats.tiles.iter().all(|t| t.service.coalesce_max as usize <= max_batch));
        // Single tile degenerates to the plain service: everything is
        // an affinity hit.
        if tiles == 1 {
            prop_assert_eq!(stats.spilled, 0);
        }
    }
}
