//! Streaming-service contracts: streamed submission must agree with
//! staged dispatch and the big-integer oracle, shutdown must drain
//! every accepted ticket, and the bounded queue must push back.

use modsram_bigint::UBig;
use modsram_core::dispatch::{ContextPool, Dispatcher, MulJob};
use modsram_core::service::{ModSramService, ServiceConfig, ServiceError, SubmitError, Ticket};
use modsram_core::test_util::{gated_pool, Gate};
use modsram_modmul::PreparedModMul;
use proptest::prelude::*;

fn oracle(job: &MulJob) -> UBig {
    &(&job.a * &job.b) % &job.modulus
}

/// Odd and even moduli (the Barrett engine accepts both).
fn modulus_pool() -> Vec<UBig> {
    vec![
        UBig::from(97u64),
        UBig::from(0x1_0000u64), // even: 2^16
        UBig::from(1_000_003u64),
        UBig::from(0xffff_fffb_u64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole equivalence: for any mixed-modulus job stream and
    /// any coalescing configuration, streamed submission through the
    /// service ≡ staged `dispatch_jobs` ≡ the big-integer oracle.
    #[test]
    fn streamed_equals_staged_equals_oracle(
        picks in prop::collection::vec((0usize..4, any::<u64>(), any::<u64>()), 1..60),
        max_batch in 1usize..16,
    ) {
        let moduli = modulus_pool();
        let jobs: Vec<MulJob> = picks
            .iter()
            .map(|&(m, a, b)| {
                let p = moduli[m].clone();
                MulJob::new(&UBig::from(a) % &p, &UBig::from(b) % &p, p)
            })
            .collect();
        let want: Vec<UBig> = jobs.iter().map(oracle).collect();

        // Staged reference.
        let pool = ContextPool::for_engine_name("barrett").unwrap();
        let (staged, _) = Dispatcher::new(4).dispatch_jobs(&pool, &jobs).unwrap();
        prop_assert_eq!(&staged, &want);

        // Streamed through a service with the sampled coalescing knobs.
        let service = ModSramService::for_engine_name(
            "barrett",
            ServiceConfig {
                workers: 4,
                queue_capacity: 32,
                max_batch,
            },
        )
        .unwrap();
        let tickets: Vec<Ticket> = jobs
            .iter()
            .map(|j| service.submit(j.clone()).unwrap())
            .collect();
        let streamed: Vec<UBig> = tickets
            .iter()
            .map(|t| t.wait().expect("all moduli valid for barrett"))
            .collect();
        prop_assert_eq!(&streamed, &want);

        let stats = service.shutdown();
        prop_assert_eq!(stats.completed as usize, jobs.len());
        prop_assert_eq!(stats.failed, 0);
        prop_assert!(stats.coalesce_max as usize <= max_batch);
    }
}

#[test]
fn shutdown_drains_all_tickets() {
    // Accept a burst, then shut down immediately: every accepted
    // ticket must still complete (with the right product) before
    // `shutdown` returns.
    let service = ModSramService::for_engine_name(
        "montgomery",
        ServiceConfig {
            workers: 2,
            queue_capacity: 512,
            max_batch: 16,
        },
    )
    .unwrap();
    let p = UBig::from(1_000_003u64);
    let jobs: Vec<MulJob> = (0..200u64)
        .map(|i| MulJob::new(UBig::from(i * 13 + 1), UBig::from(i * 29 + 2), p.clone()))
        .collect();
    let tickets: Vec<Ticket> = jobs
        .iter()
        .map(|j| service.submit(j.clone()).unwrap())
        .collect();
    let stats = service.shutdown();
    for (job, ticket) in jobs.iter().zip(&tickets) {
        assert!(ticket.is_done(), "shutdown returned with a pending ticket");
        assert_eq!(ticket.wait().unwrap(), oracle(job));
    }
    assert_eq!(stats.completed, 200);
    assert_eq!(stats.queue_depth, 0, "queue fully drained");
    // Shutdown is idempotent and keeps refusing work.
    let again = service.shutdown();
    assert_eq!(again.completed, 200);
    assert_eq!(
        service
            .submit(MulJob::new(UBig::from(1u64), UBig::from(2u64), p))
            .err(),
        Some(SubmitError::Stopped)
    );
}

#[test]
fn backpressure_try_submit_reports_queue_full() {
    // Every multiplication parks at one shut gate from the shared
    // fault-injection doubles, so the executor holds its first job and
    // the bounded queue must fill behind it, however the scheduler runs.
    let gate = Gate::new();
    let service = ModSramService::new(
        gated_pool(&gate),
        ServiceConfig {
            workers: 1,
            queue_capacity: 3,
            max_batch: 1,
        },
    );
    let p = UBig::from(97u64);
    let job = |i: u64| MulJob::new(UBig::from(i + 2), UBig::from(i + 3), p.clone());

    // The service holds the one job its single executor has taken plus
    // `queue_capacity` jobs in the queue; the next try_submit is
    // refused.
    let mut tickets = vec![(0, service.try_submit(job(0)).unwrap())];
    gate.wait_entered(1);
    for i in 1..4u64 {
        tickets.push((i, service.try_submit(job(i)).unwrap()));
    }
    assert_eq!(
        service.try_submit(job(4)).err(),
        Some(SubmitError::QueueFull)
    );
    assert_eq!(tickets.len(), 4, "one job at the gate plus 3 queued");
    assert_eq!(service.stats().rejected, 1);
    gate.open();

    // Backpressure is transient: every accepted ticket completes, and
    // once the backlog drains a new submission succeeds.
    for (i, ticket) in &tickets {
        assert_eq!(
            ticket.wait().unwrap(),
            UBig::from((i + 2) * (i + 3) % 97),
            "job {i}"
        );
    }
    let late = service.submit(job(50)).unwrap();
    assert_eq!(late.wait().unwrap(), UBig::from(52u64 * 53 % 97));
    let stats = service.shutdown();
    assert_eq!(stats.completed, tickets.len() as u64 + 1);
}

#[test]
fn executor_panic_fails_tickets_instead_of_hanging() {
    /// A context that violates the batch contract (wrong-length result
    /// vector), which panics the executor
    /// — the executor's unwind guard must fail the tickets rather than
    /// leave their waiters blocked forever.
    struct BrokenCtx {
        p: UBig,
    }

    impl PreparedModMul for BrokenCtx {
        fn engine_name(&self) -> &'static str {
            "broken"
        }

        fn modulus(&self) -> &UBig {
            &self.p
        }

        fn mod_mul(&self, a: &UBig, b: &UBig) -> Result<UBig, modsram_modmul::ModMulError> {
            Ok(&(a * b) % &self.p)
        }

        fn mod_mul_batch(
            &self,
            _pairs: &[(UBig, UBig)],
        ) -> Result<Vec<UBig>, modsram_modmul::ModMulError> {
            Ok(Vec::new()) // wrong size: trips the executor's assert
        }
    }

    let service = ModSramService::new(
        ContextPool::new(|p| Ok(Box::new(BrokenCtx { p: p.clone() }) as Box<dyn PreparedModMul>)),
        ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            max_batch: 4,
        },
    );
    let p = UBig::from(97u64);
    let first = service
        .submit(MulJob::new(UBig::from(2u64), UBig::from(3u64), p.clone()))
        .unwrap();
    assert_eq!(first.wait(), Err(ServiceError::Stopped));
    // The executor survived the panic and keeps serving (and failing)
    // later batches; shutdown still drains cleanly.
    let second = service
        .submit(MulJob::new(UBig::from(4u64), UBig::from(5u64), p))
        .unwrap();
    assert_eq!(second.wait(), Err(ServiceError::Stopped));
    let stats = service.shutdown();
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.completed, 0);
}

#[test]
fn four_submitter_threads_share_one_service() {
    // The acceptance shape in miniature: ≥4 concurrent submitters
    // streaming into one service, every result correct, every job
    // accounted for.
    let service = ModSramService::for_engine_name(
        "montgomery",
        ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            max_batch: 32,
        },
    )
    .unwrap();
    let per_thread = 100u64;
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let handle = service.handle();
            scope.spawn(move || {
                let p = UBig::from(0xffff_fffb_u64);
                for i in 0..per_thread {
                    let a = UBig::from(t * 1_000_003 + i * 17 + 1);
                    let b = UBig::from(t * 999_979 + i * 31 + 2);
                    let ticket = handle
                        .submit(MulJob::new(a.clone(), b.clone(), p.clone()))
                        .unwrap();
                    assert_eq!(ticket.wait().unwrap(), &(&a * &b) % &p);
                }
            });
        }
    });
    let stats = service.shutdown();
    assert_eq!(stats.completed, 4 * per_thread);
    assert_eq!(stats.failed, 0);
    assert!(stats.batches >= 1);
    assert!(stats.wall_p99_ns >= stats.wall_p50_ns);
    assert!(stats.modelled_p99_cycles >= stats.modelled_p50_cycles);
    assert!(stats.modelled_p50_cycles > 0);
}
