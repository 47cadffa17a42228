//! A tile's lanes and a banked tile's banks are modelled, not spawned:
//! a service tile runs every batch on its one executor thread, and a
//! `BankedModSram` runs every bank on the caller's thread.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use modsram_bigint::UBig;
use modsram_core::dispatch::{ContextPool, MulJob};
use modsram_core::service::{ModSramService, ServiceConfig};
use modsram_core::BankedModSram;
use modsram_modmul::{ModMulError, PreparedModMul};

/// A correct context that records the thread of every multiplication.
struct ThreadRecorder {
    p: UBig,
    threads: Arc<Mutex<HashSet<ThreadId>>>,
}

impl PreparedModMul for ThreadRecorder {
    fn engine_name(&self) -> &'static str {
        "thread-recorder"
    }

    fn modulus(&self) -> &UBig {
        &self.p
    }

    fn mod_mul(&self, a: &UBig, b: &UBig) -> Result<UBig, ModMulError> {
        self.threads.lock().unwrap().insert(thread::current().id());
        Ok(&(a * b) % &self.p)
    }
}

fn recording_pool(threads: &Arc<Mutex<HashSet<ThreadId>>>) -> ContextPool {
    let threads = Arc::clone(threads);
    ContextPool::new(move |p| {
        Ok(Box::new(ThreadRecorder {
            p: p.clone(),
            threads: Arc::clone(&threads),
        }) as Box<dyn PreparedModMul>)
    })
}

#[test]
fn a_four_lane_tile_runs_its_batch_on_one_thread() {
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let config = ServiceConfig::default();
    assert_eq!(config.workers, 4, "the default tile has four lanes");
    let service = ModSramService::new(recording_pool(&threads), config);
    let moduli = [UBig::from(1_000_003u64), UBig::from(0xffff_fffb_u64)];
    // 64 jobs over 2 moduli, each its own multiplicand.
    let jobs: Vec<MulJob> = (0..64u64)
        .map(|i| {
            MulJob::new(
                UBig::from(i + 2),
                UBig::from(3 * i + 5),
                moduli[i as usize % 2].clone(),
            )
        })
        .collect();
    let want: Vec<UBig> = jobs.iter().map(|j| &(&j.a * &j.b) % &j.modulus).collect();
    let tickets = service.handle().submit_many(jobs).unwrap();
    let got: Vec<UBig> = tickets.iter().map(|t| t.wait().unwrap()).collect();
    assert_eq!(got, want);
    let stats = service.shutdown();
    assert_eq!(stats.batches, 1, "one window is one batch");
    let threads = threads.lock().unwrap();
    assert_eq!(threads.len(), 1, "one thread ran the batch: {threads:?}");
    assert!(
        !threads.contains(&thread::current().id()),
        "the executor, not the caller, ran the batch"
    );
}

#[test]
fn a_four_bank_tile_multiplies_on_the_calling_thread() {
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let p = UBig::from(1_000_003u64);
    let banks: Vec<Arc<dyn PreparedModMul>> = (0..4)
        .map(|_| {
            Arc::new(ThreadRecorder {
                p: p.clone(),
                threads: Arc::clone(&threads),
            }) as Arc<dyn PreparedModMul>
        })
        .collect();
    let tile = BankedModSram::from_contexts(banks);
    let pairs: Vec<(UBig, UBig)> = (0..64u64)
        .map(|i| (UBig::from(i + 2), UBig::from(3 * i + 5)))
        .collect();
    let (got, stats) = tile.mod_mul_batch(&pairs).unwrap();
    for ((a, b), c) in pairs.iter().zip(&got) {
        assert_eq!(c, &(&(a * b) % &p));
    }
    assert!(
        stats.per_bank_cycles.iter().all(|&items| items > 0),
        "every bank took work: {:?}",
        stats.per_bank_cycles
    );
    assert_eq!(
        *threads.lock().unwrap(),
        HashSet::from([thread::current().id()]),
        "every bank ran on the caller's thread"
    );
}
