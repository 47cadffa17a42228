//! Multi-bank ModSRAM — the paper's §6 system-level direction: several
//! independent macros executing a batch of modular multiplications in
//! parallel (the shape of an MSM/NTT accelerator built from ModSRAM
//! tiles).
//!
//! A bank is **any** [`PreparedModMul`] context, obtained from the
//! engine registry or wrapped around a cycle-accurate device — the
//! hardware model is one pluggable backend among the engines, not a
//! special case. A batch is cut into chunks costed by multiplicand
//! changes (a LUT refill is not free) and seeded onto banks by
//! least-loaded assignment ([`crate::dispatch::plan_mul_chunks`],
//! [`crate::dispatch::seed_assignments`]). Each bank then runs its own
//! chunks front to back, as a macro with a private queue does. The
//! banks are modelled, not spawned: they run one after another on the
//! caller's thread, and the parallel makespan comes from the per-bank
//! cycle meters, so per-bank cycle and energy attribution is
//! deterministic.
//!
//! Energy is attributed **per bank** (before/after deltas on each
//! device, not one global sum), so holding a bank's device handle and
//! using it directly between batches no longer pollutes the next
//! batch's energy account.
//!
//! A tile serves **staged** batches: the caller already holds every
//! pair. To keep a tile saturated from callers that produce work one
//! request at a time, put a [`crate::service::ModSramService`] in
//! front — each free executor takes whatever has queued up (at most
//! [`crate::service::ServiceConfig::max_batch`] jobs), sorts it into a
//! multiplicand-major batch, and executes it the same way, on one
//! thread.
//!
//! # Examples
//!
//! ```
//! use modsram_bigint::UBig;
//! use modsram_core::BankedModSram;
//!
//! let p = UBig::from(0xffff_fffb_u64);
//! // Four banks of prepared Montgomery contexts from the registry.
//! let tile = BankedModSram::with_engine_name(4, "montgomery", &p).unwrap();
//! let pairs: Vec<_> = (1..=8u64)
//!     .map(|i| (UBig::from(i), UBig::from(i + 1)))
//!     .collect();
//! let (results, stats) = tile.mod_mul_batch(&pairs).unwrap();
//! assert_eq!(results[2], UBig::from(12u64));
//! assert_eq!(stats.multiplications, 8);
//! ```

use std::sync::{Arc, Mutex};
use std::time::Instant;

use modsram_bigint::UBig;
use modsram_modmul::{engine_by_name, ModMulEngine, PreparedModMul};

use crate::dispatch::{auto_chunk_size, plan_mul_chunks, seed_assignments};
use crate::error::CoreError;
use crate::modsram::{ModSram, ModSramConfig, PreparedModSram};

/// Aggregate statistics of one batch execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchStats {
    /// Multiplications executed.
    pub multiplications: u64,
    /// Makespan in cycles: the busiest bank's total (multiplication +
    /// LUT precompute when the multiplicand changes). Banks without a
    /// retained device handle — any [`BankedModSram::with_engine`] or
    /// [`BankedModSram::from_contexts`] tile, the device engine
    /// included — fall back to items executed, so the makespan is then
    /// a work-unit count.
    pub makespan_cycles: u64,
    /// Per-bank accumulated cycles ([`BankedModSram::new`] device
    /// tiles) or items executed (everything else).
    pub per_bank_cycles: Vec<u64>,
    /// Total energy across banks, picojoules (0 unless the tile
    /// retains device handles, i.e. was built by
    /// [`BankedModSram::new`]).
    pub energy_pj: f64,
    /// Per-bank energy deltas for this batch, picojoules. Summing this
    /// gives `energy_pj`; direct use of a bank's device **between**
    /// batches lands outside every window and is charged to no batch.
    pub per_bank_energy_pj: Vec<f64>,
    /// Host wall-clock for the batch, nanoseconds.
    pub elapsed_ns: u64,
}

impl BatchStats {
    /// Parallel speedup vs executing the same batch on one bank.
    pub fn speedup(&self) -> f64 {
        let total: u64 = self.per_bank_cycles.iter().sum();
        if self.makespan_cycles == 0 {
            1.0
        } else {
            total as f64 / self.makespan_cycles as f64
        }
    }
}

/// One bank: a prepared execution context, plus the device handle when
/// the backend is the cycle-accurate ModSRAM model.
struct BankShard {
    ctx: Arc<dyn PreparedModMul>,
    dev: Option<Arc<PreparedModSram>>,
}

/// A tile of independent banks sharing a modulus.
pub struct BankedModSram {
    shards: Vec<BankShard>,
    /// Serialises *metered* batches: per-bank cycle/energy attribution
    /// reads each device's meters before and after the dispatch, so two
    /// concurrent batches on one device-backed tile would land inside
    /// each other's windows and double-count. Engine-backed tiles have
    /// no meters and skip the lock entirely.
    meter_lock: Mutex<()>,
}

impl core::fmt::Debug for BankedModSram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "BankedModSram {{ banks: {}, engine: {} }}",
            self.shards.len(),
            self.engine_name()
        )
    }
}

impl BankedModSram {
    /// Builds `n_banks` identical cycle-accurate devices and loads `p`
    /// into each — the classic tile, and the only constructor that
    /// retains per-bank device handles, so batch statistics carry real
    /// cycle and energy meters (a device tile built through
    /// [`BankedModSram::with_engine`] executes identically but reports
    /// the work-unit fallback, like any engine bank).
    ///
    /// # Errors
    ///
    /// Propagates device construction/load errors.
    ///
    /// # Panics
    ///
    /// Panics if `n_banks == 0`.
    pub fn new(n_banks: usize, config: ModSramConfig, p: &UBig) -> Result<Self, CoreError> {
        assert!(n_banks > 0, "need at least one bank");
        let mut shards = Vec::with_capacity(n_banks);
        for _ in 0..n_banks {
            let mut dev = ModSram::new(config.clone())?;
            dev.load_modulus(p)?;
            let dev = Arc::new(PreparedModSram::from_device(dev)?);
            shards.push(BankShard {
                ctx: Arc::clone(&dev) as Arc<dyn PreparedModMul>,
                dev: Some(dev),
            });
        }
        Ok(Self::from_shards(shards))
    }

    /// Builds `n_banks` banks, each holding its own context prepared by
    /// `engine` — any [`ModMulEngine`], the ModSRAM device included.
    ///
    /// # Errors
    ///
    /// Propagates the engine's preparation error.
    ///
    /// # Panics
    ///
    /// Panics if `n_banks == 0`.
    pub fn with_engine(
        n_banks: usize,
        engine: &dyn ModMulEngine,
        p: &UBig,
    ) -> Result<Self, CoreError> {
        assert!(n_banks > 0, "need at least one bank");
        let mut ctxs = Vec::with_capacity(n_banks);
        for _ in 0..n_banks {
            ctxs.push(Arc::from(engine.prepare(p).map_err(CoreError::ModMul)?));
        }
        Ok(Self::from_contexts(ctxs))
    }

    /// Builds banks over a registry engine by name.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownEngine`] for a name absent from the
    /// registry; otherwise as [`BankedModSram::with_engine`].
    pub fn with_engine_name(n_banks: usize, name: &str, p: &UBig) -> Result<Self, CoreError> {
        let engine = engine_by_name(name).ok_or_else(|| CoreError::unknown_engine(name))?;
        Self::with_engine(n_banks, engine.as_ref(), p)
    }

    /// Builds a tile directly from prepared contexts (e.g. contexts
    /// drawn from a [`crate::dispatch::ContextPool`]).
    ///
    /// # Panics
    ///
    /// Panics if `ctxs` is empty or the contexts disagree on modulus.
    pub fn from_contexts(ctxs: Vec<Arc<dyn PreparedModMul>>) -> Self {
        assert!(!ctxs.is_empty(), "need at least one bank");
        assert!(
            ctxs.iter().all(|c| c.modulus() == ctxs[0].modulus()),
            "banks must share one modulus"
        );
        Self::from_shards(
            ctxs.into_iter()
                .map(|ctx| BankShard { ctx, dev: None })
                .collect(),
        )
    }

    fn from_shards(shards: Vec<BankShard>) -> Self {
        BankedModSram {
            shards,
            meter_lock: Mutex::new(()),
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.shards.len()
    }

    /// The backend engine's name.
    pub fn engine_name(&self) -> &'static str {
        self.shards[0].ctx.engine_name()
    }

    /// The shared modulus.
    pub fn modulus(&self) -> &UBig {
        self.shards[0].ctx.modulus()
    }

    /// The prepared context of bank `index`.
    pub fn context(&self, index: usize) -> &Arc<dyn PreparedModMul> {
        &self.shards[index].ctx
    }

    /// The device handle of bank `index`, when the backend is the
    /// cycle-accurate model.
    pub fn device(&self, index: usize) -> Option<&Arc<PreparedModSram>> {
        self.shards[index].dev.as_ref()
    }

    /// Runs `f` on bank `index`'s locked device (stats inspection,
    /// fault injection); `None` for engine-backed banks.
    pub fn with_bank_device<T>(
        &self,
        index: usize,
        f: impl FnOnce(&mut ModSram) -> T,
    ) -> Option<T> {
        self.shards[index].dev.as_ref().map(|d| d.with_device(f))
    }

    /// Snapshot of each device bank's `(cycles, energy)`; `None` slots
    /// for engine banks.
    fn bank_meters(&self) -> Vec<Option<(u64, f64)>> {
        self.shards
            .iter()
            .map(|s| s.dev.as_ref().map(|d| (d.total_cycles(), d.energy_pj())))
            .collect()
    }

    /// Executes a batch of multiplications across the banks: chunks
    /// are seeded onto banks by least-loaded assignment, and each bank
    /// runs its chunks front to back, bank after bank, on the calling
    /// thread. Returns results in input order plus the aggregate
    /// statistics.
    ///
    /// # Errors
    ///
    /// Propagates the first backend error encountered.
    pub fn mod_mul_batch(
        &self,
        pairs: &[(UBig, UBig)],
    ) -> Result<(Vec<UBig>, BatchStats), CoreError> {
        // Device-backed tiles serialise whole batches so the per-bank
        // meter windows of concurrent callers cannot overlap (which
        // would double-count cycles and energy in both batches).
        let _meter_guard = self.shards.iter().any(|s| s.dev.is_some()).then(|| {
            self.meter_lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        });
        let started = Instant::now();
        let chunks = plan_mul_chunks(pairs, auto_chunk_size(pairs.len(), self.shards.len()));
        let mut parts: Vec<Vec<UBig>> = vec![Vec::new(); chunks.len()];
        let mut per_bank_items = vec![0u64; self.shards.len()];
        let before = self.bank_meters();
        let assignments = seed_assignments(&chunks, self.shards.len());
        for (bank, ids) in assignments.iter().enumerate() {
            for &id in ids {
                let chunk = &pairs[chunks[id].range.clone()];
                let out = self.shards[bank]
                    .ctx
                    .mod_mul_batch(chunk)
                    .map_err(CoreError::ModMul)?;
                assert_eq!(
                    out.len(),
                    chunk.len(),
                    "a bank returned a wrong-sized chunk result"
                );
                per_bank_items[bank] += out.len() as u64;
                parts[id] = out;
            }
        }
        let after = self.bank_meters();
        let results = parts.into_iter().flatten().collect();
        let mut stats = self.aggregate(&before, &after, &per_bank_items);
        stats.elapsed_ns = started.elapsed().as_nanos() as u64;
        Ok((results, stats))
    }

    /// Folds per-bank item counts and meter deltas into the tile-level
    /// [`BatchStats`].
    fn aggregate(
        &self,
        before: &[Option<(u64, f64)>],
        after: &[Option<(u64, f64)>],
        per_bank_items: &[u64],
    ) -> BatchStats {
        let n_banks = self.shards.len();
        let mut stats = BatchStats {
            multiplications: per_bank_items.iter().sum(),
            per_bank_cycles: vec![0; n_banks],
            per_bank_energy_pj: vec![0.0; n_banks],
            ..Default::default()
        };
        for (bank, (b, a)) in before.iter().zip(after).enumerate() {
            match (b, a) {
                (Some((c0, e0)), Some((c1, e1))) => {
                    stats.per_bank_cycles[bank] = c1 - c0;
                    stats.per_bank_energy_pj[bank] = e1 - e0;
                }
                _ => {
                    // Engine banks model no cycles or energy; report
                    // items executed as work units.
                    stats.per_bank_cycles[bank] = per_bank_items[bank];
                }
            }
        }
        stats.energy_pj = stats.per_bank_energy_pj.iter().sum();
        stats.makespan_cycles = stats.per_bank_cycles.iter().copied().max().unwrap_or(0);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsram_bigint::ubig_below;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn config() -> ModSramConfig {
        ModSramConfig {
            n_bits: 32,
            ..Default::default()
        }
    }

    fn random_pairs(count: usize, p: &UBig, seed: u64) -> Vec<(UBig, UBig)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..count)
            .map(|_| (ubig_below(&mut rng, p), ubig_below(&mut rng, p)))
            .collect()
    }

    #[test]
    fn batch_results_match_oracle() {
        let p = UBig::from(0xffff_fffb_u64);
        let tile = BankedModSram::new(4, config(), &p).unwrap();
        let pairs = random_pairs(13, &p, 21);
        let (results, stats) = tile.mod_mul_batch(&pairs).unwrap();
        assert_eq!(results.len(), 13);
        for ((a, b), c) in pairs.iter().zip(&results) {
            assert_eq!(c, &(&(a * b) % &p));
        }
        assert_eq!(stats.multiplications, 13);
        assert_eq!(stats.per_bank_cycles.len(), 4);
        assert_eq!(stats.per_bank_energy_pj.len(), 4);
    }

    #[test]
    fn engine_banks_match_oracle() {
        let p = UBig::from(0xffff_fffb_u64);
        let pairs = random_pairs(17, &p, 31);
        for name in ["montgomery", "barrett", "radix4", "modsram"] {
            let tile = if name == "modsram" {
                BankedModSram::with_engine(3, &ModSram::new(config()).unwrap(), &p).unwrap()
            } else {
                BankedModSram::with_engine_name(3, name, &p).unwrap()
            };
            assert_eq!(tile.engine_name(), name);
            assert_eq!(tile.modulus(), &p);
            let (results, stats) = tile.mod_mul_batch(&pairs).unwrap();
            for ((a, b), c) in pairs.iter().zip(&results) {
                assert_eq!(c, &(&(a * b) % &p), "{name}");
            }
            assert_eq!(stats.multiplications, 17, "{name}");
        }
    }

    #[test]
    fn unknown_engine_name_is_reported() {
        let err =
            BankedModSram::with_engine_name(2, "no-such-engine", &UBig::from(97u64)).unwrap_err();
        assert_eq!(err, CoreError::unknown_engine("no-such-engine"));
        // The message names every registered engine so the fix is in the
        // error itself.
        let msg = err.to_string();
        assert!(msg.contains("'no-such-engine'"), "{msg}");
        assert!(msg.contains("r4csa-lut"), "{msg}");
        assert!(msg.contains("carryfree"), "{msg}");
    }

    #[test]
    fn parallel_speedup_approaches_bank_count() {
        let p = UBig::from(0xffff_fffb_u64);
        let pairs = random_pairs(32, &p, 22);

        let one = BankedModSram::new(1, config(), &p).unwrap();
        let (_, s1) = one.mod_mul_batch(&pairs).unwrap();
        let eight = BankedModSram::new(8, config(), &p).unwrap();
        let (_, s8) = eight.mod_mul_batch(&pairs).unwrap();

        assert!(s8.makespan_cycles < s1.makespan_cycles);
        let speedup = s1.makespan_cycles as f64 / s8.makespan_cycles as f64;
        assert!(speedup > 6.0, "speedup {speedup}");
        assert!((s8.speedup() - speedup).abs() / speedup < 0.2);
        // Work is conserved: both tiles execute the same multiplications
        // and refills, just spread differently.
        let total8: u64 = s8.per_bank_cycles.iter().sum();
        let ratio = total8 as f64 / s1.makespan_cycles as f64;
        assert!(ratio > 0.9 && ratio < 1.1, "ratio {ratio}");
    }

    #[test]
    fn energy_scales_with_work_not_banks() {
        let p = UBig::from(0xffff_fffb_u64);
        let pairs = random_pairs(8, &p, 23);
        let one = BankedModSram::new(1, config(), &p).unwrap();
        let (_, s1) = one.mod_mul_batch(&pairs).unwrap();
        let four = BankedModSram::new(4, config(), &p).unwrap();
        let (_, s4) = four.mod_mul_batch(&pairs).unwrap();
        // Same multiplications → comparable total energy (LUT refills
        // differ slightly since each bank fills its own tables).
        let ratio = s4.energy_pj / s1.energy_pj;
        assert!(ratio > 0.8 && ratio < 1.6, "ratio {ratio}");
        // Per-bank deltas sum to the total.
        let sum: f64 = s4.per_bank_energy_pj.iter().sum();
        assert!((sum - s4.energy_pj).abs() < 1e-9);
    }

    #[test]
    fn direct_bank_use_between_batches_is_not_charged_to_the_batch() {
        let p = UBig::from(0xffff_fffb_u64);
        let tile = BankedModSram::new(2, config(), &p).unwrap();
        let pairs = random_pairs(6, &p, 29);
        let (_, first) = tile.mod_mul_batch(&pairs).unwrap();

        // Hammer bank 0's device directly between batches.
        for i in 0..5u64 {
            tile.with_bank_device(0, |d| {
                d.mod_mul(&UBig::from(1234 + i), &UBig::from(777u64))
                    .unwrap();
            })
            .expect("device bank");
        }

        let (_, second) = tile.mod_mul_batch(&pairs).unwrap();
        // The second batch does the same work as the first (same pairs,
        // same per-bank assignment under the static policy), minus the
        // multiplicand refills already cached — so its energy cannot
        // exceed the first batch's. The seed's global before/after
        // delta held this too, but could not attribute it per bank.
        assert!(
            second.energy_pj <= first.energy_pj * 1.05,
            "direct use leaked into batch stats: {} vs {}",
            second.energy_pj,
            first.energy_pj
        );
        for (bank, (f, s)) in first
            .per_bank_energy_pj
            .iter()
            .zip(&second.per_bank_energy_pj)
            .enumerate()
        {
            assert!(s <= &(f * 1.05), "bank {bank}: {s} vs {f}");
        }
    }

    #[test]
    fn concurrent_batches_do_not_double_count_meters() {
        // Two threads batching on one device tile: the meter lock keeps
        // their attribution windows disjoint, so the batches' energy
        // totals partition the devices' overall energy delta exactly.
        let p = UBig::from(0xffff_fffb_u64);
        let tile = BankedModSram::new(2, config(), &p).unwrap();
        let pairs = random_pairs(6, &p, 77);
        let device_energy = |tile: &BankedModSram| -> f64 {
            (0..tile.banks())
                .map(|i| tile.device(i).expect("device tile").energy_pj())
                .sum()
        };
        let before = device_energy(&tile);
        let batch_energies = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let tile = &tile;
                let pairs = &pairs;
                let batch_energies = &batch_energies;
                scope.spawn(move || {
                    let (_, stats) = tile.mod_mul_batch(pairs).unwrap();
                    batch_energies
                        .lock()
                        .expect("collect lock")
                        .push(stats.energy_pj);
                });
            }
        });
        let after = device_energy(&tile);
        let attributed: f64 = batch_energies
            .into_inner()
            .expect("collect lock")
            .iter()
            .sum();
        assert!(
            (attributed - (after - before)).abs() < 1e-6,
            "attributed {attributed} vs actual {}",
            after - before
        );
    }

    #[test]
    fn uneven_multiplicand_costs_balance_across_banks() {
        // First half shares one multiplicand (one refill), second half
        // changes every pair (refill-heavy). Index round-robin would
        // split each half evenly by count, not by cost; least-loaded
        // seeding balances the refill-heavy chunks instead.
        let p = UBig::from(0xffff_fffb_u64);
        let shared = UBig::from(0x1234_5678u64);
        let mut pairs: Vec<(UBig, UBig)> = (0..16u64)
            .map(|i| (UBig::from(i + 2), shared.clone()))
            .collect();
        pairs.extend((0..16u64).map(|i| (UBig::from(i + 3), UBig::from(1000 + 7 * i))));
        let tile = BankedModSram::new(4, config(), &p).unwrap();
        let (results, stats) = tile.mod_mul_batch(&pairs).unwrap();
        for ((a, b), c) in pairs.iter().zip(&results) {
            assert_eq!(c, &(&(a * b) % &p));
        }
        let total: u64 = stats.per_bank_cycles.iter().sum();
        let ideal = total as f64 / 4.0;
        assert!(
            (stats.makespan_cycles as f64) < ideal * 1.6,
            "makespan {} vs ideal {ideal}",
            stats.makespan_cycles
        );
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = BankedModSram::new(0, config(), &UBig::from(97u64));
    }

    #[test]
    #[should_panic(expected = "share one modulus")]
    fn mixed_modulus_contexts_rejected() {
        use modsram_modmul::{DirectEngine, ModMulEngine as _};
        let a = Arc::from(DirectEngine::new().prepare(&UBig::from(97u64)).unwrap());
        let b = Arc::from(DirectEngine::new().prepare(&UBig::from(101u64)).unwrap());
        let _ = BankedModSram::from_contexts(vec![a, b]);
    }
}
