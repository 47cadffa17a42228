//! Radix-2 number-theoretic transform over a prime field — the NTT
//! component of the paper's Figure 7 ZKP study.
//!
//! A classic in-place Cooley–Tukey butterfly network over `F_r` where
//! `r − 1` is divisible by `2^s` (BN254's scalar field has `s = 28`,
//! plenty for the paper's `2¹⁵`-point transforms).

use modsram_bigint::{mod_pow, UBig};
use modsram_core::dispatch::MulJob;
use modsram_core::service::MulBackend;
use modsram_core::CoreError;

use crate::field::{DynCtx, FieldCtx};

/// A planned NTT of fixed size over a field context.
///
/// Twiddle factors are precomputed at plan time (the standard
/// implementation choice, and what the paper's NTT references do), so a
/// counted [`NttPlan::forward`] performs *exactly* `(n/2)·log₂ n` field
/// multiplications — the Figure 7 "modular multiplication" metric.
#[derive(Debug)]
pub struct NttPlan<'a, C: FieldCtx> {
    ctx: &'a C,
    log_n: usize,
    /// `twiddles[s][k] = w_len^k` for stage `s` (len = 2^(s+1)).
    twiddles: Vec<Vec<C::El>>,
    /// Same for the inverse transform.
    twiddles_inv: Vec<Vec<C::El>>,
    n_inv: C::El,
}

/// Errors from NTT planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NttError {
    /// The field's 2-adicity cannot support this transform size.
    SizeUnsupported {
        /// Requested log₂ size.
        log_n: usize,
        /// The field's 2-adicity.
        two_adicity: usize,
    },
}

impl core::fmt::Display for NttError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NttError::SizeUnsupported { log_n, two_adicity } => write!(
                f,
                "transform of 2^{log_n} points needs 2-adicity {log_n}, field has {two_adicity}"
            ),
        }
    }
}

impl std::error::Error for NttError {}

impl<'a, C: FieldCtx> NttPlan<'a, C> {
    /// Plans a `2^log_n`-point transform, deriving a primitive root of
    /// unity from `generator` (a multiplicative generator or any element
    /// whose order is divisible by `2^log_n`; BN254 Fr uses 5).
    ///
    /// # Errors
    ///
    /// [`NttError::SizeUnsupported`] when the field's 2-adicity is too
    /// small.
    pub fn new(ctx: &'a C, log_n: usize, generator: &UBig) -> Result<Self, NttError> {
        let r = ctx.modulus();
        let mut t = r - &UBig::one();
        let mut two_adicity = 0usize;
        while t.is_even() {
            t = &t >> 1;
            two_adicity += 1;
        }
        if log_n > two_adicity {
            return Err(NttError::SizeUnsupported { log_n, two_adicity });
        }
        // ω = g^((r−1) / 2^log_n) has order exactly 2^log_n when g is a
        // generator.
        let exp = &(r - &UBig::one()) >> log_n;
        let omega = mod_pow(generator, &exp, r);
        let root = ctx.from_ubig(&omega);
        let root_inv = ctx.inv(&root).expect("root of unity is invertible");
        let n_inv_int = ctx
            .inv(&ctx.from_ubig(&UBig::pow2(log_n)))
            .expect("2^log_n invertible in odd field");
        Ok(NttPlan {
            twiddles: Self::build_tables(ctx, log_n, &root),
            twiddles_inv: Self::build_tables(ctx, log_n, &root_inv),
            ctx,
            log_n,
            n_inv: n_inv_int,
        })
    }

    /// Per-stage twiddle tables: for stage `s` (butterfly span
    /// `len = 2^(s+1)`), powers `w_len^k` for `k < len/2` where
    /// `w_len = root^(n/len)`.
    fn build_tables(ctx: &C, log_n: usize, root: &C::El) -> Vec<Vec<C::El>> {
        let n = 1usize << log_n;
        let mut tables = Vec::with_capacity(log_n);
        for s in 0..log_n {
            let len = 1usize << (s + 1);
            let mut w_len = root.clone();
            let mut hops = n / len;
            while hops > 1 {
                w_len = ctx.square(&w_len);
                hops /= 2;
            }
            let mut table = Vec::with_capacity(len / 2);
            let mut w = ctx.one();
            for _ in 0..len / 2 {
                table.push(w.clone());
                w = ctx.mul(&w, &w_len);
            }
            tables.push(table);
        }
        tables
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        1 << self.log_n
    }

    /// `true` for the degenerate 1-point plan.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward NTT: exactly `(n/2)·log₂ n` multiplications.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [C::El]) {
        self.transform(data, &self.twiddles);
    }

    /// In-place inverse NTT (includes the `1/n` scaling: `n` extra
    /// multiplications).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [C::El]) {
        self.transform(data, &self.twiddles_inv);
        for v in data.iter_mut() {
            *v = self.ctx.mul(v, &self.n_inv);
        }
    }

    /// Iterative Cooley–Tukey with bit-reversal permutation and
    /// precomputed twiddles: one multiplication per butterfly.
    fn transform(&self, data: &mut [C::El], twiddles: &[Vec<C::El>]) {
        let n = self.len();
        assert_eq!(data.len(), n, "data length must match the plan");
        // Bit reversal.
        for i in 0..n {
            let j = bit_reverse(i, self.log_n);
            if i < j {
                data.swap(i, j);
            }
        }
        // Butterfly stages.
        let ctx = self.ctx;
        for (s, table) in twiddles.iter().enumerate() {
            let len = 1usize << (s + 1);
            for start in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    let u = data[start + k].clone();
                    let t = ctx.mul(&table[k], &data[start + k + len / 2]);
                    data[start + k] = ctx.add(&u, &t);
                    data[start + k + len / 2] = ctx.sub(&u, &t);
                }
            }
        }
    }
}

/// The backend execution path: available when the plan's field context
/// is engine-backed ([`DynCtx`]), whose elements are canonical `UBig`
/// residues any [`MulBackend`] can multiply directly.
///
/// Each butterfly stage is one *layer*: all `n/2` twiddle
/// multiplications of the stage are independent, so they are submitted
/// as a single batch, ordered twiddle-major — every run of consecutive
/// pairs shares its multiplicand, which is exactly the reuse pattern
/// the radix-4 LUT engines and the ModSRAM device amortise (`B`
/// wordlines rewritten only on change). The cheap adds/subs between
/// stages stay serial on the plan's context.
impl<'a> NttPlan<'a, DynCtx> {
    /// In-place forward NTT with each stage's multiplications going out
    /// as one twiddle-major job batch — staged through a
    /// [`modsram_core::Staged`] dispatcher + pool, or streamed through a
    /// shared service or cluster where they coalesce with whatever
    /// other tenants are submitting.
    ///
    /// # Errors
    ///
    /// Propagates the first backend error.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward_via(
        &self,
        data: &mut [UBig],
        backend: &dyn MulBackend,
    ) -> Result<(), CoreError> {
        self.transform_with(data, &self.twiddles, backend)
    }

    /// In-place inverse NTT over any backend (the `1/n` scaling is one
    /// further shared-multiplicand batch).
    ///
    /// # Errors
    ///
    /// Propagates the first backend error.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse_via(
        &self,
        data: &mut [UBig],
        backend: &dyn MulBackend,
    ) -> Result<(), CoreError> {
        self.transform_with(data, &self.twiddles_inv, backend)?;
        let scaled = self.mul_stage(
            backend,
            data.iter().map(|v| (v.clone(), self.n_inv.clone())),
        )?;
        data.clone_from_slice(&scaled);
        Ok(())
    }

    /// Executes one stage's pairs as one job batch over the plan's
    /// modulus, products in pair order.
    fn mul_stage(
        &self,
        backend: &dyn MulBackend,
        pairs: impl Iterator<Item = (UBig, UBig)>,
    ) -> Result<Vec<UBig>, CoreError> {
        let p = self.ctx.modulus();
        let jobs: Vec<MulJob> = pairs.map(|(a, b)| MulJob::new(a, b, p.clone())).collect();
        backend.mul_jobs(&jobs)
    }

    /// The stage-batched transform core.
    fn transform_with(
        &self,
        data: &mut [UBig],
        twiddles: &[Vec<UBig>],
        backend: &dyn MulBackend,
    ) -> Result<(), CoreError> {
        let n = self.len();
        assert_eq!(data.len(), n, "data length must match the plan");
        // Bit reversal.
        for i in 0..n {
            let j = bit_reverse(i, self.log_n);
            if i < j {
                data.swap(i, j);
            }
        }
        // One batch per butterfly stage, twiddle-major so consecutive
        // pairs share their multiplicand.
        let ctx = self.ctx;
        for (s, table) in twiddles.iter().enumerate() {
            let len = 1usize << (s + 1);
            let view = &*data;
            let pairs = table.iter().enumerate().flat_map(move |(k, w)| {
                (0..n)
                    .step_by(len)
                    .map(move |start| (view[start + k + len / 2].clone(), w.clone()))
            });
            let products = self.mul_stage(backend, pairs)?;
            let mut idx = 0usize;
            for k in 0..len / 2 {
                for start in (0..n).step_by(len) {
                    let u = data[start + k].clone();
                    let t = &products[idx];
                    idx += 1;
                    data[start + k] = ctx.add(&u, t);
                    data[start + k + len / 2] = ctx.sub(&u, t);
                }
            }
        }
        Ok(())
    }
}

fn bit_reverse(mut v: usize, bits: usize) -> usize {
    let mut out = 0;
    for _ in 0..bits {
        out = (out << 1) | (v & 1);
        v >>= 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::bn254_fr_ctx;
    use crate::field::Fp256Ctx;
    use modsram_bigint::ubig_below;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// F_97 has 2-adicity 5 (96 = 2^5·3); 5 is a generator.
    fn f97() -> Fp256Ctx {
        Fp256Ctx::new(&UBig::from(97u64))
    }

    #[test]
    fn size_validation() {
        let ctx = f97();
        assert!(NttPlan::new(&ctx, 5, &UBig::from(5u64)).is_ok());
        let err = NttPlan::new(&ctx, 6, &UBig::from(5u64)).unwrap_err();
        assert_eq!(
            err,
            NttError::SizeUnsupported {
                log_n: 6,
                two_adicity: 5
            }
        );
    }

    #[test]
    fn forward_matches_naive_dft() {
        let ctx = f97();
        let plan = NttPlan::new(&ctx, 3, &UBig::from(5u64)).unwrap();
        let input: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let mut data: Vec<_> = input
            .iter()
            .map(|&v| ctx.from_ubig(&UBig::from(v)))
            .collect();
        // ω from the plan, reconstructed for the naive sum.
        let omega = ctx.to_ubig(&{
            let exp = &(&UBig::from(97u64) - &UBig::one()) >> 3;
            ctx.from_ubig(&mod_pow(&UBig::from(5u64), &exp, &UBig::from(97u64)))
        });
        plan.forward(&mut data);
        #[allow(clippy::needless_range_loop)] // k is the DFT bin index
        for k in 0..8usize {
            let mut want = 0u64;
            for (j, &x) in input.iter().enumerate() {
                let tw = mod_pow(&omega, &UBig::from((j * k) as u64), &UBig::from(97u64)).low_u64();
                want = (want + x * tw) % 97;
            }
            assert_eq!(ctx.to_ubig(&data[k]).low_u64(), want, "bin {k}");
        }
    }

    #[test]
    fn roundtrip_small_field() {
        let ctx = f97();
        let plan = NttPlan::new(&ctx, 4, &UBig::from(5u64)).unwrap();
        let original: Vec<_> = (0..16u64)
            .map(|v| ctx.from_ubig(&UBig::from(v * 7 % 97)))
            .collect();
        let mut data = original.clone();
        plan.forward(&mut data);
        assert_ne!(data, original);
        plan.inverse(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn roundtrip_bn254_fr() {
        let ctx = bn254_fr_ctx();
        let plan = NttPlan::new(&ctx, 8, &UBig::from(5u64)).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let original: Vec<_> = (0..256)
            .map(|_| ctx.from_ubig(&ubig_below(&mut rng, ctx.modulus())))
            .collect();
        let mut data = original.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn dispatched_transform_matches_serial() {
        use modsram_core::dispatch::{ContextPool, Dispatcher};
        use modsram_core::service::Staged;
        use modsram_modmul::engine_by_name;

        // Plan over an engine-backed context for BN254 Fr, then run the
        // same transform serially and through staged dispatch.
        let fr = crate::curves::bn254_fr_ctx();
        let p = fr.modulus().clone();
        let dyn_ctx = crate::field::DynCtx::new(&p, engine_by_name("montgomery").unwrap());
        let plan = NttPlan::new(&dyn_ctx, 5, &UBig::from(5u64)).unwrap();

        let mut rng = SmallRng::seed_from_u64(17);
        let original: Vec<UBig> = (0..32).map(|_| ubig_below(&mut rng, &p)).collect();

        let mut serial = original.clone();
        plan.forward(&mut serial);

        let pool = ContextPool::for_engine_name("montgomery").unwrap();
        for workers in [1usize, 4] {
            let dispatcher = Dispatcher::new(workers);
            let staged = Staged {
                dispatcher: &dispatcher,
                pool: &pool,
            };
            let mut dispatched = original.clone();
            plan.forward_via(&mut dispatched, &staged).unwrap();
            assert_eq!(dispatched, serial, "workers={workers}");
            plan.inverse_via(&mut dispatched, &staged).unwrap();
            assert_eq!(dispatched, original, "workers={workers}");
        }
        assert_eq!(pool.misses(), 1, "every stage shares one preparation");
    }

    #[test]
    fn backend_generic_transform_matches_serial() {
        use modsram_core::cluster::{ClusterConfig, ServiceCluster};
        use modsram_core::dispatch::{ContextPool, Dispatcher};
        use modsram_core::service::{ModSramService, ServiceConfig, Staged};
        use modsram_modmul::engine_by_name;

        let p = UBig::from(97u64); // 2-adicity 5, generator 5
        let dyn_ctx = crate::field::DynCtx::new(&p, engine_by_name("montgomery").unwrap());
        let plan = NttPlan::new(&dyn_ctx, 4, &UBig::from(5u64)).unwrap();
        let original: Vec<UBig> = (0..16u64).map(|v| UBig::from(v * 7 % 97)).collect();
        let mut serial = original.clone();
        plan.forward(&mut serial);

        let pool = ContextPool::for_engine_name("montgomery").unwrap();
        let dispatcher = Dispatcher::new(2);
        let staged = Staged {
            dispatcher: &dispatcher,
            pool: &pool,
        };
        let service =
            ModSramService::for_engine_name("montgomery", ServiceConfig::default()).unwrap();
        let cluster =
            ServiceCluster::for_engine_name("montgomery", 2, ClusterConfig::default()).unwrap();
        for (name, backend) in [
            ("staged", &staged as &dyn MulBackend),
            ("service", &service),
            ("cluster", &cluster),
        ] {
            let mut data = original.clone();
            plan.forward_via(&mut data, backend).unwrap();
            assert_eq!(data, serial, "{name}");
            plan.inverse_via(&mut data, backend).unwrap();
            assert_eq!(data, original, "{name}");
        }

        // Every butterfly multiplication rode the queue: 4 stages × 8
        // muls, the same again inverse, + 16 scaling muls.
        let jobs = 32 + 32 + 16;
        let stats = service.shutdown();
        assert_eq!((stats.completed, stats.failed), (jobs, 0));
        // The one-modulus transform homes on a single tile, so the job
        // count matches the single-service path exactly.
        let stats = cluster.shutdown();
        assert_eq!((stats.completed, stats.failed), (jobs, 0));
        assert_eq!(stats.affinity_hit_rate(), 1.0);
        let home = cluster.home_tile(&p).expect("a routable tile homes p");
        assert_eq!(stats.tiles[home].service.completed, jobs);
    }

    #[test]
    fn convolution_theorem_spot_check() {
        // NTT(a) ⊙ NTT(b) = NTT(a ⊛ b) for cyclic convolution.
        let ctx = f97();
        let plan = NttPlan::new(&ctx, 3, &UBig::from(5u64)).unwrap();
        let a: Vec<u64> = vec![1, 2, 3, 0, 0, 0, 0, 0];
        let b: Vec<u64> = vec![5, 6, 0, 0, 0, 0, 0, 0];
        // Cyclic convolution by hand (degrees small enough not to wrap).
        let mut conv = [0u64; 8];
        for i in 0..8 {
            for j in 0..8 {
                conv[(i + j) % 8] = (conv[(i + j) % 8] + a[i] * b[j]) % 97;
            }
        }
        let mut fa: Vec<_> = a.iter().map(|&v| ctx.from_ubig(&UBig::from(v))).collect();
        let mut fb: Vec<_> = b.iter().map(|&v| ctx.from_ubig(&UBig::from(v))).collect();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut prod: Vec<_> = fa.iter().zip(&fb).map(|(x, y)| ctx.mul(x, y)).collect();
        plan.inverse(&mut prod);
        for k in 0..8 {
            assert_eq!(ctx.to_ubig(&prod[k]).low_u64(), conv[k], "coef {k}");
        }
    }

    #[test]
    fn butterfly_count_is_exactly_half_n_log_n() {
        let ctx = f97();
        let plan = NttPlan::new(&ctx, 4, &UBig::from(5u64)).unwrap();
        let mut data: Vec<_> = (0..16u64).map(|v| ctx.from_ubig(&UBig::from(v))).collect();
        ctx.reset_counts();
        plan.forward(&mut data);
        // (n/2)·log n = 32 with precomputed twiddles — the Figure 7
        // modular-multiplication count.
        assert_eq!(ctx.counts().mul, 32);
        ctx.reset_counts();
        plan.inverse(&mut data);
        // Inverse adds the n scaling multiplications.
        assert_eq!(ctx.counts().mul, 32 + 16);
    }
}
