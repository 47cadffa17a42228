//! Pedersen vector commitments over BN254 — the MSM workload of
//! Figure 7 doing real cryptographic work.
//!
//! `commit(v, r) = Σ vᵢ·Gᵢ + r·H` with independent bases derived by
//! hash-to-scalar from a domain tag. Hiding comes from the blinding
//! factor `r`; binding from the discrete log relation between the
//! bases being unknown.

use modsram_bigint::{ubig_below, UBig};
use modsram_core::service::MulBackend;
use modsram_core::CoreError;
use modsram_ecc::curve::{Affine, Curve, Jacobian};
use modsram_ecc::curves::{bn254_fast, bn254_via, bn254_with_engine};
use modsram_ecc::msm::msm;
use modsram_ecc::scalar::mul_scalar_wnaf;
use modsram_ecc::{DynCtx, FieldCtx, Fp256Ctx};
use modsram_modmul::ModMulEngine;
use rand::Rng;

use crate::sha256::sha256;

/// A Pedersen committer with `size` value bases plus one blinding base.
///
/// Generic over the field backend: the default is the fast 256-bit
/// Montgomery context, and [`PedersenCommitter::new_with_engine`] runs
/// every field multiplication through a prepared engine context instead
/// (including the cycle-accurate ModSRAM device).
pub struct PedersenCommitter<C: FieldCtx = Fp256Ctx> {
    curve: Curve<C>,
    bases: Vec<Affine<C::El>>,
    blinding_base: Affine<C::El>,
}

impl<C: FieldCtx> core::fmt::Debug for PedersenCommitter<C> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PedersenCommitter {{ size: {} }}", self.bases.len())
    }
}

impl PedersenCommitter<Fp256Ctx> {
    /// Derives `size` bases deterministically from a domain tag:
    /// `Gᵢ = hash(tag, i)·G`. (Nothing-up-my-sleeve in spirit; a
    /// production system would hash directly to curve points.)
    pub fn new(size: usize, tag: &[u8]) -> Self {
        Self::with_curve(bn254_fast(), size, tag)
    }
}

impl PedersenCommitter<DynCtx> {
    /// As [`PedersenCommitter::new`], but every field multiplication
    /// goes through `engine`, prepared once for the BN254 base field.
    pub fn new_with_engine(size: usize, tag: &[u8], engine: Box<dyn ModMulEngine>) -> Self {
        Self::with_curve(bn254_with_engine(engine), size, tag)
    }

    /// As [`PedersenCommitter::new`], but over any execution backend: a
    /// [`modsram_core::Staged`] dispatcher + pool (committers over
    /// several curves — or repeated construction — pay the per-modulus
    /// preparation once; pair with [`PedersenCommitter::with_curve`]
    /// over e.g. [`modsram_ecc::curves::p256_via`] for a second curve),
    /// or a shared service or cluster that streams every commitment's
    /// field multiplications alongside other tenants.
    ///
    /// # Errors
    ///
    /// Propagates the backend's context/preparation error.
    pub fn new_via(size: usize, tag: &[u8], backend: &dyn MulBackend) -> Result<Self, CoreError> {
        Ok(Self::with_curve(bn254_via(backend)?, size, tag))
    }
}

impl<C: FieldCtx> PedersenCommitter<C> {
    /// Derives the bases over an explicit BN254 curve instance.
    pub fn with_curve(curve: Curve<C>, size: usize, tag: &[u8]) -> Self {
        let g = curve.generator();
        let derive = |index: u64| {
            let mut input = tag.to_vec();
            input.extend_from_slice(&index.to_be_bytes());
            let mut k = UBig::zero();
            for byte in sha256(&input) {
                k = &(&k << 8) + &UBig::from(byte as u64);
            }
            let k = &(&k % &(curve.order() - &UBig::one())) + &UBig::one();
            curve.to_affine(&mul_scalar_wnaf(&curve, &g, &k))
        };
        let bases = (0..size as u64).map(derive).collect();
        let blinding_base = derive(u64::MAX);
        PedersenCommitter {
            curve,
            bases,
            blinding_base,
        }
    }

    /// Number of value slots.
    pub fn size(&self) -> usize {
        self.bases.len()
    }

    /// The underlying curve (for point comparisons in callers).
    pub fn curve(&self) -> &Curve<C> {
        &self.curve
    }

    /// Commits to `values` with blinding factor `r`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.size()`.
    pub fn commit(&self, values: &[UBig], r: &UBig) -> Jacobian<C::El> {
        assert_eq!(values.len(), self.size(), "value count must match bases");
        let mut points = self.bases.clone();
        points.push(self.blinding_base.clone());
        let mut scalars: Vec<UBig> = values.iter().map(|v| v % self.curve.order()).collect();
        scalars.push(r % self.curve.order());
        msm(&self.curve, &points, &scalars).0
    }

    /// Commits with a random blinding factor, returning `(commitment, r)`.
    pub fn commit_hiding<R: Rng + ?Sized>(
        &self,
        values: &[UBig],
        rng: &mut R,
    ) -> (Jacobian<C::El>, UBig) {
        let r = ubig_below(rng, self.curve.order());
        (self.commit(values, &r), r)
    }

    /// Verifies an opening `(values, r)` against a commitment.
    pub fn open(&self, commitment: &Jacobian<C::El>, values: &[UBig], r: &UBig) -> bool {
        self.curve.points_equal(commitment, &self.commit(values, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn committer() -> PedersenCommitter {
        PedersenCommitter::new(4, b"modsram-test")
    }

    #[test]
    fn open_roundtrip() {
        let c = committer();
        let values: Vec<UBig> = (1..=4u64).map(UBig::from).collect();
        let r = UBig::from(987_654_321u64);
        let com = c.commit(&values, &r);
        assert!(c.open(&com, &values, &r));
    }

    #[test]
    fn wrong_opening_rejected() {
        let c = committer();
        let values: Vec<UBig> = (1..=4u64).map(UBig::from).collect();
        let r = UBig::from(42u64);
        let com = c.commit(&values, &r);
        let mut tampered = values.clone();
        tampered[2] = UBig::from(99u64);
        assert!(!c.open(&com, &tampered, &r));
        assert!(!c.open(&com, &values, &UBig::from(43u64)));
    }

    #[test]
    fn additively_homomorphic() {
        // commit(a, ra) + commit(b, rb) == commit(a + b, ra + rb).
        let c = committer();
        let a: Vec<UBig> = (1..=4u64).map(UBig::from).collect();
        let b: Vec<UBig> = (10..=13u64).map(UBig::from).collect();
        let (ra, rb) = (UBig::from(111u64), UBig::from(222u64));
        let lhs = c.curve().add(&c.commit(&a, &ra), &c.commit(&b, &rb));
        let sum: Vec<UBig> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let rhs = c.commit(&sum, &(&ra + &rb));
        assert!(c.curve().points_equal(&lhs, &rhs));
    }

    #[test]
    fn hiding_blinds_equal_values() {
        let c = committer();
        let values: Vec<UBig> = vec![UBig::from(7u64); 4];
        let mut rng = SmallRng::seed_from_u64(55);
        let (com1, r1) = c.commit_hiding(&values, &mut rng);
        let (com2, r2) = c.commit_hiding(&values, &mut rng);
        assert_ne!(r1, r2);
        assert!(!c.curve().points_equal(&com1, &com2));
    }

    #[test]
    #[should_panic(expected = "value count")]
    fn size_mismatch_panics() {
        committer().commit(&[UBig::one()], &UBig::one());
    }

    #[test]
    fn pooled_committers_over_two_curves_share_preparations() {
        use modsram_core::dispatch::{ContextPool, Dispatcher};
        use modsram_core::service::Staged;
        use modsram_ecc::curves::p256_via;

        let pool = ContextPool::for_engine_name("montgomery").unwrap();
        let dispatcher = Dispatcher::new(1);
        let staged = Staged {
            dispatcher: &dispatcher,
            pool: &pool,
        };
        let values: Vec<UBig> = [4u64, 8].map(UBig::from).to_vec();
        let r = UBig::from(2024u64);

        // BN254 committer through the pool matches the fast backend.
        let fast = PedersenCommitter::new(2, b"modsram-pool");
        let pooled = PedersenCommitter::new_via(2, b"modsram-pool", &staged).unwrap();
        let fast_affine = fast.curve().to_affine(&fast.commit(&values, &r));
        let pooled_affine = pooled.curve().to_affine(&pooled.commit(&values, &r));
        assert_eq!(
            fast.curve().ctx().to_ubig(&fast_affine.x),
            pooled.curve().ctx().to_ubig(&pooled_affine.x)
        );
        assert!(pooled.open(&pooled.commit(&values, &r), &values, &r));

        // A second committer over a *different* curve rides the same
        // pool; a second BN254 committer hits the cached context.
        let p256 =
            PedersenCommitter::with_curve(p256_via(&staged).unwrap(), 2, b"modsram-pool-p256");
        assert!(p256.open(&p256.commit(&values, &r), &values, &r));
        assert_eq!(pool.len(), 2, "bn254 p and p256 p");
        let misses_before = pool.misses();
        let _again = PedersenCommitter::new_via(2, b"modsram-pool", &staged).unwrap();
        assert_eq!(pool.misses(), misses_before, "cached context reused");
    }

    /// Commits through the staged backend and through `backend`, and checks
    /// both bit-exact on x and y against the fast backend.
    fn assert_committer_matches_fast(backend: &dyn MulBackend) {
        use modsram_core::dispatch::{ContextPool, Dispatcher};
        use modsram_core::service::Staged;

        let pool = ContextPool::for_engine_name("montgomery").unwrap();
        let dispatcher = Dispatcher::new(2);
        let staged = Staged {
            dispatcher: &dispatcher,
            pool: &pool,
        };
        let fast = PedersenCommitter::new(2, b"modsram-backend");
        let values: Vec<UBig> = [4u64, 8].map(UBig::from).to_vec();
        let r = UBig::from(2024u64);
        let fast_aff = fast.curve().to_affine(&fast.commit(&values, &r));
        for (name, backend) in [("staged", &staged as &dyn MulBackend), ("backend", backend)] {
            let via = PedersenCommitter::new_via(2, b"modsram-backend", backend).unwrap();
            let via_aff = via.curve().to_affine(&via.commit(&values, &r));
            assert_eq!(
                fast.curve().ctx().to_ubig(&fast_aff.x),
                via.curve().ctx().to_ubig(&via_aff.x),
                "{name}"
            );
            assert_eq!(
                fast.curve().ctx().to_ubig(&fast_aff.y),
                via.curve().ctx().to_ubig(&via_aff.y),
                "{name}"
            );
            assert!(via.open(&via.commit(&values, &r), &values, &r), "{name}");
        }
    }

    #[test]
    fn service_backed_committer_matches_fast() {
        use modsram_core::service::{ModSramService, ServiceConfig};

        let service = ModSramService::for_engine_name("montgomery", ServiceConfig::default())
            .expect("registered engine");
        assert_committer_matches_fast(&service);
        let stats = service.shutdown();
        assert_eq!(stats.failed, 0);
        assert!(stats.completed > 0);
    }

    #[test]
    fn cluster_backed_committer_matches_fast() {
        use modsram_core::cluster::{ClusterConfig, ServiceCluster};

        let cluster = ServiceCluster::for_engine_name("montgomery", 2, ClusterConfig::default())
            .expect("registered engine");
        assert_committer_matches_fast(&cluster);
        let stats = cluster.shutdown();
        assert_eq!(stats.failed, 0);
        assert!(stats.completed > 0);
        assert_eq!(stats.affinity_hit_rate(), 1.0);
    }

    #[test]
    fn engine_backend_commits_to_the_same_point() {
        use modsram_modmul::R4CsaLutEngine;
        let fast = PedersenCommitter::new(2, b"modsram-engine");
        let slow = PedersenCommitter::new_with_engine(
            2,
            b"modsram-engine",
            Box::new(R4CsaLutEngine::new()),
        );
        let values: Vec<UBig> = [5u64, 9].map(UBig::from).to_vec();
        let r = UBig::from(31337u64);
        let fast_affine = fast.curve().to_affine(&fast.commit(&values, &r));
        let slow_affine = slow.curve().to_affine(&slow.commit(&values, &r));
        assert_eq!(
            fast.curve().ctx().to_ubig(&fast_affine.x),
            slow.curve().ctx().to_ubig(&slow_affine.x)
        );
        assert_eq!(
            fast.curve().ctx().to_ubig(&fast_affine.y),
            slow.curve().ctx().to_ubig(&slow_affine.y)
        );
        // The opening protocol works on the engine backend too.
        assert!(slow.open(&slow.commit(&values, &r), &values, &r));
    }
}
