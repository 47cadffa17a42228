//! Pippenger multi-scalar multiplication — the MSM component of the
//! paper's Figure 7 ZKP study, structured like PipeZK's windowed
//! architecture.
//!
//! `MSM(P, k) = Σ kᵢ·Pᵢ`: scalars are cut into `⌈λ/c⌉` windows of `c`
//! bits; each window accumulates points into `2^c − 1` buckets (one
//! mixed addition per point), reduces the buckets with a running sum,
//! and windows combine with `c` doublings each.

use modsram_bigint::UBig;
use modsram_core::dispatch::Dispatcher;

use crate::curve::{Affine, Curve, Jacobian};
use crate::field::{DynCtx, FieldCtx};

/// Operation counts of one MSM execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsmStats {
    /// Window width used (bits).
    pub window_bits: usize,
    /// Number of windows processed.
    pub windows: u64,
    /// Mixed additions during bucket accumulation.
    pub bucket_adds: u64,
    /// Additions during bucket reduction and window combination.
    pub reduction_adds: u64,
    /// Doublings during window combination.
    pub doublings: u64,
}

impl MsmStats {
    /// Total point additions of any kind.
    pub fn total_adds(&self) -> u64 {
        self.bucket_adds + self.reduction_adds
    }
}

/// Heuristic window size: `≈ log₂(n) − 3`, clamped to `[2, 16]`. PipeZK
/// uses a fixed 16-bit window in hardware; pass `Some(16)` to
/// [`msm_with_window`] for that configuration.
pub fn optimal_window(n_points: usize) -> usize {
    if n_points < 8 {
        2
    } else {
        ((usize::BITS - n_points.leading_zeros()) as usize)
            .saturating_sub(3)
            .clamp(2, 16)
    }
}

/// Computes `Σ kᵢ·Pᵢ` with the heuristic window size.
///
/// # Panics
///
/// Panics if `points` and `scalars` have different lengths.
pub fn msm<C: FieldCtx>(
    curve: &Curve<C>,
    points: &[Affine<C::El>],
    scalars: &[UBig],
) -> (Jacobian<C::El>, MsmStats) {
    msm_with_window(curve, points, scalars, optimal_window(points.len()))
}

/// Computes `Σ kᵢ·Pᵢ` with an explicit window size `c`.
///
/// # Panics
///
/// Panics if the slices differ in length or `c == 0` or `c > 24`.
pub fn msm_with_window<C: FieldCtx>(
    curve: &Curve<C>,
    points: &[Affine<C::El>],
    scalars: &[UBig],
    c: usize,
) -> (Jacobian<C::El>, MsmStats) {
    assert_eq!(points.len(), scalars.len(), "points/scalars mismatch");
    assert!((1..=24).contains(&c), "window must be 1..=24 bits");
    let mut stats = MsmStats {
        window_bits: c,
        ..Default::default()
    };
    if points.is_empty() {
        return (curve.identity(), stats);
    }

    let max_bits = scalars
        .iter()
        .map(|s| s.bit_len())
        .max()
        .unwrap_or(1)
        .max(1);
    let windows = max_bits.div_ceil(c);
    stats.windows = windows as u64;

    // Highest window first; each iteration shifts the accumulator left
    // by c bits (c doublings) then adds this window's bucket total.
    let mut acc = curve.identity();
    for w in (0..windows).rev() {
        if !curve.is_identity(&acc) || w != windows - 1 {
            for _ in 0..c {
                acc = curve.double(&acc);
                stats.doublings += 1;
            }
        }

        let sum = window_sum(curve, points, scalars, w, c, &mut stats);
        acc = curve.add(&acc, &sum);
        stats.reduction_adds += 1;
    }
    (acc, stats)
}

/// One window's bucket accumulation + running-sum reduction: the
/// window-local layer of Pippenger, shared by the serial and dispatched
/// paths.
fn window_sum<C: FieldCtx>(
    curve: &Curve<C>,
    points: &[Affine<C::El>],
    scalars: &[UBig],
    w: usize,
    c: usize,
    stats: &mut MsmStats,
) -> Jacobian<C::El> {
    // Bucket accumulation.
    let mut buckets: Vec<Jacobian<C::El>> = vec![curve.identity(); (1 << c) - 1];
    for (point, scalar) in points.iter().zip(scalars) {
        let digit = window_digit(scalar, w, c);
        if digit != 0 {
            buckets[digit - 1] = curve.add_mixed(&buckets[digit - 1], point);
            stats.bucket_adds += 1;
        }
    }

    // Running-sum reduction: Σ j·B_j with 2·(2^c − 1) additions.
    let mut running = curve.identity();
    let mut sum = curve.identity();
    for bucket in buckets.iter().rev() {
        running = curve.add(&running, bucket);
        sum = curve.add(&sum, &running);
        stats.reduction_adds += 2;
    }
    sum
}

/// Computes `Σ kᵢ·Pᵢ` with the windows fanned out across a
/// [`Dispatcher`]'s workers — the per-layer batch submission of the
/// ROADMAP's "NTT/MSM over the batch API" item. Every window's bucket
/// accumulation and reduction is independent, so worker `w` builds its
/// own curve over the shared prepared context (`make_curve` typically
/// closes over a pooled `Arc<dyn PreparedModMul>`) and computes whole
/// window sums; only the final `c`-doubling combine runs serially.
///
/// `make_curve` is also how the MSM accepts any execution backend:
/// build it with `curves::secp256k1_via`/`curves::bn254_via` over a
/// `&dyn` [`modsram_core::service::MulBackend`] and the window
/// workers' field multiplications hit the pooled context of a
/// [`modsram_core::Staged`] dispatcher, or stream through a shared
/// `ModSramService` or `ServiceCluster` alongside other tenants.
///
/// # Panics
///
/// Panics if the slices differ in length or `c` is outside `1..=24`.
pub fn msm_dispatched(
    dispatcher: &Dispatcher,
    make_curve: impl Fn() -> Curve<DynCtx> + Sync,
    points: &[Affine<UBig>],
    scalars: &[UBig],
    c: usize,
) -> (Jacobian<UBig>, MsmStats) {
    assert_eq!(points.len(), scalars.len(), "points/scalars mismatch");
    assert!((1..=24).contains(&c), "window must be 1..=24 bits");
    let combine_curve = make_curve();
    let mut stats = MsmStats {
        window_bits: c,
        ..Default::default()
    };
    if points.is_empty() {
        return (combine_curve.identity(), stats);
    }
    let max_bits = scalars
        .iter()
        .map(|s| s.bit_len())
        .max()
        .unwrap_or(1)
        .max(1);
    let windows = max_bits.div_ceil(c);
    stats.windows = windows as u64;

    let (sums, _) = dispatcher
        .run_items(
            windows,
            |_| make_curve(),
            |curve, w| {
                let mut partial = MsmStats::default();
                let sum = window_sum(curve, points, scalars, w, c, &mut partial);
                Ok::<_, core::convert::Infallible>((sum, partial))
            },
        )
        .expect("window tasks are infallible");

    // Serial combine, highest window first: shift by c bits then add.
    let mut acc = combine_curve.identity();
    for (w, (sum, partial)) in sums.iter().enumerate().rev() {
        stats.bucket_adds += partial.bucket_adds;
        stats.reduction_adds += partial.reduction_adds;
        if !combine_curve.is_identity(&acc) || w != windows - 1 {
            for _ in 0..c {
                acc = combine_curve.double(&acc);
                stats.doublings += 1;
            }
        }
        acc = combine_curve.add(&acc, sum);
        stats.reduction_adds += 1;
    }
    (acc, stats)
}

/// Bits `[w·c, (w+1)·c)` of the scalar as an unsigned digit.
fn window_digit(scalar: &UBig, w: usize, c: usize) -> usize {
    let mut digit = 0usize;
    for bit in 0..c {
        if scalar.bit(w * c + bit) {
            digit |= 1 << bit;
        }
    }
    digit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::secp256k1_fast;
    use crate::field::Fp256Ctx;
    use crate::scalar::mul_scalar;
    use modsram_bigint::ubig_below;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny() -> Curve<Fp256Ctx> {
        Curve::new(
            Fp256Ctx::new(&UBig::from(43u64)),
            &UBig::zero(),
            &UBig::from(7u64),
            &UBig::from(2u64),
            &UBig::from(12u64),
            &UBig::from(31u64),
            "tiny43",
        )
    }

    fn naive<C: FieldCtx>(
        curve: &Curve<C>,
        points: &[Affine<C::El>],
        scalars: &[UBig],
    ) -> Jacobian<C::El> {
        let mut acc = curve.identity();
        for (p, k) in points.iter().zip(scalars) {
            acc = curve.add(&acc, &mul_scalar(curve, &curve.from_affine(p), k));
        }
        acc
    }

    #[test]
    fn matches_naive_on_tiny_curve() {
        let c = tiny();
        let g = c.generator();
        // Points: G, 2G, 3G, ...; scalars: assorted.
        let mut pts = Vec::new();
        let mut cur = g.clone();
        for _ in 0..8 {
            pts.push(c.to_affine(&cur));
            cur = c.add(&cur, &g);
        }
        let scalars: Vec<UBig> = (0..8u64).map(|i| UBig::from(i * 5 + 3)).collect();
        let want = naive(&c, &pts, &scalars);
        for window in [1usize, 2, 3, 5] {
            let (got, stats) = msm_with_window(&c, &pts, &scalars, window);
            assert!(c.points_equal(&got, &want), "window {window}");
            assert!(stats.bucket_adds <= 8 * stats.windows);
        }
    }

    #[test]
    fn zero_and_empty_cases() {
        let c = tiny();
        let (r, _) = msm(&c, &[], &[]);
        assert!(c.is_identity(&r));
        let pts = vec![c.generator_affine()];
        let (r2, stats) = msm(&c, &pts, &[UBig::zero()]);
        assert!(c.is_identity(&r2));
        assert_eq!(stats.bucket_adds, 0);
    }

    #[test]
    fn secp256k1_msm_matches_naive() {
        let c = secp256k1_fast();
        let mut rng = SmallRng::seed_from_u64(99);
        let g = c.generator();
        let mut pts = Vec::new();
        let mut cur = g.clone();
        for _ in 0..16 {
            pts.push(c.to_affine(&cur));
            cur = c.double(&cur);
        }
        let scalars: Vec<UBig> = (0..16).map(|_| ubig_below(&mut rng, c.order())).collect();
        let want = naive(&c, &pts, &scalars);
        let (got, _) = msm(&c, &pts, &scalars);
        assert!(c.points_equal(&got, &want));
    }

    #[test]
    fn dispatched_msm_matches_serial() {
        use crate::curves::{secp256k1_fast, secp256k1_via};
        use modsram_core::cluster::{ClusterConfig, ServiceCluster};
        use modsram_core::dispatch::ContextPool;
        use modsram_core::service::{ModSramService, MulBackend, ServiceConfig, Staged};

        let fast = secp256k1_fast();
        let mut rng = SmallRng::seed_from_u64(123);
        let g = fast.generator();
        let mut pts_fast = Vec::new();
        let mut cur = g.clone();
        for _ in 0..12 {
            pts_fast.push(fast.to_affine(&cur));
            cur = fast.double(&cur);
        }
        let scalars: Vec<UBig> = (0..12)
            .map(|_| ubig_below(&mut rng, fast.order()))
            .collect();
        let (want, want_stats) = msm_with_window(&fast, &pts_fast, &scalars, 4);
        let want_aff = fast.to_affine(&want);
        let points: Vec<Affine<UBig>> = pts_fast
            .iter()
            .map(|a| Affine {
                x: fast.ctx().to_ubig(&a.x),
                y: fast.ctx().to_ubig(&a.y),
                infinity: a.infinity,
            })
            .collect();

        // Staged over pooled prepared contexts (every worker's curve
        // shares one preparation), then streamed through a service and
        // routed through a cluster.
        let pool = ContextPool::for_engine_name("montgomery").unwrap();
        let staged_dispatcher = Dispatcher::new(2);
        let staged = Staged {
            dispatcher: &staged_dispatcher,
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
            let make_curve = || secp256k1_via(backend).expect("odd prime");
            let curve = make_curve();
            for workers in [1usize, 3] {
                let d = Dispatcher::new(workers);
                let (got, stats) = msm_dispatched(&d, make_curve, &points, &scalars, 4);
                let got_aff = curve.to_affine(&got);
                assert_eq!(
                    curve.ctx().to_ubig(&got_aff.x),
                    fast.ctx().to_ubig(&want_aff.x),
                    "{name} workers={workers}"
                );
                assert_eq!(
                    curve.ctx().to_ubig(&got_aff.y),
                    fast.ctx().to_ubig(&want_aff.y),
                    "{name} workers={workers}"
                );
                assert_eq!(stats.windows, want_stats.windows);
                assert_eq!(stats.bucket_adds, want_stats.bucket_adds);
            }
        }
        assert_eq!(pool.len(), 1, "one prime prepared once");
        let stats = service.shutdown();
        assert_eq!(stats.failed, 0);
        assert!(stats.completed > 0, "field muls streamed through the queue");
        let stats = cluster.shutdown();
        assert_eq!(stats.failed, 0);
        assert!(stats.completed > 0, "field muls routed through the cluster");
        assert_eq!(stats.affinity_hit_rate(), 1.0);
    }

    #[test]
    fn dispatched_msm_empty_input() {
        use crate::curves::secp256k1_via;
        use modsram_core::dispatch::ContextPool;
        use modsram_core::service::Staged;
        let pool = ContextPool::for_engine_name("barrett").unwrap();
        let d = Dispatcher::new(2);
        let staged = Staged {
            dispatcher: &d,
            pool: &pool,
        };
        let (r, stats) = msm_dispatched(&d, || secp256k1_via(&staged).unwrap(), &[], &[], 4);
        let curve = secp256k1_via(&staged).unwrap();
        assert!(curve.is_identity(&r));
        assert_eq!(stats.bucket_adds, 0);
    }

    #[test]
    fn window_heuristic_grows_with_n() {
        assert_eq!(optimal_window(4), 2);
        assert!(optimal_window(1 << 15) >= 10);
        assert!(optimal_window(1 << 22) <= 16);
    }

    #[test]
    fn stats_shape() {
        let c = tiny();
        let pts = vec![c.generator_affine(); 10];
        let scalars: Vec<UBig> = (1..=10u64).map(UBig::from).collect();
        let (_, stats) = msm_with_window(&c, &pts, &scalars, 2);
        // ≤ one bucket add per (point, window).
        assert!(stats.bucket_adds <= 10 * stats.windows);
        // Reduction: 2·(2^c − 1) + 1 per window.
        assert_eq!(stats.reduction_adds, stats.windows * (2 * 3 + 1));
    }
}
