//! The two curves the paper names (§5.2): secp256k1 ("used for
//! Bitcoin") and BN254 ("used for Zcash" / the standard ZKP pairing
//! curve's G1) — plus NIST P-256, the curve behind the paper's
//! "security level recommended by NIST is at least 224 bits" citation
//! (FIPS 186-5).

use modsram_bigint::UBig;
use modsram_core::service::MulBackend;
use modsram_core::CoreError;
use modsram_modmul::{ModMulEngine, PreparedModMul};

use crate::curve::Curve;
use crate::field::{DynCtx, Fp256Ctx};

/// secp256k1 field prime `2²⁵⁶ − 2³² − 977`.
pub const SECP256K1_P: &str = "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
/// secp256k1 group order.
pub const SECP256K1_N: &str = "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141";
/// secp256k1 generator x.
pub const SECP256K1_GX: &str = "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798";
/// secp256k1 generator y.
pub const SECP256K1_GY: &str = "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8";

/// BN254 (alt_bn128) base-field prime.
pub const BN254_P: &str =
    "21888242871839275222246405745257275088696311157297823662689037894645226208583";
/// BN254 scalar-field prime (`Fr`, the NTT field).
pub const BN254_FR: &str =
    "21888242871839275222246405745257275088548364400416034343698204186575808495617";

/// NIST P-256 field prime `2²⁵⁶ − 2²²⁴ + 2¹⁹² + 2⁹⁶ − 1`.
pub const P256_P: &str = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";
/// NIST P-256 curve coefficient `b` (`a = −3`).
pub const P256_B: &str = "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b";
/// NIST P-256 generator x.
pub const P256_GX: &str = "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296";
/// NIST P-256 generator y.
pub const P256_GY: &str = "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5";
/// NIST P-256 group order.
pub const P256_N: &str = "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";

fn secp_params() -> (UBig, UBig, UBig, UBig, UBig, UBig) {
    (
        UBig::from_hex(SECP256K1_P).expect("const"),
        UBig::zero(),
        UBig::from(7u64),
        UBig::from_hex(SECP256K1_GX).expect("const"),
        UBig::from_hex(SECP256K1_GY).expect("const"),
        UBig::from_hex(SECP256K1_N).expect("const"),
    )
}

fn bn254_params() -> (UBig, UBig, UBig, UBig, UBig, UBig) {
    (
        UBig::from_dec(BN254_P).expect("const"),
        UBig::zero(),
        UBig::from(3u64),
        UBig::one(),
        UBig::from(2u64),
        UBig::from_dec(BN254_FR).expect("const"),
    )
}

/// secp256k1 over the fast Montgomery backend.
pub fn secp256k1_fast() -> Curve<Fp256Ctx> {
    let (p, a, b, gx, gy, n) = secp_params();
    Curve::new(Fp256Ctx::new(&p), &a, &b, &gx, &gy, &n, "secp256k1")
}

/// secp256k1 over an arbitrary modular-multiplication engine (e.g. the
/// cycle-accurate ModSRAM device). The engine is prepared for the field
/// prime once, up front.
pub fn secp256k1_with_engine(engine: Box<dyn ModMulEngine>) -> Curve<DynCtx> {
    let (p, a, b, gx, gy, n) = secp_params();
    Curve::new(DynCtx::new(&p, engine), &a, &b, &gx, &gy, &n, "secp256k1")
}

/// secp256k1 over an already-prepared context for the field prime.
///
/// # Panics
///
/// Panics if the context was prepared for a different modulus.
pub fn secp256k1_with_prepared(prepared: Box<dyn PreparedModMul>) -> Curve<DynCtx> {
    let (p, a, b, gx, gy, n) = secp_params();
    assert_eq!(prepared.modulus(), &p, "context prepared for wrong modulus");
    Curve::new(
        DynCtx::from_prepared(prepared),
        &a,
        &b,
        &gx,
        &gy,
        &n,
        "secp256k1",
    )
}

/// secp256k1 over any [`MulBackend`]: a pooled context from a
/// [`modsram_core::Staged`] dispatcher + pool (repeated construction
/// reuses the field-prime preparation), or a stream through a
/// [`modsram_core::ModSramService`] or
/// [`modsram_core::ServiceCluster`] (every field multiplication then
/// rides the queue).
///
/// # Errors
///
/// Propagates the backend's context/preparation error.
pub fn secp256k1_via(backend: &dyn MulBackend) -> Result<Curve<DynCtx>, CoreError> {
    Ok(secp256k1_with_prepared(Box::new(
        backend.context(&UBig::from_hex(SECP256K1_P).expect("const"))?,
    )))
}

/// BN254 G1 over the fast Montgomery backend.
pub fn bn254_fast() -> Curve<Fp256Ctx> {
    let (p, a, b, gx, gy, n) = bn254_params();
    Curve::new(Fp256Ctx::new(&p), &a, &b, &gx, &gy, &n, "bn254")
}

/// BN254 G1 over an arbitrary modular-multiplication engine.
pub fn bn254_with_engine(engine: Box<dyn ModMulEngine>) -> Curve<DynCtx> {
    let (p, a, b, gx, gy, n) = bn254_params();
    Curve::new(DynCtx::new(&p, engine), &a, &b, &gx, &gy, &n, "bn254")
}

/// BN254 G1 over an already-prepared context for the base-field prime.
///
/// # Panics
///
/// Panics if the context was prepared for a different modulus.
pub fn bn254_with_prepared(prepared: Box<dyn PreparedModMul>) -> Curve<DynCtx> {
    let (p, a, b, gx, gy, n) = bn254_params();
    assert_eq!(prepared.modulus(), &p, "context prepared for wrong modulus");
    Curve::new(
        DynCtx::from_prepared(prepared),
        &a,
        &b,
        &gx,
        &gy,
        &n,
        "bn254",
    )
}

/// BN254 G1 over any [`MulBackend`] (see [`secp256k1_via`]).
///
/// # Errors
///
/// Propagates the backend's context/preparation error.
pub fn bn254_via(backend: &dyn MulBackend) -> Result<Curve<DynCtx>, CoreError> {
    Ok(bn254_with_prepared(Box::new(
        backend.context(&UBig::from_dec(BN254_P).expect("const"))?,
    )))
}

/// The BN254 scalar field `Fr` (for NTT workloads).
pub fn bn254_fr_ctx() -> Fp256Ctx {
    Fp256Ctx::new(&UBig::from_dec(BN254_FR).expect("const"))
}

fn p256_params() -> (UBig, UBig, UBig, UBig, UBig, UBig) {
    let p = UBig::from_hex(P256_P).expect("const");
    let a = &p - &UBig::from(3u64); // a = −3 mod p
    (
        p,
        a,
        UBig::from_hex(P256_B).expect("const"),
        UBig::from_hex(P256_GX).expect("const"),
        UBig::from_hex(P256_GY).expect("const"),
        UBig::from_hex(P256_N).expect("const"),
    )
}

/// NIST P-256 over the fast Montgomery backend.
pub fn p256_fast() -> Curve<Fp256Ctx> {
    let (p, a, b, gx, gy, n) = p256_params();
    Curve::new(Fp256Ctx::new(&p), &a, &b, &gx, &gy, &n, "p256")
}

/// NIST P-256 over an arbitrary modular-multiplication engine.
pub fn p256_with_engine(engine: Box<dyn ModMulEngine>) -> Curve<DynCtx> {
    let (p, a, b, gx, gy, n) = p256_params();
    Curve::new(DynCtx::new(&p, engine), &a, &b, &gx, &gy, &n, "p256")
}

/// NIST P-256 over an already-prepared context for the field prime.
///
/// # Panics
///
/// Panics if the context was prepared for a different modulus.
pub fn p256_with_prepared(prepared: Box<dyn PreparedModMul>) -> Curve<DynCtx> {
    let (p, a, b, gx, gy, n) = p256_params();
    assert_eq!(prepared.modulus(), &p, "context prepared for wrong modulus");
    Curve::new(
        DynCtx::from_prepared(prepared),
        &a,
        &b,
        &gx,
        &gy,
        &n,
        "p256",
    )
}

/// NIST P-256 over any [`MulBackend`] (see [`secp256k1_via`]).
///
/// # Errors
///
/// Propagates the backend's context/preparation error.
pub fn p256_via(backend: &dyn MulBackend) -> Result<Curve<DynCtx>, CoreError> {
    Ok(p256_with_prepared(Box::new(
        backend.context(&UBig::from_hex(P256_P).expect("const"))?,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldCtx;

    #[test]
    fn generators_are_on_curve() {
        // Curve::new asserts this; instantiate both to exercise it.
        let s = secp256k1_fast();
        let b = bn254_fast();
        assert!(s.is_on_curve(&s.generator_affine()));
        assert!(b.is_on_curve(&b.generator_affine()));
    }

    #[test]
    fn prepared_constructors_match_fast_backends() {
        use crate::scalar::mul_scalar;
        use modsram_modmul::{DirectEngine, ModMulEngine};

        let k = UBig::from(77_777u64);
        let prepare = |p: &UBig| DirectEngine::new().prepare(p).expect("valid prime");

        // Build each curve through its prepared-context constructor and
        // check a scalar multiple against the fast Montgomery backend.
        let cases: [(Curve<DynCtx>, UBig); 3] = [
            (
                secp256k1_with_prepared(prepare(&UBig::from_hex(SECP256K1_P).unwrap())),
                {
                    let c = secp256k1_fast();
                    let aff = c.to_affine(&mul_scalar(&c, &c.generator(), &k));
                    c.ctx().to_ubig(&aff.x)
                },
            ),
            (
                bn254_with_prepared(prepare(&UBig::from_dec(BN254_P).unwrap())),
                {
                    let c = bn254_fast();
                    let aff = c.to_affine(&mul_scalar(&c, &c.generator(), &k));
                    c.ctx().to_ubig(&aff.x)
                },
            ),
            (
                p256_with_prepared(prepare(&UBig::from_hex(P256_P).unwrap())),
                {
                    let c = p256_fast();
                    let aff = c.to_affine(&mul_scalar(&c, &c.generator(), &k));
                    c.ctx().to_ubig(&aff.x)
                },
            ),
        ];
        for (curve, fast_x) in cases {
            let aff = curve.to_affine(&mul_scalar(&curve, &curve.generator(), &k));
            assert_eq!(curve.ctx().to_ubig(&aff.x), fast_x, "{}", curve.name());
        }
    }

    #[test]
    #[should_panic(expected = "wrong modulus")]
    fn prepared_constructor_rejects_mismatched_modulus() {
        use modsram_modmul::{DirectEngine, ModMulEngine};
        let wrong = DirectEngine::new().prepare(&UBig::from(97u64)).unwrap();
        let _ = secp256k1_with_prepared(wrong);
    }

    #[test]
    fn field_sizes_match_the_paper() {
        // §5.2: NIST recommends ≥ 224-bit; both named curves qualify.
        let s = secp256k1_fast();
        let b = bn254_fast();
        assert_eq!(s.ctx().modulus().bit_len(), 256);
        assert_eq!(b.ctx().modulus().bit_len(), 254);
    }

    #[test]
    fn secp_known_answer_2g() {
        // The textbook 2·G x-coordinate.
        let c = secp256k1_fast();
        let two_g = c.to_affine(&c.double(&c.generator()));
        assert_eq!(
            c.ctx().to_ubig(&two_g.x).to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
        );
        assert!(c.is_on_curve(&two_g));
    }

    #[test]
    fn p256_generator_on_curve_and_order() {
        let c = p256_fast();
        assert!(c.is_on_curve(&c.generator_affine()));
        assert_eq!(c.ctx().modulus().bit_len(), 256);
        // n·G = identity.
        let n = c.order().clone();
        let ng = crate::scalar::mul_scalar(&c, &c.generator(), &n);
        assert!(c.is_identity(&ng));
    }

    #[test]
    fn p256_known_answer_2g_and_3g() {
        // NIST CAVP point-multiplication vectors for k = 2 and k = 3.
        let c = p256_fast();
        let two_g = c.to_affine(&c.double(&c.generator()));
        assert_eq!(
            c.ctx().to_ubig(&two_g.x).to_hex(),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978"
        );
        assert_eq!(
            c.ctx().to_ubig(&two_g.y).to_hex(),
            "7775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1"
        );
        let three_g = c.to_affine(&crate::scalar::mul_scalar(
            &c,
            &c.generator(),
            &UBig::from(3u64),
        ));
        assert_eq!(
            c.ctx().to_ubig(&three_g.x).to_hex(),
            "5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c"
        );
        assert_eq!(
            c.ctx().to_ubig(&three_g.y).to_hex(),
            "8734640c4998ff7e374b06ce1a64a2ecd82ab036384fb83d9a79b127a27d5032"
        );
    }

    #[test]
    fn bn254_fr_has_high_2_adicity() {
        // Fr − 1 must be divisible by 2^28 (the NTT requirement).
        let fr = UBig::from_dec(BN254_FR).unwrap();
        let mut t = &fr - &UBig::one();
        let mut s = 0;
        while t.is_even() {
            t = &t >> 1;
            s += 1;
        }
        assert_eq!(s, 28);
    }
}
