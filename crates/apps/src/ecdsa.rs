//! ECDSA over secp256k1 — the paper's §1 "digital signature"
//! application, built entirely on the workspace substrate.
//!
//! Nonces are derived deterministically from the key and message digest
//! (in the spirit of RFC 6979, via SHA-256 with a retry counter; not
//! bit-compatible with the RFC's HMAC-DRBG construction — documented
//! simplification, signatures remain standard and verifiable).

use core::fmt;
use std::sync::Arc;

use modsram_bigint::{mod_inv, UBig};
use modsram_core::dispatch::Dispatcher;
use modsram_core::service::MulBackend;
use modsram_core::CoreError;
use modsram_ecc::curve::Curve;
use modsram_ecc::curves::{secp256k1_fast, secp256k1_via, SECP256K1_N};
use modsram_ecc::scalar::{mul_double_scalar, mul_scalar_wnaf};
use modsram_ecc::{FieldCtx, Fp256Ctx};
use modsram_modmul::{DirectEngine, ModMulEngine, PreparedModMul};

use crate::sha256::sha256;

/// Prepares a scalar-field (mod `n`) context, defaulting to the direct
/// engine; any engine accepted — the group order is odd, so even the
/// Montgomery family qualifies.
fn scalar_ctx(order: &UBig, engine: &dyn ModMulEngine) -> Arc<dyn PreparedModMul> {
    Arc::from(
        engine
            .prepare(order)
            .expect("group order is a fixed odd prime"),
    )
}

/// An ECDSA signature `(r, s)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// The x-coordinate residue.
    pub r: UBig,
    /// The proof scalar.
    pub s: UBig,
}

/// Errors from signing/verification setup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcdsaError {
    /// The private scalar must be in `[1, n)`.
    InvalidPrivateKey,
    /// The public point must be on the curve and not the identity.
    InvalidPublicKey,
    /// Signature components must be in `[1, n)`.
    InvalidSignature,
}

impl fmt::Display for EcdsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcdsaError::InvalidPrivateKey => write!(f, "private key out of range"),
            EcdsaError::InvalidPublicKey => write!(f, "public key not a valid curve point"),
            EcdsaError::InvalidSignature => write!(f, "signature component out of range"),
        }
    }
}

impl std::error::Error for EcdsaError {}

/// A secp256k1 signing key.
///
/// Scalar arithmetic mod the group order runs through a prepared engine
/// context ([`PreparedModMul`]), prepared once at key construction.
pub struct SigningKey {
    curve: Curve<Fp256Ctx>,
    scalar: Arc<dyn PreparedModMul>,
    d: UBig,
}

/// A secp256k1 verifying (public) key.
pub struct VerifyingKey {
    curve: Curve<Fp256Ctx>,
    scalar: Arc<dyn PreparedModMul>,
    /// Affine public point coordinates (canonical integers).
    pub x: UBig,
    /// Affine y-coordinate.
    pub y: UBig,
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SigningKey {{ d: <redacted> }}")
    }
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VerifyingKey {{ x: {}, y: {} }}", self.x, self.y)
    }
}

/// Digest → scalar: interpret the SHA-256 digest as a big-endian
/// integer reduced mod the group order (bit lengths match, so no
/// truncation step is needed).
fn message_scalar(msg: &[u8], order: &UBig) -> UBig {
    let digest = sha256(msg);
    let mut z = UBig::zero();
    for byte in digest {
        z = &(&z << 8) + &UBig::from(byte as u64);
    }
    &z % order
}

impl SigningKey {
    /// Creates a key from a private scalar `d ∈ [1, n)`.
    ///
    /// # Errors
    ///
    /// [`EcdsaError::InvalidPrivateKey`] when out of range.
    pub fn new(d: &UBig) -> Result<Self, EcdsaError> {
        Self::with_scalar_engine(d, &DirectEngine::new())
    }

    /// Creates a key whose mod-`n` scalar arithmetic runs through the
    /// given engine (prepared once for the group order here).
    ///
    /// # Errors
    ///
    /// [`EcdsaError::InvalidPrivateKey`] when `d` is out of range.
    pub fn with_scalar_engine(d: &UBig, engine: &dyn ModMulEngine) -> Result<Self, EcdsaError> {
        let curve = secp256k1_fast();
        if d.is_zero() || d >= curve.order() {
            return Err(EcdsaError::InvalidPrivateKey);
        }
        let scalar = scalar_ctx(curve.order(), engine);
        Ok(SigningKey {
            curve,
            scalar,
            d: d.clone(),
        })
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        let q = mul_scalar_wnaf(&self.curve, &self.curve.generator(), &self.d);
        let aff = self.curve.to_affine(&q);
        VerifyingKey {
            x: self.curve.ctx().to_ubig(&aff.x),
            y: self.curve.ctx().to_ubig(&aff.y),
            curve: secp256k1_fast(),
            // Verification shares the signing key's prepared context,
            // so the configured engine carries over.
            scalar: Arc::clone(&self.scalar),
        }
    }

    /// Deterministic nonce: `SHA256(d_be ∥ z_be ∥ counter) mod n`,
    /// retried until non-zero and until the resulting `r, s` are
    /// non-zero.
    fn nonce(&self, z: &UBig, counter: u8) -> UBig {
        let mut input = Vec::with_capacity(65);
        input.extend_from_slice(&to_be32(&self.d));
        input.extend_from_slice(&to_be32(z));
        input.push(counter);
        let mut k = UBig::zero();
        for byte in sha256(&input) {
            k = &(&k << 8) + &UBig::from(byte as u64);
        }
        &k % self.curve.order()
    }

    /// Signs a message (its SHA-256 digest).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let n = self.curve.order().clone();
        let z = message_scalar(msg, &n);
        for counter in 0..=u8::MAX {
            let k = self.nonce(&z, counter);
            if k.is_zero() {
                continue;
            }
            let point = mul_scalar_wnaf(&self.curve, &self.curve.generator(), &k);
            let aff = self.curve.to_affine(&point);
            let r = &self.curve.ctx().to_ubig(&aff.x) % &n;
            if r.is_zero() {
                continue;
            }
            let k_inv = mod_inv(&k, &n).expect("prime order");
            // s = k⁻¹ (z + r·d) mod n, through the prepared scalar ctx.
            let rd = self.scalar.mod_mul(&r, &self.d).expect("prepared for n");
            let s = self
                .scalar
                .mod_mul(&k_inv, &(&z + &rd))
                .expect("prepared for n");
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
        unreachable!("256 nonce retries cannot all collide");
    }
}

impl VerifyingKey {
    /// Builds a verifying key from affine coordinates.
    ///
    /// # Errors
    ///
    /// [`EcdsaError::InvalidPublicKey`] when the point is off-curve.
    pub fn new(x: &UBig, y: &UBig) -> Result<Self, EcdsaError> {
        Self::with_scalar_engine(x, y, &DirectEngine::new())
    }

    /// Builds a verifying key whose mod-`n` arithmetic runs through the
    /// given engine.
    ///
    /// # Errors
    ///
    /// [`EcdsaError::InvalidPublicKey`] when the point is off-curve.
    pub fn with_scalar_engine(
        x: &UBig,
        y: &UBig,
        engine: &dyn ModMulEngine,
    ) -> Result<Self, EcdsaError> {
        let curve = secp256k1_fast();
        let aff = modsram_ecc::Affine {
            x: curve.ctx().from_ubig(x),
            y: curve.ctx().from_ubig(y),
            infinity: false,
        };
        if !curve.is_on_curve(&aff) {
            return Err(EcdsaError::InvalidPublicKey);
        }
        let scalar = scalar_ctx(curve.order(), engine);
        Ok(VerifyingKey {
            curve,
            scalar,
            x: x.clone(),
            y: y.clone(),
        })
    }

    /// Verifies a signature over `msg`.
    ///
    /// # Errors
    ///
    /// [`EcdsaError::InvalidSignature`] for out-of-range `r`/`s`; a
    /// well-formed but wrong signature returns `Ok(false)`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<bool, EcdsaError> {
        verify_parts(
            &self.curve,
            self.scalar.as_ref(),
            &self.x,
            &self.y,
            msg,
            sig,
        )
    }
}

/// The verification equation over any field backend: assumes `(x, y)`
/// was already validated as an on-curve, non-identity point.
fn verify_parts<C: FieldCtx>(
    curve: &Curve<C>,
    scalar: &dyn PreparedModMul,
    x: &UBig,
    y: &UBig,
    msg: &[u8],
    sig: &Signature,
) -> Result<bool, EcdsaError> {
    let n = curve.order().clone();
    if sig.r.is_zero() || sig.r >= n || sig.s.is_zero() || sig.s >= n {
        return Err(EcdsaError::InvalidSignature);
    }
    let z = message_scalar(msg, &n);
    let w = mod_inv(&sig.s, &n).expect("prime order");
    let u1 = scalar.mod_mul(&z, &w).expect("prepared for n");
    let u2 = scalar.mod_mul(&sig.r, &w).expect("prepared for n");
    let q = curve.from_affine(&modsram_ecc::Affine {
        x: curve.ctx().from_ubig(x),
        y: curve.ctx().from_ubig(y),
        infinity: false,
    });
    // u1·G + u2·Q in one shared pass (Shamir's trick).
    let point = mul_double_scalar(curve, &curve.generator(), &u1, &q, &u2);
    if curve.is_identity(&point) {
        return Ok(false);
    }
    let aff = curve.to_affine(&point);
    Ok(&curve.ctx().to_ubig(&aff.x) % &n == sig.r)
}

/// One request in a batch verification: raw public-key coordinates, the
/// message, and the claimed signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyRequest {
    /// Public point affine x.
    pub x: UBig,
    /// Public point affine y.
    pub y: UBig,
    /// The signed message.
    pub msg: Vec<u8>,
    /// The signature to check.
    pub sig: Signature,
}

/// Verifies a batch of independent signatures, fanned out over
/// `fanout`'s workers. Both secp256k1 moduli — the group order `n`
/// (scalar arithmetic) and the field prime `p` (curve arithmetic) —
/// resolve through `backend`: a [`modsram_core::Staged`] dispatcher +
/// pool pays each per-modulus preparation once for the whole batch,
/// while a shared [`modsram_core::ModSramService`] or
/// [`modsram_core::ServiceCluster`] interleaves these verifications'
/// modular multiplications with every other tenant's (Pedersen, NTT,
/// raw batches).
///
/// Returns one verdict per request, in order: `Ok(true)`/`Ok(false)`
/// for well-formed requests, `Err` for malformed keys or signatures.
///
/// # Errors
///
/// The outer `Err` is a context/preparation failure (e.g. a backend
/// that rejects one of the curve moduli); per-request failures land in
/// the inner results.
pub fn verify_batch(
    requests: &[VerifyRequest],
    backend: &dyn MulBackend,
    fanout: &Dispatcher,
) -> Result<Vec<Result<bool, EcdsaError>>, CoreError> {
    let n = UBig::from_hex(SECP256K1_N).expect("const");
    let scalar = backend.context(&n)?;
    // Warm the field-prime context so per-worker curve construction
    // below cannot fail on a cold pool (the service path defers
    // preparation to execution and cannot fail here).
    let _ = secp256k1_via(backend)?;
    let (verdicts, _) = fanout
        .run_items(
            requests.len(),
            |_| secp256k1_via(backend).expect("field context warmed above"),
            |curve, i| {
                let req = &requests[i];
                let aff = modsram_ecc::Affine {
                    x: curve.ctx().from_ubig(&req.x),
                    y: curve.ctx().from_ubig(&req.y),
                    infinity: false,
                };
                if !curve.is_on_curve(&aff) {
                    return Ok(Err(EcdsaError::InvalidPublicKey));
                }
                Ok::<_, core::convert::Infallible>(verify_parts(
                    curve, &*scalar, &req.x, &req.y, &req.msg, &req.sig,
                ))
            },
        )
        .expect("verification tasks are infallible");
    Ok(verdicts)
}

/// Big-endian 32-byte encoding of a value < 2²⁵⁶.
fn to_be32(v: &UBig) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = ((v >> (8 * (31 - i))).low_u64() & 0xff) as u8;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsram_core::service::Staged;

    fn key() -> SigningKey {
        SigningKey::new(
            &UBig::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721")
                .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = key();
        let vk = sk.verifying_key();
        let sig = sk.sign(b"sample message");
        assert_eq!(vk.verify(b"sample message", &sig), Ok(true));
    }

    #[test]
    fn wrong_message_rejected() {
        let sk = key();
        let vk = sk.verifying_key();
        let sig = sk.sign(b"message one");
        assert_eq!(vk.verify(b"message two", &sig), Ok(false));
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = key();
        let vk = sk.verifying_key();
        let mut sig = sk.sign(b"message");
        sig.s = &sig.s + &UBig::one();
        assert_eq!(vk.verify(b"message", &sig), Ok(false));
    }

    #[test]
    fn signatures_are_deterministic() {
        let sk = key();
        assert_eq!(sk.sign(b"m"), sk.sign(b"m"));
        assert_ne!(sk.sign(b"m"), sk.sign(b"m2"));
    }

    #[test]
    fn out_of_range_components_error() {
        let sk = key();
        let vk = sk.verifying_key();
        let sig = Signature {
            r: UBig::zero(),
            s: UBig::one(),
        };
        assert_eq!(vk.verify(b"m", &sig), Err(EcdsaError::InvalidSignature));
    }

    #[test]
    fn invalid_keys_rejected() {
        assert_eq!(
            SigningKey::new(&UBig::zero()).err(),
            Some(EcdsaError::InvalidPrivateKey)
        );
        assert_eq!(
            VerifyingKey::new(&UBig::from(1u64), &UBig::from(1u64)).err(),
            Some(EcdsaError::InvalidPublicKey)
        );
    }

    #[test]
    fn scalar_engine_choice_does_not_change_signatures() {
        use modsram_modmul::{BarrettEngine, MontgomeryEngine};
        let d = UBig::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721")
            .unwrap();
        let reference = SigningKey::new(&d).unwrap().sign(b"engine-agnostic");
        for engine in [
            &MontgomeryEngine::new() as &dyn ModMulEngine,
            &BarrettEngine::new(),
        ] {
            let sk = SigningKey::with_scalar_engine(&d, engine).unwrap();
            let sig = sk.sign(b"engine-agnostic");
            assert_eq!(sig, reference);
            let vk = sk.verifying_key();
            let vk2 = VerifyingKey::with_scalar_engine(&vk.x, &vk.y, engine).unwrap();
            assert_eq!(vk2.verify(b"engine-agnostic", &sig), Ok(true));
        }
    }

    #[test]
    fn batch_verify_over_shared_pool() {
        let sk1 = key();
        let sk2 = SigningKey::new(&UBig::from(987_654_321u64)).unwrap();
        let (vk1, vk2) = (sk1.verifying_key(), sk2.verifying_key());
        let mut requests: Vec<VerifyRequest> = [
            (&sk1, &vk1, b"first message".to_vec()),
            (&sk2, &vk2, b"second message".to_vec()),
            (&sk1, &vk1, b"third message".to_vec()),
        ]
        .iter()
        .map(|(sk, vk, msg)| VerifyRequest {
            x: vk.x.clone(),
            y: vk.y.clone(),
            msg: msg.clone(),
            sig: sk.sign(msg),
        })
        .collect();
        // A wrong-message request, a tampered signature, an off-curve
        // key, and an out-of-range signature.
        requests.push(VerifyRequest {
            msg: b"not what was signed".to_vec(),
            ..requests[0].clone()
        });
        let mut tampered = requests[1].clone();
        tampered.sig.s = &tampered.sig.s + &UBig::one();
        requests.push(tampered);
        requests.push(VerifyRequest {
            x: UBig::from(1u64),
            y: UBig::from(1u64),
            ..requests[0].clone()
        });
        requests.push(VerifyRequest {
            sig: Signature {
                r: UBig::zero(),
                s: UBig::one(),
            },
            ..requests[0].clone()
        });

        let pool = modsram_core::ContextPool::for_engine_name("montgomery").unwrap();
        for workers in [1usize, 4] {
            let dispatcher = Dispatcher::new(workers);
            let staged = Staged {
                dispatcher: &dispatcher,
                pool: &pool,
            };
            let verdicts = verify_batch(&requests, &staged, &dispatcher).unwrap();
            assert_eq!(
                verdicts,
                vec![
                    Ok(true),
                    Ok(true),
                    Ok(true),
                    Ok(false),
                    Ok(false),
                    Err(EcdsaError::InvalidPublicKey),
                    Err(EcdsaError::InvalidSignature),
                ],
                "workers={workers}"
            );
        }
        // The mixed-modulus pool holds exactly n and p.
        assert_eq!(pool.len(), 2);
        assert!(pool.hits() > 0, "the second dispatch reuses both contexts");
    }

    #[test]
    fn batch_verify_agrees_with_per_key_verify() {
        let sk = key();
        let vk = sk.verifying_key();
        let msgs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![b'm', i]).collect();
        let requests: Vec<VerifyRequest> = msgs
            .iter()
            .map(|m| VerifyRequest {
                x: vk.x.clone(),
                y: vk.y.clone(),
                msg: m.clone(),
                sig: sk.sign(m),
            })
            .collect();
        let pool = modsram_core::ContextPool::for_engine_name("barrett").unwrap();
        let dispatcher = Dispatcher::new(2);
        let staged = Staged {
            dispatcher: &dispatcher,
            pool: &pool,
        };
        let verdicts = verify_batch(&requests, &staged, &dispatcher).unwrap();
        for (req, verdict) in requests.iter().zip(&verdicts) {
            assert_eq!(*verdict, vk.verify(&req.msg, &req.sig));
        }
    }

    /// Verifies a mixed batch on the staged backend and on `backend`, and
    /// checks both against the expected verdicts.
    fn assert_verify_batch_matches_staged(backend: &dyn MulBackend) {
        let sk = key();
        let vk = sk.verifying_key();
        let mut requests: Vec<VerifyRequest> = (0..3u8)
            .map(|i| {
                let msg = vec![b's', i];
                VerifyRequest {
                    x: vk.x.clone(),
                    y: vk.y.clone(),
                    sig: sk.sign(&msg),
                    msg,
                }
            })
            .collect();
        requests.push(VerifyRequest {
            msg: b"wrong message".to_vec(),
            ..requests[0].clone()
        });
        requests.push(VerifyRequest {
            x: UBig::from(1u64),
            y: UBig::from(1u64),
            ..requests[0].clone()
        });
        let want = vec![
            Ok(true),
            Ok(true),
            Ok(true),
            Ok(false),
            Err(EcdsaError::InvalidPublicKey),
        ];

        let pool = modsram_core::ContextPool::for_engine_name("montgomery").unwrap();
        let fanout = Dispatcher::new(2);
        let staged = Staged {
            dispatcher: &fanout,
            pool: &pool,
        };
        for (name, backend) in [("staged", &staged as &dyn MulBackend), ("backend", backend)] {
            let verdicts = verify_batch(&requests, backend, &fanout).unwrap();
            assert_eq!(verdicts, want, "{name}");
        }
    }

    #[test]
    fn verify_batch_via_service_matches_staged() {
        use modsram_core::service::{ModSramService, ServiceConfig};

        let service =
            ModSramService::for_engine_name("montgomery", ServiceConfig::default()).unwrap();
        assert_verify_batch_matches_staged(&service);
        let stats = service.shutdown();
        assert_eq!(stats.failed, 0);
        assert!(stats.completed > 0, "muls streamed through the service");
    }

    #[test]
    fn verify_batch_via_cluster_matches_staged() {
        use modsram_core::cluster::{ClusterConfig, ServiceCluster};

        // On the cluster, p and n home on their rendezvous tiles and
        // every scalar/field multiplication streams through the router.
        let cluster =
            ServiceCluster::for_engine_name("montgomery", 2, ClusterConfig::default()).unwrap();
        assert_verify_batch_matches_staged(&cluster);
        let stats = cluster.shutdown();
        assert_eq!(stats.failed, 0);
        assert!(stats.completed > 0, "muls streamed through the cluster");
        assert_eq!(stats.spilled, 0, "uncontended cluster keeps affinity");
    }

    #[test]
    fn cross_key_verification_fails() {
        let sk1 = key();
        let sk2 = SigningKey::new(&UBig::from(12345u64)).unwrap();
        let sig = sk1.sign(b"msg");
        assert_eq!(sk2.verifying_key().verify(b"msg", &sig), Ok(false));
    }
}
