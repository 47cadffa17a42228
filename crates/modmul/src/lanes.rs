//! Structure-of-arrays batch lanes: the vectorized hot path under
//! `mod_mul_batch`.
//!
//! The scalar batch paths amortise *per-modulus* work (Montgomery
//! constants, Barrett `µ`, Table 2 rows) and *per-multiplicand* work
//! (Table 1b refills), but every multiplication still walks the limb
//! loop alone, paying allocation and carry-chain latency per call. The
//! AnalogAI `SRAMMultiply` exemplar splits operand bits across `m`
//! hardware lanes and accumulates all partial products in one array
//! pass; this module applies the same structure-of-arrays idiom in
//! software: a coalesced run of independent multiplications is
//! transposed into **limb-major lanes** (`buf[limb * lanes + lane]`)
//! and every limb pass of the kernel advances [`MAX_LANES`]-bounded
//! independent multiplications at once. The per-lane carry chains are
//! independent, so the inner loop pipelines where the one-at-a-time
//! big-integer loop serialises, and all scratch is allocated once per
//! batch instead of once per multiplication.
//!
//! Four kernels share the layout:
//!
//! * [`MontLanes`] — word-serial CIOS Montgomery (fused product +
//!   reduction per multiplier limb) across lanes.
//! * [`BarrettLanes`] — full product, two reciprocal multiplications,
//!   and the conditional subtractions, across lanes.
//! * [`R4CsaLanes`] — the Algorithm 3 digit loop across lanes for one
//!   multiplicand run (Table 1b is shared by construction, exactly the
//!   multiplicand-major order the service sorts each batch into). It is
//!   R4CSA-LUT's only prepared datapath: a run of any length, a single
//!   multiplication included, gets one lane per multiplier up to the
//!   lane count, and the Booth digits are read in place from each
//!   multiplier.
//! * [`CarryFreeLanes`] — the carry-free radix-2 loop of
//!   [`crate::carryfree`] across lanes (no shared-multiplicand
//!   requirement: the injected addend is the lane's own `B`).
//!
//! The two carry-save kernels share one step: the shift and both
//! carry-save injections of a digit run in a single pass over the
//! limbs, `XOR3`/`MAJ` words with no carry chain (paper §3), reading
//! each lane's LUT row in place instead of copying it into a buffer.
//!
//! Correctness is pinned by the `laned ≡ scalar ≡ oracle` proptests in
//! `tests/proptests.rs`; throughput is measured by the
//! `collect::hotpath_sweep` bench (`results/hotpath_sweep.json`).

use modsram_bigint::{radix4_digit, UBig};

use crate::prepared::canonical;
use crate::r4csa::TimingPolicy;
use crate::{LutOverflow, LutRadix4, ModMulError};

/// Lane count the engines use when auto-laning a batch.
pub const DEFAULT_LANES: usize = 8;

/// Hard upper bound on the lane count (per-lane carry state lives in
/// fixed stack arrays of this size).
pub const MAX_LANES: usize = 16;

/// Minimum batch length before the Montgomery, Barrett and carry-free
/// batch paths take their laned kernel: shorter batches cannot amortise
/// the transpose. R4CSA-LUT does not check it: its laned kernel sizes
/// the lanes to the run, so a run of one costs one lane.
pub const LANE_MIN_PAIRS: usize = 4;

// ---------------------------------------------------------------------
// SoA plumbing
// ---------------------------------------------------------------------

/// Writes `v`'s limbs (zero-padded to `width`) into lane `lane`.
fn load_lane(dst: &mut [u64], lanes: usize, lane: usize, width: usize, v: &UBig) {
    let limbs = v.limbs();
    for i in 0..width {
        dst[i * lanes + lane] = limbs.get(i).copied().unwrap_or(0);
    }
}

/// Zeroes lane `lane` across `width` limbs.
fn zero_lane(dst: &mut [u64], lanes: usize, lane: usize, width: usize) {
    for i in 0..width {
        dst[i * lanes + lane] = 0;
    }
}

/// Reads lane `lane` back into a canonical [`UBig`].
fn extract_lane(src: &[u64], lanes: usize, lane: usize, width: usize) -> UBig {
    UBig::from_limbs((0..width).map(|i| src[i * lanes + lane]).collect())
}

/// Broadcasts a shared operand into every lane.
fn broadcast(dst: &mut [u64], lanes: usize, width: usize, limbs: &[u64]) {
    for i in 0..width {
        let v = limbs.get(i).copied().unwrap_or(0);
        dst[i * lanes..(i + 1) * lanes].fill(v);
    }
}

/// `v`'s limbs padded to exactly `width` entries.
fn fixed_limbs(v: &UBig, width: usize) -> Vec<u64> {
    let mut out = vec![0u64; width];
    for (dst, src) in out.iter_mut().zip(v.limbs()) {
        *dst = *src;
    }
    out
}

/// `-p₀⁻¹ mod 2^64` for odd `p₀` via Newton–Hensel iteration.
fn neg_inv64(p0: u64) -> u64 {
    debug_assert!(p0 & 1 == 1, "Montgomery needs an odd modulus");
    let mut x: u64 = 1; // correct mod 2
    for _ in 0..6 {
        // Each step doubles the number of correct low bits.
        x = x.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(x)));
    }
    x.wrapping_neg()
}

/// `lane ≥ p` over `w` SoA limbs against a plain (shared) `p` slice.
fn lane_ge(buf: &[u64], lanes: usize, lane: usize, w: usize, p: &[u64]) -> bool {
    for i in (0..w).rev() {
        let v = buf[i * lanes + lane];
        let pv = p.get(i).copied().unwrap_or(0);
        if v != pv {
            return v > pv;
        }
    }
    true
}

/// `lane -= p` over `w` SoA limbs (caller guarantees `lane ≥ p`).
fn lane_sub(buf: &mut [u64], lanes: usize, lane: usize, w: usize, p: &[u64]) {
    let mut borrow = 0u64;
    for (i, pv) in (0..w).map(|i| (i, p.get(i).copied().unwrap_or(0))) {
        let idx = i * lanes + lane;
        let (d1, b1) = buf[idx].overflowing_sub(pv);
        let (d2, b2) = d1.overflowing_sub(borrow);
        buf[idx] = d2;
        borrow = (b1 | b2) as u64;
    }
    debug_assert_eq!(borrow, 0, "lane_sub underflow");
}

/// Schoolbook product across lanes: `out[0..wx+wy] = x · y` per lane.
fn mul_soa(out: &mut [u64], x: &[u64], wx: usize, y: &[u64], wy: usize, lanes: usize) {
    out[..(wx + wy) * lanes].fill(0);
    let mut carry = [0u64; MAX_LANES];
    for j in 0..wy {
        carry[..lanes].fill(0);
        for i in 0..wx {
            let base = (i + j) * lanes;
            for l in 0..lanes {
                let prod = x[i * lanes + l] as u128 * y[j * lanes + l] as u128
                    + out[base + l] as u128
                    + carry[l] as u128;
                out[base + l] = prod as u64;
                carry[l] = (prod >> 64) as u64;
            }
        }
        let base = (wx + j) * lanes;
        out[base..base + lanes].copy_from_slice(&carry[..lanes]);
    }
}

/// Schoolbook product against a shared `y`, truncated to `out_w` limbs
/// (wrapping arithmetic mod `2^(64·out_w)` — used where the exact result
/// is known to fit).
fn mul_soa_shared_trunc(
    out: &mut [u64],
    out_w: usize,
    x: &[u64],
    wx: usize,
    y: &[u64],
    lanes: usize,
) {
    out[..out_w * lanes].fill(0);
    let mut carry = [0u64; MAX_LANES];
    for (j, &yj) in y.iter().enumerate() {
        if j >= out_w {
            break;
        }
        carry[..lanes].fill(0);
        for i in 0..wx.min(out_w - j) {
            let base = (i + j) * lanes;
            for l in 0..lanes {
                let prod = x[i * lanes + l] as u128 * yj as u128
                    + out[base + l] as u128
                    + carry[l] as u128;
                out[base + l] = prod as u64;
                carry[l] = (prod >> 64) as u64;
            }
        }
        if wx + j < out_w {
            let base = (wx + j) * lanes;
            out[base..base + lanes].copy_from_slice(&carry[..lanes]);
        }
    }
}

/// Right shift by a fixed bit count across lanes: `out[0..out_w]` =
/// `x[0..x_w] >> shift_bits` per lane.
fn shr_soa(out: &mut [u64], out_w: usize, x: &[u64], x_w: usize, shift_bits: usize, lanes: usize) {
    let off = shift_bits / 64;
    let sh = shift_bits % 64;
    for i in 0..out_w {
        for l in 0..lanes {
            let lo = if i + off < x_w {
                x[(i + off) * lanes + l]
            } else {
                0
            };
            let hi = if i + off + 1 < x_w {
                x[(i + off + 1) * lanes + l]
            } else {
                0
            };
            out[i * lanes + l] = if sh == 0 {
                lo
            } else {
                (lo >> sh) | (hi << (64 - sh))
            };
        }
    }
}

/// Wrapping per-lane subtraction over `w` limbs: `out = x − y`.
fn sub_soa(out: &mut [u64], x: &[u64], y: &[u64], w: usize, lanes: usize) {
    let mut borrow = [0u64; MAX_LANES];
    for i in 0..w {
        let base = i * lanes;
        for l in 0..lanes {
            let (d1, b1) = x[base + l].overflowing_sub(y[base + l]);
            let (d2, b2) = d1.overflowing_sub(borrow[l]);
            out[base + l] = d2;
            borrow[l] = (b1 | b2) as u64;
        }
    }
}

// ---------------------------------------------------------------------
// Montgomery lanes
// ---------------------------------------------------------------------

/// Lane-vectorized CIOS Montgomery kernel for one odd modulus.
///
/// Each multiplication runs the fused `REDC(a·R²) → REDC(aR·b)`
/// sequence of [`crate::PreparedMontgomery`], but on flat fixed-width
/// limbs with per-multiplier-limb interleaved reduction (CIOS), and
/// with up to [`MAX_LANES`] multiplications advancing per limb pass.
#[derive(Debug, Clone)]
pub struct MontLanes {
    p_big: UBig,
    p: Vec<u64>,
    r2: Vec<u64>,
    p0_inv_neg: u64,
    w: usize,
}

impl MontLanes {
    /// Builds the kernel.
    ///
    /// # Errors
    ///
    /// [`ModMulError::ZeroModulus`] / [`ModMulError::EvenModulus`] as
    /// for any Montgomery preparation.
    pub fn new(p: &UBig) -> Result<Self, ModMulError> {
        if p.is_zero() {
            return Err(ModMulError::ZeroModulus);
        }
        if p.is_even() {
            return Err(ModMulError::EvenModulus);
        }
        let w = p.bit_len().div_ceil(64).max(1);
        let r2 = &UBig::pow2(2 * 64 * w) % p;
        Ok(MontLanes {
            p_big: p.clone(),
            p: fixed_limbs(p, w),
            r2: fixed_limbs(&r2, w),
            p0_inv_neg: neg_inv64(p.limbs()[0]),
            w,
        })
    }

    /// One CIOS pass over every lane: `out = x·y·R⁻¹ mod p` (bounded by
    /// `p` after the final conditional subtraction). `t` is caller
    /// scratch of `(w+2)·lanes` limbs.
    fn cios(&self, x: &[u64], y: &[u64], out: &mut [u64], lanes: usize, t: &mut [u64]) {
        let w = self.w;
        t[..(w + 2) * lanes].fill(0);
        let mut carry = [0u64; MAX_LANES];
        let mut m = [0u64; MAX_LANES];
        for j in 0..w {
            let ybase = j * lanes;
            // t += x · y[j]
            carry[..lanes].fill(0);
            for i in 0..w {
                let base = i * lanes;
                for l in 0..lanes {
                    let prod = x[base + l] as u128 * y[ybase + l] as u128
                        + t[base + l] as u128
                        + carry[l] as u128;
                    t[base + l] = prod as u64;
                    carry[l] = (prod >> 64) as u64;
                }
            }
            for l in 0..lanes {
                let (s, c) = t[w * lanes + l].overflowing_add(carry[l]);
                t[w * lanes + l] = s;
                t[(w + 1) * lanes + l] += c as u64;
            }
            // m = t[0] · (−p⁻¹) mod 2^64; t += m · p (zeroes t[0])
            for l in 0..lanes {
                m[l] = t[l].wrapping_mul(self.p0_inv_neg);
                carry[l] = 0;
            }
            for (i, &pi) in self.p.iter().enumerate() {
                let base = i * lanes;
                for l in 0..lanes {
                    let prod = m[l] as u128 * pi as u128 + t[base + l] as u128 + carry[l] as u128;
                    t[base + l] = prod as u64;
                    carry[l] = (prod >> 64) as u64;
                }
            }
            for l in 0..lanes {
                let (s, c) = t[w * lanes + l].overflowing_add(carry[l]);
                t[w * lanes + l] = s;
                t[(w + 1) * lanes + l] += c as u64;
            }
            // t /= 2^64 (t[0] is zero by construction of m)
            for i in 0..=w {
                let (dst, src) = (i * lanes, (i + 1) * lanes);
                for l in 0..lanes {
                    t[dst + l] = t[src + l];
                }
            }
            t[(w + 1) * lanes..(w + 2) * lanes].fill(0);
        }
        // Result < 2p ≤ R + p: one conditional subtraction per lane.
        for l in 0..lanes {
            if t[w * lanes + l] != 0 || lane_ge(t, lanes, l, w, &self.p) {
                // Include the overflow limb in the borrow chain.
                let mut borrow = 0u64;
                for i in 0..w {
                    let idx = i * lanes + l;
                    let (d1, b1) = t[idx].overflowing_sub(self.p[i]);
                    let (d2, b2) = d1.overflowing_sub(borrow);
                    t[idx] = d2;
                    borrow = (b1 | b2) as u64;
                }
                t[w * lanes + l] = t[w * lanes + l].wrapping_sub(borrow);
            }
            for i in 0..w {
                out[i * lanes + l] = t[i * lanes + l];
            }
        }
    }

    /// Computes `aᵢ·bᵢ mod p` for every pair via the laned kernel.
    pub fn mod_mul_batch(&self, pairs: &[(UBig, UBig)], lanes: usize) -> Vec<UBig> {
        let lanes = lanes.clamp(1, MAX_LANES);
        if self.p_big.is_one() {
            return vec![UBig::zero(); pairs.len()];
        }
        let w = self.w;
        let mut out = Vec::with_capacity(pairs.len());
        let mut xa = vec![0u64; w * lanes];
        let mut xb = vec![0u64; w * lanes];
        let mut r2s = vec![0u64; w * lanes];
        let mut ar = vec![0u64; w * lanes];
        let mut res = vec![0u64; w * lanes];
        let mut t = vec![0u64; (w + 2) * lanes];
        broadcast(&mut r2s, lanes, w, &self.r2);
        for group in pairs.chunks(lanes) {
            for (l, (a, b)) in group.iter().enumerate() {
                load_lane(&mut xa, lanes, l, w, &canonical(a, &self.p_big));
                load_lane(&mut xb, lanes, l, w, &canonical(b, &self.p_big));
            }
            for l in group.len()..lanes {
                zero_lane(&mut xa, lanes, l, w);
                zero_lane(&mut xb, lanes, l, w);
            }
            self.cios(&xa, &r2s, &mut ar, lanes, &mut t); // aR = REDC(a·R²)
            self.cios(&ar, &xb, &mut res, lanes, &mut t); // ab = REDC(aR·b)
            for l in 0..group.len() {
                out.push(extract_lane(&res, lanes, l, w));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Barrett lanes
// ---------------------------------------------------------------------

/// Lane-vectorized Barrett kernel for one modulus (any parity).
///
/// Identical arithmetic to [`crate::PreparedBarrett`] — full product,
/// `q̂ = ((x ≫ k−1)·µ) ≫ k+1`, `r = x − q̂·p`, at most two conditional
/// subtractions — on flat limbs with up to [`MAX_LANES`] lanes per
/// limb pass.
#[derive(Debug, Clone)]
pub struct BarrettLanes {
    p_big: UBig,
    p: Vec<u64>,
    /// `µ = ⌊2^(2k)/p⌋`, `w + 1` limbs.
    mu: Vec<u64>,
    k: usize,
    w: usize,
}

impl BarrettLanes {
    /// Builds the kernel.
    ///
    /// # Errors
    ///
    /// [`ModMulError::ZeroModulus`] for `p = 0`.
    pub fn new(p: &UBig) -> Result<Self, ModMulError> {
        if p.is_zero() {
            return Err(ModMulError::ZeroModulus);
        }
        let k = p.bit_len();
        let w = k.div_ceil(64).max(1);
        let mu = &UBig::pow2(2 * k) / p;
        Ok(BarrettLanes {
            p_big: p.clone(),
            p: fixed_limbs(p, w),
            mu: fixed_limbs(&mu, w + 1),
            k,
            w,
        })
    }

    /// Computes `aᵢ·bᵢ mod p` for every pair via the laned kernel.
    pub fn mod_mul_batch(&self, pairs: &[(UBig, UBig)], lanes: usize) -> Vec<UBig> {
        let lanes = lanes.clamp(1, MAX_LANES);
        if self.p_big.is_one() {
            return vec![UBig::zero(); pairs.len()];
        }
        let (w, k) = (self.w, self.k);
        let mut out = Vec::with_capacity(pairs.len());
        let mut xa = vec![0u64; w * lanes];
        let mut xb = vec![0u64; w * lanes];
        let mut x = vec![0u64; 2 * w * lanes];
        let mut q1 = vec![0u64; (w + 1) * lanes];
        let mut qmu = vec![0u64; (2 * w + 2) * lanes];
        let mut qhat = vec![0u64; (w + 1) * lanes];
        let mut qp = vec![0u64; (w + 1) * lanes];
        let mut r = vec![0u64; (w + 1) * lanes];
        for group in pairs.chunks(lanes) {
            for (l, (a, b)) in group.iter().enumerate() {
                load_lane(&mut xa, lanes, l, w, &canonical(a, &self.p_big));
                load_lane(&mut xb, lanes, l, w, &canonical(b, &self.p_big));
            }
            for l in group.len()..lanes {
                zero_lane(&mut xa, lanes, l, w);
                zero_lane(&mut xb, lanes, l, w);
            }
            // x = a·b (2w limbs); q̂ = ((x ≫ k−1)·µ) ≫ k+1 (each ≤ w+1 limbs).
            mul_soa(&mut x, &xa, w, &xb, w, lanes);
            shr_soa(&mut q1, w + 1, &x, 2 * w, k - 1, lanes);
            mul_soa_shared_trunc(&mut qmu, 2 * w + 2, &q1, w + 1, &self.mu, lanes);
            shr_soa(&mut qhat, w + 1, &qmu, 2 * w + 2, k + 1, lanes);
            // r = x − q̂·p over w+1 limbs (exact: 0 ≤ r < 3p < 2^(64(w+1))).
            mul_soa_shared_trunc(&mut qp, w + 1, &qhat, w + 1, &self.p, lanes);
            sub_soa(&mut r, &x, &qp, w + 1, lanes);
            for l in 0..group.len() {
                let mut guard = 0;
                while lane_ge(&r, lanes, l, w + 1, &self.p) {
                    lane_sub(&mut r, lanes, l, w + 1, &self.p);
                    guard += 1;
                    debug_assert!(guard <= 2, "Barrett bound violated");
                }
                out.push(extract_lane(&r, lanes, l, w + 1));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Carry-save lanes (shared by R4CSA-LUT and the carry-free engine)
// ---------------------------------------------------------------------

/// The `(sum, carry)` redundant accumulator of [`crate::CsaState`] and
/// each lane's deferred overflow carry, one copy per lane on flat
/// limbs. [`CsaLanes::reset`] sizes the lanes to the group about to
/// run, so no lane computes padding.
#[derive(Debug, Clone)]
struct CsaLanes {
    sum: Vec<u64>,
    carry: Vec<u64>,
    pending: [u8; MAX_LANES],
    width: usize,
    wl: usize,
    lanes: usize,
    top_mask: u64,
}

impl CsaLanes {
    /// An accumulator with a `width`-bit window for up to `max_lanes`
    /// lanes.
    fn new(width: usize, max_lanes: usize) -> Self {
        let wl = width.div_ceil(64).max(1);
        CsaLanes {
            sum: vec![0u64; wl * max_lanes],
            carry: vec![0u64; wl * max_lanes],
            pending: [0; MAX_LANES],
            width,
            wl,
            lanes: max_lanes,
            top_mask: if width.is_multiple_of(64) {
                u64::MAX
            } else {
                (1u64 << (width % 64)) - 1
            },
        }
    }

    /// Zeroes the accumulator for a group of `lanes` multiplications.
    fn reset(&mut self, lanes: usize) {
        debug_assert!(lanes * self.wl <= self.sum.len(), "group exceeds lanes");
        self.lanes = lanes;
        self.sum[..self.wl * lanes].fill(0);
        self.carry[..self.wl * lanes].fill(0);
        self.pending = [0; MAX_LANES];
    }

    /// Bit `pos` of lane `l` in `buf` (0 or 1).
    fn bit(&self, buf: &[u64], l: usize, pos: usize) -> u64 {
        (buf[(pos / 64) * self.lanes + l] >> (pos % 64)) & 1
    }

    /// One digit step of the carry-save loop, in one pass over the limbs:
    ///
    /// 1. `C ← 2^shift · C` inside the window (Alg. 3 lines 4–5);
    /// 2. the carry-save injection of `addend(limb, lane)`: `XOR3` → sum,
    ///    `MAJ ≪ 1` → carry (lines 7–9);
    /// 3. the same injection of the `ov_rows` row that each lane's
    ///    overflow word selects (lines 10–12). Its own carry-out becomes
    ///    the lane's pending carry, worth `2^shift` in the next step's
    ///    overflow word.
    ///
    /// The overflow word (the bits shifted out, the first injection's
    /// carry-out and the pending carry) depends only on bits at the top
    /// of the window, so it is read before the pass. The pass then
    /// computes each limb of the shift and both injections at once,
    /// carrying the bits that cross into the next limb in registers.
    fn step(&mut self, shift: u32, ov_rows: &[u64], addend: impl Fn(usize, usize) -> u64) {
        let (width, wl, lanes) = (self.width, self.wl, self.lanes);
        let top_bit = (width - 1) % 64;
        let shifted_out = width - shift as usize;
        let mut ov_row = [0usize; MAX_LANES];
        let mut msb = [0u64; MAX_LANES];
        for l in 0..lanes {
            let mut ov = u64::from(self.pending[l]) << shift;
            for t in 0..shift {
                let pos = shifted_out + t as usize;
                ov += (self.bit(&self.sum, l, pos) + self.bit(&self.carry, l, pos)) << t;
            }
            // Bit `width − 1` of the first injection's MAJ word, which
            // its `≪ 1` carries out of the window.
            let v = (addend(wl - 1, l) >> top_bit) & 1;
            let (s, c) = (width - 1)
                .checked_sub(shift as usize)
                .map_or((0, 0), |pos| {
                    (self.bit(&self.sum, l, pos), self.bit(&self.carry, l, pos))
                });
            msb[l] = (v & s) | (v & c) | (s & c);
            ov_row[l] = (ov + msb[l]) as usize * wl;
        }
        let back = 64 - shift;
        let (mut prev_s, mut prev_c) = ([0u64; MAX_LANES], [0u64; MAX_LANES]);
        let (mut prev_m, mut prev_m2) = ([0u64; MAX_LANES], [0u64; MAX_LANES]);
        for i in 0..wl {
            let mask = if i + 1 == wl { self.top_mask } else { u64::MAX };
            let base = i * lanes;
            for l in 0..lanes {
                let (s0, c0) = (self.sum[base + l], self.carry[base + l]);
                let s = ((s0 << shift) | (prev_s[l] >> back)) & mask;
                let c = ((c0 << shift) | (prev_c[l] >> back)) & mask;
                (prev_s[l], prev_c[l]) = (s0, c0);
                let v = addend(i, l);
                let m = (v & s) | (v & c) | (s & c);
                let s = v ^ s ^ c;
                let c = ((m << 1) | (prev_m[l] >> 63)) & mask;
                prev_m[l] = m;
                let v = ov_rows[ov_row[l] + i];
                let m2 = (v & s) | (v & c) | (s & c);
                self.sum[base + l] = v ^ s ^ c;
                self.carry[base + l] = ((m2 << 1) | (prev_m2[l] >> 63)) & mask;
                prev_m2[l] = m2;
            }
        }
        for l in 0..lanes {
            debug_assert_eq!((prev_m[l] >> top_bit) & 1, msb[l], "overflow word");
            self.pending[l] = ((prev_m2[l] >> top_bit) & 1) as u8;
        }
    }

    /// The near-memory finisher of lane `l`:
    /// `sum + carry (+ pending·2^width) mod p` (Alg. 3 line 14).
    fn finalize_lane(&self, l: usize, p: &UBig) -> UBig {
        let (wl, lanes) = (self.wl, self.lanes);
        let mut total = Vec::with_capacity(wl + 1);
        let mut carry = false;
        for i in 0..wl {
            let (s1, c1) = self.sum[i * lanes + l].overflowing_add(self.carry[i * lanes + l]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            total.push(s2);
            carry = c1 | c2;
        }
        total.push(carry as u64);
        let mut total = UBig::from_limbs(total);
        if self.pending[l] != 0 {
            total = &total + &UBig::pow2(self.width);
        }
        &total % p
    }
}

/// Flattens LUT rows into `rows × wl` plain limbs, one row per `wl`.
fn flatten_rows(rows: &[UBig], wl: usize) -> Vec<u64> {
    let mut out = vec![0u64; rows.len() * wl];
    for (r, v) in rows.iter().enumerate() {
        for (i, limb) in v.limbs().iter().enumerate() {
            out[r * wl + i] = *limb;
        }
    }
    out
}

// ---------------------------------------------------------------------
// R4CSA lanes
// ---------------------------------------------------------------------

/// Lane-vectorized Algorithm 3 for one modulus: processes a
/// **multiplicand run** (shared Table 1b) with up to [`MAX_LANES`]
/// multipliers advancing per digit step.
#[derive(Debug, Clone)]
pub struct R4CsaLanes {
    p: UBig,
    n: usize,
    width: usize,
    wl: usize,
    /// Flattened Table 2 rows (`LutOverflow::ENTRIES × wl`).
    ov_rows: Vec<u64>,
}

impl R4CsaLanes {
    /// Builds the kernel from the prepared context's overflow LUT.
    pub fn new(p: &UBig, lutov: &LutOverflow, n: usize) -> Self {
        let width = n + 1;
        let wl = width.div_ceil(64).max(1);
        R4CsaLanes {
            p: p.clone(),
            n,
            width,
            wl,
            ov_rows: flatten_rows(lutov.rows(), wl),
        }
    }

    /// Runs one multiplicand run: `aᵢ·B mod p` for every multiplier,
    /// where `lut4` is the run's shared Table 1b.
    /// Multipliers advance `lanes` at a time; a shorter run, or the
    /// last group of a longer one, gets one lane per multiplier, so a
    /// run of one costs one lane.
    pub fn run_batch<'a>(
        &self,
        multipliers: impl IntoIterator<Item = &'a UBig>,
        lut4: &LutRadix4,
        policy: TimingPolicy,
        lanes: usize,
    ) -> Vec<UBig> {
        let lanes = lanes.clamp(1, MAX_LANES);
        let wl = self.wl;
        let lut_rows = flatten_rows(lut4.rows(), wl);
        let mut state = CsaLanes::new(self.width, lanes);
        let mut group: Vec<UBig> = Vec::with_capacity(lanes);
        let mut out = Vec::new();
        let mut multipliers = multipliers.into_iter().peekable();
        while multipliers.peek().is_some() {
            group.clear();
            group.extend(
                multipliers
                    .by_ref()
                    .take(lanes)
                    .map(|a| canonical(a, &self.p)),
            );
            // A lane with fewer digits than the group's longest runs
            // extra leading zero digits (`radix4_digit` past its length),
            // which leave a zero accumulator unchanged.
            let steps = group
                .iter()
                .map(|a| policy.digit_count(a.bit_len(), self.n))
                .max()
                .unwrap_or(0);
            state.reset(group.len());
            let mut row = [0usize; MAX_LANES];
            for i in (0..steps).rev() {
                for (r, a) in row.iter_mut().zip(&group) {
                    *r = LutRadix4::index_of(radix4_digit(a, i)) * wl;
                }
                state.step(2, &self.ov_rows, |limb, l| lut_rows[row[l] + limb]);
            }
            out.extend((0..group.len()).map(|l| state.finalize_lane(l, &self.p)));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Carry-free lanes
// ---------------------------------------------------------------------

/// Lane-vectorized carry-free (Mazonka-style) kernel for one modulus:
/// the radix-2 carry-save loop of [`crate::carryfree`] with up to
/// [`MAX_LANES`] multiplications per bit step. Unlike [`R4CsaLanes`]
/// there is no shared-multiplicand requirement — the injected addend is
/// each lane's own `B`, gated by the lane's multiplier bit.
#[derive(Debug, Clone)]
pub struct CarryFreeLanes {
    p: UBig,
    width: usize,
    wl: usize,
    /// Flattened re-injection rows (`w·2^width mod p`).
    red_rows: Vec<u64>,
}

impl CarryFreeLanes {
    /// Builds the kernel from the prepared context's reduction table
    /// (a [`LutOverflow`] built at window `bit_len(p) + 1`).
    pub fn new(p: &UBig, red: &LutOverflow) -> Self {
        let width = red.width();
        let wl = width.div_ceil(64).max(1);
        CarryFreeLanes {
            p: p.clone(),
            width,
            wl,
            red_rows: flatten_rows(red.rows(), wl),
        }
    }

    /// Computes `aᵢ·bᵢ mod p` for every pair via the laned kernel.
    pub fn mod_mul_batch(&self, pairs: &[(UBig, UBig)], lanes: usize) -> Vec<UBig> {
        let lanes = lanes.clamp(1, MAX_LANES);
        if self.p.is_one() {
            return vec![UBig::zero(); pairs.len()];
        }
        let wl = self.wl;
        let mut state = CsaLanes::new(self.width, lanes);
        let mut bsoa = vec![0u64; wl * lanes];
        let mut out = Vec::with_capacity(pairs.len());
        for group in pairs.chunks(lanes) {
            let g = group.len();
            let multipliers: Vec<UBig> = group.iter().map(|(a, _)| canonical(a, &self.p)).collect();
            for (l, (_, b)) in group.iter().enumerate() {
                load_lane(&mut bsoa, g, l, wl, &canonical(b, &self.p));
            }
            // Shorter multipliers contribute leading zero bits, which
            // are value-preserving on a zero accumulator.
            let steps = multipliers.iter().map(UBig::bit_len).max().unwrap_or(0);
            state.reset(g);
            let mut mask = [0u64; MAX_LANES];
            for bit_pos in (0..steps).rev() {
                for (m, a) in mask.iter_mut().zip(&multipliers) {
                    *m = 0u64.wrapping_sub(a.bit(bit_pos) as u64);
                }
                state.step(1, &self.red_rows, |limb, l| bsoa[limb * g + l] & mask[l]);
            }
            out.extend((0..g).map(|l| state.finalize_lane(l, &self.p)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(pairs: &[(UBig, UBig)], p: &UBig) -> Vec<UBig> {
        pairs.iter().map(|(a, b)| &(a * b) % p).collect()
    }

    fn some_pairs(n: usize, seed: u64) -> Vec<(UBig, UBig)> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|_| {
                (
                    UBig::from_limbs(vec![next(), next(), next(), next()]),
                    UBig::from_limbs(vec![next(), next(), next(), next()]),
                )
            })
            .collect()
    }

    #[test]
    fn mont_lanes_match_oracle_across_lane_counts() {
        let p = UBig::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .unwrap();
        let kernel = MontLanes::new(&p).unwrap();
        let pairs = some_pairs(13, 0xA11CE);
        let want = oracle(&pairs, &p);
        for lanes in [1, 2, 3, 8, 16] {
            assert_eq!(kernel.mod_mul_batch(&pairs, lanes), want, "lanes={lanes}");
        }
    }

    #[test]
    fn mont_lanes_reject_bad_moduli() {
        assert_eq!(
            MontLanes::new(&UBig::zero()).err(),
            Some(ModMulError::ZeroModulus)
        );
        assert_eq!(
            MontLanes::new(&UBig::from(10u64)).err(),
            Some(ModMulError::EvenModulus)
        );
    }

    #[test]
    fn barrett_lanes_match_oracle_even_and_odd() {
        for p in [
            UBig::from(97u64),
            UBig::from(1u64 << 63),
            &UBig::pow2(192) - &UBig::from(237u64),
        ] {
            let kernel = BarrettLanes::new(&p).unwrap();
            let pairs = some_pairs(9, 0xBEEF);
            assert_eq!(
                kernel.mod_mul_batch(&pairs, 4),
                oracle(&pairs, &p),
                "p={p:?}"
            );
        }
    }

    #[test]
    fn carryfree_lanes_match_oracle() {
        let p = &UBig::pow2(128) - &UBig::from(159u64);
        let red = LutOverflow::new(&p, p.bit_len() + 1).unwrap();
        let kernel = CarryFreeLanes::new(&p, &red);
        let pairs = some_pairs(11, 0xCAFE);
        for lanes in [1, 5, 8] {
            assert_eq!(kernel.mod_mul_batch(&pairs, lanes), oracle(&pairs, &p));
        }
    }

    #[test]
    fn r4csa_lanes_match_oracle_for_a_run() {
        let p = UBig::from(0xffff_fffb_u64);
        let n = p.bit_len();
        let lutov = LutOverflow::new(&p, n + 1).unwrap();
        let kernel = R4CsaLanes::new(&p, &lutov, n);
        let b = UBig::from(0x1234_5678u64);
        let lut4 = LutRadix4::new(&b, &p).unwrap();
        let multipliers: Vec<UBig> = (0..10u64).map(|i| UBig::from(i * 7919 + 3)).collect();
        let want: Vec<UBig> = multipliers.iter().map(|a| &(a * &b) % &p).collect();
        for lanes in [1, 3, 8] {
            assert_eq!(
                kernel.run_batch(&multipliers, &lut4, TimingPolicy::DataDependent, lanes),
                want,
                "lanes={lanes}"
            );
        }
    }

    #[test]
    fn modulus_one_short_circuits() {
        let pairs = some_pairs(3, 7);
        let mont = MontLanes::new(&UBig::one()).unwrap();
        assert_eq!(mont.mod_mul_batch(&pairs, 4), vec![UBig::zero(); 3]);
        let bar = BarrettLanes::new(&UBig::one()).unwrap();
        assert_eq!(bar.mod_mul_batch(&pairs, 4), vec![UBig::zero(); 3]);
    }
}
