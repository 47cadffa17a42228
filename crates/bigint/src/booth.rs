//! Booth signed-digit recoding (Table 1a of the paper).
//!
//! A radix-4 Booth encoder turns an `n`-bit multiplier into `⌈n/2⌉` signed
//! digits in `{-2, -1, 0, +1, +2}`, halving the iteration count of an
//! interleaved modular multiplier. Radix-8 recoding (digits in `{-4..=4}`,
//! one third of the iterations) is provided for the paper's radix
//! ablation.
//!
//! # Digit-count subtlety (documented reproduction finding)
//!
//! `⌈n/2⌉` signed radix-4 digits can only represent values below
//! `2·(4^⌈n/2⌉−1)/3`; when the multiplier's top bit `a_{n−1}` is set, one
//! extra leading digit is required for the recoding to be value-preserving.
//! The paper's cycle count (`3n−1`, 767 at n = 256) corresponds to the
//! `⌈n/2⌉`-digit case; [`radix4_digits_msb_first`] returns the extra digit
//! when (and only when) it is mathematically required, and the accelerator
//! charges 6 extra cycles for it. See EXPERIMENTS.md.

use crate::UBig;

/// A radix-4 Booth digit in `{-2, -1, 0, +1, +2}`.
///
/// # Examples
///
/// ```
/// use modsram_bigint::Radix4Digit;
/// // Table 1a row (0, 1, 1) -> +2
/// assert_eq!(Radix4Digit::encode(false, true, true).value(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Radix4Digit(i8);

impl Radix4Digit {
    /// Encodes three overlapping multiplier bits `(a_{i+1}, a_i, a_{i−1})`
    /// per Table 1a: the digit value is `a_{i−1} + a_i − 2·a_{i+1}`.
    pub fn encode(a_ip1: bool, a_i: bool, a_im1: bool) -> Self {
        Radix4Digit(a_im1 as i8 + a_i as i8 - 2 * (a_ip1 as i8))
    }

    /// The signed digit value.
    pub fn value(self) -> i8 {
        self.0
    }

    /// `true` for the zero digit (no LUT value needs to be added).
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// All five possible digits, in Table 1b order (`0, +1, +2, -2, -1`).
    pub fn all() -> [Radix4Digit; 5] {
        [
            Radix4Digit(0),
            Radix4Digit(1),
            Radix4Digit(2),
            Radix4Digit(-2),
            Radix4Digit(-1),
        ]
    }
}

/// A radix-8 Booth digit in `{-4..=4}` (the paper's §2.1 radix-8 variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Radix8Digit(i8);

impl Radix8Digit {
    /// Encodes four overlapping bits `(a_{i+2}, a_{i+1}, a_i, a_{i−1})`:
    /// the digit value is `a_{i−1} + a_i + 2·a_{i+1} − 4·a_{i+2}`.
    pub fn encode(a_ip2: bool, a_ip1: bool, a_i: bool, a_im1: bool) -> Self {
        Radix8Digit(a_im1 as i8 + a_i as i8 + 2 * (a_ip1 as i8) - 4 * (a_ip2 as i8))
    }

    /// The signed digit value.
    pub fn value(self) -> i8 {
        self.0
    }
}

/// Number of digits [`radix4_digits_msb_first`] returns for a
/// multiplier of `a_bits` bits at declared bitwidth `n`.
pub fn radix4_digit_len(a_bits: usize, n: usize) -> usize {
    // Value-preserving iff the bit just above the covered window is clear:
    // need 2k − 1 ≥ bit_len(a), i.e. k ≥ (bit_len + 1) / 2 rounded up.
    n.div_ceil(2).max((a_bits + 2) / 2).max(1)
}

/// Radix-4 Booth digit `i` (weight `4^i`) of `a`, per Table 1a. Every
/// digit at or above [`radix4_digit_len`] is zero, so a digit loop may
/// run a shorter multiplier over extra leading steps.
pub fn radix4_digit(a: &UBig, i: usize) -> Radix4Digit {
    let a_im1 = i > 0 && a.bit(2 * i - 1);
    Radix4Digit::encode(a.bit(2 * i + 1), a.bit(2 * i), a_im1)
}

/// Radix-4 Booth recoding of `a` at declared bitwidth `n`, most
/// significant digit first.
///
/// Returns `max(⌈n/2⌉, needed)` digits, where `needed` grows by one digit
/// exactly when `a ≥ 2^(2·⌈n/2⌉ − 1)` (see the module docs). The identity
/// `Σ dᵢ·4^i = a` always holds.
///
/// # Panics
///
/// Panics if `a` does not fit in `n` bits.
pub fn radix4_digits_msb_first(a: &UBig, n: usize) -> Vec<Radix4Digit> {
    assert!(
        a.bit_len() <= n,
        "multiplier has {} bits, declared width is {n}",
        a.bit_len()
    );
    (0..radix4_digit_len(a.bit_len(), n))
        .rev()
        .map(|i| radix4_digit(a, i))
        .collect()
}

/// Radix-8 Booth recoding of `a` at declared bitwidth `n`, most
/// significant digit first. `Σ dᵢ·8^i = a` always holds.
///
/// # Panics
///
/// Panics if `a` does not fit in `n` bits.
pub fn radix8_digits_msb_first(a: &UBig, n: usize) -> Vec<Radix8Digit> {
    assert!(
        a.bit_len() <= n,
        "multiplier has {} bits, declared width is {n}",
        a.bit_len()
    );
    let k = (n.div_ceil(3)).max((a.bit_len() + 3) / 3).max(1);
    (0..k)
        .rev()
        .map(|i| {
            let a_im1 = 3 * i > 0 && a.bit(3 * i - 1);
            Radix8Digit::encode(a.bit(3 * i + 2), a.bit(3 * i + 1), a.bit(3 * i), a_im1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reconstructs Σ dᵢ·rⁱ as (positive, negative) magnitudes.
    fn reconstruct(values: &[i8], radix: u64) -> (UBig, UBig) {
        let mut pos = UBig::zero();
        let mut neg = UBig::zero();
        for &d in values {
            pos = &pos * &UBig::from(radix);
            neg = &neg * &UBig::from(radix);
            if d >= 0 {
                pos = &pos + &UBig::from(d as u64);
            } else {
                neg = &neg + &UBig::from((-d) as u64);
            }
        }
        (pos, neg)
    }

    fn check_radix4(a: u64, n: usize) {
        let big = UBig::from(a);
        let digits = radix4_digits_msb_first(&big, n);
        let values: Vec<i8> = digits.iter().map(|d| d.value()).collect();
        let (pos, neg) = reconstruct(&values, 4);
        assert_eq!(&pos - &neg, big, "radix-4 recoding of {a} (n={n}) wrong");
    }

    #[test]
    fn table_1a_truth_table() {
        let expect = [
            ((false, false, false), 0),
            ((false, false, true), 1),
            ((false, true, false), 1),
            ((false, true, true), 2),
            ((true, false, false), -2),
            ((true, false, true), -1),
            ((true, true, false), -1),
            ((true, true, true), 0),
        ];
        for ((a1, a0, am1), v) in expect {
            assert_eq!(
                Radix4Digit::encode(a1, a0, am1).value(),
                v,
                "ENC({},{},{})",
                a1 as u8,
                a0 as u8,
                am1 as u8
            );
        }
    }

    #[test]
    fn radix4_exhaustive_small() {
        for n in 1..=10usize {
            for a in 0..(1u64 << n) {
                check_radix4(a, n);
            }
        }
    }

    #[test]
    fn radix4_digit_count_matches_paper_when_msb_clear() {
        // n = 256, multiplier below 2^255: exactly 128 digits.
        let a = &UBig::pow2(255) - &UBig::one();
        assert_eq!(radix4_digits_msb_first(&a, 256).len(), 128);
        // Top bit set: one extra digit.
        let b = UBig::pow2(255);
        assert_eq!(radix4_digits_msb_first(&b, 256).len(), 129);
    }

    #[test]
    fn radix4_zero_has_one_zero_digit() {
        let digits = radix4_digits_msb_first(&UBig::zero(), 0);
        assert_eq!(digits.len(), 1);
        assert!(digits[0].is_zero());
    }

    #[test]
    #[should_panic(expected = "declared width")]
    fn radix4_width_check() {
        radix4_digits_msb_first(&UBig::from(16u64), 4);
    }

    #[test]
    fn radix8_exhaustive_small() {
        for n in 1..=9usize {
            for a in 0..(1u64 << n) {
                let big = UBig::from(a);
                let digits = radix8_digits_msb_first(&big, n);
                let values: Vec<i8> = digits.iter().map(|d| d.value()).collect();
                let (pos, neg) = reconstruct(&values, 8);
                assert_eq!(&pos - &neg, big, "radix-8 recoding of {a} (n={n}) wrong");
            }
        }
    }

    #[test]
    fn radix8_uses_fewer_digits() {
        let a = &UBig::pow2(254) - &UBig::from(12345u64);
        let d4 = radix4_digits_msb_first(&a, 256).len();
        let d8 = radix8_digits_msb_first(&a, 256).len();
        assert_eq!(d4, 128);
        assert_eq!(d8, 86); // ⌈256/3⌉
        assert!(d8 < d4);
    }

    #[test]
    fn all_digits_listing() {
        let vals: Vec<i8> = Radix4Digit::all().iter().map(|d| d.value()).collect();
        assert_eq!(vals, vec![0, 1, 2, -2, -1]);
    }
}
