//! Big-integer substrate for the ModSRAM reproduction.
//!
//! This crate provides everything the rest of the workspace needs to talk
//! about large unsigned integers, implemented from scratch:
//!
//! * [`UBig`] — an arbitrary-precision unsigned integer backed by 64-bit
//!   limbs, with schoolbook/Karatsuba multiplication and Knuth Algorithm-D
//!   division.
//! * [`U256`] / [`U512`] — fixed-width values for hot paths (elliptic-curve
//!   field arithmetic), including a Montgomery multiplication context
//!   ([`MontCtx256`]).
//! * [`booth`] — radix-4 and radix-8 Booth signed-digit recoding
//!   (Table 1a of the paper), the front-end of the R4CSA-LUT algorithm.
//!
//! # Examples
//!
//! ```
//! use modsram_bigint::UBig;
//!
//! let a = UBig::from_hex("ffee_0011_2233").unwrap();
//! let b = UBig::from(3u64);
//! let p = UBig::from(97u64);
//! assert_eq!((&a * &b) % &p, UBig::from(38u64));
//! ```

pub mod booth;
mod div;
mod fmt;
mod modular;
mod mont256;
mod mul;
mod random;
mod u256;
mod ubig;

pub use booth::{
    radix4_digit, radix4_digit_len, radix4_digits_msb_first, radix8_digits_msb_first, Radix4Digit,
    Radix8Digit,
};
pub use fmt::ParseUBigError;
pub use modular::{gcd, mod_add, mod_inv, mod_mul, mod_neg, mod_pow, mod_sqrt, mod_sub};
pub use mont256::{MontCtx256, MontError};
pub use random::{ubig_below, ubig_with_bits};
pub use u256::{U256Overflow, U256, U512};
pub use ubig::UBig;
