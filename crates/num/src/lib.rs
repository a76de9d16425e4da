//! Exact rational arithmetic for the `locap` workspace.
//!
//! Approximation ratios, LP-style edge packings, and homogeneity fractions
//! are all reported *exactly* in this project (see DESIGN.md §4). This crate
//! provides a small, dependency-free rational type [`Ratio`] over `i128`
//! with checked arithmetic: any overflow is reported as an error rather than
//! silently wrapping, and all values are kept in lowest terms with a
//! positive denominator.
//!
//! # Examples
//!
//! ```
//! use locap_num::Ratio;
//!
//! let a = Ratio::new(4, 6).unwrap();
//! assert_eq!(a, Ratio::new(2, 3).unwrap());
//! let b = (a + Ratio::from_int(1)).unwrap();
//! assert_eq!(b, Ratio::new(5, 3).unwrap());
//! assert!(b > a);
//! assert_eq!(b.to_string(), "5/3");
//! ```

#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]

use std::cmp::Ordering;
use std::fmt;

/// Error produced by rational arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumError {
    /// A denominator of zero was supplied or produced.
    DivisionByZero,
    /// An intermediate value exceeded the range of `i128`.
    Overflow,
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::DivisionByZero => write!(f, "division by zero"),
            NumError::Overflow => write!(f, "arithmetic overflow in rational computation"),
        }
    }
}

impl std::error::Error for NumError {}

/// Greatest common divisor of two non-negative integers (binary/Euclid).
///
/// `gcd(0, 0) == 0` by convention.
///
/// # Examples
///
/// ```
/// assert_eq!(locap_num::gcd(12, 18), 6);
/// assert_eq!(locap_num::gcd(0, 7), 7);
/// ```
pub fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// An exact rational number `num/den` in lowest terms with `den > 0`.
///
/// All arithmetic is checked: operations return `Result<Ratio, NumError>`
/// so overflow can never silently corrupt a measured approximation ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128,
}

// add/sub/mul/div/neg are *checked* (Result-returning) and so cannot be
// the std operator traits, which are infallible.
#[allow(clippy::should_implement_trait)]
impl Ratio {
    /// The rational number zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates a rational `num/den`, reduced to lowest terms.
    ///
    /// Returns [`NumError::DivisionByZero`] if `den == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use locap_num::Ratio;
    /// let r = Ratio::new(-4, -8).unwrap();
    /// assert_eq!(r.numer(), 1);
    /// assert_eq!(r.denom(), 2);
    /// assert!(Ratio::new(1, 0).is_err());
    /// ```
    pub fn new(num: i128, den: i128) -> Result<Ratio, NumError> {
        if den == 0 {
            return Err(NumError::DivisionByZero);
        }
        if num == i128::MIN || den == i128::MIN {
            // unsigned_abs of i128::MIN does not fit the sign handling below.
            return Err(NumError::Overflow);
        }
        if num == 0 {
            return Ok(Ratio { num: 0, den: 1 });
        }
        let sign = (num < 0) != (den < 0);
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd(n, d);
        let (n2, d2) = (n / g, d / g);
        let num = if sign { -(n2 as i128) } else { n2 as i128 };
        Ok(Ratio { num, den: d2 as i128 })
    }

    /// Creates a rational from an integer.
    ///
    /// ```
    /// use locap_num::Ratio;
    /// assert_eq!(Ratio::from_int(5), Ratio::new(5, 1).unwrap());
    /// ```
    pub fn from_int(n: i128) -> Ratio {
        Ratio { num: n, den: 1 }
    }

    /// The numerator (sign-carrying, lowest terms).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Checked addition.
    pub fn add(self, rhs: Ratio) -> Result<Ratio, NumError> {
        let g = gcd(self.den.unsigned_abs(), rhs.den.unsigned_abs()) as i128;
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let a = self.num.checked_mul(lhs_scale).ok_or(NumError::Overflow)?;
        let b = rhs.num.checked_mul(rhs_scale).ok_or(NumError::Overflow)?;
        let num = a.checked_add(b).ok_or(NumError::Overflow)?;
        let den = self.den.checked_mul(lhs_scale).ok_or(NumError::Overflow)?;
        Ratio::new(num, den)
    }

    /// Checked subtraction.
    pub fn sub(self, rhs: Ratio) -> Result<Ratio, NumError> {
        self.add(rhs.neg()?)
    }

    /// Checked multiplication.
    pub fn mul(self, rhs: Ratio) -> Result<Ratio, NumError> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num.unsigned_abs(), rhs.den.unsigned_abs()) as i128;
        let g2 = gcd(rhs.num.unsigned_abs(), self.den.unsigned_abs()) as i128;
        let n1 = if g1 == 0 { self.num } else { self.num / g1 };
        let d2 = if g1 == 0 { rhs.den } else { rhs.den / g1 };
        let n2 = if g2 == 0 { rhs.num } else { rhs.num / g2 };
        let d1 = if g2 == 0 { self.den } else { self.den / g2 };
        let num = n1.checked_mul(n2).ok_or(NumError::Overflow)?;
        let den = d1.checked_mul(d2).ok_or(NumError::Overflow)?;
        Ratio::new(num, den)
    }

    /// Checked division. Returns [`NumError::DivisionByZero`] when `rhs == 0`.
    pub fn div(self, rhs: Ratio) -> Result<Ratio, NumError> {
        if rhs.num == 0 {
            return Err(NumError::DivisionByZero);
        }
        self.mul(Ratio::new(rhs.den, rhs.num)?)
    }

    /// Checked negation.
    pub fn neg(self) -> Result<Ratio, NumError> {
        let num = self.num.checked_neg().ok_or(NumError::Overflow)?;
        Ok(Ratio { num, den: self.den })
    }

    /// The minimum of two rationals.
    pub fn min(self, rhs: Ratio) -> Ratio {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// The maximum of two rationals.
    pub fn max(self, rhs: Ratio) -> Ratio {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Returns `true` when the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` when the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Converts to `f64` (for display/plotting only; may lose precision).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b  (b, d > 0). Use wide arithmetic to be
        // safe against overflow: compare via i256 emulated with two i128
        // halves is overkill; instead compare with checked mul falling back
        // to f64 only when impossible. In practice our values are small;
        // checked_mul failure is treated as a logic error.
        match (self.num.checked_mul(other.den), other.num.checked_mul(self.den)) {
            (Some(a), Some(b)) => a.cmp(&b),
            _ => {
                // Fall back to exact comparison via continued-fraction style
                // reduction: compare integer parts, then reciprocals of the
                // fractional parts.
                cmp_exact(self.num, self.den, other.num, other.den)
            }
        }
    }
}

/// Exact comparison of a/b vs c/d for b, d > 0 without overflowing,
/// via the Stern–Brocot / Euclidean recursion.
fn cmp_exact(a: i128, b: i128, c: i128, d: i128) -> Ordering {
    debug_assert!(b > 0 && d > 0);
    let (qa, ra) = (a.div_euclid(b), a.rem_euclid(b));
    let (qc, rc) = (c.div_euclid(d), c.rem_euclid(d));
    match qa.cmp(&qc) {
        Ordering::Equal => {
            if ra == 0 && rc == 0 {
                Ordering::Equal
            } else if ra == 0 {
                Ordering::Less
            } else if rc == 0 {
                Ordering::Greater
            } else {
                // a/b ? c/d  <=>  d/rc ? b/ra (reciprocals flip order)
                cmp_exact(d, rc, b, ra)
            }
        }
        o => o,
    }
}

impl std::ops::Add for Ratio {
    type Output = Result<Ratio, NumError>;
    fn add(self, rhs: Ratio) -> Self::Output {
        Ratio::add(self, rhs)
    }
}

impl std::ops::Sub for Ratio {
    type Output = Result<Ratio, NumError>;
    fn sub(self, rhs: Ratio) -> Self::Output {
        Ratio::sub(self, rhs)
    }
}

impl std::ops::Mul for Ratio {
    type Output = Result<Ratio, NumError>;
    fn mul(self, rhs: Ratio) -> Self::Output {
        Ratio::mul(self, rhs)
    }
}

impl std::ops::Div for Ratio {
    type Output = Result<Ratio, NumError>;
    fn div(self, rhs: Ratio) -> Self::Output {
        Ratio::div(self, rhs)
    }
}

impl From<i64> for Ratio {
    fn from(n: i64) -> Ratio {
        Ratio::from_int(n as i128)
    }
}

impl From<usize> for Ratio {
    fn from(n: usize) -> Ratio {
        Ratio::from_int(n as i128)
    }
}

/// Sums an iterator of rationals with checked arithmetic.
///
/// ```
/// use locap_num::{sum, Ratio};
/// let xs = [Ratio::new(1, 2).unwrap(), Ratio::new(1, 3).unwrap()];
/// assert_eq!(sum(xs.iter().copied()).unwrap(), Ratio::new(5, 6).unwrap());
/// ```
pub fn sum<I: IntoIterator<Item = Ratio>>(iter: I) -> Result<Ratio, NumError> {
    let mut acc = Ratio::ZERO;
    for x in iter {
        acc = acc.add(x)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 13), 1);
        assert_eq!(gcd(48, 36), 12);
    }

    #[test]
    fn new_reduces_and_normalises_sign() {
        let r = Ratio::new(4, 6).unwrap();
        assert_eq!((r.numer(), r.denom()), (2, 3));
        let r = Ratio::new(-4, 6).unwrap();
        assert_eq!((r.numer(), r.denom()), (-2, 3));
        let r = Ratio::new(4, -6).unwrap();
        assert_eq!((r.numer(), r.denom()), (-2, 3));
        let r = Ratio::new(-4, -6).unwrap();
        assert_eq!((r.numer(), r.denom()), (2, 3));
        let r = Ratio::new(0, -5).unwrap();
        assert_eq!((r.numer(), r.denom()), (0, 1));
    }

    #[test]
    fn zero_denominator_rejected() {
        assert_eq!(Ratio::new(1, 0), Err(NumError::DivisionByZero));
        assert_eq!(Ratio::ONE.div(Ratio::ZERO), Err(NumError::DivisionByZero));
    }

    #[test]
    fn arithmetic_basics() {
        let half = Ratio::new(1, 2).unwrap();
        let third = Ratio::new(1, 3).unwrap();
        assert_eq!(half.add(third).unwrap(), Ratio::new(5, 6).unwrap());
        assert_eq!(half.sub(third).unwrap(), Ratio::new(1, 6).unwrap());
        assert_eq!(half.mul(third).unwrap(), Ratio::new(1, 6).unwrap());
        assert_eq!(half.div(third).unwrap(), Ratio::new(3, 2).unwrap());
        assert_eq!(half.neg().unwrap(), Ratio::new(-1, 2).unwrap());
    }

    #[test]
    fn ordering_basics() {
        let a = Ratio::new(2, 3).unwrap();
        let b = Ratio::new(3, 4).unwrap();
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(Ratio::new(-1, 2).unwrap() < Ratio::ZERO);
    }

    #[test]
    fn ordering_huge_values_exact() {
        // Large values that overflow the cross-multiplication path.
        let big = i128::MAX / 2;
        let a = Ratio::new(big, big - 1).unwrap();
        let b = Ratio::new(big - 1, big - 2).unwrap();
        // x/(x-1) is strictly decreasing, so a = f(big) < f(big-1) = b —
        // and the comparison must stay exact at i128 scale (no float
        // round-off can be allowed to flip it)
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(cmp_exact(1, 2, 1, 2), Ordering::Equal);
        assert_eq!(cmp_exact(1, 3, 1, 2), Ordering::Less);
    }

    #[test]
    fn display() {
        assert_eq!(Ratio::new(7, 2).unwrap().to_string(), "7/2");
        assert_eq!(Ratio::from_int(-3).to_string(), "-3");
        assert_eq!(Ratio::ZERO.to_string(), "0");
    }

    #[test]
    fn sum_and_predicates() {
        let xs = vec![Ratio::new(1, 4).unwrap(); 4];
        let s = sum(xs).unwrap();
        assert_eq!(s, Ratio::ONE);
        assert!(s.is_integer());
        assert!(!s.is_zero());
        assert!(Ratio::ZERO.is_zero());
        assert!((Ratio::new(1, 2).unwrap().to_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overflow_detected() {
        let huge = Ratio::new(i128::MAX, 1).unwrap();
        assert_eq!(huge.add(Ratio::ONE), Err(NumError::Overflow));
        assert_eq!(huge.mul(Ratio::from_int(2)), Err(NumError::Overflow));
    }

    #[test]
    fn error_display_and_trait() {
        let e: Box<dyn std::error::Error> = Box::new(NumError::Overflow);
        assert!(e.to_string().contains("overflow"));
        assert!(NumError::DivisionByZero.to_string().contains("zero"));
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in -10_000i128..10_000, b in 1i128..10_000,
                             c in -10_000i128..10_000, d in 1i128..10_000) {
            let x = Ratio::new(a, b).unwrap();
            let y = Ratio::new(c, d).unwrap();
            prop_assert_eq!(x.add(y).unwrap(), y.add(x).unwrap());
        }

        #[test]
        fn prop_mul_distributes(a in -100i128..100, b in 1i128..100,
                                c in -100i128..100, d in 1i128..100,
                                e in -100i128..100, f in 1i128..100) {
            let x = Ratio::new(a, b).unwrap();
            let y = Ratio::new(c, d).unwrap();
            let z = Ratio::new(e, f).unwrap();
            let lhs = x.mul(y.add(z).unwrap()).unwrap();
            let rhs = x.mul(y).unwrap().add(x.mul(z).unwrap()).unwrap();
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_roundtrip_div(a in -1000i128..1000, b in 1i128..1000,
                              c in 1i128..1000, d in 1i128..1000) {
            let x = Ratio::new(a, b).unwrap();
            let y = Ratio::new(c, d).unwrap();
            let z = x.div(y).unwrap().mul(y).unwrap();
            prop_assert_eq!(z, x);
        }

        #[test]
        fn prop_order_consistent_with_f64(a in -1000i128..1000, b in 1i128..1000,
                                          c in -1000i128..1000, d in 1i128..1000) {
            let x = Ratio::new(a, b).unwrap();
            let y = Ratio::new(c, d).unwrap();
            let exact = x.cmp(&y);
            let approx = x.to_f64().partial_cmp(&y.to_f64()).unwrap();
            // On small values f64 is exact enough to agree.
            if x != y {
                prop_assert_eq!(exact, approx);
            }
        }

        #[test]
        fn prop_always_lowest_terms(a in -10_000i128..10_000, b in 1i128..10_000) {
            let r = Ratio::new(a, b).unwrap();
            prop_assert!(r.denom() > 0);
            prop_assert_eq!(gcd(r.numer().unsigned_abs(), r.denom().unsigned_abs()), if r.numer() == 0 { r.denom().unsigned_abs() } else { 1 });
        }
    }
}
