//! Wrapping 32-bit sequence-number arithmetic (RFC 793 §3.3).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A TCP sequence number with modular comparison.
///
/// Ordering uses the signed difference, so comparisons are correct across
/// the 2³² wrap as long as the live window stays under 2³¹ bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(pub u32);

impl SeqNum {
    /// `self < other` in modular order.
    pub fn lt(self, other: SeqNum) -> bool {
        (other.0.wrapping_sub(self.0) as i32) > 0
    }

    /// `self <= other` in modular order.
    pub fn le(self, other: SeqNum) -> bool {
        self == other || self.lt(other)
    }

    /// `self > other` in modular order.
    pub fn gt(self, other: SeqNum) -> bool {
        other.lt(self)
    }

    /// `self >= other` in modular order.
    pub fn ge(self, other: SeqNum) -> bool {
        other.le(self)
    }

    /// Bytes from `earlier` to `self` (modular).
    pub fn since(self, earlier: SeqNum) -> u32 {
        self.0.wrapping_sub(earlier.0)
    }
}

impl Add<u32> for SeqNum {
    type Output = SeqNum;

    fn add(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(rhs))
    }
}

impl AddAssign<u32> for SeqNum {
    fn add_assign(&mut self, rhs: u32) {
        self.0 = self.0.wrapping_add(rhs);
    }
}

impl Sub<u32> for SeqNum {
    type Output = SeqNum;

    fn sub(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_sub(rhs))
    }
}

impl fmt::Debug for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_without_wrap() {
        let a = SeqNum(100);
        let b = SeqNum(200);
        assert!(a.lt(b));
        assert!(a.le(b));
        assert!(b.gt(a));
        assert!(b.ge(a));
        assert!(a.le(a));
        assert!(a.ge(a));
        assert!(!a.lt(a));
    }

    #[test]
    fn ordering_across_wrap() {
        let near_max = SeqNum(u32::MAX - 10);
        let wrapped = SeqNum(5);
        assert!(near_max.lt(wrapped), "wrapped value is 'after'");
        assert!(wrapped.gt(near_max));
        assert_eq!(wrapped.since(near_max), 16);
    }

    #[test]
    fn arithmetic_wraps() {
        let s = SeqNum(u32::MAX) + 2;
        assert_eq!(s, SeqNum(1));
        assert_eq!(s - 2, SeqNum(u32::MAX));
        let mut t = SeqNum(u32::MAX);
        t += 1;
        assert_eq!(t, SeqNum(0));
    }

    #[test]
    fn since_measures_distance() {
        assert_eq!(SeqNum(150).since(SeqNum(100)), 50);
        assert_eq!(SeqNum(100).since(SeqNum(100)), 0);
    }
}
