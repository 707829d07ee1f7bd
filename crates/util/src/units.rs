//! Byte-size, bandwidth and time units used throughout the cost model.
//!
//! The cluster simulator mixes quantities measured in bytes, GB/s and
//! seconds; newtypes keep the arithmetic honest (dividing a `ByteSize` by a
//! `Bandwidth` yields `Secs`, and nothing else compiles).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A size in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    pub const fn bytes(n: u64) -> Self {
        Self(n)
    }
    pub const fn kib(n: u64) -> Self {
        Self(n * 1024)
    }
    pub const fn mib(n: u64) -> Self {
        Self(n * 1024 * 1024)
    }
    pub const fn gib(n: u64) -> Self {
        Self(n * 1024 * 1024 * 1024)
    }
    /// Size of `n` f32 values.
    pub const fn f32s(n: u64) -> Self {
        Self(n * 4)
    }
    pub fn as_u64(self) -> u64 {
        self.0
    }
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
    /// Scale by a dimensionless factor (e.g. a compression ratio).
    pub fn scale(self, k: f64) -> Self {
        Self((self.0 as f64 * k).round() as u64)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}
impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}
impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}
impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1e9 {
            write!(f, "{:.2} GB", b / 1e9)
        } else if b >= 1e6 {
            write!(f, "{:.1} MB", b / 1e6)
        } else if b >= 1e3 {
            write!(f, "{:.1} KB", b / 1e3)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// Bandwidth in bytes per second.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// From gigabytes (1e9 bytes) per second.
    pub fn gbps_bytes(gb: f64) -> Self {
        Self(gb * 1e9)
    }
    /// From gigaBITs per second (network convention, e.g. "25Gbps").
    pub fn gbits(g: f64) -> Self {
        Self(g * 1e9 / 8.0)
    }
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }
}

impl Div<Bandwidth> for ByteSize {
    type Output = Secs;
    /// Transfer time for this many bytes at the given bandwidth.
    fn div(self, bw: Bandwidth) -> Secs {
        assert!(bw.0 > 0.0, "zero bandwidth");
        Secs(self.0 as f64 / bw.0)
    }
}

/// A duration in seconds (f64, for simulated time).
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd, Default)]
pub struct Secs(pub f64);

impl Secs {
    pub const ZERO: Secs = Secs(0.0);
    pub fn ms(v: f64) -> Self {
        Self(v / 1e3)
    }
    pub fn us(v: f64) -> Self {
        Self(v / 1e6)
    }
    pub fn hours(v: f64) -> Self {
        Self(v * 3600.0)
    }
    pub fn as_f64(self) -> f64 {
        self.0
    }
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }
    pub fn max(self, o: Secs) -> Secs {
        Secs(self.0.max(o.0))
    }
    pub fn min(self, o: Secs) -> Secs {
        Secs(self.0.min(o.0))
    }
    /// `max(0, self - o)`: the non-overlapped remainder of an operation.
    pub fn saturating_sub(self, o: Secs) -> Secs {
        Secs((self.0 - o.0).max(0.0))
    }
}

impl Add for Secs {
    type Output = Secs;
    fn add(self, rhs: Self) -> Self {
        Secs(self.0 + rhs.0)
    }
}
impl AddAssign for Secs {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}
impl Sub for Secs {
    type Output = Secs;
    fn sub(self, rhs: Self) -> Self {
        Secs(self.0 - rhs.0)
    }
}
impl Mul<f64> for Secs {
    type Output = Secs;
    fn mul(self, rhs: f64) -> Self {
        Secs(self.0 * rhs)
    }
}

impl fmt::Display for Secs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 3600.0 {
            write!(f, "{:.3} h", s / 3600.0)
        } else if s >= 1.0 {
            write!(f, "{:.3} s", s)
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else {
            write!(f, "{:.1} us", s * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_constructors() {
        assert_eq!(ByteSize::kib(2).as_u64(), 2048);
        assert_eq!(ByteSize::mib(1).as_u64(), 1 << 20);
        assert_eq!(ByteSize::gib(1).as_u64(), 1 << 30);
        assert_eq!(ByteSize::f32s(10).as_u64(), 40);
    }

    #[test]
    fn transfer_time() {
        // 1 GB over 1 GB/s = 1 second.
        let t = ByteSize::bytes(1_000_000_000) / Bandwidth::gbps_bytes(1.0);
        assert!((t.as_f64() - 1.0).abs() < 1e-12);
        // 25 Gbit/s = 3.125 GB/s.
        let t = ByteSize::bytes(3_125_000_000) / Bandwidth::gbits(25.0);
        assert!((t.as_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn secs_arithmetic() {
        let a = Secs(2.0) + Secs::ms(500.0);
        assert!((a.as_f64() - 2.5).abs() < 1e-12);
        assert_eq!(Secs(1.0).saturating_sub(Secs(3.0)).as_f64(), 0.0);
        assert!((Secs::hours(2.0).as_f64() - 7200.0).abs() < 1e-9);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(ByteSize::bytes(100).scale(0.01).as_u64(), 1);
        assert_eq!(ByteSize::bytes(1000).scale(0.333).as_u64(), 333);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", ByteSize::bytes(1_500_000_000)), "1.50 GB");
        assert_eq!(format!("{}", Secs(0.002)), "2.000 ms");
    }
}
