//! Byte-size units and a small helper type for pretty-printing and
//! parsing data sizes, used throughout experiment configuration.

use std::fmt;
use std::str::FromStr;

/// One kibibyte (2^10 bytes).
pub(crate) const KIB: u64 = 1 << 10;
/// One mebibyte (2^20 bytes).
pub(crate) const MIB: u64 = 1 << 20;
/// One gibibyte (2^30 bytes).
pub(crate) const GIB: u64 = 1 << 30;

/// A size in bytes with human-friendly constructors, formatting and
/// parsing (`"16GiB"`, `"1.5 MB"`, `"4096"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// From raw bytes.
    #[inline]
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// From kibibytes.
    #[inline]
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * KIB)
    }

    /// From mebibytes.
    #[inline]
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * MIB)
    }

    /// From gibibytes.
    #[inline]
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * GIB)
    }

    /// From fractional gibibytes (rounded to the nearest byte).
    #[inline]
    pub fn gib_f(n: f64) -> Self {
        debug_assert!(n >= 0.0);
        ByteSize((n * GIB as f64).round() as u64)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Size in (fractional) GiB.
    #[inline]
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / GIB as f64
    }

    /// Size in (fractional) MiB.
    #[inline]
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / MIB as f64
    }

    /// Number of pages of `page` bytes needed to hold this size
    /// (rounded up).
    #[inline]
    pub fn pages(self, page: u64) -> u64 {
        self.0.div_ceil(page)
    }
}

impl std::ops::Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_add(rhs.0).expect("ByteSize overflow"))
    }
}

impl std::ops::Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_sub(rhs.0).expect("ByteSize underflow"))
    }
}

impl std::ops::Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0.checked_mul(rhs).expect("ByteSize overflow"))
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GIB && b.is_multiple_of(GIB) {
            return write!(f, "{}GiB", b / GIB);
        }
        if b >= GIB {
            write!(f, "{:.2}GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2}MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2}KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// Error returned by [`ByteSize::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseByteSizeError(String);

impl fmt::Display for ParseByteSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid byte size: {:?}", self.0)
    }
}

impl std::error::Error for ParseByteSizeError {}

impl FromStr for ByteSize {
    type Err = ParseByteSizeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        let split = t
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(t.len());
        let (num, unit) = t.split_at(split);
        let value: f64 = num.parse().map_err(|_| ParseByteSizeError(s.to_string()))?;
        let unit = unit.trim().to_ascii_lowercase();
        let mult = match unit.as_str() {
            "" | "b" => 1.0,
            "k" | "kb" | "kib" => KIB as f64,
            "m" | "mb" | "mib" => MIB as f64,
            "g" | "gb" | "gib" => GIB as f64,
            "t" | "tb" | "tib" => (1u64 << 40) as f64,
            _ => return Err(ParseByteSizeError(s.to_string())),
        };
        Ok(ByteSize((value * mult).round() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(ByteSize::kib(1).as_u64(), 1024);
        assert_eq!(ByteSize::mib(2).as_u64(), 2 * MIB);
        assert_eq!(ByteSize::gib(16).as_gib(), 16.0);
        assert_eq!(ByteSize::gib_f(0.5).as_u64(), GIB / 2);
    }

    #[test]
    fn page_counts_round_up() {
        assert_eq!(ByteSize::bytes(4097).pages(4096), 2);
    }

    #[test]
    fn parse_accepts_common_forms() {
        assert_eq!("16GiB".parse::<ByteSize>().unwrap(), ByteSize::gib(16));
        assert_eq!("1.5 MB".parse::<ByteSize>().unwrap().as_u64(), 3 * MIB / 2);
        assert_eq!("4096".parse::<ByteSize>().unwrap().as_u64(), 4096);
        assert_eq!("2k".parse::<ByteSize>().unwrap().as_u64(), 2048);
        assert!("12 parsecs".parse::<ByteSize>().is_err());
        assert!("GiB".parse::<ByteSize>().is_err());
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteSize::gib(16).to_string(), "16GiB");
        assert_eq!(ByteSize::mib(3).to_string(), "3.00MiB");
        assert_eq!(ByteSize::bytes(100).to_string(), "100B");
    }

    #[test]
    fn arithmetic() {
        let a = ByteSize::mib(1) + ByteSize::mib(1);
        assert_eq!(a, ByteSize::mib(2));
        assert_eq!(a - ByteSize::mib(1), ByteSize::mib(1));
        assert_eq!(ByteSize::kib(1) * 4, ByteSize::kib(4));
    }
}
