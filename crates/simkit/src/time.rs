//! Simulated time: a nanosecond-resolution monotonic clock value.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in nanoseconds.
///
/// The simulation uses a single scalar type for both instants and
/// durations: every simulation starts at `Nanos(0)` and arithmetic is
/// saturating-free (overflow panics in debug builds), which is fine
/// because `u64` nanoseconds cover ~584 years of simulated time.
///
/// # Examples
///
/// ```
/// use simkit::Nanos;
///
/// let t = Nanos::from_micros(1) + Nanos(500);
/// assert_eq!(t, Nanos(1_500));
/// assert_eq!(t.as_micros_f64(), 1.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Zero time; the epoch of every simulation.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable time; used as "run to completion".
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time value from whole microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Creates a time value from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Creates a time value from whole seconds.
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a time value from fractional seconds, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Nanos {
        assert!(s.is_finite() && s >= 0.0, "invalid seconds value: {s}");
        Nanos((s * 1e9).round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the value in microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; returns [`Nanos::ZERO`] instead of
    /// underflowing.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// Returns the larger of two times.
    pub fn max(self, rhs: Nanos) -> Nanos {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Returns the smaller of two times.
    pub fn min(self, rhs: Nanos) -> Nanos {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Computes the time to transfer `bytes` at `gbytes_per_sec` GB/s,
/// rounding up to the next nanosecond so zero-cost transfers are
/// impossible for nonzero sizes.
///
/// # Panics
///
/// Panics if `gbytes_per_sec` is not strictly positive.
pub fn transfer_time(bytes: u64, gbytes_per_sec: f64) -> Nanos {
    assert!(
        gbytes_per_sec > 0.0,
        "bandwidth must be positive, got {gbytes_per_sec}"
    );
    if bytes == 0 {
        return Nanos::ZERO;
    }
    // 1 GB/s == 1 byte/ns, so ns = bytes / GBps, rounded up. The
    // truncating cast is the floor of a nonnegative quotient, so adding
    // one where it fell short is `ceil` bit for bit, without the libm
    // call `f64::ceil` compiles to on baseline x86-64. Both saturate
    // past `u64::MAX`.
    let ns = bytes as f64 / gbytes_per_sec;
    let floor = ns as u64;
    Nanos(if (floor as f64) < ns {
        floor.saturating_add(1)
    } else {
        floor
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Nanos::from_micros(3), Nanos(3_000));
        assert_eq!(Nanos::from_millis(3), Nanos(3_000_000));
        assert_eq!(Nanos::from_secs(3), Nanos(3_000_000_000));
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos(1_500_000_000));
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Nanos(100);
        let b = Nanos(30);
        assert_eq!(a + b, Nanos(130));
        assert_eq!(a - b, Nanos(70));
        assert_eq!(a * 3, Nanos(300));
        assert_eq!(a / 4, Nanos(25));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos(999)), "999ns");
        assert_eq!(format!("{}", Nanos(1_500)), "1.500us");
        assert_eq!(format!("{}", Nanos(2_500_000)), "2.500ms");
        assert_eq!(format!("{}", Nanos(1_200_000_000)), "1.200s");
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 64 bytes at 30 GB/s is 2.13 ns -> 3 ns.
        assert_eq!(transfer_time(64, 30.0), Nanos(3));
        assert_eq!(transfer_time(0, 30.0), Nanos::ZERO);
        // 1 GiB at 1 GB/s is just over one second.
        assert_eq!(transfer_time(1 << 30, 1.0), Nanos(1 << 30));
    }

    #[test]
    fn transfer_time_is_f64_ceil() {
        let sizes = (0..=4096u64)
            .chain((0..64).map(|i| 1u64 << i))
            .chain([u64::MAX, (1 << 53) + 1]);
        for g in [0.1, 0.3, 1.0, 1.875, 7.5, 12.5, 30.0, 33.3, 120.0, 1e-300] {
            for bytes in sizes.clone() {
                let want = Nanos((bytes as f64 / g).ceil() as u64);
                assert_eq!(transfer_time(bytes, g), want, "{bytes} B at {g} GB/s");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn transfer_time_rejects_zero_bandwidth() {
        let _ = transfer_time(1, 0.0);
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert_eq!(Nanos::MAX.checked_add(Nanos(1)), None);
        assert_eq!(Nanos(1).checked_add(Nanos(2)), Some(Nanos(3)));
    }
}
