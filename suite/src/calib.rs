//! Machine-speed calibration: timing a fixed kernel throughout a run,
//! so that times can be reported at one reference speed.
//!
//! The sandbox this benchmark was written on alternates, every few
//! seconds to a minute, between two CPU speeds about 1.25× apart (a
//! pure-Python loop shows it as clearly as the engine does; `steal` is
//! 0). A 20 s window lands in either or across both, so raw wall-clock
//! figures of one commit differ by up to a quarter from run to run —
//! more than any bound worth gating on. The fix is the usual one for a
//! clock that drifts: measure it. A small kernel — a dependent integer
//! chain, then formatting and hashing short strings, the render path's
//! mix — is timed every [`INTERVAL`], and every measured duration is
//! divided by `kernel time / REFERENCE_US`. The kernel's code never
//! changes with the engine and its working set fits the L1 cache (it
//! is re-run until warm), so neither a commit's code nor the cache
//! state an operation leaves behind can move the factor.
//!
//! The reported `ms` are therefore "ms at reference speed": equal to
//! wall-clock ms while the kernel takes [`REFERENCE_US`] (this sandbox
//! at its faster speed), proportionally rescaled otherwise. Raw
//! figures are printed beside them.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel time that defines speed 1.0, in µs: what the kernel takes on
/// the sandbox at its faster speed. A constant, not a per-run minimum —
/// a run that never sees the faster speed must still land on the same
/// scale as one that does.
pub const REFERENCE_US: f64 = 31.8;

/// How often a closed loop re-times the kernel. The speed changes on a
/// scale of seconds; 20 ms keeps the overhead under 1 %.
pub const INTERVAL: Duration = Duration::from_millis(20);

/// The calibration kernel and its working set (one per thread).
pub struct Calibrator {
    words: Vec<String>,
    line: String,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            words: (0..600).map(|i| format!("w{i}")).collect(),
            line: String::new(),
        }
    }

    fn kernel(&mut self) -> u64 {
        // A dependent integer chain: pure core speed.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..12_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        // Formatting and hashing short strings: the render path's mix.
        for (n, w) in self.words.iter().enumerate() {
            self.line.clear();
            let _ = write!(self.line, "{w}\t{}", n * 7919);
            for b in self.line.bytes() {
                acc = (acc.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
        }
        black_box(acc)
    }

    /// The current slowdown relative to the reference speed (1.0 = the
    /// reference; 1.25 = everything takes a quarter longer). One
    /// unrecorded run to pull the kernel into the cache, then the best
    /// of three, so that neither a cold cache nor a preemption or an
    /// interrupt inside one of them reads as a slow machine.
    pub fn factor(&mut self) -> f64 {
        self.kernel();
        let best = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                self.kernel();
                t0.elapsed()
            })
            .min()
            .expect("three runs");
        best.as_secs_f64() * 1e6 / REFERENCE_US
    }
}

/// The factor in force at each moment of a loop: re-measured when
/// [`INTERVAL`] has passed. Callers ask for it between the durations
/// they measure, so a reading's own time is in none of them.
///
/// The factor used is the median of the last three readings. The
/// machine's speed moves in steps that last seconds, while a single
/// reading now and then catches a disturbance of a few milliseconds
/// and reads a third too high; the median drops such a reading and
/// follows a real step one reading late.
pub struct Speed {
    calibrator: Calibrator,
    recent: [f64; 3],
    measured_at: Instant,
    /// Every factor put in force (the filtered ones), for the record.
    pub factors: Vec<f64>,
}

fn median3(xs: [f64; 3]) -> f64 {
    let [a, b, c] = xs;
    a.max(b).min(a.min(b).max(c))
}

impl Speed {
    pub fn start() -> Speed {
        let mut calibrator = Calibrator::new();
        // The first call also faults the working set in; discard it.
        calibrator.factor();
        let first = calibrator.factor();
        Speed {
            calibrator,
            recent: [first; 3],
            measured_at: Instant::now(),
            factors: vec![first],
        }
    }

    /// The factor to divide a duration that ended just now by;
    /// re-measures first if the last measurement is older than
    /// [`INTERVAL`].
    pub fn now(&mut self) -> f64 {
        if self.measured_at.elapsed() >= INTERVAL {
            self.recent.rotate_left(1);
            self.recent[2] = self.calibrator.factor();
            self.measured_at = Instant::now();
            self.factors.push(median3(self.recent));
        }
        median3(self.recent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_positive_and_repeats_within_the_two_speeds() {
        let mut c = Calibrator::new();
        c.factor();
        let xs: Vec<f64> = (0..20).map(|_| c.factor()).collect();
        let lo = xs.iter().copied().fold(f64::MAX, f64::min);
        let hi = xs.iter().copied().fold(0.0, f64::max);
        assert!(
            lo > 0.05,
            "kernel cannot be 20x faster than the reference: {lo}"
        );
        // Back-to-back readings differ by the machine's two speeds at
        // most (plus noise), never by multiples.
        assert!(hi / lo < 2.0, "factor jumped from {lo} to {hi}");
    }

    #[test]
    fn median_of_three_drops_one_outlier_and_follows_a_step() {
        assert_eq!(median3([1.2, 1.5, 1.2]), 1.2);
        assert_eq!(median3([1.5, 1.2, 1.2]), 1.2);
        assert_eq!(median3([1.2, 1.2, 1.0]), 1.2);
        assert_eq!(median3([1.2, 1.0, 1.0]), 1.0);
        assert_eq!(median3([3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn speed_remeasures_only_after_the_interval() {
        let mut s = Speed::start();
        let first = s.factors.len();
        s.now();
        assert_eq!(s.factors.len(), first, "too early to re-measure");
        std::thread::sleep(INTERVAL);
        s.now();
        assert_eq!(s.factors.len(), first + 1);
    }
}
