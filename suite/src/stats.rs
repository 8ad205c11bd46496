//! Order statistics: the median, nearest-rank percentiles with the
//! "ten samples beyond" rule, and the quartile spread used to
//! characterise run-to-run noise.

/// Median of `xs` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the mass at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles a report may quote, highest first.
const TAIL_CANDIDATES: [f64; 4] = [0.95, 0.90, 0.75, 0.50];

/// A percentile is only quoted when at least this many samples lie
/// beyond it — fewer, and the figure is one slow request, not a tail.
const SAMPLES_BEYOND: f64 = 10.0;

/// The highest of 95/90/75/50 that `n` samples can support (≥ 10
/// samples beyond it), or `None` under 20 samples. 200 samples are the
/// least that carry a p95.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| n as f64 * (1.0 - p) >= SAMPLES_BEYOND - 1e-9)
}

/// Equal time slices a window is cut into for [`sliced_percentile`].
pub const SLICES: usize = 5;

/// A slice must hold this many samples for its percentile to count;
/// with fewer in any slice the window is treated as one.
const MIN_PER_SLICE: usize = 20;

/// The median over the window's [`SLICES`] time slices of each slice's
/// `p`-th percentile. `points` are `(seconds since the window opened,
/// value)`, `span` the window's length.
///
/// Disturbances from outside the program come in bursts of a second or
/// so. One burst puts a few dozen slow samples into a window — enough
/// to move the 95th percentile of a few hundred by a fifth — but it
/// spoils only the slice it falls in, and the median over the slices
/// does not notice one spoilt slice (or two). What the program itself
/// does slowly all the time is in every slice and stays in the median.
pub fn sliced_percentile(points: &[(f64, f64)], span: f64, p: f64) -> f64 {
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for &(at, value) in points {
        let k = ((at / span) * SLICES as f64) as usize;
        slices[k.min(SLICES - 1)].push(value);
    }
    if slices.iter().any(|s| s.len() < MIN_PER_SLICE) {
        let mut all: Vec<f64> = points.iter().map(|&(_, v)| v).collect();
        all.sort_by(f64::total_cmp);
        return percentile(&all, p);
    }
    let per_slice: Vec<f64> = slices
        .iter_mut()
        .map(|s| {
            s.sort_by(f64::total_cmp);
            percentile(s, p)
        })
        .collect();
    median(&per_slice).expect("SLICES > 0")
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the exclusive method) — the acceptance check for this benchmark is
/// written against that function, so the spread is measured the same
/// way here. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the noise figure
/// recorded per (metric, workload).
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 100.0);
        assert_eq!(percentile(&xs, 0.95), 190.0);
        assert_eq!(percentile(&xs, 1.0), 200.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p95 leaves 5% beyond: 200 samples are the first to leave ten.
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(199), Some(0.90));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(39), Some(0.50));
        assert_eq!(tail_percentile(20), Some(0.50));
        assert_eq!(tail_percentile(19), None);
        // And the picked percentile really has ≥ 10 samples above it.
        for n in [20usize, 57, 200, 1234] {
            let p = tail_percentile(n).unwrap();
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let cut = percentile(&xs, p);
            let beyond = xs.iter().filter(|&&x| x > cut).count();
            assert!(beyond >= 10, "n={n} p={p}: only {beyond} beyond");
        }
    }

    #[test]
    fn sliced_percentile_ignores_a_burst_but_not_a_steady_tail() {
        // 500 samples over 10 s: value 10, every 20th sample 30 (a tail
        // the program always has: 5 % of every slice).
        let steady: Vec<(f64, f64)> = (0..500)
            .map(|i| (i as f64 / 50.0, if i % 20 == 19 { 30.0 } else { 10.0 }))
            .collect();
        assert_eq!(sliced_percentile(&steady, 10.0, 0.50), 10.0);
        assert_eq!(sliced_percentile(&steady, 10.0, 0.96), 30.0);
        // The same with a one-second burst (samples 200..250 take 50).
        let burst: Vec<(f64, f64)> = steady
            .iter()
            .enumerate()
            .map(|(i, &(at, v))| (at, if (200..250).contains(&i) { 50.0 } else { v }))
            .collect();
        let mut all: Vec<f64> = burst.iter().map(|p| p.1).collect();
        all.sort_by(f64::total_cmp);
        assert_eq!(percentile(&all, 0.95), 50.0, "the plain p95 is the burst");
        assert_eq!(sliced_percentile(&burst, 10.0, 0.95), 10.0);
        assert_eq!(sliced_percentile(&burst, 10.0, 0.96), 30.0);
        // Too few samples in a slice: the window is taken whole.
        let few: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 / 5.0, i as f64)).collect();
        assert_eq!(sliced_percentile(&few, 10.0, 0.50), 24.0);
        // A sample that ends at (or just past) the close lands in the
        // last slice.
        let edge = [(10.0, 1.0), (10.2, 2.0)];
        assert_eq!(sliced_percentile(&edge, 10.0, 1.0), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            [15.0, 40.0, 120.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((quartile_spread(&xs) - 1.0).abs() < 1e-12);
    }
}
