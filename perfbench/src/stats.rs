//! Pure summary statistics over measured samples: medians, the tail
//! percentile, failure accounting, and the share of op wall time that
//! no layer span accounts for.

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The reported tail of a latency distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// Latency at the tail percentile.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples strictly beyond the tail percentile.
    pub beyond: usize,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The highest order statistic that still has at least `beyond`
/// samples above it. With `beyond` or fewer samples no percentile
/// qualifies; the maximum is returned with the shortfall visible in
/// [`Tail::beyond`].
pub fn tail(xs: &[f64], beyond: usize) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let idx = if n > beyond { n - 1 - beyond } else { n - 1 };
    Some(Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
        samples: n,
    })
}

/// Op accounting: every attempted op is ok or failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops started.
    pub attempted: u64,
    /// Ops that errored, hung past the watchdog, produced a wrong
    /// result, or fell back from the requested kernel backend.
    pub failed: u64,
}

impl Tally {
    /// Count one op.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `failed / attempted`; 0 when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `1 - failed_frac` — the form the ledger gates on, since a
    /// metric that is 0 on a healthy run has no relative spread.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed_frac()
    }
}

/// A closed interval on one track, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Track (thread / caller) the interval ran on.
    pub tid: usize,
    /// Start offset.
    pub start: u64,
    /// Duration.
    pub dur: u64,
}

impl Interval {
    fn end(&self) -> u64 {
        self.start + self.dur
    }

    /// Whether `other` lies inside this interval on the same track.
    pub fn contains(&self, other: &Interval) -> bool {
        self.tid == other.tid && other.start >= self.start && other.end() <= self.end()
    }
}

/// Time of `layers` spans nested inside `ops` (same track, inside the
/// op's interval), summed as recorded: overlapping layer spans inside
/// one op are counted twice, so double counting shows up as a negative
/// residual rather than being hidden. Layer spans outside every op are
/// ignored.
pub fn nested_ns(ops: &[Interval], layers: &[Interval]) -> u64 {
    ops.iter()
        .map(|o| {
            layers
                .iter()
                .filter(|l| o.contains(l))
                .map(|l| l.dur)
                .sum::<u64>()
        })
        .sum()
}

/// Share of `total_ns` of op wall time that `covered_ns` of layer time
/// leaves unexplained; 0 with no op time.
pub fn residual_frac(total_ns: u64, covered_ns: u64) -> f64 {
    if total_ns == 0 {
        0.0
    } else {
        (total_ns as f64 - covered_ns as f64) / total_ns as f64
    }
}

/// Share of the ops' total wall time not covered by the layer spans
/// nested inside them (see [`nested_ns`]).
pub fn unaccounted_frac(ops: &[Interval], layers: &[Interval]) -> f64 {
    let total: u64 = ops.iter().map(|o| o.dur).sum();
    residual_frac(total, nested_ns(ops, layers))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(tid: usize, start: u64, dur: u64) -> Interval {
        Interval { tid, start, dur }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, TAIL_BEYOND).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);

        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs, TAIL_BEYOND).unwrap();
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));
    }

    #[test]
    fn tail_of_small_samples_falls_toward_the_median() {
        // 21 samples: the 11th (the median) is the highest with 10 beyond.
        let xs: Vec<f64> = (0..21).map(f64::from).collect();
        let t = tail(&xs, TAIL_BEYOND).unwrap();
        assert_eq!((t.value, t.beyond), (10.0, 10));
        assert_eq!(Some(t.value), median(&xs));
    }

    #[test]
    fn tail_of_too_few_samples_is_the_max_with_the_shortfall_shown() {
        let t = tail(&[5.0, 1.0, 3.0], TAIL_BEYOND).unwrap();
        assert_eq!(
            (t.value, t.percentile, t.beyond, t.samples),
            (5.0, 100.0, 0, 3)
        );
        assert_eq!(tail(&[], TAIL_BEYOND), None);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        assert_eq!(t.ok_frac(), 0.75);
    }

    #[test]
    fn unaccounted_is_op_time_outside_nested_layers() {
        let ops = [iv(0, 0, 100), iv(1, 0, 100)];
        let layers = [
            iv(0, 10, 50),  // inside op 0
            iv(0, 60, 30),  // inside op 0
            iv(1, 0, 80),   // inside op 1
            iv(0, 150, 40), // outside every op: ignored
            iv(2, 10, 10),  // other track: ignored
        ];
        // covered = 80 + 80 of 200.
        let f = unaccounted_frac(&ops, &layers);
        assert!((f - 0.2).abs() < 1e-12, "{f}");
    }

    #[test]
    fn unaccounted_flags_double_counting_and_empty_ops() {
        assert_eq!(unaccounted_frac(&[], &[iv(0, 0, 5)]), 0.0);
        let f = unaccounted_frac(&[iv(0, 0, 10)], &[iv(0, 0, 10), iv(0, 2, 5)]);
        assert!(f < 0.0, "overlap must show as a negative residual: {f}");
        let f = unaccounted_frac(&[iv(0, 0, 10)], &[]);
        assert_eq!(f, 1.0);
    }
}
