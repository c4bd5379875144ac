//! Histograms and simple terminal plots for the figure-reproduction binaries.

/// A fixed-range histogram with uniform bins.
///
/// # Examples
///
/// ```
/// use nsigma_stats::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for x in [1.0, 1.5, 7.0, 9.9, 100.0] {
///     h.push(x);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `nbins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `nbins == 0`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(nbins > 0, "histogram needs at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Builds a histogram spanning the sample range.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains NaN.
    pub fn from_samples(samples: &[f64], nbins: usize) -> Self {
        assert!(!samples.is_empty(), "histogram of empty sample");
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo.is_finite() && hi.is_finite(), "NaN in samples");
        let hi = if hi > lo { hi } else { lo + 1.0 };
        let mut h = Self::new(lo, hi + (hi - lo) * 1e-9, nbins);
        for &x in samples {
            h.push(x);
        }
        h
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations including under/overflow.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Bin centers.
    pub fn centers(&self) -> Vec<f64> {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (0..self.bins.len())
            .map(|i| self.lo + (i as f64 + 0.5) * w)
            .collect()
    }

    /// Bin width.
    fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// Normalized density per bin (integrates to ~1 over the range).
    pub fn density(&self) -> Vec<f64> {
        let n = self.count().max(1) as f64;
        let w = self.bin_width();
        self.bins.iter().map(|&c| c as f64 / (n * w)).collect()
    }

    /// Renders a compact ASCII bar chart, one bin per line, for the figure
    /// binaries' terminal output.
    pub fn to_ascii(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        let centers = self.centers();
        for (c, &count) in centers.iter().zip(&self.bins) {
            let bar = (count as f64 / max as f64 * width as f64).round() as usize;
            out.push_str(&format!("{c:>12.4} | {}\n", "#".repeat(bar)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        assert!(h.bins().iter().all(|&c| c == 1));
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_overflow_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(-1.0);
        h.push(2.0);
        h.push(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn density_integrates_to_one() {
        let samples: Vec<f64> = (0..1000).map(|i| (i % 97) as f64 * 0.1).collect();
        let h = Histogram::from_samples(&samples, 20);
        let integral: f64 = h.density().iter().sum::<f64>() * h.bin_width();
        assert!((integral - 1.0).abs() < 1e-9, "integral={integral}");
    }

    #[test]
    fn from_samples_covers_all_points() {
        let samples = [3.0, 4.0, 5.0, 6.0];
        let h = Histogram::from_samples(&samples, 4);
        assert_eq!(h.count(), 4);
        assert_eq!(h.underflow() + h.overflow(), 0);
    }

    #[test]
    fn ascii_render_nonempty() {
        let h = Histogram::from_samples(&[1.0, 2.0, 2.0, 3.0], 3);
        let s = h.to_ascii(10);
        assert!(s.lines().count() == 3);
        assert!(s.contains('#'));
    }
}
