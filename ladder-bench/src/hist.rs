//! Latency histogram with sub-1% relative resolution.
//!
//! Values below 256 are counted exactly; above that each power of two
//! is split into 128 equal buckets, so a bucket is at most 1/128
//! (0.78%) of its lower bound wide and a percentile reported at the
//! bucket midpoint is within 0.4% of the recorded sample.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (2 * SUB + (63 - SUB_BITS as u64) * SUB) as usize;

/// Percentiles beyond which fewer than this many samples lie are not
/// reported: they would not be a tail.
pub const MIN_TAIL: u64 = 10;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist { counts: vec![0; BUCKETS], n: 0 }
    }

    fn index(v: u64) -> usize {
        if v < 2 * SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros() as u64;
        let top = v >> (e - SUB_BITS as u64);
        (2 * SUB + (e - SUB_BITS as u64 - 1) * SUB + (top - SUB)) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < 2 * SUB {
            return (i as f64, 1.0);
        }
        let k = i - 2 * SUB;
        let shift = k / SUB + 1;
        (((SUB + k % SUB) << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Hist::index(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile (0 < q < 1), or `None` when fewer than
    /// [`MIN_TAIL`] samples lie beyond it (or, for the median, when the
    /// histogram is empty).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let beyond = ((1.0 - q) * self.n as f64).floor() as u64;
        if q > 0.5 && beyond < MIN_TAIL {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                // Spread the bucket's samples evenly over its width.
                let (lo, width) = Hist::bounds(i);
                return Some(lo + width * ((rank - seen) as f64 - 0.5) / c as f64);
            }
            seen += c;
        }
        None
    }
}

/// Per-class histograms over consecutive windows of a run. A run's
/// figure is the median over its whole windows of each window's figure,
/// so a stall in one window moves it less than it moves a percentile
/// taken over the whole run.
#[derive(Clone)]
pub struct Windows {
    width_ns: u64,
    /// Whole windows the run is measured over; later samples are kept
    /// out of the figures.
    whole: usize,
    wins: Vec<[Hist; 4]>,
}

impl Windows {
    /// Windows of `width_secs` over a run of `run_secs`; a run shorter
    /// than one window is one window.
    pub fn new(width_secs: f64, run_secs: f64) -> Windows {
        let width_secs = if run_secs > 0.0 { width_secs.min(run_secs) } else { width_secs };
        let whole = ((run_secs / width_secs).floor() as usize).max(1);
        Windows { width_ns: (width_secs * 1e9) as u64, whole, wins: Vec::new() }
    }

    /// Record `v` for `class` at `at_ns` after the run started.
    pub fn record(&mut self, class: usize, at_ns: u64, v: u64) {
        let w = (at_ns / self.width_ns) as usize;
        if w >= self.wins.len() {
            self.wins.resize_with(w + 1, Default::default);
        }
        self.wins[w][class].record(v);
    }

    pub fn merge(&mut self, other: &Windows) {
        if other.wins.len() > self.wins.len() {
            self.wins.resize_with(other.wins.len(), Default::default);
        }
        for (a, b) in self.wins.iter_mut().zip(&other.wins) {
            for (x, y) in a.iter_mut().zip(b) {
                x.merge(y);
            }
        }
    }

    fn measured(&self) -> &[[Hist; 4]] {
        &self.wins[..self.wins.len().min(self.whole)]
    }

    /// Every sample of `class` in the measured windows.
    pub fn total(&self, class: usize) -> Hist {
        let mut h = Hist::new();
        for w in self.measured() {
            h.merge(&w[class]);
        }
        h
    }

    /// Median over the measured windows of the `q`-quantile of `class`;
    /// windows too thin for that quantile are skipped. Also returns how
    /// many windows counted.
    pub fn quantile(&self, class: usize, q: f64) -> Option<(f64, usize)> {
        let mut xs: Vec<f64> =
            self.measured().iter().filter_map(|w| w[class].quantile(q)).collect();
        (!xs.is_empty()).then(|| (median(&mut xs), xs.len()))
    }

    /// Median over the measured windows of samples per second.
    pub fn rate(&self) -> f64 {
        let mut xs: Vec<f64> = self
            .measured()
            .iter()
            .map(|w| w.iter().map(Hist::count).sum::<u64>() as f64 * 1e9 / self.width_ns as f64)
            .collect();
        median(&mut xs)
    }
}

pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_stay_within_one_percent() {
        for v in
            [0u64, 1, 255, 256, 257, 511, 512, 1000, 31_700, 34_800, 1 << 40, (1 << 50) + 12_345]
        {
            let (lo, width) = Hist::bounds(Hist::index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "v={v} lo={lo} width={width}");
            assert!(width <= 1.0 || width / lo <= 0.01, "v={v} width={width}");
        }
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let mut h = Hist::new();
        for v in 1..=999 {
            h.record(v);
        }
        assert!(h.quantile(0.99).is_none());
        h.record(1000);
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 990.0).abs() / 990.0 < 0.01, "{p99}");
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.01, "{p50}");
    }
}
