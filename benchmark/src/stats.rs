//! Order statistics and output fingerprints.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread this benchmark prints is the
//! spread anyone comparing runs with that function sees.

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, as `statistics.quantiles(xs, n=4)` gives
/// them. A single sample is its own quartiles; none gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    match ld {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        _ => {
            let at = |i: usize| {
                let m = ld + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// Interquartile range: third quartile minus first.
pub fn iqr(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    q3 - q1
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`, with the number of
/// samples that lie beyond the chosen rank.
pub fn nearest_rank(xs: &[f64], p: f64) -> Option<(f64, usize)> {
    let s = sorted(xs);
    if s.is_empty() {
        return None;
    }
    let n = s.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some((s[rank - 1], n - rank))
}

/// The highest of p99.9, p99 and p90 that has at least ten samples beyond
/// it, as `(p, value)`; `None` when even p90 lacks them.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find_map(|p| match nearest_rank(xs, p) {
            Some((v, beyond)) if beyond >= 10 => Some((p, v)),
            _ => None,
        })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median, spread and sample count of one timing, for printing.
pub fn summary(xs: &[f64]) -> String {
    let mut out = format!(
        "median {:.4}, IQR {:.4}, n {}",
        median(xs),
        iqr(xs),
        xs.len()
    );
    if let Some((p, v)) = tail(xs) {
        out.push_str(&format!(", p{p} {v:.4}"));
    }
    out
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never entered).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a, 64-bit: the fingerprint of a workload's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a little-endian `u64` in.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(iqr(&xs), 5.5);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0]), (1.0, 9.0));
        assert_eq!(iqr(&[7.0]), 0.0);
    }

    #[test]
    fn nearest_rank_p99_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 99.0), Some((99.0, 1)));
        assert_eq!(nearest_rank(&xs, 50.0), Some((50.0, 50)));
        // 100 samples: p99 has one beyond, p90 has ten.
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        // 1000 samples: p99 (rank 990) has exactly ten beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        // 20 samples: p90 (rank 18) has only two beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
