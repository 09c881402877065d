//! Sample summaries: medians and the reported tail percentile.

/// Nearest rank (1-based) of quantile `q` among `n` samples; the small
/// slack keeps `0.999 * 20000` from rounding up past 19,980.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Value at quantile `q` (0..=1) of `sorted`, by nearest rank.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(q, sorted.len()) - 1]
}

/// Nearest-rank percentile `q` (0..=1) of unsorted samples.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    quantile(&sorted(v.to_vec()), q)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    if s.is_empty() {
        return f64::NAN;
    }
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest sample; NaN when there is none.
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Largest sample; NaN when there is none.
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::max).unwrap_or(f64::NAN)
}

/// The tail percentiles a timing may be described at, highest first;
/// fewer samples step down this list.
const TAILS: [f64; 4] = [99.0, 95.0, 90.0, 50.0];

/// The highest percentile in [`TAILS`] that leaves at least ten samples
/// beyond its nearest-rank value, and that value. With fewer than twenty
/// samples the median is the only honest tail.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    for p in TAILS {
        if n >= rank(p / 100.0, n) + 10 {
            return (p, quantile(&s, p / 100.0));
        }
    }
    (50.0, median(&s))
}

/// A timing summary: median, tail percentile and value, sample count.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub median: f64,
    pub tail_p: f64,
    pub tail: f64,
    pub n: usize,
}

impl Timing {
    pub fn of(v: &[f64]) -> Timing {
        let (tail_p, tail) = tail(v);
        Timing {
            median: median(v),
            tail_p,
            tail,
            n: v.len(),
        }
    }

    pub fn describe(&self, unit: &str) -> String {
        format!(
            "median {:.4} {unit}, p{} {:.4} {unit}, n={}",
            self.median, self.tail_p, self.tail, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).0, 95.0);
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
