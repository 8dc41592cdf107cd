//! Order statistics for the report: medians, quartiles and the tail
//! percentile rule.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// First quartile, median and third quartile of `xs`, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` does (its default "exclusive"
/// method), so the report agrees with any script that re-reads it. One
/// sample is its own quartiles; an empty slice gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// A latency tail: the highest percentile, capped at the 99th, that still
/// has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported (the 99th once there are 1000 samples or more).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The [`Tail`] of `xs`, or `None` with too few samples to have one.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    // 1-based rank: at most the 99th percentile, and at least
    // TAIL_BEYOND samples ranked above it.
    let rank = (n * 99 / 100).min(n - TAIL_BEYOND);
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        samples: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Reference values from statistics.quantiles(data, n=4).
        assert_eq!(quartiles(&one_to(10)), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_states_its_count() {
        assert_eq!(tail(&one_to(10)), None);
        let t = tail(&one_to(11)).unwrap();
        assert_eq!((t.value, t.samples), (1.0, 11));
        let t = tail(&one_to(100)).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (90.0, 90.0, 100));
        let t = tail(&one_to(1000)).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        let t = tail(&one_to(5000)).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 4950.0));
        for n in 11..2500 {
            let t = tail(&one_to(n)).unwrap();
            assert!(n - t.value as usize >= TAIL_BEYOND, "n={n}");
            assert!(t.pct <= 99.0, "n={n}");
        }
        let mut reversed = one_to(100);
        reversed.reverse();
        assert_eq!(tail(&reversed), tail(&one_to(100)));
    }
}
