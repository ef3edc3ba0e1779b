//! Median / spread helpers for repeated host timings.

use adcc_campaign::json::Json;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: a metric without a sample is a benchmark bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One metric's samples, summarized the way every host timing is
/// reported: median, min, max, n and `spread_pct = (max - min) / median`.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// A steadier estimate of the centre than the samples' own median
    /// (see [`steady_rate`]), reported with the samples' range.
    pub fn around(estimate: f64, samples: &[f64]) -> Summary {
        Summary {
            median: estimate,
            ..Summary::of(samples)
        }
    }

    /// Every sample multiplied by `factor` (host timings scaled to the
    /// reference host).
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            median: self.median * factor,
            min: self.min * factor,
            max: self.max * factor,
            n: self.n,
        }
    }

    /// A deterministic count or simulated value: one sample, no spread.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// `(max - min) / median`, in percent. Zero for a zero median (only
    /// exact counts can be zero, and they have no spread).
    pub fn spread_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs() * 100.0
        }
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("median", Json::Float(self.median));
        j.push("min", Json::Float(self.min));
        j.push("max", Json::Float(self.max));
        j.push("n", Json::Int(self.n as u64));
        j.push("spread_pct", Json::Float(self.spread_pct()));
        j
    }

    pub fn from_json(j: &Json) -> Result<Summary, String> {
        let num = |key: &str| as_f64(j.get(key)).ok_or_else(|| format!("summary missing {key}"));
        Ok(Summary {
            median: num("median")?,
            min: num("min")?,
            max: num("max")?,
            n: num("n")? as usize,
        })
    }
}

/// Work per host second of a repeated list of work items, with each item
/// timed at its **median over the repeats**: `seconds[r][i]` is item `i`'s
/// host time in repeat `r`, `work` the repeat's total work.
///
/// The sandbox is disturbed in bursts shorter than a repeat. Summing a
/// repeat's times lets every burst into that repeat's rate; taking the
/// median of the items' rates would compare items that are not alike
/// (campaigns of different seeds, forward executions of different
/// kernels). Voting each item against its own repeats does neither.
pub fn steady_rate(work: f64, seconds: &[Vec<f64>]) -> f64 {
    let items = seconds.first().map_or(0, Vec::len);
    assert!(
        items > 0 && seconds.iter().all(|r| r.len() == items),
        "every repeat times the same items"
    );
    let total: f64 = (0..items)
        .map(|i| median(&seconds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .sum();
    work / total
}

/// Largest element-wise distance between two vectors; a NaN anywhere reads
/// as infinitely far, so it can never pass a tolerance check.
pub fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (x, y)| {
        let d = (x - y).abs();
        if d.is_nan() {
            f64::INFINITY
        } else {
            acc.max(d)
        }
    })
}

/// A JSON number as `f64` (the tree keeps exact integers apart).
pub fn as_f64(j: Option<&Json>) -> Option<f64> {
    match j? {
        Json::Int(v) => Some(*v as f64),
        Json::Float(v) => Some(*v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn max_diff_propagates_nan_as_mismatch() {
        assert_eq!(max_diff(&[1.0, 2.0], &[1.5, 2.0]), 0.5);
        assert_eq!(max_diff(&[1.0, f64::NAN], &[1.0, 2.0]), f64::INFINITY);
    }

    #[test]
    fn spread_is_range_over_median() {
        let s = Summary::of(&[9.0, 10.0, 12.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (10.0, 9.0, 12.0, 3));
        assert!((s.spread_pct() - 30.0).abs() < 1e-12);
        assert_eq!(Summary::exact(0.0).spread_pct(), 0.0);
        assert_eq!(Summary::exact(7.0).spread_pct(), 0.0);
    }

    #[test]
    fn steady_rate_votes_each_item_against_its_own_repeats() {
        // Two unlike items (1 s and 3 s); each repeat has one disturbed
        // item, never the same one twice.
        let seconds = vec![vec![1.0, 3.0], vec![1.9, 3.0], vec![1.0, 4.5]];
        assert!((steady_rate(8.0, &seconds) - 2.0).abs() < 1e-12);
        // The plain median of the three repeat rates still carries a burst.
        let rates: Vec<f64> = seconds
            .iter()
            .map(|r| 8.0 / r.iter().sum::<f64>())
            .collect();
        assert!(median(&rates) < 1.9);
        let s = Summary::around(2.0, &rates);
        assert_eq!((s.median, s.n), (2.0, 3));
        assert!(s.min < s.median && s.max <= s.median);
    }

    #[test]
    fn summary_roundtrips_through_json() {
        let s = Summary::of(&[1.5, 2.5, 2.0]);
        let text = s.to_json().pretty();
        let back = Summary::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }
}
