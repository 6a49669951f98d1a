//! Sample summaries, the report digest, and the rule that turns two
//! summaries and a bound into `same` / `better` / `worse` / `unresolved`.

use crate::json::Value;

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them;
/// a single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    [1, 2, 3].map(|i| {
        // Position i·(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    })
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What the benchmark reports for one timed quantity.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub samples: Vec<f64>,
}

impl Summary {
    pub fn of(samples: Vec<f64>) -> Self {
        let [q1, _, q3] = quartiles(&samples);
        Summary {
            median: median(&samples),
            q1,
            q3,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            samples,
        }
    }

    /// A quantity measured once (a count, or a value derived from medians).
    pub fn single(value: f64) -> Self {
        Summary::of(vec![value])
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The same summary with every sample mapped through `f` (`f` must be
    /// monotone, e.g. `count / wall`), recomputed from the samples.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Summary {
        Summary::of(self.samples.iter().map(|&x| f(x)).collect())
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("median", Value::from(self.median)),
            ("q1", Value::from(self.q1)),
            ("q3", Value::from(self.q3)),
            ("min", Value::from(self.min)),
            (
                "samples",
                Value::Arr(self.samples.iter().map(|&x| Value::from(x)).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let samples: Option<Vec<f64>> = v
            .get("samples")?
            .as_arr()?
            .iter()
            .map(Value::as_f64)
            .collect();
        Some(Summary::of(samples?))
    }
}

/// 64-bit FNV-1a — the digest pinned per workload over the `Debug` text of
/// the driver's merged report.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may move before it counts as a change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Host time or memory: may worsen by `share` of the first median, or by
    /// `floor` in the metric's own unit if that is larger.
    Share { share: f64, floor: f64 },
    /// A simulated statistic or a deterministic count: any difference means
    /// the change altered the simulation, not just its speed.
    Exact,
    /// Reported, not judged (per-layer wall-clock numbers).
    None,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` (the reference run).
///
/// * `Exact`: equal medians are `same`; otherwise the direction decides.
/// * `Share`: `b`'s median may be worse than `a`'s by at most
///   `max(share·|a|, floor)`. If either side's own inter-quartile range is
///   wider than that allowance the difference cannot be told from noise and
///   the verdict is `unresolved` — unless every sample of one side beats
///   every sample of the other.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: Bound) -> Verdict {
    // Positive `worse_by` means b is worse than a.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = (b.median - a.median) * sign;
    let verdict_of = |delta: f64, allowed: f64| {
        if delta > allowed {
            Verdict::Worse
        } else if delta < -allowed {
            Verdict::Better
        } else {
            Verdict::Same
        }
    };
    match bound {
        Bound::None => Verdict::Same,
        Bound::Exact => verdict_of(worse_by, 0.0),
        Bound::Share { share, floor } => {
            let allowed = (share * a.median.abs()).max(floor);
            let noisy = [a, b].iter().any(|s| s.q3 - s.q1 > allowed);
            if !noisy {
                return verdict_of(worse_by, allowed);
            }
            // Signed so that lower is better on both sides.
            let range = |s: &Summary| {
                let xs = s.samples.iter().map(|&x| x * sign);
                (
                    xs.clone().fold(f64::INFINITY, f64::min),
                    xs.fold(f64::NEG_INFINITY, f64::max),
                )
            };
            let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
            if b_hi < a_lo {
                Verdict::Better
            } else if b_lo > a_hi {
                Verdict::Worse
            } else {
                Verdict::Unresolved
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: Python
        // extrapolates; this clamps to the sample so a quartile is never
        // outside what was measured.
        assert_eq!(quartiles(&[1.0, 2.0]), [1.0, 1.5, 2.0]);
        // statistics.quantiles([2.1, 2.4, 2.2, 2.3, 2.6, 2.5, 2.0], n=4) == [2.1, 2.3, 2.5]
        let q = quartiles(&[2.1, 2.4, 2.2, 2.3, 2.6, 2.5, 2.0]);
        assert!(
            close(q[0], 2.1) && close(q[1], 2.3) && close(q[2], 2.5),
            "{q:?}"
        );
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summary_round_trips_and_reports_spread() {
        let s = Summary::of(vec![2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6]);
        assert!(close(s.median, 2.3) && close(s.min, 2.0));
        assert!(close(s.spread(), (2.5 - 2.1) / 2.3));
        assert_eq!(Summary::from_json(&s.to_json()), Some(s.clone()));
        let rate = s.map(|w| 10.0 / w);
        assert!(close(rate.median, 10.0 / 2.3));
    }

    #[test]
    fn fnv1a_is_stable() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    const HOST: Bound = Bound::Share {
        share: 0.10,
        floor: 0.0,
    };

    #[test]
    fn share_bound_is_applied_in_the_metrics_direction() {
        let a = Summary::of(vec![2.00, 2.01, 2.02]);
        let slower = Summary::of(vec![2.30, 2.31, 2.32]);
        let faster = Summary::of(vec![1.70, 1.71, 1.72]);
        let near = Summary::of(vec![2.10, 2.11, 2.12]);
        assert_eq!(judge(&a, &slower, Better::Lower, HOST), Verdict::Worse);
        assert_eq!(judge(&a, &faster, Better::Lower, HOST), Verdict::Better);
        assert_eq!(judge(&a, &near, Better::Lower, HOST), Verdict::Same);
        // The same numbers as a rate: more is better.
        assert_eq!(judge(&a, &slower, Better::Higher, HOST), Verdict::Better);
        assert_eq!(judge(&a, &faster, Better::Higher, HOST), Verdict::Worse);
    }

    #[test]
    fn setup_floor_absorbs_small_absolute_differences() {
        let bound = Bound::Share {
            share: 0.20,
            floor: 0.05,
        };
        let a = Summary::single(0.010);
        // 4x slower, but 30 ms: inside the 50 ms floor.
        assert_eq!(
            judge(&a, &Summary::single(0.040), Better::Lower, bound),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &Summary::single(0.070), Better::Lower, bound),
            Verdict::Worse
        );
        // Above the floor the share takes over: 20% of 1 s.
        let a = Summary::single(1.0);
        assert_eq!(
            judge(&a, &Summary::single(1.15), Better::Lower, bound),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &Summary::single(1.25), Better::Lower, bound),
            Verdict::Worse
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let a = Summary::of(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = Summary::of(vec![1.5, 2.5, 3.5, 4.5, 5.5]);
        assert_eq!(judge(&a, &b, Better::Lower, HOST), Verdict::Unresolved);
        // Every run of b beats every run of a: resolved despite the spread.
        let b = Summary::of(vec![0.1, 0.3, 0.5, 0.7, 0.9]);
        assert_eq!(judge(&a, &b, Better::Lower, HOST), Verdict::Better);
        assert_eq!(judge(&b, &a, Better::Lower, HOST), Verdict::Worse);
        assert_eq!(judge(&b, &a, Better::Higher, HOST), Verdict::Better);
    }

    #[test]
    fn exact_metrics_tolerate_nothing() {
        let a = Summary::single(5.0);
        assert_eq!(
            judge(&a, &Summary::single(5.0), Better::Higher, Bound::Exact),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &Summary::single(5.000001), Better::Higher, Bound::Exact),
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &Summary::single(5.000001), Better::Lower, Bound::Exact),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &Summary::single(9.0), Better::Lower, Bound::None),
            Verdict::Same
        );
    }
}
