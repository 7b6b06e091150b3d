//! Order statistics and open-loop bookkeeping shared by every workload.

/// Percentiles tried for a tail, highest first. p99 and p95 are left out:
/// on a shared 2-core machine they track scheduler stalls, and their
/// run-to-run spread is wider than any bound a regression gate can use.
const TAIL_QUANTILES: [f64; 3] = [0.90, 0.75, 0.50];

/// A tail needs at least this many samples strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of `xs` after dropping the lowest and the highest `trim` share of
/// the samples (rounded down, so a short list keeps every sample); NaN when
/// empty. The run's headline times use it: where a median jumps between
/// the machine's fast and slow phases, this averages them, and it still
/// drops a stalled sample or two.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    let s = sorted(xs);
    let cut = (s.len() as f64 * trim) as usize;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank quantile of `xs`, plus how many samples lie beyond it.
pub fn quantile(xs: &[f64], q: f64) -> Option<(f64, usize)> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((s[rank - 1], n - rank))
}

/// The highest of p90/p75/p50 with at least [`MIN_BEYOND`]
/// samples beyond it, as `(quantile, value)`. With too few samples for any
/// of them, the maximum is reported as quantile 1.0.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    for q in TAIL_QUANTILES {
        if let Some((v, beyond)) = quantile(xs, q) {
            if beyond >= MIN_BEYOND {
                return Some((q, v));
            }
        }
    }
    sorted(xs).last().map(|&max| (1.0, max))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One open-loop request: when it was due, when it went out, when its
/// answer came back (seconds on one clock), and whether it succeeded.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time (never earlier than `due`).
    pub sent: f64,
    /// Time the response was read.
    pub done: f64,
    /// Whether the response was an ok answer that passed its checks.
    pub ok: bool,
}

impl Sent {
    /// Latency counted from the due time, so a stall also charges the
    /// requests queued behind it.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent this request.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// Whether generator lateness grew across a rung: the median lateness of
/// the last quarter of requests (by due time) exceeds that of the first
/// quarter by more than `slack_ms`.
pub fn lag_growing(reqs: &[Sent], slack_ms: f64) -> bool {
    let mut by_due: Vec<&Sent> = reqs.iter().collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let quarter = by_due.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first: Vec<f64> = by_due[..quarter].iter().map(|r| r.late_ms()).collect();
    let last: Vec<f64> = by_due[by_due.len() - quarter..]
        .iter()
        .map(|r| r.late_ms())
        .collect();
    median(&last) - median(&first) > slack_ms
}

/// What one rung of the rate ladder showed.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests answered per second of the rung's wall time.
    pub achieved: f64,
    /// Tail latency from due time, ms.
    pub tail_ms: f64,
    /// Failed requests.
    pub errors: u64,
    /// Whether the generator fell further behind during the rung.
    pub lag_growing: bool,
}

/// The rung with the highest offered rate that meets the latency limit with
/// no errors and no growing lag, provided every lower rung met it too.
/// `None` when even the lowest rung fails.
pub fn max_rate(rungs: &[Rung], limit_ms: f64) -> Option<Rung> {
    let mut by_rate = rungs.to_vec();
    by_rate.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let mut best = None;
    for r in by_rate {
        if r.tail_ms > limit_ms || r.errors > 0 || r.lag_growing {
            break;
        }
        best = Some(r);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        // 20 samples, 10% trimmed: the lowest and highest two go.
        let mut xs = ramp(20);
        xs[19] = 1000.0;
        assert_eq!(trimmed_mean(&xs, 0.1), 10.5);
        // Fewer than ten samples: nothing is trimmed.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0], 0.1), 3.0);
        assert!(trimmed_mean(&[], 0.1).is_nan());
    }

    #[test]
    fn quantile_is_nearest_rank_and_counts_samples_beyond() {
        let xs = ramp(100);
        assert_eq!(quantile(&xs, 0.99), Some((99.0, 1)));
        assert_eq!(quantile(&xs, 0.5), Some((50.0, 50)));
        assert_eq!(quantile(&xs, 0.0), Some((1.0, 99)));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(100)), Some((0.90, 90.0)));
        // 99 samples: p90 leaves 9, so p75 (24 beyond) is the tail.
        assert_eq!(tail(&ramp(99)), Some((0.75, 75.0)));
        // 40 samples: p75 leaves exactly 10.
        assert_eq!(tail(&ramp(40)), Some((0.75, 30.0)));
        // 20 samples: only the median leaves 10 beyond.
        assert_eq!(tail(&ramp(20)), Some((0.5, 10.0)));
    }

    #[test]
    fn tail_falls_back_to_the_maximum_for_small_samples() {
        assert_eq!(tail(&[2.0, 9.0, 4.0]), Some((1.0, 9.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 1.000 s, sent 4 ms late behind a stalled request, answered
        // 1 ms after sending: the request waited 5 ms, not 1 ms.
        let r = Sent {
            due: 1.000,
            sent: 1.004,
            done: 1.005,
            ok: true,
        };
        assert!((r.latency_ms() - 5.0).abs() < 1e-9);
        assert!((r.late_ms() - 4.0).abs() < 1e-9);
    }

    fn sent_with_lateness(late_ms: &[f64]) -> Vec<Sent> {
        late_ms
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let due = i as f64 * 0.001;
                Sent {
                    due,
                    sent: due + l / 1e3,
                    done: due + l / 1e3 + 0.0005,
                    ok: true,
                }
            })
            .collect()
    }

    #[test]
    fn steady_lateness_is_not_growing_lag() {
        let reqs = sent_with_lateness(&[0.2; 40]);
        assert!(!lag_growing(&reqs, 1.0));
    }

    #[test]
    fn linearly_growing_lateness_is_detected() {
        let late: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
        assert!(lag_growing(&sent_with_lateness(&late), 1.0));
    }

    fn rung(rate: f64, tail_ms: f64, errors: u64, lag_growing: bool) -> Rung {
        Rung {
            rate,
            achieved: rate,
            tail_ms,
            errors,
            lag_growing,
        }
    }

    #[test]
    fn max_rate_is_the_highest_rung_within_the_limit() {
        let rungs = [
            rung(4000.0, 250.0, 0, true),
            rung(500.0, 2.0, 0, false),
            rung(2000.0, 6.0, 0, false),
            rung(1000.0, 3.0, 0, false),
        ];
        assert_eq!(max_rate(&rungs, 10.0).map(|r| r.rate), Some(2000.0));
    }

    #[test]
    fn max_rate_stops_at_the_first_failing_rung() {
        // 2000 fails on errors; 4000 passing by luck above it does not count.
        let rungs = [
            rung(500.0, 2.0, 0, false),
            rung(1000.0, 3.0, 0, false),
            rung(2000.0, 4.0, 1, false),
            rung(4000.0, 5.0, 0, false),
        ];
        assert_eq!(max_rate(&rungs, 10.0).map(|r| r.rate), Some(1000.0));
    }

    #[test]
    fn max_rate_rejects_growing_lag_and_slow_tails() {
        assert!(max_rate(&[rung(500.0, 2.0, 0, true)], 10.0).is_none());
        assert!(max_rate(&[rung(500.0, 12.0, 0, false)], 10.0).is_none());
    }
}
