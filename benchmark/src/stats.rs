//! Order statistics with the sample-count rule the benchmark reports under.

/// Fewest samples that must lie beyond a percentile before it is reported:
/// a tail read off fewer is one scheduler hiccup, not a measurement.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// Whether `n` samples support quantile `q` (`0 < q < 1`): at least
/// [`MIN_SAMPLES_BEYOND`] samples must lie on the far side of it. For the
/// median that is both sides, so p50 needs 20 samples, p95 200, p99 1000.
pub fn supports(n: usize, q: f64) -> bool {
    let tail = q.max(1.0 - q);
    n as f64 * (1.0 - tail) >= MIN_SAMPLES_BEYOND
}

/// Nearest-rank quantile of a non-empty ascending slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Each op's best value over the rounds of a run: the element-wise minimum
/// of `rounds`, which are aligned (every round of a run sends the same ops
/// in the same order) and hold `NaN` where an op got no reply. An op no
/// round answered is left out.
///
/// The best of an op's repetitions rather than their median, because what
/// disturbs an op on a shared box — a neighbour taking the memory bus or
/// the sibling hyperthread, for milliseconds or for seconds — only ever
/// makes it slower: its fastest repetition is the one the box left alone,
/// and it reads the same on a quiet and on a busy host, which no central
/// statistic does.
pub fn best_per_op(rounds: &[Vec<f64>]) -> Vec<f64> {
    let ops = rounds.iter().map(Vec::len).max().unwrap_or(0);
    (0..ops)
        .map(|i| {
            rounds
                .iter()
                .filter_map(|round| round.get(i))
                .fold(f64::NAN, |best, &v| best.min(v))
        })
        .filter(|best| !best.is_nan())
        .collect()
}

/// Quantile `q` of a run over aligned rounds (see [`best_per_op`]): the
/// nearest-rank quantile over the ops' best values, with each round's own
/// quantile beside it, or `None` when the run's samples are too few (see
/// [`supports`]) — a cell is omitted, never estimated.
pub fn run_quantile(rounds: &[Vec<f64>], q: f64) -> Option<(f64, Vec<f64>)> {
    let answered = |round: &Vec<f64>| {
        let mut values: Vec<f64> = round.iter().copied().filter(|v| !v.is_nan()).collect();
        sort(&mut values);
        values
    };
    let per_round: Vec<Vec<f64>> = rounds.iter().map(answered).collect();
    let total: usize = per_round.iter().map(Vec::len).sum();
    if !supports(total, q) {
        return None;
    }
    let best = answered(&best_per_op(rounds));
    let per_round = per_round
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| nearest_rank(r, q))
        .collect();
    Some((nearest_rank(&best, q), per_round))
}

/// Sort ascending (total order; the harness never produces NaN timings).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Plain median of a handful of per-round values (no sample-count rule:
/// rounds are repetitions of one measurement, not a latency distribution).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The run's reported spread of per-round values, as a share of their
/// median: the distance between the first and third quartile (as Python's
/// `statistics.quantiles(values, n=4)` places them) when there are at least
/// four rounds, else `max - min`.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n < 4 {
        return (sorted[n - 1] - sorted[0]) / mid;
    }
    let quartile = |p: f64| {
        let position = (n as f64 + 1.0) * p;
        let below = (position.floor() as usize).clamp(1, n - 1);
        let fraction = (position - below as f64).clamp(0.0, 1.0);
        sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1])
    };
    (quartile(0.75) - quartile(0.25)) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_quantile_honours_the_ten_samples_beyond_rule() {
        let round = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        let value = |rounds: &[Vec<f64>], q| run_quantile(rounds, q).map(|(value, _)| value);
        // p50 needs ten samples on each side, over the whole run.
        assert_eq!(value(&[round(19)], 0.5), None);
        assert_eq!(value(&[round(20)], 0.5), Some(10.0));
        assert_eq!(value(&[round(10), round(10)], 0.5), Some(5.0));
        // p95 needs 200 samples, p99 1000.
        assert_eq!(value(&[round(199)], 0.95), None);
        assert_eq!(value(&[round(200)], 0.95), Some(190.0));
        assert_eq!(value(&[round(999)], 0.99), None);
        assert_eq!(value(&[round(1000)], 0.99), Some(990.0));
        assert_eq!(value(&[], 0.5), None);
        // The run's value is taken over each op's best repetition: a slow
        // spell moves it only where it hit the same op in every round.
        let spell = |from: usize, to: usize| {
            let mut values = round(100);
            values[from..to].iter_mut().for_each(|v| *v *= 3.0);
            values
        };
        let rounds = [spell(0, 50), spell(50, 100), spell(90, 100)];
        let (p95, per_round) = run_quantile(&rounds, 0.95).unwrap();
        assert_eq!(p95, 95.0);
        assert!(per_round.iter().all(|&v| v > 95.0), "{per_round:?}");
        // Ops 91..=100 were slow in two rounds of two.
        assert_eq!(run_quantile(&rounds[1..], 0.95).unwrap().0, 3.0 * 95.0);
    }

    #[test]
    fn best_per_op_skips_missing_replies() {
        let rounds = [vec![2.0, f64::NAN, 5.0, f64::NAN], vec![3.0, 4.0, 1.0]];
        assert_eq!(best_per_op(&rounds), vec![2.0, 4.0, 1.0]);
        assert!(best_per_op(&[]).is_empty());
    }

    #[test]
    fn median_and_spread_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5].
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((spread(&nine) - 1.0).abs() < 1e-12);
        // One wild round does not widen a quartile spread.
        assert!(spread(&[10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 30.0]) < 0.05);
    }
}
