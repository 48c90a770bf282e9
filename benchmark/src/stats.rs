//! Order statistics over small sample sets.

/// The median of `values` (0.0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The mean of the middle half: the lowest and the highest quarter of the
/// values (rounded down; one each of five) are dropped first.  Over a run's
/// trials this forgets one stray process the way a median does, and where
/// processes fall into two groups about equally often — `cluster_bank` runs
/// at about 54 k or about 61 k requests/s — it averages the groups where a
/// median would flip between them from run to run.
pub fn midmean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let dropped = sorted.len() / 4;
    let middle = &sorted[dropped..sorted.len() - dropped];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The value a quarter of the way up the sorted values (rounded down): the
/// second lowest of five, the only one of one.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 4).copied().unwrap_or(0.0)
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)`, so a spread printed here is the one
/// the acceptance check computes.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        assert_eq!(median(&values), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }

    #[test]
    fn midmean_drops_one_of_five_at_each_end() {
        assert_eq!(
            midmean(&[26.0, 37.0, 27.0, 25.0, 26.0]),
            (26.0 + 26.0 + 27.0) / 3.0
        );
        assert_eq!(
            midmean(&[54.0, 61.0, 54.0, 61.0, 61.0]),
            (54.0 + 61.0 + 61.0) / 3.0
        );
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[]), 0.0);
    }

    #[test]
    fn lower_quartile_is_the_second_lowest_of_five() {
        assert_eq!(lower_quartile(&[919.0, 1868.0, 436.0, 867.0, 484.0]), 484.0);
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        assert_eq!(lower_quartile(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(percentile(&sorted, 100.0), 1000.0);
    }
}
