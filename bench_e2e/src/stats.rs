//! Order statistics shared by the run report and the compare mode.

/// Median of `v` (`None` when empty). Sorts a copy.
pub fn median(v: &[f64]) -> Option<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match the
/// ones computed from the same values elsewhere. Needs two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        // statistics.quantiles: j = i * (n + 1) // 4, clamped to [1, n - 1],
        // then interpolate (or extrapolate) between the j-th and j+1-th.
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The tail the benchmark reports: the largest sample that still has at
/// least ten samples above it. Returns `(value, percentile)`, where the
/// percentile is the share of samples at or below the value; `None` with
/// fewer than eleven samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= BEYOND {
        return None;
    }
    let idx = n - BEYOND - 1;
    Some((s[idx], 100.0 * (idx + 1) as f64 / n as f64))
}

/// [`tail`] of each consecutive window of `window` samples (the whole
/// series when it holds fewer than two windows), then the median over
/// windows. Returns `(value, percentile within a window, window length,
/// windows)`; a short burst of host noise then moves one window, not the
/// reported tail.
pub fn windowed_tail(series: &[f64], window: usize) -> Option<(f64, f64, usize, usize)> {
    let chunks: Vec<&[f64]> = if series.len() < 2 * window {
        vec![series]
    } else {
        series.chunks_exact(window).collect()
    };
    let tails: Vec<(f64, f64)> = chunks.iter().filter_map(|c| tail(c)).collect();
    let value = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>())?;
    Some((value, tails[0].1, chunks[0].len(), chunks.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(tail(&rev), tail(&v));
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&v), Some((0.0, 100.0 / 11.0)));
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // Ten windows of 100; one holds a burst of slow samples.
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[200..300] {
            *x += 1000.0;
        }
        let (value, pct, len, windows) = windowed_tail(&v, 100).unwrap();
        assert_eq!((value, pct, len, windows), (89.0, 90.0, 100, 10));
        // Fewer than two windows: the whole series is one window.
        let (value, _, len, windows) = windowed_tail(&v[..150], 100).unwrap();
        assert_eq!((len, windows), (150, 1));
        assert_eq!(value, tail(&v[..150]).unwrap().0);
        assert_eq!(windowed_tail(&v[..5], 100), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }
}
