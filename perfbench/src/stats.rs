//! Statistics over raw samples. Percentiles are read from the sorted
//! samples themselves (linear interpolation between closest ranks), never
//! from bucketed histograms, whose power-of-two bounds move in steps.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The figure on the fast side of `samples`: the 95th percentile when a
/// higher value is better, the 5th when lower is. Used over many short
/// pieces of a run, it reads the program in the host's fast spells, which
/// a run of half a minute nearly always has, where a median moves with
/// how much of the run the spells cover. `None` when empty.
pub fn fast_tail(samples: &[f64], higher_is_better: bool) -> Option<f64> {
    percentile(samples, if higher_is_better { 0.95 } else { 0.05 })
}

/// The part of `total` that `parts` do not account for. Negative when the
/// parts overlap or overrun the total.
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// Times set-ups too short to time one at a time. Runs `batches ×
/// per_batch` set-ups back to back, each followed by its `teardown`
/// (untimed), and returns one sample per batch: the mean time in seconds
/// of the batch's set-ups. A batch spans many milliseconds, far above the
/// timer's and the scheduler's granularity; `setup_s` is the median of
/// such samples.
pub fn batched<T>(
    batches: usize,
    per_batch: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> Vec<f64> {
    assert!(per_batch > 0, "at least one set-up per batch");
    (0..batches)
        .map(|_| {
            let mut total = 0.0;
            for _ in 0..per_batch {
                let t = std::time::Instant::now();
                let v = setup();
                total += t.elapsed().as_secs_f64();
                teardown(v);
            }
            total / per_batch as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_raw_samples() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(4.6));
        assert_eq!(median(&[1.0, 2.0]), Some(1.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentiles_are_not_bucketed() {
        // A power-of-two histogram would report 1024 for both.
        let a: Vec<f64> = (0..100).map(|i| 600.0 + f64::from(i)).collect();
        let b: Vec<f64> = (0..100).map(|i| 900.0 + f64::from(i)).collect();
        assert!((median(&a).unwrap() - 649.5).abs() < 1e-9);
        assert!((median(&b).unwrap() - 949.5).abs() < 1e-9);
    }

    #[test]
    fn fast_tail_sits_on_the_better_side() {
        let v: Vec<f64> = (0..=20).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(fast_tail(&v, true), Some(190.0));
        assert_eq!(fast_tail(&v, false), Some(10.0));
        assert_eq!(fast_tail(&[], true), None);
    }

    #[test]
    fn residual_is_what_the_parts_leave() {
        assert_eq!(residual(10.0, &[2.0, 3.0]), 5.0);
        assert_eq!(residual(4.0, &[]), 4.0);
        assert!(residual(1.0, &[0.75, 0.5]) < 0.0);
    }

    #[test]
    fn batched_gives_one_sample_per_batch_and_tears_every_set_up_down() {
        let (mut made, mut torn) = (0, Vec::new());
        let samples = batched(
            3,
            4,
            || {
                made += 1;
                made
            },
            |v| torn.push(v),
        );
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().all(|&t| t >= 0.0));
        assert_eq!(torn, (1..=12).collect::<Vec<_>>());
    }
}
