//! Summary statistics shared by every workload: nearest-rank
//! percentiles, the tail-percentile rule, the median used for set-up
//! time, the codegen self-time derivation, and peak memory.

/// Percentiles the tail is chosen from, lowest first. It stops at p90:
/// on a shared 2-vCPU virtual machine p99 latencies moved by 20-45%
/// between runs, more than any regression bound can absorb.
pub const TAIL_LADDER: [f64; 2] = [50.0, 90.0];

/// Samples that must lie strictly beyond a percentile for it to be
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 0-based index of the nearest-rank `p`-th percentile of `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of ascending `sorted` (which must be
/// non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// The tail of ascending `sorted`: the highest [`TAIL_LADDER`]
/// percentile with at least [`TAIL_MIN_BEYOND`] samples beyond it, as
/// `(percentile, value)`. `None` when there are too few samples for
/// even the median to qualify.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n > 0 && n - 1 - rank(n, p) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Median of unsorted values (upper median for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Arithmetic mean, 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Codegen self time: one `generate` call's duration minus the CSI and
/// hash searches it runs (timed separately by re-running them on the
/// same inputs). Timing noise can make the two re-runs add up to more
/// than `generate`; the self time is then clamped to zero and the second
/// value is `true`, so the clamp is counted instead of hidden.
pub fn emit_self_time(generate_ms: f64, csi_ms: f64, hash_ms: f64) -> (f64, bool) {
    let rest = generate_ms - csi_ms - hash_ms;
    if rest < 0.0 {
        (0.0, true)
    } else {
        (rest, false)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 99 samples: p90 is rank 90 with 9 beyond, so p50 is reported.
        assert_eq!(tail(&ramp(99)), Some((50.0, 50.0)));
        // p90 is the top rung however many samples there are.
        assert_eq!(tail(&ramp(200_000)), Some((90.0, 180_000.0)));
        // The chosen percentile always leaves at least ten samples beyond.
        for n in 20..3000 {
            let v = ramp(n);
            let (p, value) = tail(&v).unwrap();
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn tail_needs_enough_samples() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn emit_self_time_is_clamped_and_flagged() {
        assert_eq!(emit_self_time(10.0, 4.0, 5.0), (1.0, false));
        assert_eq!(emit_self_time(10.0, 4.0, 6.0), (0.0, false));
        let (ms, clamped) = emit_self_time(10.0, 6.0, 5.0);
        assert_eq!(ms, 0.0);
        assert!(clamped);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
