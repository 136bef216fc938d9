//! Order statistics of timing samples.

/// Quartiles of `v` by the "exclusive" method of Python's
/// `statistics.quantiles(v, n=4)`; a single sample is all three.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => None,
        1 => Some([s[0]; 3]),
        n => Some([1, 2, 3].map(|k| {
            let pos = (k * (n + 1)) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let delta = pos - j as f64;
            s[j - 1] + (s[j] - s[j - 1]) * delta
        })),
    }
}

pub fn median(v: &[f64]) -> Option<f64> {
    quartiles(v).map(|q| q[1])
}

/// Median, quartiles, extremes and sample count of a timing.
pub fn summary(v: &[f64]) -> String {
    let Some([q1, med, q3]) = quartiles(v) else {
        return "samples=0".to_string();
    };
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "median={med:.6} q1={q1:.6} q3={q3:.6} min={min:.6} max={max:.6} samples={}",
        v.len()
    )
}
