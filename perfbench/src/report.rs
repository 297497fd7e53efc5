//! The result line, summary statistics, and the seeded generator.

use std::collections::HashMap;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations (simulation points, requests, CSV files,
    /// cross-checks).
    attempted: u64,
    /// Checked operations that failed or disagreed with the golden result.
    failed: u64,
    values: HashMap<String, f64>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Renders the result line over the metric list `list`. When
    /// `required`, every listed metric must have been measured and be
    /// positive; otherwise an unmeasured metric reads 0 (its layer did no
    /// work on this workload).
    pub fn render(&self, list: &[(&str, &str)], required: bool) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("nothing was checked".to_string());
        }
        let mut metrics = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if required => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            if !value.is_finite() || (required && value <= 0.0) {
                return Err(format!("metric {name} has no usable value ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values`, interpolating linearly between
/// order statistics (0 for none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A small seeded generator (SplitMix64): the same seed gives the same
/// inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fb3_6c4d_2a91)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0.0..1.0`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
