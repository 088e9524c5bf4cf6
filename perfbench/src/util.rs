//! Statistics, JSON output and `/proc` readers shared by every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method);
/// a single value is its own median and quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    match sorted.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0], sorted[0]),
        n => {
            let cut = |i: usize| {
                // m = n + 1; j = floor(i·m / 4); delta = i·m − 4j.
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (4 * j) as f64;
                sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The `p`-quantile (0‥1) of `values` by nearest rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((sorted.len() as f64 * p).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[rank]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// JSON string literal for `text`.
pub fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number for `value`, with every digit Rust's shortest round-trip
/// formatting gives (non-finite values become `null`).
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// One metric as measured in a run: every repetition's value plus the unit.
/// The reported value is the median of the samples.
#[derive(Clone, Debug)]
pub struct Metric {
    pub unit: &'static str,
    pub samples: Vec<f64>,
    /// What one sample is (e.g. "batch", "round", "message"), for the record.
    pub sample_of: &'static str,
}

/// Metrics by name, in a stable order.
#[derive(Default)]
pub struct Metrics {
    pub map: BTreeMap<String, Metric>,
}

impl Metrics {
    /// Records a metric from its samples (reported as their median).
    pub fn put(
        &mut self,
        name: &str,
        unit: &'static str,
        sample_of: &'static str,
        samples: Vec<f64>,
    ) {
        self.map.insert(
            name.to_string(),
            Metric {
                unit,
                samples,
                sample_of,
            },
        );
    }

    /// Records a metric with a single measured value.
    pub fn one(&mut self, name: &str, unit: &'static str, value: f64) {
        self.put(name, unit, "run", vec![value]);
    }

    pub fn value(&self, name: &str) -> f64 {
        self.map
            .get(name)
            .map(|metric| median(&metric.samples))
            .unwrap_or(f64::NAN)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the names given.
    pub fn result_json(&self, names: &[&str]) -> String {
        let fields: Vec<String> = names
            .iter()
            .map(|name| {
                let metric = &self.map[*name];
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(median(&metric.samples)),
                    json_str(metric.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Every metric with its median, quartiles and sample count.
    pub fn record_json(&self) -> String {
        let fields: Vec<String> = self
            .map
            .iter()
            .map(|(name, metric)| {
                let (q1, med, q3) = quartiles(&metric.samples);
                format!(
                    "{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}, \"sample_of\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(med),
                    json_num(q1),
                    json_num(q3),
                    metric.samples.len(),
                    json_str(metric.sample_of),
                    json_str(metric.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

extern "C" {
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

/// User + system CPU seconds of this whole process, including threads
/// that already exited (`getrusage(RUSAGE_SELF)`, µs resolution).
pub fn self_cpu_secs() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = [0i64; 18];
    // SAFETY: `struct rusage` on 64-bit Linux is two `timeval`s (2 × i64
    // each) followed by 14 longs: exactly 18 i64s, all written by the call.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if status != 0 {
        return f64::NAN;
    }
    (usage[0] + usage[2]) as f64 + (usage[1] + usage[3]) as f64 / 1e6
}

/// CPU seconds a live thread of this process has run
/// (`/proc/self/task/<tid>/schedstat`, ns resolution).
pub fn thread_cpu_secs(tid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |ns| ns / 1e9)
}

/// A `kB` field of `/proc/<pid>/status` (e.g. `VmHWM`), or a count field
/// (`Threads`), as a number.
pub fn status_field(pid: u32, field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse::<f64>().ok()
        })
        .unwrap_or(f64::NAN)
}

/// Peak resident memory of a process in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_field(pid, "VmHWM") / 1024.0
}

/// Thread ids of this process.
pub fn task_ids() -> Vec<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Sorted plaintexts with the zero padding the trap variant restores
/// stripped, for multiset comparison against the generator's texts.
pub fn normalized(plaintexts: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = plaintexts
        .iter()
        .map(|p| {
            let end = p.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
            p[..end].to_vec()
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0, 2.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn normalized_strips_padding_and_sorts() {
        let got = normalized(&[b"b\0\0".to_vec(), b"a".to_vec()]);
        assert_eq!(got, vec![b"a".to_vec(), b"b".to_vec()]);
    }
}
