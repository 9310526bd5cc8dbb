//! Percentiles, host readings and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of sorted values.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The highest of p99.9, p99, p95, p90 and p75 that leaves at least ten
/// samples beyond it; the median when there are fewer than forty.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n >= 40 && (n as f64) * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Where percentile `p` falls in a mix: the share of each class among
/// the samples within one percent of ranks around it.
pub fn placement(samples: &[(f64, String)], p: f64) -> String {
    let mut by_value: Vec<&(f64, String)> = samples.iter().collect();
    by_value.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = by_value.len();
    if n == 0 {
        return "no samples".into();
    }
    let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1;
    let half = (n / 100).max(2);
    let window = &by_value[rank.saturating_sub(half)..(rank + half + 1).min(n)];
    let mut shares: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, class) in window {
        *shares.entry(class.as_str()).or_default() += 1;
    }
    let mut out = format!("p{p} = {:.4} ms, neighbours:", by_value[rank].0);
    for (class, count) in shares {
        let _ = write!(
            out,
            " {class} {:.0}%",
            100.0 * count as f64 / window.len() as f64
        );
    }
    out
}

/// Cumulative (steal, total) jiffies of all CPUs, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// Share of CPU time the host stole between two readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Log a phase boundary with the time since the process started, on
/// standard error.
pub fn phase(name: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let start = START.get_or_init(std::time::Instant::now);
    eprintln!("[{:7.2} s] {name}", start.elapsed().as_secs_f64());
}
