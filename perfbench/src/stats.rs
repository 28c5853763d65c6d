//! Small numeric helpers shared by the workloads: percentiles, the
//! paper's quality columns, output fingerprints and the result line.

use mebl_route::RouteReport;
use std::fmt::Write as _;

/// Nearest-rank percentile of `values` (`p` in 0..=100); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (the 50th nearest-rank percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// FNV-1a over `bytes`: the per-op output fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The paper's Table III columns, summed over every op's output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    pub total_nets: u64,
    pub routed_nets: u64,
    pub via_violations: u64,
    pub short_polygons: u64,
    pub wirelength: u64,
}

impl std::ops::AddAssign for Quality {
    fn add_assign(&mut self, o: Quality) {
        self.total_nets += o.total_nets;
        self.routed_nets += o.routed_nets;
        self.via_violations += o.via_violations;
        self.short_polygons += o.short_polygons;
        self.wirelength += o.wirelength;
    }
}

impl Quality {
    pub fn of_report(r: &RouteReport) -> Quality {
        Quality {
            total_nets: r.total_nets as u64,
            routed_nets: r.routed_nets as u64,
            via_violations: r.via_violations as u64,
            short_polygons: r.short_polygons as u64,
            wirelength: r.wirelength,
        }
    }

    pub fn routability_pct(&self) -> f64 {
        100.0 * self.routed_nets as f64 / self.total_nets.max(1) as f64
    }

    pub fn sp_per_knet(&self) -> f64 {
        1000.0 * self.short_polygons as f64 / self.routed_nets.max(1) as f64
    }

    pub fn vv_per_knet(&self) -> f64 {
        1000.0 * self.via_violations as f64 / self.routed_nets.max(1) as f64
    }

    pub fn wirelength_per_net(&self) -> f64 {
        self.wirelength as f64 / self.routed_nets.max(1) as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in print order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Adds `<name>.p50` and `<name>.p95` of `values`.
    pub fn put_dist(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.put(format!("{name}.p50"), percentile(values, 50.0), unit);
        self.put(format!("{name}.p95"), percentile(values, 95.0), unit);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn names(&self) -> Vec<&str> {
        self.0.iter().map(|(n, _, _)| n.as_str()).collect()
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
