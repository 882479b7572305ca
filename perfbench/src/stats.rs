//! Percentiles and the named-metric list the benchmark prints.

use std::time::Duration;

use serde_json::Value as Json;

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`q` in `[0, 1]`); 0 for an empty sample.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median (the mean of the middle two for an even count); 0 for an
/// empty sample.
pub fn median(samples: &mut [f64]) -> f64 {
    let n = samples.len();
    if n % 2 == 1 {
        return percentile(samples, 0.5);
    }
    if n == 0 {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    (samples[n / 2 - 1] + samples[n / 2]) / 2.0
}

/// Named metrics with units, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// An empty list.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Appends one metric; a non-finite value is recorded as 0.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Parses what [`Metrics::to_json`] printed.
    pub fn from_json(text: &str) -> Result<Metrics, String> {
        let json: Json = serde_json::from_str(text).map_err(|e| format!("bad metrics: {e}"))?;
        let mut out = Metrics::new();
        for (name, m) in json.as_map().ok_or("metrics are not an object")? {
            let value = match m.get("value") {
                Some(Json::F64(v)) => *v,
                Some(Json::I64(v)) => *v as f64,
                Some(Json::U64(v)) => *v as f64,
                _ => return Err(format!("metric {name} has no value")),
            };
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            out.push(name, value, unit);
        }
        Ok(out)
    }
}

/// Per name (and unit) of the first list, the median over all lists.
pub fn median_of<'a>(runs: impl Iterator<Item = &'a Metrics> + Clone) -> Metrics {
    let mut out = Metrics::new();
    let Some(first) = runs.clone().next() else {
        return out;
    };
    for (name, _, unit) in &first.0 {
        let mut values: Vec<f64> = runs.clone().filter_map(|m| m.get(name)).collect();
        out.push(name, median(&mut values), unit);
    }
    out
}
