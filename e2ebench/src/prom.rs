//! `GET /metrics` scrapes and their deltas.

use crate::client::{exchange, request_bytes};
use std::collections::BTreeMap;
use std::net::SocketAddr;

/// One scrape: every sample line, keyed by its series (`name{labels}`).
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Scrapes the server's Prometheus exposition.
    pub fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let reply = exchange(addr, &request_bytes("GET", "/metrics", ""))
            .map_err(|e| format!("scrape /metrics: {e}"))?;
        if reply.status != 200 {
            return Err(format!("/metrics answered {}", reply.status));
        }
        let mut samples = BTreeMap::new();
        for line in reply.body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (series, value) =
                line.rsplit_once(' ').ok_or_else(|| format!("bad exposition line {line:?}"))?;
            let value = value.parse().map_err(|_| format!("bad sample value in {line:?}"))?;
            samples.insert(series.to_string(), value);
        }
        Ok(Scrape(samples))
    }

    /// The sum of every series of metric `name` whose label set contains `label` (an empty
    /// `label` matches every series).
    pub fn total(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                let (metric, labels) = series.split_once('{').unwrap_or((series.as_str(), ""));
                metric == name && labels.contains(label)
            })
            .map(|(_, v)| v)
            .sum()
    }
}

/// The change of one metric between two scrapes.
pub fn delta(before: &Scrape, after: &Scrape, name: &str, label: &str) -> f64 {
    after.total(name, label) - before.total(name, label)
}

/// Mean milliseconds per observation of a nanosecond histogram between two scrapes (0 when
/// nothing was observed).
pub fn mean_ms(before: &Scrape, after: &Scrape, name: &str, label: &str) -> f64 {
    let count = delta(before, after, &format!("{name}_count"), label);
    let sum = delta(before, after, &format!("{name}_sum"), label);
    if count > 0.0 {
        sum / count / 1e6
    } else {
        0.0
    }
}
