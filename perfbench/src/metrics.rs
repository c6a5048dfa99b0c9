//! The metric table and the result line.
//!
//! Every metric the benchmark can print is declared once in [`TABLE`]
//! with its unit and direction. A run collects values into a
//! [`Report`]; [`Report::set`] refuses a metric the table does not
//! know, [`Report::select`] flags one of the run's kind left unmeasured,
//! and the self-test checks the emitted set against `BENCHMARK.json`.

use std::collections::BTreeMap;

/// Which run prints a metric: end-to-end metrics come from untraced
/// runs (`--trace 0`), per-layer metrics from the traced run
/// (`--trace 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

/// One row of the metric table.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
    }
}

use Kind::{EndToEnd as E, Layer as L};

/// Every metric, in print order. README.md documents the same table with
/// the layer each one measures and the end-to-end metric it should move.
pub const TABLE: &[Metric] = &[
    m("setup_s", "s", "lower", E),
    m("request_p50_s", "s", "lower", E),
    m("request_p90_s", "s", "lower", E),
    m("edges_per_s", "edges/s", "higher", E),
    m("cut_total", "weight", "lower", E),
    m("feasible_frac", "fraction", "higher", E),
    m("peak_rss_mb", "MiB", "lower", E),
    m("validate.busy_s", "s", "lower", L),
    m("coarsen.busy_s", "s", "lower", L),
    m("coarsen.levels", "count", "lower", L),
    m("coarsen.coarsest_nodes", "count", "lower", L),
    m("coarsen.hier_edges_ratio", "ratio", "lower", L),
    m("coarsen.arena_mb", "MiB", "lower", L),
    m("coarsen.wins.random", "count", "higher", L),
    m("coarsen.wins.heavy-edge", "count", "higher", L),
    m("coarsen.wins.k-means", "count", "higher", L),
    m("coarsen.match.random_s", "s", "lower", L),
    m("coarsen.match.heavy-edge_s", "s", "lower", L),
    m("coarsen.match.k-means_s", "s", "lower", L),
    m("contract.busy_s", "s", "lower", L),
    m("initial.busy_s", "s", "lower", L),
    m("initial.calls", "count", "lower", L),
    m("refine.busy_s", "s", "lower", L),
    m("refine.moves", "count", "lower", L),
    m("quality.busy_s", "s", "lower", L),
    m("cycle.cycles", "count", "lower", L),
    m("cycle.unattributed_frac", "fraction", "lower", L),
    m("replay.wall_s", "s", "lower", L),
    m("batch.overhead_s", "s", "lower", L),
    m("robust.fallbacks", "count", "lower", L),
    m("rb.busy_s", "s", "lower", L),
    m("hyper.busy_s", "s", "lower", L),
    m("delta.busy_s", "s", "lower", L),
    m("warm.busy_s", "s", "lower", L),
    m("scratch.busy_s", "s", "lower", L),
    m("warm.moved_nodes", "count", "lower", L),
    m("warm.frac", "fraction", "higher", L),
    m("migration_frac", "fraction", "lower", L),
    m("failed_frac", "fraction", "lower", L),
];

/// Look a metric up by name.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    TABLE.iter().find(|m| m.name == name)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Request counts and metric values of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons for failed output checks; any entry makes the run
    /// incorrect, and the first few are printed.
    pub errors: Vec<String>,
    /// Diagnostic lines printed above the metric table.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record metric `name` (which must be in [`TABLE`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(lookup(name).is_some(), "metric {name} is not in the table");
        self.values.insert(name, value);
    }

    /// A failed request or output check.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        self.errors.push(reason.into());
    }

    /// A run-level check that failed without a request to blame.
    pub fn check(&mut self, ok: bool, reason: &str) {
        if !ok {
            self.errors.push(reason.to_string());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Names of the metrics recorded so far.
    pub fn names(&self) -> Vec<&'static str> {
        self.values.keys().copied().collect()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Keep only the metrics of `kind`, checking that every one of them
    /// was recorded.
    pub fn select(&mut self, kind: Kind) {
        self.values
            .retain(|name, _| lookup(name).map(|m| m.kind) == Some(kind));
        for m in TABLE.iter().filter(|m| m.kind == kind) {
            if !self.values.contains_key(m.name) {
                self.errors
                    .push(format!("metric {} was not measured", m.name));
            }
        }
    }

    /// The human-readable table: name, value, unit and direction.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in TABLE {
            if let Some(v) = self.values.get(m.name) {
                out.push_str(&format!(
                    "  {:<28} {:>16} {:<8} ({} is better)\n",
                    m.name,
                    format_value(*v),
                    m.unit,
                    m.better
                ));
            }
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = TABLE
            .iter()
            .filter_map(|m| {
                self.values.get(m.name).map(|v| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        format_value(*v),
                        m.unit
                    )
                })
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip decimal of a finite value (non-finite values,
/// which no metric should produce, print as 0 and fail the self-test).
fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in TABLE {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 90.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
