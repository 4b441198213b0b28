//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named metric and its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Reported by every untraced run.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("wire_mb", "MB"),
    m("query_p50_ms", "ms"),
    m("query_p99_ms", "ms"),
    m("insert_p50_ms", "ms"),
    m("insert_p90_ms", "ms"),
];

/// Reported by every traced run; 0 where a workload does not exercise
/// the layer (see README.md).
pub const PER_LAYER: &[Metric] = &[
    m("rdf.parse_s", "s"),
    m("rdf.write_s", "s"),
    m("core.prepare_s", "s"),
    m("core.parallel_s", "s"),
    m("core.reason_max_s", "s"),
    m("core.reason_skew", "ratio"),
    m("core.barrier_wait_s", "s"),
    m("core.exchange_s", "s"),
    m("core.rounds", "count"),
    m("core.sent_triples", "count"),
    m("core.aggregate_s", "s"),
    m("core.unaccounted_s", "s"),
    m("datalog.join_cpu_s", "s"),
    m("datalog.distinct_frac", "ratio"),
    m("partition.ir_excess", "ratio"),
    m("partition.edge_cut", "count"),
    m("net.setup_mb", "MB"),
    m("net.round_mb", "MB"),
    m("net.final_mb", "MB"),
    m("net.compression", "ratio"),
    m("net.master_s", "s"),
    m("net.worker_max_s", "s"),
    m("net.io_retries", "count"),
    m("net.skipped", "count"),
    m("serve.materialize_s", "s"),
    m("serve.ready_s", "s"),
    m("serve.query_service_p50_ms", "ms"),
    m("serve.query_service_p99_ms", "ms"),
    m("serve.insert_service_p50_ms", "ms"),
    m("serve.insert_service_p99_ms", "ms"),
    m("serve.gen_late_p99_ms", "ms"),
    m("serve.busy_rejections", "count"),
    m("serve.errors", "count"),
    m("serve.checkpoints", "count"),
    m("horst.delta_derived", "count"),
    m("horst.delta_per_added", "ratio"),
    m("query.Q1_ms", "ms"),
    m("query.Q2_ms", "ms"),
    m("query.Q3_ms", "ms"),
    m("query.Q4_ms", "ms"),
    m("query.Q5_ms", "ms"),
    m("query.Q6_ms", "ms"),
    m("query.Q7_ms", "ms"),
    m("query.Q8_ms", "ms"),
    m("query.Q9_ms", "ms"),
    m("query.Q10_ms", "ms"),
    m("query.Q11_ms", "ms"),
    m("query.Q12_ms", "ms"),
    m("query.Q13_ms", "ms"),
    m("query.Q14_ms", "ms"),
    m("query.rows", "count"),
    m("trace.overhead_s", "s"),
];

/// A name is 1–64 characters of `[A-Za-z0-9_.-]` and starts with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result of one run, printed as the last line of standard output.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// False when a check failed or the run was invalid (e.g. the load
    /// generator fell behind), even if no single operation failed.
    pub valid: bool,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            valid: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Count one operation; `ok == false` counts it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The JSON line for `catalogue`. Every catalogued metric must be
    /// set: a missing one is a bug in the benchmark, not in the program.
    pub fn to_json(&self, catalogue: &[Metric]) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("the run attempted no operation".into());
        }
        let mut metrics = String::new();
        for (i, m) in catalogue.iter().enumerate() {
            let v = self
                .values
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", m.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.valid && self.failed == 0,
            self.attempted,
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogued_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn name_charset_is_enforced() {
        assert!(valid_name("core.reason_max_s"));
        assert!(valid_name("query.Q1_ms"));
        assert!(valid_name("9-lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("wall s"));
        assert!(!valid_name("p99/ms"));
        assert!(!valid_name("naïve"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome::new();
        for m in END_TO_END {
            o.set(m.name, 1.5);
        }
        o.op(true);
        let line = o.to_json(END_TO_END).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.values.remove("wall_s");
        assert!(o.to_json(END_TO_END).is_err());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut o = Outcome::new();
        for m in END_TO_END {
            o.set(m.name, 1.0);
        }
        o.op(true);
        o.op(false);
        let line = o.to_json(END_TO_END).expect("complete");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, "));
    }
}
