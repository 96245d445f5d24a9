//! What one run prints: a parameter line, then the result line
//! `{"correct", "attempted", "failed", "metrics"}`.

use std::collections::BTreeMap;
use std::fmt::Display;

/// Unit of a metric, as printed.
pub type Unit = &'static str;

/// Operation counts, metrics and parameters gathered by one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, Unit)>,
    params: Vec<(String, String)>,
}

impl Report {
    /// Counts one call into the program; an error return is a failed
    /// operation.
    pub fn ok<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("error: {what}: {e}");
                None
            }
        }
    }

    /// Counts one correctness check; a false one is a failed operation.
    pub fn check(&mut self, what: &str, pass: bool) -> bool {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
            eprintln!("mismatch: {what}");
        }
        pass
    }

    /// Counts `attempted` operations of which `failed` failed (batches
    /// a pipeline dropped, say).
    pub fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("failed: {what}: {failed} of {attempted}");
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed over attempted operations so far.
    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: Unit) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records a parameter next to the results; `json` is already a JSON
    /// value.
    pub fn param(&mut self, key: &str, json: impl Display) {
        self.params.push((key.to_string(), json.to_string()));
    }

    /// Prints the parameter line and the result line with exactly the
    /// metrics in `catalog`. A metric the workload did not measure is
    /// printed as 0 when it is in `idle` (a layer the workload does not
    /// exercise) and is a failure otherwise; so is a measured metric the
    /// catalog lacks, or a value that is not finite. Returns whether the
    /// run was correct.
    pub fn print(mut self, catalog: &[(String, Unit)], idle: &[String]) -> bool {
        let mut out = Vec::with_capacity(catalog.len());
        for (name, unit) in catalog {
            match self.metrics.remove(name) {
                Some((v, u)) => {
                    self.check(&format!("{name} is finite"), v.is_finite());
                    self.check(&format!("{name} unit {u} is {unit}"), u == *unit);
                    out.push((name, if v.is_finite() { v } else { 0.0 }, *unit));
                }
                None => {
                    self.check(&format!("{name} measured"), idle.contains(name));
                    out.push((name, 0.0, *unit));
                }
            }
        }
        let extra: Vec<String> = self.metrics.keys().cloned().collect();
        self.check(&format!("catalog lists {extra:?}"), extra.is_empty());

        self.param("error_frac", self.error_frac());
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        println!("{{\"params\": {{{}}}}}", params.join(", "));

        let metrics: Vec<String> = out
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_string(name),
                    json_string(unit)
                )
            })
            .collect();
        let correct = self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// `s` as a JSON string literal (the names here need no escapes beyond
/// quotes and backslashes).
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_failures_and_escapes() {
        let mut r = Report::default();
        assert_eq!(r.ok("fine", Ok::<_, String>(3)), Some(3));
        assert_eq!(r.ok::<u8, _>("bad", Err("boom")), None);
        assert!(r.check("true", true));
        assert!(!r.check("false", false));
        r.count("batches", 10, 1);
        assert_eq!((r.attempted, r.failed), (14, 3));
        assert_eq!(r.error_frac(), 3.0 / 14.0);
        assert_eq!(json_string(r#"a"b\c"#), r#""a\"b\\c""#);
    }

    fn catalog(names: &[&str]) -> Vec<(String, Unit)> {
        names.iter().map(|n| (n.to_string(), "ms")).collect()
    }

    #[test]
    fn only_idle_metrics_may_go_unmeasured() {
        let mut r = Report::default();
        r.metric("a", 1.0, "ms");
        assert!(r.print(&catalog(&["a", "b"]), &["b".to_string()]));

        let mut r = Report::default();
        r.metric("a", 1.0, "ms");
        assert!(!r.print(&catalog(&["a", "b"]), &[]));

        let mut r = Report::default();
        r.metric("a", 1.0, "ms");
        r.metric("c", 1.0, "ms");
        assert!(!r.print(&catalog(&["a"]), &[]), "c is not in the catalog");
    }
}
