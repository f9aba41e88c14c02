//! What a run prints: every metric as `name value unit`, the failed
//! checks, and as the last line the JSON object the benchmark driver reads.

use crate::stat::Rounds;

/// The end-to-end metrics, as `BENCHMARK.json` lists them. Every workload
/// reports every one of them from an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("throughput_rps", "ops/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("elapsed_within_20pct", "ratio"),
    ("neighbor_recall", "ratio"),
];

/// The per-layer metrics, as `BENCHMARK.json` lists them. A traced run
/// reports all of them; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("core.features.us", "us"),
    ("linalg.standardize.us", "us"),
    ("ml.kcca.project.us", "us"),
    ("ml.ann.query.us", "us"),
    ("ml.knn.brute_query.us", "us"),
    ("ml.ann.nlist", "count"),
    ("ml.ann.nprobe", "count"),
    ("ml.kcca.rank", "count"),
    ("core.predict.unattributed_share", "ratio"),
    ("core.dataset.matrices_s", "s"),
    ("linalg.standardize.fit_s", "s"),
    ("ml.kernel.fit_s", "s"),
    ("linalg.icd.factor_s.n400", "s"),
    ("linalg.icd.factor_s.n2000", "s"),
    ("linalg.icd.factor_s.n8000", "s"),
    ("linalg.icd.rank_x", "count"),
    ("linalg.icd.rank_y", "count"),
    ("ml.cca.fit_s.n400", "s"),
    ("ml.cca.fit_s.n2000", "s"),
    ("ml.cca.fit_s.n8000", "s"),
    ("ml.cca.project_matrix_s", "s"),
    ("ml.ann.build_s.n8000", "s"),
    ("core.train.unattributed_share.n400", "ratio"),
    ("core.train.unattributed_share.n2000", "ratio"),
    ("core.train.unattributed_share.n8000", "ratio"),
    ("core.model_io.to_json_s", "s"),
    ("core.model_io.from_json_s", "s"),
    ("core.model_io.json_mb", "MB"),
    ("serve.submit.us", "us"),
    ("serve.wait.us", "us"),
    ("serve.queue_wait.us", "us"),
    ("serve.worker.us", "us"),
    ("serve.predict.us", "us"),
    ("serve.tax.us", "us"),
    ("serve.batch.mean", "count"),
    ("serve.queue.max_depth", "count"),
    ("serve.rejected", "count"),
    ("serve.fallbacks", "count"),
    ("serve.late_answers", "count"),
    ("serve.registry.get.us", "us"),
    ("serve.registry.install.us", "us"),
    ("adapt.observe.us", "us"),
    ("adapt.retrains", "count"),
    ("obs.events_per_op", "count"),
    ("par.threads", "count"),
    ("client.gen_late_p99_us", "us"),
    ("client.latency_p95_us", "us"),
    ("client.latency_p99_us", "us"),
    ("client.slo_5ms_miss_share", "ratio"),
    ("client.trace_overhead_share", "ratio"),
    ("client.direct_predict_p50_us", "us"),
    ("train_s_n400", "s"),
    ("train_s_n2000", "s"),
    ("train_s_n8000", "s"),
    ("failed_share", "ratio"),
];

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    rounds: Option<Rounds>,
}

/// One run's results.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<Metric>,
    failed_checks: Vec<String>,
    warnings: Vec<String>,
    notes: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name} is not listed in report.rs"))
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            failed_checks: Vec::new(),
            warnings: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, mut value: f64, rounds: Option<Rounds>) {
        if !value.is_finite() {
            // NaN is not JSON; a ratio over nothing measured is a failed run.
            self.failed_checks
                .push(format!("{name} is not a finite number"));
            value = 0.0;
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: unit_of(name),
            value,
            rounds,
        });
    }

    /// A metric measured once in the run.
    pub fn value(&mut self, name: &str, value: f64) {
        self.push(name, value, None);
    }

    /// A metric measured every round: the quiet round is its value.
    pub fn rounds(&mut self, name: &str, rounds: Rounds) {
        self.push(name, rounds.quiet, Some(rounds));
    }

    /// A metric measured every round whose median round is its value.
    pub fn median_round(&mut self, name: &str, rounds: Rounds) {
        self.push(name, rounds.median, Some(rounds));
    }

    /// Records the outcome of an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_checks.push(what());
        }
    }

    pub fn warn(&mut self, what: String) {
        self.warnings.push(what);
    }

    /// A line of context that is not a metric (round counts, sizes).
    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    /// The value a metric was reported with.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Prints the run and returns whether every check passed. `traced`
    /// selects which metric list the final JSON line carries.
    pub fn print(&self, traced: bool) -> bool {
        let correct = self.failed_checks.is_empty();
        println!(
            "# workload {} ({})",
            self.workload,
            if traced { "traced" } else { "untraced" }
        );
        for m in &self.metrics {
            match m.rounds {
                Some(r) => println!(
                    "{} {:.6} {}   # {} rounds: quiet {:.6}, median {:.6}, quartiles {:.6} .. {:.6}",
                    m.name, m.value, m.unit, r.rounds, r.quiet, r.median, r.q1, r.q3
                ),
                None => println!("{} {:.6} {}", m.name, m.value, m.unit),
            }
        }
        println!(
            "# requests attempted {} succeeded {} failed {}",
            self.attempted,
            self.attempted - self.failed,
            self.failed
        );
        for n in &self.notes {
            println!("# {n}");
        }
        for w in &self.warnings {
            println!("# WARNING {w}");
        }
        for c in &self.failed_checks {
            println!("# CHECK FAILED {c}");
        }
        let listed: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = listed
            .iter()
            .map(|(name, unit)| {
                let value = match self.get(name) {
                    Some(v) => v,
                    // A traced run reports every layer; the ones this
                    // workload does not pass through did no work.
                    None if traced => 0.0,
                    None => panic!("{} did not report {name}", self.workload),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The names between `"<section>": [` and the closing `]`.
    fn names_in(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section is closed")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("string is closed")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn listed(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_program_prints() {
        assert_eq!(names_in("end_to_end"), listed(&END_TO_END));
        assert_eq!(names_in("per_layer"), listed(&PER_LAYER));
    }

    #[test]
    fn no_metric_name_is_used_twice() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
