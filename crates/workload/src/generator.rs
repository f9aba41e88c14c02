//! Seeded workload generation.

use crate::schema::Schema;
use crate::spec::QuerySpec;
use crate::templates::{tpcds_suite, Template, TemplateClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates query workloads from a template suite against one schema.
///
/// Fully deterministic given the seed, so experiments are reproducible
/// bit for bit.
#[derive(Debug)]
pub struct WorkloadGenerator {
    schema: Schema,
    templates: Vec<Template>,
    cumulative_weights: Vec<f64>,
    rng: StdRng,
    next_id: u64,
}

impl WorkloadGenerator {
    /// Generator over the TPC-DS suite (standard + problem templates).
    pub fn tpcds(scale_factor: f64, seed: u64) -> Self {
        Self::new(Schema::tpcds(scale_factor), tpcds_suite(), seed)
    }

    /// Generator over an explicit template suite.
    pub fn new(schema: Schema, templates: Vec<Template>, seed: u64) -> Self {
        assert!(!templates.is_empty(), "template suite must be non-empty");
        let mut acc = 0.0;
        let cumulative_weights = templates
            .iter()
            .map(|t| {
                acc += t.weight.max(0.0);
                acc
            })
            .collect();
        WorkloadGenerator {
            schema,
            templates,
            cumulative_weights,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// The schema queries are generated against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Generates one query from a weighted-random template.
    pub fn generate_one(&mut self) -> QuerySpec {
        // The constructor rejects empty template lists, so the weight
        // table is never empty; the fallback keeps this path panic-free.
        let total = self.cumulative_weights.last().copied().unwrap_or(1.0);
        let roll: f64 = self.rng.random_range(0.0..total);
        let idx = self
            .cumulative_weights
            .partition_point(|&w| w <= roll)
            .min(self.templates.len() - 1);
        self.generate_from(idx)
    }

    /// Generates a batch of `n` queries.
    pub fn generate(&mut self, n: usize) -> Vec<QuerySpec> {
        (0..n).map(|_| self.generate_one()).collect()
    }

    /// Generates one query from the template at `idx`.
    fn generate_from(&mut self, idx: usize) -> QuerySpec {
        let id = self.next_id;
        self.next_id += 1;
        self.templates[idx].instantiate(&self.schema, id, &mut self.rng)
    }

    /// Generates `n` queries restricted to templates of `class`.
    pub fn generate_class(&mut self, class: TemplateClass, n: usize) -> Vec<QuerySpec> {
        let idxs: Vec<usize> = self
            .templates
            .iter()
            .enumerate()
            .filter(|(_, t)| t.class == class)
            .map(|(i, _)| i)
            .collect();
        assert!(!idxs.is_empty(), "no templates of class {class:?}");
        (0..n)
            .map(|_| {
                let i = idxs[self.rng.random_range(0..idxs.len())];
                self.generate_from(i)
            })
            .collect()
    }

    /// Template suite in use.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = WorkloadGenerator::tpcds(1.0, 99);
        let mut b = WorkloadGenerator::tpcds(1.0, 99);
        assert_eq!(a.generate(25), b.generate(25));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = WorkloadGenerator::tpcds(1.0, 1);
        let mut b = WorkloadGenerator::tpcds(1.0, 2);
        assert_ne!(a.generate(25), b.generate(25));
    }

    #[test]
    fn ids_unique_and_increasing() {
        let mut g = WorkloadGenerator::tpcds(1.0, 7);
        let qs = g.generate(50);
        for (i, q) in qs.iter().enumerate() {
            assert_eq!(q.id, i as u64);
        }
    }

    #[test]
    fn all_generated_queries_valid() {
        let mut g = WorkloadGenerator::tpcds(1.0, 5);
        for q in g.generate(300) {
            assert_eq!(q.validate(), Ok(()), "query {} ({})", q.id, q.template);
        }
    }

    #[test]
    fn class_restricted_generation() {
        let mut g = WorkloadGenerator::tpcds(1.0, 3);
        for q in g.generate_class(TemplateClass::Problem, 20) {
            assert!(q.template.starts_with("problem_"), "{}", q.template);
        }
    }

    #[test]
    fn weighted_sampling_covers_many_templates() {
        let mut g = WorkloadGenerator::tpcds(1.0, 13);
        let qs = g.generate(500);
        let mut names: Vec<&str> = qs.iter().map(|q| q.template.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert!(names.len() > 15, "only {} templates sampled", names.len());
    }
}
