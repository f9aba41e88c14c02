//! Sliding-window retraining (paper §VII-C.4, future work).
//!
//! The paper notes KCCA training is cubic and proposes "a sliding
//! training set of data with a larger emphasis on more recently
//! executed queries". This module implements that: a bounded window of
//! the most recent executed queries, refreshed into a new model when
//! enough new observations accumulate.

use crate::dataset::{Dataset, QueryRecord};
use crate::error::QppError;
use crate::predictor::{KccaPredictor, PredictorOptions};
use qpp_engine::SystemConfig;
use qpp_workload::Schema;
use std::collections::VecDeque;

/// A continuously retrainable predictor over a sliding window of
/// recently executed queries.
#[derive(Debug, Clone)]
pub struct SlidingWindowPredictor {
    window: VecDeque<QueryRecord>,
    capacity: usize,
    refresh_every: usize,
    seen_since_refresh: usize,
    options: PredictorOptions,
    model: Option<KccaPredictor>,
    /// The seed dataset's configuration and schema, which every window
    /// snapshot carries.
    config: SystemConfig,
    schema: Schema,
}

/// Fewest records KCCA can sensibly train on; retraining is deferred
/// until the window holds at least this many.
pub const MIN_TRAIN_WINDOW: usize = 8;

impl SlidingWindowPredictor {
    /// Creates a window of at most `capacity` records that retrains
    /// after every `refresh_every` new observations. The seed's records
    /// move into the window; only its newest `capacity` are kept.
    pub fn new(
        seed: Dataset,
        capacity: usize,
        refresh_every: usize,
        options: PredictorOptions,
    ) -> Self {
        assert!(
            capacity >= MIN_TRAIN_WINDOW,
            "window too small to train KCCA"
        );
        assert!(refresh_every >= 1);
        let Dataset {
            config,
            schema,
            records,
        } = seed;
        // Keep only the newest `capacity` records of an oversized
        // seed: the window invariant (len <= capacity, oldest
        // evicted first) must hold from construction, not only after
        // the first `observe`.
        let mut window = VecDeque::from(records);
        window.drain(..window.len().saturating_sub(capacity));
        SlidingWindowPredictor {
            window,
            capacity,
            refresh_every,
            seen_since_refresh: 0,
            options,
            model: None,
            config,
            schema,
        }
    }

    /// Observes one newly executed query; retrains when due. Returns
    /// true when a retrain happened.
    ///
    /// Retraining is deferred until the window holds at least
    /// [`MIN_TRAIN_WINDOW`] records: a fresh window seeded with too few
    /// records (or none) used to retrain on the very first observation
    /// because `model.is_none()`, handing KCCA a training set it cannot
    /// fit.
    pub fn observe(&mut self, record: QueryRecord) -> Result<bool, QppError> {
        self.push(record);
        self.seen_since_refresh += 1;
        if self.window.len() < MIN_TRAIN_WINDOW {
            return Ok(false);
        }
        if self.model.is_none() || self.seen_since_refresh >= self.refresh_every {
            self.retrain()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Appends one record to the window (evicting the oldest beyond
    /// capacity) without any retraining. The adaptive control plane
    /// uses this to keep the window fresh while retrains run on a
    /// background worker at moments *it* chooses.
    pub fn push(&mut self, record: QueryRecord) {
        self.window.push_back(record);
        while self.window.len() > self.capacity {
            self.window.pop_front();
        }
    }

    /// Forces a retrain on the current window.
    pub fn retrain(&mut self) -> Result<(), QppError> {
        let ds = self.window_dataset();
        self.model = Some(KccaPredictor::train(&ds, self.options)?);
        self.seen_since_refresh = 0;
        Ok(())
    }

    /// Snapshot of the current window as a standalone dataset (the
    /// exact records a retrain would train on).
    pub fn window_dataset(&self) -> Dataset {
        Dataset {
            config: self.config.clone(),
            schema: self.schema.clone(),
            records: self.window.iter().cloned().collect(),
        }
    }

    /// The predictor options a retrain would train with.
    pub fn options(&self) -> PredictorOptions {
        self.options
    }

    /// The current model, if one has been trained.
    pub fn model(&self) -> Option<&KccaPredictor> {
        self.model.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_engine::SystemConfig;
    use qpp_workload::{Schema, WorkloadGenerator};

    fn dataset(n: usize, seed: u64) -> Dataset {
        let schema = Schema::tpcds(1.0);
        let mut g = WorkloadGenerator::tpcds(1.0, seed);
        Dataset::collect(&schema, g.generate(n), &SystemConfig::neoview_4(), 2)
    }

    #[test]
    fn window_evicts_oldest_and_retrains() {
        let seed_data = dataset(40, 71);
        let more = dataset(30, 72);
        let mut sw =
            SlidingWindowPredictor::new(seed_data.clone(), 50, 10, PredictorOptions::default());
        sw.retrain().unwrap();
        assert!(sw.model().is_some());
        let before = sw.model().unwrap().training_size();
        let mut retrains = 0;
        for r in more.records {
            if sw.observe(r).unwrap() {
                retrains += 1;
            }
        }
        assert!(retrains >= 3, "retrained {retrains} times");
        assert_eq!(sw.window_dataset().len(), 50); // capacity respected
        let after = sw.model().unwrap().training_size();
        assert_eq!(after, 50);
        assert!(after >= before);
    }

    /// Regression: the constructor used to copy the whole template into
    /// the window without trimming, so a template larger than `capacity`
    /// violated the window invariant (and the first retrain trained on
    /// more records than the window was ever supposed to hold) until
    /// enough `observe` calls flushed the excess.
    #[test]
    fn constructor_trims_oversized_template_to_capacity() {
        let seed_data = dataset(40, 75);
        let newest_ids: Vec<u64> = seed_data.records[30..].iter().map(|r| r.spec.id).collect();
        let sw = SlidingWindowPredictor::new(seed_data, 10, 5, PredictorOptions::default());
        assert_eq!(
            sw.window_dataset().len(),
            10,
            "window must respect capacity at birth"
        );
        let window_ids: Vec<u64> = sw.window.iter().map(|r| r.spec.id).collect();
        assert_eq!(
            window_ids, newest_ids,
            "trimming must evict the oldest records, keeping the newest"
        );
    }

    /// The seed's records move into the window: each kept record is the
    /// very one the caller built (its heap text at the same address),
    /// not a clone beside a second copy of the seed.
    #[test]
    fn constructor_holds_each_seed_record_once() {
        let seed_data = dataset(20, 80);
        let address = |r: &QueryRecord| r.spec.template.as_ptr();
        let newest: Vec<_> = seed_data.records[5..].iter().map(address).collect();
        let sw = SlidingWindowPredictor::new(seed_data, 15, 5, PredictorOptions::default());
        let kept: Vec<_> = sw.window.iter().map(address).collect();
        assert_eq!(kept, newest);
    }

    /// Regression: `observe` used to retrain whenever `model.is_none()`,
    /// including on the very first observation into an empty window —
    /// KCCA then trained on a single record and failed. Retraining must
    /// wait until the window reaches the minimum trainable size.
    #[test]
    fn observe_defers_retraining_until_window_is_trainable() {
        let seed = dataset(0, 76); // empty template: config + schema only
        let feed = dataset(MIN_TRAIN_WINDOW + 4, 77);
        let mut sw = SlidingWindowPredictor::new(seed, 32, 1, PredictorOptions::default());
        assert_eq!(sw.window_dataset().len(), 0);
        for (i, r) in feed.records.into_iter().enumerate() {
            let retrained = sw
                .observe(r)
                .unwrap_or_else(|e| panic!("observation {i} must not fail: {e}"));
            if i + 1 < MIN_TRAIN_WINDOW {
                assert!(
                    !retrained,
                    "retrained at window size {} (< minimum {})",
                    i + 1,
                    MIN_TRAIN_WINDOW
                );
                assert!(sw.model().is_none());
            } else {
                // refresh_every = 1: every observation past the minimum
                // retrains, and the model trains on the full window.
                assert!(retrained, "no retrain at trainable size {}", i + 1);
                assert_eq!(sw.model().unwrap().training_size(), i + 1);
            }
        }
    }

    #[test]
    fn push_never_retrains_and_window_dataset_matches() {
        let seed = dataset(10, 78);
        let extra = dataset(5, 79);
        let mut sw = SlidingWindowPredictor::new(seed, 12, 1, PredictorOptions::default());
        for r in extra.records {
            sw.push(r);
        }
        assert!(sw.model().is_none(), "push must not train");
        let ds = sw.window_dataset();
        assert_eq!(ds.len(), 12, "capacity still enforced");
        let window_ids: Vec<u64> = sw.window.iter().map(|r| r.spec.id).collect();
        let ds_ids: Vec<u64> = ds.records.iter().map(|r| r.spec.id).collect();
        assert_eq!(window_ids, ds_ids);
    }

    #[test]
    fn model_stays_usable_between_refreshes() {
        let seed_data = dataset(30, 73);
        let extra = dataset(3, 74);
        let mut sw =
            SlidingWindowPredictor::new(seed_data.clone(), 64, 100, PredictorOptions::default());
        sw.retrain().unwrap();
        for r in extra.records {
            sw.observe(r).unwrap();
        }
        let r = &seed_data.records[0];
        let p = sw
            .model()
            .unwrap()
            .predict(&r.spec, &r.optimized.plan)
            .unwrap();
        assert!(p.metrics.is_valid());
    }
}
