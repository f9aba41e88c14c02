//! `KccaPredictor::predict` and `KccaPredictor::train` taken apart into the
//! public calls they are made of, so each layer can be timed from outside.
//!
//! Both replicas run the same floating-point operations in the same order as
//! the whole call, and the workloads check that: a staged answer equals the
//! whole answer bit for bit, or the ledger would be timing something else.

use crate::trace::OpSpan;
use crate::Clock;
use qpp_core::features::query_features;
use qpp_core::{Dataset, KccaPredictor, Prediction, PredictorOptions};
use qpp_engine::Plan;
use qpp_linalg::stats::Standardizer;
use qpp_linalg::{vector, IcdOptions, IncompleteCholesky, Matrix};
use qpp_ml::{
    AnnIndex, Cca, CcaOptions, GaussianKernel, KnnScratch, NearestNeighbors, Neighbor,
    ProjectionScratch,
};
use qpp_workload::QuerySpec;

/// Appends a span that starts where the previous stage ended.
fn stage(
    spans: &mut Vec<OpSpan>,
    clock: &Clock,
    name: &'static str,
    parent: usize,
    from: &mut u64,
) {
    let now = clock.now_ns();
    spans.push(OpSpan {
        name,
        start_ns: *from,
        end_ns: now,
        parent: Some(parent),
    });
    *from = now;
}

/// `predict(spec, plan)` as features -> standardize -> project -> neighbours,
/// with a brute-force scan over the same projection as the oracle.
pub struct StagedPredict<'a> {
    model: &'a KccaPredictor,
    /// The model keeps its standardizer private; fitting one on the same
    /// feature matrix gives the same means and deviations bit for bit.
    scaler: Standardizer,
    oracle: NearestNeighbors,
    scaled: Vec<f64>,
    projection: ProjectionScratch,
    projected: Vec<f64>,
    knn: KnnScratch,
    brute: Vec<Neighbor>,
}

impl<'a> StagedPredict<'a> {
    pub fn new(model: &'a KccaPredictor, train: &Dataset) -> Self {
        let options = model.options();
        StagedPredict {
            model,
            scaler: Standardizer::fit(&train.feature_matrix(options.feature_kind)),
            oracle: NearestNeighbors::new(model.kcca().query_projection().clone(), options.metric),
            scaled: Vec::new(),
            projection: ProjectionScratch::new(),
            projected: Vec::new(),
            knn: KnnScratch::new(),
            brute: Vec::new(),
        }
    }

    /// Runs the four stages, appending one span each under `parent`, and
    /// returns the largest kernel similarity. The neighbours are left in
    /// `self.knn.neighbors`.
    pub fn run(
        &mut self,
        spec: &QuerySpec,
        plan: &Plan,
        clock: &Clock,
        spans: &mut Vec<OpSpan>,
        parent: usize,
    ) -> f64 {
        let options = self.model.options();
        let mut t = clock.now_ns();
        let features = query_features(options.feature_kind, spec, plan);
        stage(spans, clock, "core.features", parent, &mut t);
        self.scaler.transform_row_into(&features, &mut self.scaled);
        stage(spans, clock, "linalg.standardize", parent, &mut t);
        let similarity = self
            .model
            .kcca()
            .project_query_into(&self.scaled, &mut self.projection, &mut self.projected)
            .expect("live queries project");
        stage(spans, clock, "ml.kcca.project", parent, &mut t);
        self.model
            .index()
            .query_into(&self.projected, options.neighbors, &mut self.knn);
        stage(spans, clock, "ml.ann.query", parent, &mut t);
        similarity
    }

    /// The brute-force scan for the probe `run` just projected.
    pub fn brute_query(&mut self, clock: &Clock, spans: &mut Vec<OpSpan>, parent: usize) {
        let mut t = clock.now_ns();
        self.oracle.query_into(
            &self.projected,
            self.model.options().neighbors,
            &mut self.brute,
        );
        stage(spans, clock, "ml.knn.brute_query", parent, &mut t);
    }

    /// Whether the last `run` found what the whole `predict` answered: the
    /// same neighbours, confidence distance and kernel similarity.
    pub fn agrees_with(&self, whole: &Prediction, similarity: f64) -> bool {
        let found = &self.knn.neighbors;
        let distance = vector::sum_iter(found.iter().map(|n| n.distance)) / found.len() as f64;
        found
            .iter()
            .map(|n| n.index)
            .eq(whole.neighbor_indices.iter().copied())
            && distance.to_bits() == whole.confidence_distance.to_bits()
            && similarity.to_bits() == whole.max_kernel_similarity.to_bits()
    }

    /// Share of the oracle's neighbours that the model's index also finds,
    /// over every query of `live`.
    pub fn neighbor_recall(&mut self, live: &Dataset) -> f64 {
        let clock = Clock::start();
        let mut spans = Vec::new();
        let (mut agreed, mut wanted) = (0usize, 0usize);
        for r in &live.records {
            spans.clear();
            self.run(&r.spec, &r.optimized.plan, &clock, &mut spans, 0);
            self.brute_query(&clock, &mut spans, 0);
            wanted += self.brute.len();
            agreed += self
                .brute
                .iter()
                .filter(|b| self.knn.neighbors.iter().any(|n| n.index == b.index))
                .count();
        }
        agreed as f64 / wanted.max(1) as f64
    }
}

/// What a staged fit produces, for comparison with the whole `train`.
pub struct StagedFit {
    pub query_projection: Matrix,
    pub correlations: Vec<f64>,
    pub rank_x: usize,
    pub rank_y: usize,
}

/// `KccaPredictor::train(dataset, options)` stage by stage; appends one span
/// per stage under `parent`.
pub fn staged_train(
    dataset: &Dataset,
    options: PredictorOptions,
    clock: &Clock,
    spans: &mut Vec<OpSpan>,
    parent: usize,
) -> StagedFit {
    let mut t = clock.now_ns();
    let x_raw = dataset.feature_matrix(options.feature_kind);
    let y = dataset.kernel_performance_matrix();
    let raw_performance = dataset.performance_matrix();
    stage(spans, clock, "core.dataset.matrices", parent, &mut t);

    let scaler = Standardizer::fit(&x_raw);
    let x = scaler.transform(&x_raw);
    stage(spans, clock, "linalg.standardize.fit", parent, &mut t);

    let (x, y) = (x.view(), y.view());
    let x_kernel = GaussianKernel::fit(x, options.kcca.x_kernel_fraction);
    let y_kernel = GaussianKernel::fit(y, options.kcca.y_kernel_fraction);
    stage(spans, clock, "ml.kernel.fit", parent, &mut t);

    let icd = IcdOptions {
        max_rank: options.kcca.max_rank,
        relative_tolerance: options.kcca.icd_tolerance,
    };
    let n = x.rows();
    let x_icd = IncompleteCholesky::factor(n, |i, j| x_kernel.eval(x.row(i), x.row(j)), icd)
        .expect("query-side kernel factors");
    let y_icd = IncompleteCholesky::factor(n, |i, j| y_kernel.eval(y.row(i), y.row(j)), icd)
        .expect("performance-side kernel factors");
    stage(spans, clock, "linalg.icd.factor", parent, &mut t);

    let cca = Cca::fit(
        x_icd.g(),
        y_icd.g(),
        CcaOptions {
            components: options.kcca.components,
            regularization: options.kcca.regularization,
            ..CcaOptions::default()
        },
    )
    .expect("cca fits");
    stage(spans, clock, "ml.cca.fit", parent, &mut t);

    let query_projection = cca.project_x_matrix(x_icd.g());
    let performance_projection = cca.project_y_matrix(y_icd.g());
    let pivots = x.select_rows(x_icd.pivots());
    stage(spans, clock, "ml.cca.project_matrix", parent, &mut t);

    let index = AnnIndex::build(query_projection.clone(), options.metric, &options.ann)
        .expect("neighbour index builds");
    stage(spans, clock, "ml.ann.build", parent, &mut t);

    std::hint::black_box((&raw_performance, &performance_projection, &pivots, &index));
    StagedFit {
        query_projection,
        correlations: cca.correlations.clone(),
        rank_x: x_icd.rank(),
        rank_y: y_icd.rank(),
    }
}
