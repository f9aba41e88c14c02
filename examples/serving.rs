//! Closed-loop online serving demo: a model registry feeding a
//! batched worker pool, with a hot-swap landing mid-run.
//!
//! Eight producers push prediction requests through a 4-worker
//! service; halfway through, a freshly retrained model is hot-swapped
//! into the registry without dropping, failing, or duplicating a
//! single request. Ends with the service stats snapshot and — when
//! `QPP_TRACE_OUT` is set — a JSONL dump of the qpp-obs event ring.
//!
//! Environment knobs (all optional, used by `ci.sh`'s obs smoke gate):
//! - `QPP_DEMO_TRAIN`: training-set size per model generation (400)
//! - `QPP_DEMO_REQUESTS`: total requests across producers (10000)
//! - `QPP_DEADLINE_US`: per-request deadline in microseconds (5s);
//!   tight values force deadline fallbacks, which the trace tags
//! - `QPP_TRACE_OUT`: path to write the JSONL trace + counters to
//!
//! ```text
//! cargo run --release --example serving
//! QPP_DEADLINE_US=50 QPP_TRACE_OUT=trace.jsonl \
//!     cargo run --release --example serving
//! ```

use qpp::core::baselines::OptimizerCostModel;
use qpp::core::pipeline::collect_tpcds;
use qpp::core::{FeatureKind, KccaPredictor, PredictorOptions};
use qpp::engine::SystemConfig;
use qpp::obs::{EventKind, Stage};
use qpp::serve::{ModelKey, ModelRegistry, PredictRequest, PredictionService, ServeOptions};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const PRODUCERS: usize = 8;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let demo_train = env_usize("QPP_DEMO_TRAIN", 400).max(50);
    let per_producer = (env_usize("QPP_DEMO_REQUESTS", 10_000) / PRODUCERS).max(1);
    let deadline = Duration::from_micros(env_usize("QPP_DEADLINE_US", 5_000_000) as u64);
    let trace_out = std::env::var("QPP_TRACE_OUT").ok();

    let config = SystemConfig::neoview_4();
    println!("training two model generations …");
    let train_v1 = collect_tpcds(demo_train, 11, &config, 4);
    let train_v2 = collect_tpcds(demo_train, 23, &config, 4);
    let model_v1 = KccaPredictor::train(&train_v1, PredictorOptions::default()).unwrap();
    let model_v2 = KccaPredictor::train(&train_v2, PredictorOptions::default()).unwrap();
    let fallback_v1 = OptimizerCostModel::train(&train_v1).unwrap();
    let fallback_v2 = OptimizerCostModel::train(&train_v2).unwrap();

    let key = ModelKey::new(config.name.clone(), FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry.install(key.clone(), model_v1, fallback_v1);
    println!("installed {key} v{v1}");

    let service = Arc::new(PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 4,
            queue_capacity: 512,
            max_batch: 16,
            ..ServeOptions::default()
        },
    ));

    // Fresh queries the models have never seen.
    let live = collect_tpcds(200.min(demo_train), 77, &config, 4);
    println!(
        "serving {} requests from {PRODUCERS} producers …",
        PRODUCERS * per_producer
    );

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let service = Arc::clone(&service);
            let live = live.clone();
            let key = key.clone();
            std::thread::spawn(move || {
                let mut by_version: BTreeMap<u64, usize> = BTreeMap::new();
                let mut failed = 0usize;
                for i in 0..per_producer {
                    let r = &live.records[(p * per_producer + i) % live.records.len()];
                    let outcome = service.submit(PredictRequest {
                        key: key.clone(),
                        tenant: qpp::serve::DEFAULT_TENANT,
                        spec: r.spec.clone(),
                        plan: r.optimized.plan.clone(),
                        deadline,
                    });
                    match outcome {
                        Ok(resp) => *by_version.entry(resp.model_version).or_default() += 1,
                        Err(_) => failed += 1,
                    }
                }
                (by_version, failed)
            })
        })
        .collect();

    // Hot-swap a retrained model while the producers hammer the service.
    std::thread::sleep(Duration::from_millis(150));
    let v2 = registry.install(key.clone(), model_v2, fallback_v2);
    println!("hot-swapped {key} to v{v2} mid-run");

    let mut by_version: BTreeMap<u64, usize> = BTreeMap::new();
    let mut failed = 0usize;
    for handle in producers {
        let (versions, f) = handle.join().unwrap();
        failed += f;
        for (v, n) in versions {
            *by_version.entry(v).or_default() += n;
        }
    }

    let answered: usize = by_version.values().sum();
    println!("\nanswered {answered} requests, {failed} failed");
    for (v, n) in &by_version {
        println!("  model v{v}: {n} answers");
    }
    assert_eq!(answered, PRODUCERS * per_producer, "every request answered");
    assert_eq!(failed, 0, "no request failed across the hot swap");

    let snapshot = service.stats();
    println!("\nservice stats:\n{snapshot}");

    // Drain the workers before exporting so every queued request has
    // finished recording its spans into the ring.
    Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("producers joined, no service clones remain"))
        .shutdown();

    let events = qpp::obs::recorder().export();
    let complete = complete_traces(&events);
    println!(
        "\ntrace ring holds {} events; {} recent traces carry the full \
         admission -> queue_wait -> worker -> predict span chain",
        events.len(),
        complete
    );
    assert!(
        complete >= 1,
        "at least one request's full span chain must survive in the ring"
    );

    if let Some(path) = trace_out {
        let mut out = qpp::obs::to_jsonl(&events);
        out.push_str(&snapshot.counters_jsonl());
        std::fs::write(&path, out).unwrap();
        println!("wrote {} trace events to {path}", events.len());
    }
}

/// Counts trace IDs whose admission, queue-wait, worker, and predict
/// spans all survive in the (bounded, lap-prone) event ring.
fn complete_traces(events: &[qpp::obs::Event]) -> usize {
    let mut stages_by_trace: BTreeMap<u64, u8> = BTreeMap::new();
    for e in events {
        if e.trace_id == 0 || e.kind != EventKind::Span {
            continue;
        }
        let bit = match e.stage {
            Stage::Admission => 1u8,
            Stage::QueueWait => 2,
            Stage::Worker => 4,
            Stage::Predict => 8,
            _ => continue,
        };
        *stages_by_trace.entry(e.trace_id).or_default() |= bit;
    }
    stages_by_trace.values().filter(|&&m| m == 0b1111).count()
}
