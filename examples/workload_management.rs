//! Workload management on top of predictions (paper §I), routed through
//! the multi-tenant serve gateway: per-tenant quotas first, then
//! prediction-driven admission control and kill timeouts.
//!
//! ```text
//! cargo run --release --example workload_management
//! ```

use qpp::core::baselines::OptimizerCostModel;
use qpp::core::pipeline::collect_tpcds;
use qpp::core::workload_mgmt::{AdmissionDecision, AdmissionPolicy};
use qpp::core::{FeatureKind, KccaPredictor, PredictorOptions};
use qpp::engine::SystemConfig;
use qpp::serve::{
    ModelKey, ModelRegistry, PredictRequest, PredictionService, QppError, ServeOptions, TenantId,
    TenantSpec,
};
use std::sync::Arc;
use std::time::Duration;

const INTERACTIVE: TenantId = TenantId(1);
const BATCH: TenantId = TenantId(2);

fn main() {
    let config = SystemConfig::neoview_4();
    println!("calibrating predictor …");
    let train = collect_tpcds(1500, 7, &config, 4);
    let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
    let fallback = OptimizerCostModel::train(&train).unwrap();

    // Policy: nothing predicted over 30 minutes runs during the day, and
    // unfamiliar queries need a human look first.
    let policy = AdmissionPolicy {
        max_elapsed_seconds: 30.0 * 60.0,
        confidence_distance_threshold: 1.5,
        kill_timeout_factor: 3.0,
        ..AdmissionPolicy::default()
    };

    // The tenant gateway: interactive users get a deeper queue slice
    // than the reporting batch, whose quota caps how much of the queue
    // it can occupy at once.
    let key = ModelKey::new(config.name.clone(), FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);
    let service = PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 2,
            max_batch: 4,
            queue_capacity: 64,
            policy,
            tenants: vec![
                TenantSpec::new(INTERACTIVE).quota(8),
                TenantSpec::new(BATCH).quota(4),
            ],
        },
    );

    // A fresh burst of queries: half from interactive users, half from
    // the nightly batch, submitted as fast as the client can go.
    let burst = collect_tpcds(24, 901, &config, 4);
    let mut pending = Vec::new();
    let mut shed: Vec<(usize, TenantId, String)> = Vec::new();
    for (i, r) in burst.records.iter().enumerate() {
        let tenant = if i % 2 == 0 { INTERACTIVE } else { BATCH };
        let mut request = PredictRequest {
            key: key.clone(),
            tenant,
            spec: r.spec.clone(),
            plan: r.optimized.plan.clone(),
            deadline: Duration::from_secs(10),
        };
        // The gateway sheds instantly instead of blocking; a well-behaved
        // client backs off and retries, so over-quota is flow control,
        // not data loss.
        loop {
            match service.submit_async(request) {
                Ok(p) => {
                    pending.push((i, tenant, p));
                    break;
                }
                Err(QppError::TenantQuotaExceeded { tenant: id, quota }) => {
                    shed.push((i, tenant, format!("tenant {id} over quota {quota}")));
                    std::thread::sleep(Duration::from_millis(5));
                    request = PredictRequest {
                        key: key.clone(),
                        tenant,
                        spec: r.spec.clone(),
                        plan: r.optimized.plan.clone(),
                        deadline: Duration::from_secs(10),
                    };
                }
                Err(e) => panic!("gateway refused: {e}"),
            }
        }
    }
    for (i, tenant, reason) in &shed {
        println!(
            "query {i:>2}: SHED    {} ({reason}, retried after backoff)",
            if *tenant == INTERACTIVE {
                "interactive"
            } else {
                "batch"
            },
        );
    }

    // Collect the answers; the service applied the admission policy on
    // the worker, so each response already carries the verdict.
    for (i, tenant, p) in pending {
        let resp = p.wait().expect("generous deadline");
        let label = if tenant == INTERACTIVE {
            "interactive"
        } else {
            "batch"
        };
        let actual = burst.records[i].metrics.elapsed_seconds;
        match &resp.decision {
            AdmissionDecision::Admit {
                kill_timeout_seconds,
            } => {
                println!(
                    "query {i:>2}: ADMIT   {label:<11} predicted {:>8.1}s (kill after {:>8.1}s, actual {:>8.1}s)",
                    resp.prediction.metrics.elapsed_seconds, kill_timeout_seconds, actual
                );
            }
            AdmissionDecision::Reject { reason } => {
                println!("query {i:>2}: REJECT  {label:<11} {reason} (actual {actual:.1}s)");
            }
            AdmissionDecision::ReviewRequired {
                confidence_distance,
            } => {
                println!(
                    "query {i:>2}: REVIEW  {label:<11} unfamiliar query (neighbor distance {confidence_distance:.2}, actual {actual:.1}s)"
                );
            }
        }
    }

    println!("\ngateway ledger:\n{}", service.stats());
}
