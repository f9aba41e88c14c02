//! Property tests for the multi-tenant queue: quota isolation
//! under flooding, deterministic deficit-round-robin ordering, and
//! weight-proportional service — each checked over hundreds of seeded
//! arrival scripts; script `seed` is `StdRng::seed_from_u64(seed)`.

use qpp_serve::{QppError, TenantId, TenantQueue, TenantSpec, TenantTable};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Backpressure property (no cross-tenant starvation): a tenant
/// flooding past its quota is shed exactly in proportion to its
/// over-quota submission, and a bystander tenant within its own quota
/// is never rejected — over 220 seeded arrival scripts varying quota,
/// flood volume, and interleaving.
#[test]
fn per_tenant_rejects_are_proportional_to_over_quota_submission() {
    for seed in 0..220u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let quota = rng.random_range(2usize..=8);
        let floods = quota as u64 + rng.random_range(1u64..=40); // always over quota
        let bystander_n = rng.random_range(1u64..=8);
        let table = Arc::new(TenantTable::new(vec![
            TenantSpec::new(TenantId(1), "flooder").quota(quota),
            TenantSpec::new(TenantId(2), "bystander").quota(8),
        ]));
        let flooder = table.resolve(TenantId(1));
        let bystander = table.resolve(TenantId(2));
        // Capacity 16: the flooder's *quota* (never raw capacity) is
        // the only thing that can shed its traffic, and the bystander's
        // 8 slots always fit beside the flooder's <= 8.
        let q: TenantQueue<u64> = TenantQueue::new(16, Arc::clone(&table));

        // Random interleaving of the two tenants' arrivals.
        let mut script: Vec<usize> = Vec::new();
        script.extend(std::iter::repeat_n(flooder, floods as usize));
        script.extend(std::iter::repeat_n(bystander, bystander_n as usize));
        script.shuffle(&mut rng);

        let mut rejects = [0u64; 2];
        let mut accepts = [0u64; 2];
        for (i, &tenant) in script.iter().enumerate() {
            match q.try_push(tenant, i as u64) {
                Ok(_) => accepts[tenant - 1] += 1,
                Err(QppError::TenantQuotaExceeded {
                    tenant: id,
                    quota: reported,
                }) => {
                    assert_eq!(id, tenant as u32, "seed {seed}: reject names the tenant");
                    assert_eq!(reported, if tenant == flooder { quota } else { 8 });
                    rejects[tenant - 1] += 1;
                }
                Err(e) => panic!("seed {seed}: unexpected rejection {e:?}"),
            }
        }
        // The flooder is shed exactly its over-quota excess; nothing
        // it did rejected the bystander.
        assert_eq!(
            accepts[flooder - 1],
            quota as u64,
            "seed {seed}: flooder holds exactly its quota"
        );
        assert_eq!(
            rejects[flooder - 1],
            floods - quota as u64,
            "seed {seed}: flooder shed = over-quota excess"
        );
        assert_eq!(
            rejects[bystander - 1],
            0,
            "seed {seed}: a flooding tenant must not starve a bystander"
        );
        assert_eq!(accepts[bystander - 1], bystander_n);
        // Quota accounting matches what is actually queued.
        assert_eq!(q.queued_for(flooder), quota);
        assert_eq!(q.queued_for(bystander), bystander_n as usize);
        assert_eq!(q.len(), quota + bystander_n as usize);
    }
}

/// Determinism property: the same seeded arrival script drained from
/// identically configured queues yields bitwise-identical drain order,
/// including the DRR cursor/deficit evolution across partial batches.
#[test]
fn drr_drain_order_is_reproducible_for_a_fixed_script() {
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<u32> = (0..3).map(|_| rng.random_range(1u32..=4)).collect();
        let table = Arc::new(TenantTable::new(vec![
            TenantSpec::new(TenantId(1), "a").weight(weights[0]),
            TenantSpec::new(TenantId(2), "b").weight(weights[1]),
            TenantSpec::new(TenantId(3), "c").weight(weights[2]),
        ]));
        let script: Vec<usize> = (0..rng.random_range(10..=60))
            .map(|_| table.resolve(TenantId(rng.random_range(1u32..=3))))
            .collect();
        let batch = rng.random_range(1usize..=7);

        let run = |table: &Arc<TenantTable>| -> Vec<u64> {
            let q: TenantQueue<u64> = TenantQueue::new(1024, Arc::clone(table));
            for (i, &t) in script.iter().enumerate() {
                q.try_push(t, i as u64).expect("capacity 1024 never fills");
            }
            let mut order = Vec::new();
            let mut out = Vec::new();
            while q.try_drain(batch, &mut out) > 0 {
                order.extend_from_slice(&out);
            }
            order
        };

        let first = run(&table);
        let second = run(&table);
        assert_eq!(first.len(), script.len(), "seed {seed}: nothing lost");
        assert_eq!(first, second, "seed {seed}: drain order must reproduce");
    }
}

/// Fairness property: with every tenant lane fully backlogged, the
/// deficit-round-robin drain serves each tenant within one weight
/// quantum of its exact fair share of *everything* the queue handed
/// out, for seeded random weights — through the worker's real blocking
/// entry point, `drain`.
#[test]
fn backlogged_drain_shares_track_weights() {
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<u64> = (0..3).map(|_| rng.random_range(1u64..=5)).collect();
        let table = Arc::new(TenantTable::new(vec![
            TenantSpec::new(TenantId(1), "a").weight(weights[0] as u32),
            TenantSpec::new(TenantId(2), "b").weight(weights[1] as u32),
            TenantSpec::new(TenantId(3), "c").weight(weights[2] as u32),
        ]));
        let q: TenantQueue<(usize, u64)> = TenantQueue::new(4096, Arc::clone(&table));
        // Deep backlogs: every lane always has work, so shares are
        // governed purely by the weights.
        let backlog = 100;
        for i in 0..backlog {
            for id in 1..=3u32 {
                let t = table.resolve(TenantId(id));
                q.try_push(t, (t, i as u64)).expect("fits");
            }
        }
        // Drain a window that keeps every lane non-empty throughout.
        let total_weight: u64 = weights.iter().sum();
        let total = 20 * total_weight;
        let mut got = [0u64; 4];
        let mut drained = 0;
        let mut out = Vec::new();
        while drained < total {
            let max_batch = (total - drained).min(16) as usize;
            assert!(q.drain(max_batch, &mut out), "backlog cannot run dry");
            for (t, _) in &out {
                got[*t] += 1;
            }
            drained += out.len() as u64;
        }
        // Dense tenant indices 1..=3 (the default tenant is 0).
        for t in 1..=3usize {
            // |got - total * w / total_weight| <= w, in integers.
            let w = weights[t - 1];
            let diff = (got[t] * total_weight).abs_diff(total * w);
            assert!(
                diff <= w * total_weight,
                "seed {seed}: tenant {t} served {} of {total} (weight {w} of {total_weight})",
                got[t]
            );
        }
    }
}
