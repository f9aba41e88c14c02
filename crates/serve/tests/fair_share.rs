//! Property tests for the multi-tenant queue: quota isolation under
//! flooding, and arrival-order draining that frees every quota — each
//! checked over hundreds of seeded arrival scripts; script `seed` is
//! `StdRng::seed_from_u64(seed)`.

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
fn quota_rejects_are_proportional_to_over_quota_submission() {
    for seed in 0..220u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let quota = rng.random_range(2usize..=8);
        let floods = quota as u64 + rng.random_range(1u64..=40); // always over quota
        let bystander_n = rng.random_range(1u64..=8);
        let table = Arc::new(TenantTable::new(vec![
            TenantSpec::new(TenantId(1)).quota(quota),
            TenantSpec::new(TenantId(2)).quota(8),
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
                    assert_eq!(id, tenant as u16, "seed {seed}: reject names the tenant");
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

/// FIFO property: seeded scripts interleave pushes from three tenants
/// with random quotas against drains of random batch sizes, through
/// both the non-blocking `try_drain` and the workers' blocking `drain`.
/// Items leave in the order they were accepted, whatever their tenant;
/// nothing is lost; and each tenant's queued count tracks what it holds
/// back down to zero, so a freed quota admits again.
#[test]
fn drain_keeps_arrival_order_and_frees_every_quota() {
    const CAPACITY: usize = 12;
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let quotas: Vec<usize> = (0..3).map(|_| rng.random_range(1usize..=4)).collect();
        let table = Arc::new(TenantTable::new(
            (1..=3u16)
                .map(|id| TenantSpec::new(TenantId(id)).quota(quotas[usize::from(id) - 1]))
                .collect(),
        ));
        let q: TenantQueue<u64> = TenantQueue::new(CAPACITY, Arc::clone(&table));
        // Dense indices 1..=3 (the default tenant is 0).
        let mut held = [0usize; 4];
        let (mut accepted, mut drained) = (Vec::new(), Vec::new());
        let mut out = Vec::new();
        let mut take =
            |q: &TenantQueue<u64>, batch: usize, blocking: bool, held: &mut [usize; 4]| {
                if blocking {
                    assert!(q.drain(batch, &mut out), "seed {seed}: live queue ended");
                } else {
                    q.try_drain(batch, &mut out);
                }
                assert!(out.len() <= batch, "seed {seed}: batch overrun");
                for &i in &out {
                    held[tenant_of(i)] -= 1;
                }
                drained.extend_from_slice(&out);
            };
        for step in 0..rng.random_range(20u64..=120) {
            if rng.random_bool(0.3) {
                let blocking = rng.random_bool(0.5) && !q.is_empty();
                take(&q, rng.random_range(1usize..=5), blocking, &mut held);
            } else {
                let t = table.resolve(TenantId(rng.random_range(1u16..=3)));
                // The item names its tenant in its low two bits.
                let item = step << 2 | t as u64;
                match q.try_push(t, item) {
                    Ok(depth) => {
                        accepted.push(item);
                        held[t] += 1;
                        assert_eq!(depth, held.iter().sum::<usize>(), "seed {seed}");
                    }
                    Err(QppError::TenantQuotaExceeded { quota, .. }) => {
                        assert_eq!((held[t], quota), (quotas[t - 1], quotas[t - 1]));
                    }
                    Err(QppError::QueueFull { .. }) => assert_eq!(q.len(), CAPACITY),
                    Err(e) => panic!("seed {seed}: unexpected rejection {e:?}"),
                }
            }
            for (t, &n) in held.iter().enumerate() {
                assert_eq!(q.queued_for(t), n, "seed {seed}: tenant {t}'s count");
            }
        }
        while !q.is_empty() {
            take(&q, rng.random_range(1usize..=5), true, &mut held);
        }
        assert_eq!(
            drained, accepted,
            "seed {seed}: arrival order, nothing lost"
        );
        // Every quota is free again: each tenant is admitted up to it.
        for t in 1..=3 {
            assert_eq!(q.queued_for(t), 0, "seed {seed}: tenant {t} drained");
            for _ in 0..quotas[t - 1] {
                assert!(
                    q.try_push(t, 0).is_ok(),
                    "seed {seed}: tenant {t} readmitted"
                );
            }
        }
    }
}

fn tenant_of(item: u64) -> usize {
    (item & 3) as usize
}
