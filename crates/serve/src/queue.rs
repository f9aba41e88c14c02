//! Tenant-aware request queue with weighted fair-share draining and
//! reject-on-full / reject-over-quota backpressure.
//!
//! One mutex-guarded set of per-tenant lanes and one condition variable
//! that every worker blocks on:
//!
//! - **Per-tenant quotas**: a tenant may hold at most `quota` queued
//!   requests — the length of its own lane, read under the queue
//!   lock; submissions beyond that are rejected with
//!   [`QppError::TenantQuotaExceeded`], so a flooding tenant sheds its
//!   own overload, not everyone's.
//! - **One capacity**: the queue holds `capacity` requests in total and
//!   any tenant may fill all of it (quota permitting); the next push is
//!   rejected with [`QppError::QueueFull`], never blocked.
//! - **Deficit round-robin draining**: one FIFO lane per tenant,
//!   drained by weighted deficit round-robin — a backlogged tenant's
//!   completion share converges to its fair-share weight across
//!   *everything* the queue hands out, and a tenant with an empty lane
//!   costs nothing. Any idle worker takes the next micro-batch, so one
//!   busy tenant can occupy the whole pool.
//!
//! One lock is enough here: a push or a drain holds it for a few
//! `VecDeque` operations, against tens of microseconds of model work
//! per request outside it.
//!
//! Determinism: the DRR cursor/deficit state advances only on
//! push/drain, so a fixed arrival script drained single-threadedly
//! yields a reproducible service order (see `tests/fair_share.rs`).
//!
//! The queue records no observability events itself: rejection marks
//! (which must carry the admission trace ID) and queue-wait spans are
//! recorded at the service layer, keeping this container generic.

use crate::tenant::TenantTable;
use parking_lot::{Condvar, Mutex, MutexGuard};
use qpp_core::QppError;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// What the lock guards: one FIFO lane per tenant — whose length is
/// the tenant's quota account — plus the deficit round-robin
/// scheduler's cursor and deficits.
#[derive(Debug)]
struct QueueState<T> {
    lanes: Vec<VecDeque<T>>,
    /// Items across all lanes.
    occupancy: usize,
    deficits: Vec<u64>,
    cursor: usize,
    shutdown: bool,
}

/// The multi-tenant queue. See the module docs for semantics.
#[derive(Debug)]
pub struct TenantQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
    /// Each lane's weight, quota and tenant ID, by dense tenant index.
    tenants: Arc<TenantTable>,
}

impl<T> TenantQueue<T> {
    /// A queue holding at most `capacity` requests (at least 1), with
    /// one lane per tenant of `tenants`, whose weights and quotas it
    /// reads.
    pub fn new(capacity: usize, tenants: Arc<TenantTable>) -> Self {
        TenantQueue {
            state: Mutex::new(QueueState {
                lanes: (0..tenants.len()).map(|_| VecDeque::new()).collect(),
                occupancy: 0,
                deficits: vec![0; tenants.len()],
                cursor: 0,
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            tenants,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (racy; for monitoring only).
    pub fn len(&self) -> usize {
        self.state.lock().occupancy
    }

    /// True when no requests are queued (racy; for monitoring only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests tenant `tenant_idx` currently holds.
    pub fn queued_for(&self, tenant_idx: usize) -> usize {
        self.state.lock().lanes[tenant_idx].len()
    }

    /// Attempts to enqueue for tenant `tenant_idx` without blocking,
    /// refusing in the order quota → shutdown → full.
    /// Returns the queue depth *after* the push (for depth watermarks).
    pub fn try_push(&self, tenant_idx: usize, item: T) -> Result<usize, QppError> {
        let spec = self.tenants.spec(tenant_idx);
        let mut state = self.state.lock();
        if state.lanes[tenant_idx].len() >= spec.quota {
            return Err(QppError::TenantQuotaExceeded {
                tenant: spec.id.0,
                quota: spec.quota,
            });
        }
        if state.shutdown {
            return Err(QppError::ShuttingDown);
        }
        if state.occupancy == self.capacity {
            return Err(QppError::QueueFull {
                capacity: self.capacity,
            });
        }
        state.lanes[tenant_idx].push_back(item);
        state.occupancy += 1;
        let depth = state.occupancy;
        drop(state);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// One deficit-round-robin pass over the lanes, appending up to
    /// `max_batch` items to `out` (which is cleared first). Returns the
    /// number drained (0: queue empty). Non-blocking.
    pub fn try_drain(&self, max_batch: usize, out: &mut Vec<T>) -> usize {
        self.take(self.state.lock(), max_batch, out)
    }

    /// Blocks until the queue has work, then drains a fair-share
    /// micro-batch into `out` and returns `true`; returns `false` once
    /// the queue is shut down *and* empty — no accepted request is ever
    /// lost. Every worker blocks here, on the same condvar.
    pub fn drain(&self, max_batch: usize, out: &mut Vec<T>) -> bool {
        let mut state = self.state.lock();
        loop {
            if state.occupancy > 0 {
                self.take(state, max_batch, out);
                return true;
            }
            if state.shutdown {
                out.clear();
                return false;
            }
            // Timed wait so a missed notification can never wedge the
            // worker forever.
            self.not_empty
                .wait_for(&mut state, Duration::from_millis(50));
        }
    }

    /// Drains one micro-batch under the held lock, releases it, and
    /// wakes a sibling worker if work remains.
    fn take(
        &self,
        mut state: MutexGuard<'_, QueueState<T>>,
        max_batch: usize,
        out: &mut Vec<T>,
    ) -> usize {
        out.clear();
        let drained = self.drr_drain(&mut state, max_batch.max(1), out);
        let more = state.occupancy > 0;
        drop(state);
        if more {
            self.not_empty.notify_one();
        }
        drained
    }

    /// Deficit round-robin over the tenant lanes. Each visit to a
    /// backlogged lane adds the tenant's weight to its deficit and pops
    /// one item per deficit unit, so backlogged tenants are served in
    /// proportion to their weights; an emptied lane forfeits its
    /// leftover deficit (standard DRR, keeps idle tenants from hoarding
    /// credit). Deterministic: cursor and deficits advance only here.
    fn drr_drain(&self, state: &mut QueueState<T>, max_batch: usize, out: &mut Vec<T>) -> usize {
        let tenants = self.tenants.len();
        let mut drained = 0;
        while drained < max_batch && state.occupancy > 0 {
            let t = state.cursor;
            if !state.lanes[t].is_empty() {
                state.deficits[t] += u64::from(self.tenants.spec(t).weight);
                while state.deficits[t] > 0 && drained < max_batch {
                    match state.lanes[t].pop_front() {
                        Some(item) => {
                            out.push(item);
                            state.deficits[t] -= 1;
                            state.occupancy -= 1;
                            drained += 1;
                        }
                        None => break,
                    }
                }
                if state.lanes[t].is_empty() {
                    state.deficits[t] = 0;
                }
            }
            state.cursor = (t + 1) % tenants;
        }
        drained
    }

    /// Marks the queue as shutting down and wakes all workers. Already
    /// queued requests are still drained.
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{TenantId, TenantSpec};
    use std::sync::{mpsc, Barrier};
    use std::time::Instant;

    fn table(specs: Vec<TenantSpec>) -> Arc<TenantTable> {
        Arc::new(TenantTable::new(specs))
    }

    fn single_tenant() -> Arc<TenantTable> {
        table(Vec::new())
    }

    #[test]
    fn push_over_capacity_rejects_immediately() {
        // 512 is the serving example's capacity: one tenant alone must
        // be able to fill all of it, not a per-worker fraction.
        for capacity in [2usize, 512] {
            let t = single_tenant();
            let q: TenantQueue<usize> = TenantQueue::new(capacity, t);
            for i in 0..capacity {
                assert_eq!(q.try_push(0, i).ok(), Some(i + 1));
            }
            let start = Instant::now();
            assert!(matches!(
                q.try_push(0, capacity),
                Err(QppError::QueueFull { capacity: c }) if c == capacity
            ));
            // Rejection must be immediate, never a block.
            assert!(start.elapsed() < Duration::from_millis(100));
            assert_eq!(q.len(), capacity);
        }
    }

    #[test]
    fn drain_is_fifo_and_bounded_by_batch_size() {
        let t = single_tenant();
        let q: TenantQueue<u32> = TenantQueue::new(10, t);
        for i in 0..5 {
            q.try_push(0, i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.try_drain(3, &mut out), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(q.try_drain(3, &mut out), 2);
        assert_eq!(out, vec![3, 4]);
    }

    #[test]
    fn shutdown_drains_remaining_then_ends() {
        let t = single_tenant();
        let q: TenantQueue<u32> = TenantQueue::new(10, t);
        q.try_push(0, 7).unwrap();
        q.shutdown();
        assert!(matches!(q.try_push(0, 8), Err(QppError::ShuttingDown)));
        let mut out = Vec::new();
        assert!(q.drain(4, &mut out));
        assert_eq!(out, vec![7]);
        assert!(!q.drain(4, &mut out));
    }

    #[test]
    fn blocked_consumer_wakes_on_push() {
        let t = single_tenant();
        let q: Arc<TenantQueue<u32>> = Arc::new(TenantQueue::new(4, t));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                q.drain(4, &mut out).then_some(out)
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(0, 42).unwrap();
        assert_eq!(consumer.join().unwrap().unwrap(), vec![42]);
    }

    /// One tenant's backlog reaches every worker: four consumers each
    /// take one item and only return once all four hold one, so a queue
    /// that hands a tenant's work to a subset of the pool never gets
    /// past the barrier.
    #[test]
    fn one_tenant_can_occupy_every_worker() {
        let t = single_tenant();
        let q: Arc<TenantQueue<u32>> = Arc::new(TenantQueue::new(16, t));
        let barrier = Arc::new(Barrier::new(4));
        let (done, joined) = mpsc::channel();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let (q, barrier, done) = (Arc::clone(&q), Arc::clone(&barrier), done.clone());
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    assert!(q.drain(1, &mut out));
                    barrier.wait();
                    done.send(out[0]).unwrap();
                })
            })
            .collect();
        for i in 0..4 {
            q.try_push(0, i).unwrap();
        }
        let mut got: Vec<u32> = (0..4)
            .map(|_| {
                joined
                    .recv_timeout(Duration::from_secs(10))
                    .expect("a consumer never woke: three of four must not park")
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        for c in consumers {
            c.join().unwrap();
        }
    }

    #[test]
    fn quota_rejects_carry_the_tenant_and_release_on_drain() {
        let t = table(vec![TenantSpec::new(TenantId(5), "capped").quota(2)]);
        let capped = t.resolve(TenantId(5));
        let q: TenantQueue<u32> = TenantQueue::new(100, Arc::clone(&t));
        assert!(q.try_push(capped, 1).is_ok());
        assert!(q.try_push(capped, 2).is_ok());
        assert!(matches!(
            q.try_push(capped, 3),
            Err(QppError::TenantQuotaExceeded {
                tenant: 5,
                quota: 2
            })
        ));
        // The default tenant is unaffected by tenant 5's quota.
        assert!(q.try_push(0, 9).is_ok());
        // Draining releases quota.
        let mut out = Vec::new();
        assert!(q.try_drain(16, &mut out) >= 1);
        assert!(q.try_push(capped, 4).is_ok());
    }

    /// A spec written as a struct literal skips the builders, so its
    /// quota of 0 reaches the table as is; the table clamps it to 1, or
    /// every request of the tenant would be over quota.
    #[test]
    fn a_literal_zero_quota_still_admits_one_request() {
        let t = table(vec![TenantSpec {
            id: TenantId(5),
            name: "literal".to_string(),
            weight: 1,
            quota: 0,
        }]);
        let literal = t.resolve(TenantId(5));
        let q: TenantQueue<u32> = TenantQueue::new(8, Arc::clone(&t));
        assert_eq!(q.try_push(literal, 1).ok(), Some(1));
        assert!(matches!(
            q.try_push(literal, 2),
            Err(QppError::TenantQuotaExceeded {
                tenant: 5,
                quota: 1
            })
        ));
    }

    /// The quota is the lane's length under the lock: four threads
    /// racing one tenant past a quota of 8 with nothing draining get
    /// exactly 8 acceptances, and the quota answer wins over a full
    /// queue (callers see quota → shutdown → full).
    #[test]
    fn racing_pushes_admit_exactly_the_quota() {
        let t = table(vec![TenantSpec::new(TenantId(5), "capped").quota(8)]);
        let capped = t.resolve(TenantId(5));
        let q: TenantQueue<u32> = TenantQueue::new(8, Arc::clone(&t));
        let barrier = Barrier::new(4);
        let over_quota = |r: Result<usize, QppError>| {
            matches!(
                r,
                Err(QppError::TenantQuotaExceeded {
                    tenant: 5,
                    quota: 8
                })
            )
        };
        let accepted: usize = std::thread::scope(|s| {
            let pushers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        (0..50)
                            .filter(|&i| match q.try_push(capped, i) {
                                Ok(_) => true,
                                rejected => {
                                    assert!(over_quota(rejected));
                                    false
                                }
                            })
                            .count()
                    })
                })
                .collect();
            pushers.into_iter().map(|p| p.join().unwrap()).sum()
        });
        assert_eq!(accepted, 8);
        assert_eq!(q.queued_for(capped), 8);
        // The queue is now also full: the tenant still hears about its
        // own quota, anyone else about the capacity.
        assert!(over_quota(q.try_push(capped, 0)));
        assert!(matches!(
            q.try_push(0, 0),
            Err(QppError::QueueFull { capacity: 8 })
        ));
    }

    #[test]
    fn drr_serves_backlogged_tenants_by_weight() {
        let t = table(vec![
            TenantSpec::new(TenantId(1), "heavy").weight(3),
            TenantSpec::new(TenantId(2), "light").weight(1),
        ]);
        let heavy = t.resolve(TenantId(1));
        let light = t.resolve(TenantId(2));
        let q: TenantQueue<(usize, u32)> = TenantQueue::new(64, Arc::clone(&t));
        for i in 0..12 {
            q.try_push(heavy, (heavy, i)).unwrap();
            q.try_push(light, (light, i)).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.try_drain(8, &mut out), 8);
        let heavy_got = out.iter().filter(|(t, _)| *t == heavy).count();
        let light_got = out.iter().filter(|(t, _)| *t == light).count();
        assert_eq!(
            (heavy_got, light_got),
            (6, 2),
            "weight 3:1 over a backlogged batch of 8: {out:?}"
        );
    }
}
