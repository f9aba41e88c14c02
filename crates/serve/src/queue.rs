//! Tenant-aware request queue: one FIFO with reject-on-full and
//! reject-over-quota backpressure.
//!
//! One mutex-guarded deque and one condition variable that every
//! worker blocks on:
//!
//! - **Per-tenant quotas**: a tenant may hold at most `quota` queued
//!   requests — its queued count, read under the queue lock;
//!   submissions beyond that are rejected with
//!   [`QppError::TenantQuotaExceeded`], so a flooding tenant sheds its
//!   own overload, not everyone's.
//! - **One capacity**: the queue holds `capacity` requests in total and
//!   any tenant may fill all of it (quota permitting); the next push is
//!   rejected with [`QppError::QueueFull`], never blocked.
//! - **Arrival order**: requests leave in the order they were
//!   accepted, whatever their tenant. Any idle worker takes the next
//!   micro-batch, so one busy tenant can occupy the whole pool.
//!
//! One lock is enough here: a push or a drain holds it for a few
//! `VecDeque` operations, against tens of microseconds of model work
//! per request outside it.
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

/// What the lock guards: the queued items in arrival order, each with
/// its tenant's dense index, and each tenant's queued count — its
/// quota account.
#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<(usize, T)>,
    queued: Vec<usize>,
    shutdown: bool,
}

/// The multi-tenant queue. See the module docs for semantics.
#[derive(Debug)]
pub struct TenantQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
    /// Each tenant's quota and ID, by dense tenant index.
    tenants: Arc<TenantTable>,
}

impl<T> TenantQueue<T> {
    /// A queue holding at most `capacity` requests (at least 1), with
    /// one quota account per tenant of `tenants`, whose quotas it
    /// reads.
    pub fn new(capacity: usize, tenants: Arc<TenantTable>) -> Self {
        TenantQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                queued: vec![0; tenants.len()],
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
        self.state.lock().items.len()
    }

    /// True when no requests are queued (racy; for monitoring only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests tenant `tenant_idx` currently holds.
    pub fn queued_for(&self, tenant_idx: usize) -> usize {
        self.state.lock().queued[tenant_idx]
    }

    /// Attempts to enqueue for tenant `tenant_idx` without blocking,
    /// refusing in the order quota → shutdown → full.
    /// Returns the queue depth *after* the push (for depth watermarks).
    pub fn try_push(&self, tenant_idx: usize, item: T) -> Result<usize, QppError> {
        let spec = self.tenants.spec(tenant_idx);
        let mut state = self.state.lock();
        if state.queued[tenant_idx] >= spec.quota {
            return Err(QppError::TenantQuotaExceeded {
                tenant: spec.id.0,
                quota: spec.quota,
            });
        }
        if state.shutdown {
            return Err(QppError::ShuttingDown);
        }
        if state.items.len() == self.capacity {
            return Err(QppError::QueueFull {
                capacity: self.capacity,
            });
        }
        state.items.push_back((tenant_idx, item));
        state.queued[tenant_idx] += 1;
        let depth = state.items.len();
        drop(state);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Moves up to `max_batch` of the oldest items into `out` (which is
    /// cleared first). Returns the number drained (0: queue empty).
    /// Non-blocking.
    pub fn try_drain(&self, max_batch: usize, out: &mut Vec<T>) -> usize {
        self.take(self.state.lock(), max_batch, out)
    }

    /// Blocks until the queue has work, then drains a micro-batch of
    /// the oldest items into `out` and returns `true`; returns `false`
    /// once the queue is shut down *and* empty — no accepted request is
    /// ever lost. Every worker blocks here, on the same condvar.
    pub fn drain(&self, max_batch: usize, out: &mut Vec<T>) -> bool {
        let mut state = self.state.lock();
        loop {
            if !state.items.is_empty() {
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

    /// Drains one micro-batch in arrival order under the held lock,
    /// releases it, and wakes a sibling worker if work remains.
    fn take(
        &self,
        mut guard: MutexGuard<'_, QueueState<T>>,
        max_batch: usize,
        out: &mut Vec<T>,
    ) -> usize {
        out.clear();
        let state = &mut *guard;
        let drained = max_batch.max(1).min(state.items.len());
        for (tenant_idx, item) in state.items.drain(..drained) {
            state.queued[tenant_idx] -= 1;
            out.push(item);
        }
        let more = !state.items.is_empty();
        drop(guard);
        if more {
            self.not_empty.notify_one();
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
        let t = table(vec![TenantSpec::new(TenantId(5)).quota(2)]);
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

    /// The quota is the tenant's queued count under the lock: four threads
    /// racing one tenant past a quota of 8 with nothing draining get
    /// exactly 8 acceptances, and the quota answer wins over a full
    /// queue (callers see quota → shutdown → full).
    #[test]
    fn racing_pushes_admit_exactly_the_quota() {
        let t = table(vec![TenantSpec::new(TenantId(5)).quota(8)]);
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
}
