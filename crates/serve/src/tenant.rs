//! Tenant identity and admission quotas.
//!
//! A tenant is a quota and nothing more: the serve layer counts each
//! tenant's queued requests and sheds a submission beyond its quota,
//! so one flooding workload owner sheds its own overload. Statistics
//! and traces are service-wide.
//!
//! - [`TenantId`]: a small copyable ID carried on every request.
//! - [`TenantSpec`]: per-tenant admission quota.
//! - [`TenantTable`]: the immutable directory the service builds at
//!   start — dense indices for the queue's quota accounts,
//!   binary-search resolution on the admission hot path, and a
//!   catch-all default tenant for traffic that carries no
//!   registration.

/// Identifies one tenant (workload owner) of the prediction service.
///
/// `TenantId(0)` is the catch-all default: requests from unregistered
/// tenants are admitted under its quota. IDs are plain numbers, not
/// secrets — the embedder maps its own principal names onto them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

/// The catch-all tenant every service always has.
pub const DEFAULT_TENANT: TenantId = TenantId(0);

/// Per-tenant admission configuration.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The tenant this spec configures.
    pub id: TenantId,
    /// Admission quota: maximum requests this tenant may have queued at
    /// once. `TenantQueue::try_push` reads the tenant's queued count
    /// under the queue lock and rejects a submission beyond it with
    /// `QppError::TenantQuotaExceeded`, so a flooding tenant sheds its
    /// own overload instead of everyone's. [`TenantTable::new`] clamps
    /// it to at least 1.
    pub quota: usize,
}

impl TenantSpec {
    /// A spec with an effectively unlimited quota.
    pub fn new(id: TenantId) -> Self {
        TenantSpec {
            id,
            quota: usize::MAX,
        }
    }

    /// Sets the admission quota (builder form).
    pub fn quota(mut self, quota: usize) -> Self {
        self.quota = quota;
        self
    }
}

/// Immutable tenant directory, fixed at service start.
///
/// Tenants get dense indices in ascending-ID order; index 0 is always
/// the catch-all [`DEFAULT_TENANT`] (either the embedder's own spec for
/// ID 0 or an implicit unlimited-quota one). The queue keeps one quota
/// account per dense index, so the hot path never hashes.
#[derive(Debug)]
pub struct TenantTable {
    specs: Vec<TenantSpec>,
}

impl TenantTable {
    /// Builds the directory from the configured specs. Duplicate IDs
    /// keep the last spec; a default-tenant spec is synthesized when
    /// none was supplied; every quota is clamped to at least 1, however
    /// the spec was built.
    pub fn new(mut specs: Vec<TenantSpec>) -> Self {
        specs.sort_by_key(|s| s.id);
        specs.dedup_by(|later, earlier| {
            // `dedup_by` keeps the *first* of a run; overwrite it with
            // the later spec so "last one wins" holds.
            if later.id == earlier.id {
                std::mem::swap(later, earlier);
                true
            } else {
                false
            }
        });
        if specs.first().map(|s| s.id) != Some(DEFAULT_TENANT) {
            specs.insert(0, TenantSpec::new(DEFAULT_TENANT));
        }
        for spec in &mut specs {
            spec.quota = spec.quota.max(1);
        }
        TenantTable { specs }
    }

    /// Number of tenants (including the catch-all default).
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Always false: the default tenant is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Dense index for `id`; unregistered tenants fold into the
    /// catch-all default at index 0.
    pub fn resolve(&self, id: TenantId) -> usize {
        self.specs
            .binary_search_by_key(&id, |s| s.id)
            .unwrap_or_default()
    }

    /// The spec at a dense index.
    pub fn spec(&self, idx: usize) -> &TenantSpec {
        &self.specs[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tenant_is_synthesized_at_index_zero() {
        let table = TenantTable::new(vec![
            TenantSpec::new(TenantId(7)),
            TenantSpec::new(TenantId(2)),
        ]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.spec(0).id, DEFAULT_TENANT);
        assert_eq!(table.spec(1).id, TenantId(2));
        assert_eq!(table.spec(2).id, TenantId(7));
        assert_eq!(table.resolve(TenantId(7)), 2);
        // Unregistered tenants fold into the default slot.
        assert_eq!(table.resolve(TenantId(999)), 0);
    }

    #[test]
    fn explicit_default_spec_is_kept() {
        let table = TenantTable::new(vec![TenantSpec::new(DEFAULT_TENANT).quota(5)]);
        assert_eq!(table.len(), 1);
        assert_eq!(table.spec(0).quota, 5);
    }

    #[test]
    fn duplicate_ids_keep_the_last_spec() {
        let table = TenantTable::new(vec![
            TenantSpec::new(TenantId(3)).quota(9),
            TenantSpec::new(TenantId(3)).quota(4),
        ]);
        let idx = table.resolve(TenantId(3));
        assert_eq!(table.spec(idx).quota, 4);
    }
}
