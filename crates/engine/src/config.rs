//! System configurations: the simulated hardware.

/// A shared-nothing parallel database configuration.
///
/// Mirrors the knobs the paper varied: number of processors used for
/// query processing, memory per processor, and — on the 32-node system —
/// a data layout that stays partitioned across *all* disks even when
/// only a subset of CPUs executes operators (§VII-B).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Human-readable configuration name.
    pub name: String,
    /// Processors used for query execution.
    pub cpus: u32,
    /// Disks holding the (fixed) data partitioning. On the 32-node
    /// system this stays 32 regardless of `cpus`.
    pub data_partitions: u32,
    /// Memory per processor, bytes.
    pub mem_per_cpu: u64,
    /// Tuple-processing rate per CPU (tuples/second) for a unit-cost
    /// operator; per-operator multipliers apply on top.
    pub cpu_tuple_rate: f64,
    /// Sequential disk bandwidth per disk, bytes/second.
    pub disk_bandwidth: f64,
    /// Interconnect bandwidth per node, bytes/second.
    pub net_bandwidth: f64,
    /// Disk I/O transfer unit, bytes (one "disk I/O" in the counters).
    pub io_unit: u64,
    /// Message transfer unit for the interconnect counters, bytes.
    pub message_unit: u64,
    /// Fixed per-query startup/compile overhead, seconds.
    pub startup_seconds: f64,
    /// Standard deviation of multiplicative log-normal run-to-run noise
    /// on elapsed time (σ of ln-space). ~0.08 matches a quiet system.
    pub elapsed_noise_sigma: f64,
    /// Systematic performance drift multiplier (the paper's test system
    /// got an OS upgrade mid-study that shifted bowling-ball timings;
    /// experiments use this to recreate those outliers). 1.0 = none.
    pub drift: f64,
}

impl SystemConfig {
    /// The 4-processor research system used for most of the paper's
    /// training and testing. Generous memory per CPU: at TPC-DS scale
    /// factor 1 all tables fit in memory, so most queries do zero disk
    /// I/O (as the paper observed around Table II).
    pub fn neoview_4() -> Self {
        SystemConfig {
            name: "neoview-4".to_string(),
            cpus: 4,
            data_partitions: 4,
            mem_per_cpu: 2 * 1024 * 1024 * 1024,
            cpu_tuple_rate: 2.2e5,
            disk_bandwidth: 80.0e6,
            net_bandwidth: 120.0e6,
            io_unit: 32 * 1024,
            message_unit: 32 * 1024,
            startup_seconds: 0.35,
            elapsed_noise_sigma: 0.04,
            drift: 1.0,
        }
    }

    /// A configuration of the 32-node production system using `cpus`
    /// processors (4, 8, 16 or 32 in the paper). Data stays partitioned
    /// across all 32 disks; memory available to a query scales with the
    /// CPUs used, which is why the 4-CPU configuration was the only one
    /// that incurred disk I/Os (paper §VII-B).
    pub fn neoview_32(cpus: u32) -> Self {
        SystemConfig {
            name: format!("neoview-32/{cpus}cpu"),
            cpus,
            data_partitions: 32,
            mem_per_cpu: 96 * 1024 * 1024,
            cpu_tuple_rate: 3.2e5,
            disk_bandwidth: 80.0e6,
            net_bandwidth: 200.0e6,
            io_unit: 32 * 1024,
            message_unit: 32 * 1024,
            startup_seconds: 0.3,
            elapsed_noise_sigma: 0.04,
            drift: 1.0,
        }
    }

    /// Total memory available to one query, bytes.
    pub fn total_memory(&self) -> u64 {
        self.mem_per_cpu * self.cpus as u64
    }

    /// Returns a copy with the given systematic drift multiplier.
    pub fn with_drift(mut self, drift: f64) -> Self {
        self.drift = drift;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        let c4 = SystemConfig::neoview_4();
        assert_eq!(c4.cpus, 4);
        assert_eq!(c4.data_partitions, 4);
        assert!(c4.total_memory() >= 8 * 1024 * 1024 * 1024);

        let c32 = SystemConfig::neoview_32(16);
        assert_eq!(c32.cpus, 16);
        assert_eq!(c32.data_partitions, 32);
        assert!(c32.name.contains("16cpu"));
    }

    #[test]
    fn memory_scales_with_cpus_on_32_node() {
        let m4 = SystemConfig::neoview_32(4).total_memory();
        let m32 = SystemConfig::neoview_32(32).total_memory();
        assert_eq!(m32, 8 * m4);
    }

    #[test]
    fn with_drift_sets_the_multiplier_only() {
        let base = SystemConfig::neoview_4();
        let c = base.clone().with_drift(1.5);
        assert_eq!(c.drift, 1.5);
        assert_eq!(c.elapsed_noise_sigma, base.elapsed_noise_sigma);
    }
}
