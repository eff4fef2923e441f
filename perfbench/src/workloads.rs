//! The benchmark's workloads and the model configuration each one runs.

use paradyn_core::{Arch, Forwarding, SimConfig};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// NOW, contention-free, 64 nodes, CF, 150 s simulated.
    NowCfLong,
    /// MPP, binary-tree forwarding, 1023 daemons, BF batch 16, 5 s.
    MppTreeBf,
    /// `repro --scale quick table4 fig16 fig26 fig30 table7`.
    ReproSubset,
}

/// The artifacts `repro_subset` regenerates, in command-line order.
pub const REPRO_SUBSET: [&str; 5] = ["table4", "fig16", "fig26", "fig30", "table7"];

/// The subset artifacts whose output is simulated (seed-deterministic);
/// the other two are real-thread testbed measurements.
pub const SIM_ARTIFACTS: [&str; 3] = ["table4", "fig16", "fig26"];

impl Workload {
    /// Parse a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "now_cf_long" => Some(Workload::NowCfLong),
            "mpp_tree_bf" => Some(Workload::MppTreeBf),
            "repro_subset" => Some(Workload::ReproSubset),
            _ => None,
        }
    }

    /// The single serial model run this workload times (model workloads)
    /// or traces (all workloads). For `repro_subset` it is one replication
    /// of its slowest artifact's costliest point: Figure 26's 1 ms BF-tree
    /// configuration at quick scale (256 nodes, batch 32, 2 s).
    pub fn model_config(self, seed: u64) -> SimConfig {
        match self {
            Workload::NowCfLong => SimConfig {
                arch: Arch::Now {
                    contention_free: true,
                },
                nodes: 64,
                batch: 1,
                duration_s: 150.0,
                seed,
                ..Default::default()
            },
            Workload::MppTreeBf => SimConfig {
                arch: Arch::Mpp {
                    forwarding: Forwarding::BinaryTree,
                },
                nodes: 1023,
                batch: 16,
                duration_s: 5.0,
                seed,
                ..Default::default()
            },
            Workload::ReproSubset => SimConfig {
                arch: Arch::Mpp {
                    forwarding: Forwarding::BinaryTree,
                },
                nodes: 256,
                batch: 32,
                sampling_period_us: 1_000.0,
                duration_s: 2.0,
                seed,
                ..Default::default()
            },
        }
    }
}
