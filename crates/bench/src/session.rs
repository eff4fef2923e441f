//! A reproduction session: the experiment [`Scale`] plus a store of every
//! simulation run and testbed measurement made so far.
//!
//! Several artifacts are views of one experiment — Table 4 and Figure 16
//! are the same NOW factorial, Table 7 is the allocation of variation of
//! the Figure 30 measurements — so `repro` passes one `Session` to all the
//! artifacts it runs and each experiment runs once per process.
//!
//! Results are keyed by the `Debug` form of the exact configuration (per
//! replication, seed included), the same identity the snapshot fingerprint
//! uses. A simulation's metrics are a pure function of its configuration,
//! so a reused result is bit-identical to a recomputed one.

use crate::scale::Scale;
use paradyn_core::{default_threads, run_many, SimConfig, SimMetrics};
use paradyn_testbed::{Measurement, TestbedConfig};
use std::collections::{BTreeMap, BTreeSet};

/// How many results a [`Session`] computed and how many it served from
/// its store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCounts {
    /// Simulation runs executed.
    pub sim_computed: usize,
    /// Simulation runs answered from the store.
    pub sim_reused: usize,
    /// Testbed measurements taken.
    pub testbed_computed: usize,
    /// Testbed measurements answered from the store.
    pub testbed_reused: usize,
}

/// The scale and result store shared by the artifacts of one `repro` run.
pub struct Session {
    scale: Scale,
    sims: BTreeMap<String, SimMetrics>,
    testbed: BTreeMap<String, Measurement>,
    counts: SessionCounts,
}

impl Session {
    /// An empty session at `scale`.
    pub fn new(scale: Scale) -> Session {
        Session {
            scale,
            sims: BTreeMap::new(),
            testbed: BTreeMap::new(),
            counts: SessionCounts::default(),
        }
    }

    /// The experiment scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Results computed and reused so far.
    pub fn counts(&self) -> SessionCounts {
        self.counts
    }

    /// Metrics of every configuration in `cfgs`, in input order. Only the
    /// configurations not already in the store run, as one
    /// [`run_many`] batch on [`default_threads`] threads.
    pub fn run_all(&mut self, cfgs: &[SimConfig]) -> Vec<SimMetrics> {
        let keys: Vec<String> = cfgs.iter().map(|c| format!("{c:?}")).collect();
        let mut queued = BTreeSet::new();
        let (mut todo_keys, mut todo) = (vec![], vec![]);
        for (key, cfg) in keys.iter().zip(cfgs) {
            if !self.sims.contains_key(key) && queued.insert(key) {
                todo_keys.push(key.clone());
                todo.push(cfg.clone());
            }
        }
        let fresh = run_many(&todo, default_threads());
        self.counts.sim_computed += todo.len();
        self.counts.sim_reused += cfgs.len() - todo.len();
        self.sims.extend(todo_keys.into_iter().zip(fresh));
        keys.iter().map(|k| self.sims[k].clone()).collect()
    }

    /// One testbed measurement of `cfg`, taken on first request and reused
    /// after that.
    ///
    /// # Panics
    /// Panics if the testbed run fails.
    pub fn measure(&mut self, cfg: &TestbedConfig) -> Measurement {
        let key = format!("{cfg:?}");
        if let Some(m) = self.testbed.get(&key) {
            self.counts.testbed_reused += 1;
            return m.clone();
        }
        let m = paradyn_testbed::run(cfg).expect("testbed run failed");
        self.counts.testbed_computed += 1;
        self.testbed.insert(key, m.clone());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradyn_core::Arch;

    fn cfgs() -> Vec<SimConfig> {
        (0..3)
            .map(|seed| SimConfig {
                arch: Arch::Now {
                    contention_free: true,
                },
                nodes: 1,
                duration_s: 0.5,
                seed,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn repeated_run_all_computes_nothing_new() {
        let mut session = Session::new(Scale::quick());
        let first = session.run_all(&cfgs());
        assert_eq!(session.counts().sim_computed, 3);
        let again = session.run_all(&cfgs());
        let c = session.counts();
        assert_eq!((c.sim_computed, c.sim_reused), (3, 3));
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.events, b.events);
            assert_eq!(a.latency_mean_s.to_bits(), b.latency_mean_s.to_bits());
        }
    }

    #[test]
    fn run_all_keeps_input_order_and_runs_duplicates_once() {
        let mut session = Session::new(Scale::quick());
        let c = cfgs();
        let batch = [c[2].clone(), c[0].clone(), c[2].clone()];
        let runs = session.run_all(&batch);
        let counts = session.counts();
        assert_eq!((counts.sim_computed, counts.sim_reused), (2, 1));
        let direct: Vec<SimMetrics> = batch.iter().map(paradyn_core::run).collect();
        for (a, b) in runs.iter().zip(&direct) {
            assert_eq!(a.events, b.events);
            assert_eq!(a.received_samples, b.received_samples);
        }
        assert_ne!(runs[0].events, runs[1].events);
    }
}
