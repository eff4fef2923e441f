//! Sharded parallel-in-run execution of the ROCC model: conservative
//! shard-per-daemon-subtree windows with a bit-identical merge
//! (DESIGN.md §11).
//!
//! A *cell* is a node of the simulated system: the node's daemon, its
//! application processes, its CPU bank, and its background sources all
//! live — and all their events execute — in that cell. On shardable
//! configurations ([`shardable`]) the only event that ever crosses a cell
//! boundary is `Deliver(NetJob::Forward)`, i.e. exactly the forwarding
//! links of Figure 4, and every such hop takes at least
//! `params.min_forward_us` of wire time. That floor is the lookahead the
//! conservative window protocol in [`paradyn_des::shard`] rests on.
//!
//! [`partition`] statically assigns cells to shards — whole daemon
//! subtrees on a binary-tree MPP, contiguous node ranges otherwise — and
//! [`run_sharded`] executes the run on `PARADYN_SHARDS`-style worker
//! counts, merging back into a [`Sim`] whose state is bit-identical to
//! the serial engine's (asserted by `tests/sharding.rs` and the
//! differential suites).

use crate::config::{Arch, Forwarding, SimConfig};
use crate::model::types::{tree_parent, Batch, Dest, Ev, NetJob, TokenTable};
use crate::model::{stream_kind, RoccModel, ShardSlice};
use paradyn_des::shard::{ShardModel, ShardPlan, ShardedSim};
use paradyn_des::{CalendarKind, Sim, SimTime, Streams};
use std::sync::Arc;

/// Whether `cfg` can run sharded: per-node CPU banks and a
/// contention-free interconnect (so cells only interact through
/// forwarding links), no global barrier (which synchronizes all
/// application processes through one roster), no degradation controller
/// (backpressure edges travel *down* the tree with no latency floor), and
/// an inert overload ramp. Shardable configurations also run with
/// per-cell sequence counters serially, making the serial run the
/// bit-exact oracle for any shard count.
pub fn shardable(cfg: &SimConfig) -> bool {
    let arch_ok = matches!(
        cfg.arch,
        Arch::Mpp { .. }
            | Arch::Now {
                contention_free: true
            }
    );
    let overload_inert = cfg.overload.is_none_or(|o| o.factor <= 1.0);
    arch_ok
        && cfg.app.barrier_period_us.is_none()
        && cfg.degradation.is_none()
        && overload_inert
}

/// Depth of node `i` in the heap-layout forwarding tree.
#[inline]
fn tree_depth(i: u32) -> u32 {
    (i + 1).ilog2()
}

/// Statically assign each cell (node) to one of `shards` shards — a pure
/// function of `(configuration, shard count)`.
///
/// On a binary-tree MPP the unit of assignment is a daemon subtree: with
/// `d = ceil(log2(shards))`, the `2^d` subtrees rooted at depth `d` are
/// dealt to shards in index order and the (few) nodes above depth `d` —
/// including the root that hosts the main process — go to shard 0. Every
/// cut edge is then a child-to-parent forwarding link. Direct-forwarding
/// and NOW topologies have only leaf-to-main links, so contiguous node
/// ranges (main's node 0 in shard 0) cut nothing else either.
pub fn partition(cfg: &SimConfig, shards: u16) -> Arc<Vec<u16>> {
    let cells = cfg.nodes;
    let s = shards as usize;
    if s <= 1 {
        return Arc::new(vec![0; cells]);
    }
    let shard_of = match cfg.arch {
        Arch::Mpp {
            forwarding: Forwarding::BinaryTree,
        } => {
            let d = usize::BITS - (s - 1).leading_zeros();
            (0..cells as u32)
                .map(|n| {
                    if tree_depth(n) < d {
                        0
                    } else {
                        let mut anc = n;
                        while tree_depth(anc) > d {
                            anc = tree_parent(anc);
                        }
                        let i = (anc as usize + 1) - (1 << d);
                        ((i * s) >> d) as u16
                    }
                })
                .collect()
        }
        _ => {
            let per = cells.div_ceil(s);
            (0..cells).map(|c| (c / per) as u16).collect()
        }
    };
    Arc::new(shard_of)
}

/// Execution cell of an event: the node whose state its handler touches.
/// Only meaningful on shardable configurations (per-node banks, node ==
/// daemon index); a pure function of the event and the static
/// configuration, shared by the model's handler prologue, the cross-shard
/// router, and the merge.
pub fn exec_cell(ev: &Ev, apps_per_node: u32) -> u32 {
    match *ev {
        Ev::Init | Ev::NetDone | Ev::MainStall | Ev::OverloadRamp => 0,
        Ev::Slice { bank, .. } => bank,
        Ev::Deliver(job) => match job {
            NetJob::AppComm { app } => app / apps_per_node,
            NetJob::Forward { dest, .. } => match dest {
                Dest::Main => 0,
                Dest::Node(n) => n,
            },
            NetJob::PvmdNet { node } | NetJob::OtherNet { node } => node,
        },
        Ev::Sample { app } | Ev::ThrottleTick { app } => app / apps_per_node,
        Ev::PvmdArrival { node }
        | Ev::OtherCpuArrival { node }
        | Ev::OtherNetArrival { node } => node,
        Ev::FlushTimeout { pd, .. }
        | Ev::AdaptTick { pd }
        | Ev::DaemonCrash { pd }
        | Ev::DaemonRecover { pd }
        | Ev::Backpressure { pd, .. }
        | Ev::RetryForward { pd, .. } => pd,
    }
}

/// The window protocol's lookahead for `cfg` in nanoseconds: the
/// forwarding-hop wire-time floor the model enforces in `submit_net`.
pub fn lookahead_ns(cfg: &SimConfig) -> u64 {
    (cfg.params.min_forward_us * 1_000.0) as u64
}

impl ShardModel for RoccModel {
    /// A forwarded batch lives in its current holder's token table; when
    /// the `Deliver(Forward)` hop crosses a shard boundary the batch
    /// travels with it, together with its allocation sequence number.
    type Luggage = (u64, Batch);

    fn detach(&mut self, ev: &Ev) -> Option<(u64, Batch)> {
        match ev {
            Ev::Deliver(NetJob::Forward { token, .. }) => self.tokens.take(*token),
            _ => None,
        }
    }

    fn attach(&mut self, ev: &Ev, (seq, batch): (u64, Batch)) {
        if let Ev::Deliver(NetJob::Forward { token, .. }) = ev {
            self.tokens.insert_at(*token, seq, batch);
        }
    }
}

/// Recombine the shard models into the serial-equivalent model: each
/// cell's state comes from its owning shard, in-flight batches are
/// reunited from whichever shard currently holds them, and the result
/// continues as an ordinary serial model (`shard` cleared).
fn absorb_models(mut models: Vec<RoccModel>, shard_of: &[u16]) -> RoccModel {
    let tables: Vec<TokenTable> = models
        .iter_mut()
        .map(|m| std::mem::take(&mut m.tokens))
        .collect();
    // A token's allocating daemon `pd` lives on node `pd` (shardable
    // configurations run one daemon per node).
    let tokens = TokenTable::absorb(tables, |pd| shard_of[pd] as usize);
    let mut base = models.remove(0);
    for (i, m) in models.iter_mut().enumerate() {
        let owner = (i + 1) as u16;
        for (c, &o) in shard_of.iter().enumerate() {
            if o != owner {
                continue;
            }
            std::mem::swap(&mut base.banks[c], &mut m.banks[c]);
            std::mem::swap(&mut base.daemons.hot[c], &mut m.daemons.hot[c]);
            std::mem::swap(&mut base.daemons.fifo[c], &mut m.daemons.fifo[c]);
            std::mem::swap(&mut base.daemons.cold[c], &mut m.daemons.cold[c]);
            std::mem::swap(&mut base.accs[c], &mut m.accs[c]);
            std::mem::swap(&mut base.pvmd_rngs[c], &mut m.pvmd_rngs[c]);
            std::mem::swap(&mut base.other_rngs[c], &mut m.other_rngs[c]);
            if c == 0 {
                std::mem::swap(&mut base.main_rng, &mut m.main_rng);
                std::mem::swap(&mut base.stall_rng, &mut m.stall_rng);
            }
        }
        for a in 0..base.apps.len() {
            if shard_of[base.apps.hot[a].node as usize] != owner {
                continue;
            }
            std::mem::swap(&mut base.apps.hot[a], &mut m.apps.hot[a]);
            std::mem::swap(&mut base.apps.pipe[a], &mut m.apps.pipe[a]);
            std::mem::swap(&mut base.apps.cold[a], &mut m.apps.cold[a]);
        }
    }
    base.tokens = tokens;
    base.shard = None;
    base
}

/// Run `cfg` sharded into `shards` shards on calendar `kind` and merge
/// back into the serial-equivalent [`Sim`] at the horizon. `threads <= 1`
/// executes the window protocol on the calling thread; larger values run
/// one OS thread per shard — the result is bit-identical either way, and
/// bit-identical to the serial engine at every shard count.
///
/// # Panics
/// Panics if `cfg` is not [`shardable`], or if the run observed a
/// lookahead violation (impossible while `submit_net` enforces the
/// `min_forward_us` floor; the with-lookahead variant below exists so the
/// verification suite can prove violations *are* caught).
pub fn run_sharded(
    cfg: &SimConfig,
    kind: CalendarKind,
    shards: u16,
    threads: usize,
) -> Sim<RoccModel> {
    let (sim, violations) = run_sharded_with_lookahead(cfg, kind, shards, threads, lookahead_ns(cfg));
    assert_eq!(
        violations, 0,
        "cross-shard arrivals violated the min_forward_us lookahead"
    );
    sim
}

/// [`run_sharded`] with an explicit lookahead, returning the violation
/// count instead of asserting on it. Claiming *more* lookahead than the
/// model's real forwarding floor makes the windows unsound; the
/// verification suite uses exactly that as a seeded mutation and asserts
/// both that violations are reported and that the differential oracle
/// flags the diverged trace.
pub fn run_sharded_with_lookahead(
    cfg: &SimConfig,
    kind: CalendarKind,
    shards: u16,
    threads: usize,
    lookahead_ns: u64,
) -> (Sim<RoccModel>, u64) {
    assert!(shardable(cfg), "configuration is not shardable");
    assert!(shards >= 1, "need at least one shard");
    let shard_of = partition(cfg, shards);
    let apps_per_node = cfg.apps_per_node as u32;
    let plan = ShardPlan {
        shard_of: Arc::clone(&shard_of),
        shards,
        lookahead_ns,
    };
    let mut sharded = ShardedSim::new(
        kind,
        plan,
        Arc::new(move |ev: &Ev| exec_cell(ev, apps_per_node)),
        |me| {
            let mut m = RoccModel::new(cfg.clone());
            m.shard = Some(ShardSlice {
                me,
                shard_of: Arc::clone(&shard_of),
            });
            m
        },
        |sim, _| sim.ctx().post_at(SimTime::ZERO, Ev::Init),
    );
    sharded.run_until(SimTime::from_secs_f64(cfg.duration_s), threads);
    let violations = sharded.violations();
    let sim = sharded.merge(kind, |models| absorb_models(models, &shard_of));
    (sim, violations)
}

/// Derived seed for case `case` of the sharded smoke/differential suites
/// (stream id [`stream_kind::SHARD_SMOKE`]): scripts/verify.sh and
/// `tests/sharding.rs` draw their per-case configuration seeds here so
/// the cases are reproducible and disjoint from every model stream.
pub fn smoke_seed(master: u64, case: u64) -> u64 {
    Streams::new(master)
        .stream3(stream_kind::SHARD_SMOKE, case, 0)
        .next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mpp_tree(nodes: usize) -> SimConfig {
        SimConfig {
            arch: Arch::Mpp {
                forwarding: Forwarding::BinaryTree,
            },
            nodes,
            ..Default::default()
        }
    }

    #[test]
    fn partition_is_total_and_in_range() {
        for shards in [1u16, 2, 3, 4, 8] {
            for nodes in [2usize, 7, 31, 64] {
                let p = partition(&mpp_tree(nodes), shards);
                assert_eq!(p.len(), nodes);
                assert!(p.iter().all(|&s| s < shards));
                assert_eq!(p[0], 0, "the root (main process) stays on shard 0");
            }
        }
    }

    #[test]
    fn tree_partition_keeps_subtrees_whole() {
        // Every cut edge is a child -> parent forwarding link, and a node
        // below the cut depth always rides with its parent's subtree.
        let nodes = 63;
        for shards in [2u16, 3, 4, 8] {
            let p = partition(&mpp_tree(nodes), shards);
            let d = u32::BITS - u32::from(shards - 1).leading_zeros();
            for n in 1..nodes as u32 {
                if tree_depth(n) > d {
                    assert_eq!(
                        p[n as usize],
                        p[tree_parent(n) as usize],
                        "node {n} split from its subtree at {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn partition_is_pure() {
        let a = partition(&mpp_tree(31), 4);
        let b = partition(&mpp_tree(31), 4);
        assert_eq!(*a, *b);
    }

    #[test]
    fn shardable_excludes_coupling_features() {
        assert!(!shardable(&SimConfig::default()), "shared Ethernet couples all nodes");
        assert!(shardable(&mpp_tree(8)));
        assert!(shardable(&SimConfig {
            arch: Arch::Now {
                contention_free: true
            },
            ..Default::default()
        }));
        assert!(!shardable(&SimConfig {
            arch: Arch::Smp,
            ..Default::default()
        }));
        assert!(!shardable(&SimConfig {
            degradation: Some(crate::config::DegradationConfig::default()),
            ..mpp_tree(8)
        }));
        assert!(!shardable(&SimConfig {
            overload: Some(crate::config::OverloadRamp::default()),
            ..mpp_tree(8)
        }));
        let mut barrier = mpp_tree(8);
        barrier.app.barrier_period_us = Some(1_000_000.0);
        assert!(!shardable(&barrier));
    }

    #[test]
    fn smoke_seeds_are_stable_and_distinct() {
        let seeds: Vec<u64> = (0..16).map(|i| smoke_seed(7, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
        assert_eq!(smoke_seed(7, 3), seeds[3]);
    }
}
