//! Golden digests: the exact end state and metrics of a small config
//! matrix at fixed seeds, pinned as FNV-1a digests.
//!
//! Each case runs one serial simulation to its horizon and digests
//! * the `state_payload` bytes (clock, event counters, per-cell sequence
//!   counters, the calendar with its sequence numbers, and the model),
//! * the `Debug` text of its `SimMetrics` (every field, floats printed
//!   round-trip exact).
//!
//! A refactor of the engine or the model must leave both byte-identical.
//! The matrix spans every architecture and forwarding mode, CF and BF, a
//! fault plan, the degradation controller, adaptive batching and the heap
//! calendar. The cell-keyed configurations (per-node CPU banks on a
//! contention-free interconnect, see DESIGN.md §11) are the ones whose
//! digests depend on the cell-keyed tie order: one global sequence counter
//! changes their `state_payload`, one shared accumulator changes the last
//! bits of their summed CPU times.
//!
//! When a digest legitimately changes, the failure message prints the
//! whole new table to paste in.

use paradyn_core::{
    build_with_calendar, AdaptiveBatch, Arch, ConsumerStallFaults, DaemonCrashFaults,
    DegradationConfig, FaultPlan, Forwarding, LinkFaults, OverloadRamp, SimConfig,
};
use paradyn_des::{fnv1a, CalendarKind, SimTime};

fn now(contention_free: bool) -> Arch {
    Arch::Now { contention_free }
}

fn mpp(forwarding: Forwarding) -> Arch {
    Arch::Mpp { forwarding }
}

/// The pinned matrix: `(name, calendar, config)`.
fn cases() -> Vec<(&'static str, CalendarKind, SimConfig)> {
    let base = SimConfig {
        duration_s: 2.0,
        seed: 0x9E37_79B9,
        ..Default::default()
    };
    let mpp_tree_bf = SimConfig {
        arch: mpp(Forwarding::BinaryTree),
        nodes: 63,
        batch: 16,
        ..base.clone()
    };
    let degraded_params = paradyn_workload::RoccParams {
        pipe_capacity: 8,
        ..Default::default()
    };
    vec![
        (
            "now_cf_cf",
            CalendarKind::Wheel,
            SimConfig {
                arch: now(true),
                nodes: 8,
                ..base.clone()
            },
        ),
        (
            "now_cf_bf",
            CalendarKind::Wheel,
            SimConfig {
                arch: now(true),
                nodes: 8,
                batch: 16,
                ..base.clone()
            },
        ),
        (
            "now_ethernet_cf",
            CalendarKind::Wheel,
            SimConfig {
                arch: now(false),
                nodes: 4,
                ..base.clone()
            },
        ),
        (
            "smp_bf",
            CalendarKind::Wheel,
            SimConfig {
                arch: Arch::Smp,
                nodes: 8,
                apps_per_node: 16,
                pds: 2,
                batch: 8,
                ..base.clone()
            },
        ),
        (
            "mpp_direct_cf",
            CalendarKind::Wheel,
            SimConfig {
                arch: mpp(Forwarding::Direct),
                nodes: 64,
                ..base.clone()
            },
        ),
        ("mpp_tree_bf", CalendarKind::Wheel, mpp_tree_bf.clone()),
        ("mpp_tree_bf_heap", CalendarKind::Heap, mpp_tree_bf.clone()),
        (
            "mpp_tree_faults",
            CalendarKind::Wheel,
            SimConfig {
                batch: 4,
                duration_s: 3.0,
                faults: FaultPlan {
                    daemon_crash: Some(DaemonCrashFaults {
                        mtbf_us: 300_000.0,
                        recovery_us: 50_000.0,
                    }),
                    link: Some(LinkFaults {
                        fail_prob: 0.1,
                        ..Default::default()
                    }),
                    stall: Some(ConsumerStallFaults {
                        interval_us: 200_000.0,
                        stall_us: 20_000.0,
                    }),
                    ..Default::default()
                },
                ..mpp_tree_bf.clone()
            },
        ),
        (
            "now_cf_degraded",
            CalendarKind::Wheel,
            SimConfig {
                arch: now(true),
                nodes: 4,
                apps_per_node: 4,
                sampling_period_us: 4_000.0,
                params: degraded_params,
                degradation: Some(DegradationConfig {
                    pipe_hi: 0.5,
                    pipe_lo: 0.25,
                    daemon_hi: 6,
                    daemon_lo: 2,
                    tiers: 4,
                    keep_tiers: 2,
                    ..Default::default()
                }),
                overload: Some(OverloadRamp {
                    at_s: 0.2,
                    factor: 4.0,
                }),
                ..base.clone()
            },
        ),
        (
            "mpp_tree_adaptive",
            CalendarKind::Wheel,
            SimConfig {
                batch: 8,
                adaptive: Some(AdaptiveBatch {
                    interval_us: 50_000.0,
                    ..Default::default()
                }),
                ..mpp_tree_bf
            },
        ),
    ]
}

/// `(name, state_payload digest, SimMetrics Debug digest, events)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("now_cf_cf", 0x53b6e5a238c9ec45, 0x1f259e2ef8fc03f0, 23252),
    ("now_cf_bf", 0x6cc983a2a4d82dde, 0x45dc23e8610f980d, 22083),
    ("now_ethernet_cf", 0x3bc68e16cf6b611f, 0x9fa13bca96caaed0, 11533),
    ("smp_bf", 0xb4ff4a308dfe279d, 0x88ff456893f03a1d, 16281),
    ("mpp_direct_cf", 0x45d6a0757c5a7816, 0x415bc25a4544f9b3, 181239),
    ("mpp_tree_bf", 0xbb94bff65f1e7cee, 0xdc36140791bf9ffd, 172434),
    ("mpp_tree_bf_heap", 0xbb94bff65f1e7cee, 0xdc36140791bf9ffd, 172434),
    ("mpp_tree_faults", 0x53621c864fe6c1c3, 0x2cac2fb19d340790, 266806),
    ("now_cf_degraded", 0x19e87c91dd8c380b, 0xdd22efb00b2c137b, 30141),
    ("mpp_tree_adaptive", 0x6f451eb0061a1465, 0xf65f53e7d6c6f877, 194093),
];

/// Run one case serially to its horizon and digest its end state.
fn digest(kind: CalendarKind, cfg: &SimConfig) -> (u64, u64, u64) {
    let horizon = SimTime::from_secs_f64(cfg.duration_s);
    let mut sim = build_with_calendar(cfg, kind);
    sim.run_until(horizon);
    let events = sim.executed_events();
    let m = sim.model.metrics(horizon - SimTime::ZERO, events);
    (
        fnv1a(&sim.state_payload()),
        fnv1a(format!("{m:?}").as_bytes()),
        events,
    )
}

#[test]
fn golden_digests_are_unchanged() {
    let got: Vec<(&str, u64, u64, u64)> = cases()
        .iter()
        .map(|(name, kind, cfg)| {
            let (state, metrics, events) = digest(*kind, cfg);
            (*name, state, metrics, events)
        })
        .collect();
    if got != GOLDEN {
        let changed: Vec<&str> = got
            .iter()
            .filter(|row| !GOLDEN.contains(row))
            .map(|row| row.0)
            .collect();
        let table: Vec<String> = got
            .iter()
            .map(|(n, s, m, e)| format!("    (\"{n}\", 0x{s:016x}, 0x{m:016x}, {e}),"))
            .collect();
        panic!(
            "golden digests changed for {changed:?}; the table is now:\n{}",
            table.join("\n")
        );
    }
}

/// The canonical state bytes do not depend on the calendar backend.
#[test]
fn heap_and_ring_runs_share_their_digests() {
    let row = |n: &str| GOLDEN.iter().find(|g| g.0 == n).copied();
    let (Some(ring), Some(heap)) = (row("mpp_tree_bf"), row("mpp_tree_bf_heap")) else {
        panic!("golden table lacks the calendar pair");
    };
    assert_eq!((ring.1, ring.2, ring.3), (heap.1, heap.2, heap.3));
}
