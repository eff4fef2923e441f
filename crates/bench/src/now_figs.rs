//! The NOW simulation experiments: Table 4 / Figure 16 (factorial +
//! allocation of variation) and Figures 17–19 (policy comparisons).

use crate::fmt::{fnum, heading, ms, pct, TextTable};
use crate::scale::Scale;
use crate::session::Session;
use crate::simhelp::{mean_of, print_variation, replicate, run_factorial, FactorialRun};
use paradyn_core::{Arch, SimConfig};
use paradyn_workload::{comm_intensive, compute_intensive};

/// Factor levels of the NOW 2^4 design (Table 4): A = nodes {5, 50},
/// B = sampling period {2, 32 ms}, C = batch {1, 128}, D = app type
/// {compute-, communication-intensive}.
fn now_factorial_cfg(bits: usize, scale: &Scale) -> SimConfig {
    SimConfig {
        arch: Arch::Now {
            contention_free: false,
        },
        nodes: if bits & 1 != 0 { 50 } else { 5 },
        sampling_period_us: if bits & 2 != 0 { 32_000.0 } else { 2_000.0 },
        batch: if bits & 4 != 0 { 128 } else { 1 },
        app: if bits & 8 != 0 {
            comm_intensive()
        } else {
            compute_intensive()
        },
        duration_s: scale.sim_s,
        seed: scale.seed,
        ..Default::default()
    }
}

/// Run the NOW factorial once (shared by Table 4 and Figure 16).
pub fn now_factorial(session: &mut Session) -> FactorialRun {
    let scale = &session.scale();
    run_factorial(
        vec!["number of nodes", "sampling period", "forwarding policy", "application type"],
        |bits| now_factorial_cfg(bits, scale),
        |m| m.pd_cpu_per_node_s,
        session,
    )
}

/// Reproduce Table 4: the 2^4·r NOW simulation results.
pub fn run_table4(session: &mut Session) {
    let scale = &session.scale();
    heading("Table 4: 2^k r factorial simulation results — NOW");
    let fr = now_factorial(session);
    let mut t = TextTable::new(vec![
        "period ms",
        "nodes",
        "batch",
        "app type",
        "Pd CPU/node (s)",
        "latency/sample (ms)",
    ]);
    for &(bits, ov, lat) in &fr.rows {
        t.row(vec![
            if bits & 2 != 0 { "32" } else { "2" }.to_string(),
            if bits & 1 != 0 { "50" } else { "5" }.to_string(),
            if bits & 4 != 0 { "128" } else { "1" }.to_string(),
            if bits & 8 != 0 { "comm" } else { "compute" }.to_string(),
            fnum(ov, 4),
            fnum(lat, 3),
        ]);
    }
    t.print();
    println!(
        "(duration {} s, {} replications; the paper ran 40-100 s x 50 reps)",
        scale.sim_s, scale.reps
    );
}

/// Reproduce Figure 16: allocation of variation for the NOW design.
pub fn run_fig16(session: &mut Session) {
    heading("Figure 16: allocation of variation — NOW");
    let fr = now_factorial(session);
    print_variation("variation explained for Pd CPU time", &fr.overhead);
    print_variation("variation explained for monitoring latency", &fr.latency);
    println!("paper: Pd CPU time dominated by B (sampling period, 68%) then C (policy, 19%);");
    println!("       latency dominated by C (policy, 46%) then A (nodes, 21%)");
}

/// Reproduce Figure 17: local-level CPU time and throughput, CF vs BF(32),
/// on one node with multiple application processes.
pub fn run_fig17(session: &mut Session) {
    let scale = &session.scale();
    heading("Figure 17: local metrics, CF vs BF(32) (one node)");
    let base = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        nodes: 1,
        duration_s: scale.sim_s,
        seed: scale.seed,
        ..Default::default()
    };
    println!("\n(a) 8 application processes, varying sampling period");
    let mut t = TextTable::new(vec![
        "period ms",
        "Pd CPU (s) CF",
        "Pd CPU (s) BF",
        "throughput/s CF",
        "throughput/s BF",
    ]);
    for &p in &[5.0, 10.0, 20.0, 30.0, 40.0, 50.0] {
        let cf = replicate(
            &SimConfig {
                apps_per_node: 8,
                sampling_period_us: p * 1e3,
                ..base.clone()
            },
            session,
        );
        let bf = replicate(
            &SimConfig {
                apps_per_node: 8,
                sampling_period_us: p * 1e3,
                batch: 32,
                ..base.clone()
            },
            session,
        );
        t.row(vec![
            fnum(p, 0),
            fnum(mean_of(&cf, |m| m.pd_cpu_per_node_s), 3),
            fnum(mean_of(&bf, |m| m.pd_cpu_per_node_s), 3),
            fnum(mean_of(&cf, |m| m.throughput_per_s), 0),
            fnum(mean_of(&bf, |m| m.throughput_per_s), 0),
        ]);
    }
    t.print();

    println!("\n(b) sampling period = 40 ms, varying application processes");
    let mut t = TextTable::new(vec![
        "apps",
        "Pd CPU (s) CF",
        "Pd CPU (s) BF",
        "throughput/s CF",
        "throughput/s BF",
    ]);
    for &apps in &[1usize, 2, 4, 8, 16, 32] {
        let cf = replicate(
            &SimConfig {
                apps_per_node: apps,
                ..base.clone()
            },
            session,
        );
        let bf = replicate(
            &SimConfig {
                apps_per_node: apps,
                batch: 32,
                ..base.clone()
            },
            session,
        );
        t.row(vec![
            apps.to_string(),
            fnum(mean_of(&cf, |m| m.pd_cpu_per_node_s), 3),
            fnum(mean_of(&bf, |m| m.pd_cpu_per_node_s), 3),
            fnum(mean_of(&cf, |m| m.throughput_per_s), 0),
            fnum(mean_of(&bf, |m| m.throughput_per_s), 0),
        ]);
    }
    t.print();
    println!("paper shape: BF daemon CPU far below CF, gap widening at short periods/many apps;");
    println!("             BF sustains higher forwarding throughput once CF saturates");
}

/// Reproduce Figure 18: global metrics vs nodes and vs sampling period,
/// CF vs BF(32) vs uninstrumented (contention-free network).
pub fn run_fig18(session: &mut Session) {
    let scale = &session.scale();
    heading("Figure 18: global metrics, CF vs BF(32), contention-free network");
    let base = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        duration_s: scale.sim_s,
        seed: scale.seed,
        ..Default::default()
    };
    let mut series = |cfg: &SimConfig| {
        let runs = replicate(cfg, session);
        (
            mean_of(&runs, |m| m.pd_cpu_util_per_node),
            mean_of(&runs, |m| m.main_cpu_util),
            mean_of(&runs, |m| m.app_cpu_util_per_node),
            mean_of(&runs, |m| m.fwd_latency_mean_s),
        )
    };
    println!("\n(a) sampling period = 40 ms, varying nodes");
    let mut t = TextTable::new(vec![
        "nodes",
        "Pd CPU %/node CF",
        "Pd CPU %/node BF",
        "Paradyn CPU % CF",
        "Paradyn CPU % BF",
        "app CPU % CF",
        "app CPU % uninst",
        "latency ms CF",
        "latency ms BF",
    ]);
    for &n in &[2usize, 4, 8, 16, 32] {
        let cf = series(&SimConfig { nodes: n, ..base.clone() });
        let bf = series(&SimConfig { nodes: n, batch: 32, ..base.clone() });
        let un = series(&SimConfig {
            nodes: n,
            instrumented: false,
            ..base.clone()
        });
        t.row(vec![
            n.to_string(),
            pct(cf.0),
            pct(bf.0),
            pct(cf.1),
            pct(bf.1),
            pct(cf.2),
            pct(un.2),
            ms(cf.3),
            ms(bf.3),
        ]);
    }
    t.print();

    println!("\n(b) nodes = 8, varying sampling period");
    let mut t = TextTable::new(vec![
        "period ms",
        "Pd CPU %/node CF",
        "Pd CPU %/node BF",
        "Paradyn CPU % CF",
        "Paradyn CPU % BF",
        "app CPU % CF",
        "latency ms CF",
        "latency ms BF",
    ]);
    for &p in &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0] {
        let cf = series(&SimConfig {
            nodes: 8,
            sampling_period_us: p * 1e3,
            ..base.clone()
        });
        let bf = series(&SimConfig {
            nodes: 8,
            sampling_period_us: p * 1e3,
            batch: 32,
            ..base.clone()
        });
        t.row(vec![
            fnum(p, 0),
            pct(cf.0),
            pct(bf.0),
            pct(cf.1),
            pct(bf.1),
            pct(cf.2),
            ms(cf.3),
            ms(bf.3),
        ]);
    }
    t.print();
}

/// Reproduce Figure 19: batch-size sweep showing the knee (8 nodes,
/// contention-free network).
pub fn run_fig19(session: &mut Session) {
    let scale = &session.scale();
    heading("Figure 19: batch-size sweep (8 nodes)");
    let base = SimConfig {
        arch: Arch::Now {
            contention_free: true,
        },
        duration_s: scale.sim_s,
        seed: scale.seed,
        ..Default::default()
    };
    for &p in &[1.0, 40.0, 64.0] {
        println!("\nsampling period = {p} ms");
        let mut t = TextTable::new(vec![
            "batch",
            "Pd CPU %/node",
            "Paradyn CPU %",
            "app CPU %/node",
            "fwd latency ms",
            "full latency ms",
        ]);
        for &b in &[1usize, 2, 4, 8, 16, 32, 64] {
            let runs = replicate(
                &SimConfig {
                    sampling_period_us: p * 1e3,
                    batch: b,
                    ..base.clone()
                },
                session,
            );
            t.row(vec![
                b.to_string(),
                pct(mean_of(&runs, |m| m.pd_cpu_util_per_node)),
                pct(mean_of(&runs, |m| m.main_cpu_util)),
                pct(mean_of(&runs, |m| m.app_cpu_util_per_node)),
                ms(mean_of(&runs, |m| m.fwd_latency_mean_s)),
                ms(mean_of(&runs, |m| m.latency_mean_s)),
            ]);
        }
        t.print();
    }
    println!("paper shape: sharp overhead drop just past batch=1, levelling off at large");
    println!("batches (the knee); full latency grows with batch (accumulation trade-off)");
}
