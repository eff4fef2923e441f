//! Section 5 measurement experiments on the real threaded mini-IS:
//! Figure 30 / Table 7 (policy vs sampling period) and Figure 31 / Table 8
//! (policy vs application program).

use crate::fmt::{fnum, heading, pct, TextTable};
use crate::scale::Scale;
use crate::session::Session;
use paradyn_stats::Design2kr;
use paradyn_testbed::{KernelKind, Measurement, Policy, TestbedConfig};
use std::time::Duration;

fn measure(
    policy: Policy,
    period: Duration,
    kernel: KernelKind,
    session: &mut Session,
) -> Measurement {
    let scale = session.scale();
    session.measure(&TestbedConfig {
        policy,
        sampling_period: period,
        kernel,
        nodes: 2,
        duration: scale.testbed,
        seed: scale.seed,
        ..Default::default()
    })
}

/// The Figure 30 measurement grid: {CF, BF(32)} × {10 ms, 30 ms}, measured
/// afresh.
pub fn fig30_grid(scale: &Scale) -> Vec<(Policy, u64, Measurement)> {
    fig30_grid_in(&mut Session::new(*scale))
}

/// [`fig30_grid`] through `session`: each cell is measured once per
/// session (Figure 30 and Table 7 share it).
pub fn fig30_grid_in(session: &mut Session) -> Vec<(Policy, u64, Measurement)> {
    let mut out = vec![];
    for &period_ms in &[10u64, 30] {
        for policy in [Policy::Cf, Policy::Bf { batch: 32 }] {
            let m = measure(
                policy,
                Duration::from_millis(period_ms),
                KernelKind::Bt,
                session,
            );
            out.push((policy, period_ms, m));
        }
    }
    out
}

/// Reproduce Figure 30: measured daemon and main-process CPU time under CF
/// vs BF at two sampling periods.
pub fn run_fig30(session: &mut Session) {
    heading("Figure 30: measured CPU overhead, CF vs BF(32) (bt_like kernel)");
    let grid = fig30_grid_in(session);
    let mut t = TextTable::new(vec![
        "sampling period",
        "policy",
        "Pd CPU (ms)",
        "main CPU (ms)",
        "app CPU (s)",
        "samples",
        "forward ops",
    ]);
    for (policy, period, m) in &grid {
        t.row(vec![
            format!("{period} ms"),
            policy.label(),
            fnum(m.pd_cpu.as_secs_f64() * 1e3, 2),
            fnum(m.main_cpu.as_secs_f64() * 1e3, 2),
            fnum(m.app_cpu.as_secs_f64(), 2),
            m.samples_received.to_string(),
            m.forward_ops.to_string(),
        ]);
    }
    t.print();
    for period in [10u64, 30] {
        let cf = grid
            .iter()
            .find(|(p, pr, _)| *p == Policy::Cf && *pr == period)
            .expect("grid complete");
        let bf = grid
            .iter()
            .find(|(p, pr, _)| matches!(p, Policy::Bf { .. }) && *pr == period)
            .expect("grid complete");
        println!(
            "{period} ms: Pd CPU reduction {:.0}%  main CPU reduction {:.0}%",
            100.0 * (1.0 - bf.2.pd_cpu.as_secs_f64() / cf.2.pd_cpu.as_secs_f64()),
            100.0 * (1.0 - bf.2.main_cpu.as_secs_f64() / cf.2.main_cpu.as_secs_f64()),
        );
    }
    println!("paper: >60% daemon and ~80% main-process reduction under BF");
    println!(
        "(cpu accounting source: {:?})",
        grid[0].2.cpu_source
    );
}

/// Reproduce Table 7: allocation of variation of scheduling policy vs
/// sampling period, for daemon and main CPU times.
pub fn run_table7(session: &mut Session) {
    heading("Table 7: variation explained — policy (A) vs sampling period (B)");
    let grid = fig30_grid_in(session);
    let mut pd = Design2kr::new(vec!["scheduling policy", "sampling period"]);
    let mut main = Design2kr::new(vec!["scheduling policy", "sampling period"]);
    for (policy, period, m) in &grid {
        let a = matches!(policy, Policy::Bf { .. }) as usize;
        let b = (*period == 30) as usize;
        let bits = a | (b << 1);
        pd.set_responses(bits, vec![m.pd_cpu.as_secs_f64()]);
        main.set_responses(bits, vec![m.main_cpu.as_secs_f64()]);
    }
    let vp = pd.analyze();
    let vm = main.analyze();
    let mut t = TextTable::new(vec![
        "factor",
        "Pd CPU variation %",
        "main CPU variation %",
        "paper Pd %",
        "paper main %",
    ]);
    for (label, paper_pd, paper_main) in [("A", 47.6, 52.9), ("B", 35.9, 26.5), ("AB", 16.5, 20.7)]
    {
        t.row(vec![
            label.to_string(),
            fnum(vp.pct_of(label).expect("term exists"), 1),
            fnum(vm.pct_of(label).expect("term exists"), 1),
            fnum(paper_pd, 1),
            fnum(paper_main, 1),
        ]);
    }
    t.print();
    println!("paper conclusion: the scheduling policy dominates the IS overhead variation");
}

/// The Figure 31 measurement grid: {CF, BF(32)} × {pvmbt, pvmis}, measured
/// once per session (Figure 31 and Table 8 share it; its bt_like cells are
/// the Figure 30 grid's 10 ms cells).
pub fn fig31_grid(session: &mut Session) -> Vec<(Policy, KernelKind, Measurement)> {
    let mut out = vec![];
    for kernel in [KernelKind::Bt, KernelKind::Is] {
        for policy in [Policy::Cf, Policy::Bf { batch: 32 }] {
            let m = measure(policy, Duration::from_millis(10), kernel, session);
            out.push((policy, kernel, m));
        }
    }
    out
}

/// Reproduce Figure 31: normalized CPU occupancy per process, CF vs BF,
/// for the two applications.
pub fn run_fig31(session: &mut Session) {
    heading("Figure 31: normalized CPU occupancy, CF vs BF(32), 10 ms sampling");
    let grid = fig31_grid(session);
    let mut t = TextTable::new(vec![
        "application",
        "policy",
        "Pd normalized %",
        "main normalized %",
        "app CPU (s)",
    ]);
    for (policy, kernel, m) in &grid {
        t.row(vec![
            kernel.label().to_string(),
            policy.label(),
            pct(m.pd_normalized()),
            pct(m.main_normalized()),
            fnum(m.app_cpu.as_secs_f64(), 2),
        ]);
    }
    t.print();
    println!("paper: the BF reduction is not significantly affected by the application");
}

/// Reproduce Table 8: allocation of variation of scheduling policy vs
/// application program.
pub fn run_table8(session: &mut Session) {
    heading("Table 8: variation explained — policy (A) vs application (B)");
    let grid = fig31_grid(session);
    let mut pd = Design2kr::new(vec!["scheduling policy", "application program"]);
    let mut main = Design2kr::new(vec!["scheduling policy", "application program"]);
    for (policy, kernel, m) in &grid {
        let a = matches!(policy, Policy::Bf { .. }) as usize;
        let b = (*kernel == KernelKind::Is) as usize;
        let bits = a | (b << 1);
        pd.set_responses(bits, vec![m.pd_normalized()]);
        main.set_responses(bits, vec![m.main_normalized()]);
    }
    let vp = pd.analyze();
    let vm = main.analyze();
    let mut t = TextTable::new(vec![
        "factor",
        "Pd norm variation %",
        "main norm variation %",
        "paper Pd %",
        "paper main %",
    ]);
    for (label, paper_pd, paper_main) in [("A", 98.5, 86.8), ("B", 0.3, 6.8), ("AB", 1.2, 6.4)] {
        t.row(vec![
            label.to_string(),
            fnum(vp.pct_of(label).expect("term exists"), 1),
            fnum(vm.pct_of(label).expect("term exists"), 1),
            fnum(paper_pd, 1),
            fnum(paper_main, 1),
        ]);
    }
    t.print();
    println!("paper conclusion: the effect of the application program is negligible");
}
