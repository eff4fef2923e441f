#![warn(missing_docs)]
//! # paradyn-bench — the reproduction harness
//!
//! One module per group of paper artifacts; each `run_*` function
//! regenerates a table or figure and prints the series/rows the paper
//! reports, annotated with the paper's reference values where published.
//! The `repro` binary dispatches on artifact ids (`table1` … `fig31`,
//! `all`) and passes one [`Session`] to every artifact it runs, so an
//! experiment shared by several artifacts runs once. The in-tree
//! wall-clock benches under `benches/` (built on [`timing`] — the build
//! is hermetic, so no Criterion) measure the performance of the
//! simulator itself.

pub mod analytic_figs;
pub mod degrade_figs;
pub mod fault_figs;
pub mod fig8;
pub mod fmt;
pub mod json;
pub mod mpp_figs;
pub mod now_figs;
pub mod scale;
pub mod session;
pub mod simhelp;
pub mod smp_figs;
pub mod tables;
pub mod testbed_figs;
pub mod timing;

pub use scale::Scale;
pub use session::Session;

/// All artifact ids, in paper order.
pub const ARTIFACTS: &[&str] = &[
    "table1", "table2", "table3", "fig8", "fig9", "fig10", "fig12", "fig13", "fig14", "fig15",
    "table4", "fig16", "fig17", "fig18", "fig19", "table5", "fig20", "fig21", "fig22", "fig23",
    "fig24", "table6", "fig25", "fig26", "fig27", "fig28", "fig30", "table7", "fig31", "table8",
    "faults", "degradation",
];

/// Run one artifact by id in a fresh [`Session`]. Returns `false` for an
/// unknown id.
pub fn run_artifact(id: &str, scale: &Scale) -> bool {
    run_artifact_in(id, &mut Session::new(*scale))
}

/// Run one artifact by id, reusing and adding to `session`'s results.
/// Returns `false` for an unknown id.
pub fn run_artifact_in(id: &str, session: &mut Session) -> bool {
    let scale = &session.scale();
    match id {
        "table1" => tables::run_table1(scale),
        "table2" => tables::run_table2(scale),
        "table3" => tables::run_table3(scale),
        "fig8" => fig8::run_fig8(scale),
        "fig9" => analytic_figs::run_fig9(),
        "fig10" => analytic_figs::run_fig10(),
        "fig12" => analytic_figs::run_fig12(),
        "fig13" => analytic_figs::run_fig13(),
        "fig14" => analytic_figs::run_fig14(),
        "fig15" => analytic_figs::run_fig15(),
        "table4" => now_figs::run_table4(session),
        "fig16" => now_figs::run_fig16(session),
        "fig17" => now_figs::run_fig17(session),
        "fig18" => now_figs::run_fig18(session),
        "fig19" => now_figs::run_fig19(session),
        "table5" => smp_figs::run_table5(session),
        "fig20" => smp_figs::run_fig20(session),
        "fig21" => smp_figs::run_fig21(session),
        "fig22" => smp_figs::run_fig22(session),
        "fig23" => smp_figs::run_fig23(session),
        "fig24" => smp_figs::run_fig24(session),
        "table6" => mpp_figs::run_table6(session),
        "fig25" => mpp_figs::run_fig25(session),
        "fig26" => mpp_figs::run_fig26(session),
        "fig27" => mpp_figs::run_fig27(session),
        "fig28" => mpp_figs::run_fig28(session),
        "fig30" => testbed_figs::run_fig30(session),
        "table7" => testbed_figs::run_table7(session),
        "fig31" => testbed_figs::run_fig31(session),
        "table8" => testbed_figs::run_table8(session),
        "faults" => fault_figs::run_faults(session),
        "degradation" => degrade_figs::run_degradation(session),
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_list_is_complete_and_dispatchable() {
        assert_eq!(ARTIFACTS.len(), 32);
        assert!(!run_artifact("fig99", &Scale::quick()));
    }
}
