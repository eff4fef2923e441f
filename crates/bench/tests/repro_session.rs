//! Sharing results between the artifacts of one `repro` process must never
//! change what they print: every section of a multi-artifact run has to be
//! byte-identical to the section the same artifact prints in a process of
//! its own.

use std::process::{Child, Command, Stdio};

/// Artifacts with shared experiments (Table 4 / Figure 16 and Table 6 /
/// Figure 25 are one factorial each) plus Figure 26's single batch.
const IDS: [&str; 5] = ["table4", "fig16", "table6", "fig25", "fig26"];

/// Start `repro` on `ids` at a tiny scale.
fn spawn(ids: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--reps", "2", "--sim-secs", "0.2"])
        .args(ids)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro")
}

/// Wait for a `repro` process to succeed; return (stdout, stderr).
fn finish(child: Child) -> (String, String) {
    let out = child.wait_with_output().expect("wait for repro");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "repro failed: {stderr}");
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), stderr)
}

/// `(id, section)` per artifact, in print order. A section is every line
/// after the previous `[… completed in …]` line (or the header), with the
/// timing line itself dropped.
fn sections(stdout: &str) -> Vec<(String, String)> {
    let mut out = vec![];
    let mut cur = String::new();
    for line in stdout.lines().skip(1) {
        let id = line
            .strip_prefix('[')
            .and_then(|l| l.split_once(" completed in "))
            .map(|(id, _)| id);
        match id {
            Some(id) => out.push((id.to_string(), std::mem::take(&mut cur))),
            None => {
                cur.push_str(line);
                cur.push('\n');
            }
        }
    }
    assert!(cur.is_empty(), "output after the last section: {cur:?}");
    out
}

#[test]
fn shared_session_prints_what_separate_processes_print() {
    // All six processes run at once; they share nothing but the machine.
    let shared = spawn(&IDS);
    let alone: Vec<Child> = IDS.iter().map(|id| spawn(&[id])).collect();
    let (stdout, stderr) = finish(shared);
    let shared = sections(&stdout);
    let ids: Vec<&str> = shared.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(ids, IDS);
    for ((id, section), child) in shared.iter().zip(alone) {
        let alone = sections(&finish(child).0);
        assert_eq!(alone.len(), 1);
        assert_eq!(&alone[0].1, section, "{id}: shared-session section differs");
    }
    // 16 factorial cells × 2 reps each for Table 4 and Table 6, reused by
    // Figures 16 and 25; Figure 26 adds 21 configurations × 2 reps.
    assert!(
        stderr.contains("simulation runs 106 computed, 64 reused"),
        "{stderr}"
    );
}

#[test]
fn non_finite_sim_secs_is_a_usage_error() {
    for bad in ["inf", "-inf", "NaN", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--sim-secs", bad, "table3"])
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--sim-secs {bad} was accepted");
        assert!(
            stderr.starts_with("usage: repro"),
            "--sim-secs {bad}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--sim-secs {bad} ran artifacts");
    }
}
