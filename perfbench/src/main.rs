//! `perfbench` — the measuring half of the repo benchmark; `run.py` builds
//! it, checks its outputs and summarises them.
//!
//! ```text
//! perfbench run   --workload <model workload> --seed N --seconds S --out FILE
//! perfbench trace --workload <any workload>   --seed N --out FILE
//! ```
//!
//! `run` times whole model runs (`build`, then `run_until` + `metrics`)
//! for `S` seconds and writes every iteration's timings and output digests
//! to `FILE`. `trace` makes one untraced and one traced run of the
//! workload's model configuration, measures the layer micro-costs, runs
//! the `repro` subset in-process and writes the per-layer metrics, spans
//! and step histogram to `FILE`.

mod clock;
mod layers;
mod probe;
mod trace;
mod workloads;

use clock::{peak_rss_mb, thread_cpu_ns, timed, Clock};
use paradyn_bench::json::Json;
use paradyn_core::experiment::default_shards;
use paradyn_core::{build, default_threads, RoccModel, SimConfig, SimMetrics};
use paradyn_des::{fnv1a, Model, PersistState, Sim, SimTime};
use paradyn_isim::chaos::conservation_violation;
use std::process::ExitCode;
use workloads::Workload;

/// Builds timed before the measured loop; `setup_s` is their median
/// together with each iteration's own build.
const SETUP_REPS: usize = 15;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode (run | trace)")?;
    let (mut workload, mut seed, mut seconds, mut out) = (None, None, 10.0, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?,
            "--out" => out = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        out: out.ok_or("missing --out")?,
    })
}

fn hex(x: u64) -> Json {
    Json::str(format!("{x:016x}"))
}

/// FNV-1a over the key `SimMetrics` fields, floats by their bit patterns.
fn metrics_digest(m: &SimMetrics) -> u64 {
    let mut bytes = vec![];
    for v in [
        m.events,
        m.emitted_samples,
        m.generated_samples,
        m.received_samples,
        m.received_msgs,
        m.forwarded_batches,
        m.forwarded_samples,
        m.samples_lost,
        m.samples_in_flight,
        m.latency_mean_s.to_bits(),
        m.pd_cpu_per_node_s.to_bits(),
        m.app_cpu_util_per_node.to_bits(),
        m.main_cpu_util.to_bits(),
    ] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Output of one model run, for the correctness checks.
struct Outcome {
    state_digest: u64,
    metrics_digest: u64,
    violation: Option<String>,
    events: u64,
}

impl Outcome {
    fn of<M: Model + PersistState>(sim: &Sim<M>, cfg: &SimConfig, m: &SimMetrics) -> Outcome
    where
        M::Event: paradyn_des::Persist + Clone,
    {
        Outcome {
            state_digest: fnv1a(&sim.state_payload()),
            metrics_digest: metrics_digest(m),
            violation: conservation_violation(cfg, m),
            events: sim.executed_events(),
        }
    }

    fn json(&self) -> Vec<(String, Json)> {
        vec![
            ("state_digest".into(), hex(self.state_digest)),
            ("metrics_digest".into(), hex(self.metrics_digest)),
            (
                "violation".into(),
                self.violation.clone().map_or(Json::Null, Json::Str),
            ),
            ("events".into(), Json::num(self.events as f64)),
        ]
    }
}

fn horizon(cfg: &SimConfig) -> SimTime {
    SimTime::from_secs_f64(cfg.duration_s)
}

fn metrics_of(model: &RoccModel, cfg: &SimConfig, events: u64) -> SimMetrics {
    model.metrics(horizon(cfg) - SimTime::ZERO, events)
}

/// The options that took effect, so a later removal of an option does
/// not silently change what is measured.
fn settings(sim: &Sim<RoccModel>) -> Json {
    Json::Obj(vec![
        (
            "calendar".into(),
            Json::str(format!("{:?}", sim.calendar_kind())),
        ),
        ("execution".into(), Json::str("serial build + run_until")),
        (
            "paradyn_shards_env".into(),
            Json::num(default_shards() as f64),
        ),
        (
            "paradyn_threads".into(),
            Json::num(default_threads() as f64),
        ),
    ])
}

/// One untraced run: `(run_until + metrics) wall s, its thread CPU s,
/// run_until wall s, outcome)`.
fn untraced(cfg: &SimConfig, mut sim: Sim<RoccModel>) -> Result<(f64, f64, f64, Outcome), String> {
    let c = Clock::new();
    let cpu0 = thread_cpu_ns()?;
    sim.run_until(horizon(cfg));
    let run_s = c.secs();
    let m = metrics_of(&sim.model, cfg, sim.executed_events());
    let wall_s = c.secs();
    let cpu_s = (thread_cpu_ns()? - cpu0) as f64 * 1e-9;
    Ok((wall_s, cpu_s, run_s, Outcome::of(&sim, cfg, &m)))
}

fn run_mode(a: &Args) -> Result<Json, String> {
    if a.workload == Workload::ReproSubset {
        return Err("repro_subset is timed by run.py around the repro binary".into());
    }
    let cfg = a.workload.model_config(a.seed);
    let mut setup: Vec<Json> = (0..SETUP_REPS)
        .map(|_| Json::num(timed(|| build(&cfg)).0))
        .collect();
    let clock = Clock::new();
    let mut iters = vec![];
    let mut settings_json = Json::Null;
    while iters.is_empty() || clock.secs() < a.seconds {
        let (build_s, sim) = timed(|| build(&cfg));
        setup.push(Json::num(build_s));
        settings_json = settings(&sim);
        let (wall_s, cpu_s, _, out) = untraced(&cfg, sim)?;
        let mut row = vec![
            ("wall_s".into(), Json::num(wall_s)),
            ("cpu_s".into(), Json::num(cpu_s)),
        ];
        row.extend(out.json());
        iters.push(Json::Obj(row));
    }
    Ok(Json::Obj(vec![
        ("settings".into(), settings_json),
        ("setup_s".into(), Json::Arr(setup)),
        ("iterations".into(), Json::Arr(iters)),
        ("peak_rss_mb".into(), Json::num(peak_rss_mb()?)),
    ]))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| {
        let out = match a.mode.as_str() {
            "run" => run_mode(&a)?,
            "trace" => trace::trace_mode(a.workload, a.seed)?,
            other => return Err(format!("unknown mode {other}")),
        };
        std::fs::write(&a.out, out.pretty()).map_err(|e| format!("write {}: {e}", a.out))
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
