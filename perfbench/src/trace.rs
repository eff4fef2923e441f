//! `perfbench trace`: the per-layer breakdown of one workload.
//!
//! Three parts, each recorded as spans on one clock:
//!
//! 1. the workload's model configuration, run untraced and then traced
//!    through [`Probe`], with both runs' digests compared;
//! 2. layer micro-costs sized from the traced run;
//! 3. the `repro` subset run in-process, one span per artifact, and one
//!    Figure 30 testbed grid.

use crate::clock::Clock;
use crate::layers::{self, Span};
use crate::probe::{Probe, KINDS, STRIDE};
use crate::workloads::{Workload, REPRO_SUBSET, SIM_ARTIFACTS};
use crate::{horizon, metrics_of, settings, untraced, Outcome};
use paradyn_bench::json::Json;
use paradyn_bench::Scale;
use paradyn_core::{build, default_threads, SimConfig};
use paradyn_des::{CalendarKind, Sim};

/// Largest accepted `core.model.reconcile_err`: the sampled per-kind
/// step costs times the exact counts must explain the traced run span,
/// less the trace's clock reads, to within 15%. The residual left is the
/// extra cost of a clock read inside a running handler over a read right
/// after another (0.3–7.5% when this was written); a dropped or
/// double-counted event kind, or a wrong sampling scale, shows as a
/// larger error.
const RECONCILE_TOL: f64 = 0.15;

/// Spans on one clock, closed as each section ends.
struct Spans {
    clock: Clock,
    done: Vec<Span>,
}

impl Spans {
    /// Record `name` (caused by `parent`) from `start_ns` to now.
    fn close(&mut self, name: &str, parent: &'static str, start_ns: u64) {
        self.done.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns: self.clock.ns(),
        });
    }

    fn json(&self) -> Json {
        Json::Arr(
            self.done
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(s.name.clone())),
                        ("parent".into(), Json::str(s.parent)),
                        ("start_ns".into(), Json::num(s.start_ns as f64)),
                        ("end_ns".into(), Json::num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Per-layer metrics in the order they are measured.
#[derive(Default)]
struct Layers(Vec<(String, f64)>);

impl Layers {
    fn put(&mut self, name: &str, v: f64) {
        self.0.push((name.to_string(), v));
    }
}

/// What the model part hands on to the rest of the trace.
struct ModelTrace {
    settings: Json,
    checks: Vec<(String, Json)>,
    untraced: Outcome,
    traced: Outcome,
    detail: Json,
    pending_mean: f64,
    calendar: CalendarKind,
}

/// Part 1: an untraced reference run, then the same configuration
/// restored from its time-zero snapshot into the timing wrapper.
fn model(cfg: &SimConfig, spans: &mut Spans, out: &mut Layers) -> Result<ModelTrace, String> {
    let clock = spans.clock;
    let t0 = clock.ns();
    let sim = build(cfg);
    let settings = settings(&sim);
    let (_, _, untraced_run_s, reference) = untraced(cfg, sim)?;
    spans.close("model.untraced", "model", t0);

    let t = clock.ns();
    let built = build(cfg);
    spans.close("model.build", "model", t);
    let calendar = built.calendar_kind();
    let snap = built.snapshot_now();
    let probe = Probe::new(built.into_model(), clock);
    let mut sim = Sim::restore(probe, calendar, &snap).map_err(|e| format!("restore: {e:?}"))?;
    let run_start = clock.ns();
    sim.run_until(horizon(cfg));
    spans.close("model.run", "model", run_start);
    let run_ns = (clock.ns() - run_start) as f64;
    let t = clock.ns();
    let events = sim.executed_events();
    let m = metrics_of(&sim.model.inner, cfg, events);
    let metrics_s = (clock.ns() - t) as f64 * 1e-9;
    spans.close("model.metrics", "model", t);
    let traced = Outcome::of(&sim, cfg, &m);
    spans.close("model", "trace", t0);
    let scheduled = sim.ctx().scheduled_events();

    let tr = &sim.model.trace;
    // The run span less the trace's own clock reads must be explained by
    // the per-kind counts times the sampled per-kind means.
    let explained: f64 = (0..KINDS.len())
        .map(|k| tr.count[k] as f64 * tr.step_ns_mean(k))
        .sum();
    let untraced_share = run_ns - tr.reads() as f64 * tr.read_ns();
    let reconcile_err = (explained - untraced_share).abs() / untraced_share;
    let pending_mean = tr.pending_sum as f64 / events as f64;
    out.put("des.engine.events", events as f64);
    out.put("des.engine.step_ns_p50", tr.step_ns_quantile(0.5));
    out.put("des.engine.step_ns_p999", tr.step_ns_quantile(0.999));
    out.put("des.engine.dispatch_ns_mean", tr.dispatch_ns_mean());
    out.put("des.engine.events_per_s", events as f64 / untraced_run_s);
    out.put("des.engine.trace_overhead", run_ns * 1e-9 / untraced_run_s);
    for (k, name) in KINDS.iter().enumerate() {
        out.put(&format!("core.model.ev.{name}.count"), tr.count[k] as f64);
        out.put(&format!("core.model.ev.{name}.ns_mean"), tr.step_ns_mean(k));
    }
    out.put("core.model.reconcile_err", reconcile_err);
    out.put("core.model.metrics_s", metrics_s);
    out.put(
        "core.model.received_over_generated",
        m.received_samples as f64 / m.generated_samples as f64,
    );
    out.put("des.calendar.pending_mean", pending_mean);
    out.put("des.calendar.pending_max", tr.pending_max as f64);
    out.put(
        "des.calendar.scheduled_per_event",
        scheduled as f64 / events as f64,
    );

    let kinds = KINDS
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let row = vec![
                ("count".into(), Json::num(tr.count[k] as f64)),
                ("timed".into(), Json::num(tr.timed[k] as f64)),
                ("step_ns_raw".into(), Json::num(tr.step_ns[k] as f64)),
            ];
            (name.to_string(), Json::Obj(row))
        })
        .collect();
    let hist = tr
        .steps
        .nonempty()
        .into_iter()
        .map(|(lo, n)| Json::Arr(vec![Json::num(lo as f64), Json::num(n as f64)]))
        .collect();
    let detail = Json::Obj(vec![
        ("stride".into(), Json::num(STRIDE as f64)),
        ("clock_read_ns".into(), Json::num(tr.read_ns())),
        ("run_span_ns".into(), Json::num(run_ns)),
        ("explained_ns".into(), Json::num(explained)),
        ("kinds".into(), Json::Obj(kinds)),
        ("handlers_timed".into(), Json::num(tr.handlers.0 as f64)),
        ("handler_ns_raw".into(), Json::num(tr.handlers.1 as f64)),
        ("step_hist_ns_raw".into(), Json::Arr(hist)),
    ]);
    let checks = vec![
        (
            "digests_match".into(),
            Json::Bool(
                traced.state_digest == reference.state_digest
                    && traced.metrics_digest == reference.metrics_digest,
            ),
        ),
        ("reconcile_tol".into(), Json::num(RECONCILE_TOL)),
        (
            "reconcile_ok".into(),
            Json::Bool(reconcile_err <= RECONCILE_TOL),
        ),
    ];
    Ok(ModelTrace {
        settings,
        checks,
        untraced: reference,
        traced,
        detail,
        pending_mean,
        calendar,
    })
}

/// Part 2: calendar cost at the traced run's depth, the two distribution
/// families of the default parameters, and pipe accounting.
fn micro(cfg: &SimConfig, m: &ModelTrace, seed: u64, out: &mut Layers) {
    out.put(
        "des.calendar.op_ns_at_depth",
        layers::calendar_op_ns(m.pending_mean.round() as usize, m.calendar),
    );
    let p = &cfg.params;
    out.put(
        "stats.dist.sample_ns.exp",
        layers::sample_ns(&p.pd.cpu_req, seed),
    );
    out.put(
        "stats.dist.sample_ns.lognormal",
        layers::sample_ns(&p.app.cpu_req, seed),
    );
    out.put(
        "core.pipe.deposit_drain_ns",
        layers::deposit_drain_ns(p.pipe_capacity, cfg.faults.overflow),
    );
}

/// Part 3: the `repro` subset in-process, then one testbed grid.
fn artifacts(seed: u64, spans: &mut Spans, out: &mut Layers) -> Result<(), String> {
    let scale = Scale {
        seed,
        ..Scale::quick()
    };
    let threads = default_threads() as f64;
    let t = spans.clock.ns();
    let costs = layers::artifacts(&REPRO_SUBSET, &scale, &spans.clock, &mut spans.done)?;
    spans.close("artifacts", "trace", t);
    for c in costs {
        out.put(&format!("bench.artifact.{}.wall_s", c.id), c.wall_s);
        out.put(&format!("bench.artifact.{}.cpu_s", c.id), c.cpu_s);
        if SIM_ARTIFACTS.contains(&c.id) {
            out.put(
                &format!("core.experiment.busy_frac.{}", c.id),
                c.cpu_s / (c.wall_s * threads),
            );
        }
    }
    let tb = layers::testbed(&scale, &spans.clock, &mut spans.done)?;
    out.put("testbed.grid.wall_s", tb.grid_wall_s);
    out.put("testbed.pd_cpu_us_per_sample.cf", tb.pd_cpu_us_per_sample.0);
    out.put("testbed.pd_cpu_us_per_sample.bf", tb.pd_cpu_us_per_sample.1);
    out.put(
        "testbed.forward_ops_per_sample.cf",
        tb.forward_ops_per_sample.0,
    );
    out.put(
        "testbed.forward_ops_per_sample.bf",
        tb.forward_ops_per_sample.1,
    );
    Ok(())
}

/// Run all three parts for `workload` at `seed`.
pub fn trace_mode(workload: Workload, seed: u64) -> Result<Json, String> {
    let mut spans = Spans {
        clock: Clock::new(),
        done: vec![],
    };
    let mut out = Layers::default();
    let cfg = workload.model_config(seed);
    let m = model(&cfg, &mut spans, &mut out)?;
    let t = spans.clock.ns();
    micro(&cfg, &m, seed, &mut out);
    spans.close("layers.micro", "trace", t);
    artifacts(seed, &mut spans, &mut out)?;
    spans.close("trace", "", 0);
    let layers = out.0.into_iter().map(|(k, v)| (k, Json::num(v))).collect();
    Ok(Json::Obj(vec![
        ("settings".into(), m.settings),
        ("checks".into(), Json::Obj(m.checks)),
        ("untraced".into(), Json::Obj(m.untraced.json())),
        ("traced".into(), Json::Obj(m.traced.json())),
        ("layers".into(), Json::Obj(layers)),
        ("trace".into(), m.detail),
        ("spans".into(), spans.json()),
    ]))
}
