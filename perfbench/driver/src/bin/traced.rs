//! `perfbench-traced`: `run_scenario_des`'s loop (K=1, no telemetry)
//! repeated through the public API with spans at each layer boundary.
//!
//! ```text
//! perfbench-traced --size N --steps S --seed X [--network NET] [--spans FILE]
//! ```
//!
//! It prints one JSON object: the run's events and final estimate (to be
//! compared bit for bit with an untraced run of the same seed), the
//! summed span times per layer, and the traced wall time. With `--spans`
//! every span is written there as JSON lines when the run ends. This
//! binary mirrors the loop body's calls (`Network::pop_batch`,
//! `net_protocol::dispatch`, `on_step`), so a change to those signatures
//! touches only this file.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use p2p_estimation::net_protocol::{dispatch, Cx};
use p2p_estimation::{Heuristic, NodeProtocol, Smoother, StepOutcome};
use p2p_experiments::Scenario;
use p2p_sim::network::NetEvent;
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::{Network, SimTime};
use p2p_stats::Series;
use perfbench_driver::{des_fields, des_protocol, secs, Json, Opts, SERIES};

/// The network seed stream of `p2p_experiments::runner` (crate-private
/// there); the bit-for-bit comparison in `run.py` catches any drift.
const NET_SEED_STREAM: u64 = 0x006E_6574_776F_726B; // "network"
/// Control tag bit marking a protocol step in `run_scenario_des`.
const STEP_TAG: u64 = 1 << 63;

/// Span kinds the traced driver records.
const SPAN_NAMES: [&str; 5] = [
    "overlay.build",
    "core.init",
    "sim.pop",
    "core.dispatch",
    "experiments.report",
];
const BUILD: usize = 0;
const INIT: usize = 1;
const POP: usize = 2;
const DISPATCH: usize = 3;
const REPORT: usize = 4;

/// One recorded span; `step_ns`/`report_ns` are the child time a batch's
/// `core.dispatch` span spent in `on_step` and in report harvest.
struct Span {
    kind: usize,
    batch: u32,
    start_ns: u64,
    end_ns: u64,
    step_ns: u64,
    report_ns: u64,
}

/// The traced run: `run_scenario_des`'s loop (K=1, no telemetry) repeated
/// through the public API with one span per phase and per batch: overlay
/// build, init, then per batch one `sim.pop` (`Network::pop_batch`) and
/// one `core.dispatch` span (handlers through `net_protocol::dispatch`,
/// with `on_step` and report harvest accumulated as child time), then the
/// final report harvest. Spans stay in memory until the run ends.
fn traced(o: &Opts) -> Result<(), String> {
    let scenario = o.scenario()?;
    let seed = o.run_seed()?;
    let spans_path = o.0.get("spans").map(PathBuf::from);
    let mut out = Json::new();
    let mut p = des_protocol()?;
    let spans = traced_loop(&mut p, &scenario, seed, &mut out);
    let total: [u64; 5] = {
        let mut t = [0u64; 5];
        for s in &spans {
            t[s.kind] += s.end_ns - s.start_ns;
        }
        t
    };
    let step_ns: u64 = spans.iter().map(|s| s.step_ns).sum();
    let report_ns: u64 = spans.iter().map(|s| s.report_ns).sum::<u64>() + total[REPORT];
    let batches = spans.iter().filter(|s| s.kind == POP).count() as u64;
    let ns = |v: u64| v as f64 / 1e9;
    out.num("build_s", ns(total[BUILD]))
        .num("init_s", ns(total[INIT]))
        .num("pop_s", ns(total[POP]))
        .num("dispatch_s", ns(total[DISPATCH]))
        .num("step_s", ns(step_ns))
        .num("report_s", ns(report_ns))
        .num(
            "handler_s",
            ns(total[DISPATCH].saturating_sub(step_ns + report_ns - total[REPORT])),
        )
        .num("covered_s", ns(total.iter().sum()))
        .int("batches", batches)
        .int("spans", spans.len() as u64);
    if let Some(path) = spans_path {
        write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    out.print();
    Ok(())
}

fn traced_loop<P: NodeProtocol>(
    protocol: &mut P,
    scenario: &Scenario,
    seed: u64,
    out: &mut Json,
) -> Vec<Span> {
    let origin = Instant::now();
    let at = |t: Instant| (t - origin).as_nanos() as u64;
    let mut spans: Vec<Span> = Vec::with_capacity(1 << 16);
    let mut span =
        |kind: usize, batch: u32, a: Instant, b: Instant, step_ns: u64, report_ns: u64| {
            spans.push(Span {
                kind,
                batch,
                start_ns: at(a),
                end_ns: at(b),
                step_ns,
                report_ns,
            })
        };

    let t0 = Instant::now();
    let mut rng = small_rng(seed);
    let mut graph = scenario.build_overlay(&mut rng);
    let t1 = Instant::now();
    span(BUILD, 0, t0, t1, 0, 0);
    let adjacency = graph.adjacency_bytes();
    let mut smoother = Smoother::new(Heuristic::OneShot);
    let step_ticks = scenario.network.step_ticks;
    let mut net: Network<P::Msg> =
        Network::new(scenario.network, derive_seed(seed, NET_SEED_STREAM));
    for (i, &(step, _)) in scenario.schedule.iter().enumerate() {
        net.schedule_control_at(SimTime(step * step_ticks), i as u64);
    }
    for step in 1..=scenario.steps {
        net.schedule_control_at(SimTime(step * step_ticks), STEP_TAG | step);
    }
    let mut reports: Vec<StepOutcome> = Vec::new();
    {
        let mut cx = Cx::new(&graph, &mut net, &mut rng, &mut reports);
        protocol.on_init(&mut cx);
    }
    let t2 = Instant::now();
    span(INIT, 0, t1, t2, 0, 0);

    let mut estimates = Series::new(SERIES);
    let mut real_size = Series::new("real size");
    let mut current_step = 0u64;
    let mut batch: Vec<NetEvent<P::Msg>> = Vec::new();
    let mut b = 0u32;
    loop {
        let p0 = Instant::now();
        let got = net.pop_batch(&mut batch);
        let p1 = Instant::now();
        span(POP, b, p0, p1, 0, 0);
        if got.is_none() {
            break;
        }
        let (mut step_ns, mut report_ns) = (0u64, 0u64);
        for event in batch.drain(..) {
            match event {
                NetEvent::Control { tag } if tag & STEP_TAG != 0 => {
                    let s0 = Instant::now();
                    current_step = tag & !STEP_TAG;
                    let mut cx = Cx::new(&graph, &mut net, &mut rng, &mut reports);
                    protocol.on_step(current_step, &mut cx);
                    step_ns += s0.elapsed().as_nanos() as u64;
                }
                NetEvent::Control { tag } => {
                    let (_, op) = &scenario.schedule[tag as usize];
                    op.apply(&mut graph, &mut rng);
                }
                other => dispatch(protocol, other, &graph, &mut net, &mut rng, &mut reports),
            }
            if !reports.is_empty() {
                let r0 = Instant::now();
                for outcome in reports.drain(..) {
                    let x = current_step.max(1) as f64;
                    if let Some(raw) = outcome.estimate() {
                        estimates.push(x, smoother.apply(raw));
                    }
                    if outcome.is_report() {
                        real_size.push(x, graph.alive_count() as f64);
                    }
                }
                report_ns += r0.elapsed().as_nanos() as u64;
            }
        }
        span(DISPATCH, b, p1, Instant::now(), step_ns, report_ns);
        b += 1;
    }
    let f0 = Instant::now();
    let messages = net.take_counter();
    let engine = net.engine_stats();
    let f1 = Instant::now();
    span(REPORT, b, f0, f1, 0, 0);
    out.num("wall_s", secs(f1 - origin))
        .int("adjacency_bytes", adjacency as u64);
    des_fields(
        out,
        engine.dispatched,
        &estimates,
        &real_size,
        engine.peak_depth,
        engine.pool_hit_rate(),
        &messages,
    );
    spans
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\": \"{}\", \"batch\": {}, \"start_ns\": {}, \"end_ns\": {}, \"step_ns\": {}, \"report_ns\": {}}}",
            SPAN_NAMES[s.kind], s.batch, s.start_ns, s.end_ns, s.step_ns, s.report_ns
        )?;
    }
    w.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Opts::parse(&args).and_then(|o| traced(&o)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            ExitCode::FAILURE
        }
    }
}
