//! Sharded parallel DES: multi-core execution of *one* run.
//!
//! [`run_scenario_des`](crate::runner::run_scenario_des) executes a whole
//! scenario on one core. This module splits the node population across `K`
//! shards — the same `index % K` partition rule the real cluster runtime
//! uses (`crates/node`) — and runs the shards on worker threads that
//! synchronize at the edges of **lookahead windows**:
//!
//! * every shard owns a full event core ([`Network`]: timing wheel,
//!   payload pool, private latency/loss stream) plus its own protocol
//!   instance and derived RNG stream;
//! * a message between co-hosted nodes stays entirely inside its shard;
//! * a cross-shard send is routed through [`Network::route_remote`]; no
//!   hop is shorter than the model's
//!   [`min_hop_ticks`](p2p_sim::NetworkModel::min_hop_ticks) `= W` (≥ 1),
//!   so nothing a shard does inside a window `[T, E)` with `E ≤ T + W` can
//!   reach another shard before `E`, and all shards may execute the whole
//!   window in parallel;
//! * the coordinator opens each window at `T`, the earliest pending event,
//!   staged event, remote arrival or control tick, and ends it at `E =
//!   min(T + W, next control tick)`: churn, workload steps and `on_step`
//!   happen only at window starts. When telemetry samples at step `s`, the
//!   window that starts at `s` is cut to one tick, so shard snapshots see
//!   the state a barrier on every tick saw;
//! * inside a window a shard files events due before `E` into its wheel
//!   and stages the rest; at the next window start it merges its staged
//!   events with the window's remote arrivals (moved by [`ExchangeGrid`])
//!   in **(send tick, own shard before remote shards, ascending source
//!   shard, FIFO)** order ([`p2p_sim::shard`]). That reproduces the filing
//!   order of a barrier on every occupied tick, so outputs are
//!   byte-identical to that engine with ~`W` times fewer barrier rounds.
//!
//! ## Determinism boundary
//!
//! A `K`-shard run is byte-identical across reruns **and across worker
//! thread counts** — each shard's window execution depends only on its own
//! state, the published plan and the (read-locked) overlay, never on
//! scheduling; reports are harvested per window in (tick, shard, FIFO)
//! order. `K` itself, however, is part of the result identity: a `K`-shard
//! run partitions the RNG streams differently than a single queue (exactly
//! like the node-count of a real cluster, whose estimates are validated
//! against the DES *envelope*, not bit-for-bit). `K = 1` never reaches this
//! module: the engine falls back to the sequential driver, keeping every
//! golden figure and trace byte-identical.
//!
//! Because the lookahead clamp turns a zero-latency cross-shard hop into a
//! one-tick hop, sharded execution is meant for latency-realistic models
//! (e.g. [`NetworkModel::wan`](p2p_sim::NetworkModel::wan), where every
//! hop already takes ≥ 15 ticks and the clamp changes nothing). Under the
//! paper's ideal instantaneous model a chain of cross-shard hops stretches
//! across ticks, and `W = 1` makes every window a single tick — still a
//! valid execution, but far from the historic round semantics.

use crate::runner::{
    Trace, WorkloadRuntime, {TelemetryOpts, TelemetrySession, NET_SEED_STREAM},
};
use crate::scenario::Scenario;
use p2p_estimation::net_protocol::{dispatch_routed, for_each_prefetched, Cx, ShardRoute};
use p2p_estimation::{Heuristic, NodeProtocol, ShardView, Smoother, StepOutcome};
use p2p_overlay::Graph;
use p2p_sim::network::NetEvent;
use p2p_sim::parallel::default_threads;
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::shard::{ExchangeGrid, Inbox, Outbox};
use p2p_sim::{EngineStats, MessageCounter, NetStats, Network, SimTime};
use p2p_stats::Series;
use p2p_telemetry::Snapshot;
use rand::rngs::SmallRng;
use std::sync::{Barrier, Mutex, RwLock};

/// The stream each shard's protocol RNG derives from — the same constant
/// (and the same double derivation `derive(derive(seed, this), shard)`)
/// as the real cluster runtime (`crates/node`), so a DES shard and a
/// cluster shard with the same index draw identical protocol streams.
pub(crate) const SHARD_PROTO_SEED_STREAM: u64 = 0x0073_6861_7264; // "shard"

/// The stream the estimator-node choice derives from — again mirroring
/// the cluster runtime: one uniform alive draw picks the node that leads
/// estimations, and only the shard hosting it gets `estimator: Some(..)`.
pub(crate) const ESTIMATOR_SEED_STREAM: u64 = 0x0065_7374_696D; // "estim"

/// Sharded execution parameters for one run.
#[derive(Clone, Copy, Debug)]
pub struct ShardOpts {
    /// Number of shards `K ≥ 2` (`K` is part of the result identity).
    pub shards: u32,
    /// Worker threads; defaults to `min(K, cores)`. Never affects the
    /// produced bytes — only wall-clock.
    pub workers: Option<usize>,
}

/// The window published to the workers at the barrier.
#[derive(Clone, Copy)]
struct Plan {
    /// First tick of the window.
    start: u64,
    /// End of the window (exclusive).
    end: u64,
    /// `Some(s)` when the window starts at protocol step `s`'s boundary.
    step: Option<u64>,
    /// Termination signal: workers exit instead of executing a window.
    done: bool,
}

/// One shard's complete run state. Each lives behind its own `Mutex`: a
/// worker locks it for the duration of the shard's window, the coordinator
/// between barriers — never both at once, so every lock is uncontended.
struct ShardState<P: NodeProtocol> {
    proto: P,
    net: Network<P::Msg>,
    rng: SmallRng,
    view: ShardView,
    outbox: Outbox<P::Msg>,
    inbox: Inbox<P::Msg>,
    reports: Vec<StepOutcome>,
    /// The window's reports with the tick each closed at, in FIFO order.
    window_reports: Vec<(u64, StepOutcome)>,
    /// Events this shard dispatched in the last window.
    window_events: u64,
    batch: Vec<NetEvent<P::Msg>>,
    tel: Option<TelemetrySession>,
}

/// Executes one shard's slice of window `[plan.start, plan.end)`: merge
/// the staged events and the remote arrivals exchanged at the previous
/// barrier, open the window, park the clock on its start, run the protocol
/// step if the window carries one, then drain every event due inside the
/// window. Cross-shard sends land in the outbox, later local events in the
/// network's staging buffer.
fn run_shard_window<P: NodeProtocol>(st: &mut ShardState<P>, plan: Plan, graph: &Graph) {
    let ShardState {
        proto,
        net,
        rng,
        view,
        outbox,
        inbox,
        reports,
        window_reports,
        window_events,
        batch,
        tel,
    } = st;
    inbox.merge_into(net);
    net.open_window(SimTime(plan.end));
    net.advance_to(SimTime(plan.start));
    *window_events = 0;
    if let Some(step) = plan.step {
        let route = ShardRoute {
            view: *view,
            outbox,
        };
        let mut cx = Cx::with_route(graph, net, rng, reports, route);
        proto.on_step(step, &mut cx);
        window_reports.extend(reports.drain(..).map(|o| (plan.start, o)));
    }
    while let Some(tick) = net.pop_batch_until(SimTime(plan.end - 1), batch) {
        if let Some(t) = tel.as_mut() {
            t.observe_batch(batch.len());
        }
        *window_events += batch.len() as u64;
        for_each_prefetched(proto, batch, |proto, event| {
            let route = ShardRoute {
                view: *view,
                outbox,
            };
            dispatch_routed(proto, event, graph, net, rng, reports, route);
        });
        window_reports.extend(reports.drain(..).map(|o| (tick.0, o)));
    }
}

/// Runs one scenario on `opts.shards` parallel event cores.
///
/// `make(shard, view)` builds shard `shard`'s protocol instance; it must
/// install `Deployment::Shard(view)` so the instance paces only hosted
/// slots (the engine's entry points do this for every spec-built
/// protocol). Reports are collected in (tick, shard-index, FIFO) order at
/// each barrier; per-shard engine/network accounting is folded into the
/// returned [`Trace`] in shard-index order, so `[stats]` totals cover the
/// whole run, and the trace's [`EngineStats`] carries the window count and
/// the shard imbalance.
pub fn run_scenario_des_sharded<P, F>(
    make: F,
    scenario: &Scenario,
    heuristic: Heuristic,
    seed: u64,
    series_name: impl Into<String>,
    opts: ShardOpts,
    telemetry: Option<TelemetryOpts>,
) -> (Trace, Vec<Snapshot>)
where
    P: NodeProtocol + Send,
    P::Msg: Send,
    F: Fn(u32, ShardView) -> P,
{
    let k = opts.shards;
    assert!(
        k >= 2,
        "sharded execution needs K ≥ 2 (K = 1 is the sequential driver)"
    );
    let series_name = series_name.into();
    let workers = opts
        .workers
        .unwrap_or_else(|| default_threads(k as usize))
        .clamp(1, k as usize);

    let mut rng = small_rng(seed);
    let graph = scenario.build_overlay(&mut rng);
    let mut smoother = Smoother::new(heuristic);
    let step_ticks = scenario.network.step_ticks;
    let mut workload = scenario
        .workload
        .as_ref()
        .map(|source| WorkloadRuntime::new(source, scenario, seed));
    if let Some(w) = workload.as_mut() {
        w.on_init(&graph);
    }

    // One estimator node leads estimations for the whole run, exactly as
    // in a deployed cluster; its hosting shard gets `estimator: Some`.
    let mut est_rng = small_rng(derive_seed(seed, ESTIMATOR_SEED_STREAM));
    let estimator = graph.random_alive(&mut est_rng);

    let proto_base = derive_seed(seed, SHARD_PROTO_SEED_STREAM);
    let net_base = derive_seed(seed, NET_SEED_STREAM);
    let mut states: Vec<Mutex<ShardState<P>>> = (0..k)
        .map(|s| {
            let view = ShardView {
                proc: s,
                procs: k,
                estimator: estimator.filter(|n| n.index() as u32 % k == s),
            };
            Mutex::new(ShardState {
                proto: make(s, view),
                net: Network::new(scenario.network, derive_seed(net_base, s as u64)),
                rng: small_rng(derive_seed(proto_base, s as u64)),
                view,
                outbox: Outbox::new(k as usize),
                inbox: Inbox::new(k as usize),
                reports: Vec::new(),
                window_reports: Vec::new(),
                window_events: 0,
                batch: Vec::new(),
                tel: telemetry.map(|o| TelemetrySession::new_sharded(o, series_name.clone())),
            })
        })
        .collect();

    let mut grid: ExchangeGrid<P::Msg> = ExchangeGrid::new(k as usize);

    // Per-shard protocol init, then one exchange so init-time cross-shard
    // sends are visible to the first window's start computation.
    for st in &mut states {
        let st = st.get_mut().unwrap();
        let route = ShardRoute {
            view: st.view,
            outbox: &mut st.outbox,
        };
        let mut cx = Cx::with_route(&graph, &mut st.net, &mut st.rng, &mut st.reports, route);
        st.proto.on_init(&mut cx);
    }
    for (s, st) in states.iter_mut().enumerate() {
        grid.collect(s, &mut st.get_mut().unwrap().outbox);
    }
    for (d, st) in states.iter_mut().enumerate() {
        grid.deliver(d, &mut st.get_mut().unwrap().inbox);
    }

    // Control ticks: the step grid plus any scheduled churn outside it.
    let mut ctrl: Vec<u64> = (1..=scenario.steps).collect();
    for &(s, _) in &scenario.schedule {
        if s == 0 || s > scenario.steps {
            ctrl.push(s);
        }
    }
    ctrl.sort_unstable();
    ctrl.dedup();
    let mut ctrl_idx = 0usize;

    let lookahead = scenario.network.min_hop_ticks();
    let mut sync = EngineStats {
        shards: k,
        ..EngineStats::default()
    };
    let mut harvest: Vec<(u64, StepOutcome)> = Vec::new();
    let mut coord_tel = telemetry.map(|o| TelemetrySession::new_sharded(o, series_name.clone()));
    let mut estimates = Series::new(series_name);
    let mut real_size = Series::new("real size");
    let mut completed = 0usize;
    let mut current_step = 0u64;

    let graph_lock = RwLock::new(graph);
    let plan = Mutex::new(Plan {
        start: 0,
        end: 0,
        step: None,
        done: false,
    });
    let start_barrier = Barrier::new(workers + 1);
    let end_barrier = Barrier::new(workers + 1);

    std::thread::scope(|scope| {
        let states = &states;
        let graph_lock = &graph_lock;
        let plan = &plan;
        let start_barrier = &start_barrier;
        let end_barrier = &end_barrier;
        for w in 0..workers {
            scope.spawn(move || loop {
                start_barrier.wait();
                let p = *plan.lock().unwrap();
                if p.done {
                    return;
                }
                let graph = graph_lock.read().unwrap();
                let mut i = w;
                while i < k as usize {
                    run_shard_window(&mut states[i].lock().unwrap(), p, &graph);
                    i += workers;
                }
                drop(graph);
                end_barrier.wait();
            });
        }

        // Coordinator: opens each window, applies churn, releases the
        // workers, then harvests reports and runs the cross-shard exchange.
        loop {
            let ctrl_tick = ctrl.get(ctrl_idx).map(|&s| s * step_ticks);
            let mut next: Option<u64> = ctrl_tick;
            for st in states.iter() {
                let st = st.lock().unwrap();
                for t in [st.net.next_event_time(), st.inbox.min_at()]
                    .into_iter()
                    .flatten()
                {
                    next = Some(next.map_or(t.0, |n| n.min(t.0)));
                }
            }
            let Some(start) = next else { break };

            let mut step_of_window = None;
            if ctrl_tick == Some(start) {
                let s = ctrl[ctrl_idx];
                ctrl_idx += 1;
                let mut graph = graph_lock.write().unwrap();
                for (at, op) in &scenario.schedule {
                    if *at == s {
                        match workload.as_mut() {
                            Some(w) => w.observe_scheduled(s, op, &mut graph, &mut rng),
                            None => {
                                op.apply(&mut graph, &mut rng);
                            }
                        }
                    }
                }
                if (1..=scenario.steps).contains(&s) {
                    if let Some(w) = workload.as_mut() {
                        w.step(s, &mut graph, &mut rng);
                    }
                    current_step = s;
                    step_of_window = Some(s);
                }
            }
            let sample_step = step_of_window.filter(|&s| {
                coord_tel
                    .as_ref()
                    .is_some_and(|t| s.is_multiple_of(t.opts.every) && s != scenario.steps)
            });
            let end = if sample_step.is_some() {
                start + 1
            } else {
                let next_ctrl = ctrl.get(ctrl_idx).map_or(u64::MAX, |&s| s * step_ticks);
                (start + lookahead).min(next_ctrl)
            };

            *plan.lock().unwrap() = Plan {
                start,
                end,
                step: step_of_window,
                done: false,
            };
            start_barrier.wait();
            // Workers execute the window on every shard.
            end_barrier.wait();

            // Reports in (tick, shard, FIFO) order: shards are visited in
            // index order and the sort is stable.
            let mut peak = 0;
            for st in states.iter() {
                let mut st = st.lock().unwrap();
                harvest.append(&mut st.window_reports);
                sync.dispatched += st.window_events;
                peak = peak.max(st.window_events);
            }
            sync.windows += 1;
            sync.window_peak_events += peak;
            harvest.sort_by_key(|&(tick, _)| tick);
            let graph = graph_lock.read().unwrap();
            let truth = graph.alive_count() as f64;
            for (_, outcome) in harvest.drain(..) {
                let x = current_step.max(1) as f64;
                if let Some(raw) = outcome.estimate() {
                    estimates.push(x, smoother.apply(raw));
                    completed += 1;
                    if let Some(t) = coord_tel.as_mut() {
                        t.on_report(raw, truth, current_step);
                    }
                }
                if outcome.is_report() {
                    real_size.push(x, truth);
                }
            }
            if let (Some(t), Some(s)) = (coord_tel.as_mut(), sample_step) {
                t.sample_overlay(&graph);
                t.sample_shard(&sync);
                t.snapshot_now(s);
                for st in states.iter() {
                    let mut st = st.lock().unwrap();
                    let ShardState {
                        proto, net, tel, ..
                    } = &mut *st;
                    let tel = tel.as_mut().expect("every shard captures telemetry");
                    tel.sample_core(net);
                    tel.sample_proto(proto.arena_bytes());
                    tel.snapshot_now(s);
                }
            }
            drop(graph);

            // The barrier's second half: move the window's cross-shard
            // traffic to its destinations, merged at the next window start.
            for (s, st) in states.iter().enumerate() {
                grid.collect(s, &mut st.lock().unwrap().outbox);
            }
            for (d, st) in states.iter().enumerate() {
                grid.deliver(d, &mut st.lock().unwrap().inbox);
            }
        }

        plan.lock().unwrap().done = true;
        start_barrier.wait();
    });

    if let Some(w) = workload.as_mut() {
        w.finish();
    }
    let graph = graph_lock.into_inner().unwrap();
    debug_assert!(graph.check_invariants().is_ok());

    // Final post-drain snapshot, then fold per-shard sessions into the
    // coordinator's — identical metric sets, fixed shard-index order.
    if let Some(t) = coord_tel.as_mut() {
        t.sample_overlay(&graph);
        t.sample_shard(&sync);
        t.snapshot_now(scenario.steps);
    }
    let mut states: Vec<ShardState<P>> = states
        .into_iter()
        .map(|m| m.into_inner().unwrap())
        .collect();
    let mut snapshots = coord_tel.map(|t| t.snapshots).unwrap_or_default();
    let mut messages = MessageCounter::new();
    let mut net_stats = NetStats::default();
    let mut engine_stats = EngineStats::default();
    for st in &mut states {
        debug_assert!(st.outbox.is_empty() && st.inbox.is_empty() && st.net.pending() == 0);
        if let Some(tel) = st.tel.as_mut() {
            tel.sample_core(&st.net);
            tel.sample_proto(st.proto.arena_bytes());
            tel.snapshot_now(scenario.steps);
            debug_assert_eq!(tel.snapshots.len(), snapshots.len());
            for (dst, src) in snapshots.iter_mut().zip(&tel.snapshots) {
                dst.merge_from(src)
                    .expect("shard sessions register identical metric sets");
            }
        }
        messages.merge(&st.net.take_counter());
        net_stats.merge_from(st.net.stats());
        engine_stats.merge_from(&st.net.engine_stats());
    }
    debug_assert_eq!(engine_stats.dispatched, sync.dispatched);
    engine_stats.windows = sync.windows;
    engine_stats.window_peak_events = sync.window_peak_events;
    engine_stats.shards = k;

    let trace = Trace {
        estimates,
        real_size,
        messages,
        completed,
        net: net_stats,
        engine: engine_stats,
    };
    (trace, snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_estimation::net_protocol::{AsyncAggregation, AsyncSampleCollide};
    use p2p_estimation::spec::AsyncProtocol;
    use p2p_estimation::{Deployment, ProtocolSpec};
    use p2p_sim::NetworkModel;

    /// A small WAN scenario: realistic latencies, so the ≥ 1 tick
    /// cross-shard clamp changes nothing about hop timing.
    fn wan_scenario(n: usize, steps: u64) -> Scenario {
        Scenario::static_network(n, steps).with_network(NetworkModel::wan())
    }

    fn make_agg(view: ShardView) -> AsyncAggregation {
        let mut p = AsyncAggregation::paper();
        p.deployment = Deployment::Shard(view);
        p
    }

    fn run_agg(k: u32, workers: Option<usize>, seed: u64) -> (Trace, Vec<Snapshot>) {
        let scenario = wan_scenario(2_000, 60);
        run_scenario_des_sharded(
            |_, view| make_agg(view),
            &scenario,
            Heuristic::OneShot,
            seed,
            "agg",
            ShardOpts { shards: k, workers },
            Some(TelemetryOpts {
                every: 20,
                eps: 0.5,
            }),
        )
    }

    fn fingerprint(trace: &Trace, snaps: &[Snapshot]) -> String {
        let mut s = format!("{trace:?}");
        for snap in snaps {
            s.push('\n');
            s.push_str(&snap.to_jsonl());
        }
        s
    }

    #[test]
    fn sharded_runs_are_byte_identical_across_reruns_and_worker_counts() {
        let (t1, s1) = run_agg(4, Some(1), 77);
        let (t2, s2) = run_agg(4, Some(2), 77);
        let (t3, s3) = run_agg(4, Some(3), 77);
        let (t4, s4) = run_agg(4, None, 77);
        let base = fingerprint(&t1, &s1);
        assert_eq!(base, fingerprint(&t2, &s2), "1 vs 2 workers");
        assert_eq!(base, fingerprint(&t3, &s3), "1 vs 3 workers");
        assert_eq!(base, fingerprint(&t4, &s4), "1 vs default workers");
        // And across reruns at the same worker count.
        let (t5, s5) = run_agg(4, Some(2), 77);
        assert_eq!(base, fingerprint(&t5, &s5), "rerun");
    }

    #[test]
    fn shard_count_is_part_of_the_result_identity() {
        let (t2, _) = run_agg(2, None, 77);
        let (t4, _) = run_agg(4, None, 77);
        // Different K ⇒ different (valid) realization — pinning the
        // opposite would quietly forbid the partitioned RNG streams.
        assert_ne!(
            format!("{:?}", t2.estimates.points),
            format!("{:?}", t4.estimates.points)
        );
    }

    #[test]
    fn sharded_aggregation_tracks_the_truth() {
        for k in [2, 3] {
            let (trace, _) = run_agg(k, None, 909);
            assert!(trace.completed >= 1, "K={k}: no epoch completed");
            let (_, last) = *trace.estimates.points.last().unwrap();
            let q = last / 2_000.0;
            assert!((0.8..1.2).contains(&q), "K={k}: estimate quality {q}");
        }
    }

    #[test]
    fn window_metrics_and_arena_replicas_are_reported() {
        let (trace, snaps) = run_agg(2, None, 31);
        let last = snaps.last().unwrap();
        let gauge = |name: &str| last.gauges.iter().find(|(n, _)| n == name).unwrap().1;
        let counter = |name: &str| last.counters.iter().find(|(n, _)| n == name).unwrap().1;
        // wan's 15-tick lookahead: a 400-tick step takes at most 28 windows
        // (a barrier on every occupied tick took up to 400), plus the
        // one-tick windows at telemetry steps and the post-timeline drain.
        let es = trace.engine;
        assert_eq!(NetworkModel::wan().min_hop_ticks(), 15);
        assert_eq!(es.shards, 2);
        assert!(
            es.windows > 60 && es.windows <= 60 * 28 + 30,
            "{} windows",
            es.windows
        );
        assert_eq!(counter("shard.windows"), es.windows);
        let imbalance = es.shard_imbalance();
        assert!((1.0..1.5).contains(&imbalance), "imbalance {imbalance}");
        assert_eq!(
            gauge("shard.imbalance"),
            (imbalance * 1000.0).round() as u64
        );
        // Each shard holds a full-size arena replica: the folded gauge is
        // K times the sequential run's.
        let mut seq = make_agg(ShardView {
            proc: 0,
            procs: 1,
            estimator: None,
        });
        seq.deployment = Deployment::Simulated;
        let (_, seq_snaps) = crate::runner::run_scenario_des_telemetry(
            &mut seq,
            &wan_scenario(2_000, 60),
            Heuristic::OneShot,
            31,
            "agg",
            Some(TelemetryOpts {
                every: 20,
                eps: 0.5,
            }),
        );
        let seq_gauge = |name: &str| {
            let last = seq_snaps.last().unwrap();
            last.gauges.iter().find(|(n, _)| n == name).unwrap().1
        };
        assert!(seq_gauge("proto.arena_bytes") > 0);
        assert_eq!(
            gauge("proto.arena_bytes"),
            2 * seq_gauge("proto.arena_bytes")
        );
        assert!(
            !seq_snaps[0]
                .counters
                .iter()
                .any(|(n, _)| n.starts_with("shard.")),
            "sequential runs carry no shard metrics"
        );
    }

    #[test]
    fn merged_stats_cover_the_whole_run() {
        let (trace, snaps) = run_agg(2, None, 31);
        // Whole-run totals, not shard 0's view: the per-kind counter and
        // the merged NetStats must agree, and everything sent was resolved
        // (delivered, dropped, or lost to churn — here: delivered).
        assert_eq!(trace.messages.total(), trace.net.sent);
        assert_eq!(
            trace.net.sent,
            trace.net.delivered + trace.net.dropped + trace.net.churn_lost
        );
        assert!(trace.engine.dispatched > 0);
        // The folded final snapshot agrees with the merged trace.
        let last = snaps.last().unwrap();
        let get = |name: &str| {
            last.counters
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .1
        };
        assert_eq!(get("net.sent"), trace.net.sent);
        assert_eq!(get("net.delivered"), trace.net.delivered);
        assert_eq!(get("engine.dispatched"), trace.engine.dispatched);
        assert_eq!(get("proto.reports"), trace.completed as u64);
    }

    #[test]
    fn spec_built_protocols_run_sharded() {
        // The engine's per-variant closures are exercised end to end in
        // `engine::tests`; here pin that a spec-built walk protocol
        // survives partitioning (walks hop across shards constantly).
        let spec = ProtocolSpec::parse("sample-collide:l=40,t=4").unwrap();
        let scenario = wan_scenario(600, 8);
        let make = |_: u32, view: ShardView| match spec.build_async() {
            AsyncProtocol::SampleCollide(mut p) => {
                p.deployment = Deployment::Shard(view);
                p
            }
            _ => unreachable!(),
        };
        let (trace, _) = run_scenario_des_sharded::<AsyncSampleCollide, _>(
            make,
            &scenario,
            Heuristic::OneShot,
            5,
            "sc",
            ShardOpts {
                shards: 3,
                workers: None,
            },
            None,
        );
        assert!(trace.net.sent > 0);
        assert_eq!(trace.messages.total(), trace.net.sent);
    }
}
