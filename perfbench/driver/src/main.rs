//! `perfbench-driver`: the benchmark's in-process measurements through the
//! workspace's top-level entry points.
//!
//! Every subcommand does one measurement in a fresh process and prints one
//! JSON object on stdout; `perfbench/run.py` spawns it and turns the
//! numbers into metrics.
//!
//! ```text
//! perfbench-driver setup    --size N --steps S --seed X [--shards K] [--network NET] [--reps R]
//! perfbench-driver run      --size N --steps S --seed X [--shards K] [--network NET] [--telemetry on|off]
//! perfbench-driver figures  --scale NAME --seed X --out DIR
//! perfbench-driver cluster  --nodes N --procs P --steps S --seed X --node-bin PATH
//! perfbench-driver cluster-setup --nodes N --procs P --steps S --seed X --node-bin PATH [--reps R]
//! perfbench-driver envelope --nodes N --procs P --steps S --seed X [--reps R]
//! ```
//!
//! `--seed` is the `repro --seed` master seed; the DES subcommands derive
//! the run seed exactly as a one-replication `repro run` does, so their
//! event counts and final estimates can be compared with `repro` bit for
//! bit. The DES subcommands run `aggregation:rounds=50`, the cluster ones
//! `aggregation:rounds=30`. The traced loop lives in `perfbench-traced` (src/bin/traced.rs), so this
//! binary needs only the entry points `repro` and `node` themselves use.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use p2p_estimation::{AsyncAggregation, Deployment, Heuristic, ProtocolSpec, ShardView};
use p2p_experiments::figures::{by_number, ALL_FIGURES};
use p2p_experiments::runner::{run_scenario_des_telemetry, TelemetryOpts, Trace};
use p2p_experiments::sink::{ResultSink, Row};
use p2p_experiments::table::table1;
use p2p_experiments::{
    run_scenario_des_sharded, ExperimentScale, NetworkSpec, Scenario, ShardOpts,
};
use p2p_node::wire::{read_ctrl, write_ctrl};
use p2p_node::{des_envelope, run_cluster, ClusterConfig, CtrlMsg, Launch};
use perfbench_driver::{des_protocol, secs, trace_fields, Json, Opts, SERIES};

// ---------------------------------------------------------------- setup

/// One DES run of `aggregation:rounds=50` at K=1 (`run_scenario_des_telemetry`)
/// or K≥2 (`run_scenario_des_sharded`, each shard deployed as its slice of
/// the partition, as `repro --shards K` does), optionally with telemetry.
fn des_run(
    scenario: &Scenario,
    seed: u64,
    shards: u32,
    telemetry: Option<TelemetryOpts>,
) -> Result<Trace, String> {
    let mut p = des_protocol()?;
    if shards <= 1 {
        return Ok(run_scenario_des_telemetry(
            &mut p,
            scenario,
            Heuristic::OneShot,
            seed,
            SERIES,
            telemetry,
        )
        .0);
    }
    let config = p.config;
    let make = move |_: u32, view: ShardView| {
        let mut p = AsyncAggregation::new(config);
        p.deployment = Deployment::Shard(view);
        p
    };
    let opts = ShardOpts {
        shards,
        workers: None,
    };
    Ok(run_scenario_des_sharded(
        make,
        scenario,
        Heuristic::OneShot,
        seed,
        SERIES,
        opts,
        telemetry,
    )
    .0)
}

/// `setup`: the work a DES run does before its first event — overlay
/// build, then protocol init (and at K≥2 the per-shard init and first
/// exchange) — `--reps` times. Each repetition is the same entry point
/// run on the same scenario with zero steps, so no event is dispatched
/// and the time is the prologue (plus dropping its state).
fn setup(o: &Opts) -> Result<(), String> {
    let scenario = o.scenario_steps(0)?;
    let seed = o.run_seed()?;
    let shards: u32 = o.num("shards", Some(1))?;
    let reps: usize = o.num("reps", Some(3))?;
    let mut samples = Vec::new();
    let mut events = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let trace = des_run(&scenario, seed, shards, None)?;
        samples.push(secs(t0.elapsed()));
        events += trace.engine.dispatched;
    }
    Json::new()
        .list("setup_s", &samples)
        .int("events", events)
        .print();
    Ok(())
}

// ------------------------------------------------------------------ run

/// `run`: one untraced DES run through the public entry points —
/// `run_scenario_des_telemetry` at K=1 (capture per `--telemetry`),
/// `run_scenario_des_sharded` at K≥2 with per-thread CPU sampled from
/// `/proc/self/task` while it runs.
fn run(o: &Opts) -> Result<(), String> {
    let scenario = o.scenario()?;
    let seed = o.run_seed()?;
    let shards: u32 = o.num("shards", Some(1))?;
    let telemetry = match o.str("telemetry", "off").as_str() {
        "on" => Some(TelemetryOpts::default()),
        "off" => None,
        other => return Err(format!("bad --telemetry {other} (on|off)")),
    };
    let mut out = Json::new();
    if shards <= 1 {
        let t0 = Instant::now();
        let trace = des_run(&scenario, seed, shards, telemetry)?;
        out.num("wall_s", secs(t0.elapsed()));
        trace_fields(&mut out, &trace);
    } else {
        let sampler = ThreadSampler::start();
        let t0 = Instant::now();
        let trace = des_run(&scenario, seed, shards, telemetry)?;
        let wall = secs(t0.elapsed());
        let threads = sampler.finish();
        out.num("wall_s", wall)
            .int("workers", threads.workers)
            .num("worker_cpu_s", threads.worker_cpu_s)
            .num("worker_life_s", threads.worker_life_s)
            .num("coord_cpu_s", threads.coord_cpu_s);
        trace_fields(&mut out, &trace);
    }
    out.print();
    Ok(())
}

/// Per-thread CPU of this process, polled from `/proc/self/task` by a
/// sampler thread (worker threads exit before the run returns, so they
/// must be seen while alive).
struct ThreadSampler {
    stop: std::sync::Arc<AtomicBool>,
    handle: std::thread::JoinHandle<ThreadCpu>,
}

/// What the sampler saw: workers are every thread but the main
/// (coordinator) thread and the sampler itself.
struct ThreadCpu {
    workers: u64,
    /// Summed CPU of the worker threads.
    worker_cpu_s: f64,
    /// Summed lifetimes (first to last sighting) of the worker threads.
    worker_life_s: f64,
    /// Main-thread CPU while any worker was alive.
    coord_cpu_s: f64,
}

fn clock_ticks_per_s() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2; // Linux
                               // SAFETY: sysconf takes a plain integer and has no preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// utime + stime of one thread, in clock ticks.
fn thread_ticks(tid: &str) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
}

impl ThreadSampler {
    fn start() -> Self {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let main_tid = std::process::id().to_string();
        let handle = std::thread::spawn(move || {
            let own = fs::read_link("/proc/thread-self")
                .ok()
                .and_then(|p| p.file_name().map(|f| f.to_string_lossy().into_owned()))
                .unwrap_or_default();
            // tid -> (first seen, last seen, ticks at last sighting)
            let mut seen: HashMap<String, (Instant, Instant, u64)> = HashMap::new();
            // Main-thread ticks at the first and last sample with a worker alive.
            let mut coord: Option<(u64, u64)> = None;
            loop {
                let done = flag.load(Ordering::Relaxed);
                let now = Instant::now();
                let mut any_worker = false;
                if let Ok(dir) = fs::read_dir("/proc/self/task") {
                    for entry in dir.flatten() {
                        let tid = entry.file_name().to_string_lossy().into_owned();
                        if tid == own || tid == main_tid {
                            continue;
                        }
                        if let Some(t) = thread_ticks(&tid) {
                            any_worker = true;
                            let e = seen.entry(tid).or_insert((now, now, t));
                            e.1 = now;
                            e.2 = t;
                        }
                    }
                }
                if any_worker {
                    let main = thread_ticks(&main_tid).unwrap_or(0);
                    coord = Some(coord.map_or((main, main), |(first, _)| (first, main)));
                }
                if done {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let hz = clock_ticks_per_s();
            let (first, last) = coord.unwrap_or((0, 0));
            ThreadCpu {
                workers: seen.len() as u64,
                worker_cpu_s: seen.values().map(|e| e.2 as f64).sum::<f64>() / hz,
                worker_life_s: seen.values().map(|e| secs(e.1 - e.0)).sum(),
                coord_cpu_s: last.saturating_sub(first) as f64 / hz,
            }
        });
        ThreadSampler { stop, handle }
    }

    fn finish(self) -> ThreadCpu {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler panicked")
    }
}

// -------------------------------------------------------------- figures

/// `figures`: every registered figure through `figures::by_number`, then
/// Table I, each timed and written as `repro run --all` writes them. Figure
/// groups: static (1–8, 18), dynamic (9–17), net (19–20), workload (21–23).
fn figures(o: &Opts) -> Result<(), String> {
    let scale_name = o.str("scale", "small");
    let scale =
        ExperimentScale::by_name(&scale_name).ok_or(format!("unknown scale {scale_name}"))?;
    let seed: u64 = o.num("seed", None)?;
    let dir = PathBuf::from(o.req("out")?);
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut groups: [f64; 4] = [0.0; 4];
    for n in ALL_FIGURES {
        let t0 = Instant::now();
        let fig = by_number(n, &scale, seed).ok_or(format!("fig{n:02} is not registered"))?;
        let dt = secs(t0.elapsed());
        let g = match n {
            9..=17 => 1,
            19 | 20 => 2,
            21..=23 => 3,
            _ => 0,
        };
        groups[g] += dt;
        fig.save_csv(&dir).map_err(|e| format!("fig{n:02}: {e}"))?;
    }
    let t0 = Instant::now();
    let runs = if scale.large >= 100_000 { 10 } else { 20 };
    let table = table1(scale.large, runs, seed);
    let table_s = secs(t0.elapsed());
    fs::write(dir.join("table1.csv"), table.to_csv()).map_err(|e| format!("table1: {e}"))?;
    Json::new()
        .num("static_s", groups[0])
        .num("dynamic_s", groups[1])
        .num("net_s", groups[2])
        .num("workload_s", groups[3])
        .num("table_s", table_s)
        .print();
    Ok(())
}

// -------------------------------------------------------------- cluster

/// The protocol the cluster runs: 30-round epochs, so a 150-step run ends
/// on an epoch boundary.
const CLUSTER_PROTOCOL: &str = "aggregation:rounds=30";

fn cluster_config(o: &Opts) -> Result<ClusterConfig, String> {
    let protocol = ProtocolSpec::parse(CLUSTER_PROTOCOL).map_err(|e| e.to_string())?;
    let mut cfg = ClusterConfig::new(o.num("nodes", None)?, o.num("procs", None)?, protocol);
    cfg.steps = o.num("steps", None)?;
    cfg.seed = o.num("seed", None)?;
    Ok(cfg)
}

/// A sink that drops every row: the timed clusters are judged by their
/// report alone.
struct Discard;

impl ResultSink for Discard {
    fn row(&mut self, _: &Row<'_>) {}
}

/// `cluster`: one loopback cluster through `run_cluster`, shards launched
/// as real `node host` processes.
fn cluster(o: &Opts) -> Result<(), String> {
    let cfg = cluster_config(o)?;
    let exe = PathBuf::from(o.req("node-bin")?);
    let t0 = Instant::now();
    let report = run_cluster(&cfg, &Launch::Subprocess { exe }, &mut Discard)
        .map_err(|e| format!("cluster failed: {e}"))?;
    let wall = secs(t0.elapsed());
    let sum = |f: fn(&p2p_node::NodeStats) -> u64| report.node_stats.iter().map(f).sum::<u64>();
    Json::new()
        .num("wall_s", wall)
        .num("estimate", report.summary_estimate().unwrap_or(f64::NAN))
        .int("truth", report.final_size as u64)
        .int("frames_sent", sum(|s| s.sent))
        .int("frames_received", sum(|s| s.received))
        .int("malformed", sum(|s| s.malformed))
        .int("unclean_exits", report.unclean_exits as u64)
        .int("report_rows", report.reports.len() as u64)
        .print();
    Ok(())
}

/// How often the set-up handshake polls its control listener.
const ACCEPT_POLL: Duration = Duration::from_micros(100);

/// `cluster-setup`: a cluster's launch until Start, `--reps` times, timed
/// through a coordinator handshake of the driver's own. `run_cluster`
/// polls its control listener every 10 ms, so its launch-to-Start time is
/// about 3 or 13 ms depending on whether shard 0 connected before the
/// first poll; polled every 0.1 ms, the time is that of the launch and of
/// the shards: process start, `node host` start-up, UDP bind, connect and
/// `Hello`, then the `Peers` table. The shards are started with the
/// arguments `run_cluster` gives them and get `Shutdown` where `Start`
/// would go, so they exit cleanly without running.
fn cluster_setup(o: &Opts) -> Result<(), String> {
    let cfg = cluster_config(o)?;
    let exe = PathBuf::from(o.req("node-bin")?);
    let reps: usize = o.num("reps", Some(10))?;
    let mut samples = Vec::with_capacity(reps);
    let mut unclean = 0;
    for _ in 0..reps {
        let (setup, bad) =
            launch_to_start(&cfg, &exe).map_err(|e| format!("cluster set-up: {e}"))?;
        samples.push(setup);
        unclean += bad;
    }
    Json::new()
        .list("setup_s", &samples)
        .int("unclean_exits", unclean)
        .print();
    Ok(())
}

/// One launch-to-Start: seconds, and the shards that exited uncleanly.
fn launch_to_start(cfg: &ClusterConfig, exe: &Path) -> io::Result<(f64, u64)> {
    let t0 = Instant::now();
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let coordinator = listener.local_addr()?.to_string();
    let network = NetworkSpec(cfg.network).to_string();
    let mut children = Vec::with_capacity(cfg.procs as usize);
    for proc in 0..cfg.procs {
        children.push(
            Command::new(exe)
                .arg("host")
                .args(["--proc", &proc.to_string()])
                .args(["--procs", &cfg.procs.to_string()])
                .args(["--nodes", &cfg.nodes.to_string()])
                .args(["--steps", &cfg.steps.to_string()])
                .args(["--protocol", &cfg.protocol.to_string()])
                .args(["--network", &network])
                .args(["--seed", &cfg.seed.to_string()])
                .args(["--coordinator", &coordinator])
                .args(["--port", &cfg.base_port.to_string()])
                .args(["--metrics-every", &cfg.metrics_every.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()?,
        );
    }
    let setup = accept_hellos(&listener, cfg.procs).and_then(|mut shards| {
        let ports: Vec<u16> = shards.iter().map(|(_, port)| *port).collect();
        for (w, _) in shards.iter_mut() {
            write_ctrl(
                w,
                &CtrlMsg::Peers {
                    ports: ports.clone(),
                },
            )?;
        }
        let setup = secs(t0.elapsed());
        for (w, _) in shards.iter_mut() {
            write_ctrl(w, &CtrlMsg::Shutdown)?;
        }
        Ok(setup)
    });
    let unclean = reap(children);
    Ok((setup?, unclean))
}

/// Accepts one control connection per shard and reads its `Hello`; the
/// streams come back in shard order with each shard's UDP port.
fn accept_hellos(listener: &TcpListener, procs: u32) -> io::Result<Vec<(TcpStream, u16)>> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    listener.set_nonblocking(true)?;
    let end = Instant::now() + Duration::from_secs(10);
    let mut shards: Vec<Option<(TcpStream, u16)>> = (0..procs).map(|_| None).collect();
    let mut connected = 0;
    while connected < procs {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(5)))?;
                let Some(CtrlMsg::Hello { proc, udp_port }) = read_ctrl(&mut stream)? else {
                    return Err(invalid("control stream did not open with Hello".into()));
                };
                let slot = shards
                    .get_mut(proc as usize)
                    .filter(|slot| slot.is_none())
                    .ok_or_else(|| invalid(format!("unexpected Hello from shard {proc}")))?;
                *slot = Some((stream, udp_port));
                connected += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= end {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("only {connected}/{procs} shards said hello in time"),
                    ));
                }
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(shards.into_iter().flatten().collect())
}

/// Waits up to 5 s for every shard to exit, kills stragglers, and counts
/// the shards that were killed or exited with an error.
fn reap(children: Vec<Child>) -> u64 {
    let end = Instant::now() + Duration::from_secs(5);
    let mut unclean = 0;
    for mut child in children {
        let clean = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < end => std::thread::sleep(Duration::from_millis(1)),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break false;
                }
            }
        };
        unclean += u64::from(!clean);
    }
    unclean
}

/// `envelope`: the DES envelope a cluster's final estimate must fall in.
fn envelope(o: &Opts) -> Result<(), String> {
    let cfg = cluster_config(o)?;
    let env = des_envelope(&cfg, o.num("reps", Some(5))?);
    Json::new()
        .num("lo", env.lo)
        .num("hi", env.hi)
        .num("truth", env.truth)
        .print();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: perfbench-driver setup|run|figures|cluster|cluster-setup|envelope --flag value ...");
        return ExitCode::from(2);
    };
    let result = Opts::parse(rest).and_then(|o| match cmd.as_str() {
        "setup" => setup(&o),
        "run" => run(&o),
        "figures" => figures(&o),
        "cluster" => cluster(&o),
        "cluster-setup" => cluster_setup(&o),
        "envelope" => envelope(&o),
        other => Err(format!("unknown subcommand {other}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-driver: {e}");
            ExitCode::FAILURE
        }
    }
}
