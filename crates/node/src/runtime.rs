//! The node runtime: one OS process hosting a shard of the overlay's nodes
//! over a real [`UdpSocket`], driving the *unmodified* event-driven
//! protocols through the same [`Cx`] contract the DES uses.
//!
//! # Cx over sockets
//!
//! A handler's sends and timers go into a local [`Network`] — the
//! *outbox* — configured with the cluster's shared
//! [`NetworkModel`](p2p_sim::NetworkModel), exactly as in the simulator.
//! The runtime maps simulated time onto the wall clock at one tick = one
//! millisecond: whenever wall time reaches an outbox event's maturity the
//! event pops and
//!
//! * `Deliver` to a locally hosted node dispatches straight into the
//!   protocol (after the same alive check the DES driver applies);
//! * `Deliver` to a remote node is encoded as a wire frame and sent over
//!   UDP to the shard owning that slot;
//! * `Drop` is silently discarded — injected loss, like real loss, is
//!   observed only through protocol timeouts, never through the DES's
//!   omniscient `on_loss` callback;
//! * `Timer` dispatches to the protocol;
//! * `Control` events carry the step grid: each maturity fires `on_step`
//!   and schedules the next boundary.
//!
//! The result: injected latency/loss rides the same model and the same
//! per-process stream as in the simulator, stacked on top of whatever the
//! real loopback path adds. Determinism ends at the socket — arrival
//! interleaving is the kernel's business — which is exactly the boundary
//! the cluster's statistical cross-validation against the DES is built
//! around.
//!
//! # Replicated overlay
//!
//! Every process builds the same overlay from the cluster seed and applies
//! the same churn ops (broadcast by the coordinator over TCP, applied off
//! a shared application stream) in the same order, so the graph replicas
//! stay identical by induction without any view-synchronization protocol.
//! A shard *hosts* the nodes whose slot index is ≡ its shard index modulo
//! the shard count; the protocol object knows this through its
//! [`Deployment`] and only acts for hosted nodes.

use crate::wire::{decode_data, encode_data, read_ctrl, write_ctrl, CtrlMsg, WirePayload};
use p2p_estimation::net_protocol::{Cx, Deployment, NodeProtocol, ShardView};
use p2p_estimation::{AsyncProtocol, ProtocolSpec, StepOutcome};
use p2p_experiments::Scenario;
use p2p_overlay::{Graph, NodeId};
use p2p_sim::rng::{derive_seed, small_rng};
use p2p_sim::{network::NetEvent, MessageKind, Network, SimTime};
use p2p_telemetry::{CounterId, GaugeId, Registry, Snapshot};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed stream for a process's outbox network (latency/loss draws).
const OUTBOX_SEED_STREAM: u64 = 0x6F75_7462_6F78; // "outbox"
/// Seed stream for a process's protocol RNG.
const PROTO_SEED_STREAM: u64 = 0x0073_6861_7264; // "shard"
/// Seed stream for the cluster-wide estimator-node draw.
const ESTIMATOR_SEED_STREAM: u64 = 0x0065_7374_696D; // "estim"

/// Control tag carrying the step grid through the outbox (the tag's low
/// bits are the step number).
const STEP_TAG: u64 = 1 << 63;

/// Static configuration one node process runs under. Every field must be
/// identical across the cluster (same seed → same overlay replica) except
/// `proc`.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// This process's shard index in `0..procs`.
    pub proc: u32,
    /// Total shard count.
    pub procs: u32,
    /// The protocol to run.
    pub protocol: ProtocolSpec,
    /// The resolved scenario: overlay size, step count, network model.
    /// The model's `step_ticks` is the step period in wall milliseconds.
    pub scenario: Scenario,
    /// The cluster seed (overlay build + churn application + per-process
    /// derived streams).
    pub seed: u64,
    /// The coordinator's TCP control address.
    pub coordinator: SocketAddr,
    /// Preferred UDP data port (`0` → ephemeral). Non-zero ports are tried
    /// with [`bind_with_retry`]'s backoff, falling back to ephemeral.
    pub data_port: u16,
    /// Steps between telemetry snapshots folded into [`CtrlMsg::Metrics`]
    /// control frames; `0` disables shard telemetry.
    pub metrics_every: u64,
}

/// What a finished node process reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Data frames sent over UDP.
    pub sent: u64,
    /// Well-formed data frames received.
    pub received: u64,
    /// Received datagrams that failed to decode.
    pub malformed: u64,
    /// Steps driven on the local step grid.
    pub steps: u64,
}

/// Binds a UDP socket on loopback, preferring `port`, retrying with
/// backoff on address collisions before falling back to an ephemeral port.
///
/// Collisions are real on shared CI hosts: a fixed port plan (`base+proc`)
/// keeps packet captures readable, but another process may hold a port.
/// Three spaced retries ride out TIME_WAIT-ish transients; after that an
/// ephemeral bind always succeeds and the true port travels in `Hello`.
pub fn bind_with_retry(port: u16) -> io::Result<UdpSocket> {
    if port == 0 {
        return UdpSocket::bind((Ipv4Addr::LOCALHOST, 0));
    }
    let mut backoff = Duration::from_millis(20);
    for attempt in 0..4 {
        match UdpSocket::bind((Ipv4Addr::LOCALHOST, port)) {
            Ok(sock) => return Ok(sock),
            Err(e) if e.kind() == io::ErrorKind::AddrInUse && attempt < 3 => {
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(_) => break,
        }
    }
    UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))
}

/// Everything the runtime's main loop reacts to, funneled through one
/// channel by the socket-reader threads.
enum Event<M> {
    /// A decoded data frame from the UDP socket.
    Frame { src: NodeId, dst: NodeId, msg: M },
    /// A malformed datagram arrived (counted, otherwise ignored).
    Malformed,
    /// A control message from the coordinator.
    Ctrl(CtrlMsg),
    /// The control stream closed — with a live coordinator that means
    /// shutdown; with a dead one it prevents orphaned node processes.
    CtrlClosed,
}

/// Runs one node process to completion: bind, handshake, serve until
/// `Shutdown` (or control-stream EOF), then report stats via `Bye`.
pub fn run_node(cfg: &RuntimeConfig) -> io::Result<NodeStats> {
    let socket = bind_with_retry(cfg.data_port)?;
    let udp_port = socket.local_addr()?.port();
    let mut ctrl = TcpStream::connect(cfg.coordinator)?;
    ctrl.set_nodelay(true)?;
    write_ctrl(
        &mut ctrl,
        &CtrlMsg::Hello {
            proc: cfg.proc,
            udp_port,
        },
    )?;

    // Wait for the peer table, then Start, before touching the clock.
    let mut ctrl_reader = ctrl.try_clone()?;
    let ports = loop {
        match read_ctrl(&mut ctrl_reader)? {
            Some(CtrlMsg::Peers { ports }) => break ports,
            Some(CtrlMsg::Shutdown) | None => return Ok(NodeStats::default()),
            Some(_) => {}
        }
    };
    if ports.len() != cfg.procs as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "peer table has {} ports for {} shards",
                ports.len(),
                cfg.procs
            ),
        ));
    }
    let peers: Vec<SocketAddr> = ports
        .iter()
        .map(|&p| SocketAddr::from((Ipv4Addr::LOCALHOST, p)))
        .collect();
    loop {
        match read_ctrl(&mut ctrl_reader)? {
            Some(CtrlMsg::Start) => break,
            Some(CtrlMsg::Shutdown) | None => return Ok(NodeStats::default()),
            Some(_) => {}
        }
    }

    match cfg.protocol.build_async() {
        AsyncProtocol::SampleCollide(p) => serve(cfg, p, socket, ctrl, ctrl_reader, &peers),
        AsyncProtocol::HopsSampling(p) => serve(cfg, p, socket, ctrl, ctrl_reader, &peers),
        AsyncProtocol::Aggregation(p) => serve(cfg, p, socket, ctrl, ctrl_reader, &peers),
    }
}

/// Sets the shard deployment on a freshly built protocol. The estimator
/// node is drawn from a cluster-wide derived stream, so every process
/// agrees on it without communication; the shard hosting it leads.
fn deploy<P: HostedProtocol>(protocol: &mut P, cfg: &RuntimeConfig, graph: &Graph) {
    let mut est_rng = small_rng(derive_seed(cfg.seed, ESTIMATOR_SEED_STREAM));
    let estimator = graph.random_alive(&mut est_rng);
    let hosted = estimator.filter(|n| n.index() as u32 % cfg.procs == cfg.proc);
    protocol.set_deployment(Deployment::Shard(ShardView {
        proc: cfg.proc,
        procs: cfg.procs,
        estimator: hosted,
    }));
}

/// The subset of [`AsyncProtocol`] behavior the generic server needs:
/// a [`NodeProtocol`] whose deployment can be set and whose per-node
/// estimates can be queried.
pub trait HostedProtocol: NodeProtocol {
    /// Installs the shard view (see [`Deployment`]).
    fn set_deployment(&mut self, deployment: Deployment);

    /// The node's current estimate, for protocols that hold one per node
    /// (the epidemic class); `None` elsewhere.
    fn estimate_at(&self, _node: NodeId) -> Option<f64> {
        None
    }
}

impl HostedProtocol for p2p_estimation::net_protocol::AsyncSampleCollide {
    fn set_deployment(&mut self, deployment: Deployment) {
        self.deployment = deployment;
    }
}

impl HostedProtocol for p2p_estimation::net_protocol::AsyncHopsSampling {
    fn set_deployment(&mut self, deployment: Deployment) {
        self.deployment = deployment;
    }
}

impl HostedProtocol for p2p_estimation::net_protocol::AsyncAggregation {
    fn set_deployment(&mut self, deployment: Deployment) {
        self.deployment = deployment;
    }

    fn estimate_at(&self, node: NodeId) -> Option<f64> {
        p2p_estimation::net_protocol::AsyncAggregation::estimate_at(self, node)
    }
}

// Shard metric names mirror the DES runner's telemetry session exactly:
// the same accounting under the same keys, so DES-side and cluster-side
// metrics files are directly comparable. `MessageKind::ALL` order.
const SENT_BY_KIND: [&str; 7] = [
    "net.sent.walk-step",
    "net.sent.sample-reply",
    "net.sent.gossip-forward",
    "net.sent.poll-reply",
    "net.sent.aggregation-push",
    "net.sent.aggregation-pull",
    "net.sent.control",
];
const IN_FLIGHT_BY_KIND: [&str; 7] = [
    "net.in_flight.walk-step",
    "net.in_flight.sample-reply",
    "net.in_flight.gossip-forward",
    "net.in_flight.poll-reply",
    "net.in_flight.aggregation-push",
    "net.in_flight.aggregation-pull",
    "net.in_flight.control",
];

/// Raises a monotone counter to a cumulative total sampled from existing
/// accounting (the outbox / frame counters), so snapshots need no shadow
/// state on the hot path.
fn counter_set_total(reg: &mut Registry, id: CounterId, total: u64) {
    let prev = reg.counter_value(id);
    reg.counter_add(id, total.saturating_sub(prev));
}

/// One shard's telemetry: every metric is sampled at step boundaries from
/// accounting the runtime already keeps, rendered as a snapshot, and
/// shipped to the coordinator inside a [`CtrlMsg::Metrics`] frame. Every
/// shard registers the identical metric set in the identical order, which
/// is what makes the coordinator's index-ordered merge well-defined.
struct ShardTelemetry {
    reg: Registry,
    c_frames_sent: CounterId,
    c_frames_received: CounterId,
    c_frames_malformed: CounterId,
    c_outbox_sent: CounterId,
    c_outbox_delivered: CounterId,
    c_outbox_dropped: CounterId,
    c_outbox_churn_lost: CounterId,
    c_sent_kind: [CounterId; 7],
    g_in_flight_kind: [GaugeId; 7],
    g_alive: GaugeId,
    g_hosted: GaugeId,
    g_pending: GaugeId,
    g_engine_bytes: GaugeId,
    g_pool_bytes: GaugeId,
    g_proto_bytes: GaugeId,
    series: String,
}

impl ShardTelemetry {
    fn new(proc: u32) -> Self {
        let mut reg = Registry::new();
        let c_frames_sent = reg.counter("node.frames_sent");
        let c_frames_received = reg.counter("node.frames_received");
        let c_frames_malformed = reg.counter("node.frames_malformed");
        let c_outbox_sent = reg.counter("net.sent");
        let c_outbox_delivered = reg.counter("net.delivered");
        let c_outbox_dropped = reg.counter("net.dropped");
        let c_outbox_churn_lost = reg.counter("net.churn_lost");
        let c_sent_kind = SENT_BY_KIND.map(|n| reg.counter(n));
        let g_in_flight_kind = IN_FLIGHT_BY_KIND.map(|n| reg.gauge(n));
        let g_alive = reg.gauge("overlay.alive");
        let g_hosted = reg.gauge("node.hosted");
        let g_pending = reg.gauge("outbox.pending");
        let g_engine_bytes = reg.gauge("engine.bytes");
        let g_pool_bytes = reg.gauge("pool.bytes");
        let g_proto_bytes = reg.gauge("proto.arena_bytes");
        ShardTelemetry {
            reg,
            c_frames_sent,
            c_frames_received,
            c_frames_malformed,
            c_outbox_sent,
            c_outbox_delivered,
            c_outbox_dropped,
            c_outbox_churn_lost,
            c_sent_kind,
            g_in_flight_kind,
            g_alive,
            g_hosted,
            g_pending,
            g_engine_bytes,
            g_pool_bytes,
            g_proto_bytes,
            series: format!("shard{proc}"),
        }
    }

    /// Samples every metric and renders the interval snapshot for `step`.
    /// `proto_bytes` is the protocol's per-node state size: every shard
    /// holds a full-size replica, which the merged gauge makes visible.
    #[allow(clippy::too_many_arguments)] // private; one value per source
    fn sample<M>(
        &mut self,
        step: u64,
        stats: &NodeStats,
        outbox: &Network<M>,
        graph: &Graph,
        procs: u32,
        proc: u32,
        proto_bytes: usize,
    ) -> Snapshot {
        counter_set_total(&mut self.reg, self.c_frames_sent, stats.sent);
        counter_set_total(&mut self.reg, self.c_frames_received, stats.received);
        counter_set_total(&mut self.reg, self.c_frames_malformed, stats.malformed);
        let net = outbox.stats();
        counter_set_total(&mut self.reg, self.c_outbox_sent, net.sent);
        counter_set_total(&mut self.reg, self.c_outbox_delivered, net.delivered);
        counter_set_total(&mut self.reg, self.c_outbox_dropped, net.dropped);
        counter_set_total(&mut self.reg, self.c_outbox_churn_lost, net.churn_lost);
        let sent_kind = outbox.counter();
        let delivered_kind = outbox.delivered_by_kind();
        let dropped_kind = outbox.dropped_by_kind();
        for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
            let sent = sent_kind.get(kind);
            counter_set_total(&mut self.reg, self.c_sent_kind[i], sent);
            let settled = delivered_kind.get(kind) + dropped_kind.get(kind);
            self.reg
                .gauge_set(self.g_in_flight_kind[i], sent.saturating_sub(settled));
        }
        let alive = graph.alive_count() as u64;
        self.reg.gauge_set(self.g_alive, alive);
        let hosted = graph
            .alive_nodes()
            .filter(|n| n.index() as u32 % procs == proc)
            .count() as u64;
        self.reg.gauge_set(self.g_hosted, hosted);
        self.reg.gauge_set(self.g_pending, outbox.pending() as u64);
        self.reg
            .gauge_set(self.g_engine_bytes, outbox.engine_bytes() as u64);
        self.reg
            .gauge_set(self.g_pool_bytes, outbox.pool_bytes() as u64);
        self.reg.gauge_set(self.g_proto_bytes, proto_bytes as u64);
        let mut snap = self.reg.snapshot(step);
        snap.series = self.series.clone();
        snap
    }
}

/// The generic post-handshake server: overlay replica, outbox pump, UDP
/// I/O, control handling. `Start` has been received; time zero is now.
fn serve<P>(
    cfg: &RuntimeConfig,
    mut protocol: P,
    socket: UdpSocket,
    mut ctrl: TcpStream,
    mut ctrl_reader: TcpStream,
    peers: &[SocketAddr],
) -> io::Result<NodeStats>
where
    P: HostedProtocol,
    P::Msg: WirePayload + Send + 'static,
{
    // Identical on every process: same seed → same overlay replica, and
    // the post-build stream becomes the shared churn-application stream.
    let mut apply_rng = small_rng(cfg.seed);
    let mut graph = cfg.scenario.build_overlay(&mut apply_rng);
    deploy(&mut protocol, cfg, &graph);

    let mut proto_rng = small_rng(derive_seed(
        derive_seed(cfg.seed, PROTO_SEED_STREAM),
        cfg.proc as u64,
    ));
    let mut outbox: Network<P::Msg> = Network::new(
        cfg.scenario.network,
        derive_seed(derive_seed(cfg.seed, OUTBOX_SEED_STREAM), cfg.proc as u64),
    );
    let step_ms = cfg.scenario.network.step_ticks.max(1);

    let (tx, rx) = mpsc::channel::<Event<P::Msg>>();
    let running = Arc::new(AtomicBool::new(true));

    // UDP reader: datagram → decoded frame → channel. A read timeout lets
    // it observe shutdown; decode failures only bump the malformed count.
    let udp_thread = {
        let socket = socket.try_clone()?;
        let tx = tx.clone();
        let running = Arc::clone(&running);
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            while running.load(Ordering::Relaxed) {
                match socket.recv_from(&mut buf) {
                    Ok((n, _)) => {
                        let event = match decode_data::<P::Msg>(&buf[..n]) {
                            Ok((src, dst, msg)) => Event::Frame { src, dst, msg },
                            Err(_) => Event::Malformed,
                        };
                        if tx.send(event).is_err() {
                            break;
                        }
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
        })
    };

    // Control reader: coordinator frames → channel; EOF → CtrlClosed, the
    // no-orphans guarantee (a dead coordinator takes its nodes with it).
    let ctrl_thread = {
        let tx = tx.clone();
        std::thread::spawn(move || loop {
            match read_ctrl(&mut ctrl_reader) {
                Ok(Some(msg)) => {
                    if tx.send(Event::Ctrl(msg)).is_err() {
                        break;
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = tx.send(Event::CtrlClosed);
                    break;
                }
            }
        })
    };

    let start = Instant::now();
    let mut stats = NodeStats::default();
    let mut reports: Vec<StepOutcome> = Vec::new();
    let mut frame_buf = Vec::with_capacity(64);
    let mut delta = p2p_overlay::churn::ChurnDelta::default();
    let mut tel = (cfg.metrics_every > 0).then(|| ShardTelemetry::new(cfg.proc));

    {
        let mut cx = Cx::new(&graph, &mut outbox, &mut proto_rng, &mut reports);
        protocol.on_init(&mut cx);
    }
    outbox.schedule_control_at(SimTime(step_ms), STEP_TAG | 1);

    'main: loop {
        let now_ms = start.elapsed().as_millis() as u64;

        // Pump: pop every matured outbox event into the protocol, the
        // socket, or the void (drops).
        while let Some((_, event)) = outbox.pop_until(SimTime(now_ms)) {
            match event {
                NetEvent::Control { tag } => {
                    let step = tag & !STEP_TAG;
                    stats.steps = step;
                    {
                        let mut cx = Cx::new(&graph, &mut outbox, &mut proto_rng, &mut reports);
                        protocol.on_step(step, &mut cx);
                    }
                    if step < cfg.scenario.steps {
                        outbox.schedule_control_at(
                            SimTime((step + 1) * step_ms),
                            STEP_TAG | (step + 1),
                        );
                    }
                    // Telemetry rides the step grid: the interval snapshot
                    // is sampled here (ticks are step numbers, no extra
                    // wall-clock reads) and shipped as a control frame.
                    if let Some(t) = tel.as_mut() {
                        if step.is_multiple_of(cfg.metrics_every) || step == cfg.scenario.steps {
                            let snap = t.sample(
                                step,
                                &stats,
                                &outbox,
                                &graph,
                                cfg.procs,
                                cfg.proc,
                                protocol.arena_bytes(),
                            );
                            write_ctrl(
                                &mut ctrl,
                                &CtrlMsg::Metrics {
                                    json: snap.to_jsonl().into_bytes(),
                                },
                            )?;
                        }
                    }
                }
                NetEvent::Deliver { src, dst, msg } => {
                    let (src, dst) = (NodeId(src), NodeId(dst));
                    if dst.index() as u32 % cfg.procs == cfg.proc {
                        if graph.is_alive(dst) {
                            let mut cx = Cx::new(&graph, &mut outbox, &mut proto_rng, &mut reports);
                            protocol.on_message(src, dst, msg, &mut cx);
                        } else {
                            outbox.note_churn_loss();
                        }
                    } else {
                        encode_data(src, dst, &msg, &mut frame_buf);
                        let peer = peers[dst.index() % peers.len()];
                        socket.send_to(&frame_buf, peer)?;
                        stats.sent += 1;
                    }
                }
                // Injected loss: nobody hears about it. The DES's on_loss
                // shortcut does not exist out here — timeouts do the work.
                NetEvent::Drop { .. } => {}
                NetEvent::Timer { node, tag } => {
                    let mut cx = Cx::new(&graph, &mut outbox, &mut proto_rng, &mut reports);
                    protocol.on_timer(NodeId(node), tag, &mut cx);
                }
            }
            for outcome in reports.drain(..) {
                if let Some(est) = outcome.estimate() {
                    write_ctrl(
                        &mut ctrl,
                        &CtrlMsg::Report {
                            wall_ms: start.elapsed().as_millis() as u64,
                            estimate: est,
                        },
                    )?;
                }
            }
        }

        // Wait for at most one channel event, sleeping only until the next
        // outbox maturity. Handling a single event per iteration matters:
        // an inbound frame's handler may schedule new outbox work maturing
        // *before* any previously computed deadline (a walk's next hop is
        // due in one hop-latency, not at the next step boundary), so the
        // deadline must be recomputed from the outbox after every dispatch
        // or hop-chained protocols crawl at step pace.
        let timeout = match outbox.next_event_time() {
            Some(t) => Duration::from_millis(t.0.saturating_sub(now_ms).min(100)),
            None => Duration::from_millis(50),
        };
        match rx.recv_timeout(timeout) {
            Ok(Event::Frame { src, dst, msg }) => {
                stats.received += 1;
                // Latency was served on the sender's outbox; deliver on
                // receipt, with the DES driver's alive check.
                if graph.is_alive(dst) {
                    let mut cx = Cx::new(&graph, &mut outbox, &mut proto_rng, &mut reports);
                    protocol.on_message(src, dst, msg, &mut cx);
                } else {
                    outbox.note_churn_loss();
                }
                for outcome in reports.drain(..) {
                    if let Some(est) = outcome.estimate() {
                        write_ctrl(
                            &mut ctrl,
                            &CtrlMsg::Report {
                                wall_ms: start.elapsed().as_millis() as u64,
                                estimate: est,
                            },
                        )?;
                    }
                }
            }
            Ok(Event::Malformed) => stats.malformed += 1,
            Ok(Event::Ctrl(CtrlMsg::Churn { ops, .. })) => {
                for op in &ops {
                    delta.clear();
                    op.to_op().apply(&mut graph, &mut apply_rng, &mut delta);
                }
            }
            Ok(Event::Ctrl(CtrlMsg::EstimateQuery)) => {
                let mut entries = Vec::new();
                for node in graph.alive_nodes() {
                    if node.index() as u32 % cfg.procs != cfg.proc {
                        continue;
                    }
                    if let Some(est) = protocol.estimate_at(node) {
                        entries.push((node, est));
                    }
                }
                write_ctrl(&mut ctrl, &CtrlMsg::Estimates { entries })?;
            }
            Ok(Event::Ctrl(CtrlMsg::Shutdown)) | Ok(Event::CtrlClosed) => break 'main,
            Ok(Event::Ctrl(_)) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break 'main,
        }
    }

    // Graceful drain: stop the readers, flush remaining matured events,
    // and hand the coordinator our stats.
    running.store(false, Ordering::Relaxed);
    let _ = udp_thread.join();
    drop(rx);
    // Unblock the control reader even while the coordinator's write half
    // is still open: shutting down our read half turns its blocked read
    // into EOF. (Without this, shard and coordinator join each other's
    // readers in a cycle and teardown deadlocks.)
    let _ = ctrl.shutdown(std::net::Shutdown::Read);
    let _ = ctrl_thread.join();
    let _ = write_ctrl(
        &mut ctrl,
        &CtrlMsg::Bye {
            sent: stats.sent,
            received: stats.received,
            malformed: stats.malformed,
        },
    );
    Ok(stats)
}
