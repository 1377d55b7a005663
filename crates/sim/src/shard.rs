//! Cross-shard message exchange for the sharded parallel DES.
//!
//! The sharded runner partitions the node population across `K` shards
//! (slot `s` lives on shard `s % K`, the same rule `p2p-node` deploys
//! with), gives each shard its own timing wheel, payload pool and derived
//! RNG streams, and runs shards on worker threads that synchronize at the
//! edges of **lookahead windows**. The conservative-execution argument is
//! the classic one: no hop under the network model is shorter than
//! [`NetworkModel::min_hop_ticks`](crate::NetworkModel::min_hop_ticks) `=
//! W` ticks (and a cross-shard hop is clamped to ≥ 1 on top), so a message
//! sent inside a window `[T, E)` with `E ≤ T + W` cannot arrive before `E`.
//! Each shard may therefore execute the whole window without observing the
//! others; [`Network::route_remote`](crate::Network::route_remote) asserts
//! the invariant on every cross-shard send.
//!
//! # The merge order
//!
//! Determinism of the single-wheel engine rests on FIFO order among
//! same-tick events. Inside a window a shard files an event due before `E`
//! straight into its wheel and stages any event due at or after `E` with
//! its send tick. At the next window start it files its staged events and
//! the window's remote arrivals in one merge ([`Inbox::merge_into`]) keyed
//! by **(send tick, own shard before remote shards, ascending source
//! shard, FIFO)**. That is the order a barrier on every occupied tick
//! produced: the shard's own sends entered the wheel as they happened
//! during their tick, and that tick's remote lanes followed in source order
//! at the next barrier. So the wheel's FIFO tie-break dispatches the same
//! sequence, and a `K`-shard run is byte-identical to the per-tick engine,
//! across reruns *and* across worker-thread counts. `K` itself is part of
//! the result identity (a 4-shard run is a different, equally valid
//! realization than a 1-shard run of the same seed).
//!
//! # Shapes
//!
//! * [`Outbox`] — a source shard's per-destination lanes, filled while the
//!   shard executes a window (single-threaded: only that shard's worker
//!   touches it).
//! * [`Inbox`] — a destination shard's per-source lanes for one window,
//!   merged at the start of the next.
//! * [`ExchangeGrid`] — the coordinator's scratch that moves lanes from
//!   outboxes to inboxes between parallel phases, one shard locked at a
//!   time, swapping `Vec`s so lane capacity circulates with zero
//!   steady-state allocation.

use crate::network::{Network, RemoteMsg};
use crate::time::SimTime;

/// A source shard's buffered cross-shard sends: one FIFO lane per
/// destination shard, plus the earliest delivery tick per lane so the
/// coordinator can compute the next window start without scanning
/// messages.
pub struct Outbox<M> {
    lanes: Vec<Vec<RemoteMsg<M>>>,
    mins: Vec<u64>,
}

impl<M> Outbox<M> {
    /// An empty outbox with one lane per shard.
    pub fn new(shards: usize) -> Self {
        Outbox {
            lanes: (0..shards).map(|_| Vec::new()).collect(),
            mins: vec![u64::MAX; shards],
        }
    }

    /// Number of shards (= lanes).
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// Buffers `m` toward `dst_shard`, in send (FIFO) order.
    pub fn push(&mut self, dst_shard: usize, m: RemoteMsg<M>) {
        self.mins[dst_shard] = self.mins[dst_shard].min(m.at.0);
        self.lanes[dst_shard].push(m);
    }

    /// Earliest delivery tick buffered across all lanes, if any.
    pub fn min_at(&self) -> Option<SimTime> {
        let m = self.mins.iter().copied().min().unwrap_or(u64::MAX);
        (m != u64::MAX).then_some(SimTime(m))
    }

    /// Whether no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(Vec::is_empty)
    }
}

/// A destination shard's view of one exchange round: the lane each source
/// shard produced for it during one window, merged at the next window
/// start.
pub struct Inbox<M> {
    lanes: Vec<Vec<RemoteMsg<M>>>,
    min: u64,
}

impl<M> Inbox<M> {
    /// An empty inbox with one lane per shard.
    pub fn new(shards: usize) -> Self {
        Inbox {
            lanes: (0..shards).map(|_| Vec::new()).collect(),
            min: u64::MAX,
        }
    }

    /// Earliest delivery tick waiting to be merged, if any. Part of the
    /// coordinator's next-window-start minimum alongside each shard's
    /// pending events.
    pub fn min_at(&self) -> Option<SimTime> {
        (self.min != u64::MAX).then_some(SimTime(self.min))
    }

    /// Whether no messages are waiting.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(Vec::is_empty)
    }

    /// Files the window's remote arrivals together with `net`'s own
    /// staged events into `net`'s wheel, in (send tick, own shard before
    /// remote shards, ascending source shard, FIFO) order — the sharded
    /// determinism contract (see [`Network::merge_window`]). The
    /// destination shard calls this at the start of every window, before
    /// opening the next one.
    pub fn merge_into(&mut self, net: &mut Network<M>) {
        net.merge_window(&mut self.lanes);
        self.min = u64::MAX;
    }
}

/// The coordinator's scratch for one exchange: `K × K` cells moved from
/// outboxes (pass 1, [`collect`](Self::collect)) into inboxes (pass 2,
/// [`deliver`](Self::deliver)). Each pass touches one shard's state at a
/// time — the driver holds at most one shard lock — and every move is a
/// `Vec` swap, so lane capacity circulates outbox → grid → inbox → grid →
/// outbox with zero steady-state allocation.
pub struct ExchangeGrid<M> {
    shards: usize,
    /// Cell `s * shards + d`: shard `s`'s lane toward shard `d`, plus its
    /// min delivery tick. Empty between exchanges.
    cells: Vec<(Vec<RemoteMsg<M>>, u64)>,
}

impl<M> ExchangeGrid<M> {
    /// An empty grid for `shards` shards.
    pub fn new(shards: usize) -> Self {
        ExchangeGrid {
            shards,
            cells: (0..shards * shards)
                .map(|_| (Vec::new(), u64::MAX))
                .collect(),
        }
    }

    /// Pass 1: takes every lane out of source shard `s`'s outbox, leaving
    /// it empty (with the grid's previously-empty vectors, capacity kept).
    pub fn collect(&mut self, s: usize, outbox: &mut Outbox<M>) {
        debug_assert_eq!(outbox.shards(), self.shards);
        for d in 0..self.shards {
            let cell = &mut self.cells[s * self.shards + d];
            debug_assert!(cell.0.is_empty(), "grid cell not delivered last round");
            std::mem::swap(&mut outbox.lanes[d], &mut cell.0);
            cell.1 = std::mem::replace(&mut outbox.mins[d], u64::MAX);
        }
    }

    /// Pass 2: installs every source's lane into destination shard `d`'s
    /// inbox (whose drained, empty lanes swap back into the grid).
    ///
    /// # Panics
    /// Debug-asserts the inbox was drained — an undrained lane would splice
    /// two rounds' FIFOs together and silently break the merge order.
    pub fn deliver(&mut self, d: usize, inbox: &mut Inbox<M>) {
        debug_assert_eq!(inbox.lanes.len(), self.shards);
        for s in 0..self.shards {
            let cell = &mut self.cells[s * self.shards + d];
            debug_assert!(inbox.lanes[s].is_empty(), "inbox lane not drained");
            std::mem::swap(&mut inbox.lanes[s], &mut cell.0);
            inbox.min = inbox.min.min(std::mem::replace(&mut cell.1, u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use crate::network::{NetEvent, NetworkModel};

    fn msg(src_shard: usize, seq: u64, at: u64) -> RemoteMsg<(usize, u64)> {
        RemoteMsg {
            src: src_shard as u32,
            dst: 0,
            sent: SimTime(0),
            at: SimTime(at),
            kind: MessageKind::Control,
            msg: (src_shard, seq),
        }
    }

    /// One full exchange for `k` shards over a tie-heavy random schedule;
    /// the drained order at every destination must equal the single-queue
    /// oracle: a stable sort by delivery tick of the source-index-ordered
    /// concatenation — i.e. ties broken by (source shard, send FIFO).
    fn exchange_matches_oracle(k: usize, rng_seed: u64) {
        let mut state = rng_seed;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut outboxes: Vec<Outbox<(usize, u64)>> = (0..k).map(|_| Outbox::new(k)).collect();
        let mut inboxes: Vec<Inbox<(usize, u64)>> = (0..k).map(|_| Inbox::new(k)).collect();
        // Per-destination oracle: messages appended in (source, FIFO) order.
        let mut expected: Vec<Vec<(u64, (usize, u64))>> = vec![Vec::new(); k];
        for (s, outbox) in outboxes.iter_mut().enumerate() {
            for seq in 0..200u64 {
                let d = (rng() % k as u64) as usize;
                let at = 1 + rng() % 3; // tie-heavy delivery ticks
                outbox.push(d, msg(s, seq, at));
                expected[d].push((at, (s, seq)));
            }
        }
        let mut grid = ExchangeGrid::new(k);
        for (s, outbox) in outboxes.iter_mut().enumerate() {
            grid.collect(s, outbox);
            assert!(outbox.is_empty());
            assert!(outbox.min_at().is_none());
        }
        for (d, inbox) in inboxes.iter_mut().enumerate() {
            grid.deliver(d, inbox);
        }
        for (d, inbox) in inboxes.iter_mut().enumerate() {
            let oracle = {
                let mut v = expected[d].clone();
                // Stable: equal ticks keep (source-index, FIFO) order.
                v.sort_by_key(|&(at, _)| at);
                v
            };
            assert_eq!(
                inbox.min_at().map(|t| t.0),
                oracle.iter().map(|&(at, _)| at).min(),
                "inbox min must be the earliest buffered tick"
            );
            // Merge in contract order (one send tick, so source then FIFO),
            // then dispatch through the wheel — its FIFO tie-break turns
            // filing order into the oracle's stable (tick, source, seq)
            // dispatch order.
            let mut net: Network<(usize, u64)> = Network::new(NetworkModel::ideal(), 0);
            inbox.merge_into(&mut net);
            assert!(inbox.is_empty());
            assert!(inbox.min_at().is_none());
            let got: Vec<(u64, (usize, u64))> = std::iter::from_fn(|| net.pop())
                .map(|(t, ev)| match ev {
                    NetEvent::Deliver { msg, .. } => (t.0, msg),
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(got, oracle, "k={k} dest={d}");
        }
    }

    #[test]
    fn exchange_matches_single_queue_oracle_for_k_2_3_4() {
        for (k, seed) in [(2, 0xDEAD_BEEF_u64), (3, 0x1234_5678), (4, 0x9E37_79B9)] {
            exchange_matches_oracle(k, seed);
        }
    }

    #[test]
    fn repeated_rounds_reuse_lanes_and_keep_fifo() {
        let k = 3;
        let mut outboxes: Vec<Outbox<(usize, u64)>> = (0..k).map(|_| Outbox::new(k)).collect();
        let mut inboxes: Vec<Inbox<(usize, u64)>> = (0..k).map(|_| Inbox::new(k)).collect();
        let mut grid = ExchangeGrid::new(k);
        let mut net: Network<(usize, u64)> = Network::new(NetworkModel::ideal(), 0);
        for round in 0..5u64 {
            for (s, outbox) in outboxes.iter_mut().enumerate() {
                for seq in 0..4 {
                    let mut m = msg(s, round * 10 + seq, round + 1);
                    m.sent = SimTime(round);
                    outbox.push(1, m);
                }
            }
            for (s, outbox) in outboxes.iter_mut().enumerate() {
                grid.collect(s, outbox);
            }
            for (d, inbox) in inboxes.iter_mut().enumerate() {
                grid.deliver(d, inbox);
            }
            let mut got = Vec::new();
            inboxes[1].merge_into(&mut net);
            while let Some((_, NetEvent::Deliver { msg, .. })) = net.pop() {
                got.push(msg);
            }
            let expected: Vec<(usize, u64)> = (0..k)
                .flat_map(|s| (0..4).map(move |seq| (s, round * 10 + seq)))
                .collect();
            assert_eq!(got, expected, "round {round}");
            for inbox in &inboxes {
                assert!(inbox.is_empty());
            }
        }
    }

    /// Test payload: (message id, hops left).
    type Msg = (u64, u8);

    /// Per-shard dispatch logs: (tick, event kind, id) in dispatch order.
    type Logs = Vec<Vec<(u64, u8, u64)>>;

    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Sends `msg` from slot `src` to slot `dst` the way the sharded driver
    /// does: locally when shard `me` hosts `dst`, else routed remote.
    fn route(
        k: usize,
        me: usize,
        net: &mut Network<Msg>,
        src: u32,
        dst: u32,
        msg: Msg,
        remote: &mut dyn FnMut(usize, RemoteMsg<Msg>),
    ) {
        let to = dst as usize % k;
        if to == me {
            net.send(src, dst, MessageKind::Control, msg);
        } else if let Some(m) = net.route_remote(src, dst, MessageKind::Control, msg) {
            remote(to, m);
        }
    }

    /// A deterministic toy protocol: each delivery with hops left forwards
    /// two copies to pseudo-random slots and sometimes arms a timer (0 to
    /// 2W ticks out, so same-tick and in-window local events occur); each
    /// timer sends one last-hop message. Returns the dispatch log entry.
    #[allow(clippy::too_many_arguments)]
    fn react(
        k: usize,
        me: usize,
        w: u64,
        net: &mut Network<Msg>,
        t: u64,
        ev: NetEvent<Msg>,
        remote: &mut dyn FnMut(usize, RemoteMsg<Msg>),
    ) -> (u64, u8, u64) {
        match ev {
            NetEvent::Deliver {
                dst,
                msg: (id, hops),
                ..
            } => {
                if hops > 0 {
                    for j in 0..2 {
                        let h = mix(id ^ j);
                        route(k, me, net, dst, (h % 64) as u32, (h, hops - 1), remote);
                    }
                    if id % 3 == 0 {
                        net.schedule_timer_in(mix(id) % (2 * w + 1), dst, id);
                    }
                }
                (t, 0, id)
            }
            NetEvent::Timer { node, tag } => {
                let h = mix(tag ^ 0x55);
                route(k, me, net, node, (h % 64) as u32, (h, 0), remote);
                (t, 1, tag)
            }
            NetEvent::Drop { msg: (id, _), .. } => (t, 2, id),
            NetEvent::Control { .. } => unreachable!(),
        }
    }

    fn seed_shards(k: usize, model: NetworkModel) -> Vec<Network<Msg>> {
        (0..k)
            .map(|s| Network::new(model, 100 + s as u64))
            .collect()
    }

    /// The reference: a barrier on every occupied tick, remote arrivals
    /// filed in (source shard, FIFO) order before the next tick.
    fn per_tick_reference(k: usize, model: NetworkModel) -> Logs {
        let w = model.min_hop_ticks();
        let mut nets = seed_shards(k, model);
        // lanes[dst][src]: remote messages waiting for the next barrier.
        let mut lanes: Vec<Vec<Vec<RemoteMsg<Msg>>>> =
            vec![(0..k).map(|_| Vec::new()).collect(); k];
        for (me, net) in nets.iter_mut().enumerate() {
            for i in 0..8u64 {
                let h = mix((me as u64) << 8 | i);
                route(
                    k,
                    me,
                    net,
                    me as u32,
                    (h % 64) as u32,
                    (h, 5),
                    &mut |d, m| lanes[d][me].push(m),
                );
            }
        }
        let mut logs = vec![Vec::new(); k];
        let mut batch = Vec::new();
        loop {
            let next = nets
                .iter()
                .filter_map(|n| n.next_event_time().map(|t| t.0))
                .chain(lanes.iter().flatten().flatten().map(|m| m.at.0))
                .min();
            let Some(tick) = next else { break };
            for (net, from) in nets.iter_mut().zip(&mut lanes) {
                for lane in from.iter_mut() {
                    for m in lane.drain(..) {
                        net.enqueue_remote(m);
                    }
                }
            }
            for (me, net) in nets.iter_mut().enumerate() {
                while let Some(t) = net.pop_batch_until(SimTime(tick), &mut batch) {
                    for ev in std::mem::take(&mut batch) {
                        let entry = react(k, me, w, net, t.0, ev, &mut |d, m| lanes[d][me].push(m));
                        logs[me].push(entry);
                    }
                }
            }
        }
        logs
    }

    /// The window engine: windows of `min_hop_ticks` ticks, staging, and
    /// the (send tick, own, source, FIFO) merge through the real exchange.
    fn windowed(k: usize, model: NetworkModel) -> (Logs, usize) {
        let w = model.min_hop_ticks();
        let mut nets = seed_shards(k, model);
        let mut outboxes: Vec<Outbox<Msg>> = (0..k).map(|_| Outbox::new(k)).collect();
        let mut inboxes: Vec<Inbox<Msg>> = (0..k).map(|_| Inbox::new(k)).collect();
        let mut grid = ExchangeGrid::new(k);
        let exchange = |grid: &mut ExchangeGrid<Msg>,
                        outboxes: &mut [Outbox<Msg>],
                        inboxes: &mut [Inbox<Msg>]| {
            for (s, o) in outboxes.iter_mut().enumerate() {
                grid.collect(s, o);
            }
            for (d, i) in inboxes.iter_mut().enumerate() {
                grid.deliver(d, i);
            }
        };
        for (me, net) in nets.iter_mut().enumerate() {
            let outbox = &mut outboxes[me];
            for i in 0..8u64 {
                let h = mix((me as u64) << 8 | i);
                route(
                    k,
                    me,
                    net,
                    me as u32,
                    (h % 64) as u32,
                    (h, 5),
                    &mut |d, m| outbox.push(d, m),
                );
            }
        }
        exchange(&mut grid, &mut outboxes, &mut inboxes);
        let mut logs = vec![Vec::new(); k];
        let mut batch = Vec::new();
        let mut windows = 0;
        loop {
            let next = nets
                .iter()
                .filter_map(|n| n.next_event_time())
                .chain(inboxes.iter().filter_map(Inbox::min_at))
                .min();
            let Some(start) = next else { break };
            let end = start.0 + w;
            windows += 1;
            for (me, net) in nets.iter_mut().enumerate() {
                inboxes[me].merge_into(net);
                net.open_window(SimTime(end));
                let outbox = &mut outboxes[me];
                while let Some(t) = net.pop_batch_until(SimTime(end - 1), &mut batch) {
                    for ev in std::mem::take(&mut batch) {
                        let entry = react(k, me, w, net, t.0, ev, &mut |d, m| outbox.push(d, m));
                        logs[me].push(entry);
                    }
                }
            }
            exchange(&mut grid, &mut outboxes, &mut inboxes);
        }
        for net in &nets {
            assert_eq!(net.pending(), 0, "nothing left staged");
        }
        (logs, windows)
    }

    #[test]
    fn window_merge_dispatches_the_per_tick_sequence() {
        for (k, lo, spread, drop) in [(2, 6.0, 0.0, 0.0), (3, 8.0, 0.25, 0.1), (4, 3.0, 0.0, 0.2)] {
            let model = NetworkModel::ideal()
                .with_latency(crate::HopLatency::Uniform { lo, hi: lo + 4.0 })
                .with_link_spread(spread)
                .with_drop_rate(drop);
            let w = model.min_hop_ticks();
            assert!(w > 1, "the case must exercise multi-tick windows");
            let reference = per_tick_reference(k, model);
            let (got, windows) = windowed(k, model);
            let events: usize = reference.iter().map(Vec::len).sum();
            assert!(events > 1_000, "k={k}: too little traffic ({events})");
            let ticks: std::collections::BTreeSet<u64> =
                reference.iter().flatten().map(|e| e.0).collect();
            assert!(
                windows < ticks.len(),
                "k={k}: windows must span several ticks"
            );
            for (s, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(a, b, "k={k} shard {s} (W={w})");
            }
        }
    }

    #[test]
    fn outbox_tracks_min_across_lanes() {
        let mut o: Outbox<(usize, u64)> = Outbox::new(2);
        assert!(o.min_at().is_none());
        o.push(0, msg(0, 0, 9));
        o.push(1, msg(0, 1, 4));
        o.push(0, msg(0, 2, 7));
        assert_eq!(o.min_at(), Some(SimTime(4)));
    }
}
