//! The discrete-event engine: a hierarchical timing wheel.
//!
//! The original engine was a `BinaryHeap<Scheduled<E>>` paying an O(log n)
//! sift per push/pop plus a 16-byte tie-break key per entry. At the scales
//! the ROADMAP targets (million-node overlays, tens of millions of
//! in-flight events) that log factor and the heap's cache-hostile sift path
//! dominate the hot loop, so the queue is now a hierarchical timing wheel —
//! the classic calendar-queue result (R. Brown, "Calendar queues: a fast
//! O(1) priority queue implementation", CACM 1988) in its
//! power-of-two-levels form: O(1) schedule, amortized O(1) pop, and events
//! that share a timestamp live in one contiguous FIFO bucket.
//!
//! # Determinism: FIFO among equal timestamps
//!
//! The old engine broke timestamp ties with a monotone sequence number.
//! The wheel preserves exactly that order *structurally*:
//!
//! * a level-0 slot spans exactly one tick, so all its entries share a
//!   timestamp and pop in insertion (= scheduling) order;
//! * an event is filed at the lowest level whose window (relative to the
//!   wheel cursor) contains its timestamp; higher-level buckets cascade
//!   down **when the cursor enters their window**, i.e. strictly before
//!   any later-scheduled event for the same window can be filed at a lower
//!   level — so cascaded (earlier-scheduled) entries always land ahead of
//!   direct (later-scheduled) ones;
//! * cascading drains a bucket front-to-back into the lower levels, which
//!   is order-preserving.
//!
//! The `#[cfg(test)]` `oracle::HeapEngine` is the historic binary-heap
//! implementation kept verbatim as the dispatch-order oracle; randomized
//! tests here and the property test in `tests/prop_invariants.rs` replay
//! heavy-tie schedules against it.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const LEVEL_SLOTS: usize = 1 << LEVEL_BITS;
/// Levels: 11 × 6 = 66 bits, covering the full `u64` tick range.
const LEVELS: usize = 11;

/// Counters the engine keeps about its own hot path. Queue-side fields are
/// filled by [`Engine::stats`]; the payload-pool fields are zero there and
/// populated by [`Network::engine_stats`](crate::Network::engine_stats),
/// which owns the pool.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Events dispatched (popped) so far.
    pub dispatched: u64,
    /// Largest number of simultaneously pending events observed.
    pub peak_depth: usize,
    /// Payload-pool slot reuses (a send that allocated nothing).
    pub pool_hits: u64,
    /// Payload-pool slot allocations (pool growth).
    pub pool_allocs: u64,
    /// Lookahead windows (barrier rounds) a sharded run synchronized at;
    /// 0 for a sequential run.
    pub windows: u64,
    /// Σ over a sharded run's windows of the busiest shard's dispatched
    /// events (see [`shard_imbalance`](Self::shard_imbalance)).
    pub window_peak_events: u64,
    /// Shards a sharded run was partitioned into; 0 for a sequential run.
    pub shards: u32,
}

impl EngineStats {
    /// Fraction of sends served from the free list: `hits / (hits +
    /// allocs)`, or 1.0 for a run that never sent a pooled payload. At
    /// steady state (pool warmed up) this approaches 1.0 — the "zero
    /// per-send allocations" property the pool exists for.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_allocs;
        if total == 0 {
            1.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// How unevenly a sharded run's work fell on its shards: Σ over windows
    /// of the busiest shard's events ÷ Σ of the mean shard's events (every
    /// event is dispatched inside some window, so the latter is
    /// `dispatched / shards`). 1.0 is perfect balance; at `K` shards the
    /// workers wait roughly `1 − 1/imbalance` of each window. 1.0 for a
    /// sequential run.
    pub fn shard_imbalance(&self) -> f64 {
        if self.shards == 0 || self.dispatched == 0 {
            return 1.0;
        }
        self.shards as f64 * self.window_peak_events as f64 / self.dispatched as f64
    }

    /// Folds another engine's counters into this one — the sharded runner's
    /// whole-run totals, accumulated in shard-index order. `peak_depth` is
    /// summed, not maxed: the shards' wheels are live simultaneously, so the
    /// sum bounds the run's true peak pending population (and matches how
    /// the cluster merge sums per-shard gauges). The window fields are
    /// whole-run values the sharded coordinator sets after the fold.
    pub fn merge_from(&mut self, other: &EngineStats) {
        self.dispatched += other.dispatched;
        self.peak_depth += other.peak_depth;
        self.pool_hits += other.pool_hits;
        self.pool_allocs += other.pool_allocs;
    }
}

struct Entry<E> {
    time: u64,
    payload: E,
}

/// A minimal discrete-event simulator core.
///
/// `Engine` owns the clock and the pending-event queue; domain state (the
/// overlay, protocol state machines) lives outside and is borrowed by the
/// handler on each dispatch. This inversion keeps the engine reusable for any
/// payload type and avoids `dyn` dispatch in the hot loop.
///
/// ```
/// use p2p_sim::{Engine, SimTime};
///
/// let mut engine: Engine<&str> = Engine::new();
/// engine.schedule_in(10, "b");
/// engine.schedule_in(5, "a");
/// let mut order = Vec::new();
/// while let Some((t, ev)) = engine.pop() {
///     order.push((t.ticks(), ev));
/// }
/// assert_eq!(order, vec![(5, "a"), (10, "b")]);
/// ```
pub struct Engine<E> {
    /// `LEVELS × LEVEL_SLOTS` buckets, flattened. Level 0 slots each span
    /// one tick; level `l` slots span `64^l` ticks. A bucket gives its
    /// storage back when it drains (its occupancy bit clears), so retained
    /// wheel storage tracks the live events, not every slot's past peak.
    slots: Vec<VecDeque<Entry<E>>>,
    /// One occupancy bitmap per level — a set bit means the slot's bucket
    /// is non-empty, so "earliest pending slot" is a `trailing_zeros`.
    occupied: [u64; LEVELS],
    len: usize,
    /// The wheel cursor: window-aligned internal time. Invariant:
    /// `cursor ≤ now ≤ every pending timestamp`, so slot indices never
    /// wrap within a window and bitmap minima are true minima.
    cursor: u64,
    now: SimTime,
    dispatched: u64,
    peak_depth: usize,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            slots: std::iter::repeat_with(VecDeque::new)
                .take(LEVELS * LEVEL_SLOTS)
                .collect(),
            occupied: [0; LEVELS],
            len: 0,
            cursor: 0,
            now: SimTime::ZERO,
            dispatched: 0,
            peak_depth: 0,
        }
    }

    /// Current virtual time (the timestamp of the last dispatched event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue-side hot-path counters (events dispatched, peak depth). The
    /// pool fields are zero — the engine does not own a payload pool.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            dispatched: self.dispatched,
            peak_depth: self.peak_depth,
            ..EngineStats::default()
        }
    }

    /// Bytes the wheel's buckets hold allocated: every bucket's capacity
    /// times the entry size. Walks all `LEVELS × LEVEL_SLOTS` buckets, so
    /// it is for sampling (telemetry, tests), not for the hot loop.
    pub fn bytes(&self) -> usize {
        self.slots.iter().map(VecDeque::capacity).sum::<usize>() * std::mem::size_of::<Entry<E>>()
    }

    /// The wheel level whose current window contains `time`: the highest
    /// bit in which `time` differs from `cursor`, divided down to a level
    /// index. Equal values (time == cursor) belong to level 0.
    #[inline]
    fn level_of(time: u64, cursor: u64) -> usize {
        let diff = time ^ cursor;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
        }
    }

    /// Files an entry at its level/slot for the current cursor.
    #[inline]
    fn insert(&mut self, time: u64, payload: E) {
        let level = Self::level_of(time, self.cursor);
        let slot = ((time >> (LEVEL_BITS * level as u32)) & (LEVEL_SLOTS as u64 - 1)) as usize;
        self.slots[level * LEVEL_SLOTS + slot].push_back(Entry { time, payload });
        self.occupied[level] |= 1 << slot;
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics when scheduling in the past — that would silently corrupt
    /// causality.
    pub fn schedule_at(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        self.insert(time.0, payload);
        self.len += 1;
        self.peak_depth = self.peak_depth.max(self.len);
    }

    /// Schedules `payload` `delay` ticks from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: u64, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Moves the earliest occupied high-level bucket down into the lower
    /// levels, advancing the cursor to that bucket's window start. Called
    /// only when level 0 is empty and events are pending.
    fn cascade(&mut self) {
        let level = (1..LEVELS)
            .find(|&l| self.occupied[l] != 0)
            .expect("cascade called with pending events beyond level 0");
        let slot = self.occupied[level].trailing_zeros() as usize;
        self.occupied[level] &= !(1u64 << slot);
        let shift = LEVEL_BITS * level as u32;
        // Everything below this level's digit is zeroed; the digit becomes
        // `slot`. Guard the shift: level 10's window mask covers the word.
        let low_mask = if shift + LEVEL_BITS >= 64 {
            u64::MAX
        } else {
            (1u64 << (shift + LEVEL_BITS)) - 1
        };
        let window_start = (self.cursor & !low_mask) | ((slot as u64) << shift);
        debug_assert!(window_start >= self.cursor);
        self.cursor = window_start;
        // Front-to-back re-filing preserves scheduling order within every
        // destination bucket — the FIFO tie-break guarantee. Taking the
        // bucket leaves it unallocated.
        for e in std::mem::take(&mut self.slots[level * LEVEL_SLOTS + slot]) {
            self.insert(e.time, e.payload);
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        while self.occupied[0] == 0 {
            self.cascade();
        }
        let slot = self.occupied[0].trailing_zeros() as usize;
        let bucket = &mut self.slots[slot];
        let e = bucket.pop_front().expect("occupied bit implies an entry");
        if bucket.is_empty() {
            *bucket = VecDeque::new();
            self.occupied[0] &= !(1u64 << slot);
        }
        self.len -= 1;
        self.dispatched += 1;
        debug_assert!(e.time >= self.now.0);
        self.now = SimTime(e.time);
        Some((self.now, e.payload))
    }

    /// Drains up to `max` events from the earliest level-0 bucket into
    /// `out` (cleared first), advancing the clock to their shared
    /// timestamp. Returns that timestamp, or `None` when the queue is
    /// empty. Batch dispatch: one bitmap probe and one bucket walk replace
    /// `out.len()` single-pop round trips.
    ///
    /// Order is bit-for-bit what repeated [`pop`](Self::pop) calls produce:
    /// a level-0 slot spans exactly one tick, so every drained event shares
    /// one timestamp and comes out in scheduling order, and anything a
    /// handler schedules *for the same tick* mid-batch lands behind the
    /// entries still queued in the bucket, to be drained by a later call.
    /// The cap bounds the transient batch buffer on dense ticks (a
    /// million-node round can share one tick); remaining entries keep the
    /// bucket's occupancy bit set.
    pub fn pop_bucket(&mut self, out: &mut Vec<E>, max: usize) -> Option<SimTime> {
        out.clear();
        if self.len == 0 {
            return None;
        }
        while self.occupied[0] == 0 {
            self.cascade();
        }
        let slot = self.occupied[0].trailing_zeros() as usize;
        let bucket = &mut self.slots[slot];
        let time = bucket.front().expect("occupied bit implies an entry").time;
        let n = bucket.len().min(max.max(1));
        out.extend(bucket.drain(..n).map(|e| {
            debug_assert_eq!(e.time, time, "level-0 bucket spans one tick");
            e.payload
        }));
        if bucket.is_empty() {
            *bucket = VecDeque::new();
            self.occupied[0] &= !(1u64 << slot);
        }
        self.len -= n;
        self.dispatched += n as u64;
        debug_assert!(time >= self.now.0);
        self.now = SimTime(time);
        Some(self.now)
    }

    /// Peeks at the timestamp of the next event without dispatching it.
    ///
    /// Never advances the cursor (so a caller may still schedule events
    /// earlier than the peeked time, as long as they are not in the past):
    /// when level 0 is empty the earliest high-level bucket is scanned for
    /// its minimum instead of cascaded.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.occupied[0] != 0 {
            let slot = self.occupied[0].trailing_zeros() as u64;
            // A level-0 slot holds exactly one tick of the cursor's window.
            return Some(SimTime((self.cursor & !(LEVEL_SLOTS as u64 - 1)) | slot));
        }
        let level = (1..LEVELS)
            .find(|&l| self.occupied[l] != 0)
            .expect("len > 0 implies an occupied level");
        let slot = self.occupied[level].trailing_zeros() as usize;
        self.slots[level * LEVEL_SLOTS + slot]
            .iter()
            .map(|e| e.time)
            .min()
            .map(SimTime)
    }

    /// Drains every pending event through `handler`. The handler may schedule
    /// further events.
    pub fn run<F: FnMut(&mut Self, SimTime, E)>(&mut self, mut handler: F) {
        while let Some((t, payload)) = self.pop() {
            handler(self, t, payload);
        }
    }

    /// Runs events with `time <= horizon`, leaving later events queued. The
    /// clock ends at `horizon`.
    pub fn run_until<F: FnMut(&mut Self, SimTime, E)>(&mut self, horizon: SimTime, mut handler: F) {
        while let Some(t) = self.peek_time() {
            if t > horizon {
                break;
            }
            let (t, payload) = self.pop().expect("peeked event exists");
            handler(self, t, payload);
        }
        self.now = self.now.max(horizon);
    }

    /// Advances the clock to `t` without dispatching anything. Used by
    /// drivers that process events up to a horizon and then need the clock
    /// parked at that horizon (e.g. the network facade's step windows).
    ///
    /// # Panics
    /// Panics if an event earlier than `t` is still pending — advancing past
    /// it would silently reorder the timeline.
    pub fn advance_to(&mut self, t: SimTime) {
        if let Some(next) = self.peek_time() {
            assert!(
                next >= t,
                "cannot advance to {t} past a pending event at {next}"
            );
        }
        self.now = self.now.max(t);
    }

    /// Discards all pending events (the clock is unchanged).
    pub fn clear(&mut self) {
        self.slots.fill_with(VecDeque::new);
        self.occupied = [0; LEVELS];
        self.len = 0;
    }
}

/// The historic binary-heap engine, kept verbatim as the dispatch-order
/// oracle for the timing wheel. Test-only: production code must go through
/// [`Engine`].
#[cfg(test)]
pub mod oracle {
    use crate::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Scheduled<E> {
        time: SimTime,
        /// Tie-breaker guaranteeing FIFO order among same-time events.
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want the earliest event.
            (other.time, other.seq).cmp(&(self.time, self.seq))
        }
    }

    /// The pre-wheel engine: `BinaryHeap` + monotone sequence tie-break.
    pub struct HeapEngine<E> {
        queue: BinaryHeap<Scheduled<E>>,
        now: SimTime,
        seq: u64,
    }

    impl<E> Default for HeapEngine<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapEngine<E> {
        pub fn new() -> Self {
            HeapEngine {
                queue: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
            }
        }

        pub fn schedule_at(&mut self, time: SimTime, payload: E) {
            assert!(time >= self.now, "cannot schedule into the past");
            self.queue.push(Scheduled {
                time,
                seq: self.seq,
                payload,
            });
            self.seq += 1;
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let ev = self.queue.pop()?;
            self.now = ev.time;
            Some((ev.time, ev.payload))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..10 {
            e.schedule_at(SimTime(7), i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, p)| p)).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut e: Engine<u64> = Engine::new();
        e.schedule_in(1, 1);
        let mut fired = Vec::new();
        e.run(|e, t, depth| {
            fired.push((t.ticks(), depth));
            if depth < 4 {
                e.schedule_in(depth, depth + 1);
            }
        });
        assert_eq!(fired, vec![(1, 1), (2, 2), (4, 3), (7, 4)]);
        assert_eq!(e.now().ticks(), 7);
    }

    #[test]
    fn run_until_leaves_future_events() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_in(5, "early");
        e.schedule_in(50, "late");
        let mut seen = Vec::new();
        e.run_until(SimTime(10), |_, _, p| seen.push(p));
        assert_eq!(seen, vec!["early"]);
        assert_eq!(e.len(), 1);
        assert_eq!(e.now(), SimTime(10));
        e.run(|_, _, p| seen.push(p));
        assert_eq!(seen, vec!["early", "late"]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_in(10, ());
        e.pop();
        e.schedule_at(SimTime(3), ());
    }

    #[test]
    fn clock_is_monotone() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_in(3, 0);
        e.schedule_in(3, 1);
        e.schedule_in(9, 2);
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = e.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn far_future_events_cascade_correctly() {
        // Delays spanning several wheel levels, including the top one.
        let mut e: Engine<usize> = Engine::new();
        let times = [
            0u64,
            1,
            63,
            64,
            65,
            4_095,
            4_096,
            1 << 20,
            (1 << 40) + 17,
            u64::MAX / 2,
            u64::MAX - 1,
        ];
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(SimTime(t), i);
        }
        let mut sorted: Vec<(u64, usize)> = times.iter().copied().zip(0..times.len()).collect();
        sorted.sort();
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| e.pop().map(|(t, p)| (t.ticks(), p))).collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn peek_does_not_disturb_dispatch_or_insertion() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime(5_000), 1);
        assert_eq!(e.peek_time(), Some(SimTime(5_000)));
        // Peeking must not advance the cursor: an earlier event scheduled
        // after the peek still dispatches first.
        e.schedule_at(SimTime(10), 0);
        assert_eq!(e.peek_time(), Some(SimTime(10)));
        assert_eq!(e.pop(), Some((SimTime(10), 0)));
        assert_eq!(e.pop(), Some((SimTime(5_000), 1)));
        assert_eq!(e.peek_time(), None);
    }

    #[test]
    fn stats_track_dispatch_and_peak_depth() {
        let mut e: Engine<u8> = Engine::new();
        for i in 0..5 {
            e.schedule_in(i, 0);
        }
        assert_eq!(e.stats().peak_depth, 5);
        e.pop();
        e.pop();
        e.schedule_in(1, 1);
        let s = e.stats();
        assert_eq!(s.dispatched, 2);
        assert_eq!(s.peak_depth, 5, "peak is a high-water mark");
        assert_eq!(s.pool_hits, 0);
        assert!((s.pool_hit_rate() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn clear_empties_the_wheel() {
        let mut e: Engine<u8> = Engine::new();
        for t in [1u64, 100, 10_000, 1 << 30] {
            e.schedule_at(SimTime(t), 0);
        }
        e.clear();
        assert!(e.is_empty());
        assert_eq!(e.pop(), None);
        e.schedule_in(3, 7);
        assert_eq!(e.pop(), Some((SimTime(3), 7)));
    }

    /// The exact-cap partial-drain edge: a drain of precisely `cap` events
    /// empties the bucket (clearing its occupancy bit), and a same-tick
    /// schedule right after must re-set the bit and pop next in FIFO order;
    /// with `cap + 1` events the remnant keeps the bit set and a mid-batch
    /// same-tick schedule lands behind it.
    #[test]
    fn pop_bucket_exact_cap_keeps_fifo_and_occupancy() {
        let cap = 8usize;
        let mut e: Engine<u32> = Engine::new();
        for i in 0..cap as u32 {
            e.schedule_at(SimTime(5), i);
        }
        let mut batch = Vec::new();
        assert_eq!(e.pop_bucket(&mut batch, cap), Some(SimTime(5)));
        assert_eq!(batch, (0..cap as u32).collect::<Vec<_>>());
        assert!(e.is_empty(), "exact-cap drain must empty the bucket");
        // A handler scheduling back into the drained tick: the cleared
        // occupancy bit must come back or these events are lost.
        e.schedule_at(SimTime(5), 100);
        e.schedule_at(SimTime(5), 101);
        assert_eq!(e.pop_bucket(&mut batch, cap), Some(SimTime(5)));
        assert_eq!(batch, vec![100, 101]);
        assert_eq!(e.pop_bucket(&mut batch, cap), None);

        // cap + 1: the partial drain leaves a remnant (bit stays set); a
        // same-tick mid-batch schedule queues behind it, FIFO.
        let mut e: Engine<u32> = Engine::new();
        for i in 0..(cap as u32 + 1) {
            e.schedule_at(SimTime(9), i);
        }
        assert_eq!(e.pop_bucket(&mut batch, cap), Some(SimTime(9)));
        assert_eq!(batch.len(), cap);
        e.schedule_at(SimTime(9), 200);
        assert_eq!(e.pop_bucket(&mut batch, cap), Some(SimTime(9)));
        assert_eq!(
            batch,
            vec![cap as u32, 200],
            "remnant first, then the follow-up"
        );
    }

    #[test]
    fn engine_stats_merge_sums_all_fields() {
        let a = EngineStats {
            dispatched: 10,
            peak_depth: 4,
            pool_hits: 7,
            pool_allocs: 3,
            ..EngineStats::default()
        };
        let mut total = EngineStats::default();
        total.merge_from(&a);
        total.merge_from(&EngineStats {
            dispatched: 5,
            peak_depth: 6,
            pool_hits: 1,
            pool_allocs: 0,
            ..EngineStats::default()
        });
        assert_eq!(total.dispatched, 15);
        assert_eq!(total.peak_depth, 10);
        assert_eq!(total.pool_hits, 8);
        assert_eq!(total.pool_allocs, 3);
    }

    /// Retained wheel storage tracks the live events. Wan-like bursts
    /// (15–250-tick delays, filed at levels 0 and 1) run over several
    /// level-1 rotations, drained in between by single and batched pops.
    /// Four entries share each timestamp, so no bucket sits at the 4-entry
    /// minimum allocation. At every point the buckets hold at most twice
    /// the peak live entries (a growing bucket is at most half empty) plus
    /// the one level-0 bucket being drained, and an empty wheel holds
    /// nothing. Buckets that kept their high-water capacity would grow with
    /// every slot ever visited.
    #[test]
    fn retained_bytes_track_live_events() {
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let entry = std::mem::size_of::<Entry<u64>>();
        let mut e: Engine<u64> = Engine::new();
        let mut per_tick = std::collections::HashMap::new();
        let (mut peak_live, mut max_tick) = (0, 0);
        let mut batch = Vec::new();
        for round in 0..1_000u64 {
            for _ in 0..16 {
                let t = e.now() + 15 + rng() % 236;
                let n = per_tick.entry(t).or_insert(0);
                for _ in 0..4 {
                    e.schedule_at(t, round);
                    *n += 1;
                }
                max_tick = max_tick.max(*n);
            }
            peak_live = peak_live.max(e.len());
            let horizon = e.now() + 30;
            let full_drain = round % 100 == 99;
            while e.peek_time().is_some_and(|t| full_drain || t <= horizon) {
                if round % 2 == 0 {
                    e.pop();
                } else {
                    e.pop_bucket(&mut batch, 3);
                }
                let bound = 2 * (peak_live + max_tick) * entry;
                assert!(
                    e.bytes() <= bound,
                    "round {round}: {} > {bound} bytes",
                    e.bytes()
                );
            }
            if full_drain {
                assert_eq!(e.bytes(), 0, "round {round}: an empty wheel holds storage");
            }
        }
        assert!(peak_live > 0 && e.dispatched > 60_000);
    }

    /// Replays a random schedule with heavy timestamp ties against the
    /// historic binary-heap oracle, interleaving pops with schedules the
    /// way handlers do.
    #[test]
    fn matches_the_heap_oracle_on_tie_heavy_schedules() {
        use oracle::HeapEngine;
        // Hand-rolled xorshift so this test has no rand dependency.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _round in 0..20 {
            let mut wheel: Engine<u64> = Engine::new();
            let mut heap: HeapEngine<u64> = HeapEngine::new();
            let mut id = 0u64;
            for _ in 0..400 {
                // 70% schedule, 30% pop; delays biased to tiny values so
                // many events share a timestamp.
                if rng() % 10 < 7 || wheel.is_empty() {
                    let delay = match rng() % 8 {
                        0..=4 => rng() % 3,     // heavy ties
                        5 | 6 => rng() % 1_000, // near future
                        _ => rng() % (1 << 40), // far cascades
                    };
                    let t = wheel.now() + delay;
                    wheel.schedule_at(t, id);
                    heap.schedule_at(t, id);
                    id += 1;
                } else {
                    assert_eq!(wheel.pop(), heap.pop());
                }
            }
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// The batched drain must reproduce the singly-popped oracle order on
    /// tie-heavy schedules, across every batch cap (including caps smaller
    /// than the bucket, which split one tick over several calls) and with
    /// same-tick events scheduled mid-batch.
    #[test]
    fn pop_bucket_matches_single_pop_oracle_order() {
        use oracle::HeapEngine;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &cap in &[1usize, 2, 3, 7, 4096] {
            let mut wheel: Engine<u64> = Engine::new();
            let mut heap: HeapEngine<u64> = HeapEngine::new();
            let mut id = 0u64;
            let mut batch: Vec<u64> = Vec::new();
            for _ in 0..300 {
                if rng() % 10 < 6 || wheel.is_empty() {
                    let delay = match rng() % 8 {
                        0..=4 => rng() % 3,     // heavy ties
                        5 | 6 => rng() % 1_000, // near future
                        _ => rng() % (1 << 40), // far cascades
                    };
                    let t = wheel.now() + delay;
                    wheel.schedule_at(t, id);
                    heap.schedule_at(t, id);
                    id += 1;
                } else {
                    let t = wheel.pop_bucket(&mut batch, cap);
                    for &p in &batch {
                        assert_eq!(heap.pop(), Some((t.unwrap(), p)), "cap {cap}");
                    }
                    // A handler scheduling into the current tick mid-batch
                    // must land behind everything already queued there.
                    if let Some(t) = t {
                        if rng() % 4 == 0 {
                            wheel.schedule_at(t, id);
                            heap.schedule_at(t, id);
                            id += 1;
                        }
                    }
                }
            }
            loop {
                let t = wheel.pop_bucket(&mut batch, cap);
                if t.is_none() {
                    assert_eq!(heap.pop(), None);
                    break;
                }
                for &p in &batch {
                    assert_eq!(heap.pop(), Some((t.unwrap(), p)), "drain cap {cap}");
                }
            }
        }
    }
}
