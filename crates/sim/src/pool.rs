//! A free-list payload pool for in-flight messages.
//!
//! Every [`Network::send`](crate::Network::send) used to carry its payload
//! `M` inline through the event queue: queue entries were
//! `size_of::<NetEvent<M>>()` wide and grew the queue's buckets whenever a
//! burst outgrew previous capacity. [`PayloadPool`] separates the two
//! concerns: payloads park in a slab (`Vec<Option<M>>`) addressed by a
//! `u32` handle, queue entries shrink to a fixed small footprint, and a
//! free list recycles slots as messages resolve — so a steady-state run
//! (in-flight population oscillating around a plateau) performs **zero
//! allocations per send**: the slab and its free list grow to the peak
//! in-flight population once and are reused after. The pool keeps that
//! peak; the wheel does not — its buckets give their storage back as they
//! drain, so retained wheel storage tracks the live events.
//!
//! The pool counts hits (slot reuse) and allocs (slab growth); the ratio is
//! the *pool hit rate* reported through
//! [`EngineStats`](crate::engine::EngineStats).

/// A slab of recyclable payload slots addressed by dense `u32` handles.
#[derive(Debug)]
pub struct PayloadPool<M> {
    slots: Vec<Option<M>>,
    free: Vec<u32>,
    hits: u64,
    allocs: u64,
}

impl<M> Default for PayloadPool<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> PayloadPool<M> {
    /// An empty pool.
    pub fn new() -> Self {
        PayloadPool {
            slots: Vec::new(),
            free: Vec::new(),
            hits: 0,
            allocs: 0,
        }
    }

    /// Parks `payload`, returning its handle. Reuses a free slot when one
    /// exists (a *hit*); otherwise grows the slab (an *alloc*).
    pub fn insert(&mut self, payload: M) -> u32 {
        match self.free.pop() {
            Some(handle) => {
                self.hits += 1;
                debug_assert!(self.slots[handle as usize].is_none());
                self.slots[handle as usize] = Some(payload);
                handle
            }
            None => {
                self.allocs += 1;
                let handle = u32::try_from(self.slots.len()).expect("pool slab overflows u32");
                self.slots.push(Some(payload));
                handle
            }
        }
    }

    /// Takes the payload back out, releasing the slot to the free list.
    ///
    /// # Panics
    /// Panics on a handle that is unoccupied — that would mean an event was
    /// dispatched twice.
    pub fn take(&mut self, handle: u32) -> M {
        let payload = self.slots[handle as usize]
            .take()
            .expect("payload handle taken twice");
        self.free.push(handle);
        payload
    }

    /// Payloads currently parked.
    pub fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Bytes the slab and free list hold allocated. Both are bounded by
    /// the peak in-flight population, never by the number of sends.
    pub fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<M>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Slot reuses so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Slab growths so far.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_payloads() {
        let mut pool: PayloadPool<String> = PayloadPool::new();
        let a = pool.insert("a".to_string());
        let b = pool.insert("b".to_string());
        assert_eq!(pool.in_use(), 2);
        assert_eq!(pool.take(a), "a");
        assert_eq!(pool.take(b), "b");
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn steady_state_reuses_slots() {
        let mut pool: PayloadPool<u64> = PayloadPool::new();
        // Warm up to a plateau of 8 in-flight payloads...
        let mut handles: Vec<u32> = (0..8).map(|i| pool.insert(i)).collect();
        assert_eq!(pool.allocs(), 8);
        assert_eq!(pool.hits(), 0);
        // ...then churn through 1000 send/resolve cycles at that plateau.
        for i in 0..1_000u64 {
            let h = handles.remove(0);
            pool.take(h);
            handles.push(pool.insert(100 + i));
        }
        assert_eq!(pool.allocs(), 8, "steady state must not grow the slab");
        assert_eq!(pool.hits(), 1_000);
        assert_eq!(pool.slots.len(), 8);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let mut pool: PayloadPool<u8> = PayloadPool::new();
        let h = pool.insert(1);
        pool.take(h);
        pool.take(h);
    }
}
