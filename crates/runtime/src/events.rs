//! An indexed virtual-clock event queue with O(log n) cancellation.
//!
//! The naive approach to a discrete-event simulation queue is a
//! `BinaryHeap` plus tombstones: a cancelled event stays in the heap
//! and is skipped when popped. Under serving workloads that cancel
//! aggressively (batch timeouts made stale by size-closes, completions
//! made stale by faults) the tombstones dominate: every stale entry
//! still pays a full push *and* a full pop-with-sift, and the heap
//! grows past the live event count.
//!
//! [`EventQueue`] is an *indexed* binary heap over a slab of event
//! slots. The heap holds each event's ordering key `(time, sequence)`
//! inline beside its slot index, so sifting compares heap entries
//! without touching the slab, and it moves a hole rather than swapping
//! pairs: the sifted entry is written once, where it stops. Each
//! [`EventQueue::push`] returns an [`EventToken`];
//! [`EventQueue::cancel`] and [`EventQueue::reschedule`] find the
//! event's heap position through the slab index and repair the heap in
//! O(log n) — no tombstones, no churn. Slots are recycled through a
//! free list (the slab), and tokens carry a generation so a stale
//! token for a recycled slot can never cancel the wrong event.
//!
//! An event that a caller can hold more cheaply outside the heap (at
//! most one pending per lane, say) takes its place in the pop order
//! from [`EventQueue::claim_key`] instead of a push; the caller merges
//! it with the heap's head by comparing [`EventKey`]s.
//!
//! # Determinism
//!
//! Events pop ordered by `(time, sequence)`: ties on the virtual clock
//! resolve in insertion order, with `f64::total_cmp` for the times.
//! The queue's behaviour is a pure function of the operation sequence
//! applied to it, which keeps same-seed simulation replays
//! byte-identical — the property CI diffs.
//!
//! # Accounting
//!
//! The queue counts its own work ([`QueueStats`]): pushes, pops,
//! cancels, reschedules, and total sift steps (each step is one entry
//! moving one level while repairing the heap). The regression
//! test in this module bounds the sift work of a cancel-heavy
//! workload, so a future change that silently reintroduces
//! tombstone churn fails the suite without any wall-clock
//! measurement.
//!
//! ```
//! use everest_runtime::events::EventQueue;
//!
//! let mut queue = EventQueue::new();
//! let _arrival = queue.push(10.0, "arrival");
//! let timeout = queue.push(25.0, "timeout");
//! let _completion = queue.push(20.0, "completion");
//!
//! // The timeout became stale: remove it outright.
//! assert!(queue.cancel(timeout));
//!
//! assert_eq!(queue.pop(), Some((10.0, "arrival")));
//! assert_eq!(queue.pop(), Some((20.0, "completion")));
//! assert_eq!(queue.pop(), None);
//! ```

/// A handle to one scheduled event, returned by [`EventQueue::push`].
///
/// Tokens are cheap to copy and generation-checked: once the event
/// pops, cancels, or reschedules away, old copies of its token are
/// harmless (they refer to a dead generation and every operation on
/// them reports failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventToken {
    slot: u32,
    generation: u32,
}

/// Work counters for one [`EventQueue`]; see the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed.
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Successful cancellations.
    pub cancels: u64,
    /// Successful reschedules.
    pub reschedules: u64,
    /// Total heap-repair steps (one entry moved one level each) across
    /// every push, pop, cancel, and reschedule.
    pub sift_steps: u64,
}

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    /// Index into `heap` while scheduled; `usize::MAX` when free.
    pos: usize,
    payload: Option<T>,
}

const FREE: usize = usize::MAX;

/// An event's place in the pop order: its virtual time and its
/// sequence number as one integer whose unsigned order is the pop
/// order — the time's bits, mapped so that integer order is
/// `f64::total_cmp` order, above the sequence number. A caller that
/// keeps an event outside the queue under a key from
/// [`EventQueue::claim_key`] merges it with the queue's own events by
/// comparing keys with [`EventQueue::peek_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey(u128);

/// Flips the magnitude bits of a negative float: applied to a float's
/// bits it gives an integer ordered as `f64::total_cmp` orders the
/// floats, and applied to that integer it gives the bits back.
fn flip_negative(bits: u64) -> u64 {
    bits ^ ((bits >> 63).wrapping_neg() >> 1)
}

const SIGN: u64 = 1 << 63;

impl EventKey {
    fn new(at_us: f64, seq: u64) -> EventKey {
        let time = flip_negative(at_us.to_bits()) ^ SIGN;
        EventKey((u128::from(time) << 64) | u128::from(seq))
    }

    /// The virtual time of the keyed event.
    pub fn at_us(self) -> f64 {
        f64::from_bits(flip_negative(((self.0 >> 64) as u64) ^ SIGN))
    }
}

/// One heap entry: the event's ordering key inline beside its slot
/// index, so a sift compares entries without reading the slot table.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: EventKey,
    slot: u32,
}

impl Entry {
    /// Whether `self` pops before `other`: earlier time, then earlier
    /// sequence.
    fn before(&self, other: &Entry) -> bool {
        self.key < other.key
    }
}

/// The indexed event queue. See the module docs for the model.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Entries heap-ordered by `(at_us, seq)`.
    heap: Vec<Entry>,
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    next_seq: u64,
    stats: QueueStats,
}

impl<T> Default for EventQueue<T> {
    fn default() -> EventQueue<T> {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue::with_capacity(0)
    }

    /// An empty queue pre-sized for `capacity` concurrently scheduled
    /// events.
    pub fn with_capacity(capacity: usize) -> EventQueue<T> {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The queue's work counters so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Schedules `payload` at virtual time `at_us`; ties with other
    /// events at the same time resolve in push order.
    pub fn push(&mut self, at_us: f64, payload: T) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        let token = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.payload = Some(payload);
                EventToken {
                    slot,
                    generation: s.generation,
                }
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    pos: FREE,
                    payload: Some(payload),
                });
                EventToken {
                    slot: (self.slots.len() - 1) as u32,
                    generation: 0,
                }
            }
        };
        let pos = self.heap.len();
        let entry = Entry {
            key: EventKey::new(at_us, seq),
            slot: token.slot,
        };
        self.heap.push(entry);
        self.sift_up(pos, entry);
        self.stats.pushes += 1;
        token
    }

    /// Virtual time of the next event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.peek_key().map(EventKey::at_us)
    }

    /// Pop-order key of the next event, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.first().map(|entry| entry.key)
    }

    /// Takes the next sequence number for an event at `at_us` that the
    /// caller keeps outside the queue: the returned key orders against
    /// every event pushed before or after it exactly as the event would
    /// if it had been pushed now. Nothing is scheduled, and no
    /// [`QueueStats`] counter moves.
    pub fn claim_key(&mut self, at_us: f64) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        EventKey::new(at_us, seq)
    }

    /// Pops the earliest event as `(at_us, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let at_us = self.peek_key()?.at_us();
        let payload = self.remove_at(0);
        self.stats.pops += 1;
        Some((at_us, payload))
    }

    /// Cancels the event behind `token`. Returns `false` (and does
    /// nothing) when the event already popped, cancelled, or
    /// rescheduled away.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(pos) = self.live_pos(token) else {
            return false;
        };
        self.remove_at(pos);
        self.stats.cancels += 1;
        true
    }

    /// Moves the event behind `token` to `at_us`, keeping its payload.
    /// The event re-enters the tie-break order as if freshly pushed
    /// (it loses ties against events already scheduled at `at_us`).
    /// Returns the new token, or `None` when the token is stale.
    pub fn reschedule(&mut self, token: EventToken, at_us: f64) -> Option<EventToken> {
        let pos = self.live_pos(token)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = &mut self.slots[token.slot as usize];
        slot.generation = slot.generation.wrapping_add(1);
        let generation = slot.generation;
        let entry = Entry {
            key: EventKey::new(at_us, seq),
            slot: token.slot,
        };
        self.heap[pos] = entry;
        self.repair(pos, entry);
        self.stats.reschedules += 1;
        Some(EventToken {
            slot: token.slot,
            generation,
        })
    }

    /// Heap position of the live event behind `token`, if any.
    fn live_pos(&self, token: EventToken) -> Option<usize> {
        let slot = self.slots.get(token.slot as usize)?;
        if slot.generation != token.generation || slot.pos == FREE {
            return None;
        }
        Some(slot.pos)
    }

    /// Removes the heap entry at `pos`, recycles its slot, and repairs
    /// the heap with the last entry moved into the gap (at the root it
    /// can only sink). Returns the payload.
    fn remove_at(&mut self, pos: usize) -> T {
        let removed = self.heap[pos].slot;
        let last = self.heap.pop().expect("a live entry is in the heap");
        if pos == 0 && !self.heap.is_empty() {
            self.sift_down(0, last);
        } else if pos < self.heap.len() {
            self.repair(pos, last);
        }
        let s = &mut self.slots[removed as usize];
        s.pos = FREE;
        s.generation = s.generation.wrapping_add(1);
        let payload = s.payload.take().expect("live slot has a payload");
        self.free.push(removed);
        payload
    }

    /// Re-establishes the heap property for `entry`, whose key changed,
    /// at `pos`.
    fn repair(&mut self, pos: usize, entry: Entry) {
        if self.sift_up(pos, entry) == pos {
            self.sift_down(pos, entry);
        }
    }

    /// Moves `entry`, which belongs at the hole `pos`, up past every
    /// parent it pops before: each such parent drops into the hole (one
    /// sift step), and `entry` is written once, where the climb stops.
    /// Returns that position.
    fn sift_up(&mut self, mut pos: usize, entry: Entry) -> usize {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if !entry.before(&above) {
                break;
            }
            self.place(pos, above);
            self.stats.sift_steps += 1;
            pos = parent;
        }
        self.place(pos, entry);
        pos
    }

    /// The downward twin of [`EventQueue::sift_up`]: the earlier child
    /// rises into the hole while it pops before `entry`.
    fn sift_down(&mut self, mut pos: usize, entry: Entry) {
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && self.heap[right].before(&self.heap[left]) {
                right
            } else {
                left
            };
            let below = self.heap[child];
            if !below.before(&entry) {
                break;
            }
            self.place(pos, below);
            self.stats.sift_steps += 1;
            pos = child;
        }
        self.place(pos, entry);
    }

    /// Writes `entry` at heap position `pos` and points its slot there.
    fn place(&mut self, pos: usize, entry: Entry) {
        self.heap[pos] = entry;
        self.slots[entry.slot as usize].pos = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a1");
        q.push(2.0, "b");
        q.push(1.0, "a2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a1", "a2", "b", "c"]);
    }

    #[test]
    fn cancel_removes_and_stale_tokens_fail() {
        let mut q = EventQueue::new();
        let a = q.push(1.0, 1);
        let b = q.push(2.0, 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel must fail");
        assert_eq!(q.pop(), Some((2.0, 2)));
        assert!(!q.cancel(b), "popped event must not cancel");
        assert!(q.is_empty());
    }

    #[test]
    fn recycled_slot_rejects_old_generation() {
        let mut q = EventQueue::new();
        let a = q.push(1.0, "a");
        assert_eq!(q.pop(), Some((1.0, "a")));
        // The slot is recycled for a fresh event; the dead token must
        // not be able to touch it.
        let b = q.push(5.0, "b");
        assert_eq!(a.slot, b.slot, "slab recycles the slot");
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((5.0, "b")));
    }

    #[test]
    fn reschedule_moves_and_reorders() {
        let mut q = EventQueue::new();
        let a = q.push(10.0, "late");
        q.push(5.0, "middle");
        let a = q.reschedule(a, 1.0).expect("live token");
        assert_eq!(q.pop(), Some((1.0, "late")));
        assert!(q.reschedule(a, 2.0).is_none(), "popped token is stale");
        assert_eq!(q.pop(), Some((5.0, "middle")));
    }

    #[test]
    fn reschedule_to_same_time_loses_ties() {
        let mut q = EventQueue::new();
        let a = q.push(1.0, "first");
        q.push(1.0, "second");
        q.reschedule(a, 1.0).expect("live");
        assert_eq!(q.pop(), Some((1.0, "second")));
        assert_eq!(q.pop(), Some((1.0, "first")));
    }

    #[test]
    fn nan_free_total_order() {
        // total_cmp puts -0.0 before +0.0 and handles every finite
        // value; the queue never panics on any float input.
        let mut q = EventQueue::new();
        q.push(-0.0, "neg");
        q.push(0.0, "pos");
        assert_eq!(q.pop(), Some((-0.0, "neg")));
        assert_eq!(q.pop(), Some((0.0, "pos")));
    }

    #[test]
    fn a_claimed_key_orders_as_a_push_at_the_same_point() {
        let mut q = EventQueue::new();
        q.push(5.0, "pushed before");
        let claimed = q.claim_key(5.0);
        q.push(5.0, "pushed after");
        q.push(1.0, "earlier");
        assert_eq!(claimed.at_us(), 5.0);
        assert!(q.peek_key() < Some(claimed));
        assert_eq!(q.pop(), Some((1.0, "earlier")));
        assert!(q.peek_key() < Some(claimed));
        assert_eq!(q.pop(), Some((5.0, "pushed before")));
        assert!(q.peek_key() > Some(claimed));
        assert_eq!(q.peek_time(), Some(5.0));
        // A claim schedules nothing and counts as no push.
        assert_eq!((q.len(), q.stats().pushes), (1, 3));
    }

    #[test]
    fn stats_count_work() {
        let mut q = EventQueue::new();
        let t = q.push(1.0, ());
        q.push(2.0, ());
        q.cancel(t);
        q.pop();
        let stats = q.stats();
        assert_eq!(stats.pushes, 2);
        assert_eq!(stats.cancels, 1);
        assert_eq!(stats.pops, 1);
    }

    /// The churn regression bound: a cancel-heavy workload must do
    /// O(log n) sift work per operation, not O(n) tombstone churn.
    /// Op-count based, not wall-clock, so it is stable on any machine.
    #[test]
    fn cancel_heavy_workload_has_logarithmic_sift_bound() {
        const N: usize = 4096;
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        // A deterministic scattered schedule (multiplicative hashing).
        for i in 0..N {
            let t = ((i as u64).wrapping_mul(2654435761) % 100_000) as f64;
            tokens.push(q.push(t, i));
        }
        // Cancel three of every four events, then reschedule the rest.
        let mut live = Vec::new();
        for (i, token) in tokens.into_iter().enumerate() {
            if i % 4 != 0 {
                assert!(q.cancel(token));
            } else {
                live.push(token);
            }
        }
        for (i, token) in live.into_iter().enumerate() {
            q.reschedule(token, i as f64).expect("live");
        }
        let mut popped = 0;
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "pop order must be non-decreasing");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, N / 4);
        let stats = q.stats();
        let ops = stats.pushes + stats.pops + stats.cancels + stats.reschedules;
        // log2(4096) = 12; every op sifts along at most one root-leaf
        // path. The factor-13 bound holds with room to spare while a
        // tombstone scheme (whose pops alone do O(n) extra work to
        // skip 3N dead entries) blows far past it.
        assert!(
            stats.sift_steps <= 13 * ops,
            "sift churn: {} steps for {} ops",
            stats.sift_steps,
            ops
        );
        // And the queue never held more than it was given.
        assert_eq!(stats.pushes, N as u64);
        assert_eq!(stats.pops, (N / 4) as u64);
        assert_eq!(stats.cancels, (3 * N / 4) as u64);
    }
}
