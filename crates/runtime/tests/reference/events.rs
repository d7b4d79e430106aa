//! The `EventQueue` that the inline-key heap replaced, kept verbatim
//! as the reference `queue_props.rs` holds the crate's queue to: a heap
//! of slot indices ordered through the slot table (`before`), repaired
//! by pairwise `exchange`s that each count one sift step.

#![allow(dead_code)]

/// A handle to one scheduled event, returned by [`EventQueue::push`].
///
/// Tokens are cheap to copy and generation-checked: once the event
/// pops, cancels, or reschedules away, old copies of its token are
/// harmless (they refer to a dead generation and every operation on
/// them reports failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EventToken {
    slot: u32,
    generation: u32,
}

/// Work counters for one [`EventQueue`]; see the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct QueueStats {
    /// Events pushed.
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Successful cancellations.
    pub cancels: u64,
    /// Successful reschedules.
    pub reschedules: u64,
    /// Total heap-repair steps (one parent/child exchange each) across
    /// every push, pop, cancel, and reschedule.
    pub sift_steps: u64,
}

#[derive(Debug)]
struct Slot<T> {
    at_us: f64,
    seq: u64,
    generation: u32,
    /// Index into `heap` while scheduled; `usize::MAX` when free.
    pos: usize,
    payload: Option<T>,
}

const FREE: usize = usize::MAX;

/// The indexed event queue. See the module docs for the model.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    /// Slot indices, heap-ordered by `(at_us, seq)`.
    heap: Vec<u32>,
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
    pub(crate) fn new() -> EventQueue<T> {
        EventQueue::with_capacity(0)
    }

    /// An empty queue pre-sized for `capacity` concurrently scheduled
    /// events.
    pub(crate) fn with_capacity(capacity: usize) -> EventQueue<T> {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// Number of scheduled events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The queue's work counters so far.
    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Schedules `payload` at virtual time `at_us`; ties with other
    /// events at the same time resolve in push order.
    pub(crate) fn push(&mut self, at_us: f64, payload: T) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len();
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.at_us = at_us;
                s.seq = seq;
                s.pos = pos;
                s.payload = Some(payload);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    at_us,
                    seq,
                    generation: 0,
                    pos,
                    payload: Some(payload),
                });
                slot
            }
        };
        self.heap.push(slot);
        self.sift_up(pos);
        self.stats.pushes += 1;
        EventToken {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// Virtual time of the next event, if any.
    pub(crate) fn peek_time(&self) -> Option<f64> {
        self.heap.first().map(|&s| self.slots[s as usize].at_us)
    }

    /// Pops the earliest event as `(at_us, payload)`.
    pub(crate) fn pop(&mut self) -> Option<(f64, T)> {
        let &slot = self.heap.first()?;
        let at_us = self.slots[slot as usize].at_us;
        let payload = self.remove_at(0);
        self.stats.pops += 1;
        Some((at_us, payload))
    }

    /// Cancels the event behind `token`. Returns `false` (and does
    /// nothing) when the event already popped, cancelled, or
    /// rescheduled away.
    pub(crate) fn cancel(&mut self, token: EventToken) -> bool {
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
    pub(crate) fn reschedule(&mut self, token: EventToken, at_us: f64) -> Option<EventToken> {
        let pos = self.live_pos(token)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let index = token.slot as usize;
        self.slots[index].at_us = at_us;
        self.slots[index].seq = seq;
        self.slots[index].generation = self.slots[index].generation.wrapping_add(1);
        self.repair(pos);
        self.stats.reschedules += 1;
        Some(EventToken {
            slot: token.slot,
            generation: self.slots[index].generation,
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
    /// the heap. Returns the payload.
    fn remove_at(&mut self, pos: usize) -> T {
        let slot = self.heap[pos];
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.slots[self.heap[pos] as usize].pos = pos;
        self.heap.pop();
        let s = &mut self.slots[slot as usize];
        s.pos = FREE;
        s.generation = s.generation.wrapping_add(1);
        let payload = s.payload.take().expect("live slot has a payload");
        self.free.push(slot);
        if pos < self.heap.len() {
            self.repair(pos);
        }
        payload
    }

    /// Re-establishes the heap property for the entry at `pos` after
    /// its key changed.
    fn repair(&mut self, pos: usize) {
        let moved = self.sift_up(pos);
        if moved == pos {
            self.sift_down(pos);
        }
    }

    fn before(&self, a: u32, b: u32) -> bool {
        let (a, b) = (&self.slots[a as usize], &self.slots[b as usize]);
        match a.at_us.total_cmp(&b.at_us) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a.seq < b.seq,
        }
    }

    fn sift_up(&mut self, mut pos: usize) -> usize {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if !self.before(self.heap[pos], self.heap[parent]) {
                break;
            }
            self.exchange(pos, parent);
            pos = parent;
        }
        pos
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let smallest =
                if right < self.heap.len() && self.before(self.heap[right], self.heap[left]) {
                    right
                } else {
                    left
                };
            if !self.before(self.heap[smallest], self.heap[pos]) {
                break;
            }
            self.exchange(pos, smallest);
            pos = smallest;
        }
    }

    fn exchange(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slots[self.heap[a] as usize].pos = a;
        self.slots[self.heap[b] as usize].pos = b;
        self.stats.sift_steps += 1;
    }
}
