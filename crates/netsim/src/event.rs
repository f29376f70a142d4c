//! The event calendar: a hierarchical timer wheel with a FIFO-preserving
//! overflow heap.
//!
//! The calendar dispatches events in strict `(time, key)` order. For
//! locally scheduled events the key is `(epoch, 0, seq)` — `seq` is a
//! monotone schedule counter, so same-instant local events fire in
//! insertion (FIFO) order, exactly the classic behaviour. Cross-region
//! boundary arrivals are scheduled with an explicit key
//! `(send epoch, 1, source region, send order)` instead: that places them,
//! at their instant, after every event scheduled up to the send epoch's
//! closing barrier and before everything scheduled later — precisely the
//! position a barrier-batched *(arrival time, source region, send order)*
//! flush would have given them, but without buffering or sorting anything
//! at the barrier. Because the key is a total order independent of
//! insertion sequence, dispatch order is identical at every shard and
//! worker count (see `DESIGN.md` §9).
//!
//! The previous implementation was a binary heap, paying `O(log n)`
//! compares per operation with poor locality; the wheel does `O(1)` bucket
//! pushes and amortizes ordering work into per-slot sorts of a few events
//! each.
//!
//! # Layout
//!
//! Four levels of 64 slots each, with slot widths of 2^10, 2^16, 2^22 and
//! 2^28 ns (~1 µs, ~65 µs, ~4.2 ms, ~268 ms); level *l* spans 64 slots =
//! 2^(10+6·l+6) ns, so the whole wheel covers 2^34 ns ≈ 17 s ahead of the
//! cursor. Events beyond that horizon (long timers, `SimTime::MAX`
//! sentinels) wait in a binary-heap overflow ordered by the same
//! `(time, seq)` key and migrate into the wheel when the cursor
//! approaches.
//!
//! Levels are *absolutely* indexed: level *l* covers the window
//! `[align(cur, span_l), align(cur, span_l) + span_l)` and an event at `t`
//! lives in slot `(t >> shift_l) & 63` of the first level whose window
//! contains `t`. Because the cursor `cur` is always a multiple of the
//! level-0 slot width, each slot holds events of exactly one absolute
//! window — there is no wrap-around ambiguity to resolve at drain time.
//!
//! # Dispatch
//!
//! `cur` splits time: every pending event at `t < cur` sits pre-sorted in
//! the `ready` queue; everything else is in the wheel or the overflow.
//! Refilling `ready` repeatedly takes the earliest occupied slot across
//! levels (occupancy is one bitmap word per level): a level-0 slot is
//! sorted by `(time, key)` and drained into `ready`; a higher-level slot is
//! cascaded down a level; the overflow migrates when its head precedes
//! every occupied slot. Events scheduled below `cur` (an agent scheduling
//! at `now` while its slot is being dispatched, or a boundary arrival
//! landing inside an already-drained slot) are merge-inserted into `ready`
//! at their `(time, key)` position, which keeps the global dispatch order
//! identical to the binary heap's — the digest-equality tests pin exactly
//! that.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::arena::PacketHandle;
use crate::id::{AgentId, ChannelId, NodeId};
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy)]
pub enum EventKind {
    /// A channel finished serializing the packet it was transmitting.
    TxComplete {
        /// The transmitting channel.
        channel: ChannelId,
        /// The packet that just left the transmitter.
        packet: PacketHandle,
    },
    /// A packet arrives at a node (after propagation, or injected locally
    /// by an agent on that node).
    Arrive {
        /// The node the packet arrives at.
        node: NodeId,
        /// The arriving packet.
        packet: PacketHandle,
    },
    /// An agent timer expires.
    Timer {
        /// The agent whose timer fires.
        agent: AgentId,
        /// Opaque token the agent registered; stale timers are the agent's
        /// responsibility to ignore.
        token: u64,
    },
    /// An agent's `on_start` hook.
    Start {
        /// The agent to start.
        agent: AgentId,
    },
}

/// Bit layout of the packed `u64` tie-break key. The epoch occupies the
/// high 28 bits, the phase bit sits at 35, and the low 35 bits are
/// phase-specific — a per-epoch schedule counter for locals, a
/// *(region, send order)* pair for boundary arrivals. Cross-phase
/// comparisons resolve on the shared `(epoch, phase)` prefix, so the low
/// layouts never meet. Keeping the key in one word keeps [`Event`] at its
/// pre-partitioning 32 bytes — the wheel's slot sorts and copies are on
/// the engine's hottest path.
const KEY_EPOCH_SHIFT: u32 = 36;
/// Phase bit: 0 = locally scheduled, 1 = boundary arrival of that epoch.
const KEY_PHASE_BIT: u64 = 1 << 35;
/// Bits for the boundary key's per-epoch, per-region send order.
const KEY_SEQ_SHIFT: u32 = 21;
/// θ-grid epochs the key's high bits can number (2^28). The engine
/// rejects a `run_until` deadline beyond it before dispatching anything.
pub const MAX_EPOCHS: u64 = 1 << (64 - KEY_EPOCH_SHIFT);
/// Regions the boundary key's region field can number (2^14). The engine
/// rejects a partition, or a node added to one, that would exceed it.
pub const MAX_REGIONS: usize = (KEY_PHASE_BIT >> KEY_SEQ_SHIFT) as usize;

/// Same-instant tie-break key for a locally scheduled event: epoch, phase
/// bit 0, then the calendar's schedule counter *within that epoch*.
/// Within one epoch this is pure insertion (FIFO) order; the counter may
/// reset across epochs because the epoch bits already separate them.
pub fn local_key(epoch: u64, seq: u64) -> u64 {
    debug_assert!(epoch < MAX_EPOCHS, "epoch overflows the key");
    assert!(
        seq < KEY_PHASE_BIT,
        "calendar key overflow: 2^35 events scheduled within one θ-grid epoch \
         (or one unpartitioned run)"
    );
    (epoch << KEY_EPOCH_SHIFT) | seq
}

/// Same-instant tie-break key for a cross-region boundary arrival: the
/// *send* epoch, phase bit 1 (after every local event of that epoch,
/// before everything later), then the canonical *(source region, send
/// order within the epoch)* pair. A pure function of the message —
/// independent of which shard inserts it, or when — so dispatch order is
/// identical at every shard and worker count.
pub fn boundary_key(epoch: u64, region: u32, seq: u64) -> u64 {
    debug_assert!(epoch < MAX_EPOCHS, "epoch overflows the key");
    assert!(
        (region as usize) < MAX_REGIONS,
        "calendar key overflow: region id {region} needs more than 14 bits"
    );
    assert!(
        seq < 1 << KEY_SEQ_SHIFT,
        "calendar key overflow: 2^21 boundary sends from one region within one θ-grid epoch"
    );
    (epoch << KEY_EPOCH_SHIFT) | KEY_PHASE_BIT | ((region as u64) << KEY_SEQ_SHIFT) | seq
}

/// A scheduled event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// When the event fires.
    pub at: SimTime,
    /// Total-order tie-break within the same instant: [`local_key`] for
    /// ordinary schedules, [`boundary_key`] for cross-region arrivals.
    pub key: u64,
    /// The action.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, key) pops
        // first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// Number of wheel levels.
const LEVELS: usize = 4;
/// log2(slots per level).
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// log2(slot width in ns) per level.
const SHIFT: [u32; LEVELS] = [10, 16, 22, 28];

/// Width in nanoseconds of the whole level-`l` window (64 slots).
const fn span(l: usize) -> u64 {
    1 << (SHIFT[l] + SLOT_BITS)
}

/// The future event list: hierarchical timer wheel + overflow heap.
#[derive(Debug)]
pub struct Calendar {
    /// `LEVELS * SLOTS` buckets, indexed `(level << SLOT_BITS) | slot`.
    slots: Vec<Vec<Event>>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; LEVELS],
    /// Events beyond the wheel horizon, min-ordered by `(time, key)`.
    overflow: BinaryHeap<Event>,
    /// Events already extracted and sorted, all at times `< cur`.
    ready: VecDeque<Event>,
    /// The drain cursor, in ns; always a multiple of the level-0 slot
    /// width. Every pending event below it is in `ready`.
    cur: u64,
    /// Schedule counter within the current epoch (low bits of local
    /// keys); resets when the epoch advances — the epoch bits already
    /// separate the instants' tie groups across epochs.
    next_seq: u64,
    /// The θ-grid epoch currently being executed (high bits of every
    /// locally scheduled event's key). Zero for an unpartitioned run; the
    /// epoch executor advances it at each grid barrier.
    epoch: u64,
    len: usize,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            ready: VecDeque::new(),
            cur: 0,
            next_seq: 0,
            epoch: 0,
            len: 0,
        }
    }
}

impl Calendar {
    /// An empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the θ-grid epoch stamped onto subsequently scheduled events'
    /// keys, resetting the per-epoch schedule counter when it actually
    /// advances (a `run_until` stopping mid-epoch re-enters the same
    /// epoch; its counter must continue, not restart). An unpartitioned
    /// run never calls this and gets the classic pure `(time, seq)`
    /// order.
    pub fn set_epoch(&mut self, epoch: u64) {
        debug_assert!(epoch >= self.epoch, "epoch ran backwards");
        assert!(
            epoch < MAX_EPOCHS,
            "calendar key overflow: θ-grid epoch {epoch} needs more than 28 bits"
        );
        if epoch != self.epoch {
            self.epoch = epoch;
            self.next_seq = 0;
        }
    }

    /// The θ-grid epoch currently stamped onto scheduled events' keys.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Schedule `kind` to fire at `at`, tie-broken by insertion order
    /// within the current epoch.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Event {
            at,
            key: local_key(self.epoch, seq),
            kind,
        });
    }

    /// Schedule a cross-region boundary arrival, tie-broken by the
    /// canonical *(send epoch, source region, send order)* key — `region`
    /// and `seq` identify the sender's stream; the send epoch is the
    /// calendar's current epoch (the sender transmits and the exchange
    /// delivers within the same grid step). The key is independent of the
    /// insertion path, so direct insertion here lands the arrival exactly
    /// where a barrier-batched sort would have.
    pub fn schedule_boundary(&mut self, at: SimTime, region: u32, seq: u64, kind: EventKind) {
        self.insert(Event {
            at,
            key: boundary_key(self.epoch, region, seq),
            kind,
        });
    }

    fn insert(&mut self, e: Event) {
        self.len += 1;
        if e.at.as_nanos() < self.cur {
            // The slot covering `at` has already been drained: merge into
            // `ready` at the event's `(time, key)` position — exactly
            // where the heap would have popped it. (A boundary arrival's
            // key can precede same-instant events already drained, so the
            // full key participates, not just the time.)
            let pos = self
                .ready
                .partition_point(|x| (x.at, x.key) <= (e.at, e.key));
            self.ready.insert(pos, e);
        } else {
            self.place(e);
        }
    }

    /// File an event at `t >= cur` into the first level whose current
    /// window contains it, or the overflow past the horizon.
    fn place(&mut self, e: Event) {
        let t = e.at.as_nanos();
        debug_assert!(t >= self.cur, "place() below the cursor");
        for (l, &shift) in SHIFT.iter().enumerate() {
            let base = self.cur & !(span(l) - 1);
            if t - base < span(l) {
                let slot = ((t >> shift) & (SLOTS as u64 - 1)) as usize;
                self.slots[(l << SLOT_BITS) | slot].push(e);
                self.occupied[l] |= 1 << slot;
                return;
            }
        }
        self.overflow.push(e);
    }

    /// The earliest occupied slot at or after the cursor: `(level, window
    /// start in ns)`. Ties between levels go to the *higher* level so
    /// cascades happen before drains of the same instant.
    fn earliest_slot(&self) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for (l, &shift) in SHIFT.iter().enumerate() {
            let occ = self.occupied[l];
            if occ == 0 {
                continue;
            }
            let i_cur = (self.cur >> shift) & (SLOTS as u64 - 1);
            let masked = occ & !((1u64 << i_cur) - 1);
            debug_assert!(masked != 0, "occupied slot behind the cursor");
            let slot = masked.trailing_zeros() as u64;
            let base = self.cur & !(span(l) - 1);
            let start = base | (slot << shift);
            if best.is_none_or(|(_, s)| start <= s) {
                best = Some((l, start));
            }
        }
        best
    }

    /// Move events into `ready` until it can serve the next event, without
    /// committing the cursor past `deadline`'s slot. Returns `false` when
    /// nothing is pending at or before `deadline`.
    fn refill(&mut self, deadline: SimTime) -> bool {
        loop {
            if let Some(front) = self.ready.front() {
                return front.at <= deadline;
            }
            let best = self.earliest_slot();
            // Migrate the overflow when its head precedes (or ties) every
            // occupied slot: the head's events may belong in that slot.
            if let Some(head) = self.overflow.peek() {
                let t = head.at.as_nanos();
                if best.is_none_or(|(_, start)| t <= start) {
                    if head.at > deadline {
                        return false;
                    }
                    // Jump the cursor to the head's level-0 slot (no wheel
                    // event lies below it), then pull everything now within
                    // the top-level window into the wheel.
                    self.cur = self.cur.max(t & !((1 << SHIFT[0]) - 1));
                    let top_base = self.cur & !(span(LEVELS - 1) - 1);
                    while let Some(head) = self.overflow.peek() {
                        if head.at.as_nanos() - top_base < span(LEVELS - 1) {
                            let e = self.overflow.pop().expect("peeked event vanished");
                            self.place(e);
                        } else {
                            break;
                        }
                    }
                    continue;
                }
            }
            let Some((l, start)) = best else {
                return false; // calendar empty
            };
            if SimTime::from_nanos(start) > deadline {
                return false; // next event past the deadline; don't commit
            }
            let slot = ((start >> SHIFT[l]) & (SLOTS as u64 - 1)) as usize;
            let idx = (l << SLOT_BITS) | slot;
            let mut bucket = std::mem::take(&mut self.slots[idx]);
            self.occupied[l] &= !(1 << slot);
            if l == 0 {
                // Drain: this slot's window is fully behind the new cursor
                // (saturating only at the `SimTime::MAX` sentinel slot).
                self.cur = start.saturating_add(1 << SHIFT[0]);
                // Sweep overflow events that fall strictly *inside* this
                // slot's window into the same drain. The migration check
                // above only catches heads at or before the slot *start*
                // (`t <= start`); a head inside the window would otherwise
                // sit out the drain and end up stranded below the cursor.
                while let Some(head) = self.overflow.peek() {
                    if head.at.as_nanos() < self.cur {
                        let e = self.overflow.pop().expect("peeked event vanished");
                        bucket.push(e);
                    } else {
                        break;
                    }
                }
                bucket.sort_unstable_by_key(|e| (e.at, e.key));
                self.ready.extend(bucket.drain(..));
            } else {
                // Cascade one slot down a level. Each event lands at level
                // < l because the slot's window is exactly one level-(l-1)
                // window.
                self.cur = self.cur.max(start);
                for e in bucket.drain(..) {
                    self.place(e);
                }
            }
            // Hand the (now empty) buffer back so its capacity is reused.
            self.slots[idx] = bucket;
        }
    }

    /// Remove and return the next event if it fires at or before
    /// `deadline`, in (time, insertion) order.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event> {
        if !self.refill(deadline) {
            return None;
        }
        self.len -= 1;
        self.ready.pop_front()
    }

    /// Remove and return the next event in (time, insertion) order.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_before(SimTime::MAX)
    }

    /// The firing time of the next event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.refill(SimTime::MAX) {
            return None;
        }
        self.ready.front().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The previous binary-heap calendar, kept as the *reference
/// implementation*: property tests check that the wheel dispatches in
/// exactly this order, and the engine bench compares both.
#[derive(Debug, Default)]
pub struct HeapCalendar {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl HeapCalendar {
    /// An empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event {
            at,
            key: local_key(0, seq),
            kind,
        });
    }

    /// Remove and return the next event in (time, insertion) order.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Remove and return the next event if it fires at or before
    /// `deadline` (API parity with [`Calendar`]).
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event> {
        if self.heap.peek().is_some_and(|e| e.at <= deadline) {
            self.heap.pop()
        } else {
            None
        }
    }

    /// The firing time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(agent: u32, token: u64) -> EventKind {
        EventKind::Timer {
            agent: AgentId(agent),
            token,
        }
    }

    fn token_of(e: &Event) -> u64 {
        match e.kind {
            EventKind::Timer { token, .. } => token,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(3), timer(0, 3));
        cal.schedule(SimTime::from_secs(1), timer(0, 1));
        cal.schedule(SimTime::from_secs(2), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop())
            .map(|e| token_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut cal = Calendar::new();
        let t = SimTime::from_secs(1);
        for token in 0..100 {
            cal.schedule(t, timer(0, token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop())
            .map(|e| token_of(&e))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut cal = Calendar::new();
        assert!(cal.is_empty());
        cal.schedule(SimTime::from_secs(5), timer(0, 0));
        assert_eq!(cal.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(cal.len(), 1);
        let e = cal.pop().unwrap();
        assert_eq!(e.at, SimTime::from_secs(5));
        assert!(cal.pop().is_none());
    }

    #[test]
    fn matches_heap_reference_on_mixed_schedule() {
        // Times spanning every wheel level and the overflow, with repeats.
        let times: Vec<u64> = (0..500)
            .map(|i: u64| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % (1 << 38))
            .chain((0..50).map(|i| i % 7)) // clustered near zero
            .chain(std::iter::repeat_n(123_456_789, 20)) // heavy tie
            .collect();
        let mut wheel = Calendar::new();
        let mut heap = HeapCalendar::new();
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule(SimTime::from_nanos(t), timer(0, i as u64));
            heap.schedule(SimTime::from_nanos(t), timer(0, i as u64));
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            match (a, b) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert_eq!((a.at, a.key), (b.at, b.key));
                }
                _ => panic!("wheel and heap disagree on event count"),
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_preserves_order() {
        // Schedule while draining, including events at the exact time of
        // the event just popped (the "agent schedules at now" pattern).
        let mut cal = Calendar::new();
        for i in 0..10u64 {
            cal.schedule(SimTime::from_nanos(i * 100), timer(0, i));
        }
        let mut seen = Vec::new();
        let mut extra = 100u64;
        while let Some(e) = cal.pop() {
            seen.push((e.at, e.key));
            if extra < 105 {
                // At `now` — lands below the cursor, merged into ready.
                cal.schedule(e.at, timer(0, extra));
                // Slightly later.
                cal.schedule(
                    e.at + crate::time::SimDuration::from_nanos(37),
                    timer(0, extra + 50),
                );
                extra += 1;
            }
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "dispatch order must be (time, key)");
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn boundary_keys_order_by_epoch_phase_region_and_send_order() {
        // Locals of epoch k < boundary arrivals sent in epoch k (ordered
        // by (region, send order) regardless of insertion sequence) <
        // locals of epoch k+1 — all at the same instant.
        let t = SimTime::from_nanos(5_000);
        let mut cal = Calendar::new();
        cal.set_epoch(1);
        cal.schedule(t, timer(0, 10)); // epoch-1 local
        cal.schedule(t, timer(0, 11)); // epoch-1 local
                                       // Exchange at epoch 1's barrier: arrivals inserted out of
                                       // canonical order (higher region first).
        cal.schedule_boundary(t, 7, 0, timer(0, 22));
        cal.schedule_boundary(t, 3, 1, timer(0, 21));
        cal.schedule_boundary(t, 3, 0, timer(0, 20));
        cal.set_epoch(2);
        cal.schedule(t, timer(0, 30)); // epoch-2 local
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop())
            .map(|e| token_of(&e))
            .collect();
        assert_eq!(order, vec![10, 11, 20, 21, 22, 30]);
    }

    #[test]
    fn boundary_arrival_below_the_cursor_merges_at_its_key_position() {
        // Draining a slot can advance the cursor past an arrival's
        // instant; the merge into `ready` must honour the full key, not
        // just the time — a second arrival from a lower region lands
        // *before* the first even though it is inserted later.
        let mut cal = Calendar::new();
        cal.set_epoch(1);
        cal.schedule(SimTime::from_nanos(10_000), timer(0, 1));
        cal.schedule(SimTime::from_nanos(10_050), timer(0, 2));
        // Both share a level-0 slot: popping the first drains the second
        // into `ready` and commits the cursor past 10_050.
        assert_eq!(token_of(&cal.pop().unwrap()), 1);
        cal.schedule_boundary(SimTime::from_nanos(10_050), 5, 0, timer(0, 4));
        cal.schedule_boundary(SimTime::from_nanos(10_050), 2, 0, timer(0, 3));
        let order: Vec<u64> = std::iter::from_fn(|| cal.pop())
            .map(|e| token_of(&e))
            .collect();
        assert_eq!(order, vec![2, 3, 4]);
    }

    #[test]
    fn far_future_sentinel_stays_in_overflow() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::MAX, timer(0, 99));
        cal.schedule(SimTime::from_nanos(5), timer(0, 1));
        // A bounded pop must not chase the sentinel.
        let e = cal.pop_before(SimTime::from_secs(1)).unwrap();
        assert_eq!(token_of(&e), 1);
        assert!(cal.pop_before(SimTime::from_secs(1)).is_none());
        // Scheduling after the bounded pop still dispatches in order.
        cal.schedule(SimTime::from_nanos(7), timer(0, 2));
        assert_eq!(token_of(&cal.pop_before(SimTime::from_secs(1)).unwrap()), 2);
        assert_eq!(cal.len(), 1);
        // The sentinel is still reachable with an unbounded pop.
        assert_eq!(token_of(&cal.pop().unwrap()), 99);
        assert!(cal.is_empty());
    }

    #[test]
    fn overflow_head_inside_a_draining_slot_is_swept_into_it() {
        // Regression: an overflow event strictly *inside* the earliest
        // level-0 slot's window (`slot_start < t < slot_start + 1024`)
        // used to sit out that slot's drain — the migration check only
        // compares against the slot *start* — leaving it stranded below
        // the cursor and tripping `place()` on the next migration.
        let top = span(LEVELS - 1); // the wheel horizon
        let mut cal = Calendar::new();
        // Beyond the horizon from t=0: lives in the overflow heap.
        cal.schedule(SimTime::from_nanos(2 * top + 500), timer(0, 4));
        // Stepping stones that walk the cursor up to exactly `2 * top`
        // without a migration window ever covering the overflow event.
        cal.schedule(SimTime::from_nanos(top + 2048), timer(0, 1));
        assert_eq!(token_of(&cal.pop().unwrap()), 1);
        cal.schedule(SimTime::from_nanos(2 * top - 1000), timer(0, 2));
        assert_eq!(token_of(&cal.pop().unwrap()), 2); // cur lands on 2*top
                                                      // Same level-0 slot as the overflow event, 100ns earlier: its
                                                      // drain commits the cursor past the overflow head.
        cal.schedule(SimTime::from_nanos(2 * top + 400), timer(0, 3));
        assert_eq!(token_of(&cal.pop().unwrap()), 3);
        assert_eq!(token_of(&cal.pop().unwrap()), 4); // swept, in order
        assert!(cal.is_empty());
    }

    #[test]
    fn pop_before_respects_deadline_exactly() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_nanos(1000), timer(0, 1));
        assert!(cal.pop_before(SimTime::from_nanos(999)).is_none());
        assert!(cal.pop_before(SimTime::from_nanos(1000)).is_some());
    }
}
