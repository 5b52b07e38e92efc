//! The slot calendar behind the simulator's event engine.
//!
//! The simulator's inner loop executes `(time, slot)` events in strictly
//! ascending `(time, slot-id)` order — the order a binary min-heap of
//! `(time, id)` pairs would pop them. Simulation time advances
//! monotonically and nearly every event lands within a few hundred
//! cycles of "now" (port queueing, cache latencies, the 32-cycle idle
//! retry, DRAM ≈ 40 cycles), so [`SlotCalendar`] keeps the near future as
//! a ring of per-cycle buckets (a calendar queue in the sense of R. Brown,
//! CACM 1988) and spills rarer far-future events into a small heap.
//!
//! A plain binary heap holding every pending event is the test oracle:
//! the lockstep tests below pin the calendar's pop order against it, and
//! `Simulator::run_oracle` drives a whole simulation through one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of near-future buckets (must be a power of two). Covers the
/// simulator's common inter-event gaps (on-chip latencies, the 32-cycle
/// idle retry, ~40-cycle DRAM) with room to spare; rarer events beyond
/// the window spill into the far heap and migrate in as time advances.
const HORIZON: u64 = 256;

/// Slot-indexed calendar for the epoch-batched simulator loop: a ring of
/// per-cycle *bitmask* buckets.
///
/// The simulator guarantees every slot has **at most one pending event**
/// (a slot's event is popped before its next one is pushed), so a bucket
/// never needs ordering or storage beyond one bit per slot: draining a
/// bucket is a word scan with `trailing_zeros`, which yields ids in
/// ascending order — exactly the heap's tie-break — for free. With the
/// evaluated 128 slots the whole near-future state is `256 × 2` words
/// (4 KiB), small enough to stay L1-resident while the epoch driver
/// batches a cycle's slot work.
///
/// The epoch driver talks to this structure cycle-at-a-time:
/// [`SlotCalendar::advance`] moves to the earliest pending cycle (one
/// *epoch*), [`SlotCalendar::take_at_cur`] drains that cycle's slots in
/// id order, and [`SlotCalendar::peek_time`] exposes the conservative
/// horizon for the solo-run fast path.
#[derive(Debug)]
pub struct SlotCalendar {
    cur: u64,
    /// Words per bucket: `ceil(num_slots / 64)`.
    words: usize,
    /// `HORIZON` buckets × `words` mask words; bit `id & 63` of word
    /// `bucket * words + (id >> 6)` is set iff slot `id` has a pending
    /// event at the bucket's time.
    masks: Vec<u64>,
    /// Occupancy bitset over buckets (bit `b` set iff bucket `b` has a
    /// pending slot): advancing time is a word-level bit scan instead of
    /// a walk over up to `HORIZON` buckets.
    occ: [u64; (HORIZON as usize) / 64],
    far: BinaryHeap<Reverse<(u64, u32)>>,
    len: usize,
}

impl SlotCalendar {
    /// A calendar for slot ids `0..num_slots`.
    pub fn new(num_slots: usize) -> Self {
        let words = num_slots.div_ceil(64).max(1);
        SlotCalendar {
            cur: 0,
            words,
            masks: vec![0; HORIZON as usize * words],
            occ: [0; (HORIZON as usize) / 64],
            far: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn event_count(&self) -> usize {
        self.len
    }

    #[inline]
    fn bucket_of(&self, time: u64) -> usize {
        (time & (HORIZON - 1)) as usize
    }

    #[inline]
    fn occ_set(&mut self, b: usize) {
        self.occ[b >> 6] |= 1 << (b & 63);
    }

    #[inline]
    fn occ_clear(&mut self, b: usize) {
        self.occ[b >> 6] &= !(1 << (b & 63));
    }

    #[inline]
    fn occ_test(&self, b: usize) -> bool {
        self.occ[b >> 6] & (1 << (b & 63)) != 0
    }

    /// Enqueues slot `id`'s next event. `time` must not precede the
    /// current cycle, and the slot must not already have a pending event
    /// at `time` (the simulator's one-pending-event-per-slot invariant).
    #[inline]
    pub fn push(&mut self, time: u64, id: u32) {
        debug_assert!(
            time >= self.cur,
            "event time flowed backwards: {time} < {}",
            self.cur
        );
        debug_assert!((id as usize) < self.words * 64, "slot id out of range");
        self.len += 1;
        if time < self.cur + HORIZON {
            let b = self.bucket_of(time);
            let w = b * self.words + (id as usize >> 6);
            debug_assert!(
                self.masks[w] & (1 << (id & 63)) == 0,
                "slot {id} already pending at time {time}"
            );
            self.masks[w] |= 1 << (id & 63);
            self.occ_set(b);
        } else {
            self.far.push(Reverse((time, id)));
        }
    }

    /// Moves far-heap events now inside the near window into buckets.
    fn refill_near(&mut self) {
        let end = self.cur + HORIZON;
        while let Some(&Reverse((t, _))) = self.far.peek() {
            if t >= end {
                break;
            }
            let Some(Reverse((t, id))) = self.far.pop() else {
                break;
            };
            let b = self.bucket_of(t);
            self.masks[b * self.words + (id as usize >> 6)] |= 1 << (id & 63);
            self.occ_set(b);
        }
    }

    /// Earliest non-empty bucket time in `(cur, cur + HORIZON)`, if any.
    ///
    /// A bucket position is `time & (HORIZON - 1)`, so within the window
    /// each set occupancy bit maps back to a unique time; the scan starts
    /// at `cur + 1`'s position and wraps. Callers ensure `cur`'s own
    /// bucket is empty, so revisiting its word on the wrapped pass cannot
    /// produce a false hit.
    fn next_near(&self) -> Option<u64> {
        const WORDS: usize = (HORIZON as usize) / 64;
        let base = ((self.cur + 1) & (HORIZON - 1)) as usize;
        let mut idx = base >> 6;
        let mut w = self.occ[idx] & (!0u64 << (base & 63));
        for _ in 0..=WORDS {
            if w != 0 {
                let pos = (idx << 6) | w.trailing_zeros() as usize;
                let off = (pos + HORIZON as usize - base) & (HORIZON as usize - 1);
                return Some(self.cur + 1 + off as u64);
            }
            idx = (idx + 1) % WORDS;
            w = self.occ[idx];
        }
        None
    }

    /// Advances to the earliest cycle with pending work and returns its
    /// time, or `None` when the calendar is empty. The returned cycle is
    /// the next *epoch*: drain it with [`SlotCalendar::take_at_cur`].
    /// Idempotent while the current cycle still has pending slots.
    pub fn advance(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.occ_test(self.bucket_of(self.cur)) {
            return Some(self.cur);
        }
        let far_min = self.far.peek().map(|&Reverse((t, _))| t);
        let next = match (self.next_near(), far_min) {
            (Some(tn), Some(tf)) => tn.min(tf),
            (Some(tn), None) => tn,
            (None, Some(tf)) => tf,
            // len > 0 guarantees a pending event somewhere.
            (None, None) => unreachable!("non-empty calendar with no event"),
        };
        // The jump keeps every surviving bucket valid: pending near times
        // lie in (old cur, old cur + HORIZON) ⊆ [next, next + HORIZON).
        self.cur = next;
        self.refill_near();
        Some(next)
    }

    /// Takes the smallest-id slot pending at the current cycle, or `None`
    /// once the cycle is drained. Scanning restarts at word 0 each call,
    /// so a same-cycle re-push (only ever the just-taken id, necessarily
    /// smaller than every id still pending) pops again before larger ids
    /// — the heap's exact tie order.
    #[inline]
    pub fn take_at_cur(&mut self) -> Option<u32> {
        let b = self.bucket_of(self.cur);
        if !self.occ_test(b) {
            return None;
        }
        let base = b * self.words;
        for w in 0..self.words {
            let m = self.masks[base + w];
            if m != 0 {
                let bit = m.trailing_zeros();
                self.masks[base + w] = m & (m - 1);
                self.len -= 1;
                if self.masks[base..base + self.words].iter().all(|&x| x == 0) {
                    self.occ_clear(b);
                }
                return Some(((w as u32) << 6) | bit);
            }
        }
        // occ bit set implies a non-zero mask word.
        unreachable!("occupied bucket with empty masks")
    }

    /// Time of the earliest pending event anywhere (current bucket, a
    /// later bucket, or the far heap), or `u64::MAX` when empty. This is
    /// the epoch driver's *conservative horizon*: a slot whose next event
    /// is strictly earlier than every other pending event can keep
    /// running solo without touching the calendar.
    #[inline]
    pub fn peek_time(&self) -> u64 {
        if self.len == 0 {
            return u64::MAX;
        }
        if self.occ_test(self.bucket_of(self.cur)) {
            return self.cur;
        }
        let far_min = self.far.peek().map_or(u64::MAX, |&Reverse((t, _))| t);
        self.next_near().map_or(far_min, |tn| tn.min(far_min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splitmix-style deterministic pseudo-random stream.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// One reference-order pop: advance to the next epoch, take its
    /// smallest id.
    fn pop(cal: &mut SlotCalendar) -> Option<(u64, u32)> {
        let t = cal.advance()?;
        let id = cal
            .take_at_cur()
            .expect("advance() returned an empty cycle");
        Some((t, id))
    }

    /// Lockstep harness mimicking real simulator traffic, where every
    /// slot id holds at most one pending event: seed one event per slot,
    /// then repeatedly pop from the calendar and the reference heap and
    /// re-push the popped id at a simulator-like delay (mostly zero or
    /// near-future, occasionally the 32-cycle idle retry or a far spill),
    /// retiring slots now and then, asserting identical pop sequences.
    fn lockstep_slot_traffic(seed: u64, num_slots: usize, ops: usize) {
        let mut r = rng(seed);
        let mut heap = BinaryHeap::new();
        let mut cal = SlotCalendar::new(num_slots);
        for id in 0..num_slots as u32 {
            heap.push(Reverse((0u64, id)));
            cal.push(0, id);
        }
        let mut processed = 0usize;
        while processed < ops {
            let a = heap.pop().map(|Reverse(e)| e);
            let b = pop(&mut cal);
            assert_eq!(a, b);
            assert_eq!(heap.len(), cal.event_count());
            let Some((t, id)) = a else { break };
            processed += 1;
            if r().is_multiple_of(97) {
                continue; // slot retires (Done)
            }
            let dt = match r() % 10 {
                0..=3 => 0,
                4..=6 => 1 + r() % 48,
                7 => 32,
                8 => 40,
                _ => {
                    if r().is_multiple_of(16) {
                        HORIZON + r() % 2000
                    } else {
                        r() % 8
                    }
                }
            };
            heap.push(Reverse((t + dt, id)));
            cal.push(t + dt, id);
        }
    }

    #[test]
    fn slot_calendar_matches_heap_on_slot_traffic() {
        for seed in 0..8 {
            lockstep_slot_traffic(30 + seed, 128, 20_000);
        }
    }

    #[test]
    fn slot_calendar_degenerate_and_wide_slot_counts() {
        lockstep_slot_traffic(99, 1, 2_000);
        lockstep_slot_traffic(100, 64, 10_000);
        lockstep_slot_traffic(101, 65, 10_000);
        lockstep_slot_traffic(102, 300, 20_000);
    }

    #[test]
    fn horizon_boundary_events_are_ordered() {
        let mut c = SlotCalendar::new(8);
        // One event exactly at the window edge, one just past it.
        c.push(0, 1);
        c.push(HORIZON - 1, 2);
        c.push(HORIZON, 3);
        c.push(HORIZON + 1, 4);
        assert_eq!(pop(&mut c), Some((0, 1)));
        assert_eq!(pop(&mut c), Some((HORIZON - 1, 2)));
        assert_eq!(pop(&mut c), Some((HORIZON, 3)));
        assert_eq!(pop(&mut c), Some((HORIZON + 1, 4)));
        assert_eq!(pop(&mut c), None);
    }

    #[test]
    fn slot_calendar_epoch_api_basics() {
        let mut c = SlotCalendar::new(128);
        assert_eq!(c.advance(), None);
        assert_eq!(c.peek_time(), u64::MAX);
        c.push(5, 70);
        c.push(5, 3);
        c.push(9, 1);
        assert_eq!(c.peek_time(), 5);
        assert_eq!(c.advance(), Some(5));
        // Draining yields ascending ids across mask words.
        assert_eq!(c.take_at_cur(), Some(3));
        // The horizon sees the still-pending (5, 70), not the taken slot.
        assert_eq!(c.peek_time(), 5);
        // A same-cycle re-push of the taken id pops again before id 70,
        // exactly as the heap orders the tie.
        c.push(5, 3);
        assert_eq!(c.take_at_cur(), Some(3));
        assert_eq!(c.take_at_cur(), Some(70));
        assert_eq!(c.take_at_cur(), None);
        assert_eq!(c.peek_time(), 9);
        assert_eq!(c.advance(), Some(9));
        assert_eq!(c.take_at_cur(), Some(1));
        assert_eq!(c.take_at_cur(), None);
        assert_eq!(c.advance(), None);
    }

    #[test]
    fn slot_calendar_far_events_migrate() {
        let mut c = SlotCalendar::new(8);
        c.push(0, 2);
        c.push(10 * HORIZON + 17, 5);
        assert_eq!(c.advance(), Some(0));
        assert_eq!(c.take_at_cur(), Some(2));
        assert_eq!(c.take_at_cur(), None);
        assert_eq!(c.peek_time(), 10 * HORIZON + 17);
        assert_eq!(c.advance(), Some(10 * HORIZON + 17));
        assert_eq!(c.take_at_cur(), Some(5));
        assert_eq!(c.event_count(), 0);
        assert_eq!(c.advance(), None);
    }
}
