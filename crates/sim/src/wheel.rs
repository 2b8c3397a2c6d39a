//! A deterministic hierarchical timing wheel, interchangeable with the
//! binary-heap [`EventQueue`], and the default scheduler.
//!
//! The wheel replaces the heap's O(log n) sift with O(1) bucket pushes:
//! five levels of power-of-two buckets cover ~49.7 days of millisecond
//! ticks (level 0: 256 × 1 ms, then four levels of 64 slots each spanning
//! 2^14, 2^20, 2^26 and 2^32 ms), and anything beyond the horizon parks in
//! an overflow list that is re-dealt into the wheel when the cursor gets
//! there. A full-week replay (≈ 6.05 × 10^8 ms) fits entirely inside the
//! wheel, so the overflow never fires on the paper's workload.
//!
//! **Determinism.** The wheel reproduces the heap's exact `(time, seq)`
//! total order. Every entry in a level-0 bucket shares one absolute
//! millisecond (the bucket *is* that millisecond within the current
//! 256 ms window), so draining a bucket and sorting its entries by
//! sequence number yields precisely the heap's same-timestamp tie-break —
//! scheduling order. Buckets drain in increasing time because the cursor
//! only moves forward (higher levels cascade downward before their window
//! is reached), and the rare backward jump — scheduling an event earlier
//! than the cursor, legal on the raw queue API — is handled by re-dealing
//! the wheel's whole contents against the new floor, preserving order at
//! a cost proportional to the pending-event count.
//!
//! **Payloads** live in a plain free-list slab next to the buckets, so a
//! bucket entry stays a 24-byte `Copy` record (time, sequence, slot) that
//! cascades and sorts cheaply. Every entry is live — nothing is ever
//! cancelled — so draining a bucket needs no filtering.
//!
//! **Memory.** Each bucket keeps the capacity of its fullest lap after it
//! drains, so a lap reuses its buffers instead of reallocating. The price
//! is retained capacity: on the paper-default week at scale 0.05 (seed 1)
//! the buckets end up holding 338 524 entry slots (8.1 MB) for at most
//! 67 000 live events, which is why peak RSS on the week benchmarks sits
//! ~8 % above what it was with the slab heap as the default.

use crate::event::EventQueue;
use crate::time::SimTime;

/// Number of wheel levels (excluding the overflow list).
const LEVELS: usize = 5;
/// Bit position of each level's least-significant slot bit.
const SHIFT: [u32; LEVELS + 1] = [0, 8, 14, 20, 26, 32];
/// Slots per level (level 0 has 256, the rest 64).
const SLOTS: [usize; LEVELS] = [256, 64, 64, 64, 64];
/// Slot-index mask per level.
const MASK: [u64; LEVELS] = [255, 63, 63, 63, 63];

/// `LEVEL_OF[(t ^ cur).leading_zeros()]`: the level that holds a time whose
/// highest disagreement with the cursor is at that bit (`None` = beyond the
/// wheel horizon, park in overflow). `leading_zeros == 64` means `t == cur`,
/// which lives at level 0.
const LEVEL_OF: [Option<usize>; 65] = {
    let mut table = [None; 65];
    let mut lz = 0;
    while lz <= 64 {
        if lz == 64 {
            table[lz] = Some(0);
        } else {
            let h = 63 - lz as u32;
            let mut level = 0;
            while level < LEVELS {
                if h < SHIFT[level + 1] {
                    table[lz] = Some(level);
                    break;
                }
                level += 1;
            }
        }
        lz += 1;
    }
    table
};

/// What wheel buckets store: the ordering key plus the slab slot holding
/// the payload.
#[derive(Debug, Clone, Copy)]
struct WheelEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

// Cascades move and sort these by value; keep them at 24 bytes.
const _: () = assert!(std::mem::size_of::<WheelEntry>() == 24);

/// A deterministic future-event list with O(1) schedule and amortised
/// O(1) pop.
///
/// Mirrors the [`EventQueue`] API — `schedule`, `reserve_seqs`,
/// `schedule_with_seq`, `pop`, `peek_time`, `len` — and produces the
/// identical pop sequence for any interleaving of those calls
/// (property-tested in lockstep against the heap in this module).
pub struct TimingWheel<E> {
    /// `buckets[level][slot]` — pending entries.
    buckets: Vec<Vec<Vec<WheelEntry>>>,
    /// Occupancy bitmaps: level 0 uses four words, levels 1–4 one each.
    /// A set bit marks a non-empty bucket.
    occ: Vec<Vec<u64>>,
    /// Entries beyond the wheel horizon (≥ 2^32 ms past the cursor).
    overflow: Vec<WheelEntry>,
    /// Scan cursor in absolute ms: every bucket before it has drained.
    cur: u64,
    /// The drained bucket currently being popped, sorted by `seq`; all
    /// entries share the absolute time `cur` while `ready_loaded`.
    ready: Vec<WheelEntry>,
    ready_pos: usize,
    /// Whether `ready`/`cur` name a drained bucket (so same-time inserts
    /// go straight into `ready`, keeping it seq-sorted).
    ready_loaded: bool,
    /// Payload slab: `Some` while the event is pending.
    slots: Vec<Option<E>>,
    /// Vacant slab slots, reused before the slab grows.
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty wheel whose payload slab is preallocated for `capacity`
    /// concurrently pending events. Buckets grow lazily — they hold only
    /// what lands in their window, so no per-bucket preallocation is
    /// needed.
    pub fn with_capacity(capacity: usize) -> Self {
        TimingWheel {
            buckets: SLOTS.iter().map(|&n| vec![Vec::new(); n]).collect(),
            occ: SLOTS.iter().map(|&n| vec![0u64; n.div_ceil(64)]).collect(),
            overflow: Vec::new(),
            cur: 0,
            ready: Vec::new(),
            ready_pos: 0,
            ready_loaded: false,
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedule `payload` to fire at `time`. Events scheduled for the same
    /// instant fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_with_seq(time, seq, payload);
    }

    /// Reserve sequence numbers `0..n` (see [`EventQueue::reserve_seqs`]).
    pub fn reserve_seqs(&mut self, n: u64) {
        self.next_seq = self.next_seq.max(n);
    }

    /// Schedule with an explicit, caller-reserved sequence number (see
    /// [`EventQueue::schedule_with_seq`]).
    pub fn schedule_with_seq(&mut self, time: SimTime, seq: u64, payload: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event slab full");
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        self.place(WheelEntry { time, seq, slot });
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.ready_pos == self.ready.len() && !self.advance() {
            return None;
        }
        let entry = self.ready[self.ready_pos];
        self.ready_pos += 1;
        let payload = self.slots[entry.slot as usize].take().expect("wheel entry has a payload");
        self.free.push(entry.slot);
        self.live -= 1;
        Some((entry.time, payload))
    }

    /// The firing time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.ready_pos == self.ready.len() && !self.advance() {
            return None;
        }
        Some(self.ready[self.ready_pos].time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Route `entry` to its bucket. A level holds the entry iff the
    /// entry's time agrees with the cursor on every digit above that
    /// level; past-cursor times trigger a full re-deal against the new
    /// floor (legal on the raw queue API, never taken by the engine's
    /// monotone replay loop except at streamed chunk boundaries).
    fn place(&mut self, entry: WheelEntry) {
        let t = entry.time.as_millis();
        if t < self.cur {
            self.rewind(t);
        }
        if self.ready_loaded && t == self.cur {
            // Same instant as the bucket being drained: keep `ready`
            // seq-sorted past the pop cursor (reserved seqs may be lower
            // than already-queued ones, never lower than popped ones).
            let at = self.ready[self.ready_pos..].partition_point(|e| e.seq < entry.seq)
                + self.ready_pos;
            self.ready.insert(at, entry);
            return;
        }
        // The level is a function of the highest bit where `t` and the
        // cursor disagree: level 0 holds times agreeing above bit 8, level
        // 1 above bit 14, … (one lookup instead of a compare ladder — this
        // runs once per placement and 2–3 times per event via cascades).
        match LEVEL_OF[(t ^ self.cur).leading_zeros() as usize] {
            Some(level) => {
                let slot = ((t >> SHIFT[level]) & MASK[level]) as usize;
                self.buckets[level][slot].push(entry);
                self.occ[level][slot / 64] |= 1 << (slot % 64);
            }
            None => self.overflow.push(entry),
        }
    }

    /// Move the cursor to the next non-empty bucket and load it into
    /// `ready` (the seq-sorted entries of one absolute millisecond).
    /// Returns `false` when no events are pending.
    fn advance(&mut self) -> bool {
        if self.live == 0 {
            return false;
        }
        'outer: loop {
            // Level 0: the next occupied millisecond of the current
            // 256 ms window is the next bucket to drain.
            let from = ((self.cur & MASK[0]) as usize) + usize::from(self.ready_loaded);
            if let Some(slot) = self.next_occupied(0, from) {
                let time = (self.cur & !MASK[0]) | slot as u64;
                self.occ[0][slot / 64] &= !(1 << (slot % 64));
                self.ready.clear();
                self.ready.extend_from_slice(&self.buckets[0][slot]);
                self.buckets[0][slot].clear();
                debug_assert!(self.ready.iter().all(|e| e.time.as_millis() == time));
                self.ready.sort_unstable_by_key(|e| e.seq);
                self.ready_pos = 0;
                self.cur = time;
                self.ready_loaded = true;
                return true;
            }
            // Window exhausted: cascade the next occupied slot of the
            // lowest level that has one down into the levels below it.
            for level in 1..LEVELS {
                let digit = ((self.cur >> SHIFT[level]) & MASK[level]) as usize;
                let Some(slot) = self.next_occupied(level, digit + 1) else { continue };
                self.occ[level][slot / 64] &= !(1 << (slot % 64));
                // Jump the cursor to the slot's window start, then re-deal
                // its entries into the levels below. Every entry lands
                // strictly below `level` (its digit at `level` now matches
                // the cursor's), so draining the owned buffer and handing
                // it back afterwards is safe and keeps its capacity for
                // the next lap.
                let mut bucket = std::mem::take(&mut self.buckets[level][slot]);
                self.cur = (self.cur >> SHIFT[level + 1] << SHIFT[level + 1])
                    | ((slot as u64) << SHIFT[level]);
                self.ready_loaded = false;
                for e in bucket.drain(..) {
                    self.place(e);
                }
                self.buckets[level][slot] = bucket;
                continue 'outer;
            }
            // Whole wheel empty: re-deal the overflow against its minimum.
            let min = self
                .overflow
                .iter()
                .map(|e| e.time.as_millis())
                .min()
                .expect("pending events are in the wheel or its overflow");
            self.cur = min;
            self.ready_loaded = false;
            for e in std::mem::take(&mut self.overflow) {
                self.place(e);
            }
        }
    }

    /// First occupied slot index `>= from` at `level`, if any.
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        if from >= SLOTS[level] {
            return None;
        }
        let words = &self.occ[level];
        let mut word_idx = from / 64;
        let mut word = words[word_idx] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(word_idx * 64 + word.trailing_zeros() as usize);
            }
            word_idx += 1;
            if word_idx >= words.len() {
                return None;
            }
            word = words[word_idx];
        }
    }

    /// Schedule an event earlier than the cursor: pull everything out and
    /// re-deal it against the new floor. O(pending), and rare — the
    /// engine's replay loop only triggers it when a streamed arrival chunk
    /// starts before the already-drained bucket.
    fn rewind(&mut self, floor: u64) {
        let mut pending: Vec<WheelEntry> = Vec::with_capacity(self.live);
        pending.extend_from_slice(&self.ready[self.ready_pos..]);
        self.ready.clear();
        self.ready_pos = 0;
        self.ready_loaded = false;
        for (level, buckets) in self.buckets.iter_mut().enumerate() {
            for (word_idx, word) in self.occ[level].iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    pending.append(&mut buckets[word_idx * 64 + bits.trailing_zeros() as usize]);
                    bits &= bits - 1;
                }
            }
        }
        pending.append(&mut self.overflow);
        self.cur = floor;
        for e in pending {
            self.place(e);
        }
    }
}

/// Which future-event list a simulation runs on.
///
/// Selectable end to end via the scenario spec path `sim.scheduler`
/// (`--set sim.scheduler=heap`); both produce byte-identical replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// The binary heap ([`EventQueue`]): O(log n) schedule/pop. Kept as
    /// the reference the wheel is checked against.
    Heap,
    /// The hierarchical timing wheel ([`TimingWheel`]): O(1) schedule,
    /// amortised O(1) pop. The default.
    #[default]
    Wheel,
}

impl SchedulerKind {
    /// Every scheduler, in canonical order.
    pub const ALL: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Wheel];

    /// The spec-vocabulary name (`heap` / `wheel`).
    pub const fn name(self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Wheel => "wheel",
        }
    }

    /// Parse a spec-vocabulary name.
    pub fn parse(name: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The small abstraction the engine runs on: either future-event list
/// behind one enum, so `EventQueue` and `TimingWheel` are interchangeable
/// without making every `World` generic over the scheduler.
pub enum Scheduler<E> {
    /// Binary heap.
    Heap(EventQueue<E>),
    /// Hierarchical timing wheel.
    Wheel(TimingWheel<E>),
}

impl<E> Scheduler<E> {
    /// An empty scheduler of the given kind.
    pub fn new(kind: SchedulerKind) -> Self {
        Self::with_capacity(kind, 0)
    }

    /// An empty scheduler preallocated for `capacity` pending events.
    pub fn with_capacity(kind: SchedulerKind, capacity: usize) -> Self {
        match kind {
            SchedulerKind::Heap => Scheduler::Heap(EventQueue::with_capacity(capacity)),
            SchedulerKind::Wheel => Scheduler::Wheel(TimingWheel::with_capacity(capacity)),
        }
    }

    /// Which implementation this is.
    pub fn kind(&self) -> SchedulerKind {
        match self {
            Scheduler::Heap(_) => SchedulerKind::Heap,
            Scheduler::Wheel(_) => SchedulerKind::Wheel,
        }
    }

    /// See [`EventQueue::schedule`].
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        match self {
            Scheduler::Heap(q) => q.schedule(time, payload),
            Scheduler::Wheel(w) => w.schedule(time, payload),
        }
    }

    /// See [`EventQueue::reserve_seqs`].
    pub fn reserve_seqs(&mut self, n: u64) {
        match self {
            Scheduler::Heap(q) => q.reserve_seqs(n),
            Scheduler::Wheel(w) => w.reserve_seqs(n),
        }
    }

    /// See [`EventQueue::schedule_with_seq`].
    pub fn schedule_with_seq(&mut self, time: SimTime, seq: u64, payload: E) {
        match self {
            Scheduler::Heap(q) => q.schedule_with_seq(time, seq, payload),
            Scheduler::Wheel(w) => w.schedule_with_seq(time, seq, payload),
        }
    }

    /// See [`EventQueue::pop`].
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            Scheduler::Heap(q) => q.pop(),
            Scheduler::Wheel(w) => w.pop(),
        }
    }

    /// See [`EventQueue::peek_time`].
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            Scheduler::Heap(q) => q.peek_time(),
            Scheduler::Wheel(w) => w.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match self {
            Scheduler::Heap(q) => q.len(),
            Scheduler::Wheel(w) => w.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = TimingWheel::new();
        // One entry per level, plus one past the horizon (overflow).
        let times = [5u64, 300, 20_000, 2_000_000, 80_000_000, 5_000_000_000, 1 << 40];
        for (i, &ms) in times.iter().enumerate() {
            w.schedule(t(ms), i);
        }
        let mut sorted = times;
        sorted.sort_unstable();
        for &ms in &sorted {
            let (at, _) = w.pop().expect("entry");
            assert_eq!(at, t(ms));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut w = TimingWheel::new();
        for i in 0..100 {
            w.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(w.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn payload_slots_are_reused_after_pop() {
        let mut w = TimingWheel::new();
        for round in 0..50u64 {
            w.schedule(t(round), round);
            w.schedule(t(round), round + 1000);
            assert_eq!(w.pop(), Some((t(round), round)));
            assert_eq!(w.pop(), Some((t(round), round + 1000)));
        }
        assert!(w.is_empty());
        assert!(w.slots.len() <= 2, "slab must recycle slots, got {}", w.slots.len());
    }

    #[test]
    fn schedule_before_cursor_rewinds() {
        let mut w = TimingWheel::new();
        w.schedule(t(10), 1);
        assert_eq!(w.pop(), Some((t(10), 1)));
        w.schedule(t(5), 2); // earlier than the already-popped event is fine
        w.schedule(t(6), 3);
        w.schedule(t(400), 4); // different level after the rewind
        assert_eq!(w.pop(), Some((t(5), 2)));
        assert_eq!(w.pop(), Some((t(6), 3)));
        assert_eq!(w.pop(), Some((t(400), 4)));
    }

    #[test]
    fn peek_then_earlier_schedule_still_pops_in_order() {
        // peek_time advances the cursor; a subsequent earlier schedule
        // must still fire first (the chunk-boundary case).
        let mut w = TimingWheel::new();
        w.schedule(t(1000), "late");
        assert_eq!(w.peek_time(), Some(t(1000)));
        w.schedule(t(7), "early");
        assert_eq!(w.peek_time(), Some(t(7)));
        assert_eq!(w.pop(), Some((t(7), "early")));
        assert_eq!(w.pop(), Some((t(1000), "late")));
    }

    #[test]
    fn reserved_seqs_win_same_timestamp_ties_even_when_injected_late() {
        // Mirrors streamed arrival admission: follow-ups drawn from the
        // reserved-range top must lose ties against arrivals injected
        // later with lower reserved seqs.
        for kind in SchedulerKind::ALL {
            let mut s: Scheduler<&str> = Scheduler::new(kind);
            s.reserve_seqs(10);
            s.schedule(t(500), "follow-up"); // seq 10
            s.schedule_with_seq(t(500), 3, "arrival");
            assert_eq!(s.pop(), Some((t(500), "arrival")), "{kind}");
            assert_eq!(s.pop(), Some((t(500), "follow-up")), "{kind}");
        }
    }

    /// Drive both schedulers through one interleaved op script and assert
    /// identical pop sequences and identical `len()` throughout.
    fn lockstep(ops: &[Op]) {
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        // Like streamed arrival admission: seqs `0..injects` are reserved
        // up front and handed out in order by the `Inject` ops, while
        // plain schedules draw from above the reserved range — so a late
        // inject wins same-millisecond ties against earlier follow-ups.
        let injects = ops.iter().filter(|op| matches!(op, Op::Inject(_))).count() as u64;
        heap.reserve_seqs(injects);
        wheel.reserve_seqs(injects);
        let mut next_reserved = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Schedule(ms) => {
                    heap.schedule(t(ms), i as u64);
                    wheel.schedule(t(ms), i as u64);
                }
                Op::Inject(ms) => {
                    heap.schedule_with_seq(t(ms), next_reserved, i as u64);
                    wheel.schedule_with_seq(t(ms), next_reserved, i as u64);
                    next_reserved += 1;
                }
                Op::Pop => {
                    assert_eq!(heap.pop(), wheel.pop());
                }
                Op::Peek => {
                    assert_eq!(heap.peek_time(), wheel.peek_time());
                }
            }
            assert_eq!(heap.len(), wheel.len());
        }
        loop {
            let (a, b) = (heap.pop(), wheel.pop());
            assert_eq!(a, b);
            assert_eq!(heap.len(), wheel.len());
            if a.is_none() {
                break;
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Schedule(u64),
        /// `schedule_with_seq` with the next reserved sequence number.
        Inject(u64),
        Pop,
        Peek,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Weighted by arm duplication (the vendored proptest's
        // `prop_oneof!` is unweighted). Time span crosses several wheel
        // levels; the small modulus forces same-timestamp bursts.
        prop_oneof![
            (0u64..3_000_000).prop_map(Op::Schedule),
            (0u64..3_000_000).prop_map(Op::Schedule),
            (0u64..64).prop_map(|ms| Op::Schedule(ms % 7)),
            (0u64..3_000_000).prop_map(Op::Inject),
            (0u64..64).prop_map(|ms| Op::Inject(ms % 7)),
            Just(Op::Pop),
            Just(Op::Peek),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random schedule/inject/pop/peek interleavings (late reserved
        /// seqs and same-timestamp bursts included) produce identical pop
        /// sequences and identical `len()` on both schedulers.
        #[test]
        fn wheel_matches_heap_on_random_interleavings(
            ops in proptest::collection::vec(op_strategy(), 1..400),
        ) {
            lockstep(&ops);
        }

        /// Far-future times exercise the overflow list and its re-deal.
        #[test]
        fn wheel_matches_heap_across_the_overflow_horizon(
            ops in proptest::collection::vec(
                prop_oneof![
                    (0u64..10_000).prop_map(Op::Schedule),
                    ((1u64 << 31)..(1 << 34)).prop_map(Op::Schedule),
                    ((1u64 << 31)..(1 << 34)).prop_map(Op::Inject),
                    Just(Op::Pop),
                ],
                1..200,
            ),
        ) {
            lockstep(&ops);
        }
    }

    #[test]
    fn wheel_matches_heap_under_heavy_churn() {
        // Monotone schedule/pop churn past the last fired time, as the
        // engine drives it: three pops per four schedules, with deltas
        // spanning every wheel level, then a full drain.
        let mut heap = EventQueue::new();
        let mut wheel = TimingWheel::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut now = 0u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let at = t(now + (x >> 33) % 1_000_000);
            heap.schedule(at, i);
            wheel.schedule(at, i);
            if i % 4 != 0 {
                let (a, b) = (heap.pop(), wheel.pop());
                assert_eq!(a, b);
                now = a.map_or(now, |(at, _)| at.as_millis());
            }
        }
        assert_eq!(heap.len(), wheel.len());
        loop {
            let (a, b) = (heap.pop(), wheel.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn scheduler_kind_vocabulary_round_trips() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(SchedulerKind::parse("fifo"), None);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Wheel);
    }
}
