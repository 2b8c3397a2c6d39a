//! The simulation driver: owns the clock, the event queue, and a user-defined
//! world, and dispatches events to the world until the queue drains or a
//! horizon is reached.

use std::time::Instant;

use crate::time::{SimDuration, SimTime};
use crate::wheel::{Scheduler, SchedulerKind};
use odx_telemetry::{Counter, FlightRecorder, Gauge, HandlerProfiler, Registry, SeriesRecorder};

/// Cached metric handles for an instrumented [`Simulation`].
struct SimTelemetry {
    registry: Registry,
    events: Counter,
    queue_depth: Gauge,
}

impl SimTelemetry {
    fn new(registry: Registry) -> SimTelemetry {
        SimTelemetry {
            events: registry.counter("sim.events"),
            queue_depth: registry.gauge("sim.queue_depth"),
            registry,
        }
    }
}

/// A simulated system. The world reacts to events and may schedule more via
/// the [`Ctx`] passed to [`World::handle`].
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// React to `event` firing at `ctx.now()`.
    fn handle(&mut self, ctx: &mut Ctx<Self::Event>, event: Self::Event);

    /// A static label describing `event`, recorded into an attached
    /// flight recorder before dispatch. Worlds that want meaningful
    /// flight dumps override this; the default keeps uninstrumented
    /// worlds zero-cost.
    fn event_label(&self, _event: &Self::Event) -> &'static str {
        "event"
    }

    /// Called by the engine at virtual time `at_ms` immediately before an
    /// attached [`SeriesRecorder`] takes a grid sample, and only then.
    /// Worlds that batch metric updates in plain local fields (the
    /// `HotMetrics` discipline) override this to drain them into the
    /// registry so sampled counters are current mid-run. The default
    /// no-op keeps unsampled worlds zero-cost.
    fn pre_sample(&mut self, _at_ms: u64) {}
}

/// Scheduling context handed to event handlers: the current time plus the
/// ability to schedule future events.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut Scheduler<E>,
}

impl<E> Ctx<'_, E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule an event `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Schedule an event at an absolute time. Times in the past are clamped
    /// to "now" (the event still fires, after currently pending events at
    /// `now`).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at.max(self.now), event);
    }
}

/// A lazily injected stream of externally scheduled events (arrival
/// chunks). [`Simulation::run_streamed`] pulls from the source just in
/// time, so a full-scale replay never holds its whole workload in the
/// future-event list at once.
pub trait ArrivalSource<E> {
    /// Earliest firing time of the next pending chunk, or `None` when the
    /// source is exhausted.
    fn peek(&mut self) -> Option<SimTime>;

    /// Schedule the next chunk into `sched`. Called only after [`peek`]
    /// returned `Some`. Implementations that must preserve same-timestamp
    /// tie-breaks against already-scheduled follow-ups should use
    /// [`Scheduler::reserve_seqs`] + [`Scheduler::schedule_with_seq`].
    ///
    /// [`peek`]: ArrivalSource::peek
    fn inject(&mut self, sched: &mut Scheduler<E>);
}

/// An attached series recorder plus its cached next-due time, so the hot
/// loop's due check is one comparison instead of a mutex round-trip.
struct SeriesState {
    recorder: SeriesRecorder,
    next_due_ms: u64,
}

/// The top-level driver combining a [`World`], a [`Scheduler`] and a clock.
pub struct Simulation<W: World> {
    world: W,
    queue: Scheduler<W::Event>,
    now: SimTime,
    processed: u64,
    /// Events already flushed into `sim.events` (batched-flush cursor).
    flushed: u64,
    telemetry: Option<SimTelemetry>,
    flight: Option<FlightRecorder>,
    series: Option<SeriesState>,
    prof: Option<HandlerProfiler>,
}

impl<W: World> Simulation<W> {
    /// Create a simulation at time zero with an empty agenda, on the
    /// default (timing-wheel) scheduler.
    pub fn new(world: W) -> Self {
        Self::with_scheduler(world, SchedulerKind::default(), 0)
    }

    /// Like [`Simulation::new`], but with the scheduler preallocated for
    /// `capacity` concurrently pending events. Replays that schedule their
    /// whole workload up front size this to the workload so the hot loop
    /// never reallocates.
    pub fn with_capacity(world: W, capacity: usize) -> Self {
        Self::with_scheduler(world, SchedulerKind::default(), capacity)
    }

    /// Create a simulation on an explicit scheduler implementation (the
    /// `sim.scheduler` scenario knob lands here). Both kinds produce
    /// byte-identical runs; they differ only in wall-clock cost.
    pub fn with_scheduler(world: W, kind: SchedulerKind, capacity: usize) -> Self {
        Simulation {
            world,
            queue: Scheduler::with_capacity(kind, capacity),
            now: SimTime::ZERO,
            processed: 0,
            flushed: 0,
            telemetry: None,
            flight: None,
            series: None,
            prof: None,
        }
    }

    /// Attach a telemetry registry. Each processed event bumps the
    /// `sim.events` counter, the `sim.queue_depth` gauge tracks pending
    /// events, and every `run_until` / `run_to_completion` call records
    /// a `sim.run` span stamped with virtual time.
    pub fn attach_telemetry(&mut self, registry: Registry) {
        self.telemetry = Some(SimTelemetry::new(registry));
    }

    /// Attach a flight recorder. Each processed event is recorded as
    /// `(virtual ms, World::event_label)` before dispatch, so anomaly
    /// dumps carry the causal event history leading up to them. Costs
    /// nothing when not attached (the hot loop checks one `Option`).
    pub fn attach_flight_recorder(&mut self, flight: FlightRecorder) {
        self.flight = Some(flight);
    }

    /// Attach a virtual-time series recorder. Before dispatching an event
    /// at time `t`, the run loops take one sample per due grid point
    /// strictly before `t`: engine tallies flush, [`World::pre_sample`]
    /// drains world-local batches, then the recorder reads every tracked
    /// metric. Sample values therefore depend only on the deterministic
    /// event order — never on wall time, worker count, or scheduler kind.
    /// The caller still owns `finish`: call
    /// [`SeriesRecorder::finish`] at the end-of-run clock after final
    /// flushes so the last sample equals the end-of-run snapshot.
    pub fn attach_series(&mut self, recorder: SeriesRecorder) {
        let next_due_ms = recorder.next_due_ms();
        self.series = Some(SeriesState { recorder, next_due_ms });
    }

    /// Attach an in-process wall profiler: every pop and handler dispatch
    /// is timed with `Instant` into per-event-kind buckets (plain local
    /// adds, flushed to the registry's wall section once per run). The
    /// disabled path costs one `Option` check per event.
    pub fn attach_profiler(&mut self) {
        self.prof = Some(HandlerProfiler::new());
    }

    /// The attached profiler's buckets, if profiling is on.
    pub fn profiler(&self) -> Option<&HandlerProfiler> {
        self.prof.as_ref()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consume the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Which scheduler implementation this simulation runs on.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.queue.kind()
    }

    /// Reserve sequence numbers `0..n` for the setup pass, so events
    /// injected later (e.g. by an [`ArrivalSource`]) with explicit
    /// sequence numbers below `n` keep winning same-timestamp ties
    /// against handler-scheduled follow-ups.
    pub fn reserve_seqs(&mut self, n: u64) {
        self.queue.reserve_seqs(n);
    }

    /// Schedule an event at an absolute time (setup entry point).
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        self.queue.schedule(at.max(self.now), event);
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Process a single event, if any. Returns whether an event fired.
    pub fn step(&mut self) -> bool {
        let fired = self.step_quiet();
        if fired {
            if let Some(telemetry) = &self.telemetry {
                telemetry.events.add(self.processed - self.flushed);
                telemetry.queue_depth.set(self.queue.len() as f64);
            }
            self.flushed = self.processed;
        }
        fired
    }

    /// [`step`] minus the per-event telemetry writes. The run loops call
    /// this and flush the tallies once at the end — snapshot-identical,
    /// since only the final counter total and the last gauge write are
    /// observable after a run, but the hot loop sheds two shared-handle
    /// atomics per event.
    ///
    /// [`step`]: Simulation::step
    fn step_quiet(&mut self) -> bool {
        if self.prof.is_some() {
            return self.step_profiled();
        }
        match self.queue.pop() {
            Some((time, event)) => {
                debug_assert!(time >= self.now, "event queue must be monotone");
                self.now = time;
                if let Some(flight) = &self.flight {
                    flight.record(time.as_millis(), self.world.event_label(&event));
                }
                let mut ctx = Ctx { now: self.now, queue: &mut self.queue };
                self.world.handle(&mut ctx, event);
                self.processed += 1;
                true
            }
            None => false,
        }
    }

    /// [`step_quiet`] with the attached profiler timing the pop and the
    /// handler dispatch (three `Instant::now` reads per event; buckets
    /// are plain local adds, flushed to the wall section per run).
    ///
    /// [`step_quiet`]: Simulation::step_quiet
    fn step_profiled(&mut self) -> bool {
        let before_pop = Instant::now();
        let popped = self.queue.pop();
        let after_pop = Instant::now();
        let prof = self.prof.as_mut().expect("step_profiled requires a profiler");
        prof.note_pop((after_pop - before_pop).as_secs_f64());
        match popped {
            Some((time, event)) => {
                debug_assert!(time >= self.now, "event queue must be monotone");
                self.now = time;
                let label = self.world.event_label(&event);
                if let Some(flight) = &self.flight {
                    flight.record(time.as_millis(), label);
                }
                let mut ctx = Ctx { now: self.now, queue: &mut self.queue };
                self.world.handle(&mut ctx, event);
                self.processed += 1;
                let after_handle = Instant::now();
                self.prof
                    .as_mut()
                    .expect("step_profiled requires a profiler")
                    .note_handler(label, (after_handle - after_pop).as_secs_f64());
                true
            }
            None => false,
        }
    }

    /// Take one series sample per due grid point strictly before
    /// `next_ms` (the next event's virtual time): flush the engine's
    /// batched tallies, let the world drain its own
    /// ([`World::pre_sample`]), then read every tracked metric.
    fn sample_due_before(&mut self, next_ms: u64) {
        loop {
            let due = match &self.series {
                Some(series) if series.next_due_ms < next_ms => series.next_due_ms,
                _ => return,
            };
            if let Some(telemetry) = &self.telemetry {
                if self.processed > self.flushed {
                    telemetry.events.add(self.processed - self.flushed);
                }
                telemetry.queue_depth.set(self.queue.len() as f64);
                self.flushed = self.processed;
            }
            self.world.pre_sample(due);
            let series = self.series.as_mut().expect("series checked above");
            series.next_due_ms = series.recorder.sample_due();
        }
    }

    /// Batch-apply the telemetry updates the quiet steps since the last
    /// flush would have made via [`step`] (no-op when nothing fired, so
    /// an idle run leaves the gauge untouched exactly like the per-event
    /// path).
    ///
    /// [`step`]: Simulation::step
    fn flush_run_telemetry(&mut self) {
        if self.processed > self.flushed {
            if let Some(telemetry) = &self.telemetry {
                telemetry.events.add(self.processed - self.flushed);
                telemetry.queue_depth.set(self.queue.len() as f64);
            }
            self.flushed = self.processed;
        }
        if let (Some(prof), Some(telemetry)) = (&self.prof, &self.telemetry) {
            prof.flush_walls(&telemetry.registry);
        }
    }

    /// Run until the queue is empty or `horizon` is passed. Events scheduled
    /// strictly after the horizon remain pending; the clock stops at the last
    /// fired event (or the horizon if nothing fires).
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let before = self.processed;
        let run_start = self.prof.as_ref().map(|_| Instant::now());
        let span = self
            .telemetry
            .as_ref()
            .map(|t| t.registry.tracer().open("sim.run", self.now.as_millis()));
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            if self.series.is_some() {
                self.sample_due_before(t.as_millis());
            }
            self.step_quiet();
        }
        if let (Some(start), Some(prof)) = (run_start, &mut self.prof) {
            prof.note_run(start.elapsed().as_secs_f64());
        }
        self.flush_run_telemetry();
        if let (Some(telemetry), Some(span)) = (&self.telemetry, span) {
            telemetry.registry.tracer().close("sim.run", span, self.now.as_millis());
        }
        self.processed - before
    }

    /// Run until no events remain. Returns the number of events processed.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Run to completion while lazily admitting externally scheduled
    /// events from `src`. A chunk is injected as soon as its earliest
    /// firing time is ≤ the queue's head (or the queue is empty), so no
    /// event at or past a chunk's start can fire before the chunk is in
    /// the queue — the pop order is identical to scheduling everything up
    /// front, but the future-event list only ever holds one chunk's worth
    /// of arrivals plus in-flight follow-ups. Records the same single
    /// `sim.run` span as [`run_until`].
    ///
    /// [`run_until`]: Simulation::run_until
    pub fn run_streamed(&mut self, src: &mut impl ArrivalSource<W::Event>) -> u64 {
        let before = self.processed;
        let run_start = self.prof.as_ref().map(|_| Instant::now());
        let span = self
            .telemetry
            .as_ref()
            .map(|t| t.registry.tracer().open("sim.run", self.now.as_millis()));
        loop {
            while let Some(t) = src.peek() {
                if self.queue.peek_time().map_or(true, |head| t <= head) {
                    src.inject(&mut self.queue);
                } else {
                    break;
                }
            }
            // Sample after injection settles: remaining chunks start at
            // or after the head, so every due grid point < head is final.
            if self.series.is_some() {
                if let Some(head) = self.queue.peek_time() {
                    self.sample_due_before(head.as_millis());
                }
            }
            if !self.step_quiet() {
                break;
            }
        }
        if let (Some(start), Some(prof)) = (run_start, &mut self.prof) {
            prof.note_run(start.elapsed().as_secs_f64());
        }
        self.flush_run_telemetry();
        if let (Some(telemetry), Some(span)) = (&self.telemetry, span) {
            telemetry.registry.tracer().close("sim.run", span, self.now.as_millis());
        }
        self.processed - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        log: Vec<(u64, &'static str)>,
    }

    enum Ev {
        Mark(&'static str),
        Chain(&'static str, u64),
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
            match ev {
                Ev::Mark(name) => self.log.push((ctx.now().as_millis(), name)),
                Ev::Chain(name, more) => {
                    self.log.push((ctx.now().as_millis(), name));
                    if more > 0 {
                        ctx.schedule_in(SimDuration::from_millis(10), Ev::Chain(name, more - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn events_fire_in_order_and_advance_clock() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::from_millis(20), Ev::Mark("b"));
        sim.schedule_at(SimTime::from_millis(10), Ev::Mark("a"));
        let n = sim.run_to_completion();
        assert_eq!(n, 2);
        assert_eq!(sim.world().log, vec![(10, "a"), (20, "b")]);
        assert_eq!(sim.now(), SimTime::from_millis(20));
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::ZERO, Ev::Chain("x", 3));
        sim.run_to_completion();
        assert_eq!(sim.world().log.len(), 4);
        assert_eq!(sim.world().log.last(), Some(&(30, "x")));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::from_millis(5), Ev::Mark("in"));
        sim.schedule_at(SimTime::from_millis(500), Ev::Mark("out"));
        let n = sim.run_until(SimTime::from_millis(100));
        assert_eq!(n, 1);
        assert_eq!(sim.world().log, vec![(5, "in")]);
        // The out-of-horizon event is still pending.
        let n = sim.run_to_completion();
        assert_eq!(n, 1);
        assert_eq!(sim.world().log.len(), 2);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::from_millis(50), Ev::Mark("first"));
        sim.run_to_completion();
        sim.schedule_at(SimTime::from_millis(1), Ev::Mark("late"));
        sim.run_to_completion();
        assert_eq!(sim.world().log, vec![(50, "first"), (50, "late")]);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulation::new(Recorder::default());
            for i in 0..50 {
                sim.schedule_at(SimTime::from_millis(i % 7), Ev::Chain("c", i % 3));
            }
            sim.run_to_completion();
            sim.into_world().log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flight_recorder_sees_every_event_with_labels() {
        struct Labeled(Recorder);
        impl World for Labeled {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
                self.0.handle(ctx, ev)
            }
            fn event_label(&self, event: &Ev) -> &'static str {
                match event {
                    Ev::Mark(_) => "mark",
                    Ev::Chain(..) => "chain",
                }
            }
        }
        let flight = FlightRecorder::new(8, 4);
        let mut sim = Simulation::new(Labeled(Recorder::default()));
        sim.attach_flight_recorder(flight.clone());
        sim.schedule_at(SimTime::from_millis(10), Ev::Mark("a"));
        sim.schedule_at(SimTime::from_millis(20), Ev::Chain("c", 1));
        sim.run_to_completion();
        flight.dump(0, "failure", sim.now().as_millis());
        let snap = flight.snapshot();
        assert_eq!(snap.recorded, 3);
        let labels: Vec<&str> = snap.dumps[0].recent.iter().map(|e| e.label).collect();
        assert_eq!(labels, vec!["mark", "chain", "chain"]);
    }

    #[test]
    fn wheel_scheduler_replays_identically() {
        let run = |kind| {
            let mut sim = Simulation::with_scheduler(Recorder::default(), kind, 64);
            for i in 0..50 {
                sim.schedule_at(SimTime::from_millis(i % 7), Ev::Chain("c", i % 3));
            }
            sim.run_to_completion();
            (sim.now(), sim.processed(), sim.into_world().log)
        };
        assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Wheel));
    }

    struct Chunks {
        chunks: Vec<Vec<(u64, u64)>>, // (at ms, reserved seq)
        next: usize,
    }

    impl ArrivalSource<Ev> for Chunks {
        fn peek(&mut self) -> Option<SimTime> {
            self.chunks.get(self.next).map(|c| SimTime::from_millis(c[0].0))
        }
        fn inject(&mut self, sched: &mut Scheduler<Ev>) {
            for &(at, seq) in &self.chunks[self.next] {
                sched.schedule_with_seq(SimTime::from_millis(at), seq, Ev::Chain("s", 2));
            }
            self.next += 1;
        }
    }

    #[test]
    fn run_streamed_matches_eager_scheduling_byte_for_byte() {
        let arrivals: Vec<u64> = (0..40).map(|i| (i * 13) % 200).collect();
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let eager = {
            let mut sim = Simulation::new(Recorder::default());
            sim.reserve_seqs(sorted.len() as u64);
            for (i, &at) in sorted.iter().enumerate() {
                sim.queue.schedule_with_seq(SimTime::from_millis(at), i as u64, Ev::Chain("s", 2));
            }
            sim.run_to_completion();
            (sim.now(), sim.processed(), sim.into_world().log)
        };
        for kind in SchedulerKind::ALL {
            let registry = odx_telemetry::Registry::new();
            let mut sim = Simulation::with_scheduler(Recorder::default(), kind, 8);
            sim.attach_telemetry(registry.clone());
            sim.reserve_seqs(sorted.len() as u64);
            let chunks: Vec<Vec<(u64, u64)>> = sorted
                .chunks(7)
                .enumerate()
                .map(|(c, chunk)| {
                    chunk.iter().enumerate().map(|(j, &at)| (at, (c * 7 + j) as u64)).collect()
                })
                .collect();
            let mut src = Chunks { chunks, next: 0 };
            let n = sim.run_streamed(&mut src);
            assert_eq!(n, eager.1, "{kind}");
            assert_eq!((sim.now(), sim.processed(), sim.into_world().log), eager, "{kind}");
            // Exactly one sim.run span, same as run_until.
            let snap = registry.snapshot();
            assert_eq!(snap.trace.events.len(), 2, "{kind}");
            assert_eq!(snap.counters["sim.events"], eager.1, "{kind}");
        }
    }

    #[test]
    fn series_samples_on_the_virtual_grid_before_events() {
        let run = |kind| {
            let registry = odx_telemetry::Registry::new();
            let series = odx_telemetry::SeriesRecorder::new(25);
            series.track_counter("sim.events", registry.counter("sim.events"));
            series.track_gauge("sim.queue_depth", registry.gauge("sim.queue_depth"));
            let mut sim = Simulation::with_scheduler(Recorder::default(), kind, 16);
            sim.attach_telemetry(registry.clone());
            sim.attach_series(series.clone());
            for at in [10u64, 30, 60, 100] {
                sim.schedule_at(SimTime::from_millis(at), Ev::Mark("m"));
            }
            sim.run_to_completion();
            series.finish(sim.now().as_millis());
            (series.snapshot().to_json(), series.snapshot().to_csv())
        };
        let (json, csv) = run(SchedulerKind::Heap);
        // Grid points 25, 50, 75 are each due strictly before a later
        // event fires; the final sample lands at the end-of-run clock.
        assert!(json.contains("\"times\":[25,50,75,100]"), "{json}");
        // Counter deltas: 1 event (t=10) by t=25, 1 more (t=30) by t=50,
        // 1 (t=60) by 75, and the final event at t=100 in the last row.
        assert!(json.contains("\"sim.events\":{\"kind\":\"counter_delta\",\"values\":[1,1,1,1]}"));
        // Identical bytes on the timing-wheel scheduler.
        assert_eq!((json, csv), run(SchedulerKind::Wheel));
    }

    #[test]
    fn pre_sample_runs_once_per_grid_point_with_due_times() {
        #[derive(Default)]
        struct Sampled {
            inner: Recorder,
            pre_samples: Vec<u64>,
        }
        impl World for Sampled {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
                self.inner.handle(ctx, ev)
            }
            fn pre_sample(&mut self, at_ms: u64) {
                self.pre_samples.push(at_ms);
            }
        }
        let series = odx_telemetry::SeriesRecorder::new(40);
        let mut sim = Simulation::new(Sampled::default());
        sim.attach_series(series);
        sim.schedule_at(SimTime::from_millis(5), Ev::Mark("a"));
        sim.schedule_at(SimTime::from_millis(130), Ev::Mark("b"));
        sim.run_to_completion();
        // Due points 40, 80, 120 all precede the event at 130; the event
        // at 5 precedes every grid point, and no sample fires at/after
        // the last event without an explicit finish().
        assert_eq!(sim.world().pre_samples, vec![40, 80, 120]);
    }

    #[test]
    fn profiler_buckets_every_event_by_label() {
        struct Labeled(Recorder);
        impl World for Labeled {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
                self.0.handle(ctx, ev)
            }
            fn event_label(&self, event: &Ev) -> &'static str {
                match event {
                    Ev::Mark(_) => "mark",
                    Ev::Chain(..) => "chain",
                }
            }
        }
        let registry = odx_telemetry::Registry::new();
        let mut sim = Simulation::new(Labeled(Recorder::default()));
        sim.attach_telemetry(registry.clone());
        sim.attach_profiler();
        sim.schedule_at(SimTime::from_millis(1), Ev::Mark("a"));
        sim.schedule_at(SimTime::from_millis(2), Ev::Chain("c", 2));
        sim.run_to_completion();
        let prof = sim.profiler().expect("profiler attached");
        assert_eq!(prof.events(), 4);
        assert!(prof.run_secs() > 0.0);
        // Buckets flushed into the wall section; deterministic exports
        // stay clean of them.
        assert_eq!(registry.wall("prof.handler.mark.events"), Some(1.0));
        assert_eq!(registry.wall("prof.handler.chain.events"), Some(3.0));
        assert!(registry.wall("prof.sched.pops").unwrap() >= 4.0);
        assert!(registry.wall("prof.run_secs").is_some());
        let snap = registry.snapshot();
        assert_eq!(snap.counters["sim.events"], 4);
        assert!(!snap.to_json().contains("prof."));
    }

    #[test]
    fn telemetry_hooks_record_events_and_spans() {
        let registry = odx_telemetry::Registry::new();
        let mut sim = Simulation::new(Recorder::default());
        sim.attach_telemetry(registry.clone());
        sim.schedule_at(SimTime::from_millis(10), Ev::Mark("a"));
        sim.schedule_at(SimTime::from_millis(20), Ev::Mark("b"));
        sim.run_to_completion();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["sim.events"], 2);
        assert_eq!(snap.gauges["sim.queue_depth"], 0.0);
        // One sim.run span, opened at t=0 and closed at the clock's
        // final virtual time.
        let events = &snap.trace.events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "sim.run");
        assert_eq!(events[0].kind, odx_telemetry::SpanKind::Open);
        assert_eq!(events[0].at_ms, 0);
        assert_eq!(events[1].kind, odx_telemetry::SpanKind::Close);
        assert_eq!(events[1].at_ms, 20);
    }
}
