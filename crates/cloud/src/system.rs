//! Event-driven replay of the measurement week on the Xuanfeng model.
//!
//! Drives the full pipeline of Figure 1 for every request in a workload:
//! arrival → cache lookup → (pre-download | instant hit) → fetch admission →
//! fetch completion, producing the per-request pre-downloading and fetching
//! traces plus the 5-minute upload-burden series of Figure 11.

use odx_faults::{FaultDomain, FaultKind, FaultPlan, FaultWindow, RetryPolicy};
use odx_net::{Isp, HD_THRESHOLD_KBPS};
use odx_p2p::FailureCause;
use odx_sim::{
    ArrivalSource, Ctx, RngFactory, Scheduler, SimDuration, SimRng, SimTime, Simulation, World,
};
use odx_stats::dist::u01;
use odx_stats::{BinnedSeries, Ecdf};
use odx_telemetry::{
    Histogram, Lifecycle, LifecycleReport, Registry, SeriesRecorder, Stage, TaskEnd, TraceConfig,
};
use odx_trace::records::{FetchRecord, PredownloadRecord};
use odx_trace::{Catalog, PopularityClass, Population, Request, Workload};

use odx_cache::InstrumentedCache;

use crate::{CloudConfig, CloudWeekBackend, ContentDb, PredownloadOutcome};

/// End-to-end view of one completed offline-downloading task (§4.3): total
/// delay is pre-downloading delay plus fetching delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// File size (MB).
    pub size_mb: f64,
    /// Pre-downloading delay (zero on cache hits).
    pub pd_delay: SimDuration,
    /// Fetching delay.
    pub fetch_delay: SimDuration,
}

impl EndToEnd {
    /// End-to-end delay.
    pub fn delay(&self) -> SimDuration {
        self.pd_delay + self.fetch_delay
    }

    /// End-to-end speed (KBps): size over total delay.
    pub fn speed_kbps(&self) -> f64 {
        let secs = self.delay().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.size_mb * 1000.0 / secs
        }
    }
}

/// The replay's one tally. Every cloud count the run reports — the
/// registry's `cloud.*` counters (through [`Counters::METRICS`]), the
/// series samples, the ratio gauges and [`WeekReport::counters`] — is a
/// field here or derived from fields, and each event bumps it once with a
/// plain add. Warm-up inserts happen before the replay and are not
/// counted, here or in any registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Requests processed.
    pub requests: u64,
    /// Arrivals that found the file in the pool or its pre-download
    /// already in flight (`cloud.cache.hit`). Joiners of a pre-download
    /// that later fails count here too; [`Counters::cache_hits`] leaves
    /// them out.
    pub arrival_hits: u64,
    /// Arrivals that found the file neither cached nor in flight and
    /// dispatched its pre-download (`cloud.cache.miss`).
    pub misses: u64,
    /// Arrivals that joined another user's in-flight pre-download
    /// (`cloud.dedup.joined`); a subset of `arrival_hits`.
    pub dedup_joins: u64,
    /// Joiners whose shared pre-download failed: arrival hits that were
    /// never served.
    pub failed_joins: u64,
    /// Pre-download attempts that succeeded (`cloud.predownload.success`).
    pub predownload_successes: u64,
    /// Pre-download attempts abandoned by the stagnation timeout, retried
    /// ones included (`cloud.predownload.stagnation`).
    pub stagnations: u64,
    /// Requests failed by their pre-download, by cause, indexed by
    /// `FailureCause as usize`: [insufficient seeds, poor connection,
    /// system bug].
    pub failures_by_cause: [u64; 3],
    /// Fetch requests rejected by the upload pool.
    pub rejected_fetches: u64,
    /// Fetches completed (admitted and finished).
    pub completed_fetches: u64,
    /// Fetches below the 125 KBps HD threshold (including rejected).
    pub impeded_fetches: u64,
    /// Impeded fetches crossing the ISP barrier.
    pub impeded_barrier: u64,
    /// Impeded fetches whose user access link is below the threshold.
    pub impeded_low_access: u64,
    /// Impeded fetches degraded by transient dynamics.
    pub impeded_dynamics: u64,
    /// Cloud-side pre-download traffic (MB).
    pub predownload_traffic_mb: f64,
    /// Payload bytes pre-downloaded (MB).
    pub predownload_payload_mb: f64,
    /// Injected fault windows that opened during the replay.
    pub fault_windows: u64,
    /// Pre-downloads forced to stagnate by a cloud outage window.
    pub fault_forced_failures: u64,
    /// Pre-downloads slowed by a cloud brownout window.
    pub fault_slowed_predownloads: u64,
    /// Fetches degraded by a net fault window.
    pub fault_degraded_fetches: u64,
    /// Stagnated pre-downloads re-dispatched by the retry policy.
    pub retry_attempts: u64,
    /// Requests rescued by a retry (waiters of a task that succeeded
    /// after at least one re-dispatch).
    pub retry_rescued: u64,
    /// Tasks whose retry budget ran out (they failed their waiters).
    pub retry_exhausted: u64,
}

/// A registry counter name and how its value reads off the tally.
pub type CounterMetric = (&'static str, fn(&Counters) -> u64);

/// Gauge names of [`Counters::ratios`], in its order.
const RATIO_GAUGES: [&str; 4] =
    ["cloud.hit_ratio", "cloud.failure_ratio", "cloud.rejection_ratio", "cloud.impeded_ratio"];

impl Counters {
    /// The registry's `cloud.*` replay counters and how each reads off the
    /// tally. The drain, the series registration and the tests all walk
    /// this one table. (`cloud.upload.*` are counted by the backend, which
    /// also serves one-shot requests.)
    pub const METRICS: [CounterMetric; 18] = [
        ("cloud.requests", |c| c.requests),
        ("cloud.cache.hit", |c| c.arrival_hits),
        ("cloud.cache.miss", |c| c.misses),
        ("cloud.dedup.joined", |c| c.dedup_joins),
        ("cloud.predownload.success", |c| c.predownload_successes),
        ("cloud.predownload.stagnation", |c| c.stagnations),
        ("cloud.predownload.fail.seeds", |c| c.failures_by_cause[0]),
        ("cloud.predownload.fail.connection", |c| c.failures_by_cause[1]),
        ("cloud.predownload.fail.bug", |c| c.failures_by_cause[2]),
        ("cloud.fetch.completed", |c| c.completed_fetches),
        ("cloud.fetch.impeded", |c| c.impeded_fetches),
        ("cloud.fault.window", |c| c.fault_windows),
        ("cloud.fault.predownload.forced", |c| c.fault_forced_failures),
        ("cloud.fault.predownload.slowed", |c| c.fault_slowed_predownloads),
        ("cloud.fault.fetch.degraded", |c| c.fault_degraded_fetches),
        ("cloud.retry.attempt", |c| c.retry_attempts),
        ("cloud.retry.rescued", |c| c.retry_rescued),
        ("cloud.retry.exhausted", |c| c.retry_exhausted),
    ];

    /// Requests served from the pool or by a shared pre-download that
    /// succeeded: arrival hits minus failed joins.
    pub fn cache_hits(&self) -> u64 {
        self.arrival_hits - self.failed_joins
    }

    /// Requests whose pre-download failed, over all causes.
    pub fn predownload_failures(&self) -> u64 {
        self.failures_by_cause.iter().sum()
    }

    /// The headline ratios (`cloud.hit_ratio`, `cloud.failure_ratio`,
    /// `cloud.rejection_ratio`, `cloud.impeded_ratio`): hits and failures
    /// over requests, rejected and impeded fetches over fetch attempts
    /// (completed plus rejected — one fetch record each).
    pub fn ratios(&self) -> [f64; 4] {
        let requests = self.requests.max(1) as f64;
        let attempts = (self.completed_fetches + self.rejected_fetches).max(1) as f64;
        [
            self.cache_hits() as f64 / requests,
            self.predownload_failures() as f64 / requests,
            self.rejected_fetches as f64 / attempts,
            self.impeded_fetches as f64 / attempts,
        ]
    }
}

/// Everything the week replay produces.
#[derive(Debug)]
pub struct WeekReport {
    /// One record per request (cache hits included with zero delay).
    pub predownloads: Vec<PredownloadRecord>,
    /// One record per attempted fetch (rejected ones have zero speed).
    pub fetches: Vec<FetchRecord>,
    /// End-to-end view of tasks that completed both phases.
    pub end_to_end: Vec<EndToEnd>,
    /// Cloud upload burden (KBps) in 5-minute bins — Fig 11's upper curve.
    pub burden_kbps: BinnedSeries,
    /// Burden attributable to highly popular files — Fig 11's lower curve.
    pub burden_hot_kbps: BinnedSeries,
    /// Aggregate counters.
    pub counters: Counters,
    /// Per-popularity failure ratio bins for Fig 10: `(popularity,
    /// failure_ratio)` per weekly-request-count bucket.
    pub failure_by_popularity: Vec<(f64, f64)>,
}

impl WeekReport {
    /// Cache-hit ratio over all requests (§2.1: 89 %); joiners of failed
    /// pre-downloads are not hits.
    pub fn hit_ratio(&self) -> f64 {
        self.counters.ratios()[0]
    }

    /// Per-request pre-download failure ratio (§4.1: 8.7 %).
    pub fn failure_ratio(&self) -> f64 {
        self.counters.ratios()[1]
    }

    /// Fraction of fetch attempts rejected (§4.2: 1.5 %).
    pub fn rejection_ratio(&self) -> f64 {
        self.counters.ratios()[2]
    }

    /// Fraction of fetches below the HD threshold (§4.2: 28 %).
    pub fn impeded_ratio(&self) -> f64 {
        self.counters.ratios()[3]
    }

    /// Pre-download speed ECDF over cache misses (failures contribute ~0),
    /// the Fig 8 upper curve.
    pub fn predownload_speed_ecdf(&self) -> Ecdf {
        Ecdf::new(self.predownloads.iter().filter(|r| !r.cache_hit).map(|r| r.avg_kbps).collect())
    }

    /// Pre-download delay ECDF over cache misses (minutes), Fig 9's lower
    /// curve.
    pub fn predownload_delay_ecdf(&self) -> Ecdf {
        Ecdf::new(
            self.predownloads
                .iter()
                .filter(|r| !r.cache_hit)
                .map(|r| r.delay().as_mins_f64())
                .collect(),
        )
    }

    /// Fetch speed ECDF including rejected fetches at 0 KBps, Fig 8's lower
    /// curve.
    pub fn fetch_speed_ecdf(&self) -> Ecdf {
        Ecdf::new(self.fetches.iter().map(|r| r.avg_kbps).collect())
    }

    /// Fetch delay ECDF (minutes) over completed fetches, Fig 9's upper
    /// curve.
    pub fn fetch_delay_ecdf(&self) -> Ecdf {
        Ecdf::new(
            self.fetches.iter().filter(|r| !r.rejected).map(|r| r.delay().as_mins_f64()).collect(),
        )
    }

    /// End-to-end speed ECDF (KBps).
    pub fn end_to_end_speed_ecdf(&self) -> Ecdf {
        Ecdf::new(self.end_to_end.iter().map(EndToEnd::speed_kbps).collect())
    }

    /// End-to-end delay ECDF (minutes).
    pub fn end_to_end_delay_ecdf(&self) -> Ecdf {
        Ecdf::new(self.end_to_end.iter().map(|e| e.delay().as_mins_f64()).collect())
    }

    /// Overall pre-download traffic divided by payload (§4.1: ≈ 196 % for
    /// the P2P-dominated mix).
    pub fn traffic_overhead_factor(&self) -> f64 {
        self.counters.predownload_traffic_mb / self.counters.predownload_payload_mb.max(1e-9)
    }

    /// Peak burden in Gbps (Fig 11: > 30 on day 7).
    pub fn peak_burden_gbps(&self) -> f64 {
        odx_net::kbps_to_gbps(self.burden_kbps.peak())
    }

    /// Mean fraction of the burden spent on highly popular files (§4.2:
    /// ≈ 40 %).
    pub fn hot_burden_fraction(&self) -> f64 {
        if self.burden_kbps.total_amount() <= 0.0 {
            return 0.0;
        }
        self.burden_hot_kbps.total_amount() / self.burden_kbps.total_amount()
    }
}

/// Event alphabet of the cloud replay (public because `World::Event`
/// appears in the trait implementation; construct via the replay API).
pub enum Ev {
    /// A request arrives (index into the workload).
    Arrive(u32),
    /// A pre-download finishes (success or give-up) for a file index.
    PredlDone {
        /// Catalog index.
        file: u32,
    },
    /// A user starts fetching (request index).
    FetchBegin {
        /// Workload request index.
        req: u32,
    },
    /// A fetch completes and its reservation is released.
    FetchEnd {
        /// Workload request index.
        req: u32,
        /// Pool that served the flow.
        server_isp: Option<Isp>,
        /// Bandwidth reserved in that pool (KBps).
        reserved_kbps: f64,
        /// User-visible fetch rate (KBps).
        rate_kbps: f64,
        /// When the fetch began.
        began: SimTime,
    },
    /// An injected fault window opens (scheduled up front from the
    /// compiled plan; purely observational — active-window queries go
    /// through the plan, so the handler only counts and the event's
    /// label stamps the window into the flight-recorder ring).
    FaultWindow {
        /// What the window injects (carries the `'static` label).
        kind: FaultKind,
    },
    /// A stagnated pre-download's backoff expires: re-dispatch it for
    /// the waiters still parked on the file.
    RetryPredl {
        /// Catalog index.
        file: u32,
    },
}

/// Sentinel terminating the per-file waiter lists in the task arena.
const NO_WAITER: u32 = u32::MAX;

/// How many arrivals [`ArrivalChunks`] schedules per injection. Small
/// enough that the future-event list holds one chunk plus in-flight
/// follow-ups instead of the whole 4 M-request week, large enough that
/// chunk-boundary bookkeeping is noise.
const ARRIVAL_CHUNK: usize = 65_536;

/// Streams the workload's arrivals into the scheduler chunk by chunk.
///
/// Arrivals keep the sequence numbers `0..N` they would have drawn under
/// eager up-front scheduling ([`Simulation::reserve_seqs`] moves follow-up
/// seqs past `N`), and [`Simulation::run_streamed`] injects a chunk before
/// any event at or past its start time fires — so the replay's pop order
/// (and therefore every export) is byte-identical to the eager scheme.
struct ArrivalChunks<'a> {
    requests: &'a [Request],
    next: usize,
}

impl ArrivalSource<Ev> for ArrivalChunks<'_> {
    fn peek(&mut self) -> Option<SimTime> {
        self.requests.get(self.next).map(|r| r.at)
    }

    fn inject(&mut self, sched: &mut Scheduler<Ev>) {
        let end = (self.next + ARRIVAL_CHUNK).min(self.requests.len());
        for i in self.next..end {
            sched.schedule_with_seq(self.requests[i].at, i as u64, Ev::Arrive(i as u32));
        }
        self.next = end;
    }
}

/// Optional observers for a cloud replay: any combination of per-task
/// lifecycle tracing, virtual-time series recording, and wall profiling.
/// [`Default`] is the unobserved replay.
#[derive(Default)]
pub struct Observers<'a> {
    /// Per-task lifecycle tracing (`None` = off).
    pub trace: Option<&'a TraceConfig>,
    /// Virtual-time series recording: the replay registers the cloud's
    /// headline metrics on the recorder, samples them on the engine's
    /// grid, and finishes the series at the end-of-run clock.
    pub series: Option<SeriesRecorder>,
    /// Wall profiling: per-handler and scheduler-pop `Instant` buckets,
    /// flushed into the registry's wall section.
    pub profile: bool,
}

/// Register the cloud replay's headline metrics on a series recorder:
/// engine throughput, every [`Counters::METRICS`] counter, the per-ISP
/// upload admissions (the paper's per-ISP weekly curves), the headline
/// ratio gauges, and the median fetch rate.
fn register_cloud_series(series: &SeriesRecorder, registry: &Registry) {
    const OTHER_COUNTERS: [&str; 6] = [
        "sim.events",
        "cloud.upload.admit.unicom",
        "cloud.upload.admit.telecom",
        "cloud.upload.admit.mobile",
        "cloud.upload.admit.cernet",
        "cloud.upload.reject",
    ];
    for name in OTHER_COUNTERS.into_iter().chain(Counters::METRICS.map(|(name, _)| name)) {
        series.track_counter(name, registry.counter(name));
    }
    for name in std::iter::once("sim.queue_depth").chain(RATIO_GAUGES) {
        series.track_gauge(name, registry.gauge(name));
    }
    series.track_quantile(
        "cloud.fetch.rate_kbps.p50",
        registry.histogram("cloud.fetch.rate_kbps"),
        0.5,
    );
}

/// The cloud world driven by the simulation engine.
pub struct XuanfengCloud<'a> {
    cfg: CloudConfig,
    catalog: &'a Catalog,
    population: &'a Population,
    workload: &'a Workload,
    db: ContentDb,
    pool: InstrumentedCache,
    backend: CloudWeekBackend,
    rng_think: SimRng,
    // Compiled fault schedule plus the runtime streams it draws from.
    // Zero-intensity plans are empty and the streams stay untouched, so
    // a fault-free replay is byte-identical to one built before this
    // machinery existed.
    plan: FaultPlan,
    rng_faults: SimRng,
    rng_retry: SimRng,
    retry_policy: RetryPolicy,
    // Attempts burned so far on the file's in-flight pre-download;
    // reset on final success/failure. File-indexed like the arena.
    retry_attempts: Vec<u32>,
    // The task arena: a preallocated struct-of-arrays replacing the old
    // `FxHashMap<u32, Pending>` and its per-task waiter Vecs. File-indexed
    // (catalog size): the in-flight pre-download's outcome plus the
    // head/tail of that file's waiter list. Task-indexed (workload size):
    // the intrusive next pointer chaining waiters in arrival order. The
    // per-event path is two array reads — no hashing, no rehash stalls,
    // no waiter-Vec growth. Waiter arrival times are not stored: an
    // arrival fires at exactly `workload.requests()[req].at` (scheduled
    // from time zero, never clamped), so they are recovered from the
    // workload on completion.
    pending_outcome: Vec<Option<PredownloadOutcome>>,
    waiter_head: Vec<u32>,
    waiter_tail: Vec<u32>,
    next_waiter: Vec<u32>,
    pd_delay_ms: Vec<u64>,
    predownloads: Vec<PredownloadRecord>,
    fetches: Vec<FetchRecord>,
    end_to_end: Vec<EndToEnd>,
    burden: BinnedSeries,
    burden_hot: BinnedSeries,
    counters: Counters,
    // (failures, attempts) per popularity bucket for Fig 10.
    failure_bins: Vec<(u64, u64)>,
    // Precomputed Fig 10 bucket per file: every arrival and failure
    // bins by popularity, and reading a byte-sized bin from this dense
    // side table (≲1 MB, L2-resident) replaces a `FileMeta` fetch from
    // the much larger catalog — one fewer DRAM miss per event.
    fig10_bin: Vec<u16>,
    // Where the tally drains: `drained` is the tally as of the last
    // drain, and the two histograms hold the samples since then.
    registry: Registry,
    drained: Counters,
    fetch_rate_kbps: Histogram,
    predownload_delay_ms: Histogram,
    // Per-task lifecycle tracing; None keeps the hot path one branch.
    lifecycle: Option<Lifecycle>,
}

/// Static label for the ISP admitting an upload flow.
fn isp_label(isp: Option<Isp>) -> &'static str {
    match isp {
        Some(isp) => isp.lowercase_name(),
        None => "none",
    }
}

/// Static label for a pre-download failure cause (§5.2 taxonomy).
fn cause_label(cause: FailureCause) -> &'static str {
    match cause {
        FailureCause::InsufficientSeeds => "seeds",
        FailureCause::PoorConnection => "connection",
        FailureCause::SystemBug => "bug",
    }
}

const FIG10_BIN_WIDTH: f64 = 10.0;
const FIG10_BINS: usize = 21;

impl<'a> XuanfengCloud<'a> {
    /// Build the world around a generated workload; every metric the
    /// replay records lands in `registry`.
    pub fn new(
        cfg: CloudConfig,
        catalog: &'a Catalog,
        population: &'a Population,
        workload: &'a Workload,
        rngs: &RngFactory,
        registry: &Registry,
    ) -> Self {
        let mut db = ContentDb::new(catalog);
        // The scenario picks the replacement policy; single-shard LRU is the
        // paper's pool. Preallocate for the catalog so warming never regrows.
        let mut pool = cfg.cache.build(cfg.scaled_cache_mb(), catalog.len());
        if cfg.cache_enabled {
            let mut warm_rng = rngs.stream("cloud-warm");
            for idx in db.warm(catalog, cfg.warm_cache_pivot, &mut warm_rng) {
                // Warm evictions only happen under pressure-scaled budgets,
                // but whenever they do the DB flag must follow the pool.
                for evicted in pool.insert(u64::from(idx), catalog.file(idx).size_mb, 0) {
                    db.state_mut(evicted as u32).cached = false;
                }
            }
        }
        // Wrapped after warming: warm-up inserts precede the replay and
        // are not counted.
        let pool = InstrumentedCache::new(pool, registry);
        let backend = CloudWeekBackend::new(&cfg, rngs, registry);
        let horizon_secs = (odx_trace::WEEK + SimDuration::from_days(2)).as_secs_f64();
        let plan = FaultPlan::compile(&cfg.faults, &mut rngs.stream("faults"));
        XuanfengCloud {
            retry_policy: RetryPolicy::new(cfg.retry),
            cfg,
            catalog,
            population,
            workload,
            db,
            pool,
            backend,
            rng_think: rngs.stream("cloud-think"),
            plan,
            rng_faults: rngs.stream("faults-runtime"),
            rng_retry: rngs.stream("retry"),
            retry_attempts: vec![0; catalog.len()],
            pending_outcome: vec![None; catalog.len()],
            waiter_head: vec![NO_WAITER; catalog.len()],
            waiter_tail: vec![NO_WAITER; catalog.len()],
            next_waiter: vec![NO_WAITER; workload.len()],
            pd_delay_ms: vec![0; workload.len()],
            predownloads: Vec::with_capacity(workload.len()),
            fetches: Vec::with_capacity(workload.len()),
            end_to_end: Vec::with_capacity(workload.len()),
            burden: BinnedSeries::new(horizon_secs, 300.0),
            burden_hot: BinnedSeries::new(horizon_secs, 300.0),
            counters: Counters::default(),
            failure_bins: vec![(0, 0); FIG10_BINS],
            fig10_bin: catalog
                .files()
                .iter()
                .map(|f| {
                    ((f64::from(f.weekly_requests) / FIG10_BIN_WIDTH) as usize).min(FIG10_BINS - 1)
                        as u16
                })
                .collect(),
            registry: registry.clone(),
            drained: Counters::default(),
            fetch_rate_kbps: Histogram::new(),
            predownload_delay_ms: Histogram::new(),
            lifecycle: None,
        }
    }

    fn trace_instant(&self, task: u32, stage: Stage, at: SimTime, detail: Option<&'static str>) {
        if let Some(lifecycle) = &self.lifecycle {
            lifecycle.tasks.instant(u64::from(task), stage, at.as_millis(), detail);
        }
    }

    fn trace_span(
        &self,
        task: u32,
        stage: Stage,
        start: SimTime,
        end: SimTime,
        detail: Option<&'static str>,
    ) {
        if let Some(lifecycle) = &self.lifecycle {
            lifecycle.tasks.span(
                u64::from(task),
                stage,
                start.as_millis(),
                end.as_millis(),
                detail,
            );
        }
    }

    /// Record a task's terminal outcome; anomalous terminals also dump
    /// the flight recorder's recent-event ring.
    fn trace_finish(&self, task: u32, end: TaskEnd, at: SimTime, anomaly: Option<&'static str>) {
        if let Some(lifecycle) = &self.lifecycle {
            lifecycle.tasks.finish(u64::from(task), end, at.as_millis());
            if let Some(kind) = anomaly {
                if lifecycle.tasks.sampled(u64::from(task)) {
                    lifecycle.flight.dump(u64::from(task), kind, at.as_millis());
                }
            }
        }
    }

    /// Run the full replay, recording metrics and sim spans into an
    /// explicit registry. With a fresh registry per call, two same-seed
    /// replays produce byte-identical metric snapshots.
    pub fn replay_with_registry(
        catalog: &Catalog,
        population: &Population,
        workload: &Workload,
        cfg: CloudConfig,
        rngs: &RngFactory,
        registry: &Registry,
    ) -> WeekReport {
        Self::replay_observed(
            catalog,
            population,
            workload,
            cfg,
            rngs,
            registry,
            Observers::default(),
        )
        .0
    }

    /// Run the full replay with an explicit [`Observers`] bundle: any
    /// combination of lifecycle tracing, virtual-time series recording,
    /// and wall profiling. The deterministic outputs (week report,
    /// metric snapshot, series, lifecycle) are byte-identical to an
    /// unobserved same-seed replay; only the wall section differs.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_observed(
        catalog: &Catalog,
        population: &Population,
        workload: &Workload,
        cfg: CloudConfig,
        rngs: &RngFactory,
        registry: &Registry,
        observers: Observers<'_>,
    ) -> (WeekReport, Option<LifecycleReport>) {
        let scheduler = cfg.scheduler;
        let mut world = XuanfengCloud::new(cfg, catalog, population, workload, rngs, registry);
        world.lifecycle = observers.trace.map(Lifecycle::new);
        let flight = world.lifecycle.as_ref().map(|lifecycle| lifecycle.flight.clone());
        // Snapshot the compiled fault windows before the world moves into
        // the simulation; they are scheduled up front after the arrival
        // seq reservation, in domain-then-start order, so every window's
        // `(time, seq)` is a pure function of the plan. An empty plan
        // schedules nothing and leaves seq allocation untouched.
        let fault_windows: Vec<FaultWindow> = FaultDomain::ALL
            .iter()
            .flat_map(|domain| world.plan.windows(*domain))
            .copied()
            .collect();
        if let Some(series) = &observers.series {
            register_cloud_series(series, registry);
        }
        // Arrivals stream in chunk by chunk, so the queue only ever holds
        // one chunk plus in-flight follow-ups — not the whole week. The
        // slab still grows on demand if follow-ups pile past the chunk.
        let capacity = workload.len().min(2 * ARRIVAL_CHUNK) + 16;
        let mut sim = Simulation::with_scheduler(world, scheduler, capacity);
        sim.attach_telemetry(registry.clone());
        if let Some(flight) = flight {
            sim.attach_flight_recorder(flight);
        }
        if let Some(series) = &observers.series {
            sim.attach_series(series.clone());
        }
        if observers.profile {
            sim.attach_profiler();
        }
        // Arrivals keep seqs 0..N; follow-ups scheduled by handlers draw
        // from N up, exactly as if every arrival were scheduled up front.
        sim.reserve_seqs(workload.len() as u64);
        for window in &fault_windows {
            sim.schedule_at(
                SimTime::from_millis(window.start_ms),
                Ev::FaultWindow { kind: window.kind },
            );
        }
        let mut arrivals = ArrivalChunks { requests: workload.requests(), next: 0 };
        sim.run_streamed(&mut arrivals);
        let final_now_ms = sim.now().as_millis();
        let mut world = sim.into_world();
        world.check_conservation();
        world.drain();
        let lifecycle = world.lifecycle.take().map(|lifecycle| lifecycle.report());
        world.pool.finish(registry);
        let report = world.into_report();
        // The final sample lands after every drain and gauge write, so
        // each series ends exactly at its end-of-run snapshot value.
        if let Some(series) = &observers.series {
            series.finish(final_now_ms);
        }
        (report, lifecycle)
    }

    /// End-of-replay conservation laws, checked in release builds too: a
    /// violation means the replay's bookkeeping drifted and its report
    /// cannot be trusted, so it panics naming the law. O(files + ISPs),
    /// once per replay.
    fn check_conservation(&self) {
        assert_eq!(
            self.predownloads.len(),
            self.workload.len(),
            "conservation: one pre-download record per request"
        );
        assert!(
            self.waiter_head.iter().all(|&head| head == NO_WAITER),
            "conservation: every waiter list is empty at the end of the replay"
        );
        assert!(
            self.pending_outcome.iter().all(Option::is_none),
            "conservation: no pre-download outcome is left pending"
        );
        let upload = self.backend.upload();
        assert!(
            upload.total_in_use() <= 1e-6 * upload.total_capacity(),
            "conservation: upload reservations return to zero ({} of {} KBps still reserved)",
            upload.total_in_use(),
            upload.total_capacity()
        );
        assert!(
            self.pool.used_mb() <= self.pool.capacity_mb(),
            "conservation: the pool stays within its budget ({} MB used of {} MB)",
            self.pool.used_mb(),
            self.pool.capacity_mb()
        );
        let c = &self.counters;
        assert_eq!(
            c.requests,
            c.arrival_hits + c.misses,
            "conservation: every request is an arrival hit or a miss"
        );
        assert_eq!(
            c.predownload_successes + c.stagnations,
            c.misses + c.retry_attempts,
            "conservation: every pre-download dispatch (miss or retry) succeeds or stagnates"
        );
        assert_eq!(
            c.completed_fetches + c.rejected_fetches,
            self.fetches.len() as u64,
            "conservation: every fetch record is a completed or a rejected fetch"
        );
        let drifted = (0..self.catalog.len() as u32)
            .find(|&file| self.db.state(file).cached != self.pool.contains(u64::from(file)));
        assert_eq!(drifted, None, "conservation: every file's DB cached flag matches the pool");
    }

    /// Flush the tally into the registry: each [`Counters::METRICS`]
    /// counter gains its delta since the last drain, the local histograms
    /// merge and empty, and the ratio gauges are set from the tally. Any
    /// number of mid-run drains therefore sums to the end-of-run totals.
    fn drain(&mut self) {
        for (name, value) in Counters::METRICS {
            self.registry.counter(name).add(value(&self.counters) - value(&self.drained));
        }
        self.drained = self.counters;
        let fetch_rates = std::mem::take(&mut self.fetch_rate_kbps);
        self.registry.histogram("cloud.fetch.rate_kbps").merge(&fetch_rates);
        let delays = std::mem::take(&mut self.predownload_delay_ms);
        self.registry.histogram("cloud.predownload.delay_ms").merge(&delays);
        for (name, ratio) in RATIO_GAUGES.into_iter().zip(self.counters.ratios()) {
            self.registry.gauge(name).set(ratio);
        }
    }

    fn into_report(self) -> WeekReport {
        let failure_by_popularity = self
            .failure_bins
            .iter()
            .enumerate()
            .filter(|(_, (_, attempts))| *attempts > 0)
            .map(|(i, (fails, attempts))| {
                ((i as f64 + 0.5) * FIG10_BIN_WIDTH, *fails as f64 / *attempts as f64)
            })
            .collect();
        WeekReport {
            predownloads: self.predownloads,
            fetches: self.fetches,
            end_to_end: self.end_to_end,
            burden_kbps: self.burden,
            burden_hot_kbps: self.burden_hot,
            counters: self.counters,
            failure_by_popularity,
        }
    }

    fn record_failure_stats(&mut self, file: u32, requests: u64, cause: FailureCause) {
        self.counters.failures_by_cause[cause as usize] += requests;
        self.failure_bins[self.fig10_bin[file as usize] as usize].0 += requests;
    }

    fn note_request(&mut self, file: u32) {
        self.failure_bins[self.fig10_bin[file as usize] as usize].1 += 1;
    }

    fn hit_record(&self, at: SimTime) -> PredownloadRecord {
        PredownloadRecord {
            start: at,
            finish: at,
            acquired_mb: 0.0,
            traffic_mb: 0.0,
            cache_hit: true,
            avg_kbps: 0.0,
            peak_kbps: 0.0,
            success: true,
            failure_cause: None,
        }
    }

    fn think_after_hit(&mut self) -> SimDuration {
        // View-as-download users start fetching almost immediately.
        SimDuration::from_secs_f64(30.0 + 270.0 * u01(&mut self.rng_think))
    }

    fn think_after_predownload(&mut self) -> SimDuration {
        // The user gets a notification and comes back a while later.
        let mins = -(1.0 - u01(&mut self.rng_think)).ln() * 20.0;
        SimDuration::from_secs_f64((mins * 60.0).min(6.0 * 3600.0))
    }

    /// Dispatch a pre-download through the fault plan. The backend draw
    /// happens first either way, so the cloud-source stream order is
    /// identical with and without a plan; an active outage window then
    /// overrides the outcome with a forced stagnation, and a brownout
    /// window stretches a success by its severity.
    fn predownload_with_faults(&mut self, file_idx: u32, now: SimTime) -> PredownloadOutcome {
        let meta = *self.catalog.file(file_idx);
        let prior = self.db.state(file_idx).failed_attempts;
        let outcome = self.backend.predownload(&meta, prior);
        if self.plan.is_empty() {
            return outcome;
        }
        let Some(window) = self.plan.active(FaultDomain::Cloud, now.as_millis()) else {
            return outcome;
        };
        match window.kind {
            FaultKind::CloudOutage => {
                self.counters.fault_forced_failures += 1;
                PredownloadOutcome::Failure {
                    cause: FailureCause::SystemBug,
                    duration: self.cfg.stagnation_timeout
                        + SimDuration::from_secs_f64(u01(&mut self.rng_faults) * 3600.0),
                    traffic_mb: meta.size_mb * u01(&mut self.rng_faults) * 0.15,
                }
            }
            FaultKind::CloudBrownout => match outcome {
                PredownloadOutcome::Success { rate_kbps, duration, traffic_mb } => {
                    self.counters.fault_slowed_predownloads += 1;
                    PredownloadOutcome::Success {
                        rate_kbps: rate_kbps * window.severity,
                        duration: SimDuration::from_secs_f64(
                            duration.as_secs_f64() / window.severity,
                        ),
                        traffic_mb,
                    }
                }
                failure => failure,
            },
            _ => outcome,
        }
    }

    fn begin_fetch(&mut self, ctx: &mut Ctx<Ev>, req: u32) {
        let request = &self.workload.requests()[req as usize];
        let user = self.population.user(request.user);
        let file = self.catalog.file(request.file);
        let mut plan = self.backend.plan_fetch(user);

        let now = ctx.now();
        if plan.rate_kbps > 0.0 {
            if let Some(window) = self.plan.active(FaultDomain::Net, now.as_millis()) {
                // User-visible rate only: the ISP pool reservation keeps
                // the admission grant, so release stays consistent.
                plan.rate_kbps *= window.severity;
                self.counters.fault_degraded_fetches += 1;
            }
        }
        if plan.rate_kbps <= 0.0 {
            // Rejected outright.
            self.counters.rejected_fetches += 1;
            self.counters.impeded_fetches += 1;
            self.trace_instant(req, Stage::Admission, now, Some("reject"));
            self.trace_finish(req, TaskEnd::Rejected, now, Some("rejection"));
            self.fetches.push(FetchRecord {
                user_id: request.user,
                isp: user.isp,
                access_kbps: user.reports_bandwidth.then_some(user.access_kbps),
                start: now,
                finish: now,
                acquired_mb: 0.0,
                traffic_mb: 0.0,
                avg_kbps: 0.0,
                peak_kbps: 0.0,
                rejected: true,
            });
            // Fig 11 includes the estimated burden of rejected fetches at
            // the population's average fetch speed (504 KBps).
            let est_secs = odx_net::transfer_secs(file.size_mb, 504.0);
            let hot = file.class() == PopularityClass::HighlyPopular;
            self.burden.add_rate_interval(now.as_secs_f64(), now.as_secs_f64() + est_secs, 504.0);
            if hot {
                self.burden_hot.add_rate_interval(
                    now.as_secs_f64(),
                    now.as_secs_f64() + est_secs,
                    504.0,
                );
            }
            return;
        }

        let acquired_mb = file.size_mb * plan.fetched_fraction;
        let secs = odx_net::transfer_secs(acquired_mb, plan.rate_kbps);
        if plan.rate_kbps < HD_THRESHOLD_KBPS {
            self.counters.impeded_fetches += 1;
            if plan.crossed_barrier {
                self.counters.impeded_barrier += 1;
            } else if user.access_kbps < HD_THRESHOLD_KBPS {
                self.counters.impeded_low_access += 1;
            } else if plan.dynamics_degraded {
                self.counters.impeded_dynamics += 1;
            }
        }
        self.trace_instant(
            req,
            Stage::Admission,
            now,
            Some(isp_label(plan.admission.server_isp())),
        );
        ctx.schedule_in(
            SimDuration::from_secs_f64(secs),
            Ev::FetchEnd {
                req,
                server_isp: plan.admission.server_isp(),
                reserved_kbps: plan.admission.rate_kbps(),
                rate_kbps: plan.rate_kbps,
                began: now,
            },
        );
    }
}

impl World for XuanfengCloud<'_> {
    type Event = Ev;

    fn event_label(&self, event: &Ev) -> &'static str {
        match event {
            Ev::Arrive(_) => "arrive",
            Ev::PredlDone { .. } => "predl_done",
            Ev::FetchBegin { .. } => "fetch_begin",
            Ev::FetchEnd { .. } => "fetch_end",
            Ev::FaultWindow { kind } => kind.label(),
            Ev::RetryPredl { .. } => "retry_predl",
        }
    }

    /// Make every sampled metric current at a series grid point: drain
    /// the tally into the registry (each counter gains its delta since
    /// the last drain) and set the ratio gauges from it, so mid-run
    /// samples show the counts and ratios evolving and the final sample
    /// matches the report exactly.
    fn pre_sample(&mut self, _at_ms: u64) {
        self.drain();
    }

    fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
        match ev {
            Ev::Arrive(req) => {
                self.counters.requests += 1;
                let request = &self.workload.requests()[req as usize];
                let file_idx = request.file;
                self.db.state_mut(file_idx).observed_requests += 1;
                self.note_request(file_idx);
                let now = ctx.now();
                self.trace_instant(req, Stage::Arrival, now, None);

                if self.pool.lookup(u64::from(file_idx), now.as_millis()).is_some() {
                    debug_assert!(self.db.state(file_idx).cached, "pool/DB flag drift");
                    self.counters.arrival_hits += 1;
                    self.predownloads.push(self.hit_record(now));
                    self.pd_delay_ms[req as usize] = 0;
                    let think = self.think_after_hit();
                    self.trace_instant(req, Stage::CacheLookup, now, Some("hit"));
                    self.trace_span(req, Stage::Queue, now, now + think, None);
                    ctx.schedule_in(think, Ev::FetchBegin { req });
                } else if self.waiter_head[file_idx as usize] != NO_WAITER {
                    // Another user's pre-download is already in flight; this
                    // request will be satisfied (or fail) with it. Append to
                    // the file's waiter list (arrival order preserved).
                    let tail = self.waiter_tail[file_idx as usize];
                    self.next_waiter[tail as usize] = req;
                    self.waiter_tail[file_idx as usize] = req;
                    self.counters.arrival_hits += 1;
                    self.counters.dedup_joins += 1;
                    self.trace_instant(req, Stage::CacheLookup, now, Some("miss"));
                    self.trace_instant(req, Stage::DedupLookup, now, Some("joined"));
                } else {
                    self.counters.misses += 1;
                    self.trace_instant(req, Stage::CacheLookup, now, Some("miss"));
                    self.trace_instant(req, Stage::DedupLookup, now, Some("initiated"));
                    let outcome = self.predownload_with_faults(file_idx, now);
                    self.db.state_mut(file_idx).in_flight = true;
                    ctx.schedule_in(outcome.duration(), Ev::PredlDone { file: file_idx });
                    self.pending_outcome[file_idx as usize] = Some(outcome);
                    self.waiter_head[file_idx as usize] = req;
                    self.waiter_tail[file_idx as usize] = req;
                }
            }
            Ev::PredlDone { file } => {
                let outcome =
                    self.pending_outcome[file as usize].take().expect("pending entry exists");
                self.db.state_mut(file).in_flight = false;
                let meta = *self.catalog.file(file);
                let now = ctx.now();
                match outcome {
                    PredownloadOutcome::Success { rate_kbps, traffic_mb, .. } => {
                        let attempts = std::mem::take(&mut self.retry_attempts[file as usize]);
                        self.counters.predownload_successes += 1;
                        if self.cfg.cache_enabled {
                            self.db.state_mut(file).cached = true;
                            // The eviction list may include `file` itself if
                            // the policy refused admission; the flag loop
                            // handles both cases uniformly.
                            for evicted in
                                self.pool.insert(u64::from(file), meta.size_mb, now.as_millis())
                            {
                                self.db.state_mut(evicted as u32).cached = false;
                            }
                        }
                        self.counters.predownload_traffic_mb += traffic_mb;
                        self.counters.predownload_payload_mb += meta.size_mb;
                        let mut cursor = self.waiter_head[file as usize];
                        let mut i = 0usize;
                        while cursor != NO_WAITER {
                            let req = cursor;
                            // Arrivals fire at exactly their workload time.
                            let arrived = self.workload.requests()[req as usize].at;
                            // The initiator's record carries the transfer;
                            // joiners were satisfied by the same process.
                            self.predownloads.push(PredownloadRecord {
                                start: arrived,
                                finish: now,
                                acquired_mb: meta.size_mb,
                                traffic_mb: if i == 0 { traffic_mb } else { 0.0 },
                                cache_hit: i != 0,
                                avg_kbps: if i == 0 { rate_kbps } else { 0.0 },
                                peak_kbps: rate_kbps * self.backend.predl_peak_factor(),
                                success: true,
                                failure_cause: None,
                            });
                            let delay_ms = now.since(arrived).as_millis();
                            self.predownload_delay_ms.record(delay_ms);
                            self.pd_delay_ms[req as usize] = delay_ms;
                            let think = self.think_after_predownload();
                            let detail = if i == 0 { "initiator" } else { "joined" };
                            self.trace_span(req, Stage::Predownload, arrived, now, Some(detail));
                            self.trace_span(req, Stage::Queue, now, now + think, None);
                            ctx.schedule_in(think, Ev::FetchBegin { req });
                            cursor = self.next_waiter[req as usize];
                            i += 1;
                        }
                        if attempts > 0 {
                            // Every waiter on a retried file would have been
                            // failed under `retry.policy=none`.
                            self.counters.retry_rescued += i as u64;
                        }
                    }
                    PredownloadOutcome::Failure { cause, traffic_mb, .. } => {
                        // A granted backoff re-dispatches the pre-download
                        // instead of failing the waiters. The attempt still
                        // burns a stagnation timeout, its wasted traffic,
                        // and a content-DB failed attempt (so the shared
                        // retry decay applies to the re-dispatch), but no
                        // failure records are cut and the waiter list stays
                        // parked on the file.
                        let attempt = self.retry_attempts[file as usize];
                        if let Some(delay) =
                            self.retry_policy.backoff_delay(attempt, &mut self.rng_retry)
                        {
                            self.retry_attempts[file as usize] = attempt + 1;
                            self.counters.retry_attempts += 1;
                            self.counters.stagnations += 1;
                            self.db.state_mut(file).failed_attempts += 1;
                            self.counters.predownload_traffic_mb += traffic_mb;
                            self.db.state_mut(file).in_flight = true;
                            ctx.schedule_in(delay, Ev::RetryPredl { file });
                            return;
                        }
                        if self.retry_policy.is_active() && attempt > 0 {
                            self.counters.retry_exhausted += 1;
                            self.retry_attempts[file as usize] = 0;
                        }
                        // Failed attempts are abandoned by the stagnation
                        // timeout rule, one firing per attempt.
                        self.counters.stagnations += 1;
                        self.db.state_mut(file).failed_attempts += 1;
                        self.counters.predownload_traffic_mb += traffic_mb;
                        let mut cursor = self.waiter_head[file as usize];
                        let mut n = 0u64;
                        while cursor != NO_WAITER {
                            let req = cursor;
                            let arrived = self.workload.requests()[req as usize].at;
                            self.predownloads.push(PredownloadRecord {
                                start: arrived,
                                finish: now,
                                acquired_mb: 0.0,
                                traffic_mb,
                                cache_hit: false,
                                avg_kbps: 0.0,
                                peak_kbps: 0.0,
                                success: false,
                                failure_cause: Some(cause),
                            });
                            self.trace_span(
                                req,
                                Stage::Predownload,
                                arrived,
                                now,
                                Some(cause_label(cause)),
                            );
                            self.trace_finish(req, TaskEnd::Stagnated, now, Some("stagnation"));
                            cursor = self.next_waiter[req as usize];
                            n += 1;
                        }
                        self.record_failure_stats(file, n, cause);
                        // Joiners (everyone but the initiator) were
                        // counted as arrival hits.
                        self.counters.failed_joins += n - 1;
                    }
                }
                self.waiter_head[file as usize] = NO_WAITER;
                self.waiter_tail[file as usize] = NO_WAITER;
            }
            Ev::FetchBegin { req } => self.begin_fetch(ctx, req),
            Ev::FetchEnd { req, server_isp, reserved_kbps, rate_kbps, began } => {
                if let Some(isp) = server_isp {
                    self.backend.release(isp, reserved_kbps);
                }
                let now = ctx.now();
                let request = &self.workload.requests()[req as usize];
                let user = self.population.user(request.user);
                let delay = now.since(began);
                let acquired_mb = rate_kbps * delay.as_secs_f64() / 1000.0;
                self.counters.completed_fetches += 1;
                self.fetch_rate_kbps.record_f64(rate_kbps);
                self.backend.note_fetched(rate_kbps, acquired_mb);
                self.fetches.push(FetchRecord {
                    user_id: request.user,
                    isp: user.isp,
                    access_kbps: user.reports_bandwidth.then_some(user.access_kbps),
                    start: began,
                    finish: now,
                    acquired_mb,
                    traffic_mb: acquired_mb * 1.085,
                    avg_kbps: rate_kbps,
                    peak_kbps: rate_kbps * self.backend.fetch_peak_factor(),
                    rejected: false,
                });
                self.end_to_end.push(EndToEnd {
                    size_mb: acquired_mb,
                    pd_delay: SimDuration::from_millis(self.pd_delay_ms[req as usize]),
                    fetch_delay: delay,
                });
                self.trace_span(req, Stage::Fetch, began, now, None);
                self.trace_finish(req, TaskEnd::Completed, now, None);
                let file = self.catalog.file(request.file);
                let hot = file.class() == PopularityClass::HighlyPopular;
                self.burden.add_rate_interval(
                    began.as_secs_f64(),
                    now.as_secs_f64(),
                    reserved_kbps,
                );
                if hot {
                    self.burden_hot.add_rate_interval(
                        began.as_secs_f64(),
                        now.as_secs_f64(),
                        reserved_kbps,
                    );
                }
            }
            Ev::FaultWindow { .. } => {
                // Observational only: active-window queries go through the
                // plan, so the handler just counts and the event's label
                // stamps the opening into the flight-recorder ring.
                self.counters.fault_windows += 1;
            }
            Ev::RetryPredl { file } => {
                let now = ctx.now();
                let outcome = self.predownload_with_faults(file, now);
                ctx.schedule_in(outcome.duration(), Ev::PredlDone { file });
                self.pending_outcome[file as usize] = Some(outcome);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_trace::{CatalogConfig, PopulationConfig, WorkloadConfig};
    use rand::SeedableRng;

    fn replay_observed_at(
        scale: f64,
        seed: u64,
        cfg: CloudConfig,
        registry: &Registry,
        observers: Observers<'_>,
    ) -> (WeekReport, Option<LifecycleReport>) {
        let rngs = RngFactory::new(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig::scaled(scale), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(scale), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        XuanfengCloud::replay_observed(
            &catalog,
            &population,
            &workload,
            cfg,
            &rngs,
            registry,
            observers,
        )
    }

    fn replay_with(scale: f64, seed: u64, cfg: CloudConfig) -> WeekReport {
        replay_observed_at(scale, seed, cfg, &Registry::new(), Observers::default()).0
    }

    fn replay_at(scale: f64, seed: u64) -> WeekReport {
        replay_with(scale, seed, CloudConfig::at_scale(scale))
    }

    fn replay_traced(scale: f64, seed: u64, trace: &TraceConfig) -> (WeekReport, LifecycleReport) {
        let observers = Observers { trace: Some(trace), ..Observers::default() };
        let cfg = CloudConfig::at_scale(scale);
        let (report, lifecycle) = replay_observed_at(scale, seed, cfg, &Registry::new(), observers);
        (report, lifecycle.expect("tracing was requested"))
    }

    #[test]
    fn replay_accounts_for_every_request() {
        let report = replay_at(0.005, 110);
        assert_eq!(report.predownloads.len() as u64, report.counters.requests);
        assert!(report.counters.requests > 10_000);
        // Every successful task either fetched or was rejected.
        let successes = report.predownloads.iter().filter(|r| r.success).count();
        assert_eq!(successes, report.fetches.len());
    }

    #[test]
    fn cache_hit_ratio_near_paper() {
        let report = replay_at(0.005, 111);
        let hit = report.hit_ratio();
        assert!((hit - 0.89).abs() < 0.05, "hit ratio {hit}");
    }

    #[test]
    fn failure_ratios_near_paper() {
        let report = replay_at(0.005, 112);
        let failure = report.failure_ratio();
        assert!((failure - 0.087).abs() < 0.04, "failure ratio {failure}");
    }

    #[test]
    fn fault_injection_raises_failures_and_degrades_fetches() {
        let baseline = replay_with(0.005, 2015, CloudConfig::at_scale(0.005));
        let mut cfg = CloudConfig::at_scale(0.005);
        cfg.faults.intensity = 0.15;
        let faulted = replay_with(0.005, 2015, cfg);
        assert!(faulted.counters.fault_windows > 0, "windows should open");
        assert!(faulted.counters.fault_degraded_fetches > 0, "net windows should bite");
        assert!(
            faulted.counters.fault_forced_failures > 0
                || faulted.counters.fault_slowed_predownloads > 0,
            "cloud windows should bite"
        );
        assert!(
            faulted.failure_ratio() > baseline.failure_ratio(),
            "injection should raise failures: {} vs {}",
            faulted.failure_ratio(),
            baseline.failure_ratio()
        );
    }

    #[test]
    fn expo_backoff_rescues_tasks_under_the_same_fault_plan() {
        let mut cfg = CloudConfig::at_scale(0.005);
        cfg.faults.intensity = 0.15;
        let no_retry = replay_with(0.005, 2015, cfg);
        cfg.retry.kind = odx_faults::RetryKind::Expo;
        let expo = replay_with(0.005, 2015, cfg);
        assert!(expo.counters.retry_attempts > 0, "retries should fire");
        assert!(expo.counters.retry_rescued > 0, "some retries should succeed");
        assert!(
            expo.failure_ratio() < no_retry.failure_ratio(),
            "backoff should rescue tasks: {} vs {}",
            expo.failure_ratio(),
            no_retry.failure_ratio()
        );
        // The fault plan itself is retry-independent: same windows opened.
        assert_eq!(expo.counters.fault_windows, no_retry.counters.fault_windows);
    }

    #[test]
    fn zero_intensity_plan_is_byte_identical_to_the_default_replay() {
        let baseline = replay_with(0.005, 2015, CloudConfig::at_scale(0.005));
        // Any zero-intensity config — whatever the other knobs say — must
        // compile to an empty plan, consume no draws, schedule no events.
        let mut cfg = CloudConfig::at_scale(0.005);
        cfg.faults.window_s = 60.0;
        cfg.faults.net_slowdown = 0.9;
        cfg.retry.base_delay_s = 5.0;
        let quiet = replay_with(0.005, 2015, cfg);
        assert_eq!(format!("{baseline:?}"), format!("{quiet:?}"));
    }

    #[test]
    fn no_cache_ablation_roughly_doubles_failures() {
        let mut cfg = CloudConfig::at_scale(0.005);
        let with_cache = replay_with(0.005, 113, cfg).failure_ratio();
        cfg.cache_enabled = false;
        let without_cache = replay_with(0.005, 113, cfg).failure_ratio();
        // §4.1: 8.7 % with the pool vs 16.4 % without.
        assert!(
            without_cache > with_cache * 1.4,
            "cache should mask failures: {with_cache} vs {without_cache}"
        );
        assert!((without_cache - 0.164).abs() < 0.05, "no-cache failure {without_cache}");
    }

    #[test]
    fn fetch_speeds_match_fig8_shape() {
        // Scale 0.005 suffers per-ISP pool granularity (tens of concurrent
        // flows per pool), so the bands here are wide; the integration tests
        // and the repro harness check the tight Fig 8 numbers at scale ≥ 0.05.
        let report = replay_at(0.005, 114);
        let s = report.fetch_speed_ecdf().summary().unwrap();
        assert!((s.median - 287.0).abs() / 287.0 < 0.45, "median {}", s.median);
        assert!((s.mean - 504.0).abs() / 504.0 < 0.35, "mean {}", s.mean);
        assert!(s.max <= 6250.0);
        let impeded = report.impeded_ratio();
        assert!((impeded - 0.28).abs() < 0.15, "impeded {impeded}");
    }

    #[test]
    fn predownload_speeds_match_fig8_shape() {
        let report = replay_at(0.005, 115);
        let s = report.predownload_speed_ecdf().summary().unwrap();
        assert!(s.median < 60.0, "median {}", s.median);
        assert!(s.mean > s.median, "heavy tail");
        assert!(s.max <= 2500.0);
    }

    #[test]
    fn traffic_overhead_near_196_percent() {
        let report = replay_at(0.005, 116);
        let factor = report.traffic_overhead_factor();
        assert!((factor - 1.96).abs() < 0.25, "overhead factor {factor}");
    }

    #[test]
    fn end_to_end_sits_between_phases() {
        let report = replay_at(0.005, 117);
        let pd = report.predownload_delay_ecdf().median().unwrap();
        let fetch = report.fetch_delay_ecdf().median().unwrap();
        let e2e = report.end_to_end_delay_ecdf().median().unwrap();
        assert!(fetch <= e2e + 1e-9, "fetch {fetch} <= e2e {e2e}");
        assert!(e2e <= pd, "e2e {e2e} <= pd {pd} (most requests are hits)");
    }

    #[test]
    fn failure_ratio_decreases_with_popularity() {
        let report = replay_at(0.005, 118);
        let bins = &report.failure_by_popularity;
        assert!(bins.len() >= 3);
        let first = bins.first().unwrap().1;
        let last = bins.last().unwrap().1;
        assert!(
            first > last + 0.05,
            "unpopular files should fail more: first bin {first}, last bin {last}"
        );
    }

    #[test]
    fn burden_peaks_late_in_week() {
        let report = replay_at(0.005, 119);
        let (peak_bin, peak) = report.burden_kbps.peak_bin();
        assert!(peak > 0.0);
        let peak_day = peak_bin as f64 * 300.0 / 86_400.0;
        assert!(peak_day > 3.5, "peak on day {peak_day:.1} should be late in the week");
        let hot_frac = report.hot_burden_fraction();
        assert!((hot_frac - 0.40).abs() < 0.12, "hot burden fraction {hot_frac}");
    }

    #[test]
    fn metrics_snapshot_is_byte_identical_across_same_seed_replays() {
        let run = || {
            let registry = Registry::new();
            let cfg = CloudConfig::at_scale(0.002);
            let (report, _) = replay_observed_at(0.002, 121, cfg, &registry, Observers::default());
            (registry.snapshot(), report)
        };
        let (snap_a, report) = run();
        let (snap_b, _) = run();
        assert_eq!(snap_a.to_json(), snap_b.to_json());

        // The snapshot reads off the report's tally (every preset and
        // faulted cell: `tests/cloud_counters.rs`).
        for (name, value) in Counters::METRICS {
            assert_eq!(snap_a.counters[name], value(&report.counters), "{name}");
        }
        assert_eq!(snap_a.gauges["cloud.hit_ratio"], report.hit_ratio());
        // The sim hooks saw every scheduled event.
        assert!(snap_a.counters["sim.events"] >= report.counters.requests);
    }

    #[test]
    fn lifecycle_spans_tile_completion_times_exactly() {
        let (report, lifecycle) = replay_traced(0.002, 122, &TraceConfig::full());
        assert_eq!(lifecycle.traces.traces.len(), report.counters.requests as usize);
        // Per task: the timed stages tile arrival → terminal exactly.
        let mut ended = 0u64;
        for trace in &lifecycle.traces.traces {
            let Some(completion) = trace.completion_ms() else { continue };
            ended += 1;
            let timed: u64 = [Stage::Predownload, Stage::Queue, Stage::Fetch]
                .into_iter()
                .map(|s| trace.stage_ms(s))
                .sum();
            assert_eq!(timed, completion, "task {} spans do not tile", trace.task);
        }
        assert!(ended > 0);
        // And therefore in aggregate: the attribution's stage total equals
        // its completion total (the waterfall sums to 100 %).
        let attribution = lifecycle.attribution();
        assert_eq!(attribution.total_stage_ms(), attribution.total_completion_ms);
        assert_eq!(attribution.tasks, ended);
        assert_eq!(
            attribution.ends[TaskEnd::Stagnated.index()],
            report.counters.predownload_failures()
        );
        assert_eq!(attribution.ends[TaskEnd::Rejected.index()], report.counters.rejected_fetches);
        assert_eq!(attribution.ends[TaskEnd::Completed.index()], report.counters.completed_fetches);
        // Every anomalous terminal produced a flight dump (up to the cap).
        let anomalies = report.counters.predownload_failures() + report.counters.rejected_fetches;
        assert_eq!(lifecycle.flight.dumps.len() as u64 + lifecycle.flight.dropped_dumps, anomalies);
        assert!(lifecycle.flight.dumps.iter().all(|d| !d.recent.is_empty()));
    }

    #[test]
    fn lifecycle_trace_is_deterministic_and_sampling_drops_whole_tasks() {
        let run = |sample| replay_traced(0.001, 123, &TraceConfig::sampled(sample)).1;
        let full_a = run(1);
        let full_b = run(1);
        assert_eq!(full_a.traces.to_chrome_json(), full_b.traces.to_chrome_json());
        assert_eq!(full_a.attribution(), full_b.attribution());
        assert_eq!(full_a.flight.to_json(), full_b.flight.to_json());
        // Sampling keeps every 7th task, each with its complete span set.
        let sampled = run(7);
        assert!(!sampled.traces.traces.is_empty());
        for trace in &sampled.traces.traces {
            assert_eq!(trace.task % 7, 0);
            let full = full_a.traces.get(trace.task).expect("task exists in the full trace");
            assert_eq!(trace, full, "sampling must never truncate a task's spans");
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let a = replay_at(0.002, 120);
        let b = replay_at(0.002, 120);
        assert_eq!(a.counters.requests, b.counters.requests);
        assert_eq!(a.counters.cache_hits(), b.counters.cache_hits());
        assert_eq!(a.counters.rejected_fetches, b.counters.rejected_fetches);
        assert_eq!(a.fetches.len(), b.fetches.len());
        assert_eq!(a.predownloads[..100], b.predownloads[..100]);
    }

    #[test]
    fn conservation_check_names_each_violated_law() {
        let (scale, seed) = (0.001, 130);
        let rngs = RngFactory::new(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig::scaled(scale), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(scale), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        let fresh = || {
            XuanfengCloud::new(
                CloudConfig::at_scale(scale),
                &catalog,
                &population,
                &workload,
                &rngs,
                &Registry::new(),
            )
        };
        // A world holding one record per request and nothing in flight
        // satisfies every law.
        let settled = || {
            let mut world = fresh();
            for _ in 0..workload.len() {
                world.predownloads.push(world.hit_record(SimTime::ZERO));
            }
            world
        };
        settled().check_conservation();
        let violated = |world: XuanfengCloud| -> String {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                world.check_conservation()
            }))
            .expect_err("the check must fail");
            match err.downcast::<String>() {
                Ok(message) => *message,
                Err(err) => err.downcast_ref::<&str>().map(|m| m.to_string()).unwrap_or_default(),
            }
        };
        assert!(violated(fresh()).contains("one pre-download record per request"));
        let mut world = settled();
        world.waiter_head[0] = 0;
        assert!(violated(world).contains("every waiter list is empty"));
        let mut world = settled();
        world.pending_outcome[0] = Some(PredownloadOutcome::Success {
            rate_kbps: 1.0,
            duration: SimDuration::from_secs(1),
            traffic_mb: 1.0,
        });
        assert!(violated(world).contains("no pre-download outcome is left pending"));
        let mut world = settled();
        let plan = world.backend.plan_fetch(population.user(0));
        assert!(plan.admission.server_isp().is_some(), "an idle pool admits the fetch");
        assert!(violated(world).contains("upload reservations return to zero"));
        let mut world = settled();
        world.counters.requests += 1;
        assert!(violated(world).contains("every request is an arrival hit or a miss"));
        let mut world = settled();
        world.counters.predownload_successes += 1;
        assert!(violated(world).contains("every pre-download dispatch (miss or retry)"));
        let mut world = settled();
        world.counters.completed_fetches += 1;
        assert!(violated(world).contains("every fetch record is a completed or a rejected fetch"));
        let mut world = settled();
        let cached = world.db.state(0).cached;
        world.db.state_mut(0).cached = !cached;
        assert!(violated(world).contains("every file's DB cached flag matches the pool"));
    }
}
