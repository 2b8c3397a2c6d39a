//! The §5.1 benchmark harness: sequential replay of the sampled workload.
//!
//! Three independent 20 Mbps ADSL lines, one per AP; the 1000 sampled Unicom
//! requests are split across the APs (~333 each) and replayed sequentially
//! (request *i+1* starts when request *i* completes or fails), with each
//! AP's pre-download speed restricted to the sampled user's recorded access
//! bandwidth. Every attempt runs through [`crate::SmartApBackend`] in its
//! benchmark mode, so the harness exercises the same [`crate::ProxyBackend`]
//! layer as the other evaluators.

use odx_faults::{FaultDomain, FaultKind, FaultPlan, FaultsConfig};
use odx_p2p::FailureCause;
use odx_sim::{RngFactory, SimDuration};
use odx_smartap::ApModel;
use odx_stats::Ecdf;
use odx_telemetry::{
    Counter, Lifecycle, LifecycleReport, Registry, SeriesRecorder, SeriesSnapshot, Stage, TaskEnd,
    TraceConfig,
};
use odx_trace::{PopularityClass, SampledRequest};
use serde::Serialize;

use crate::{ApContext, CloudContentState, ExecCtx, ProxyBackend, ProxyRequest, SmartApBackend};

/// One replayed task.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ApTaskRecord {
    /// Which AP replayed it.
    pub ap: ApModel,
    /// The request replayed.
    pub request: SampledRequest,
    /// Whether the pre-download succeeded.
    pub success: bool,
    /// Failure cause when it did not.
    pub cause: Option<FailureCause>,
    /// Average pre-download speed (KBps); zero on failure.
    pub rate_kbps: f64,
    /// Pre-downloading delay.
    pub duration: SimDuration,
    /// WAN traffic consumed (MB).
    pub traffic_mb: f64,
    /// Storage iowait during the transfer.
    pub iowait: f64,
    /// Whether the storage path was the binding constraint (Bottleneck 4).
    pub storage_limited: bool,
}

/// Results of the three-AP replay.
#[derive(Debug, Clone)]
pub struct ApBenchReport {
    records: Vec<ApTaskRecord>,
}

impl ApBenchReport {
    /// All task records.
    pub fn records(&self) -> &[ApTaskRecord] {
        &self.records
    }

    /// Records replayed by one AP.
    pub fn records_for(&self, ap: ApModel) -> impl Iterator<Item = &ApTaskRecord> {
        self.records.iter().filter(move |r| r.ap == ap)
    }

    /// Pre-download speed ECDF across all APs (failures at ~0 KBps) —
    /// Fig 13.
    pub fn speed_ecdf(&self) -> Ecdf {
        Ecdf::new(self.records.iter().map(|r| r.rate_kbps).collect())
    }

    /// Pre-download delay ECDF in minutes — Fig 14.
    pub fn delay_ecdf(&self) -> Ecdf {
        Ecdf::new(self.records.iter().map(|r| r.duration.as_mins_f64()).collect())
    }

    /// Overall failure ratio (§5.2: 16.8 %).
    pub fn failure_ratio(&self) -> f64 {
        self.records.iter().filter(|r| !r.success).count() as f64 / self.records.len().max(1) as f64
    }

    /// Failure ratio over requests for unpopular files (§5.2: 42 %).
    pub fn unpopular_failure_ratio(&self) -> f64 {
        let unpopular: Vec<_> = self
            .records
            .iter()
            .filter(|r| r.request.class() == PopularityClass::Unpopular)
            .collect();
        if unpopular.is_empty() {
            return 0.0;
        }
        unpopular.iter().filter(|r| !r.success).count() as f64 / unpopular.len() as f64
    }

    /// Failure-cause shares `[insufficient seeds, poor connection, bug]`
    /// (§5.2: 86 % / 10 % / 4 %).
    pub fn cause_shares(&self) -> [f64; 3] {
        let mut counts = [0usize; 3];
        for r in self.records.iter().filter(|r| !r.success) {
            match r.cause {
                Some(FailureCause::InsufficientSeeds) => counts[0] += 1,
                Some(FailureCause::PoorConnection) => counts[1] += 1,
                Some(FailureCause::SystemBug) => counts[2] += 1,
                None => {}
            }
        }
        let total: usize = counts.iter().sum();
        if total == 0 {
            return [0.0; 3];
        }
        [
            counts[0] as f64 / total as f64,
            counts[1] as f64 / total as f64,
            counts[2] as f64 / total as f64,
        ]
    }

    /// Maximum observed speed per AP (Fig 13's per-model maxima).
    pub fn max_speed_kbps(&self, ap: ApModel) -> f64 {
        self.records_for(ap).map(|r| r.rate_kbps).fold(0.0, f64::max)
    }

    /// Fraction of successful transfers that were storage-limited.
    pub fn storage_limited_fraction(&self) -> f64 {
        let ok: Vec<_> = self.records.iter().filter(|r| r.success).collect();
        if ok.is_empty() {
            return 0.0;
        }
        ok.iter().filter(|r| r.storage_limited).count() as f64 / ok.len() as f64
    }
}

/// Counter handles plus the recorder for a series-observed benchmark
/// replay. The harness is sequential, so counters are plain handles and
/// sampling happens inline: due grid points are taken strictly before
/// each task's completion advances the fleet clock past them.
struct BenchSeries {
    tasks: Counter,
    failures: Counter,
    storage_limited: Counter,
    recorder: SeriesRecorder,
}

impl BenchSeries {
    /// Charge one finished task: sample every grid point the fleet clock
    /// has now passed, then count the task.
    fn charge(&self, success: bool, storage_limited: bool, now_ms: u64) {
        while self.recorder.next_due_ms() < now_ms {
            self.recorder.sample_due();
        }
        self.tasks.inc();
        if !success {
            self.failures.inc();
        }
        if storage_limited {
            self.storage_limited.inc();
        }
    }
}

/// The benchmark harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmartApBenchmark;

impl SmartApBenchmark {
    /// Replay `sample` across the three §5.1 benchmark APs (request `i`
    /// goes to AP `i mod 3`, preserving the ~333-per-AP split), restricted
    /// to each request's recorded access bandwidth.
    pub fn replay(sample: &[SampledRequest], rngs: &RngFactory) -> ApBenchReport {
        SmartApBenchmark::replay_fleet(sample, &ApContext::bench_fleet(), rngs)
    }

    /// Replay `sample` across an explicit AP fleet (the scenario layer's
    /// entry point — e.g. the `usb3-aps` what-if swaps every box's storage).
    pub fn replay_fleet(
        sample: &[SampledRequest],
        fleet: &[ApContext; 3],
        rngs: &RngFactory,
    ) -> ApBenchReport {
        Self::replay_fleet_inner(sample, fleet, rngs, None, None, &FaultPlan::empty()).0
    }

    /// Replay a fleet under a fault-injection config: smart-AP windows are
    /// keyed on each AP line's own virtual clock, so a disk-stall window
    /// slows (and a power-cycle window kills) whatever task the line is
    /// running when the window is open. The plan compiles from a dedicated
    /// `"smartap-faults"` stream and injection itself draws nothing, so a
    /// zero-intensity config replays byte-identically to
    /// [`SmartApBenchmark::replay_fleet`].
    pub fn replay_fleet_faulted(
        sample: &[SampledRequest],
        fleet: &[ApContext; 3],
        rngs: &RngFactory,
        faults: &FaultsConfig,
    ) -> ApBenchReport {
        Self::replay_fleet_inner(sample, fleet, rngs, None, None, &Self::fault_plan(faults, rngs)).0
    }

    /// Replay a fleet with per-task lifecycle tracing. The harness is
    /// sequential per AP, so each AP carries its own virtual clock: task
    /// *i+1* on an AP starts when task *i* on that AP finished, and each
    /// task's trace is an arrival instant plus a pre-download span whose
    /// length is the measured transfer duration. Failed tasks dump the
    /// flight recorder with the §5.2 cause taxonomy. Faults are injected
    /// exactly as in [`SmartApBenchmark::replay_fleet_faulted`].
    pub fn replay_fleet_traced(
        sample: &[SampledRequest],
        fleet: &[ApContext; 3],
        rngs: &RngFactory,
        faults: &FaultsConfig,
        trace: &TraceConfig,
    ) -> (ApBenchReport, LifecycleReport) {
        let (report, lifecycle) = Self::replay_fleet_inner(
            sample,
            fleet,
            rngs,
            Some(Lifecycle::new(trace)),
            None,
            &Self::fault_plan(faults, rngs),
        );
        (report, lifecycle.expect("tracing was requested"))
    }

    /// Replay a fleet while recording a virtual-time metric series
    /// (`ap.tasks`, `ap.failures`, `ap.storage_limited`) at `interval_ms`
    /// on the benchmark's own clock — the busiest AP line's elapsed
    /// virtual time, which is what the harness reports as total delay.
    /// Tasks are charged in replay order. Counters land in `registry` and
    /// the finished snapshot's last sample equals their final values.
    /// Faults are injected exactly as in
    /// [`SmartApBenchmark::replay_fleet_faulted`].
    pub fn replay_fleet_series(
        sample: &[SampledRequest],
        fleet: &[ApContext; 3],
        rngs: &RngFactory,
        faults: &FaultsConfig,
        registry: &Registry,
        interval_ms: u64,
    ) -> (ApBenchReport, SeriesSnapshot) {
        let recorder = SeriesRecorder::new(interval_ms);
        for name in ["ap.tasks", "ap.failures", "ap.storage_limited"] {
            recorder.track_counter(name, registry.counter(name));
        }
        let ctx = BenchSeries {
            tasks: registry.counter("ap.tasks"),
            failures: registry.counter("ap.failures"),
            storage_limited: registry.counter("ap.storage_limited"),
            recorder: recorder.clone(),
        };
        let plan = Self::fault_plan(faults, rngs);
        let (report, _) = Self::replay_fleet_inner(sample, fleet, rngs, None, Some(&ctx), &plan);
        (report, recorder.snapshot())
    }

    /// The smart-AP fault plan, compiled from its own `"smartap-faults"`
    /// stream so that no other draw moves.
    fn fault_plan(faults: &FaultsConfig, rngs: &RngFactory) -> FaultPlan {
        FaultPlan::compile(faults, &mut rngs.stream("smartap-faults"))
    }

    fn replay_fleet_inner(
        sample: &[SampledRequest],
        fleet: &[ApContext; 3],
        rngs: &RngFactory,
        lifecycle: Option<Lifecycle>,
        series: Option<&BenchSeries>,
        plan: &FaultPlan,
    ) -> (ApBenchReport, Option<LifecycleReport>) {
        let mut backends: Vec<SmartApBackend> =
            fleet.iter().map(|&ap| SmartApBackend::bench(ap)).collect();
        let mut cloud = CloudContentState::new();
        let mut records = Vec::with_capacity(sample.len());
        // One virtual clock per AP line: the benchmark replays each AP's
        // share sequentially, so a task starts where the previous one on
        // the same AP ended.
        let mut ap_clock = [SimDuration::ZERO; 3];
        for (i, req) in sample.iter().enumerate() {
            let slot = i % fleet.len();
            let mut rng = rngs.stream_indexed("smartap-bench", i as u64);
            let preq = ProxyRequest::from_sampled(req, false, Some(fleet[slot]));
            let mut ctx = ExecCtx { rng: &mut rng, cloud: &mut cloud };
            let mut out = backends[slot].execute(&preq, &mut ctx);
            // Fault windows are keyed on the line's clock at task start.
            // Injection draws nothing: an empty plan leaves `out` — and
            // therefore the whole replay — untouched.
            if let Some(window) = plan.active(FaultDomain::SmartAp, ap_clock[slot].as_millis()) {
                match window.kind {
                    FaultKind::ApPowerCycle => {
                        // The box reboots mid-transfer: the task is lost
                        // but its time and WAN traffic were still spent.
                        out.success = false;
                        out.cause = Some(FailureCause::SystemBug);
                        out.rate_kbps = 0.0;
                        out.storage_limited = false;
                    }
                    FaultKind::ApDiskStall if out.success => {
                        out.rate_kbps *= window.severity;
                        out.duration = SimDuration::from_secs_f64(
                            out.duration.as_secs_f64() / window.severity,
                        );
                        out.iowait = 1.0 - (1.0 - out.iowait) * window.severity;
                        out.storage_limited = true;
                    }
                    _ => {}
                }
            }
            if let Some(lifecycle) = &lifecycle {
                let task = i as u64;
                let start = ap_clock[slot].as_millis();
                let end = (ap_clock[slot] + out.duration).as_millis();
                lifecycle.tasks.instant(task, Stage::Arrival, start, None);
                let detail = if out.storage_limited { Some("storage_limited") } else { None };
                lifecycle.tasks.span(task, Stage::Predownload, start, end, detail);
                lifecycle.flight.record(start, "ap_task");
                if out.success {
                    lifecycle.tasks.finish(task, TaskEnd::Completed, end);
                } else {
                    lifecycle.tasks.finish(task, TaskEnd::Failed, end);
                    if lifecycle.tasks.sampled(task) {
                        lifecycle.flight.dump(
                            task,
                            match out.cause {
                                Some(FailureCause::InsufficientSeeds) => "failure:seeds",
                                Some(FailureCause::PoorConnection) => "failure:connection",
                                _ => "failure:bug",
                            },
                            end,
                        );
                    }
                }
            }
            ap_clock[slot] = ap_clock[slot] + out.duration;
            if let Some(series) = series {
                let now_ms = ap_clock.iter().map(|c| c.as_millis()).max().unwrap_or(0);
                series.charge(out.success, out.storage_limited, now_ms);
            }
            records.push(ApTaskRecord {
                ap: fleet[slot].model,
                request: *req,
                success: out.success,
                cause: out.cause,
                rate_kbps: out.rate_kbps,
                duration: out.duration,
                traffic_mb: out.source_traffic_mb,
                iowait: out.iowait,
                storage_limited: out.storage_limited,
            });
        }
        if let Some(series) = series {
            let end_ms = ap_clock.iter().map(|c| c.as_millis()).max().unwrap_or(0);
            series.recorder.finish(end_ms);
        }
        (ApBenchReport { records }, lifecycle.map(|lifecycle| lifecycle.report()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_trace::{
        sample_benchmark_workload, Catalog, CatalogConfig, Population, PopulationConfig, Workload,
        WorkloadConfig,
    };
    use rand::SeedableRng;

    fn report(n: usize, seed: u64) -> ApBenchReport {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        let sample = sample_benchmark_workload(&workload, &catalog, &population, n, &mut rng);
        SmartApBenchmark::replay(&sample, &RngFactory::new(seed))
    }

    #[test]
    fn thousand_request_replay_matches_fig13_14() {
        // Use a larger sample than the paper's 1000 to tame sampling noise;
        // the repro harness runs the paper-exact 1000.
        let r = report(6000, 140);
        let speed = r.speed_ecdf().summary().unwrap();
        // Fig 13: median 27 KBps, average 64 KBps.
        assert!((10.0..45.0).contains(&speed.median), "median {}", speed.median);
        assert!((45.0..95.0).contains(&speed.mean), "mean {}", speed.mean);
        // Fig 14: median 77 min, average 402 min.
        let delay = r.delay_ecdf().summary().unwrap();
        assert!((40.0..130.0).contains(&delay.median), "median {}", delay.median);
        assert!(delay.mean > 2.5 * delay.median, "mean {} median {}", delay.mean, delay.median);
    }

    #[test]
    fn overall_failure_ratio_matches() {
        let r = report(6000, 141);
        let f = r.failure_ratio();
        assert!((f - 0.168).abs() < 0.04, "failure {f}");
    }

    #[test]
    fn unpopular_failure_ratio_matches() {
        let r = report(6000, 142);
        let f = r.unpopular_failure_ratio();
        assert!((f - 0.42).abs() < 0.06, "unpopular failure {f}");
    }

    #[test]
    fn failure_causes_split_86_10_4() {
        let r = report(8000, 143);
        let [seeds, conn, bug] = r.cause_shares();
        assert!((seeds - 0.86).abs() < 0.06, "seeds {seeds}");
        assert!((conn - 0.10).abs() < 0.05, "connection {conn}");
        assert!((bug - 0.04).abs() < 0.03, "bug {bug}");
    }

    #[test]
    fn newifi_max_speed_is_ntfs_capped() {
        let r = report(8000, 144);
        let newifi = r.max_speed_kbps(ApModel::Newifi);
        let hiwifi = r.max_speed_kbps(ApModel::HiWiFi);
        assert!(newifi <= 965.0, "Newifi max {newifi}"); // model puts the NTFS cap at 0.96 MBps (paper: 0.93)
        assert!(hiwifi > newifi, "HiWiFi max {hiwifi} should beat Newifi {newifi}");
    }

    #[test]
    fn replay_splits_requests_across_aps() {
        let r = report(999, 145);
        for ap in ApModel::ALL {
            assert_eq!(r.records_for(ap).count(), 333);
        }
    }

    #[test]
    fn series_replay_ends_at_the_final_counter_values() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(147);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        let sample = sample_benchmark_workload(&workload, &catalog, &population, 300, &mut rng);
        let run = |interval_ms| {
            let registry = Registry::new();
            let (report, series) = SmartApBenchmark::replay_fleet_series(
                &sample,
                &ApContext::bench_fleet(),
                &RngFactory::new(147),
                &FaultsConfig::default(),
                &registry,
                interval_ms,
            );
            (report, series, registry.snapshot())
        };
        let (report, series, snapshot) = run(3_600_000);
        assert!(series.times.len() > 1, "a 300-task replay spans multiple sim-hours");
        // The final sample equals the end-of-run counters, which equal
        // the report's own tallies.
        let last = |name: &str| series.series[name].final_value().unwrap();
        assert_eq!(last("ap.tasks") as u64, 300);
        assert_eq!(snapshot.counters["ap.tasks"], 300);
        assert_eq!(
            last("ap.failures") as u64,
            report.records().iter().filter(|r| !r.success).count() as u64
        );
        // Same seed, same cadence → byte-identical series.
        assert_eq!(series.to_json(), run(3_600_000).1.to_json());
        // The observed replay's records match the unobserved harness.
        let plain = SmartApBenchmark::replay(&sample, &RngFactory::new(147));
        assert_eq!(plain.failure_ratio(), report.failure_ratio());
    }

    #[test]
    fn replay_is_deterministic() {
        let a = report(300, 146);
        let b = report(300, 146);
        assert_eq!(a.failure_ratio(), b.failure_ratio());
        assert_eq!(
            a.records()[..50].iter().map(|r| r.rate_kbps).collect::<Vec<_>>(),
            b.records()[..50].iter().map(|r| r.rate_kbps).collect::<Vec<_>>()
        );
    }

    #[test]
    fn traced_replay_matches_untraced_and_tiles_durations() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(148);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        let sample = sample_benchmark_workload(&workload, &catalog, &population, 300, &mut rng);
        let plain = SmartApBenchmark::replay(&sample, &RngFactory::new(148));
        let (traced, lifecycle) = SmartApBenchmark::replay_fleet_traced(
            &sample,
            &ApContext::bench_fleet(),
            &RngFactory::new(148),
            &FaultsConfig::default(),
            &TraceConfig::full(),
        );
        // Tracing must not perturb the replay itself.
        assert_eq!(plain.failure_ratio(), traced.failure_ratio());
        assert_eq!(lifecycle.traces.traces.len(), sample.len());
        for (trace, record) in lifecycle.traces.traces.iter().zip(traced.records()) {
            assert_eq!(trace.completion_ms(), Some(record.duration.as_millis()));
            assert_eq!(trace.stage_ms(Stage::Predownload), record.duration.as_millis());
            let expected = if record.success { TaskEnd::Completed } else { TaskEnd::Failed };
            assert_eq!(trace.end.map(|(end, _)| end), Some(expected));
        }
        let failures = traced.records().iter().filter(|r| !r.success).count() as u64;
        assert_eq!(lifecycle.flight.dumps.len() as u64 + lifecycle.flight.dropped_dumps, failures);
    }

    #[test]
    fn ap_fault_windows_slow_and_kill_tasks_but_zero_intensity_is_free() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(149);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        let sample = sample_benchmark_workload(&workload, &catalog, &population, 3000, &mut rng);
        let fleet = ApContext::bench_fleet();
        let plain = SmartApBenchmark::replay_fleet(&sample, &fleet, &RngFactory::new(149));
        // Zero intensity must not perturb a single record.
        let quiet = SmartApBenchmark::replay_fleet_faulted(
            &sample,
            &fleet,
            &RngFactory::new(149),
            &FaultsConfig::default(),
        );
        assert_eq!(format!("{:?}", plain.records()), format!("{:?}", quiet.records()));
        // An aggressive plan kills some tasks and stalls others.
        let faults = FaultsConfig { intensity: 0.2, ..FaultsConfig::default() };
        let faulted =
            SmartApBenchmark::replay_fleet_faulted(&sample, &fleet, &RngFactory::new(149), &faults);
        assert!(
            faulted.failure_ratio() > plain.failure_ratio(),
            "power cycles should raise failures: {} vs {}",
            faulted.failure_ratio(),
            plain.failure_ratio()
        );
        assert!(
            faulted.storage_limited_fraction() > plain.storage_limited_fraction(),
            "disk stalls should hit the storage wall more often"
        );
    }

    #[test]
    fn usb3_fleet_lifts_the_newifi_storage_cap() {
        use odx_storage::{DeviceKind, FsKind};
        let mut rng = rand::rngs::StdRng::seed_from_u64(147);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        let sample = sample_benchmark_workload(&workload, &catalog, &population, 6000, &mut rng);
        let fleet = ApContext::bench_fleet().map(|c| ApContext {
            device: DeviceKind::UsbHdd,
            fs: FsKind::Ext4,
            ..c
        });
        let stock = SmartApBenchmark::replay(&sample, &RngFactory::new(147));
        let upgraded = SmartApBenchmark::replay_fleet(&sample, &fleet, &RngFactory::new(147));
        assert!(
            upgraded.max_speed_kbps(ApModel::Newifi) > stock.max_speed_kbps(ApModel::Newifi),
            "USB-HDD/EXT4 should beat the stock NTFS flash drive"
        );
        assert!(
            upgraded.storage_limited_fraction() <= stock.storage_limited_fraction(),
            "upgraded fleet should hit the storage wall no more often"
        );
    }
}
