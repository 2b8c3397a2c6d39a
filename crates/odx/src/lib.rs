#![warn(missing_docs)]

//! # odx — offline downloading in China, reproduced
//!
//! Facade crate for the workspace reproducing *"Offline Downloading in
//! China: A Comparative Study"* (IMC 2015): re-exports every subsystem and
//! provides [`Study`], the one-call bundle that generates a calibrated
//! synthetic measurement week.
//!
//! ```
//! use odx::Study;
//!
//! // A 0.5 %-scale study (≈ 20k tasks) — deterministic in the seed.
//! let study = Study::generate(0.005, 42);
//! assert!(study.workload.len() > 10_000);
//!
//! // Replay the week on the cloud model and look at Fig 8's fetch curve.
//! let report = study.replay_cloud();
//! let median = report.fetch_speed_ecdf().median().unwrap();
//! assert!(median > 100.0 && median < 600.0);
//! ```
//!
//! The crate-level view of the system lives in `DESIGN.md`; the
//! paper-vs-measured ledger in `EXPERIMENTS.md`.

pub mod sweep;

pub use odx_backend as backend;
pub use odx_cache as cache;
pub use odx_cloud as cloud;
pub use odx_config as config;
pub use odx_faults as faults;
pub use odx_net as net;
pub use odx_odr as odr;
pub use odx_p2p as p2p;
pub use odx_proto as proto;
pub use odx_sim as sim;
pub use odx_smartap as smartap;
pub use odx_stats as stats;
pub use odx_storage as storage;
pub use odx_telemetry as telemetry;
pub use odx_trace as trace;

use odx_backend::{ApBenchReport, Scenario, ScenarioRegistry, SmartApBenchmark};
use odx_cloud::{CloudConfig, Observers, WeekReport, XuanfengCloud};
use odx_odr::replay::{OdrEvalReport, OdrReplay};
use odx_sim::RngFactory;
use odx_telemetry::{LifecycleReport, Registry, SeriesRecorder, SeriesSnapshot, TraceConfig};
use odx_trace::{
    sample_benchmark_workload, sample_eval_workload, Catalog, CatalogConfig, Population,
    PopulationConfig, SampledRequest, Workload, WorkloadConfig,
};
use rand::SeedableRng;

/// A generated measurement week: file catalog, user population, and the
/// request stream — everything the paper's dataset contained, scaled.
pub struct Study {
    /// Workload scale relative to the paper (1.0 = 4.08 M tasks).
    pub scale: f64,
    /// The named RNG-stream factory all replays draw from.
    pub rngs: RngFactory,
    /// Unique files with sizes, types, protocols and weekly popularity.
    pub catalog: Catalog,
    /// Users with ISPs and access bandwidth.
    pub population: Population,
    /// The timestamped request stream across the week.
    pub workload: Workload,
}

impl Study {
    /// Generate a study at `scale` of the paper's size, deterministic in
    /// `seed`.
    pub fn generate(scale: f64, seed: u64) -> Study {
        let registry = ScenarioRegistry::builtin();
        let baseline = registry.get("paper-default").expect("builtin baseline");
        Study::generate_scenario(scale, seed, baseline)
    }

    /// Generate a study under a named scenario: same generators, but the
    /// population's ISP mix follows the scenario (e.g. `cernet-heavy`).
    pub fn generate_scenario(scale: f64, seed: u64, scenario: &Scenario) -> Study {
        let rngs = RngFactory::new(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(rngs.child("study").master());
        let catalog = Catalog::generate(&CatalogConfig::scaled(scale), &mut rng);
        let mut pop_cfg = PopulationConfig::scaled(scale);
        pop_cfg.isp_mix = scenario.isp_mix();
        let population = Population::generate(&pop_cfg, &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        Study { scale, rngs, catalog, population, workload }
    }

    /// The built-in scenario presets (`repro --scenario` resolves here).
    pub fn scenarios() -> ScenarioRegistry {
        ScenarioRegistry::builtin()
    }

    /// The cloud config a scenario describes at this study's scale — see
    /// [`CloudConfig::for_scenario`].
    pub fn scenario_cloud_config(&self, scenario: &Scenario) -> CloudConfig {
        CloudConfig::for_scenario(self.scale, scenario)
    }

    /// Replay the week on the cloud system (§4, Figs 8–11).
    pub fn replay_cloud(&self) -> WeekReport {
        self.replay_cloud_with(CloudConfig::at_scale(self.scale))
    }

    /// Replay the week under a scenario's cloud configuration.
    pub fn replay_cloud_scenario(&self, scenario: &Scenario) -> WeekReport {
        self.replay_cloud_with(self.scenario_cloud_config(scenario))
    }

    /// Replay the week with an explicit cloud config (ablations). Metrics
    /// land in the process-wide [`odx_telemetry::global`] registry.
    pub fn replay_cloud_with(&self, cfg: CloudConfig) -> WeekReport {
        XuanfengCloud::replay_with_registry(
            &self.catalog,
            &self.population,
            &self.workload,
            cfg,
            &self.rngs,
            odx_telemetry::global(),
        )
    }

    /// Replay the week under a scenario with per-task lifecycle tracing:
    /// returns the week report plus a deterministic [`LifecycleReport`]
    /// (sampled task traces, latency attribution, flight-recorder dumps).
    pub fn replay_cloud_traced(
        &self,
        scenario: &Scenario,
        registry: &Registry,
        trace: &TraceConfig,
    ) -> (WeekReport, LifecycleReport) {
        let observers = Observers { trace: Some(trace), ..Observers::default() };
        let (report, lifecycle) = self.replay_cloud_observed(scenario, registry, observers);
        (report, lifecycle.expect("tracing was requested"))
    }

    /// Replay the week under a scenario with an explicit observer bundle
    /// (lifecycle tracing, series recording, wall profiling — see
    /// [`Observers`]). Lifecycle reports come back stamped with the
    /// scenario's scheduler and name.
    pub fn replay_cloud_observed(
        &self,
        scenario: &Scenario,
        registry: &Registry,
        observers: Observers<'_>,
    ) -> (WeekReport, Option<LifecycleReport>) {
        let (report, mut lifecycle) = XuanfengCloud::replay_observed(
            &self.catalog,
            &self.population,
            &self.workload,
            self.scenario_cloud_config(scenario),
            &self.rngs,
            registry,
            observers,
        );
        if let Some(lifecycle) = &mut lifecycle {
            lifecycle.set_context(scenario.scheduler.name(), &scenario.name);
        }
        (report, lifecycle)
    }

    /// Replay the week under a scenario while recording the virtual-time
    /// metric series at the scenario's cadence
    /// (`telemetry.series_interval_s`, default one sim-hour). The
    /// returned snapshot's last sample equals the end-of-run metric
    /// state, and its bytes are independent of scheduler and job count.
    pub fn replay_cloud_series(
        &self,
        scenario: &Scenario,
        registry: &Registry,
    ) -> (WeekReport, SeriesSnapshot) {
        let series = SeriesRecorder::new(scenario.series_interval_ms());
        let observers = Observers { series: Some(series.clone()), ..Observers::default() };
        let (report, _) = self.replay_cloud_observed(scenario, registry, observers);
        (report, series.snapshot())
    }

    /// Replay the week under a scenario with the per-handler wall
    /// profiler attached; the measured breakdown lands in `registry`'s
    /// wall section (`prof.*`) for [`odx_telemetry::rows_from_walls`].
    pub fn replay_cloud_profiled(&self, scenario: &Scenario, registry: &Registry) -> WeekReport {
        let observers = Observers { profile: true, ..Observers::default() };
        self.replay_cloud_observed(scenario, registry, observers).0
    }

    /// Run the §5.1 benchmark over a scenario's AP fleet, under its fault
    /// plan, with lifecycle tracing.
    pub fn replay_smart_aps_traced(
        &self,
        n: usize,
        scenario: &Scenario,
        trace: &TraceConfig,
    ) -> (ApBenchReport, LifecycleReport) {
        SmartApBenchmark::replay_fleet_traced(
            &self.benchmark_sample(n),
            &scenario.ap_fleet,
            &self.rngs.child("smartap"),
            &scenario.faults,
            trace,
        )
    }

    /// Run the §6.2 evaluation under a scenario with lifecycle tracing.
    pub fn replay_odr_traced(
        &self,
        n: usize,
        scenario: &Scenario,
        trace: &TraceConfig,
    ) -> (OdrEvalReport, LifecycleReport) {
        OdrReplay::for_scenario(scenario).run_traced(
            &self.eval_sample(n),
            &self.rngs.child("odr"),
            trace,
        )
    }

    /// Draw the §5.1 sampled workload (`n` Unicom requests with recorded
    /// access bandwidth).
    pub fn benchmark_sample(&self, n: usize) -> Vec<SampledRequest> {
        let mut rng = self.rngs.stream("benchmark-sample");
        sample_benchmark_workload(&self.workload, &self.catalog, &self.population, n, &mut rng)
    }

    /// Draw the §6.2 unbiased evaluation sample.
    pub fn eval_sample(&self, n: usize) -> Vec<SampledRequest> {
        let mut rng = self.rngs.stream("eval-sample");
        sample_eval_workload(&self.workload, &self.catalog, &self.population, n, &mut rng)
    }

    /// Run the §5.1 smart-AP benchmark over `n` sampled requests
    /// (Figs 13–14, §5.2 failure taxonomy).
    pub fn replay_smart_aps(&self, n: usize) -> ApBenchReport {
        SmartApBenchmark::replay(&self.benchmark_sample(n), &self.rngs.child("smartap"))
    }

    /// Run the §5.1 benchmark over a scenario's AP fleet (e.g. `usb3-aps`),
    /// under the scenario's fault plan. Zero fault intensity — every
    /// preset's default — replays byte-identically to the plain fleet.
    pub fn replay_smart_aps_scenario(&self, n: usize, scenario: &Scenario) -> ApBenchReport {
        SmartApBenchmark::replay_fleet_faulted(
            &self.benchmark_sample(n),
            &scenario.ap_fleet,
            &self.rngs.child("smartap"),
            &scenario.faults,
        )
    }

    /// Run the §5.1 benchmark over a scenario's AP fleet, under its fault
    /// plan, while recording the `ap.*` virtual-time series at the
    /// scenario's cadence.
    pub fn replay_smart_aps_series(
        &self,
        n: usize,
        scenario: &Scenario,
        registry: &Registry,
    ) -> (ApBenchReport, SeriesSnapshot) {
        SmartApBenchmark::replay_fleet_series(
            &self.benchmark_sample(n),
            &scenario.ap_fleet,
            &self.rngs.child("smartap"),
            &scenario.faults,
            registry,
            scenario.series_interval_ms(),
        )
    }

    /// Run the §6.2 evaluation under a scenario while recording the
    /// `odr.*` virtual-time series at the scenario's cadence.
    pub fn replay_odr_series(
        &self,
        n: usize,
        scenario: &Scenario,
        registry: &Registry,
    ) -> (OdrEvalReport, SeriesSnapshot) {
        OdrReplay::for_scenario(scenario).run_series(
            &self.eval_sample(n),
            &self.rngs.child("odr"),
            registry,
            scenario.series_interval_ms(),
        )
    }

    /// Run the §6.2 ODR evaluation over `n` sampled requests
    /// (Figs 16–17).
    pub fn replay_odr(&self, n: usize) -> OdrEvalReport {
        OdrReplay::default().run(&self.eval_sample(n), &self.rngs.child("odr"))
    }

    /// Run the §6.2 evaluation under a scenario (backend config + AP fleet).
    pub fn replay_odr_scenario(&self, n: usize, scenario: &Scenario) -> OdrEvalReport {
        OdrReplay::for_scenario(scenario).run(&self.eval_sample(n), &self.rngs.child("odr"))
    }
}
