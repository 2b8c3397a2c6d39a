//! The week workloads: generate → cloud replay → headline report and
//! ECDFs → §5.1 AP bench → §6.2 ODR eval → export, each call timed from
//! outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use odx::backend::Scenario;
use odx::cloud::{WeekReport, XuanfengCloud};
use odx::sim::RngFactory;
use odx::stats::Ecdf;
use odx::telemetry::{rows_from_walls, ProfRow, Registry};
use odx::trace::{Catalog, CatalogConfig, Population, PopulationConfig, Workload, WorkloadConfig};
use odx::Study;
use rand::SeedableRng;

use crate::digest::Digest;
use crate::spans::Spans;

/// The built-in scenario preset named `preset`, as `repro --scenario`
/// resolves it (defaults included: scheduler and cache policy unpinned).
pub fn scenario(preset: &str) -> Scenario {
    Study::scenarios().get(preset).expect("built-in preset").clone()
}

/// Bytes reserved per request for the exported traces, whose rows are
/// about 85 bytes today.
const SINK_BYTES_PER_RECORD: usize = 256;

/// A generated study with the wall time of each generator.
pub struct Setup {
    /// The study, exactly as [`Study::generate_scenario`] builds it.
    pub study: Study,
    /// `Catalog::generate` wall (s).
    pub catalog_s: f64,
    /// `Population::generate` wall (s).
    pub population_s: f64,
    /// `Workload::generate` wall (s).
    pub workload_s: f64,
}

impl Setup {
    /// Set-up wall (s).
    pub fn total_s(&self) -> f64 {
        self.catalog_s + self.population_s + self.workload_s
    }
}

/// Generate the study the way [`Study::generate_scenario`] does, timing
/// each generator. With `spans`, records a `setup` span over
/// `trace.catalog`, `trace.population` and `trace.workload`.
pub fn generate(
    scenario: &Scenario,
    scale: f64,
    seed: u64,
    spans: Option<(&mut Spans, u64)>,
) -> Setup {
    let t0 = Instant::now();
    let rngs = RngFactory::new(seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(rngs.child("study").master());
    let catalog = Catalog::generate(&CatalogConfig::scaled(scale), &mut rng);
    let t1 = Instant::now();
    let mut pop_cfg = PopulationConfig::scaled(scale);
    pop_cfg.isp_mix = scenario.isp_mix();
    let population = Population::generate(&pop_cfg, &mut rng);
    let t2 = Instant::now();
    let workload = Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
    let t3 = Instant::now();
    if let Some((spans, group)) = spans {
        let root = spans.record("setup", 0, group, t0, t3);
        spans.record("trace.catalog", root, group, t0, t1);
        spans.record("trace.population", root, group, t1, t2);
        spans.record("trace.workload", root, group, t2, t3);
    }
    Setup {
        study: Study { scale, rngs, catalog, population, workload },
        catalog_s: (t1 - t0).as_secs_f64(),
        population_s: (t2 - t1).as_secs_f64(),
        workload_s: (t3 - t2).as_secs_f64(),
    }
}

/// What one week run produced and how long each layer call took.
#[derive(Debug, Clone)]
pub struct WeekOutcome {
    /// Wall from the end of set-up to the last export byte, less the
    /// benchmark's own output checks in between (s).
    pub week_s: f64,
    /// Wall of each layer call, by span name (s): `cloud.replay`,
    /// `report.build`, `ap.replay`, `odr.eval`, `export.metrics`,
    /// `export.tsv`.
    pub phase_s: BTreeMap<&'static str, f64>,
    /// Events the replay's simulation handled.
    pub sim_events: u64,
    /// Digest over the metrics snapshot, report, AP and ODR headlines and
    /// both exported traces.
    pub digest: String,
    /// The AP and ODR headline outputs, as recorded.
    pub headline: String,
    /// Per-layer counts and ratios read from the run's outputs.
    pub counts: BTreeMap<&'static str, f64>,
    /// Profiler rows and loop wall, when the replay was profiled.
    pub prof: Option<(Vec<ProfRow>, f64)>,
    /// Broken invariants (empty when the run is sound).
    pub problems: Vec<String>,
}

/// Run one week over `study`. `profiled` attaches the replay's wall
/// profiler (`Study::replay_cloud_profiled`); the deterministic outputs
/// must not change. With `spans`, records one `week` span over every
/// layer call, and the profiler's buckets as children of `cloud.replay`.
pub fn run_week(
    study: &Study,
    scenario: &Scenario,
    sample: usize,
    profiled: bool,
    spans: Option<(&mut Spans, u64)>,
) -> WeekOutcome {
    let mut marks: Vec<(&'static str, Instant, Instant)> = Vec::with_capacity(8);
    let mut digest = Digest::new();
    let barrier = odx::telemetry::global().counter("net.barrier.activations");

    let start = Instant::now();
    let registry = Registry::new();
    let barrier_before = barrier.get();
    let t = Instant::now();
    let report = if profiled {
        study.replay_cloud_profiled(scenario, &registry)
    } else {
        XuanfengCloud::replay_with_registry(
            &study.catalog,
            &study.population,
            &study.workload,
            study.scenario_cloud_config(scenario),
            &study.rngs,
            &registry,
        )
    };
    marks.push(("cloud.replay", t, Instant::now()));
    let barrier_activations = barrier.get() - barrier_before;

    let t = Instant::now();
    let summary = report_summary(&report);
    marks.push(("report.build", t, Instant::now()));

    let t = Instant::now();
    let ap = study.replay_smart_aps_scenario(sample, scenario);
    marks.push(("ap.replay", t, Instant::now()));

    let t = Instant::now();
    let odr = study.replay_odr_scenario(sample, scenario);
    marks.push(("odr.eval", t, Instant::now()));

    let t = Instant::now();
    let snapshot = registry.snapshot();
    let metrics_json = snapshot.to_json();
    marks.push(("export.metrics", t, Instant::now()));

    // Room for both traces up front. Grown by doubling, the sink would
    // raise the peak resident set by half its size whenever a seed's
    // trace crossed a power of two; capacity never written is not resident.
    let mut sink = Vec::with_capacity(study.workload.len() * SINK_BYTES_PER_RECORD);
    let t = Instant::now();
    odx::trace::io::write_tsv(&mut sink, &report.predownloads).expect("write to memory");
    marks.push(("export.tsv", t, Instant::now()));

    let c = Instant::now();
    let mut headline = String::new();
    let mut decisions: Vec<String> =
        odr.decision_counts().iter().map(|(d, n)| format!("{d:?}={n}")).collect();
    decisions.sort();
    let _ = write!(
        headline,
        "ap tasks={} failure_ratio={:?} storage_limited={:?} | odr tasks={} failure_ratio={:?} \
         impeded_ratio={:?} cloud_upload={:?} decisions=[{}]",
        ap.records().len(),
        ap.failure_ratio(),
        ap.storage_limited_fraction(),
        odr.tasks().len(),
        odr.failure_ratio(),
        odr.impeded_ratio(),
        odr.cloud_upload_fraction(),
        decisions.join(",")
    );
    digest.section(metrics_json.as_bytes());
    digest.section(summary.as_bytes());
    digest.section(headline.as_bytes());
    digest.section(&sink);
    let mut export_bytes = (metrics_json.len() + sink.len()) as u64;
    sink.clear();
    let check = (c, Instant::now());

    let t = Instant::now();
    odx::trace::io::write_tsv(&mut sink, &report.fetches).expect("write to memory");
    let end = Instant::now();
    marks.push(("export.tsv", t, end));

    // The last check comes after the week's end, outside every timed span.
    digest.section(&sink);
    export_bytes += sink.len() as u64;
    drop(sink);

    let week_s = (end - start).as_secs_f64() - (check.1 - check.0).as_secs_f64();
    let mut phase_s = BTreeMap::new();
    for (name, a, b) in &marks {
        *phase_s.entry(*name).or_insert(0.0) += (*b - *a).as_secs_f64();
    }

    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let gauge = |name: &str| snapshot.gauges.get(name).copied().unwrap_or(0.0);
    let policy = scenario.cache.policy.name();
    let sim_events = counter("sim.events") as u64;
    let mut counts = BTreeMap::new();
    counts.insert("sim.events", sim_events as f64);
    counts.insert("trace.requests", study.workload.len() as f64);
    for name in [
        "cloud.requests",
        "cloud.cache.hit",
        "cloud.cache.miss",
        "cloud.dedup.joined",
        "cloud.upload.reject",
        "cloud.upload.cross_isp",
        "cloud.predownload.success",
        "cloud.predownload.stagnation",
    ] {
        counts.insert(name, counter(name));
    }
    let sum_prefixed = |prefix: &str| -> f64 {
        snapshot
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    counts.insert("cloud.upload.admit", sum_prefixed("cloud.upload.admit."));
    counts.insert("cloud.predownload.fail", sum_prefixed("cloud.predownload.fail."));
    let success = counter("cloud.predownload.success");
    let attempts = success + counter("cloud.predownload.stagnation");
    counts.insert("cloud.predownload.useful_ratio", success / attempts.max(1.0));
    counts.insert("cache.hit", counter(&format!("cache.{policy}.hit")));
    counts.insert("cache.miss", counter(&format!("cache.{policy}.miss")));
    let evictions = counter(&format!("cache.{policy}.eviction"));
    counts.insert("cache.eviction", evictions);
    counts.insert("cache.hit_ratio", gauge(&format!("cache.{policy}.hit_ratio")));
    counts.insert("cache.evictions_per_insert", evictions / success.max(1.0));
    counts.insert("net.barrier.activations", barrier_activations as f64);
    counts.insert("export.bytes", export_bytes as f64);
    counts.insert("ap.tasks", ap.records().len() as f64);
    counts.insert("ap.failure_ratio", ap.failure_ratio());

    let mut problems = Vec::new();
    let requests = study.workload.len() as f64;
    if sim_events == 0 {
        problems.push("the replay handled no events".to_owned());
    }
    if counter("cloud.requests") != requests {
        problems.push(format!(
            "cloud.requests {} != workload requests {requests}",
            counter("cloud.requests")
        ));
    }
    if report.predownloads.len() as f64 != requests {
        problems.push(format!(
            "{} pre-download records for {requests} requests",
            report.predownloads.len()
        ));
    }
    if ap.records().len() != sample || odr.tasks().len() != sample {
        problems.push(format!(
            "AP/ODR ran {}/{} tasks for a sample of {sample}",
            ap.records().len(),
            odr.tasks().len()
        ));
    }

    let prof = if profiled { rows_from_walls(&snapshot.wall) } else { None };
    if profiled && prof.is_none() {
        problems.push("the profiled replay flushed no profile".to_owned());
    }

    if let Some((spans, group)) = spans {
        let root = spans.record("week", 0, group, start, end);
        for (name, a, b) in &marks {
            let id = spans.record(*name, root, group, *a, *b);
            if *name == "cloud.replay" {
                if let Some((rows, _)) = &prof {
                    // The profiler's buckets are totals, not intervals: lay
                    // them end to end from the replay's start so that the
                    // replay's self time is what they leave uncovered.
                    let mut at = spans.ns(*a);
                    for row in rows {
                        let len = (row.secs * 1e9) as u64;
                        spans.record_ns(format!("prof.{}", row.label), id, group, at, at + len);
                        at += len;
                    }
                }
            }
        }
        spans.record("check", root, group, check.0, check.1);
    }

    WeekOutcome {
        week_s,
        phase_s,
        sim_events,
        digest: digest.hex(),
        headline,
        counts,
        prof,
        problems,
    }
}

/// The headline report: the six ECDFs of Figs 8–9 and the §4 ratios,
/// rendered with every digit so that the digest sees any change.
fn report_summary(report: &WeekReport) -> String {
    let ecdfs: [(&str, Ecdf); 6] = [
        ("predownload_speed", report.predownload_speed_ecdf()),
        ("predownload_delay", report.predownload_delay_ecdf()),
        ("fetch_speed", report.fetch_speed_ecdf()),
        ("fetch_delay", report.fetch_delay_ecdf()),
        ("end_to_end_speed", report.end_to_end_speed_ecdf()),
        ("end_to_end_delay", report.end_to_end_delay_ecdf()),
    ];
    let mut out = String::new();
    for (name, ecdf) in &ecdfs {
        let _ = writeln!(
            out,
            "{name} n={} p10={:?} p50={:?} p90={:?}",
            ecdf.len(),
            ecdf.quantile(0.1),
            ecdf.quantile(0.5),
            ecdf.quantile(0.9)
        );
    }
    let _ = writeln!(
        out,
        "hit={:?} failure={:?} rejection={:?} impeded={:?} overhead={:?} peak_gbps={:?} hot={:?}",
        report.hit_ratio(),
        report.failure_ratio(),
        report.rejection_ratio(),
        report.impeded_ratio(),
        report.traffic_overhead_factor(),
        report.peak_burden_gbps(),
        report.hot_burden_fraction()
    );
    out
}
