//! Resilience-sweep determinism: fault-injected grids are byte-identical
//! across worker counts and schedulers, a zero-intensity fault plan
//! reproduces the pre-fault golden sweep exports byte for byte, and
//! exponential backoff rescues tasks that `retry.policy=none` loses
//! under the same fault plan, and every smart-AP replay path injects the
//! scenario's faults.

use odx::backend::{Scenario, ScenarioRegistry};
use odx::config::Json;
use odx::faults::RetryKind;
use odx::sweep::{resilience_variants, run_sweep, SweepSpec};
use odx::telemetry::{Registry, TraceConfig};
use odx::Study;
use odx_sim::SchedulerKind;
use proptest::prelude::*;

fn grid(seed: u64, intensity: f64, jobs: usize, scheduler: SchedulerKind) -> SweepSpec {
    let registry = ScenarioRegistry::builtin();
    let mut scenarios = vec![registry.get("cache-pressure").expect("builtin preset").clone()];
    for scenario in &mut scenarios {
        scenario.scheduler = scheduler;
    }
    let variants =
        resilience_variants(&scenarios, &[0.0, intensity], &[RetryKind::None, RetryKind::Expo]);
    SweepSpec {
        scenarios: variants,
        seeds: vec![seed],
        scale: 0.0005,
        jobs,
        trace: None,
        series_interval_ms: None,
        progress: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A fault-injected resilience grid exports byte-identical JSON and
    /// CSV for `--jobs 1/2/8` on both schedulers, and the timing-wheel
    /// bytes equal the heap bytes — injection holds the standing
    /// determinism bar.
    #[test]
    fn resilience_bytes_do_not_depend_on_worker_count_or_scheduler(
        seed in 0u64..100_000,
        intensity in 0.05f64..0.3,
    ) {
        let j1 = run_sweep(&grid(seed, intensity, 1, SchedulerKind::Heap));
        let j2 = run_sweep(&grid(seed, intensity, 2, SchedulerKind::Heap));
        let j8 = run_sweep(&grid(seed, intensity, 8, SchedulerKind::Heap));
        prop_assert_eq!(j1.to_json(), j2.to_json());
        prop_assert_eq!(j2.to_json(), j8.to_json());
        prop_assert_eq!(j1.to_csv(), j2.to_csv());
        prop_assert_eq!(j2.to_csv(), j8.to_csv());

        let w1 = run_sweep(&grid(seed, intensity, 1, SchedulerKind::Wheel));
        let w8 = run_sweep(&grid(seed, intensity, 8, SchedulerKind::Wheel));
        prop_assert_eq!(w1.to_json(), w8.to_json());
        // The scheduler is a wall-clock knob only, faults included: the
        // injected windows land at identical (time, seq) slots.
        prop_assert_eq!(w1.to_json(), j1.to_json());
        prop_assert_eq!(w1.to_csv(), j1.to_csv());
    }
}

/// A zero-intensity fault plan (and an inert retry config) reproduces the
/// pre-fault golden sweep exports byte for byte, even with every other
/// `faults.*` / `retry.*` knob moved off its default: no windows, no RNG
/// draws, no extra events.
#[test]
fn zero_intensity_plan_reproduces_the_golden_sweep_exports() {
    let registry = ScenarioRegistry::builtin();
    let mut scenario = registry.get("paper-default").expect("builtin preset").clone();
    scenario.faults.window_s = 60.0;
    scenario.faults.net_slowdown = 0.9;
    scenario.faults.cloud_slowdown = 0.9;
    scenario.retry.base_delay_s = 1.0;
    scenario.retry.max_attempts = 9;
    let report = run_sweep(&SweepSpec {
        scenarios: vec![scenario],
        seeds: vec![2015, 2016],
        scale: 0.002,
        jobs: 2,
        trace: None,
        series_interval_ms: None,
        progress: false,
    });
    assert_eq!(
        report.to_json(),
        include_str!("golden/sweep_lru_paper_default_s2015x2_scale0002.json"),
        "a zero-intensity plan must not move a single byte of the golden sweep"
    );
    assert_eq!(
        report.to_csv(),
        include_str!("golden/sweep_lru_paper_default_s2015x2_scale0002.csv"),
        "a zero-intensity plan must not move a single byte of the golden CSV"
    );
}

/// The PR's acceptance criterion: on `cache-pressure` under the same
/// fault plan, exponential backoff shows a lower failure share than
/// `retry.policy=none`.
#[test]
fn expo_backoff_beats_no_retry_on_cache_pressure() {
    let report = run_sweep(&grid(2015, 0.2, 2, SchedulerKind::Heap));
    let cell = |name: &str| {
        report
            .cells
            .iter()
            .find(|c| c.scenario == name)
            .unwrap_or_else(|| panic!("grid cell `{name}`"))
    };
    let none = cell("cache-pressure/fault=0.2/retry=none");
    let expo = cell("cache-pressure/fault=0.2/retry=expo");
    assert!(
        expo.failure_ratio < none.failure_ratio,
        "expo should rescue stagnated tasks: {} vs {}",
        expo.failure_ratio,
        none.failure_ratio
    );
    // Same seed, same plan: both cells replayed the same workload.
    assert_eq!(expo.requests, none.requests);
}

/// The traced and series smart-AP replays inject the scenario's fault
/// plan exactly as the plain scenario replay does: on `flaky-week` the
/// three paths give the same records, and the faults raise failures.
#[test]
fn every_smart_ap_path_injects_the_scenario_faults() {
    let mut registry = ScenarioRegistry::builtin();
    registry.load_json(include_str!("../examples/flaky-week.json")).unwrap();
    let mut spec = registry.spec("flaky-week").expect("loaded scenario").clone();
    spec.set_path("retry.policy", &Json::Str("none".to_owned())).unwrap();
    let scenario = Scenario::from_spec(&spec.without_axes()).unwrap();
    let study = Study::generate_scenario(0.01, 2015, &scenario);

    let plain = study.replay_smart_aps_scenario(1000, &scenario);
    let (traced, _) = study.replay_smart_aps_traced(1000, &scenario, &TraceConfig::full());
    let (series, _) = study.replay_smart_aps_series(1000, &scenario, &Registry::new());
    assert_eq!(traced.failure_ratio(), plain.failure_ratio(), "traced path");
    assert_eq!(series.failure_ratio(), plain.failure_ratio(), "series path");
    let records = format!("{:?}", plain.records());
    assert_eq!(format!("{:?}", traced.records()), records);
    assert_eq!(format!("{:?}", series.records()), records);

    let calm = Scenario { faults: Default::default(), ..scenario.clone() };
    let unfaulted = study.replay_smart_aps_scenario(1000, &calm);
    assert!(
        plain.failure_ratio() > unfaulted.failure_ratio(),
        "the fault plan bites: {} vs {}",
        plain.failure_ratio(),
        unfaulted.failure_ratio()
    );
}
