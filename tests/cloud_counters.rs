//! The cloud replay counts each event once, in its `Counters` tally, and
//! every `cloud.*` number the registry reports reads off that tally: for
//! every preset and every `examples/flaky-week.json` cell, each counter of
//! `Counters::METRICS` in a fresh-registry snapshot equals the table's
//! value of `WeekReport::counters`, and the ratio gauges equal the report's
//! ratios.

use odx::backend::{Scenario, ScenarioRegistry};
use odx::cloud::{Counters, XuanfengCloud};
use odx::net::Isp;
use odx::telemetry::Registry;
use odx::Study;

/// Every built-in preset plus both cells of the flaky-week example (a
/// fault plan with and without retries).
fn cells() -> Vec<Scenario> {
    let mut registry = ScenarioRegistry::builtin();
    let mut cells = registry.resolve("all").expect("builtin selector");
    registry.load_json(include_str!("../examples/flaky-week.json")).expect("example file");
    cells.extend(registry.resolve("flaky-week").expect("loaded scenario"));
    cells
}

#[test]
fn every_cloud_counter_reads_off_the_one_tally() {
    let mut failed_joins = 0;
    let mut retries = 0;
    for scenario in cells() {
        let name = &scenario.name;
        let study = Study::generate_scenario(0.01, 2015, &scenario);
        let registry = Registry::new();
        let report = XuanfengCloud::replay_with_registry(
            &study.catalog,
            &study.population,
            &study.workload,
            study.scenario_cloud_config(&scenario),
            &study.rngs,
            &registry,
        );
        let snapshot = registry.snapshot();
        let c = &report.counters;
        for (metric, value) in Counters::METRICS {
            assert_eq!(snapshot.counters[metric], value(c), "{name}: {metric}");
        }
        // The only other `cloud.*` counters are the backend's upload
        // admissions, which cover every fetch attempt.
        let untabled: Vec<&String> = snapshot
            .counters
            .keys()
            .filter(|k| k.starts_with("cloud."))
            .filter(|k| Counters::METRICS.iter().all(|(metric, _)| metric != k))
            .collect();
        assert!(untabled.iter().all(|k| k.starts_with("cloud.upload.")), "{name}: {untabled:?}");
        let admitted: u64 = Isp::MAJORS
            .iter()
            .map(|isp| snapshot.counters[&format!("cloud.upload.admit.{}", isp.lowercase_name())])
            .sum();
        assert_eq!(snapshot.counters["cloud.upload.reject"], c.rejected_fetches, "{name}");
        assert_eq!(admitted + c.rejected_fetches, report.fetches.len() as u64, "{name}");
        // `cloud.cache.hit` counts joiners of pre-downloads that later
        // failed; the report's hits do not.
        assert_eq!(snapshot.counters["cloud.cache.hit"] - c.failed_joins, c.cache_hits(), "{name}");
        let ratios = [
            ("cloud.hit_ratio", report.hit_ratio()),
            ("cloud.failure_ratio", report.failure_ratio()),
            ("cloud.rejection_ratio", report.rejection_ratio()),
            ("cloud.impeded_ratio", report.impeded_ratio()),
        ];
        for (gauge, ratio) in ratios {
            assert_eq!(snapshot.gauges[gauge].to_bits(), ratio.to_bits(), "{name}: {gauge}");
        }
        failed_joins += c.failed_joins;
        retries += c.retry_attempts;
    }
    // The grid exercises the two counts the registry and report disagree
    // on, and the retry path.
    assert!(failed_joins > 0 && retries > 0, "failed joins {failed_joins}, retries {retries}");
}
