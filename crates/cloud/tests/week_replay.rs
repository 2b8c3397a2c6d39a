//! Integration test: the full measurement-week replay at a scale large
//! enough for the per-ISP pool granularity to wash out, pinned against the
//! paper's §4 numbers (see EXPERIMENTS.md for the full ledger).

use odx_cloud::{CloudConfig, XuanfengCloud};
use odx_sim::RngFactory;
use odx_telemetry::Registry;
use odx_trace::{Catalog, CatalogConfig, Population, PopulationConfig, Workload, WorkloadConfig};
use rand::SeedableRng;

const SCALE: f64 = 0.05;

fn replay(scale: f64, seed: u64, cfg: CloudConfig) -> odx_cloud::WeekReport {
    let rngs = RngFactory::new(seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let catalog = Catalog::generate(&CatalogConfig::scaled(scale), &mut rng);
    let population = Population::generate(&PopulationConfig::scaled(scale), &mut rng);
    let workload = Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
    let registry = Registry::new();
    XuanfengCloud::replay_with_registry(&catalog, &population, &workload, cfg, &rngs, &registry)
}

#[test]
fn week_replay_reproduces_section4() {
    let report = replay(SCALE, 2015, CloudConfig::at_scale(SCALE));

    // §2.1: 89 % of requests instantly satisfied from the pool.
    let hit = report.hit_ratio();
    assert!((hit - 0.89).abs() < 0.04, "cache hit ratio {hit}");

    // §4.1: overall failure ratio 8.7 %.
    let fail = report.failure_ratio();
    assert!((fail - 0.087).abs() < 0.035, "failure ratio {fail}");

    // Fig 8: fetch speed median 287 / mean 504 KBps, max 6.1 MBps.
    let fetch = report.fetch_speed_ecdf().summary().unwrap();
    assert!((fetch.median - 287.0).abs() / 287.0 < 0.20, "fetch median {}", fetch.median);
    assert!((fetch.mean - 504.0).abs() / 504.0 < 0.20, "fetch mean {}", fetch.mean);
    assert!(fetch.max <= 6250.0);

    // §4.2: 28 % of fetches below the 125 KBps HD threshold.
    let impeded = report.impeded_ratio();
    assert!((impeded - 0.28).abs() < 0.06, "impeded {impeded}");

    // §4.2: a small fraction of fetches rejected at the peak.
    let rejected = report.rejection_ratio();
    assert!(rejected > 0.0 && rejected < 0.03, "rejection ratio {rejected}");

    // Fig 9: pre-download delay median 82 minutes over misses.
    let pd_delay = report.predownload_delay_ecdf().summary().unwrap();
    assert!((pd_delay.median - 82.0).abs() / 82.0 < 0.25, "pd delay median {}", pd_delay.median);
    assert!(pd_delay.mean > 2.0 * pd_delay.median, "pd delay heavy tail");

    // Fig 9: fetch delay median 7 minutes.
    let fetch_delay = report.fetch_delay_ecdf().summary().unwrap();
    assert!((fetch_delay.median - 7.0).abs() < 3.5, "fetch delay median {}", fetch_delay.median);

    // §4.3: the end-to-end CDFs sit between the phase CDFs, closer to the
    // fetch phase (most requests hit the cache).
    let e2e_delay = report.end_to_end_delay_ecdf().median().unwrap();
    assert!(e2e_delay >= fetch_delay.median && e2e_delay < pd_delay.median);

    // §4.1: pre-download traffic ≈ 196 % of payload.
    let overhead = report.traffic_overhead_factor();
    assert!((overhead - 1.96).abs() < 0.2, "traffic overhead {overhead}");

    // Fig 11: burden peaks late in the week near/above the 30 Gbps cap
    // (scaled), with ≈ 40 % of it from highly popular files.
    let cap_gbps = odx_net::kbps_to_gbps(CloudConfig::at_scale(SCALE).scaled_upload_kbps());
    let peak = report.peak_burden_gbps();
    assert!(peak > 0.95 * cap_gbps, "peak {peak} vs cap {cap_gbps}");
    let (peak_bin, _) = report.burden_kbps.peak_bin();
    let peak_day = peak_bin as f64 * 300.0 / 86_400.0;
    assert!(peak_day > 5.0, "peak should land on the last days: day {peak_day:.1}");
    let hot = report.hot_burden_fraction();
    assert!((hot - 0.40).abs() < 0.12, "hot burden fraction {hot}");

    // Fig 10: failure ratio falls with popularity.
    let bins = &report.failure_by_popularity;
    assert!(bins.first().unwrap().1 > bins.last().unwrap().1 + 0.05);
}

#[test]
fn no_cache_counterfactual_matches_section4() {
    let mut cfg = CloudConfig::at_scale(0.02);
    let with_cache = replay(0.02, 2016, cfg).failure_ratio();
    cfg.cache_enabled = false;
    let without = replay(0.02, 2016, cfg).failure_ratio();
    // §4.1: 8.7 % → 16.4 % without the pool.
    assert!((without - 0.164).abs() < 0.05, "no-cache failure {without}");
    assert!(without > 1.5 * with_cache, "{with_cache} → {without}");
}
