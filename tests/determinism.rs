//! Reproducibility: the whole study is a pure function of (scale, seed).

use odx::Study;

#[test]
fn identical_seeds_produce_identical_studies() {
    let a = Study::generate(0.005, 1234);
    let b = Study::generate(0.005, 1234);
    assert_eq!(a.catalog.len(), b.catalog.len());
    assert_eq!(a.catalog.total_requests(), b.catalog.total_requests());
    assert_eq!(a.workload.requests()[..200], b.workload.requests()[..200]);

    let ra = a.replay_cloud();
    let rb = b.replay_cloud();
    assert_eq!(ra.counters.requests, rb.counters.requests);
    assert_eq!(ra.counters.cache_hits(), rb.counters.cache_hits());
    assert_eq!(ra.counters.predownload_failures(), rb.counters.predownload_failures());
    assert_eq!(ra.counters.rejected_fetches, rb.counters.rejected_fetches);
    assert_eq!(ra.fetches.len(), rb.fetches.len());
    assert_eq!(ra.fetch_speed_ecdf().median().unwrap(), rb.fetch_speed_ecdf().median().unwrap());

    let oa = a.replay_odr(500);
    let ob = b.replay_odr(500);
    assert_eq!(oa.impeded_ratio(), ob.impeded_ratio());
    assert_eq!(oa.cloud_upload_fraction(), ob.cloud_upload_fraction());
}

#[test]
fn different_seeds_differ_but_agree_on_calibrated_statistics() {
    let a = Study::generate(0.02, 1);
    let b = Study::generate(0.02, 2);
    // Micro-level: different draws.
    assert_ne!(a.workload.requests()[..50], b.workload.requests()[..50]);

    // Macro-level: the calibrated statistics agree across seeds.
    let ra = a.replay_cloud();
    let rb = b.replay_cloud();
    assert!((ra.hit_ratio() - rb.hit_ratio()).abs() < 0.02);
    assert!((ra.failure_ratio() - rb.failure_ratio()).abs() < 0.035);
    let ma = ra.fetch_speed_ecdf().median().unwrap();
    let mb = rb.fetch_speed_ecdf().median().unwrap();
    assert!((ma - mb).abs() / ma.max(mb) < 0.30, "{ma} vs {mb}");
}

#[test]
fn subsystem_rng_streams_are_isolated() {
    // Replaying the cloud must not perturb a later smart-AP replay: the
    // named-stream design guarantees it.
    let study = Study::generate(0.005, 777);
    let ap_first = study.replay_smart_aps(300);
    let _cloud = study.replay_cloud();
    let ap_second = study.replay_smart_aps(300);
    assert_eq!(ap_first.failure_ratio(), ap_second.failure_ratio());
    assert_eq!(ap_first.speed_ecdf().median().unwrap(), ap_second.speed_ecdf().median().unwrap());
}
