//! Tests of the benchmark's own helpers: order statistics, the tail
//! rule, output digests, spans, result lines and compare verdicts.

use odx::proto::Json;
use odxbench::compare::{compare, load_specs, verdict, MetricSpec, Record, Verdict};
use odxbench::record::{RunResult, END_TO_END, PER_LAYER};
use odxbench::spans::Spans;
use odxbench::stats::{median, percentile, quartiles, sorted, spread, supported_tail, Histogram};
use odxbench::{provenance, week, Workload, SAMPLE};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's `statistics.quantiles(data, n=4)`.
    let cases: [(&[f64], [f64; 3]); 5] = [
        (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], [2.75, 5.5, 8.25]),
        (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
        (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
        (&[5.0, 1.0], [0.0, 3.0, 6.0]),
        (&[0.5, 0.25, 4.0, 8.0, 1.0, 2.0, 16.0], [0.5, 2.0, 8.0]),
    ];
    for (data, expected) in cases {
        assert_eq!(quartiles(data), expected, "quartiles of {data:?}");
    }
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0]), (3.75 - 1.25) / 2.5);
}

#[test]
fn percentile_is_nearest_rank() {
    let data: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&data, 50.0), 50.0);
    assert_eq!(percentile(&data, 99.0), 99.0);
    assert_eq!(percentile(&data, 100.0), 100.0);
    assert_eq!(percentile(&[7.0, 9.0, 11.0], 99.0), 11.0, "few samples: p99 is the maximum");
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let tail = |n: usize| {
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        supported_tail(&data).map(|t| (t.percentile, t.beyond, t.samples))
    };
    assert_eq!(tail(10), None, "the median has only five beyond it");
    assert_eq!(tail(20), Some((50.0, 10, 20)));
    assert_eq!(tail(999), Some((90.0, 99, 999)), "p99 would leave nine beyond");
    assert_eq!(tail(1000), Some((99.0, 10, 1000)));
    assert_eq!(tail(10_000), Some((99.9, 10, 10_000)));
    assert_eq!(tail(100_000), Some((99.99, 10, 100_000)));
    let data: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(supported_tail(&data).map(|t| t.value), Some(990.0));
}

#[test]
fn histogram_percentiles_match_the_sample_to_a_bin() {
    // 1..=1000 µs, then two durations past the binned range: 25 ms and a
    // failed request's u32::MAX ns.
    let mut ns: Vec<u32> = (1..=1000).map(|i| i * 1000).collect();
    ns.extend([u32::MAX, 25_000_000]);
    let mut hist = Histogram::default();
    for &v in &ns {
        hist.record(v);
    }
    let exact = sorted(&ns.iter().map(|&v| f64::from(v) * 1e-6).collect::<Vec<_>>());
    assert_eq!(hist.len(), 1002);
    for p in [50.0, 90.0, 99.0] {
        let (h, e) = (hist.percentile(p), percentile(&exact, p));
        assert!(h >= e && h - e <= 1e-4 + 1e-12, "p{p}: {h} vs {e}");
    }
    // Past the bins, values are exact.
    assert_eq!(hist.percentile(99.9), 25.0);
    assert_eq!(hist.percentile(100.0), f64::from(u32::MAX) * 1e-6);
    let (h, e) = (hist.supported_tail().unwrap(), supported_tail(&exact).unwrap());
    assert_eq!((h.percentile, h.beyond, h.samples), (e.percentile, e.beyond, e.samples));
    assert!((h.value - e.value).abs() <= 1e-4 + 1e-12, "{h:?} vs {e:?}");
    assert_eq!(Histogram::default().supported_tail(), None);
}

#[test]
fn window_medians_scale_each_window_then_take_medians() {
    use odxbench::decide::{window_medians, Phase};
    let window = |rtt_ns: Vec<u32>, wall_s: f64, failed: u64| {
        Phase { attempted: rtt_ns.len() as u64, rtt_ns, failed, wall_s, ..Default::default() }
            .figures()
    };
    let micros: Vec<u32> = (1..=1000).map(|i| i * 1000).collect();
    // The second window ran twice as fast on a host twice as fast: its
    // factor 2 doubles its times and halves its rate. The third is too
    // small to support a percentile and holds one failed request.
    let small =
        window(vec![1_000_000, 1_000_000, 1_000_000, 1_000_000, 1_000_000, u32::MAX], 1.0, 1);
    let windows = [window(micros.clone(), 1.0, 0), window(micros, 0.5, 0), small];
    let m = window_medians(&windows, &[1.0, 2.0, 1.0]);
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
    assert!(close(m.p50_ms, 0.75), "{m:?}");
    assert!(close(m.p90_ms, 1.35), "{m:?}");
    assert!(close(m.p99_ms, 1.485), "{m:?}");
    assert!(close(m.rps, 1000.0), "{m:?}");
    // With no window supporting a percentile, all windows count.
    let unsupported = window_medians(&windows[2..], &[1.0]);
    assert!(close(unsupported.p50_ms, 1.0) && close(unsupported.rps, 5.0), "{unsupported:?}");
}

#[test]
fn week_digest_is_stable_and_unchanged_by_profiling() {
    let scenario = week::scenario("cache-pressure");
    let run = |profiled: bool| {
        let setup = week::generate(&scenario, 0.002, 7, None);
        week::run_week(&setup.study, &scenario, SAMPLE / 10, profiled, None)
    };
    let (a, b, traced) = (run(false), run(false), run(true));
    assert!(a.problems.is_empty(), "{:?}", a.problems);
    assert!(a.sim_events > 0);
    assert_eq!((a.sim_events, &a.digest), (b.sim_events, &b.digest), "two identical runs");
    assert_eq!((a.sim_events, &a.digest), (traced.sim_events, &traced.digest), "profiled run");
    assert!(traced.prof.is_some() && a.prof.is_none());
    let other_seed = {
        let setup = week::generate(&scenario, 0.002, 8, None);
        week::run_week(&setup.study, &scenario, SAMPLE / 10, false, None)
    };
    assert_ne!(a.digest, other_seed.digest, "the digest sees the seed");
}

#[test]
fn timed_generation_builds_the_same_study_as_the_facade() {
    let scenario = week::scenario("paper-default");
    let timed = week::generate(&scenario, 0.002, 11, None);
    let facade = odx::Study::generate_scenario(0.002, 11, &scenario);
    assert_eq!(timed.study.workload.len(), facade.workload.len());
    let a = week::run_week(&timed.study, &scenario, 50, false, None);
    let b = week::run_week(&facade, &scenario, 50, false, None);
    assert_eq!(a.digest, b.digest);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let mut spans = Spans::new();
    let root = spans.record_ns("week", 0, 1, 0, 100);
    spans.record_ns("a", root, 1, 10, 30);
    spans.record_ns("b", root, 1, 20, 50);
    spans.record_ns("elsewhere", 0, 2, 0, 1000);
    let own = spans.self_secs_under("week");
    assert!((own["week"] - 60e-9).abs() < 1e-15);
    assert!((own["a"] - 20e-9).abs() < 1e-15);
    assert!(!own.contains_key("elsewhere"), "spans outside the root's tree are left out");
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut result = RunResult {
        attempted: 3,
        failed: 0,
        metrics: END_TO_END.iter().map(|(n, _)| (*n, 1.5)).collect(),
        outputs: vec![],
        notes: vec![],
        provenance: Json::Null,
        trace: false,
    };
    let line = Json::parse(&result.final_line()).expect("valid JSON");
    let Json::Obj(map) = &line else { panic!("object") };
    assert_eq!(map.keys().collect::<Vec<_>>(), ["attempted", "correct", "failed", "metrics"]);
    let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("metrics object") };
    assert_eq!(metrics.len(), END_TO_END.len());
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    result.failed = 1;
    let line = Json::parse(&result.final_line()).expect("valid JSON");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
}

#[test]
fn metric_tables_match_benchmark_json() {
    let (end_to_end, per_layer) =
        load_specs(&provenance::repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let names = |specs: &[MetricSpec]| -> Vec<(String, String)> {
        specs.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
    };
    assert_eq!(names(&end_to_end), table(&END_TO_END));
    assert_eq!(names(&per_layer), table(&PER_LAYER));
    assert!(end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    let setup = end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
    let widest = end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    assert_eq!(Workload::ALL.len(), 3);
}

#[test]
fn verdicts_on_synthetic_sets() {
    let base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0];
    let scaled = |k: f64| base.iter().map(|v| v * k).collect::<Vec<_>>();
    // Lower is better (a time).
    assert_eq!(verdict(&base, &base, 0.1, false), Verdict::Unchanged);
    assert_eq!(verdict(&base, &scaled(1.05), 0.1, false), Verdict::Unchanged);
    assert_eq!(verdict(&base, &scaled(1.2), 0.1, false), Verdict::Worse);
    assert_eq!(verdict(&base, &scaled(0.9), 0.1, false), Verdict::Improved);
    // Higher is better (a rate): the same moves read the other way.
    assert_eq!(verdict(&base, &scaled(0.8), 0.1, true), Verdict::Worse);
    assert_eq!(verdict(&base, &scaled(1.1), 0.1, true), Verdict::Improved);
    // A spread wider than the bound leaves the metric unresolved ...
    let wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0];
    assert_eq!(verdict(&base, &wide, 0.1, false), Verdict::Unresolved);
    // ... unless every changed run reads better than every base run.
    let wide_low: Vec<f64> = wide.iter().map(|v| v * 0.3).collect();
    assert_eq!(verdict(&base, &wide_low, 0.1, false), Verdict::Improved);
    // Every changed run worse than every base run is a regression only
    // when the medians also differ by more than the bound.
    let wide_high = [101.0, 101.5, 102.0, 102.5, 103.0, 104.0, 125.0, 130.0, 140.0, 150.0];
    assert!(spread(&wide_high) > 0.1, "the changed spread is wider than the bound");
    assert_eq!(verdict(&base, &wide_high, 0.1, false), Verdict::Unresolved, "+3.5% only");
    let wide_far: Vec<f64> = wide_high.iter().map(|v| v * 1.2).collect();
    assert_eq!(verdict(&base, &wide_far, 0.1, false), Verdict::Worse);
    // A small gain that loses pairs is no gain.
    let mixed = [99.0, 101.5, 98.0, 101.0, 98.5, 100.9, 98.8, 100.8, 98.9, 99.0];
    assert_eq!(verdict(&base, &mixed, 0.1, false), Verdict::Unchanged);
}

fn record(workload: &str, seed: u64, digest: &str, value: f64, failed: u64) -> Record {
    let json = format!(
        r#"{{"correct":{},"attempted":4,"failed":{failed},"metrics":{{"op_p50_ms":{{"value":{value},"unit":"ms"}}}},"outputs":{{"digest":"{digest}"}},"provenance":{{"workload":"{workload}","seed":{seed},"trace":false}}}}"#,
        failed == 0
    );
    Record::parse(&json).expect("record parses")
}

#[test]
fn compare_agrees_on_equal_sets_and_fails_hard_on_mismatch() {
    let spec = vec![MetricSpec {
        name: "op_p50_ms".to_owned(),
        unit: "ms".to_owned(),
        higher_is_better: false,
        bound: Some(0.1),
    }];
    let set = |k: f64| -> Vec<Record> {
        (1..=5)
            .map(|s| record("paper-week", s, &format!("d{s}"), 100.0 * k + s as f64 * 0.1, 0))
            .collect()
    };
    let same = compare(&set(1.0), &set(1.01), &spec, &[]).expect("no mismatch");
    assert!(same.agree, "{}", same.report);
    assert!(same.report.contains("unchanged"));
    let slower = compare(&set(1.0), &set(1.3), &spec, &[]).expect("no mismatch");
    assert!(!slower.agree && slower.report.contains("worse"), "{}", slower.report);

    let mut bad = set(1.0);
    bad[2] = record("paper-week", 3, "other", 100.0, 0);
    assert!(compare(&set(1.0), &bad, &spec, &[]).is_err(), "digest mismatch fails hard");
    let mut failed = set(1.0);
    failed[0] = record("paper-week", 1, "d1", 100.0, 1);
    assert!(compare(&failed, &set(1.0), &spec, &[]).is_err(), "a failed check fails hard");
}
