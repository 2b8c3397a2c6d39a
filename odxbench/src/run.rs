//! One benchmark run: repeat the workload's unit of work for the asked
//! seconds, check every output, and reduce the timings to metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use odx::proto::Json;

use crate::decide::{self, DecideSetup, Phase, WindowMedians};
use crate::probe::{host_probe_s, loopback_probe_s, REFERENCE_LOOPBACK_S, REFERENCE_PROBE_S};
use crate::provenance::{self, RunSettings};
use crate::record::{self, RunResult, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{median, percentile, sorted, Histogram};
use crate::week::{self, WeekOutcome};
use crate::{Workload, SAMPLE, SCALE};

/// Weeks a run makes at least, whatever the asked seconds, so that the
/// p90 is taken over ten samples (five plain and five profiled weeks in
/// a traced run).
const MIN_WEEKS: usize = 10;
/// Set-ups an odr-decide run makes; the median is reported.
const DECIDE_SETUPS: usize = 5;
/// Untimed closed-loop warm-up before an odr-decide measurement.
const WARM_UP: Duration = Duration::from_millis(500);
/// Length of one closed-loop window of a plain odr-decide run.
const DECIDE_WINDOW: Duration = Duration::from_millis(500);
/// Windows a plain odr-decide run makes at least.
const MIN_WINDOWS: usize = 5;

/// Run `workload` and return its result. Progress lines go to stdout;
/// a traced run also writes its spans under `out`.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool, out: &Path) -> RunResult {
    let scenario = week::scenario(workload.preset());
    let provenance = provenance::collect(&RunSettings {
        workload: workload.name(),
        seed,
        seconds,
        trace,
        scale: SCALE,
        preset: workload.preset(),
        scheduler: scenario.scheduler.name(),
        cache_policy: scenario.cache.policy.name(),
    });
    let mode = if trace { "traced" } else { "plain" };
    println!("odxbench {} seed {seed} {seconds}s {mode}", workload.name());
    println!("provenance {}", provenance.to_string_compact());
    let budget = Duration::from_secs(seconds);
    let mut spans = trace.then(Spans::new);
    let mut result = match workload {
        Workload::OdrDecide => decide_run(workload, &scenario, seed, budget, spans.as_mut()),
        _ => week_run(workload, &scenario, seed, budget, spans.as_mut()),
    };
    if !trace {
        // Read at the end of the run, so that the peak covers everything
        // the workload did. Without procfs the run cannot report it.
        match odx_bench::peak_rss_mb() {
            Some(mb) => {
                result.metrics.insert("peak_rss_mb", mb);
            }
            None => {
                println!("FAILED: no peak resident set (VmHWM) to read");
                result.failed += 1;
                result.metrics.insert("peak_rss_mb", 0.0);
            }
        }
    }
    result.provenance = provenance;
    if let Some(spans) = spans {
        let path = out.join(format!("spans-{}.tsv", workload.name()));
        let written = std::fs::create_dir_all(out)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| spans.write_tsv(std::io::BufWriter::new(f)));
        match written {
            Ok(()) => println!("spans: {} written to {}", spans.spans().len(), path.display()),
            Err(e) => println!("spans: not written ({e})"),
        }
        let roots: &[&str] =
            if workload == Workload::OdrDecide { &["decide.request"] } else { &["setup", "week"] };
        for root in roots {
            print_attribution(root, &spans);
        }
    }
    result
}

/// One repetition of a week workload.
struct WeekRep {
    setup_s: f64,
    /// Mean of the host probe just before and just after the repetition.
    host_s: f64,
    catalog_s: f64,
    population_s: f64,
    workload_s: f64,
    profiled: bool,
    outcome: WeekOutcome,
}

fn week_run(
    workload: Workload,
    scenario: &odx::backend::Scenario,
    seed: u64,
    budget: Duration,
    mut spans: Option<&mut Spans>,
) -> RunResult {
    let traced = spans.is_some();
    let start = Instant::now();
    let mut reps: Vec<WeekRep> = Vec::new();
    let mut failed = 0;
    // The probe's first pass faults its buffers in; it is not kept.
    host_probe_s();
    let mut probe_s = vec![host_probe_s()];
    loop {
        // A traced run alternates plain and profiled weeks, so that its
        // overhead and its digests are compared within one process.
        let profiled = traced && reps.len() % 2 == 1;
        let group = reps.len() as u64 + 1;
        let rep_start = Instant::now();
        let span_slot = spans.as_deref_mut().filter(|_| profiled);
        let (setup, outcome) = match span_slot {
            Some(s) => {
                let setup = week::generate(scenario, SCALE, seed, Some((&mut *s, group)));
                let outcome =
                    week::run_week(&setup.study, scenario, SAMPLE, true, Some((s, group)));
                (setup, outcome)
            }
            None => {
                let setup = week::generate(scenario, SCALE, seed, None);
                let outcome = week::run_week(&setup.study, scenario, SAMPLE, profiled, None);
                (setup, outcome)
            }
        };
        let rep = WeekRep {
            setup_s: setup.total_s(),
            host_s: 0.0,
            catalog_s: setup.catalog_s,
            population_s: setup.population_s,
            workload_s: setup.workload_s,
            profiled,
            outcome,
        };
        drop(setup);
        let first_digest = reps.first().map_or(&rep.outcome.digest, |r| &r.outcome.digest);
        let pin = record::pin_status(workload, seed, rep.outcome.sim_events, &rep.outcome.digest);
        let mut problems = rep.outcome.problems.clone();
        if &rep.outcome.digest != first_digest {
            problems.push(format!("digest {} != first week's {first_digest}", rep.outcome.digest));
        }
        if pin == "mismatch" {
            problems.push("outputs differ from the pinned ones".to_owned());
        }
        if !problems.is_empty() {
            failed += 1;
        }
        println!(
            "week {} ({}): setup {:.3}s week {:.3}s [{}] events {} digest {} pin {pin}{}",
            reps.len() + 1,
            if rep.profiled { "profiled" } else { "plain" },
            rep.setup_s,
            rep.outcome.week_s,
            rep.outcome
                .phase_s
                .iter()
                .map(|(k, v)| format!("{k} {v:.3}"))
                .collect::<Vec<_>>()
                .join(", "),
            rep.outcome.sim_events,
            rep.outcome.digest,
            if problems.is_empty() { String::new() } else { format!(" FAILED: {problems:?}") }
        );
        reps.push(rep);
        probe_s.push(host_probe_s());
        if reps.len() >= MIN_WEEKS && start.elapsed() + rep_start.elapsed() > budget {
            break;
        }
    }
    for (i, rep) in reps.iter_mut().enumerate() {
        rep.host_s = (probe_s[i] + probe_s[i + 1]) / 2.0;
    }
    let first = &reps[0].outcome;
    println!("headline {}", first.headline);
    let attempted = reps.len() as u64;
    let pin = record::pin_status(workload, seed, first.sim_events, &first.digest);
    let outputs = vec![
        ("sim_events", Json::Num(first.sim_events as f64)),
        ("digest", Json::Str(first.digest.clone())),
        ("pin", Json::Str(pin.to_owned())),
        ("headline", Json::Str(first.headline.clone())),
    ];
    let plain: Vec<&WeekRep> = reps.iter().filter(|r| !r.profiled).collect();
    let week_s: Vec<f64> = plain.iter().map(|r| r.outcome.week_s).collect();
    let events_per_s: Vec<f64> = plain
        .iter()
        .map(|r| r.outcome.sim_events as f64 / r.outcome.phase_s["cloud.replay"])
        .collect();
    let mut notes = vec![
        ("week_s".to_owned(), Json::Num(median(&week_s))),
        ("replay_events_per_s".to_owned(), Json::Num(median(&events_per_s))),
        ("fail_ratio".to_owned(), Json::Str(format!("{failed}/{attempted} weeks"))),
        ("weeks_s".to_owned(), Json::Arr(week_s.iter().map(|&s| Json::Num(s)).collect())),
        ("probe_s".to_owned(), Json::Arr(probe_s.iter().map(|&s| Json::Num(s)).collect())),
        ("setups_s".to_owned(), Json::Arr(reps.iter().map(|r| Json::Num(r.setup_s)).collect())),
    ];
    let mut metrics = BTreeMap::new();
    if !traced {
        // The host's speed moves by tens of percent for minutes at a time;
        // each repetition's times are scaled to the reference host by the
        // probe taken around it. The raw figures stay in the notes.
        let at_ref = |r: &WeekRep| REFERENCE_PROBE_S / r.host_s;
        let setup_ref: Vec<f64> = reps.iter().map(|r| r.setup_s * at_ref(r)).collect();
        let week_ref: Vec<f64> = plain.iter().map(|r| r.outcome.week_s * at_ref(r)).collect();
        let events_ref: Vec<f64> =
            plain.iter().zip(&events_per_s).map(|(r, eps)| eps / at_ref(r)).collect();
        metrics.insert("setup_s", median(&setup_ref));
        metrics.insert("op_p50_ms", median(&week_ref) * 1e3);
        metrics.insert("op_p90_ms", percentile(&sorted(&week_ref), 90.0) * 1e3);
        metrics.insert("work_per_s", median(&events_ref));
        println!(
            "week_s {:.4} (median of {}), replay_events_per_s {:.0}, fail_ratio {failed}/{attempted}; \
             at the reference host speed: week_s {:.4}, replay_events_per_s {:.0}",
            median(&week_s),
            week_s.len(),
            median(&events_per_s),
            median(&week_ref),
            median(&events_ref)
        );
    } else {
        let profiled: Vec<&WeekRep> = reps.iter().filter(|r| r.profiled).collect();
        let med = |f: &dyn Fn(&WeekRep) -> f64| {
            median(&profiled.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let phase = |r: &WeekRep, name: &str| r.outcome.phase_s.get(name).copied().unwrap_or(0.0);
        let prof = |r: &WeekRep, label: &str| {
            r.outcome.prof.as_ref().map_or(0.0, |(rows, _)| {
                rows.iter().find(|row| row.label == label).map_or(0.0, |row| row.secs)
            })
        };
        let run_s = |r: &WeekRep| r.outcome.prof.as_ref().map_or(0.0, |(_, s)| *s);
        metrics.insert("trace.catalog_s", med(&|r| r.catalog_s));
        metrics.insert("trace.population_s", med(&|r| r.population_s));
        metrics.insert("trace.workload_s", med(&|r| r.workload_s));
        metrics.insert("cloud.replay_s", med(&|r| phase(r, "cloud.replay")));
        metrics.insert("prof.sched.pop_s", med(&|r| prof(r, "sched.pop")));
        metrics.insert("prof.other_s", med(&|r| prof(r, "other")));
        for (label, name) in [
            ("handler.arrive", "prof.handler.arrive_s"),
            ("handler.fetch_begin", "prof.handler.fetch_begin_s"),
            ("handler.fetch_end", "prof.handler.fetch_end_s"),
            ("handler.predl_done", "prof.handler.predl_done_s"),
        ] {
            metrics.insert(name, med(&|r| prof(r, label)));
        }
        metrics.insert(
            "replay.unattributed_share",
            med(&|r| {
                let replay = phase(r, "cloud.replay");
                (prof(r, "other") + replay - run_s(r)) / replay
            }),
        );
        metrics.insert("report.build_s", med(&|r| phase(r, "report.build")));
        metrics.insert("export.tsv_s", med(&|r| phase(r, "export.tsv")));
        metrics.insert("export.metrics_s", med(&|r| phase(r, "export.metrics")));
        metrics.insert("ap.replay_s", med(&|r| phase(r, "ap.replay")));
        metrics.insert("odr.eval_s", med(&|r| phase(r, "odr.eval")));
        metrics.insert(
            "week.unattributed_share",
            med(&|r| {
                (r.outcome.week_s - r.outcome.phase_s.values().sum::<f64>()) / r.outcome.week_s
            }),
        );
        let plain_replay: Vec<f64> = plain.iter().map(|r| phase(r, "cloud.replay")).collect();
        let traced_week = med(&|r| r.outcome.week_s);
        let overhead_replay = metrics["cloud.replay_s"] / median(&plain_replay) - 1.0;
        let overhead_week = traced_week / median(&week_s) - 1.0;
        metrics.insert("trace.overhead_replay", overhead_replay);
        metrics.insert("trace.overhead_week", overhead_week);
        for (name, value) in &first.counts {
            metrics.insert(name, *value);
        }
        println!(
            "tracing overhead (profiled vs plain weeks, medians of {} vs {}): replay {:+.1}%, week {:+.1}%",
            profiled.len(),
            plain.len(),
            overhead_replay * 100.0,
            overhead_week * 100.0
        );
        notes.push(("trace.overhead_replay".to_owned(), Json::Num(overhead_replay)));
        notes.push(("trace.overhead_week".to_owned(), Json::Num(overhead_week)));
    }
    fill_unexercised(&mut metrics, traced);
    RunResult { attempted, failed, metrics, outputs, notes, provenance: Json::Null, trace: traced }
}

fn decide_run(
    workload: Workload,
    scenario: &odx::backend::Scenario,
    seed: u64,
    budget: Duration,
    mut spans: Option<&mut Spans>,
) -> RunResult {
    let traced = spans.is_some();
    let mut setup_s = Vec::new();
    let mut setup_ref = Vec::new();
    let mut kept: Option<DecideSetup> = None;
    // Set-up is single-threaded generation and request building, like the
    // weeks' set-up, and is scaled the same way.
    host_probe_s();
    let mut probe_s = vec![host_probe_s()];
    for _ in 0..DECIDE_SETUPS {
        // Drop the previous set-up first, so the peak resident set holds
        // one study, as a user's process would.
        drop(kept.take());
        let s = decide::setup(scenario, SCALE, seed, spans.as_deref_mut());
        probe_s.push(host_probe_s());
        let host_s = (probe_s[probe_s.len() - 2] + probe_s[probe_s.len() - 1]) / 2.0;
        setup_ref.push(s.total_s() * REFERENCE_PROBE_S / host_s);
        println!(
            "setup: {:.3}s (generation {:.3}s, directory {:.3}s, requests {:.3}s), answers {}",
            s.total_s(),
            s.setup.total_s(),
            s.load_s,
            s.build_s,
            s.answers
        );
        setup_s.push(s.total_s());
        kept = Some(s);
    }
    let setup = kept.expect("at least one set-up");
    let mut attempted = 0;
    let mut failed = 0;
    let warm = decide::run_phase(&setup, WARM_UP, None);
    attempted += warm.attempted;
    failed += warm.failed;

    let pin = record::pin_status(workload, seed, 0, &setup.answers);
    if pin == "mismatch" {
        failed += 1;
        println!("FAILED: answers differ from the pinned ones");
    }
    let outputs = vec![
        ("answers", Json::Str(setup.answers.clone())),
        ("pin", Json::Str(pin.to_owned())),
        ("directory", Json::Num(setup.service.directory_len() as f64)),
    ];
    let mut notes = Vec::new();
    let mut metrics = BTreeMap::new();
    if !traced {
        // The closed loop runs in windows with both host probes between
        // each two, while the server is down. Each window's figures are
        // scaled to the reference host by the probes around it, and each
        // figure is the median over the windows, so that a few seconds of
        // host contention do not move it. A window's round trips are
        // reduced to its figures and a fixed histogram as soon as it ends,
        // so that the latency log's memory does not grow with the rate.
        let start = Instant::now();
        let (mut windows, mut factors) = (Vec::new(), Vec::new());
        let mut rtt = Histogram::default();
        let (mut requests, mut window_failed, mut wall_s) = (0, 0, 0.0);
        loopback_probe_s();
        let mut loopback_s = vec![loopback_probe_s()];
        probe_s.push(host_probe_s());
        while windows.len() < MIN_WINDOWS || start.elapsed() + DECIDE_WINDOW <= budget {
            let phase = decide::run_phase(&setup, DECIDE_WINDOW, None);
            loopback_s.push(loopback_probe_s());
            probe_s.push(host_probe_s());
            let around = |xs: &[f64]| (xs[xs.len() - 2] + xs[xs.len() - 1]) / 2.0;
            let (host_s, lo_s) = (around(&probe_s), around(&loopback_s));
            requests += phase.attempted;
            window_failed += phase.failed;
            wall_s += phase.wall_s;
            for &ns in &phase.rtt_ns {
                rtt.record(ns);
            }
            println!(
                "window {}: {:.0} rps, {} failed, host probe {host_s:.4}s, loopback probe {lo_s:.4}s",
                windows.len() + 1,
                phase.rps(),
                phase.failed
            );
            windows.push(phase.figures());
            factors.push(decide_factor(host_s, lo_s));
        }
        attempted += requests;
        failed += window_failed;
        let loopback = loopback_s.iter().map(|&s| Json::Num(s)).collect();
        notes.push(("loopback_probe_s".to_owned(), Json::Arr(loopback)));
        let raw = decide::window_medians(&windows, &vec![1.0; windows.len()]);
        let at_ref = decide::window_medians(&windows, &factors);
        metrics.insert("op_p50_ms", at_ref.p50_ms);
        metrics.insert("op_p90_ms", at_ref.p90_ms);
        metrics.insert("work_per_s", at_ref.rps);
        notes.extend(decide_notes(&rtt, &raw, (window_failed, requests, wall_s)));
        println!(
            "medians over {} windows: decide_rps {:.0}, decide_p50_us {:.1}, decide_p90_us {:.1}, \
             decide_p99_us {:.1}; whole run: {:.0} rps, p50 {:.1} us, p99 {:.1} us; {requests} \
             requests, {window_failed} failed, {wall_s:.2}s; at the reference host speed: \
             decide_rps {:.0}, decide_p50_us {:.1}, decide_p90_us {:.1}",
            windows.len(),
            raw.rps,
            raw.p50_ms * 1e3,
            raw.p90_ms * 1e3,
            raw.p99_ms * 1e3,
            (requests - window_failed) as f64 / wall_s,
            rtt.percentile(50.0) * 1e3,
            rtt.percentile(99.0) * 1e3,
            at_ref.rps,
            at_ref.p50_ms * 1e3,
            at_ref.p90_ms * 1e3,
        );
    } else {
        // Alternate plain and traced phases so the tracing overhead is
        // measured within one process.
        let slice = (budget / 4).max(Duration::from_millis(500));
        let mut next_id = 0;
        let (mut plain, mut traced_phases) = (Vec::new(), Vec::new());
        for i in 0..4 {
            let phase = if i % 2 == 0 {
                decide::run_phase(&setup, slice, None)
            } else {
                decide::run_phase(&setup, slice, spans.as_deref_mut().map(|s| (s, &mut next_id)))
            };
            attempted += phase.attempted;
            failed += phase.failed;
            if i % 2 == 0 {
                plain.push(phase);
            } else {
                traced_phases.push(phase);
            }
        }
        let join = |phases: &[Phase], f: fn(&Phase) -> &Vec<u32>| -> Vec<f64> {
            phases.iter().flat_map(|p| f(p).iter().map(|&ns| f64::from(ns) * 1e-3)).collect()
        };
        let rtt = join(&traced_phases, |p| &p.rtt_ns);
        let connect = join(&traced_phases, |p| &p.connect_ns);
        let handle = join(&traced_phases, |p| &p.handle_ns);
        let plain_rtt = join(&plain, |p| &p.rtt_ns);
        let (sum_rtt, sum_connect, sum_handle) =
            (rtt.iter().sum::<f64>(), connect.iter().sum::<f64>(), handle.iter().sum::<f64>());
        metrics.insert("proto.connect_us", median(&connect));
        metrics.insert("proto.rtt_us", median(&rtt));
        metrics.insert("proto.handle_us", median(&handle));
        metrics.insert("proto.handle_share", sum_handle / sum_rtt);
        metrics.insert("proto.connect_share", sum_connect / sum_rtt);
        metrics.insert("proto.remainder_share", 1.0 - (sum_handle + sum_connect) / sum_rtt);
        metrics.insert(
            "proto.requests",
            traced_phases.iter().map(|p| p.attempted).sum::<u64>() as f64,
        );
        metrics.insert("proto.failed", traced_phases.iter().map(|p| p.failed).sum::<u64>() as f64);
        metrics
            .insert("odr.decide_us", decide::engine_decide_us(&setup, Duration::from_millis(200)));
        let overhead = median(&rtt) / median(&plain_rtt) - 1.0;
        metrics.insert("trace.overhead_rtt", overhead);
        metrics.insert("trace.catalog_s", setup.setup.catalog_s);
        metrics.insert("trace.population_s", setup.setup.population_s);
        metrics.insert("trace.workload_s", setup.setup.workload_s);
        metrics.insert("trace.requests", setup.setup.study.workload.len() as f64);
        println!(
            "tracing overhead (traced vs plain phases, p50 round trip over {} vs {}): {:+.1}%",
            rtt.len(),
            plain_rtt.len(),
            overhead * 100.0
        );
        notes.push(("trace.overhead_rtt".to_owned(), Json::Num(overhead)));
    }
    if !traced {
        metrics.insert("setup_s", median(&setup_ref));
    }
    notes.push(("setups_s".to_owned(), Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect())));
    notes.push(("probe_s".to_owned(), Json::Arr(probe_s.iter().map(|&s| Json::Num(s)).collect())));
    fill_unexercised(&mut metrics, traced);
    RunResult { attempted, failed, metrics, outputs, notes, provenance: Json::Null, trace: traced }
}

/// The factor that scales an odr-decide window to the reference host:
/// the geometric mean of the two probes' factors. The closed loop spends
/// about a third of its time in user code, which the host probe tracks,
/// and the rest in the kernel's loopback path, which the loopback probe
/// does. Over sets of ten runs neither factor alone scaled the decision
/// rate steadier on every set, and both together never did worst.
fn decide_factor(host_s: f64, loopback_s: f64) -> f64 {
    (REFERENCE_PROBE_S / host_s * (REFERENCE_LOOPBACK_S / loopback_s)).sqrt()
}

/// The `decide_*` figures: the raw medians over the run's windows, and
/// the same over the whole run.
fn decide_notes(
    rtt: &Histogram,
    raw: &WindowMedians,
    (failed, requests, wall_s): (u64, u64, f64),
) -> Vec<(String, Json)> {
    let mut notes = vec![
        ("decide_rps".to_owned(), Json::Num(raw.rps)),
        ("decide_p50_us".to_owned(), Json::Num(raw.p50_ms * 1e3)),
        ("decide_p90_us".to_owned(), Json::Num(raw.p90_ms * 1e3)),
        ("decide_p99_us".to_owned(), Json::Num(raw.p99_ms * 1e3)),
        ("whole_run_rps".to_owned(), Json::Num((requests - failed) as f64 / wall_s)),
        ("whole_run_p50_us".to_owned(), Json::Num(rtt.percentile(50.0) * 1e3)),
        ("whole_run_p99_us".to_owned(), Json::Num(rtt.percentile(99.0) * 1e3)),
        ("samples".to_owned(), Json::Num(rtt.len() as f64)),
        ("fail_ratio".to_owned(), Json::Str(format!("{failed}/{requests} requests"))),
    ];
    if let Some(tail) = rtt.supported_tail() {
        println!(
            "highest supported tail: p{} = {:.1} us ({} samples beyond, {} total)",
            tail.percentile,
            tail.value * 1e3,
            tail.beyond,
            tail.samples
        );
        notes.push((
            "supported_tail".to_owned(),
            Json::obj([
                ("percentile", Json::Num(tail.percentile)),
                ("value_us", Json::Num(tail.value * 1e3)),
                ("beyond", Json::Num(tail.beyond as f64)),
                ("samples", Json::Num(tail.samples as f64)),
            ]),
        ));
    }
    notes
}

/// Per-layer metrics of layers the workload does not run read 0.
fn fill_unexercised(metrics: &mut BTreeMap<&'static str, f64>, traced: bool) {
    if traced {
        for (name, _) in PER_LAYER {
            metrics.entry(name).or_insert(0.0);
        }
    }
}

/// Print each span name's self time as a share of the root spans' time.
fn print_attribution(root: &str, spans: &Spans) {
    let self_secs = spans.self_secs_under(root);
    let check = self_secs.get("check").copied().unwrap_or(0.0);
    let total: f64 =
        spans.spans().iter().filter(|s| s.name == root).map(|s| s.secs()).sum::<f64>() - check;
    println!(
        "attribution of {root} wall ({total:.3}s, benchmark checks excluded), self time by span:"
    );
    let mut rows: Vec<(&String, &f64)> =
        self_secs.iter().filter(|(name, _)| name.as_str() != "check").collect();
    rows.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, secs) in rows {
        let label = if name == root { format!("{name} (unattributed)") } else { name.clone() };
        println!("  {label:<32} {secs:>10.4}s {:>6.2}%", 100.0 * secs / total);
    }
}
