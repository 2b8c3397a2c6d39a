//! Trace round-tripping: the replay's records serialize to the paper's
//! three trace schemas, byte for byte as `format!` would write them, and
//! read back exactly.

use odx::cloud::WeekReport;
use odx::p2p::FailureCause;
use odx::trace::io::{read_tsv, write_tsv};
use odx::trace::records::{FetchRecord, PredownloadRecord, WorkloadRecord};
use odx::trace::Isp;
use odx::Study;

fn workload_records(study: &Study) -> Vec<WorkloadRecord> {
    study
        .workload
        .requests()
        .iter()
        .map(|r| {
            let user = study.population.user(r.user);
            let file = study.catalog.file(r.file);
            WorkloadRecord {
                user_id: r.user,
                isp: user.isp,
                access_kbps: user.reports_bandwidth.then_some(user.access_kbps),
                request_time: r.at,
                file_type: file.ftype,
                size_mb: file.size_mb,
                source_link: file.source_link(),
                protocol: file.protocol,
            }
        })
        .collect()
}

fn tsv<R: odx::trace::io::ToTsv>(records: &[R]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_tsv(&mut buf, records).unwrap();
    buf
}

// ---- the `format!` row oracle ----------------------------------------------

fn isp(isp: Isp) -> &'static str {
    match isp {
        Isp::Unicom => "unicom",
        Isp::Telecom => "telecom",
        Isp::Mobile => "mobile",
        Isp::Cernet => "cernet",
        Isp::Other => "other",
    }
}

fn opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |x| format!("{x}"))
}

fn cause(c: Option<FailureCause>) -> &'static str {
    match c {
        None => "-",
        Some(FailureCause::InsufficientSeeds) => "seeds",
        Some(FailureCause::PoorConnection) => "connection",
        Some(FailureCause::SystemBug) => "bug",
    }
}

fn oracle<R>(header: &str, records: &[R], row: impl Fn(&R) -> String) -> Vec<u8> {
    let mut text = format!("{header}\n");
    for r in records {
        text.push_str(&row(r));
        text.push('\n');
    }
    text.into_bytes()
}

fn oracle_workload(records: &[WorkloadRecord]) -> Vec<u8> {
    oracle(<WorkloadRecord as odx::trace::io::ToTsv>::HEADER, records, |r| {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.user_id,
            isp(r.isp),
            opt(r.access_kbps),
            r.request_time.as_millis(),
            r.file_type,
            r.size_mb,
            r.source_link,
            r.protocol,
        )
    })
}

fn oracle_predownloads(records: &[PredownloadRecord]) -> Vec<u8> {
    oracle(<PredownloadRecord as odx::trace::io::ToTsv>::HEADER, records, |r| {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.start.as_millis(),
            r.finish.as_millis(),
            r.acquired_mb,
            r.traffic_mb,
            r.cache_hit,
            r.avg_kbps,
            r.peak_kbps,
            r.success,
            cause(r.failure_cause),
        )
    })
}

fn oracle_fetches(records: &[FetchRecord]) -> Vec<u8> {
    oracle(<FetchRecord as odx::trace::io::ToTsv>::HEADER, records, |r| {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.user_id,
            isp(r.isp),
            opt(r.access_kbps),
            r.start.as_millis(),
            r.finish.as_millis(),
            r.acquired_mb,
            r.traffic_mb,
            r.avg_kbps,
            r.peak_kbps,
            r.rejected,
        )
    })
}

fn assert_bytes_eq(what: &str, got: &[u8], want: &[u8]) {
    if got != want {
        let at =
            got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(got.len().min(want.len()));
        let line = want[..at].iter().filter(|&&b| b == b'\n').count() + 1;
        panic!("{what}: export differs from the format! oracle at line {line} (byte {at})");
    }
}

fn assert_week_matches_oracle(name: &str, report: &WeekReport) {
    assert!(report.predownloads.len() > 1000, "{name}: a real trace, not a toy");
    assert_bytes_eq(
        &format!("{name} pre-download trace"),
        &tsv(&report.predownloads),
        &oracle_predownloads(&report.predownloads),
    );
    assert_bytes_eq(
        &format!("{name} fetch trace"),
        &tsv(&report.fetches),
        &oracle_fetches(&report.fetches),
    );
}

#[test]
fn exports_equal_the_format_oracle_for_every_record() {
    let study = Study::generate(0.01, 2015);
    let scenarios = Study::scenarios();
    for name in ["paper-default", "cache-pressure"] {
        let scenario = scenarios.get(name).expect("builtin preset");
        assert_week_matches_oracle(name, &study.replay_cloud_scenario(scenario));
    }
    let records = workload_records(&study);
    assert_bytes_eq("workload trace", &tsv(&records), &oracle_workload(&records));
}

#[test]
fn exports_are_written_in_bounded_blocks() {
    /// Records the size of every write it receives.
    struct Writes(Vec<usize>);
    impl std::io::Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let study = Study::generate(0.002, 558);
    let report = study.replay_cloud();
    let mut writes = Writes(Vec::new());
    write_tsv(&mut writes, &report.fetches).unwrap();
    let total: usize = writes.0.iter().sum();
    assert_eq!(total, tsv(&report.fetches).len());
    let block = odx::trace::io::BLOCK_BYTES;
    let (last, full) = writes.0.split_last().unwrap();
    assert!(!full.is_empty(), "a multi-block trace: {total} bytes");
    // One write per block: every write but the last is a filled block.
    assert!(full.iter().all(|&n| n > block / 2 && n <= block), "writes: {:?}", writes.0);
    assert!(*last <= block);
}

// ---- exact round trips -----------------------------------------------------

#[test]
fn predownload_and_fetch_traces_round_trip_through_tsv() {
    let study = Study::generate(0.002, 555);
    let report = study.replay_cloud();

    let parsed: Vec<PredownloadRecord> =
        read_tsv(&mut tsv(&report.predownloads).as_slice()).unwrap();
    assert_eq!(parsed, report.predownloads);

    let parsed: Vec<FetchRecord> = read_tsv(&mut tsv(&report.fetches).as_slice()).unwrap();
    assert_eq!(parsed, report.fetches);
}

#[test]
fn workload_trace_round_trips() {
    let study = Study::generate(0.002, 556);
    let records = workload_records(&study);
    let parsed: Vec<WorkloadRecord> = read_tsv(&mut tsv(&records).as_slice()).unwrap();
    assert_eq!(parsed, records);
}

#[test]
fn trace_statistics_survive_serialization() {
    // Recomputing a figure from the serialized trace gives the same answer
    // as from the in-memory records — the property an artifact-evaluation
    // reviewer would check.
    let study = Study::generate(0.002, 557);
    let report = study.replay_cloud();
    let direct = report.fetch_speed_ecdf().median().unwrap();

    let parsed: Vec<FetchRecord> = read_tsv(&mut tsv(&report.fetches).as_slice()).unwrap();
    let reloaded =
        odx::stats::Ecdf::new(parsed.iter().map(|r| r.avg_kbps).collect()).median().unwrap();
    assert_eq!(direct.to_bits(), reloaded.to_bits());
}
