//! `repro export-traces` on the real binary: it exports the cloud week of
//! the scenario it is given, and the paper default still exports exactly
//! the traces of `Study::replay_cloud`.

use std::path::{Path, PathBuf};
use std::process::Command;

use odx::trace::io::write_tsv;
use odx::Study;

const SCALE: &str = "0.01";
const SEED: u64 = 2015;

/// Run `repro export-traces` with `args` into a fresh directory.
fn export(name: &str, args: &[&str]) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("export-traces-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["export-traces", "--scale", SCALE, "--seed", &SEED.to_string(), "--out"])
        .arg(&dir)
        .args(args)
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    dir
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).expect("exported trace")
}

#[test]
fn paper_default_export_matches_the_plain_cloud_replay() {
    let dir = export("paper-default", &[]);
    let study = Study::generate(SCALE.parse().unwrap(), SEED);
    let report = study.replay_cloud();
    let mut predownloads = Vec::new();
    write_tsv(&mut predownloads, &report.predownloads).unwrap();
    let mut fetches = Vec::new();
    write_tsv(&mut fetches, &report.fetches).unwrap();
    assert!(read(&dir, "predownload_trace.tsv") == predownloads, "pre-download trace moved");
    assert!(read(&dir, "fetch_trace.tsv") == fetches, "fetch trace moved");
}

#[test]
fn scenario_and_set_overrides_reach_the_export() {
    let base = export("base", &[]);
    let pressure = export("cache-pressure", &["--scenario", "cache-pressure"]);
    // cache-pressure only shrinks the pool: same users and requests, more
    // misses, so the workload trace stays and the pre-download trace moves.
    assert!(read(&base, "workload_trace.tsv") == read(&pressure, "workload_trace.tsv"));
    assert!(read(&base, "predownload_trace.tsv") != read(&pressure, "predownload_trace.tsv"));
    let set = export("set-capacity", &["--set", "cache_capacity_factor=0.02"]);
    assert!(read(&base, "predownload_trace.tsv") != read(&set, "predownload_trace.tsv"));
}
