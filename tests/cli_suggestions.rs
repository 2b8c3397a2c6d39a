//! CLI contract for unknown `--set faults.*` / `retry.*` values on the
//! real `repro` binary: exit code 2 and a Levenshtein "did you mean"
//! suggestion on stderr, before any replay work starts.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_retry_policy_value_exits_2_with_a_suggestion() {
    let out = repro(&["headline", "--set", "retry.policy=exp"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = stderr(&out);
    assert!(err.contains("retry.policy"), "names the offending path: {err}");
    assert!(err.contains("did you mean `expo`?"), "suggests the near-miss: {err}");
}

#[test]
fn misspelled_faults_path_exits_2_with_a_suggestion() {
    let out = repro(&["headline", "--set", "faults.intensty=0.2"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = stderr(&out);
    assert!(err.contains("faults.intensty"), "echoes the bad path: {err}");
    assert!(err.contains("did you mean `faults.intensity`?"), "suggests the field: {err}");
}

#[test]
fn out_of_range_faults_value_exits_2_naming_the_field() {
    let out = repro(&["headline", "--set", "faults.intensity=1.5"]);
    assert_eq!(out.status.code(), Some(2), "validation errors exit 2");
    let err = stderr(&out);
    assert!(err.contains("faults.intensity"), "names the field: {err}");
    assert!(err.contains("[0, 1]"), "states the valid range: {err}");
}

#[test]
fn unknown_retry_flag_policy_exits_2() {
    let out = repro(&["resilience", "--policy", "expoo"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = stderr(&out);
    assert!(err.contains("cache or retry policy `expoo`"), "names the bad policy: {err}");
}

#[test]
fn valid_retry_policy_is_accepted() {
    // A tiny real run proves `--policy expo` reaches the resilience grid.
    let out =
        repro(&["resilience", "--scenario", "cache-pressure", "--scale", "0.0005", "--seeds", "1"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache-pressure/fault=0/retry=none"), "baseline cell: {stdout}");
    assert!(stdout.contains("cache-pressure/fault=0.25/retry=expo"), "expo cell: {stdout}");
}

#[test]
fn malformed_numeric_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["headline", "--scale", "abc"][..], "--scale"),
        (&["headline", "--scale", "-1"], "--scale"),
        (&["headline", "--scale", "0"], "--scale"),
        (&["headline", "--scale", "NaN"], "--scale"),
        (&["headline", "--seed", "x"], "--seed"),
        (&["sweep", "--seeds", "0"], "--seeds"),
        (&["sweep", "--jobs", "0"], "--jobs"),
        (&["sweep", "--jobs", "two"], "--jobs"),
        (&["headline", "--sample", "0"], "--sample"),
        (&["trace", "--trace-sample", "-2"], "--trace-sample"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} is a usage error");
        let err = stderr(&out);
        assert!(err.contains(&format!("repro: {flag} needs")), "{args:?} names {flag}: {err}");
        assert!(!err.contains("panicked"), "{args:?} must not panic: {err}");
    }
}

#[test]
fn trailing_flag_without_a_value_exits_2_naming_the_flag() {
    for flag in
        ["--jobs", "--scale", "--seed", "--seeds", "--sample", "--scenario", "--set", "--out"]
    {
        let out = repro(&["sweep", flag]);
        assert_eq!(out.status.code(), Some(2), "`sweep {flag}` is a usage error");
        let err = stderr(&out);
        assert!(err.contains(&format!("repro: {flag} needs a value")), "names {flag}: {err}");
    }
}
