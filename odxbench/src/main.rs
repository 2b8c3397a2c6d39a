//! `odxbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]`
//! runs one workload and prints its result as the last line;
//! `odxbench compare A B [--bench-json FILE]` compares two sets of
//! result records; `odxbench pin <workload> <seed>...` prints the
//! `pins.txt` rows for deliberately changed outputs. See `README.md` in
//! this directory.

use std::path::PathBuf;
use std::process::ExitCode;

use odxbench::{compare, decide, provenance, run, week, Workload, SAMPLE, SCALE};

const USAGE: &str = "usage: odxbench --workload <paper-week|pressure-week|odr-decide> --seed <n> \
                     --seconds <1-600> --trace <0|1> [--out DIR]\n       \
                     odxbench compare <A> <B> [--bench-json FILE]\n       \
                     odxbench pin <workload> <seed>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&args[1..]),
        Some("pin") => pin_cmd(&args[1..]),
        _ => run_cmd(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("odxbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = provenance::repo_root().join("odxbench").join("out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let trace = trace.ok_or("--trace is required")?;
    let result = run::run(workload, seed, seconds, trace, &out);
    match result.write(&out.join("runs"), workload, seed) {
        Ok(path) => println!("record: {path}"),
        Err(e) => println!("record: not written ({e})"),
    }
    println!("{}", result.final_line());
    Ok(ExitCode::SUCCESS)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut sets = Vec::new();
    let mut bench_json = provenance::repo_root().join("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench-json" {
            bench_json = PathBuf::from(it.next().ok_or("--bench-json needs a value")?);
        } else {
            sets.push(PathBuf::from(arg));
        }
    }
    let [a, b] = sets.as_slice() else {
        return Err("compare takes two result sets".to_owned());
    };
    let (end_to_end, per_layer) = compare::load_specs(&bench_json)?;
    let (ra, rb) = (compare::load_records(a)?, compare::load_records(b)?);
    match compare::compare(&ra, &rb, &end_to_end, &per_layer) {
        Ok(c) => {
            print!("{}", c.report);
            Ok(ExitCode::SUCCESS)
        }
        Err(mismatch) => {
            eprintln!("odxbench compare: output check failed: {mismatch}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn pin_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (name, seeds) = args.split_first().ok_or("pin takes a workload and seeds")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let scenario = week::scenario(workload.preset());
    for seed in seeds {
        let seed: u64 = seed.parse().map_err(|e| format!("seed {seed:?}: {e}"))?;
        let (events, digest) = if workload == Workload::OdrDecide {
            (0, decide::setup(&scenario, SCALE, seed, None).answers)
        } else {
            let setup = week::generate(&scenario, SCALE, seed, None);
            let outcome = week::run_week(&setup.study, &scenario, SAMPLE, false, None);
            (outcome.sim_events, outcome.digest)
        };
        println!("{}\t{seed}\t{events}\t{digest}", workload.name());
    }
    Ok(ExitCode::SUCCESS)
}
