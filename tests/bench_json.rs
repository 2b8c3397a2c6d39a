//! `repro bench --json` on the real binary, in quick mode: the file is one
//! compact JSON document that `odx::proto::Json` parses, with a `hits` and
//! `evictions` count for every cache policy of the churn benchmark.

use std::process::Command;

use odx::cache::PolicyKind;
use odx::proto::Json;

#[test]
fn quick_bench_json_is_compact_and_parses() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench-quick.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["bench", "--scale", "0.002", "--json"])
        .arg(&path)
        .env("ODX_BENCH_QUICK", "1")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("bench --json file");
    assert!(!text.contains("  "), "a run of spaces in the compact document: {text}");
    let doc = Json::parse(&text).expect("bench --json parses");
    let policies = doc
        .get("cache_churn")
        .and_then(|churn| churn.get("policies"))
        .expect("cache_churn.policies");
    for policy in PolicyKind::ALL {
        let entry = policies.get(policy.name()).expect("one entry per policy");
        for key in ["hits", "evictions", "ops_per_sec"] {
            assert!(entry.get(key).and_then(Json::as_f64).is_some(), "{}.{key}", policy.name());
        }
    }
}
