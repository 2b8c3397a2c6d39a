//! Result records: the metric tables, the pinned outputs, and the
//! result line and record file every run writes.

use std::collections::BTreeMap;
use std::path::Path;

use odx::proto::Json;

use crate::Workload;

/// End-to-end metrics (name, unit), reported by every workload's plain
/// run. `BENCHMARK.json` holds the same names with their bounds.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), reported by every workload's traced
/// run; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("trace.catalog_s", "s"),
    ("trace.population_s", "s"),
    ("trace.workload_s", "s"),
    ("trace.requests", "count"),
    ("sim.events", "count"),
    ("prof.sched.pop_s", "s"),
    ("prof.other_s", "s"),
    ("cloud.replay_s", "s"),
    ("prof.handler.arrive_s", "s"),
    ("prof.handler.fetch_begin_s", "s"),
    ("prof.handler.fetch_end_s", "s"),
    ("prof.handler.predl_done_s", "s"),
    ("replay.unattributed_share", "ratio"),
    ("cloud.requests", "count"),
    ("cloud.cache.hit", "count"),
    ("cloud.cache.miss", "count"),
    ("cloud.dedup.joined", "count"),
    ("cloud.upload.admit", "count"),
    ("cloud.upload.reject", "count"),
    ("cloud.upload.cross_isp", "count"),
    ("cache.hit", "count"),
    ("cache.miss", "count"),
    ("cache.eviction", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_insert", "ratio"),
    ("cloud.predownload.success", "count"),
    ("cloud.predownload.stagnation", "count"),
    ("cloud.predownload.fail", "count"),
    ("cloud.predownload.useful_ratio", "ratio"),
    ("net.barrier.activations", "count"),
    ("report.build_s", "s"),
    ("export.tsv_s", "s"),
    ("export.metrics_s", "s"),
    ("export.bytes", "B"),
    ("ap.replay_s", "s"),
    ("ap.tasks", "count"),
    ("ap.failure_ratio", "ratio"),
    ("odr.eval_s", "s"),
    ("odr.decide_us", "us"),
    ("proto.connect_us", "us"),
    ("proto.rtt_us", "us"),
    ("proto.handle_us", "us"),
    ("proto.handle_share", "ratio"),
    ("proto.connect_share", "ratio"),
    ("proto.remainder_share", "ratio"),
    ("proto.requests", "count"),
    ("proto.failed", "count"),
    ("week.unattributed_share", "ratio"),
    ("trace.overhead_replay", "ratio"),
    ("trace.overhead_week", "ratio"),
    ("trace.overhead_rtt", "ratio"),
];

/// Outputs pinned per (workload, seed) at [`crate::SCALE`]: simulated
/// events and output digest (the answers digest for odr-decide).
const PINS: &str = include_str!("../pins.txt");

/// The pinned `(sim_events, digest)` for a workload and seed, if any.
pub fn pin(workload: Workload, seed: u64) -> Option<(u64, String)> {
    PINS.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()).find_map(|line| {
        let cols: Vec<&str> = line.split('\t').collect();
        (cols.len() == 4 && cols[0] == workload.name() && cols[1].parse() == Ok(seed))
            .then(|| (cols[2].parse().expect("pins.txt: events column"), cols[3].to_owned()))
    })
}

/// How a run's outputs compare with the pinned ones.
pub fn pin_status(workload: Workload, seed: u64, sim_events: u64, digest: &str) -> &'static str {
    match pin(workload, seed) {
        None => "unpinned",
        Some((events, d)) if events == sim_events && d == digest => "match",
        Some(_) => "mismatch",
    }
}

/// Everything one run reports.
pub struct RunResult {
    /// Operations attempted: weeks, or requests for odr-decide.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The run's metrics, by name (the end-to-end table for a plain run,
    /// the per-layer table for a traced one).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Deterministic outputs and their pin status.
    pub outputs: Vec<(&'static str, Json)>,
    /// Further figures: the per-workload names (`week_s`, `decide_rps`,
    /// ...), tails with sample counts, attribution shares.
    pub notes: Vec<(String, Json)>,
    /// The provenance block.
    pub provenance: Json,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl RunResult {
    /// The metric table this run reports against.
    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// True when every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `{"value": v, "unit": u}` per metric of the run's table.
    fn metrics_json(&self) -> Json {
        let mut out = BTreeMap::new();
        for &(name, unit) in self.table() {
            let value = *self.metrics.get(name).unwrap_or_else(|| panic!("metric {name} unset"));
            out.insert(
                name.to_owned(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit.to_owned()))]),
            );
        }
        Json::Obj(out)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn final_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .to_string_compact()
    }

    /// The full record: the result line's fields plus outputs, notes and
    /// provenance.
    pub fn record(&self) -> Json {
        let mut map = BTreeMap::new();
        map.insert("correct".to_owned(), Json::Bool(self.correct()));
        map.insert("attempted".to_owned(), Json::Num(self.attempted as f64));
        map.insert("failed".to_owned(), Json::Num(self.failed as f64));
        map.insert("metrics".to_owned(), self.metrics_json());
        let outputs = self.outputs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect();
        map.insert("outputs".to_owned(), Json::Obj(outputs));
        map.insert("notes".to_owned(), Json::Obj(self.notes.iter().cloned().collect()));
        map.insert("provenance".to_owned(), self.provenance.clone());
        Json::Obj(map)
    }

    /// Write the record as one JSON file under `dir`, named after the
    /// workload, seed, mode and start time; returns the path.
    pub fn write(&self, dir: &Path, workload: Workload, seed: u64) -> std::io::Result<String> {
        std::fs::create_dir_all(dir)?;
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let name = format!(
            "{}-seed{seed}-{}-{stamp}-{}.json",
            workload.name(),
            if self.trace { "traced" } else { "plain" },
            std::process::id()
        );
        let path = dir.join(name);
        std::fs::write(&path, self.record().to_string_compact() + "\n")?;
        Ok(path.display().to_string())
    }
}
