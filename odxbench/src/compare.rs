//! Compare mode: two sets of result records, metric by metric, judged by
//! the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use odx::proto::Json;

use crate::stats::{median, quartiles, spread};

/// How a metric moved from the base set to the changed set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the rule for claiming a gain.
    Improved,
    /// Within the bound, and no gain shown.
    Unchanged,
    /// Worse than the base median by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `base` (runs in the order they were made).
///
/// * Either set's interquartile spread wider than `bound` (as a share of
///   its median): unresolved, unless every changed run reads better than
///   every base run (improved), or every changed run reads worse than
///   every base run and the medians differ by more than `bound` (worse).
/// * Changed median worse than the base median by more than `bound`:
///   worse.
/// * The changed run wins at least nine tenths of the pairs (i-th base
///   run against i-th changed run, ties counting for neither) and the
///   medians differ by more than the base's interquartile distance:
///   improved.
/// * Otherwise unchanged.
pub fn verdict(base: &[f64], change: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let (m0, m1) = (median(base), median(change));
    let worse_by = if higher_is_better { (m0 - m1) / m0 } else { (m1 - m0) / m0 };
    if spread(base).abs().max(spread(change).abs()) > bound {
        let all = |pred: &dyn Fn(f64, f64) -> bool| {
            change.iter().all(|&c| base.iter().all(|&b| pred(c, b)))
        };
        return if all(&|c, b| better(c, b)) {
            Verdict::Improved
        } else if all(&|c, b| better(b, c)) && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = base.len().min(change.len());
    let wins = base.iter().zip(change).filter(|(&b, &c)| better(c, b)).count();
    let [q1, _, q3] = quartiles(base);
    if pairs > 0 && wins * 10 >= pairs * 9 && better(m1, m0) && (m1 - m0).abs() > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
}

/// Read the end-to-end and per-layer metric declarations.
pub fn load_specs(path: &Path) -> Result<(Vec<MetricSpec>, Vec<MetricSpec>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
        let Some(Json::Arr(items)) = json.get(key) else {
            return Err(format!("{}: no {key} list", path.display()));
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_owned)
                        .ok_or(format!("{key}: no {k}"))
                };
                Ok(MetricSpec {
                    name: field("name")?,
                    unit: field("unit")?,
                    higher_is_better: field("better")? == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// The parts of a result record that compare mode reads.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether the record is from a traced run.
    pub trace: bool,
    /// Whether every output check passed.
    pub correct: bool,
    /// Failed operations.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Deterministic outputs (digests, event counts) by name.
    pub outputs: BTreeMap<String, String>,
    /// Median host-probe time of the run (s), when recorded.
    pub probe_s: Option<f64>,
}

impl Record {
    /// Parse one record as the benchmark writes it.
    pub fn parse(text: &str) -> Result<Record, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let prov = json.get("provenance").ok_or("record without provenance")?;
        let num = |v: Option<&Json>| v.and_then(Json::as_f64);
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(map)) = json.get("metrics") {
            for (name, m) in map {
                metrics.insert(name.clone(), num(m.get("value")).ok_or("metric without value")?);
            }
        }
        let mut outputs = BTreeMap::new();
        if let Some(Json::Obj(map)) = json.get("outputs") {
            for key in ["sim_events", "digest", "answers"] {
                if let Some(v) = map.get(key) {
                    outputs.insert(key.to_owned(), v.to_string_compact());
                }
            }
        }
        let probe_s = match json.get("notes").and_then(|n| n.get("probe_s")) {
            Some(Json::Arr(xs)) if !xs.is_empty() => {
                Some(median(&xs.iter().filter_map(Json::as_f64).collect::<Vec<_>>()))
            }
            _ => None,
        };
        Ok(Record {
            probe_s,
            workload: prov.get("workload").and_then(Json::as_str).ok_or("no workload")?.to_owned(),
            seed: num(prov.get("seed")).ok_or("no seed")? as u64,
            trace: prov.get("trace").and_then(Json::as_bool).ok_or("no trace flag")?,
            correct: json.get("correct").and_then(Json::as_bool).ok_or("no correct flag")?,
            failed: num(json.get("failed")).ok_or("no failed count")? as u64,
            metrics,
            outputs,
        })
    }
}

/// Every record in `path`: a record file, or a directory of them, read in
/// file-name order. Record names start with workload and seed, so two
/// sets run over the same seeds pair up run by run.
pub fn load_records(path: &Path) -> Result<Vec<Record>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            if p.extension().is_some_and(|x| x == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_owned());
    }
    let mut records = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            records.push(Record::parse(line).map_err(|e| format!("{}: {e}", file.display()))?);
        }
    }
    Ok(records)
}

/// The outcome of a comparison.
#[derive(Debug)]
pub struct Comparison {
    /// The printed table.
    pub report: String,
    /// True when every end-to-end metric of every shared workload is
    /// unchanged.
    pub agree: bool,
}

/// Compare set `b` against base set `a`. Fails hard when any record
/// failed its checks, or when two records of one workload and seed carry
/// different outputs.
pub fn compare(
    a: &[Record],
    b: &[Record],
    end_to_end: &[MetricSpec],
    per_layer: &[MetricSpec],
) -> Result<Comparison, String> {
    let mut seen: BTreeMap<(String, u64, String), String> = BTreeMap::new();
    for r in a.iter().chain(b) {
        if !r.correct || r.failed > 0 {
            return Err(format!(
                "{} seed {}: {} failed output checks",
                r.workload, r.seed, r.failed
            ));
        }
        for (key, value) in &r.outputs {
            let slot = (r.workload.clone(), r.seed, key.clone());
            if let Some(prev) = seen.insert(slot, value.clone()) {
                if &prev != value {
                    return Err(format!(
                        "{} seed {}: output {key} differs between runs ({prev} vs {value})",
                        r.workload, r.seed
                    ));
                }
            }
        }
    }
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort();
    workloads.dedup();
    let mut report = String::new();
    let mut agree = true;
    let values = |set: &[Record], w: &str, trace: bool, m: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == w && r.trace == trace)
            .filter_map(|r| r.metrics.get(m).copied())
            .collect()
    };
    for w in workloads {
        if !b.iter().any(|r| r.workload == w) {
            continue;
        }
        let _ = writeln!(report, "{w}");
        let probe = |set: &[Record]| -> Vec<f64> {
            set.iter().filter(|r| r.workload == w && !r.trace).filter_map(|r| r.probe_s).collect()
        };
        let (pa, pb) = (probe(a), probe(b));
        if !pa.is_empty() && !pb.is_empty() {
            // The host's own speed in each set: a metric that moved with
            // it reflects the host, not the change.
            let _ = writeln!(
                report,
                "  host probe (s)       A {:>12.4}  B {:>12.4}  {:>+7.2}%",
                median(&pa),
                median(&pb),
                100.0 * (median(&pb) - median(&pa)) / median(&pa)
            );
        }
        for spec in end_to_end {
            let (va, vb) = (values(a, w, false, &spec.name), values(b, w, false, &spec.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = spec.bound.unwrap_or(0.0);
            let v = verdict(&va, &vb, bound, spec.higher_is_better);
            agree &= v == Verdict::Unchanged;
            let ([a1, _, a3], [b1, _, b3]) = (quartiles(&va), quartiles(&vb));
            let _ = writeln!(
                report,
                "  {:<14} {:>5}  A {:>12.4} [{:.4}, {:.4}] n={:<3} B {:>12.4} [{:.4}, {:.4}] n={:<3} \
                 {:>+7.2}%  bound {:.0}%  {}",
                spec.name,
                spec.unit,
                median(&va),
                a1,
                a3,
                va.len(),
                median(&vb),
                b1,
                b3,
                vb.len(),
                100.0 * (median(&vb) - median(&va)) / median(&va),
                100.0 * bound,
                v.name()
            );
        }
        for spec in per_layer {
            let (va, vb) = (values(a, w, true, &spec.name), values(b, w, true, &spec.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            if ma == 0.0 && mb == 0.0 {
                continue;
            }
            let delta = if ma == 0.0 { f64::INFINITY } else { 100.0 * (mb - ma) / ma.abs() };
            let _ = writeln!(
                report,
                "  layer {:<30} {:>6}  A {:>14.6}  B {:>14.6}  {:>+8.2}%",
                spec.name, spec.unit, ma, mb, delta
            );
        }
    }
    let _ = writeln!(report, "sets agree: {}", if agree { "yes" } else { "no" });
    Ok(Comparison { report, agree })
}
