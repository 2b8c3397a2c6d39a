//! The owned, serializable scenario model and its layering operations.
//!
//! A [`ScenarioSpec`] is pure data: strings and numbers, no engine types.
//! It resolves into a runnable `odx_backend::Scenario` *after* typed
//! validation (that conversion lives in `odx-backend`, which knows the
//! enum vocabularies; this crate owns the numeric bounds and the document
//! shape). Layering order, outermost last:
//!
//! 1. the paper baseline ([`ScenarioSpec::baseline`]),
//! 2. a named preset delta (the built-ins in `odx-backend`),
//! 3. a user scenario file ([`ScenarioSpec::apply_delta`]),
//! 4. CLI `--set dotted.path=value` overrides ([`ScenarioSpec::set_path`]).
//!
//! Sweep axes declared in a spec (`"axes": {"demand_factor": [1, 2]}`)
//! expand into a grid of concrete specs via [`ScenarioSpec::expand_axes`];
//! expansion happens *after* the override layers, so an axis on a key
//! always wins over a `--set` of the same key.
//!
//! [`ScenarioSpec::to_canonical_json`] emits a byte-stable dump: object
//! keys are sorted (the codec's `BTreeMap` representation), numbers render
//! through one deterministic formatter, and `dump → parse → dump` is the
//! identity on bytes (property-tested).

use std::collections::BTreeMap;

use crate::error::ConfigError;
use crate::json::Json;

/// Evaluation-layer tuning knobs (mirrors `odx_backend::BackendConfig`).
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSpec {
    /// Probability residual Internet dynamics degrade a fetch, in `[0, 1]`.
    pub dynamics_probability: f64,
    /// Warm-cache popularity pivot, `> 0`.
    pub warm_cache_pivot: f64,
    /// Failure-probability decay per failed attempt, in `(0, 1]`.
    pub retry_decay: f64,
    /// Fleet-level retry factor, in `(0, 1]`.
    pub cloud_retry_factor: f64,
    /// ADSL payload cap (KBps), `> 0`.
    pub line_payload_kbps: f64,
}

/// The pool's replacement policy and shard count, by name.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSpec {
    /// Policy name (`lru`, `lfu`, `gdsf`, `s3fifo` — validated by the
    /// resolver, which owns the policy registry).
    pub policy: String,
    /// Deterministic FxHash shard count, `>= 1`.
    pub shards: u32,
}

/// Engine-layer knobs (which future-event list the DES runs on).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Scheduler name (`wheel` by default, or `heap` — validated by the
    /// resolver, which owns the scheduler vocabulary). Both produce
    /// byte-identical runs; they differ only in wall-clock cost.
    pub scheduler: String,
}

/// Observability-layer knobs (the virtual-time series recorder).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySpec {
    /// Virtual seconds between metric-series samples, `> 0`. The default
    /// (one sim-hour) matches the diurnal granularity of the paper's
    /// figures; `--set telemetry.series_interval_s=60` zooms in.
    pub series_interval_s: f64,
}

/// Fault-injection knobs (mirrors `odx_faults::FaultsConfig`; the
/// baseline injects nothing, keeping default replays byte-identical).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsSpec {
    /// Fraction of the week each fault domain spends under an active
    /// window, in `[0, 1]`; `0` disables injection entirely.
    pub intensity: f64,
    /// Mean fault-window length in seconds, `> 0`.
    pub window_s: f64,
    /// Fetch-rate multiplier during net degradation windows, in `(0, 1]`.
    pub net_slowdown: f64,
    /// Pre-download rate multiplier during cloud brownouts, in `(0, 1]`.
    pub cloud_slowdown: f64,
    /// Smart-AP rate multiplier during disk-stall windows, in `(0, 1]`.
    pub ap_slowdown: f64,
}

/// Retry/backoff knobs (mirrors `odx_faults::RetryConfig`; the baseline
/// policy `none` matches the paper's observed no-retry behaviour).
#[derive(Debug, Clone, PartialEq)]
pub struct RetrySpec {
    /// Policy name (`none`, `fixed`, `expo` — validated by the resolver,
    /// which owns the retry vocabulary).
    pub policy: String,
    /// Base re-dispatch delay in seconds, `> 0`.
    pub base_delay_s: f64,
    /// Per-task retry cap (retries after the first dispatch).
    pub max_attempts: u32,
    /// Jitter fraction applied to each delay, in `[0, 1]`.
    pub jitter: f64,
}

/// One AP of the benchmark fleet, by hardware names.
#[derive(Debug, Clone, PartialEq)]
pub struct ApSpec {
    /// AP product name (`hiwifi`, `miwifi`, `newifi`).
    pub model: String,
    /// Storage device name (`sd-card`, `usb-flash`, `sata-hdd`, `usb-hdd`).
    pub device: String,
    /// Filesystem name (`fat`, `ntfs`, `ext4`).
    pub fs: String,
}

impl ApSpec {
    fn new(model: &str, device: &str, fs: &str) -> ApSpec {
        ApSpec { model: model.into(), device: device.into(), fs: fs.into() }
    }
}

/// One named experiment configuration, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registry key (what `repro --scenario` takes).
    pub name: String,
    /// One-line description shown by `repro list`.
    pub summary: String,
    /// Backend tuning knobs.
    pub backend: BackendSpec,
    /// Whether the cloud's collaborative cache is enabled.
    pub cache_enabled: bool,
    /// Replacement policy and shard count of the pool.
    pub cache: CacheSpec,
    /// Multiplier on the pool's byte budget, `> 0`.
    pub cache_capacity_factor: f64,
    /// Whether privileged intra-ISP upload paths are enabled.
    pub privileged_paths: bool,
    /// User-base multiplier, `> 0`.
    pub demand_factor: f64,
    /// Override for CERNET's user share, in `[0, 1)`; `None` keeps the
    /// default 2015 mix.
    pub cernet_share: Option<f64>,
    /// Fault-injection knobs (zero intensity in the baseline).
    pub faults: FaultsSpec,
    /// Retry/backoff knobs (policy `none` in the baseline).
    pub retry: RetrySpec,
    /// The three-AP benchmark fleet.
    pub ap_fleet: Vec<ApSpec>,
    /// Engine-layer knobs.
    pub sim: SimSpec,
    /// Observability knobs (series sampling cadence).
    pub telemetry: TelemetrySpec,
    /// Sweep axes: dotted path → the values the grid takes on that axis.
    pub axes: BTreeMap<String, Vec<Json>>,
}

/// Every dotted path `set_path` accepts, in canonical listing order.
/// (`axes` itself is layered through [`ScenarioSpec::apply_delta`], not
/// through a dotted path.)
pub const KNOWN_PATHS: &[&str] = &[
    "name",
    "summary",
    "backend.dynamics_probability",
    "backend.warm_cache_pivot",
    "backend.retry_decay",
    "backend.cloud_retry_factor",
    "backend.line_payload_kbps",
    "cache_enabled",
    "cache.policy",
    "cache.shards",
    "cache_capacity_factor",
    "privileged_paths",
    "demand_factor",
    "cernet_share",
    "faults.intensity",
    "faults.window_s",
    "faults.net_slowdown",
    "faults.cloud_slowdown",
    "faults.ap_slowdown",
    "retry.policy",
    "retry.base_delay_s",
    "retry.max_attempts",
    "retry.jitter",
    "ap_fleet.0.model",
    "ap_fleet.0.device",
    "ap_fleet.0.fs",
    "ap_fleet.1.model",
    "ap_fleet.1.device",
    "ap_fleet.1.fs",
    "ap_fleet.2.model",
    "ap_fleet.2.device",
    "ap_fleet.2.fs",
    "sim.scheduler",
    "telemetry.series_interval_s",
];

/// The paths that may serve as sweep axes (everything settable except the
/// identity fields).
pub fn axis_paths() -> impl Iterator<Item = &'static str> {
    KNOWN_PATHS.iter().copied().filter(|p| *p != "name" && *p != "summary")
}

impl ScenarioSpec {
    /// The paper's measured configuration under `name` — layer 1. The
    /// numbers mirror `odx_backend::BackendConfig::default()` and friends;
    /// `odx-backend` pins the two baselines equal under test.
    pub fn baseline(name: &str, summary: &str) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_owned(),
            summary: summary.to_owned(),
            backend: BackendSpec {
                dynamics_probability: 0.09,
                warm_cache_pivot: 2.5,
                retry_decay: 0.97,
                cloud_retry_factor: 0.75,
                line_payload_kbps: 2370.0,
            },
            cache_enabled: true,
            cache: CacheSpec { policy: "lru".into(), shards: 1 },
            cache_capacity_factor: 1.0,
            privileged_paths: true,
            demand_factor: 1.0,
            cernet_share: None,
            faults: FaultsSpec {
                intensity: 0.0,
                window_s: 1800.0,
                net_slowdown: 0.35,
                cloud_slowdown: 0.4,
                ap_slowdown: 0.3,
            },
            retry: RetrySpec {
                policy: "none".into(),
                base_delay_s: 300.0,
                max_attempts: 3,
                jitter: 0.5,
            },
            ap_fleet: vec![
                ApSpec::new("hiwifi", "sd-card", "fat"),
                ApSpec::new("miwifi", "sata-hdd", "ext4"),
                ApSpec::new("newifi", "usb-flash", "ntfs"),
            ],
            sim: SimSpec { scheduler: "wheel".into() },
            telemetry: TelemetrySpec { series_interval_s: 3600.0 },
            axes: BTreeMap::new(),
        }
    }

    /// Set one field through its dotted path — layer 4, and the axis
    /// mechanism. Rejects unknown paths (naming the nearest known one) and
    /// type mismatches; numeric *bounds* are checked by
    /// [`ScenarioSpec::validate`], not here, so layering stays order-free.
    pub fn set_path(&mut self, path: &str, value: &Json) -> Result<(), ConfigError> {
        match path {
            "name" => self.name = str_at(path, value)?,
            "summary" => self.summary = str_at(path, value)?,
            "backend.dynamics_probability" => {
                self.backend.dynamics_probability = num_at(path, value)?
            }
            "backend.warm_cache_pivot" => self.backend.warm_cache_pivot = num_at(path, value)?,
            "backend.retry_decay" => self.backend.retry_decay = num_at(path, value)?,
            "backend.cloud_retry_factor" => self.backend.cloud_retry_factor = num_at(path, value)?,
            "backend.line_payload_kbps" => self.backend.line_payload_kbps = num_at(path, value)?,
            "cache_enabled" => self.cache_enabled = bool_at(path, value)?,
            "cache.policy" => self.cache.policy = str_at(path, value)?,
            "cache.shards" => self.cache.shards = u32_at(path, value)?,
            "cache_capacity_factor" => self.cache_capacity_factor = num_at(path, value)?,
            "privileged_paths" => self.privileged_paths = bool_at(path, value)?,
            "demand_factor" => self.demand_factor = num_at(path, value)?,
            "cernet_share" => {
                self.cernet_share = match value {
                    Json::Null => None,
                    other => Some(num_at(path, other)?),
                }
            }
            "faults.intensity" => self.faults.intensity = num_at(path, value)?,
            "faults.window_s" => self.faults.window_s = num_at(path, value)?,
            "faults.net_slowdown" => self.faults.net_slowdown = num_at(path, value)?,
            "faults.cloud_slowdown" => self.faults.cloud_slowdown = num_at(path, value)?,
            "faults.ap_slowdown" => self.faults.ap_slowdown = num_at(path, value)?,
            "retry.policy" => self.retry.policy = str_at(path, value)?,
            "retry.base_delay_s" => self.retry.base_delay_s = num_at(path, value)?,
            "retry.max_attempts" => self.retry.max_attempts = u32_at(path, value)?,
            "retry.jitter" => self.retry.jitter = num_at(path, value)?,
            "sim.scheduler" => self.sim.scheduler = str_at(path, value)?,
            "telemetry.series_interval_s" => {
                self.telemetry.series_interval_s = num_at(path, value)?
            }
            _ => {
                if let Some(rest) = path.strip_prefix("ap_fleet.") {
                    return self.set_fleet_path(path, rest, value);
                }
                return Err(ConfigError::unknown("", "config path", path, KNOWN_PATHS));
            }
        }
        Ok(())
    }

    /// `ap_fleet.<i>.<field>` paths (the fleet is always indexed 0..3).
    fn set_fleet_path(&mut self, path: &str, rest: &str, value: &Json) -> Result<(), ConfigError> {
        let Some((index, field)) = rest.split_once('.') else {
            return Err(ConfigError::unknown("", "config path", path, KNOWN_PATHS));
        };
        let slot = match index.parse::<usize>() {
            Ok(i) if i < self.ap_fleet.len() => &mut self.ap_fleet[i],
            _ => {
                return Err(ConfigError::at(
                    path,
                    format!("AP index must be 0..{} (got `{index}`)", self.ap_fleet.len()),
                ))
            }
        };
        match field {
            "model" => slot.model = str_at(path, value)?,
            "device" => slot.device = str_at(path, value)?,
            "fs" => slot.fs = str_at(path, value)?,
            _ => return Err(ConfigError::unknown("", "config path", path, KNOWN_PATHS)),
        }
        Ok(())
    }

    /// Apply a JSON object as a delta over this spec — layer 3 (scenario
    /// files). Accepts nested objects for `backend` / `cache` / `faults` /
    /// `retry` (and `sim` / `telemetry`), a complete
    /// three-entry `ap_fleet` array (or partial per-entry objects), an
    /// `axes` object (which *replaces* any existing axes), and literal
    /// dotted keys (`"cache.policy": "gdsf"`). The reserved key `base` is
    /// the caller's concern (it names the preset this delta layers on) and
    /// is skipped here. Unknown keys are rejected with a suggestion.
    pub fn apply_delta(&mut self, delta: &Json) -> Result<(), ConfigError> {
        let Json::Obj(map) = delta else {
            return Err(ConfigError::doc("a scenario must be a JSON object"));
        };
        for (key, value) in map {
            match key.as_str() {
                "base" => {
                    str_at("base", value)?;
                }
                "backend" | "cache" | "sim" | "telemetry" | "faults" | "retry" => {
                    let Json::Obj(nested) = value else {
                        return Err(ConfigError::at(key, "expected a JSON object"));
                    };
                    for (k, v) in nested {
                        self.set_path(&format!("{key}.{k}"), v)?;
                    }
                }
                "ap_fleet" => self.apply_fleet_delta(value)?,
                "axes" => self.axes = parse_axes(value)?,
                _ => self.set_path(key, value)?,
            }
        }
        Ok(())
    }

    /// An `ap_fleet` delta: an array of exactly three objects, each holding
    /// any subset of `model` / `device` / `fs` applied onto that slot.
    fn apply_fleet_delta(&mut self, value: &Json) -> Result<(), ConfigError> {
        let Json::Arr(entries) = value else {
            return Err(ConfigError::at("ap_fleet", "expected a JSON array of 3 APs"));
        };
        if entries.len() != self.ap_fleet.len() {
            return Err(ConfigError::at(
                "ap_fleet",
                format!(
                    "fleet must have exactly {} APs (got {})",
                    self.ap_fleet.len(),
                    entries.len()
                ),
            ));
        }
        for (i, entry) in entries.iter().enumerate() {
            let Json::Obj(fields) = entry else {
                return Err(ConfigError::at(format!("ap_fleet.{i}"), "expected a JSON object"));
            };
            for (field, v) in fields {
                self.set_path(&format!("ap_fleet.{i}.{field}"), v)?;
            }
        }
        Ok(())
    }

    /// Validate every numeric bound and the document shape. Enum *names*
    /// (policy, AP model, device, filesystem) are validated by the
    /// resolver in `odx-backend`, which owns those vocabularies.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let b = &self.backend;
        check_range("backend.dynamics_probability", b.dynamics_probability, 0.0..=1.0)?;
        check_positive("backend.warm_cache_pivot", b.warm_cache_pivot)?;
        check_unit_interval_open_low("backend.retry_decay", b.retry_decay)?;
        check_unit_interval_open_low("backend.cloud_retry_factor", b.cloud_retry_factor)?;
        check_positive("backend.line_payload_kbps", b.line_payload_kbps)?;
        check_positive("cache_capacity_factor", self.cache_capacity_factor)?;
        check_positive("demand_factor", self.demand_factor)?;
        check_positive("telemetry.series_interval_s", self.telemetry.series_interval_s)?;
        check_range("faults.intensity", self.faults.intensity, 0.0..=1.0)?;
        check_positive("faults.window_s", self.faults.window_s)?;
        check_unit_interval_open_low("faults.net_slowdown", self.faults.net_slowdown)?;
        check_unit_interval_open_low("faults.cloud_slowdown", self.faults.cloud_slowdown)?;
        check_unit_interval_open_low("faults.ap_slowdown", self.faults.ap_slowdown)?;
        check_positive("retry.base_delay_s", self.retry.base_delay_s)?;
        check_range("retry.jitter", self.retry.jitter, 0.0..=1.0)?;
        if self.cache.shards == 0 {
            return Err(ConfigError::at("cache.shards", "must be >= 1 (got 0)"));
        }
        if let Some(share) = self.cernet_share {
            if !share.is_finite() || !(0.0..1.0).contains(&share) {
                return Err(ConfigError::at(
                    "cernet_share",
                    format!(
                        "must lie in [0, 1) so every ISP share stays non-negative (got {share})"
                    ),
                ));
            }
        }
        if self.ap_fleet.len() != 3 {
            return Err(ConfigError::at(
                "ap_fleet",
                format!("fleet must have exactly 3 APs (got {})", self.ap_fleet.len()),
            ));
        }
        self.validate_axes()
    }

    /// Axis keys must be sweepable paths; axis values must be non-empty
    /// lists of distinct scalars (duplicates would collide in the sweep's
    /// `(scenario, seed)` merge key and silently drop cells).
    fn validate_axes(&self) -> Result<(), ConfigError> {
        for (key, values) in &self.axes {
            if !axis_paths().any(|p| p == key) {
                return Err(ConfigError::unknown("axes", "axis path", key, axis_paths()));
            }
            let path = format!("axes.{key}");
            if values.is_empty() {
                return Err(ConfigError::at(&path, "axis must list at least one value"));
            }
            let mut seen = Vec::with_capacity(values.len());
            for v in values {
                if matches!(v, Json::Arr(_) | Json::Obj(_)) {
                    return Err(ConfigError::at(&path, "axis values must be scalars"));
                }
                let rendered = v.to_string_compact();
                if seen.contains(&rendered) {
                    return Err(ConfigError::at(
                        &path,
                        format!("axis values must be distinct (got {rendered} twice)"),
                    ));
                }
                seen.push(rendered);
            }
        }
        Ok(())
    }

    /// Expand the declared sweep axes into concrete specs: the cross
    /// product in lexicographic key order, each variant named
    /// `<name>/<key>=<value>/…` with its axes cleared and the axis value
    /// applied through [`ScenarioSpec::set_path`]. A spec without axes
    /// expands to itself. Deterministic: depends only on the spec.
    pub fn expand_axes(&self) -> Result<Vec<ScenarioSpec>, ConfigError> {
        self.validate_axes()?;
        let mut grid = vec![self.without_axes()];
        for (key, values) in &self.axes {
            let mut next = Vec::with_capacity(grid.len() * values.len());
            for base in &grid {
                for value in values {
                    let mut spec = base.clone();
                    spec.set_path(key, value)
                        .map_err(|e| ConfigError::at(format!("axes.{key}"), e.message))?;
                    spec.name = format!("{}/{key}={}", base.name, render_axis_value(value));
                    next.push(spec);
                }
            }
            grid = next;
        }
        Ok(grid)
    }

    /// This spec with its axes stripped (the per-cell payload).
    pub fn without_axes(&self) -> ScenarioSpec {
        ScenarioSpec { axes: BTreeMap::new(), ..self.clone() }
    }

    /// The canonical JSON value: every field present, object keys sorted.
    pub fn to_json(&self) -> Json {
        let fleet = self
            .ap_fleet
            .iter()
            .map(|ap| {
                Json::obj([
                    ("model", Json::Str(ap.model.clone())),
                    ("device", Json::Str(ap.device.clone())),
                    ("fs", Json::Str(ap.fs.clone())),
                ])
            })
            .collect();
        let axes = self.axes.iter().map(|(k, v)| (k.clone(), Json::Arr(v.clone()))).collect();
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("summary", Json::Str(self.summary.clone())),
            (
                "backend",
                Json::obj([
                    ("dynamics_probability", Json::Num(self.backend.dynamics_probability)),
                    ("warm_cache_pivot", Json::Num(self.backend.warm_cache_pivot)),
                    ("retry_decay", Json::Num(self.backend.retry_decay)),
                    ("cloud_retry_factor", Json::Num(self.backend.cloud_retry_factor)),
                    ("line_payload_kbps", Json::Num(self.backend.line_payload_kbps)),
                ]),
            ),
            ("cache_enabled", Json::Bool(self.cache_enabled)),
            (
                "cache",
                Json::obj([
                    ("policy", Json::Str(self.cache.policy.clone())),
                    ("shards", Json::Num(f64::from(self.cache.shards))),
                ]),
            ),
            ("cache_capacity_factor", Json::Num(self.cache_capacity_factor)),
            ("privileged_paths", Json::Bool(self.privileged_paths)),
            ("demand_factor", Json::Num(self.demand_factor)),
            ("cernet_share", self.cernet_share.map(Json::Num).unwrap_or(Json::Null)),
            (
                "faults",
                Json::obj([
                    ("intensity", Json::Num(self.faults.intensity)),
                    ("window_s", Json::Num(self.faults.window_s)),
                    ("net_slowdown", Json::Num(self.faults.net_slowdown)),
                    ("cloud_slowdown", Json::Num(self.faults.cloud_slowdown)),
                    ("ap_slowdown", Json::Num(self.faults.ap_slowdown)),
                ]),
            ),
            (
                "retry",
                Json::obj([
                    ("policy", Json::Str(self.retry.policy.clone())),
                    ("base_delay_s", Json::Num(self.retry.base_delay_s)),
                    ("max_attempts", Json::Num(f64::from(self.retry.max_attempts))),
                    ("jitter", Json::Num(self.retry.jitter)),
                ]),
            ),
            ("ap_fleet", Json::Arr(fleet)),
            ("sim", Json::obj([("scheduler", Json::Str(self.sim.scheduler.clone()))])),
            (
                "telemetry",
                Json::obj([("series_interval_s", Json::Num(self.telemetry.series_interval_s))]),
            ),
            ("axes", Json::Obj(axes)),
        ])
    }

    /// The byte-stable canonical dump: compact JSON with sorted keys and
    /// deterministic number rendering. `dump → parse → dump` is the
    /// identity on bytes for every valid spec.
    pub fn to_canonical_json(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parse a complete canonical dump (every field present or defaulted
    /// from the paper baseline) back into a spec. The inverse of
    /// [`ScenarioSpec::to_canonical_json`].
    pub fn from_json(value: &Json) -> Result<ScenarioSpec, ConfigError> {
        let mut spec = ScenarioSpec::baseline("", "");
        spec.apply_delta(value)?;
        Ok(spec)
    }
}

/// Render one axis value for a variant name: strings bare (no quotes),
/// everything else in compact JSON.
fn render_axis_value(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        other => other.to_string_compact(),
    }
}

/// Parse the `axes` object: dotted path → non-empty array of scalars.
fn parse_axes(value: &Json) -> Result<BTreeMap<String, Vec<Json>>, ConfigError> {
    let Json::Obj(map) = value else {
        return Err(ConfigError::at("axes", "expected a JSON object of `path: [values]`"));
    };
    let mut axes = BTreeMap::new();
    for (key, values) in map {
        let Json::Arr(items) = values else {
            return Err(ConfigError::at(format!("axes.{key}"), "expected a JSON array of values"));
        };
        axes.insert(key.clone(), items.clone());
    }
    Ok(axes)
}

fn num_at(path: &str, value: &Json) -> Result<f64, ConfigError> {
    value.as_f64().ok_or_else(|| ConfigError::at(path, format!("expected a number (got {value})")))
}

fn str_at(path: &str, value: &Json) -> Result<String, ConfigError> {
    value
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| ConfigError::at(path, format!("expected a string (got {value})")))
}

fn bool_at(path: &str, value: &Json) -> Result<bool, ConfigError> {
    value
        .as_bool()
        .ok_or_else(|| ConfigError::at(path, format!("expected true or false (got {value})")))
}

fn u32_at(path: &str, value: &Json) -> Result<u32, ConfigError> {
    let n = num_at(path, value)?;
    if n.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&n) {
        return Err(ConfigError::at(path, format!("expected a non-negative integer (got {n})")));
    }
    Ok(n as u32)
}

fn check_positive(path: &str, v: f64) -> Result<(), ConfigError> {
    if !v.is_finite() || v <= 0.0 {
        return Err(ConfigError::at(path, format!("must be > 0 and finite (got {v})")));
    }
    Ok(())
}

fn check_range(
    path: &str,
    v: f64,
    range: std::ops::RangeInclusive<f64>,
) -> Result<(), ConfigError> {
    if !v.is_finite() || !range.contains(&v) {
        return Err(ConfigError::at(
            path,
            format!("must lie in [{}, {}] (got {v})", range.start(), range.end()),
        ));
    }
    Ok(())
}

fn check_unit_interval_open_low(path: &str, v: f64) -> Result<(), ConfigError> {
    if !(v.is_finite() && v > 0.0 && v <= 1.0) {
        return Err(ConfigError::at(path, format!("must lie in (0, 1] (got {v})")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> ScenarioSpec {
        ScenarioSpec::baseline("paper-default", "the paper's measured configuration")
    }

    #[test]
    fn baseline_validates() {
        baseline().validate().unwrap();
    }

    #[test]
    fn set_path_reaches_every_known_path() {
        let mut spec = baseline();
        for path in KNOWN_PATHS {
            let value = match *path {
                "name" | "summary" => Json::Str("x".into()),
                "cache_enabled" | "privileged_paths" => Json::Bool(false),
                "cache.policy" => Json::Str("gdsf".into()),
                "cache.shards" => Json::Num(4.0),
                "sim.scheduler" => Json::Str("heap".into()),
                "cernet_share" => Json::Num(0.25),
                "retry.policy" => Json::Str("expo".into()),
                "retry.max_attempts" => Json::Num(2.0),
                p if p.starts_with("ap_fleet.") => Json::Str("newifi".into()),
                _ => Json::Num(0.5),
            };
            spec.set_path(path, &value).unwrap_or_else(|e| panic!("{path}: {e}"));
        }
    }

    #[test]
    fn unknown_path_names_the_nearest_alternative() {
        let mut spec = baseline();
        let err = spec.set_path("cache.polcy", &Json::Str("lru".into())).unwrap_err();
        assert!(err.message.contains("`cache.polcy`"), "{err}");
        assert!(err.message.contains("did you mean `cache.policy`?"), "{err}");
        let err = spec.set_path("demand_facto", &Json::Num(2.0)).unwrap_err();
        assert!(err.message.contains("did you mean `demand_factor`?"), "{err}");
    }

    #[test]
    fn type_mismatches_are_rejected_with_the_path() {
        let mut spec = baseline();
        let err = spec.set_path("demand_factor", &Json::Str("two".into())).unwrap_err();
        assert_eq!(err.path, "demand_factor");
        let err = spec.set_path("cache.shards", &Json::Num(1.5)).unwrap_err();
        assert_eq!(err.path, "cache.shards");
        assert!(err.message.contains("integer"));
        let err = spec.set_path("ap_fleet.7.model", &Json::Str("newifi".into())).unwrap_err();
        assert_eq!(err.path, "ap_fleet.7.model");
    }

    #[test]
    fn validation_rejects_the_previously_silent_configs() {
        // Regression: cernet_share outside [0, 1) used to produce negative
        // ISP shares silently; demand_factor <= 0 used to be accepted.
        for (path, value) in [
            ("cernet_share", 1.5),
            ("cernet_share", 1.0),
            ("cernet_share", -0.1),
            ("demand_factor", 0.0),
            ("demand_factor", -2.0),
            ("cache_capacity_factor", 0.0),
            ("cache_capacity_factor", -1.0),
            ("backend.retry_decay", 0.0),
            ("backend.dynamics_probability", 1.2),
            ("telemetry.series_interval_s", 0.0),
            ("telemetry.series_interval_s", -60.0),
            ("faults.intensity", 1.5),
            ("faults.intensity", -0.1),
            ("faults.window_s", 0.0),
            ("faults.net_slowdown", 0.0),
            ("faults.cloud_slowdown", 1.5),
            ("faults.ap_slowdown", -0.3),
            ("retry.base_delay_s", 0.0),
            ("retry.jitter", 1.5),
        ] {
            let mut spec = baseline();
            spec.set_path(path, &Json::Num(value)).unwrap();
            let err = spec.validate().unwrap_err();
            assert_eq!(err.path, path, "{path}={value} must fail at its own path");
        }
        let mut spec = baseline();
        spec.set_path("demand_factor", &Json::Num(f64::NAN)).unwrap();
        assert!(spec.validate().is_err(), "NaN must be rejected");
    }

    #[test]
    fn delta_layering_applies_nested_and_dotted_keys() {
        let mut spec = baseline();
        let delta = Json::parse(
            r#"{
                "name": "campus",
                "cache.policy": "gdsf",
                "backend": {"retry_decay": 0.9},
                "cernet_share": 0.3,
                "ap_fleet": [{}, {}, {"device": "usb-hdd", "fs": "ext4"}]
            }"#,
        )
        .unwrap();
        spec.apply_delta(&delta).unwrap();
        assert_eq!(spec.name, "campus");
        assert_eq!(spec.cache.policy, "gdsf");
        assert_eq!(spec.backend.retry_decay, 0.9);
        assert_eq!(spec.cernet_share, Some(0.3));
        assert_eq!(spec.ap_fleet[2].device, "usb-hdd");
        assert_eq!(spec.ap_fleet[2].fs, "ext4");
        // Untouched slots keep the baseline.
        assert_eq!(spec.ap_fleet[0].device, "sd-card");
        assert_eq!(spec.backend.dynamics_probability, 0.09);
    }

    #[test]
    fn delta_rejects_unknown_keys() {
        let mut spec = baseline();
        let delta = Json::parse(r#"{"demand_fator": 2}"#).unwrap();
        let err = spec.apply_delta(&delta).unwrap_err();
        assert!(err.message.contains("did you mean `demand_factor`?"), "{err}");
    }

    #[test]
    fn canonical_dump_round_trips_byte_identically() {
        let mut spec = baseline();
        spec.cernet_share = Some(0.3);
        spec.axes.insert("demand_factor".into(), vec![Json::Num(1.0), Json::Num(1.5)]);
        spec.axes
            .insert("cache.policy".into(), vec![Json::Str("lru".into()), Json::Str("gdsf".into())]);
        let dump = spec.to_canonical_json();
        let reparsed = ScenarioSpec::from_json(&Json::parse(&dump).unwrap()).unwrap();
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.to_canonical_json(), dump);
    }

    #[test]
    fn axes_expand_to_the_cross_product_in_key_order() {
        let mut spec = baseline();
        spec.name = "grid".into();
        spec.axes.insert("demand_factor".into(), vec![Json::Num(1.0), Json::Num(2.0)]);
        spec.axes
            .insert("cache.policy".into(), vec![Json::Str("lru".into()), Json::Str("gdsf".into())]);
        let grid = spec.expand_axes().unwrap();
        assert_eq!(grid.len(), 4);
        // BTreeMap order: cache.policy is the outer axis.
        let names: Vec<&str> = grid.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "grid/cache.policy=lru/demand_factor=1",
                "grid/cache.policy=lru/demand_factor=2",
                "grid/cache.policy=gdsf/demand_factor=1",
                "grid/cache.policy=gdsf/demand_factor=2",
            ]
        );
        assert_eq!(grid[3].cache.policy, "gdsf");
        assert_eq!(grid[3].demand_factor, 2.0);
        assert!(grid.iter().all(|s| s.axes.is_empty()), "expanded specs carry no axes");
        // No axes: the spec expands to itself.
        let flat = baseline().expand_axes().unwrap();
        assert_eq!(flat, vec![baseline()]);
    }

    #[test]
    fn axes_validation_rejects_bad_declarations() {
        let mut spec = baseline();
        spec.axes.insert("name".into(), vec![Json::Str("x".into())]);
        assert!(spec.validate().is_err(), "identity fields cannot be axes");

        let mut spec = baseline();
        spec.axes.insert("demand_fator".into(), vec![Json::Num(1.0)]);
        let err = spec.validate().unwrap_err();
        assert!(err.message.contains("did you mean `demand_factor`?"), "{err}");

        let mut spec = baseline();
        spec.axes.insert("demand_factor".into(), vec![]);
        assert!(spec.validate().is_err(), "empty axis");

        let mut spec = baseline();
        spec.axes.insert("demand_factor".into(), vec![Json::Num(1.0), Json::Num(1.0)]);
        let err = spec.validate().unwrap_err();
        assert!(err.message.contains("distinct"), "{err}");
    }

    #[test]
    fn fleet_delta_must_cover_exactly_three_aps() {
        let mut spec = baseline();
        let short = Json::parse(r#"{"ap_fleet": [{}]}"#).unwrap();
        let err = spec.apply_delta(&short).unwrap_err();
        assert_eq!(err.path, "ap_fleet");
        assert!(err.message.contains("exactly 3"));
    }
}
