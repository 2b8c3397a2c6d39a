//! The odx benchmark: three workloads timed end to end, plus a separate
//! traced run that splits the time layer by layer.
//!
//! Every timing here is taken from outside the program, around calls to
//! its public entry points; the program itself carries no benchmark
//! instrumentation. See `README.md` in this directory for the metrics, the
//! layer map and the reasons behind each workload.

pub mod compare;
pub mod decide;
pub mod digest;
pub mod probe;
pub mod provenance;
pub mod record;
pub mod run;
pub mod spans;
pub mod stats;
pub mod week;

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `paper-default` week through the reproducer's whole path.
    PaperWeek,
    /// The same path under the `cache-pressure` preset (pool at 2 %).
    PressureWeek,
    /// The §6.1 ODR service live on loopback, closed loop.
    OdrDecide,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] =
        [Workload::PaperWeek, Workload::PressureWeek, Workload::OdrDecide];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperWeek => "paper-week",
            Workload::PressureWeek => "pressure-week",
            Workload::OdrDecide => "odr-decide",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario preset the workload runs under.
    pub fn preset(self) -> &'static str {
        match self {
            Workload::PaperWeek | Workload::OdrDecide => "paper-default",
            Workload::PressureWeek => "cache-pressure",
        }
    }
}

/// Workload scale relative to the paper (1.0 = 4.08 M tasks). At 0.05 a
/// week takes about a second on one core, so a run holds ten or more
/// weeks and reports their median and p90, while the cache-pressure pool
/// still evicts about once per insert.
pub const SCALE: f64 = 0.05;

/// The §5.1/§6.2 sample size, as `repro` uses by default.
pub const SAMPLE: usize = 1000;
