#![warn(missing_docs)]

//! # odx-sim — deterministic discrete-event simulation engine
//!
//! The measurement study reproduced by this workspace replays a full week of
//! offline-downloading activity (millions of pre-download and fetch
//! processes). Real time is useless for that; instead every system model in
//! the workspace runs on this engine:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with millisecond
//!   resolution (a simulated week is ~6×10⁸ ms, far inside `u64`).
//! * [`TimingWheel`] / [`Simulation`] — a five-level hierarchical timing
//!   wheel, the default scheduler: O(1) schedule, amortised O(1) pop, and a
//!   strict `(time, seq)` pop order (same-timestamp events fire in
//!   scheduling order), so runs are bit-for-bit reproducible.
//! * [`EventQueue`] / [`Scheduler`] — a binary heap with the same contract,
//!   kept as the reference the wheel is checked against, and the enum that
//!   lets a simulation pick either at run time (`--set sim.scheduler=heap`
//!   replays byte-identically). Every scheduled event fires exactly once:
//!   there are no handles and no cancellation.
//! * [`ArrivalSource`] / [`Simulation::run_streamed`] — just-in-time chunk
//!   admission, so full-scale replays never materialize millions of arrival
//!   events in the queue up front.
//! * [`FxHashMap`] / [`FxHashSet`] — deterministic FxHash-based maps for
//!   simulation-internal lookups on the hot path.
//! * [`RngFactory`] — named, independently seeded RNG streams, so adding a
//!   sampling site in one subsystem never perturbs another subsystem's draws.
//! * [`fluid`] — a max–min fair bandwidth solver used to share link capacity
//!   between concurrent flows (the "progressive filling" algorithm).
//! * [`TokenBucket`] — rate shaping (used for upload-governor ablations).
//! * [`OnlineStats`] — streaming mean/variance/min/max without storing
//!   samples.
//!
//! Everything is `std`-only plus `rand` for the underlying generator.
//!
//! ## Example
//!
//! ```
//! use odx_sim::{Simulation, SimTime, SimDuration, World, Ctx};
//!
//! struct Counter { fired: u32 }
//! enum Ev { Tick }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Ctx<Ev>, _ev: Ev) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             ctx.schedule_in(SimDuration::from_secs(1), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.schedule_at(SimTime::ZERO, Ev::Tick);
//! sim.run_to_completion();
//! assert_eq!(sim.world().fired, 3);
//! assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(2));
//! ```

mod engine;
mod event;
pub mod fluid;
mod fxhash;
mod rng;
mod stats;
mod time;
mod token_bucket;
mod wheel;

pub use engine::{ArrivalSource, Ctx, Simulation, World};
pub use event::EventQueue;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use rng::{named_seed, RngFactory, SimRng};
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime};
pub use token_bucket::TokenBucket;
pub use wheel::{Scheduler, SchedulerKind, TimingWheel};
