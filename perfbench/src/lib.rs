//! The qdpm benchmark: four seeded workloads, from the `qdpm-serve`
//! daemon path to the paper's Fig. 2 seed grid, timed end to end and,
//! in a separate traced run, layer by layer.
//!
//! `python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` builds this crate and runs one workload; see
//! `perfbench/README.md` for what each metric means and where it moves.

pub mod calib;
pub mod host;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

use qdpm_workload::DeadlineStats;

use crate::metrics::LayerReport;

/// Simulated totals of one workload call. Deterministic given the seed:
/// a change meant only for speed must leave every field bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    /// Device-slices the reports cover.
    pub device_slices: u64,
    /// Simulated energy over those device-slices.
    pub energy: f64,
    /// External arrivals fed to the system under test.
    pub arrivals: u64,
    /// Requests served.
    pub completed: u64,
    /// Requests refused by a full queue.
    pub dropped: u64,
    /// Requests shed because no healthy device or retry budget was left.
    pub shed: u64,
    /// Requests lost with a crashed device's queue.
    pub lost: u64,
    /// Summed wait of served requests, in slices.
    pub total_wait: u64,
    /// Deadline ledger, for workloads that tag deadlines.
    pub deadline: Option<DeadlineStats>,
}

impl SimTotals {
    /// Simulated energy per device-slice.
    #[must_use]
    pub fn energy_per_device_slice(&self) -> f64 {
        self.energy / self.device_slices as f64
    }

    /// Mean wait of served requests, in slices.
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        self.total_wait as f64 / self.completed as f64
    }

    /// (dropped + shed + lost) / arrivals.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        (self.dropped + self.shed + self.lost) as f64 / self.arrivals as f64
    }

    /// missed / tagged, 0 for untagged workloads.
    #[must_use]
    pub fn deadline_miss_share(&self) -> f64 {
        self.deadline
            .filter(|d| d.tagged > 0)
            .map_or(0.0, |d| d.missed as f64 / d.tagged as f64)
    }

    /// Adds another call's totals (workloads made of several runs).
    pub fn add(&mut self, other: &SimTotals) {
        self.device_slices += other.device_slices;
        self.energy += other.energy;
        self.arrivals += other.arrivals;
        self.completed += other.completed;
        self.dropped += other.dropped;
        self.shed += other.shed;
        self.lost += other.lost;
        self.total_wait += other.total_wait;
        self.deadline = match (self.deadline, other.deadline) {
            (Some(mut a), Some(b)) => {
                a.merge(&b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
    }
}

/// What one timed workload call produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall time of the whole call, set-up included, in s.
    pub wall_s: f64,
    /// CPU time of the whole call over all threads, set-up included, in s.
    pub cpu_s: f64,
    /// Set-up CPU time inside the call, when the call exposes it.
    pub setup_s: Option<f64>,
    /// Device-slices this call simulated (the throughput numerator).
    pub device_slices: u64,
    /// Simulated totals of the call's reports.
    pub sim: SimTotals,
    /// Every simulated output of the call rendered exactly (f64 bits or
    /// shortest round-trip text): equal strings mean bit-identical
    /// statistics.
    pub exact: String,
}

/// A workload: its inputs are generated once from the seed, then it is
/// called repeatedly, timed, traced and checked.
pub trait Workload {
    /// One line naming the loop type and the input size.
    fn shape(&self) -> String;

    /// Threads a call keeps busy, for the host-speed calibration.
    fn threads(&self) -> usize;

    /// One untraced call.
    ///
    /// # Errors
    ///
    /// Any failure of the code under test.
    fn run(&mut self) -> Result<Outcome, String>;

    /// One call with spans around every call into a layer.
    ///
    /// # Errors
    ///
    /// Any failure of the code under test.
    fn run_traced(&mut self) -> Result<(Outcome, LayerReport), String>;

    /// Set-up CPU time alone, for workloads whose timed call hides it
    /// inside the program (the daemon); `None` when [`Outcome::setup_s`]
    /// is filled.
    ///
    /// # Errors
    ///
    /// Any failure of the code under test.
    fn setup_alone(&mut self) -> Result<Option<f64>, String>;

    /// Correctness checks against a reference call; returns the name of
    /// every check that passed.
    ///
    /// # Errors
    ///
    /// The first failed check, described.
    fn check(&mut self, reference: &Outcome) -> Result<Vec<String>, String>;
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "serve-dense",
    "serve-sparse-resume",
    "fleet-cohorts",
    "grid-drift",
];

/// Generates the inputs of workload `name` from `seed` under `work` and
/// returns it ready to run.
///
/// # Errors
///
/// Unknown names and failures while generating inputs.
pub fn build(name: &str, seed: u64, work: PathBuf) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "serve-dense" => Box::new(workloads::serve::ServeWorkload::dense(seed, work)?),
        "serve-sparse-resume" => {
            Box::new(workloads::serve::ServeWorkload::sparse_resume(seed, work)?)
        }
        "fleet-cohorts" => Box::new(workloads::fleet::FleetCohorts::new(seed)?),
        "grid-drift" => Box::new(workloads::grid::GridDrift::new(seed)?),
        other => return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    })
}

/// Seed of the `index`-th independent input stream of a run.
#[must_use]
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    qdpm_core::rng_util::splitmix64(seed, index)
}

/// Formats an error as a `String`.
pub fn err<E: std::fmt::Display>(context: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}
