//! `fleet-cohorts`: a `FleetSim` research run on 2 threads — a
//! homogeneous training-Q-DPM fleet that groups into the batched cohort
//! engine, then its twin on the DVFS preset with deadlines, which runs on
//! the dynamic per-device path.

use std::time::Instant;

use crate::host::Stopwatch;

use qdpm_core::QDpmConfig;
use qdpm_device::presets;
use qdpm_sim::{
    EngineMode, FleetConfig, FleetMember, FleetPolicy, FleetReport, FleetSim, ScenarioWorkload,
};
use qdpm_workload::{DeadlineSpec, DispatchPolicy, WorkloadSpec};

use crate::metrics::{LayerReport, NS_PER_S};
use crate::trace::SpanLog;
use crate::workloads::binomial_trace;
use crate::{derive_seed, err, Outcome, SimTotals, Workload};

const DEVICES: usize = 1000;
const HORIZON: u64 = 10_000;
/// Per-device arrival probability per slice.
const RATE: f64 = 0.05;
const THREADS: usize = 2;
const QUEUE_CAP: usize = 8;
/// Separates the two fleets' reports in [`Outcome::exact`].
const TWIN_MARK: &str = "\n-- deadline twin --\n";

/// The two fleets, built fresh for every call.
#[derive(Debug)]
pub struct FleetCohorts {
    /// Aggregate arrivals per slice, shared by both fleets.
    trace: Vec<u32>,
    arrivals: u64,
    seed: u64,
    deadline: DeadlineSpec,
}

impl FleetCohorts {
    /// Generates the aggregate arrival trace from `seed`.
    ///
    /// # Errors
    ///
    /// Never in practice; kept for the common constructor shape.
    pub fn new(seed: u64) -> Result<Self, String> {
        let trace = binomial_trace(DEVICES as u32, RATE, HORIZON, derive_seed(seed, 0));
        Ok(FleetCohorts {
            arrivals: trace.iter().map(|&c| u64::from(c)).sum(),
            trace,
            seed: derive_seed(seed, 1),
            deadline: DeadlineSpec::uniform(4, 32).map_err(err("deadline spec"))?,
        })
    }

    fn members(dvfs: bool) -> Vec<FleetMember> {
        let power = if dvfs {
            presets::three_state_dvfs()
        } else {
            presets::three_state_generic()
        };
        (0..DEVICES)
            .map(|i| FleetMember {
                label: format!("dev-{i}"),
                power: power.clone(),
                service: presets::default_service(),
                policy: FleetPolicy::QDpm(QDpmConfig::default()),
            })
            .collect()
    }

    fn config(&self, twin: bool) -> FleetConfig {
        FleetConfig {
            queue_cap: QUEUE_CAP,
            seed: self.seed,
            engine_mode: EngineMode::PerSlice,
            dispatch: DispatchPolicy::RoundRobin,
            horizon: HORIZON,
            deadline: twin.then_some(self.deadline),
            ..FleetConfig::default()
        }
    }

    fn build(&self, twin: bool, batch: bool) -> Result<FleetSim, String> {
        let aggregate = ScenarioWorkload::Stationary(WorkloadSpec::Trace {
            arrivals: self.trace.clone(),
        });
        let config = FleetConfig {
            batch_cohorts: batch,
            ..self.config(twin)
        };
        FleetSim::new(&Self::members(twin), &aggregate, &config).map_err(err("FleetSim::new"))
    }

    /// Builds and runs both fleets, with spans when `log` is given.
    fn call(
        &self,
        mut log: Option<&mut SpanLog>,
    ) -> Result<(Outcome, [usize; 2], [f64; 2]), String> {
        let watch = Stopwatch::start();
        let mut setup = 0.0;
        let mut cohorts = [0; 2];
        let mut run_s = [0.0; 2];
        let mut totals = SimTotals::default();
        let mut exact = String::new();
        for (i, twin) in [false, true].into_iter().enumerate() {
            let built = Stopwatch::start();
            let span = log
                .as_mut()
                .map(|l| l.open("sim.fleet.build", i as u64, None));
            let fleet = self.build(twin, true)?;
            if let (Some(l), Some(s)) = (log.as_mut(), span) {
                l.close(s);
            }
            setup += built.cpu_s();
            cohorts[i] = fleet.batched_cohorts();
            let ran = Instant::now();
            let name = if twin {
                "sim.fleet.dynamic_run"
            } else {
                "sim.fleet_batch.run"
            };
            let span = log.as_mut().map(|l| l.open(name, i as u64, None));
            let report = fleet.run(THREADS);
            if let (Some(l), Some(s)) = (log.as_mut(), span) {
                l.close(s);
            }
            run_s[i] = ran.elapsed().as_secs_f64();
            totals.add(&fleet_totals(&report, self.arrivals, twin));
            if twin {
                exact.push_str(TWIN_MARK);
            }
            exact.push_str(&format!("{report:?}"));
        }
        let outcome = Outcome {
            wall_s: watch.wall_s(),
            cpu_s: watch.cpu_s(),
            setup_s: Some(setup),
            device_slices: 2 * DEVICES as u64 * HORIZON,
            sim: totals,
            exact,
        };
        Ok((outcome, cohorts, run_s))
    }
}

fn fleet_totals(report: &FleetReport, arrivals: u64, tagged: bool) -> SimTotals {
    let total = &report.stats.total;
    SimTotals {
        device_slices: total.steps,
        energy: total.total_energy,
        arrivals,
        completed: total.completed,
        dropped: total.dropped,
        shed: 0,
        lost: 0,
        total_wait: total.total_wait,
        deadline: tagged.then_some(report.stats.deadline),
    }
}

impl Workload for FleetCohorts {
    fn shape(&self) -> String {
        format!(
            "closed loop, 2 FleetSim runs of {DEVICES} q-dpm devices x {HORIZON} slices on {THREADS} threads \
             ({} aggregate arrivals, round-robin, per-slice): three-state cohorts, then three-state-dvfs \
             with deadlines {:?}",
            self.arrivals, self.deadline
        )
    }

    fn threads(&self) -> usize {
        THREADS
    }

    fn run(&mut self) -> Result<Outcome, String> {
        Ok(self.call(None)?.0)
    }

    fn run_traced(&mut self) -> Result<(Outcome, LayerReport), String> {
        let mut log = SpanLog::new();
        let (outcome, cohorts, run_s) = self.call(Some(&mut log))?;
        let mut layers = LayerReport::new(log);
        // Both fleets are homogeneous: a fleet either batches all its
        // devices into cohorts or runs all of them dynamically.
        let batched = |c: usize| if c > 0 { DEVICES } else { 0 };
        let build_s = layers.span_total_ns("sim.fleet.build") as f64 / NS_PER_S;
        layers.set("sim.fleet.build_s", build_s);
        layers.set("sim.fleet_batch.run_s", run_s[0]);
        layers.set("sim.fleet_batch.cohorts", (cohorts[0] + cohorts[1]) as f64);
        layers.set(
            "sim.fleet_batch.devices",
            (batched(cohorts[0]) + batched(cohorts[1])) as f64,
        );
        layers.set("sim.fleet.dynamic_run_s", run_s[1]);
        layers.set(
            "sim.fleet.dynamic_devices",
            (2 * DEVICES - batched(cohorts[0]) - batched(cohorts[1])) as f64,
        );
        layers.set("sim.failed_share", outcome.sim.failed_share());
        layers.set("sim.deadline_miss_share", outcome.sim.deadline_miss_share());
        layers.set("trace.spans", layers.spans.spans().len() as f64);
        Ok((outcome, layers))
    }

    fn setup_alone(&mut self) -> Result<Option<f64>, String> {
        Ok(None)
    }

    fn check(&mut self, reference: &Outcome) -> Result<Vec<String>, String> {
        let mut passed = Vec::new();
        let (_, twin_text) = reference
            .exact
            .split_once(TWIN_MARK)
            .ok_or("reference lacks the twin report")?;
        for twin in [false, true] {
            let fleet = self.build(twin, true)?;
            let dispatched = fleet.dispatched_arrivals();
            let report = fleet.run(THREADS);
            let t = &report.stats.total;
            if dispatched != self.arrivals || t.arrivals != self.arrivals {
                return Err(format!(
                    "trace holds {} arrivals, dispatcher assigned {dispatched}, devices saw {}",
                    self.arrivals, t.arrivals
                ));
            }
            let queued = t
                .arrivals
                .checked_sub(t.completed + t.dropped)
                .ok_or("more completed and dropped than arrived")?;
            if queued > (DEVICES * QUEUE_CAP) as u64 {
                return Err(format!(
                    "{queued} requests queued, room for {}",
                    DEVICES * QUEUE_CAP
                ));
            }
            let which = if twin {
                "deadline twin"
            } else {
                "cohort fleet"
            };
            passed.push(format!(
                "{which}: arrivals {} == completed + dropped + queued {queued} (shed, lost 0)",
                t.arrivals
            ));
            if twin {
                let d = &report.stats.deadline;
                let in_queue = d
                    .tagged
                    .checked_sub(d.settled())
                    .ok_or("ledger settled more than tagged")?;
                if d.tagged != t.arrivals
                    || d.met + d.missed != t.completed
                    || d.dropped != t.dropped
                    || d.requeued + d.lost != 0
                    || in_queue != queued
                {
                    return Err(format!(
                        "deadline ledger {d:?} does not balance the run stats {t:?}"
                    ));
                }
                passed.push(format!(
                    "deadline twin: tagged {} == met + missed + dropped + requeued + lost + in_queue {in_queue}",
                    d.tagged
                ));
                if format!("{report:?}") != twin_text {
                    return Err("deadline twin report differs between calls".to_string());
                }
            } else {
                let dynamic = self.build(false, false)?.run(THREADS);
                if format!("{dynamic:?}") != format!("{report:?}") {
                    return Err("cohort engine report differs from the dynamic path's".to_string());
                }
                passed.push("cohort engine report equals the dynamic path's".to_string());
            }
        }
        Ok(passed)
    }
}
