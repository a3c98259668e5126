//! `grid-drift`: the paper's Fig. 2 scenario as a seed grid. Independent
//! single-device simulators run a piecewise-stationary schedule per slice,
//! Q-DPM beside the model-based adaptive pipeline (estimator +
//! Page–Hinkley + policy-iteration re-solve), through
//! `parallel::run_indexed_mut` on 2 threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qdpm_core::{
    Exploration, Observation, PowerManager, QDpmAgent, QDpmConfig, RewardWeights, StateError,
    StateReader, StateWriter, StepOutcome,
};
use qdpm_device::{presets, PowerModel, PowerStateId, ServiceModel};
use qdpm_sim::parallel::run_indexed_mut;
use qdpm_sim::{AdaptiveConfig, ModelBasedAdaptive, RunStats, SimConfig, Simulator};
use qdpm_workload::{PiecewiseStationary, RequestGenerator, Segment, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::Stopwatch;
use crate::metrics::{LayerReport, NS_PER_MS};
use crate::stats::Hist;
use crate::trace::SpanLog;
use crate::{derive_seed, err, Outcome, SimTotals, Workload};

/// The six arrival rates of `fig2.rs`; the seed shuffles their order for
/// each replicate.
const FIG2_RATES: [f64; 6] = [0.02, 0.25, 0.05, 0.25, 0.02, 0.15];
const SEGMENT: u64 = 40_000;
const REPLICATES: usize = 8;
const THREADS: usize = 2;
const QUEUE_CAP: usize = 8;

/// One cell of the grid: which manager, on which replicate's schedule
/// and seed.
#[derive(Debug, Clone, Copy)]
struct Cell {
    adaptive: bool,
    rates: [f64; 6],
    seed: u64,
}

/// The seed grid; simulators are built fresh for every call.
#[derive(Debug)]
pub struct GridDrift {
    cells: Vec<Cell>,
    power: PowerModel,
    service: ServiceModel,
}

impl GridDrift {
    /// Shuffles a Fig. 2 schedule and derives a simulator seed for every
    /// replicate; both managers of a replicate face the same arrivals.
    ///
    /// # Errors
    ///
    /// Never in practice; kept for the common constructor shape.
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0));
        let cells = (0..REPLICATES)
            .flat_map(|r| {
                let mut rates = FIG2_RATES;
                for i in (1..rates.len()).rev() {
                    rates.swap(i, qdpm_core::rng_util::uniform_index(&mut rng, i + 1));
                }
                let seed = derive_seed(seed, 1 + r as u64);
                [false, true].map(|adaptive| Cell {
                    adaptive,
                    rates,
                    seed,
                })
            })
            .collect();
        Ok(GridDrift {
            cells,
            power: presets::three_state_generic(),
            service: presets::default_service(),
        })
    }

    fn horizon(&self) -> u64 {
        SEGMENT * FIG2_RATES.len() as u64
    }

    fn schedule(cell: &Cell) -> Result<PiecewiseStationary, String> {
        let segments = cell
            .rates
            .iter()
            .map(|&p| {
                Ok(Segment::new(
                    SEGMENT,
                    WorkloadSpec::bernoulli(p).map_err(err("rate"))?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        PiecewiseStationary::new(segments).map_err(err("schedule"))
    }

    fn agent_config() -> QDpmConfig {
        // Fig. 2's tracking configuration: constant 2% exploration.
        QDpmConfig {
            exploration: Exploration::EpsilonGreedy { epsilon: 0.02 },
            queue_cap: QUEUE_CAP,
            weights: RewardWeights::default(),
            ..QDpmConfig::default()
        }
    }

    fn adaptive_config(cell: &Cell) -> AdaptiveConfig {
        AdaptiveConfig {
            queue_cap: QUEUE_CAP,
            weights: RewardWeights::default(),
            initial_rate: cell.rates[0],
            ..AdaptiveConfig::default()
        }
    }

    /// Builds the power manager of `cell`, wrapped in a timing decorator
    /// when `probe` is given.
    fn manager(
        &self,
        cell: Cell,
        probe: Option<(&Probe, usize)>,
    ) -> Result<Box<dyn PowerManager>, String> {
        Ok(match (cell.adaptive, probe) {
            (false, None) => {
                Box::new(QDpmAgent::new(&self.power, Self::agent_config()).map_err(err("agent"))?)
            }
            (false, Some((p, slot))) => Box::new(Timed::new(
                QDpmAgent::new(&self.power, Self::agent_config()).map_err(err("agent"))?,
                p,
                slot,
            )),
            (true, None) => Box::new(
                ModelBasedAdaptive::new(&self.power, &self.service, Self::adaptive_config(&cell))
                    .map_err(err("adaptive pipeline"))?,
            ),
            (true, Some((p, slot))) => Box::new(Timed::new(
                ModelBasedAdaptive::new(&self.power, &self.service, Self::adaptive_config(&cell))
                    .map_err(err("adaptive pipeline"))?,
                p,
                slot,
            )),
        })
    }

    fn simulator(&self, cell: Cell, pm: Box<dyn PowerManager>) -> Result<Simulator, String> {
        Simulator::new(
            self.power.clone(),
            self.service,
            Box::new(Self::schedule(&cell)?),
            pm,
            SimConfig {
                queue_cap: QUEUE_CAP,
                weights: RewardWeights::default(),
                seed: cell.seed,
                ..SimConfig::default()
            },
        )
        .map_err(err("Simulator::new"))
    }

    fn outcome(&self, watch: Option<Stopwatch>, setup_s: f64, sims: &[Simulator]) -> Outcome {
        let mut sim = SimTotals::default();
        let mut exact = String::new();
        for s in sims {
            let stats = s.stats();
            sim.add(&run_totals(stats));
            exact.push_str(&format!("{stats:?}\n"));
        }
        Outcome {
            wall_s: watch.map_or(0.0, |w| w.wall_s()),
            cpu_s: watch.map_or(0.0, |w| w.cpu_s()),
            setup_s: Some(setup_s),
            device_slices: self.cells.len() as u64 * self.horizon(),
            sim,
            exact,
        }
    }
}

fn run_totals(stats: &RunStats) -> SimTotals {
    SimTotals {
        device_slices: stats.steps,
        energy: stats.total_energy,
        arrivals: stats.arrivals,
        completed: stats.completed,
        dropped: stats.dropped,
        total_wait: stats.total_wait,
        ..SimTotals::default()
    }
}

impl Workload for GridDrift {
    fn shape(&self) -> String {
        format!(
            "closed loop, {} single-device simulators (q-dpm and model-based-adaptive x {REPLICATES} seeds) \
             x {} slices per-slice on {THREADS} threads; each seed runs a shuffle of the Fig. 2 rates \
             {FIG2_RATES:?}, {SEGMENT} slices each (first: {:?})",
            self.cells.len(),
            self.horizon(),
            self.cells[0].rates
        )
    }

    fn threads(&self) -> usize {
        THREADS
    }

    fn run(&mut self) -> Result<Outcome, String> {
        let watch = Stopwatch::start();
        let mut sims = Vec::with_capacity(self.cells.len());
        for &cell in &self.cells {
            sims.push(self.simulator(cell, self.manager(cell, None)?)?);
        }
        let setup_s = watch.cpu_s();
        let horizon = self.horizon();
        run_indexed_mut(&mut sims, THREADS, |_, sim| {
            sim.run(horizon);
        });
        Ok(self.outcome(Some(watch), setup_s, &sims))
    }

    fn run_traced(&mut self) -> Result<(Outcome, LayerReport), String> {
        let watch = Stopwatch::start();
        let mut log = SpanLog::new();
        let probe = Probe::new(self.cells.len());
        let mut cells = Vec::with_capacity(self.cells.len());
        for (i, &cell) in self.cells.iter().enumerate() {
            let name = if cell.adaptive {
                "sim.adaptive.build"
            } else {
                "core.agent.build"
            };
            let pm = log.time(name, i as u64, None, || {
                self.manager(cell, Some((&probe, i)))
            })?;
            cells.push(self.simulator(cell, pm)?);
        }
        let setup_s = watch.cpu_s();
        let horizon = self.horizon();
        let epoch = log.epoch();
        let grid = log.open("sim.parallel.run_indexed", 0, None);
        let children = &probe.children;
        let workers = run_indexed_mut(&mut cells, THREADS, |i, sim| {
            let mut worker = SpanLog::with_epoch(epoch);
            let mut steps = Hist::default();
            let mut self_ns = 0u128;
            let span = worker.open("sim.engine.run_cell", i as u64, None);
            for _ in 0..horizon {
                let t = Instant::now();
                sim.step();
                let ns = t.elapsed().as_nanos() as u64;
                steps.record(ns);
                self_ns += u128::from(ns.saturating_sub(children[i].swap(0, Ordering::Relaxed)));
            }
            worker.close(span);
            (worker, steps, self_ns)
        });
        log.close(grid);
        let grid_ns = log.duration(grid) as f64;
        let outcome = self.outcome(Some(watch), setup_s, &cells);
        drop(cells); // the decorators hand their samples to the probe on drop

        let mut steps = Hist::default();
        let mut self_ns = 0u128;
        let mut busy_ns = 0u128;
        for (worker, h, s) in workers {
            busy_ns += worker
                .spans()
                .iter()
                .map(|sp| u128::from(sp.end - sp.start))
                .sum::<u128>();
            log.adopt(worker, Some(grid));
            steps.merge(&h);
            self_ns += s;
        }
        let mut layers = LayerReport::new(log);
        let samples = probe.samples.lock().expect("probe poisoned").clone();
        let mut by_kind = [AgentSamples::default(), AgentSamples::default()];
        for s in &samples {
            by_kind[usize::from(s.adaptive)].merge(s);
        }
        let [agent, adaptive] = by_kind;
        layers.set_percentiles(
            "core.agent.decide_ns_p50",
            "core.agent.decide_ns_ptail",
            &agent.decide,
            1.0,
        );
        layers.set("core.agent.decide_calls", agent.decide.count() as f64);
        layers.set_percentiles(
            "core.agent.observe_ns_p50",
            "core.agent.observe_ns_ptail",
            &agent.observe,
            1.0,
        );
        layers.set("core.agent.observe_calls", agent.observe.count() as f64);
        let adaptive_build = layers.span_total_ns("sim.adaptive.build") as f64 / NS_PER_MS;
        layers.set("sim.adaptive.build_ms", adaptive_build);
        layers.set(
            "sim.adaptive.decide_ns_p50",
            adaptive.decide.percentile(50.0) as f64,
        );
        layers.set("sim.adaptive.decide_calls", adaptive.decide.count() as f64);
        layers.set_percentiles(
            "sim.adaptive.observe_ns_p50",
            "sim.adaptive.observe_ns_ptail",
            &adaptive.observe,
            1.0,
        );
        layers.set("sim.adaptive.observe_ns_max", adaptive.observe.max() as f64);
        layers.set(
            "sim.adaptive.observe_calls",
            adaptive.observe.count() as f64,
        );
        layers.set("sim.adaptive.resolves", adaptive.resolves as f64);
        layers.set("sim.adaptive.alarms", adaptive.alarms as f64);
        layers.set("mdp.solve_ms_total", adaptive.solve.as_secs_f64() * 1e3);
        layers.set_percentiles(
            "sim.engine.step_ns_p50",
            "sim.engine.step_ns_ptail",
            &steps,
            1.0,
        );
        layers.set("sim.engine.step_calls", steps.count() as f64);
        layers.set(
            "sim.engine.step_self_ns_mean",
            self_ns as f64 / steps.count() as f64,
        );
        layers.set(
            "sim.parallel.busy_share",
            busy_ns as f64 / (THREADS as f64 * grid_ns),
        );
        layers.set("sim.failed_share", outcome.sim.failed_share());
        layers.set("trace.spans", layers.spans.spans().len() as f64);
        layers.hists.insert("core.agent.decide", agent.decide);
        layers.hists.insert("core.agent.observe", agent.observe);
        layers.hists.insert("sim.adaptive.decide", adaptive.decide);
        layers
            .hists
            .insert("sim.adaptive.observe", adaptive.observe);
        layers.hists.insert("sim.engine.step", steps);
        Ok((outcome, layers))
    }

    fn setup_alone(&mut self) -> Result<Option<f64>, String> {
        Ok(None)
    }

    fn check(&mut self, reference: &Outcome) -> Result<Vec<String>, String> {
        // Rebuild and rerun so each simulator's final queue can be read,
        // and redraw every cell's arrivals independently of the engine.
        let mut sims = Vec::with_capacity(self.cells.len());
        for &cell in &self.cells {
            sims.push(self.simulator(cell, self.manager(cell, None)?)?);
        }
        let horizon = self.horizon();
        run_indexed_mut(&mut sims, THREADS, |_, sim| {
            sim.run(horizon);
        });
        if self.outcome(None, 0.0, &sims).exact != reference.exact {
            return Err("grid statistics differ between calls".to_string());
        }
        let mut arrivals = 0;
        let mut queued = 0;
        for (sim, cell) in sims.iter().zip(&self.cells) {
            let s = sim.stats();
            let waiting = sim.observation().queue_len as u64;
            let mut schedule = Self::schedule(cell)?;
            let mut rng = StdRng::seed_from_u64(cell.seed);
            let external: u64 = (0..horizon)
                .map(|_| u64::from(schedule.next_arrivals(&mut rng)))
                .sum();
            if s.arrivals != external || s.arrivals != s.completed + s.dropped + waiting {
                return Err(format!(
                    "cell {cell:?}: schedule drew {external}, simulator saw {} = completed {} + dropped {} + queued {waiting}?",
                    s.arrivals, s.completed, s.dropped
                ));
            }
            arrivals += external;
            queued += waiting;
        }
        Ok(vec![format!(
            "every cell: arrivals (total {arrivals}) == redrawn schedule == completed + dropped + queued (total {queued})"
        )])
    }
}

/// Where the [`Timed`] decorator of each cell reports: the nanoseconds
/// spent inside the manager during the current step (read and reset by
/// the step loop), and its samples once its simulator is dropped.
#[derive(Debug)]
struct Probe {
    children: Arc<Vec<AtomicU64>>,
    samples: Arc<Mutex<Vec<AgentSamples>>>,
}

impl Probe {
    fn new(cells: usize) -> Self {
        Probe {
            children: Arc::new((0..cells).map(|_| AtomicU64::new(0)).collect()),
            samples: Arc::new(Mutex::new(vec![AgentSamples::default(); cells])),
        }
    }
}

/// One manager's call durations and, for the adaptive pipeline, its
/// diagnostics.
#[derive(Debug, Clone, Default)]
struct AgentSamples {
    adaptive: bool,
    decide: Hist,
    observe: Hist,
    resolves: u64,
    alarms: u64,
    solve: Duration,
}

impl AgentSamples {
    fn merge(&mut self, other: &AgentSamples) {
        self.decide.merge(&other.decide);
        self.observe.merge(&other.observe);
        self.resolves += other.resolves;
        self.alarms += other.alarms;
        self.solve += other.solve;
    }
}

/// Diagnostics a decorated manager exposes.
trait Diagnostics {
    fn fill(&self, samples: &mut AgentSamples);
}

impl Diagnostics for QDpmAgent {
    fn fill(&self, _: &mut AgentSamples) {}
}

impl Diagnostics for ModelBasedAdaptive {
    fn fill(&self, samples: &mut AgentSamples) {
        samples.adaptive = true;
        samples.resolves = self.n_resolves;
        samples.alarms = self.n_alarms;
        samples.solve = self.solve_wall_time;
    }
}

/// A `PowerManager` decorator that forwards every trait method to the
/// wrapped manager and times `decide` and `observe`. It draws from no RNG
/// of its own, so a decorated run is bit-identical to an undecorated one.
#[derive(Debug)]
struct Timed<P: PowerManager + Diagnostics> {
    inner: P,
    samples: AgentSamples,
    slot: usize,
    children: Arc<Vec<AtomicU64>>,
    sink: Arc<Mutex<Vec<AgentSamples>>>,
}

impl<P: PowerManager + Diagnostics> Timed<P> {
    fn new(inner: P, probe: &Probe, slot: usize) -> Self {
        Timed {
            inner,
            samples: AgentSamples::default(),
            slot,
            children: Arc::clone(&probe.children),
            sink: Arc::clone(&probe.samples),
        }
    }

    fn charge(&self, ns: u64) {
        self.children[self.slot].fetch_add(ns, Ordering::Relaxed);
    }
}

impl<P: PowerManager + Diagnostics> PowerManager for Timed<P> {
    fn decide(&mut self, obs: &Observation, rng: &mut dyn Rng) -> PowerStateId {
        let t = Instant::now();
        let action = self.inner.decide(obs, rng);
        let ns = t.elapsed().as_nanos() as u64;
        self.samples.decide.record(ns);
        self.charge(ns);
        action
    }

    fn observe(&mut self, outcome: &StepOutcome, next_obs: &Observation) {
        let t = Instant::now();
        self.inner.observe(outcome, next_obs);
        let ns = t.elapsed().as_nanos() as u64;
        self.samples.observe.record(ns);
        self.charge(ns);
    }

    fn commit_quiescent(
        &mut self,
        obs: &Observation,
        per_slice: &StepOutcome,
        max: u64,
        rng: &mut dyn Rng,
    ) -> u64 {
        self.inner.commit_quiescent(obs, per_slice, max, rng)
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.inner.load_state(r)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<P: PowerManager + Diagnostics> Drop for Timed<P> {
    fn drop(&mut self) {
        let mut samples = std::mem::take(&mut self.samples);
        self.inner.fill(&mut samples);
        if let Ok(mut sink) = self.sink.lock() {
            sink[self.slot] = samples;
        }
    }
}
