//! Batched execution of homogeneous fleet cohorts.
//!
//! A fleet of thousands of *identical* devices (same [`PowerModel`], same
//! [`ServiceModel`], same [`crate::fleet::FleetPolicy`]) pays the dynamic
//! path's per-device overheads — one boxed [`qdpm_core::PowerManager`] and
//! one boxed [`qdpm_workload::RequestGenerator`] virtual call per slice,
//! one simulator with its own workload and noise streams — thousands of
//! times per slice for code that is the same. A [`CohortSim`] strips that
//! overhead: it holds one slice kernel per member (the same kernel
//! [`crate::Simulator`] steps), each member's dispatched arrival events,
//! and one policy resolved *once* per run (a single striped
//! [`BatchLearner`] for Q-DPM cohorts), and steps every member through a
//! loop monomorphized over that policy.
//!
//! # Exactness contract
//!
//! A cohort run is **bit-exact** against the dynamic path by construction:
//! every member executes the engine's one slice body, seeded from the
//! *same* device seed the dynamic path would use
//! ([`derive_cell_seed`]`(fleet_seed, global_index)`), with the same fault
//! schedule and deadline tagging, and with the *same* [`SparseTrace`] of
//! arrivals the [`WorkloadDispatcher`] split hands the dynamic path. The
//! fleet conformance suite pins batched ≡ dynamic ≡ event-skip to equal
//! f64 bits, faults and deadlines included.
//!
//! [`WorkloadDispatcher`]: qdpm_workload::WorkloadDispatcher
//! [`PowerModel`]: qdpm_device::PowerModel
//! [`ServiceModel`]: qdpm_device::ServiceModel

use rand::rngs::StdRng;

use qdpm_core::{
    BatchLearner, DpmStateEncoder, LegalActionTable, Observation, PowerManager, RewardWeights,
    StateEncoder, StepOutcome,
};
use qdpm_device::{DeviceMode, PowerStateId, Step};
use qdpm_workload::{DeadlineStats, FaultPlan, SparseTrace};

use crate::engine::{diff_stats, ArrivalSource, BatchPolicy, SliceEnv, SliceKernel};
use crate::fleet::{FleetConfig, FleetMember, FleetPolicy};
use crate::parallel::derive_cell_seed;
use crate::{policies, FaultStats, RunStats, SimError};

/// Whether a fleet policy can run on the batched cohort path.
///
/// Batchable policies are exactly those whose per-slice behaviour is a
/// pure function of the device's own observation and RNG stream:
/// [`FleetPolicy::AlwaysOn`], [`FleetPolicy::GreedyOff`],
/// [`FleetPolicy::BreakEvenTimeout`], [`FleetPolicy::FixedTimeout`], and
/// [`FleetPolicy::QDpm`] (per-device tables, striped in a
/// [`BatchLearner`]). The rest stay on the dynamic path:
/// [`FleetPolicy::AdaptiveTimeout`] and the oracles carry cross-slice
/// controller state a shared cohort policy does not model, and
/// [`FleetPolicy::QosQDpm`] / [`FleetPolicy::SharedQDpm`] learn through
/// machinery (Lagrange multiplier, shared table) that is not per-device.
#[must_use]
pub fn is_batchable(policy: &FleetPolicy) -> bool {
    matches!(
        policy,
        FleetPolicy::AlwaysOn
            | FleetPolicy::GreedyOff
            | FleetPolicy::BreakEvenTimeout
            | FleetPolicy::FixedTimeout(_)
            | FleetPolicy::QDpm(_)
    )
}

/// Partitions a member list into batched cohorts: maximal groups of ≥ 2
/// devices agreeing on power model, service model, and (batchable)
/// policy, each listed in ascending global device order. Singletons and
/// non-batchable members are left for the dynamic path.
#[must_use]
pub(crate) fn group_cohorts(members: &[FleetMember]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut reps: Vec<usize> = Vec::new();
    for (index, member) in members.iter().enumerate() {
        if !is_batchable(&member.policy) {
            continue;
        }
        match reps.iter().position(|&r| {
            let rep = &members[r];
            rep.power == member.power
                && rep.service == member.service
                && rep.policy == member.policy
        }) {
            Some(g) => groups[g].push(index),
            None => {
                reps.push(index);
                groups.push(vec![index]);
            }
        }
    }
    groups.retain(|g| g.len() >= 2);
    groups
}

/// Stateless heuristics share one instance across the cohort: their
/// [`PowerManager`] impls read only the observation.
macro_rules! stateless_batch_policy {
    ($ty:ty) => {
        impl BatchPolicy for $ty {
            #[inline]
            fn decide(
                &mut self,
                _device: usize,
                obs: &Observation,
                rng: &mut StdRng,
            ) -> PowerStateId {
                PowerManager::decide(self, obs, rng)
            }

            #[inline]
            fn observe(&mut self, _device: usize, _outcome: &StepOutcome, _next_obs: &Observation) {
            }
        }
    };
}

stateless_batch_policy!(policies::AlwaysOn);
stateless_batch_policy!(policies::GreedyOff);
stateless_batch_policy!(policies::FixedTimeout);

/// The cohort's Q-DPM brain: one striped [`BatchLearner`] plus the shared
/// encoder and legal-action table — the batched counterpart of N
/// [`qdpm_core::QDpmAgent`]s.
#[derive(Debug)]
struct QDpmBatch {
    learner: BatchLearner,
    encoder: DpmStateEncoder,
    legal: LegalActionTable,
    /// The agent-side reward weights (from the member's
    /// [`qdpm_core::QDpmConfig`], which may differ from the fleet's
    /// metrics weights).
    weights: RewardWeights,
    /// `(state, action)` of the in-flight decide, slice-local: every
    /// decide is answered by an observe within the same device step.
    pending: (usize, usize),
    /// Encoded state carried from the previous slice's `next_obs` to the
    /// next `decide` of the *same device stretch*. Nothing mutates the
    /// device between `observe(t)` and `decide(t + 1)` short of a crash
    /// reboot, so the two observations are identical and re-encoding
    /// would be pure waste. Dropped by [`BatchPolicy::reset_carry`].
    cached_s: Option<usize>,
}

impl BatchPolicy for QDpmBatch {
    #[inline]
    fn reset_carry(&mut self, _device: usize) {
        self.cached_s = None;
    }

    #[inline]
    fn decide(&mut self, device: usize, obs: &Observation, rng: &mut StdRng) -> PowerStateId {
        let s = match self.cached_s {
            Some(s) => s,
            None => self.encoder.encode(obs),
        };
        let a = self
            .learner
            .select_action(device, s, self.legal.legal(obs.device_mode), rng);
        self.pending = (s, a);
        PowerStateId::from_index(a)
    }

    #[inline]
    fn observe(&mut self, device: usize, outcome: &StepOutcome, next_obs: &Observation) {
        let (s, a) = self.pending;
        let reward = self.weights.reward(outcome);
        let next_s = self.encoder.encode(next_obs);
        self.learner.update(
            device,
            s,
            a,
            reward,
            next_s,
            self.legal.legal(next_obs.device_mode),
        );
        self.cached_s = Some(next_s);
    }
}

/// The policy of a cohort, resolved once at construction; `run` matches
/// on it a single time and drives a fully monomorphized loop.
#[derive(Debug)]
enum CohortPolicy {
    AlwaysOn(policies::AlwaysOn),
    GreedyOff(policies::GreedyOff),
    FixedTimeout(policies::FixedTimeout),
    QDpm(Box<QDpmBatch>),
}

/// One member's dispatched `(slice, count)` events as a kernel arrival
/// source. The cursor (events consumed) lives in the cohort, so stretch
/// runs compose.
struct EventRow<'a> {
    events: &'a [(Step, u32)],
    cursor: &'a mut usize,
}

impl ArrivalSource for EventRow<'_> {
    #[inline]
    fn arrivals(&mut self, now: Step) -> u32 {
        match self.events.get(*self.cursor) {
            Some(&(slice, count)) if slice == now => {
                *self.cursor += 1;
                count
            }
            _ => 0,
        }
    }
}

/// The monomorphized cohort loop, device-major: each device runs its
/// whole stretch before the next device starts, so its kernel, events
/// and Q-table stripe stay cache-hot. This is sound because cohort
/// devices never interact: the dispatcher fixed each device's arrivals
/// ahead of time, and nothing in the slice body reads another device's
/// state or the wall clock.
fn run_cohort<P: BatchPolicy>(
    policy: &mut P,
    kernels: &mut [SliceKernel],
    rows: &mut [(SparseTrace, usize)],
    env: &SliceEnv,
    horizon: Step,
) {
    for (device, (kernel, (trace, cursor))) in kernels.iter_mut().zip(rows).enumerate() {
        policy.reset_carry(device);
        let mut row = EventRow {
            events: trace.events(),
            cursor,
        };
        for _ in 0..horizon {
            kernel.step(policy, device, &mut row, env);
        }
    }
}

/// One member's results after a [`CohortSim::run`] stretch.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRun {
    /// Global device index.
    pub index: usize,
    /// Statistics of the stretch just run.
    pub stats: RunStats,
    /// Device mode at the end of the stretch.
    pub mode: DeviceMode,
    /// Availability accounting since the start of the run (cumulative).
    pub faults: FaultStats,
    /// Deadline ledger since the start of the run (cumulative).
    pub deadline: DeadlineStats,
}

/// A homogeneous cohort of a fleet, ready to run batched: one slice kernel
/// per member, the members' dispatched arrivals, and one resolved
/// policy. Built by [`crate::FleetSim`] for every eligible group of ≥ 2
/// identical members (see [`is_batchable`]); results are bit-exact against
/// running the same members on the dynamic per-device path.
#[derive(Debug)]
pub struct CohortSim {
    kernels: Vec<SliceKernel>,
    /// Each member's dispatched arrivals with its count of consumed
    /// events.
    rows: Vec<(SparseTrace, usize)>,
    env: SliceEnv,
    policy: CohortPolicy,
    /// Global device indices of the members, ascending (local index `i`
    /// is global device `global_indices[i]`).
    global_indices: Vec<usize>,
}

impl CohortSim {
    /// Assembles a cohort from its representative member (`member` — all
    /// members of a cohort are equal by construction), the members'
    /// global device indices, their dispatched traces (in the same
    /// order), and the fleet's fault plan (indexed by global device).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for a non-batchable policy, a zero queue
    /// capacity, invalid learner parameters, or a trace list whose length
    /// disagrees with `global_indices`.
    pub fn new(
        member: &FleetMember,
        global_indices: Vec<usize>,
        traces: Vec<SparseTrace>,
        config: &FleetConfig,
        faults: &FaultPlan,
    ) -> Result<Self, SimError> {
        let n = global_indices.len();
        if n == 0 {
            return Err(SimError::BadConfig("a cohort needs members".to_string()));
        }
        if traces.len() != n {
            return Err(SimError::BadConfig(format!(
                "{} arrival traces for a cohort of {n}",
                traces.len()
            )));
        }
        let power = &member.power;
        let policy = match &member.policy {
            FleetPolicy::AlwaysOn => CohortPolicy::AlwaysOn(policies::AlwaysOn::new(power)),
            FleetPolicy::GreedyOff => CohortPolicy::GreedyOff(policies::GreedyOff::new(power)),
            FleetPolicy::BreakEvenTimeout => {
                CohortPolicy::FixedTimeout(policies::FixedTimeout::break_even(power))
            }
            FleetPolicy::FixedTimeout(t) => {
                CohortPolicy::FixedTimeout(policies::FixedTimeout::new(power, *t))
            }
            FleetPolicy::QDpm(agent_config) => {
                let encoder = agent_config.encoder_for(power)?;
                let learner = BatchLearner::new(
                    n,
                    encoder.n_states(),
                    power.n_states(),
                    agent_config.discount,
                    agent_config.learning_rate,
                    agent_config.exploration,
                )?;
                CohortPolicy::QDpm(Box::new(QDpmBatch {
                    learner,
                    encoder,
                    legal: LegalActionTable::new(power),
                    weights: agent_config.weights,
                    pending: (0, 0),
                    cached_s: None,
                }))
            }
            other => {
                return Err(SimError::BadConfig(format!(
                    "policy {} cannot run batched",
                    other.name()
                )))
            }
        };
        // Exactly the dynamic path's device seed and fault schedule.
        let kernels = global_indices
            .iter()
            .map(|&g| {
                let mut kernel = SliceKernel::new(
                    power.clone(),
                    member.service,
                    config.queue_cap,
                    derive_cell_seed(config.seed, g as u64),
                )?;
                kernel.set_fault_schedule(faults.device(g).to_vec());
                Ok(kernel)
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        Ok(CohortSim {
            kernels,
            rows: traces.into_iter().map(|trace| (trace, 0)).collect(),
            env: SliceEnv {
                weights: config.weights,
                deadline: config.deadline,
            },
            policy,
            global_indices,
        })
    }

    /// Number of devices in the cohort.
    #[must_use]
    pub fn len(&self) -> usize {
        self.global_indices.len()
    }

    /// Whether the cohort has no devices (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.global_indices.is_empty()
    }

    /// Total arrivals dispatched to this cohort over the horizon.
    #[must_use]
    pub fn dispatched_arrivals(&self) -> u64 {
        self.rows
            .iter()
            .map(|(trace, _)| trace.total_arrivals())
            .sum()
    }

    /// Global device indices of the members, ascending.
    #[must_use]
    pub fn global_indices(&self) -> &[usize] {
        &self.global_indices
    }

    /// Steps every member through `horizon` slices and returns one
    /// [`DeviceRun`] per device in cohort-local (ascending global) order.
    /// Stretch statistics compose: a second call continues from where the
    /// first stopped — fault clocks and deadline ledgers included — like
    /// [`crate::Simulator::run`].
    pub fn run(&mut self, horizon: Step) -> Vec<DeviceRun> {
        let before: Vec<RunStats> = self.kernels.iter().map(|k| k.stats().clone()).collect();
        let (kernels, rows, env) = (&mut self.kernels, &mut self.rows, &self.env);
        match &mut self.policy {
            CohortPolicy::AlwaysOn(p) => run_cohort(p, kernels, rows, env, horizon),
            CohortPolicy::GreedyOff(p) => run_cohort(p, kernels, rows, env, horizon),
            CohortPolicy::FixedTimeout(p) => run_cohort(p, kernels, rows, env, horizon),
            CohortPolicy::QDpm(p) => run_cohort(p.as_mut(), kernels, rows, env, horizon),
        }
        self.global_indices
            .iter()
            .zip(&self.kernels)
            .zip(&before)
            .map(|((&index, kernel), past)| DeviceRun {
                index,
                stats: diff_stats(kernel.stats(), past),
                mode: kernel.mode(),
                faults: *kernel.fault_stats(),
                deadline: *kernel.deadline_stats(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{plan_faults, FleetReport, FleetSim};
    use crate::parallel::ScenarioWorkload;
    use qdpm_core::{Exploration, QDpmConfig};
    use qdpm_device::{presets, FaultKind};
    use qdpm_workload::{DeadlineSpec, DispatchPolicy, FaultInjector, WorkloadSpec};
    use rand::SeedableRng;

    fn bernoulli(p: f64) -> ScenarioWorkload {
        ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(p).unwrap())
    }

    fn uniform_fleet(n: usize, policy: FleetPolicy) -> Vec<FleetMember> {
        (0..n)
            .map(|i| FleetMember {
                label: format!("dev-{i}"),
                power: presets::three_state_generic(),
                service: presets::default_service(),
                policy: policy.clone(),
            })
            .collect()
    }

    fn run_both(members: &[FleetMember], config: &FleetConfig) -> (FleetReport, FleetReport) {
        let workload = bernoulli(0.3);
        let batched = FleetSim::new(members, &workload, config).unwrap();
        assert!(batched.batched_cohorts() > 0, "cohorts expected");
        let dynamic = FleetSim::new(
            members,
            &workload,
            &FleetConfig {
                batch_cohorts: false,
                ..config.clone()
            },
        )
        .unwrap();
        assert_eq!(dynamic.batched_cohorts(), 0);
        (batched.run(2), dynamic.run(2))
    }

    #[test]
    fn batchable_policies_are_the_documented_set() {
        assert!(is_batchable(&FleetPolicy::AlwaysOn));
        assert!(is_batchable(&FleetPolicy::GreedyOff));
        assert!(is_batchable(&FleetPolicy::BreakEvenTimeout));
        assert!(is_batchable(&FleetPolicy::FixedTimeout(3)));
        assert!(is_batchable(&FleetPolicy::frozen_q_dpm()));
        assert!(!is_batchable(&FleetPolicy::AdaptiveTimeout));
        assert!(!is_batchable(&FleetPolicy::Oracle));
        assert!(!is_batchable(&FleetPolicy::OraclePrewake));
        assert!(!is_batchable(&FleetPolicy::frozen_qos_q_dpm()));
        assert!(!is_batchable(&FleetPolicy::frozen_shared_q_dpm()));
    }

    #[test]
    fn grouping_is_by_exact_model_service_policy_equality() {
        let mut members = uniform_fleet(6, FleetPolicy::GreedyOff);
        members[2].power = presets::ibm_hdd();
        members[4].policy = FleetPolicy::AdaptiveTimeout; // not batchable
        members[5].service = qdpm_device::ServiceModel::deterministic(2).unwrap();
        let groups = group_cohorts(&members);
        assert_eq!(groups, vec![vec![0, 1, 3]]);
    }

    #[test]
    fn singletons_stay_dynamic() {
        let mut members = uniform_fleet(3, FleetPolicy::GreedyOff);
        members[1].policy = FleetPolicy::AlwaysOn;
        members[2].policy = FleetPolicy::FixedTimeout(4);
        assert!(group_cohorts(&members).is_empty());
    }

    #[test]
    fn batched_matches_dynamic_for_heuristic_cohorts() {
        for policy in [
            FleetPolicy::AlwaysOn,
            FleetPolicy::GreedyOff,
            FleetPolicy::BreakEvenTimeout,
            FleetPolicy::FixedTimeout(5),
        ] {
            let members = uniform_fleet(6, policy.clone());
            let config = FleetConfig {
                horizon: 2_500,
                dispatch: DispatchPolicy::LeastLoaded,
                ..FleetConfig::default()
            };
            let (batched, dynamic) = run_both(&members, &config);
            assert_eq!(batched, dynamic, "{}", policy.name());
        }
    }

    #[test]
    fn batched_matches_dynamic_for_training_q_dpm() {
        // Full exploration schedule (epsilon > 0): the batched learner
        // must consume the per-device policy streams identically.
        let members = uniform_fleet(5, FleetPolicy::QDpm(QDpmConfig::default()));
        let config = FleetConfig {
            horizon: 3_000,
            ..FleetConfig::default()
        };
        let (batched, dynamic) = run_both(&members, &config);
        assert_eq!(batched, dynamic);
    }

    #[test]
    fn batched_matches_dynamic_for_boltzmann_q_dpm() {
        let members = uniform_fleet(
            4,
            FleetPolicy::QDpm(QDpmConfig {
                exploration: Exploration::Boltzmann { temperature: 0.6 },
                ..QDpmConfig::default()
            }),
        );
        let config = FleetConfig {
            horizon: 1_500,
            ..FleetConfig::default()
        };
        let (batched, dynamic) = run_both(&members, &config);
        assert_eq!(batched, dynamic);
    }

    #[test]
    fn mixed_fleet_splits_cohorts_and_dynamic_and_matches() {
        // Two cohorts (greedy-off x3, q-dpm x2), one adaptive singleton,
        // one oracle (dynamic-only), one odd device model.
        let mut members = uniform_fleet(8, FleetPolicy::GreedyOff);
        members[1].policy = FleetPolicy::frozen_q_dpm();
        members[3].policy = FleetPolicy::frozen_q_dpm();
        members[4].policy = FleetPolicy::AdaptiveTimeout;
        members[5].policy = FleetPolicy::Oracle;
        members[6].power = presets::ibm_hdd();
        let config = FleetConfig {
            horizon: 2_000,
            dispatch: DispatchPolicy::RoundRobin,
            ..FleetConfig::default()
        };
        let workload = bernoulli(0.4);
        let batched = FleetSim::new(&members, &workload, &config).unwrap();
        assert_eq!(batched.batched_cohorts(), 2);
        let dynamic = FleetSim::new(
            &members,
            &workload,
            &FleetConfig {
                batch_cohorts: false,
                ..config
            },
        )
        .unwrap();
        assert_eq!(batched.run(3), dynamic.run(1));
    }

    #[test]
    fn deterministic_service_progress_is_tracked_per_device() {
        let mut members = uniform_fleet(4, FleetPolicy::AlwaysOn);
        for m in &mut members {
            m.service = qdpm_device::ServiceModel::deterministic(3).unwrap();
        }
        let config = FleetConfig {
            horizon: 2_000,
            ..FleetConfig::default()
        };
        let (batched, dynamic) = run_both(&members, &config);
        assert_eq!(batched, dynamic);
    }

    #[test]
    fn cohort_rejects_non_batchable_policy() {
        let member = FleetMember {
            label: "x".to_string(),
            power: presets::three_state_generic(),
            service: presets::default_service(),
            policy: FleetPolicy::AdaptiveTimeout,
        };
        let traces = {
            let mut d =
                qdpm_workload::WorkloadDispatcher::new(DispatchPolicy::RoundRobin, 2).unwrap();
            let mut gen = qdpm_workload::BernoulliArrivals::new(0.2).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            d.split(&mut gen, &mut rng, 100)
        };
        let err = CohortSim::new(
            &member,
            vec![0, 1],
            traces,
            &FleetConfig::default(),
            &FaultPlan::empty(2),
        );
        assert!(matches!(err, Err(SimError::BadConfig(_))));
    }

    /// Runs a one-cohort fleet as two [`CohortSim::run`] stretches split at
    /// `split`, checks they compose to the one-shot fleet run — stats,
    /// final modes, downtime and deadline ledger — and returns both
    /// stretches.
    fn run_in_two_stretches(
        members: &[FleetMember],
        config: &FleetConfig,
        split: Step,
    ) -> (Vec<DeviceRun>, Vec<DeviceRun>) {
        let workload = bernoulli(0.3);
        let fleet = FleetSim::new(members, &workload, config).unwrap();
        assert_eq!(fleet.batched_cohorts(), 1);
        let whole = fleet.run(1);
        // Drive the same cohort through CohortSim::run directly (the
        // FleetSim::run path runs the horizon in one call; this exercises
        // the stretch bookkeeping).
        let groups = group_cohorts(members);
        assert_eq!(groups, vec![(0..members.len()).collect::<Vec<_>>()]);
        let mut dispatcher =
            qdpm_workload::WorkloadDispatcher::new(config.dispatch, members.len()).unwrap();
        let mut gen = workload.build().unwrap();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let traces = dispatcher.split(gen.as_mut(), &mut rng, config.horizon);
        let mut cohort = CohortSim::new(
            &members[0],
            groups[0].clone(),
            traces,
            config,
            &plan_faults(config, members.len()).unwrap(),
        )
        .unwrap();
        let first = cohort.run(split);
        let second = cohort.run(config.horizon - split);
        let mut deadline = DeadlineStats::default();
        for (a, b) in first.iter().zip(&second) {
            let g = a.index;
            assert_eq!(g, b.index);
            assert_eq!(a.stats.steps + b.stats.steps, config.horizon);
            let mut merged = a.stats.clone();
            merged.merge(&b.stats);
            assert_eq!(merged, whole.per_device[g], "device {g}");
            assert_eq!(b.mode, whole.final_modes[g]);
            assert_eq!(
                b.faults.downtime_slices,
                whole.stats.availability.downtime_slices[g]
            );
            deadline.merge(&b.deadline);
        }
        assert_eq!(deadline, whole.stats.deadline);
        (first, second)
    }

    #[test]
    fn stretch_runs_compose_like_the_dynamic_path() {
        let members = uniform_fleet(4, FleetPolicy::frozen_q_dpm());
        let plain = FleetConfig {
            horizon: 2_000,
            ..FleetConfig::default()
        };
        run_in_two_stretches(&members, &plain, 800);

        // Faulted and deadline-tagged, with the first stretch ending inside
        // a crash window: the fault clock and the deadline ledger must
        // carry across `run` calls.
        let faulted = FleetConfig {
            faults: Some(FaultInjector {
                crash_rate: 0.003,
                crash_down: 60,
                straggle_rate: 0.003,
                straggle_window: 100,
                down_power: 0.05,
                ..FaultInjector::default()
            }),
            deadline: Some(DeadlineSpec::uniform(3, 20).unwrap()),
            ..plain
        };
        let plan = plan_faults(&faulted, members.len()).unwrap();
        let (device, onset) = (0..members.len())
            .find_map(|d| {
                plan.device(d)
                    .iter()
                    .find(|e| matches!(e.kind, FaultKind::TransientCrash { .. }))
                    .map(|e| (d, e.at))
            })
            .expect("the plan crashes some device");
        let (first, second) = run_in_two_stretches(&members, &faulted, onset + 1);
        // The crash window straddles the split: downtime accrues in both
        // stretches.
        assert_eq!(first[device].faults.downtime_slices, 1);
        assert!(second[device].faults.downtime_slices > 1);
        assert!(second.iter().any(|r| r.deadline.tagged > 0));
    }
}
