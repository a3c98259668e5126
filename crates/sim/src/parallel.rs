//! Deterministic parallel experiment execution.
//!
//! Every evaluation in this repo — the T4 "many cases" sweep, multi-seed
//! convergence ratios, ablations — is a grid of independent cells, each
//! paying a full RVI solve plus a training run. This module provides:
//!
//! * [`run_indexed`] — a sharded runner: N workers under
//!   [`std::thread::scope`] pull cell indices from a shared atomic cursor
//!   and write results into per-index slots, so the output order (and
//!   therefore any TSV rendered from it) is *byte-identical at any thread
//!   count*, including the serial `threads == 1` path;
//! * [`ShardPool`] — persistent, shard-affine workers for callers that
//!   step the same items over and over (a rack's arrival-free gaps, a
//!   cluster's racks): shard `k` of every call runs on worker `k`, and no
//!   thread is spawned after the first parallel call;
//! * [`derive_cell_seed`] — a SplitMix64-style hash of (master seed, cell
//!   index) giving every cell an independent random stream, mirroring how
//!   [`crate::SimConfig`] derives its per-stream RNGs;
//! * [`ScenarioCell`] / [`ScenarioGrid`] — the generalization of the old
//!   hardcoded Bernoulli triple-loop to arbitrary
//!   (device × workload kind × service × replicate) grids, including
//!   Markov-modulated and piecewise-stationary workloads.
//!
//! Determinism is the contract: a cell's result depends only on the cell's
//! own content (its derived seed included), never on which worker ran it
//! or in what order, so parallel and serial runs agree exactly.
//!
//! # Example
//!
//! ```
//! use qdpm_sim::parallel::run_indexed;
//!
//! let squares = run_indexed(&[1u64, 2, 3, 4], 2, |i, &x| (i as u64, x * x));
//! assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16)]);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use qdpm_core::RewardWeights;
use qdpm_device::{PowerModel, ServiceModel, Step};
use qdpm_mdp::{build_dpm_mdp, solvers, CostWeights};
use qdpm_workload::{PiecewiseStationary, RequestGenerator, Segment, WorkloadSpec};

use crate::{EngineMode, SimError};

/// Number of worker threads the host offers (`available_parallelism`,
/// falling back to 1 when undetectable).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Derives the independent seed of grid cell `index` from `master`.
///
/// SplitMix64 finalizer over `master + index * GOLDEN`, the same mixing
/// family `SeedableRng::seed_from_u64` uses to expand seeds — so per-cell
/// streams are as independent as the simulator's own per-stream RNGs, and
/// the derivation is pinned by a unit test to keep published results
/// reproducible.
#[must_use]
pub fn derive_cell_seed(master: u64, index: u64) -> u64 {
    qdpm_core::rng_util::splitmix64(master, index)
}

/// Runs `f` over every item on `threads` workers and returns the results
/// in item order.
///
/// Workers pull indices from a shared atomic cursor (work-stealing-free
/// sharding: cheap, and fair enough for coarse cells whose cost is a full
/// training run). Results land in per-index slots, so the returned `Vec`
/// is ordered identically at any thread count. With `threads <= 1` no
/// threads are spawned at all — the serial reference path.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn run_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index visited exactly once")
        })
        .collect()
}

/// Runs `f` over every item *by mutable reference* on `threads` workers
/// and returns the results in item order — the in-place sibling of
/// [`run_indexed`], used by the fleet runner to drive a vector of live
/// simulators without moving them.
///
/// Same sharding and determinism story as [`run_indexed`]: workers claim
/// indices from a shared atomic cursor, each index is claimed exactly once
/// (so every item's mutex is uncontended — it exists only to hand the
/// mutable borrow across the scope safely under the workspace's
/// `unsafe_code = "deny"`), results land in per-index slots, and
/// `threads <= 1` runs serially on the caller's thread.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn run_indexed_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let mut item = cell.lock().expect("item cell poisoned");
                let result = f(i, &mut item);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index visited exactly once")
        })
        .collect()
}

/// The closure a [`ShardPool`] call runs on every item.
type ShardFn<T> = Arc<dyn Fn(usize, &mut T) + Send + Sync>;

/// A panic payload caught on a worker, re-raised on the caller.
type Panic = Box<dyn Any + Send>;

/// One shard travelling to a worker: the items by value, the global index
/// of the first, and the call's closure.
struct Job<T> {
    shard: Vec<T>,
    start: usize,
    f: ShardFn<T>,
}

/// A persistent worker: its job and reply channels, the shard buffer it
/// hands back (parked here between calls so steady-state calls allocate
/// no shard storage), and its thread.
struct Worker<T> {
    jobs: Sender<Job<T>>,
    done: Receiver<(Vec<T>, Option<Panic>)>,
    spare: Vec<T>,
    thread: JoinHandle<()>,
}

impl<T: Send + 'static> Worker<T> {
    fn spawn(k: usize) -> Self {
        let (jobs, inbox) = mpsc::channel::<Job<T>>();
        let (reply, done) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name(format!("shard-{k}"))
            .spawn(move || {
                // Blocks in `recv` between jobs; exits when the pool drops
                // its sender.
                for Job {
                    mut shard,
                    start,
                    f,
                } in inbox
                {
                    let panic = catch_unwind(AssertUnwindSafe(|| {
                        for (j, item) in shard.iter_mut().enumerate() {
                            f(start + j, item);
                        }
                    }))
                    .err();
                    if reply.send((shard, panic)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawning a shard worker");
        Worker {
            jobs,
            done,
            spare: Vec::new(),
            thread,
        }
    }
}

/// A persistent, shard-affine worker pool for items stepped repeatedly.
///
/// [`ShardPool::run`] splits the items into `threads` contiguous shards in
/// index order — boundaries depend only on `(len, threads)` — and runs
/// shard 0 on the caller's thread and shard `k` on worker `k`, the same
/// worker on every call, so an item's heap state stays warm in one
/// core's cache. Shards move to their worker by value and are
/// reassembled in order, which keeps the workspace free of `unsafe`.
///
/// Workers are spawned lazily (up to `min(threads, len) - 1`, on the
/// first call that needs them), block on a channel between calls, and
/// are joined when the pool drops. Where [`run_indexed_mut`] spawns and
/// joins its threads on every call — noise for a one-shot grid, the
/// dominant cost for a rack advancing hundreds of short gaps — a pool
/// pays for its threads once.
///
/// # Example
///
/// ```
/// use qdpm_sim::parallel::ShardPool;
///
/// let mut pool = ShardPool::new();
/// let mut items: Vec<u64> = (0..10).collect();
/// for _ in 0..3 {
///     pool.run(&mut items, 2, |i, x| *x += i as u64);
/// }
/// assert_eq!(items, (0..10).map(|i| 4 * i).collect::<Vec<u64>>());
/// ```
pub struct ShardPool<T> {
    workers: Vec<Worker<T>>,
}

impl<T> ShardPool<T> {
    /// An empty pool; no thread is spawned until a call needs one.
    #[must_use]
    pub fn new() -> Self {
        ShardPool {
            workers: Vec::new(),
        }
    }

    /// Worker threads spawned so far (the caller's thread not counted).
    #[cfg(test)]
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl<T: Send + 'static> ShardPool<T> {
    /// Runs `f(index, item)` on every item in place, on up to `threads`
    /// threads (the caller's included). With `threads <= 1` or at most one
    /// item it is a plain serial loop on the caller's thread.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f`, with its original payload, once every
    /// shard is back in `items` (the lowest panicking shard wins).
    pub fn run<F>(&mut self, items: &mut Vec<T>, threads: usize, f: F)
    where
        F: Fn(usize, &mut T) + Send + Sync + 'static,
    {
        let len = items.len();
        let shards = threads.min(len);
        if shards <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        while self.workers.len() < shards - 1 {
            let k = self.workers.len() + 1;
            self.workers.push(Worker::spawn(k));
        }
        let f: ShardFn<T> = Arc::new(f);
        let workers = &mut self.workers[..shards - 1];
        // Drain from the back so every shard is a tail of what is left.
        for (k, worker) in workers.iter_mut().enumerate().rev() {
            let start = (k + 1) * len / shards;
            let mut shard = std::mem::take(&mut worker.spare);
            shard.extend(items.drain(start..));
            let job = Job {
                shard,
                start,
                f: Arc::clone(&f),
            };
            worker.jobs.send(job).expect("shard worker alive");
        }
        let mut panic = catch_unwind(AssertUnwindSafe(|| {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
        }))
        .err();
        for worker in workers {
            let (mut shard, caught) = worker.done.recv().expect("shard worker alive");
            items.append(&mut shard);
            worker.spare = shard;
            panic = panic.or(caught);
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl<T> Default for ShardPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for ShardPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl<T> Drop for ShardPool<T> {
    fn drop(&mut self) {
        for Worker { jobs, thread, .. } in self.workers.drain(..) {
            drop(jobs);
            // A worker catches its jobs' panics, so a join error is not
            // reachable; ignore it rather than panic in drop.
            let _ = thread.join();
        }
    }
}

/// The workload axis of a scenario grid: stationary specs plus the
/// piecewise-stationary composition of Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioWorkload {
    /// A single stationary workload (Bernoulli, MMPP, on/off, ...).
    Stationary(WorkloadSpec),
    /// Piecewise-stationary segments `(duration, spec)`.
    Piecewise(Vec<(Step, WorkloadSpec)>),
}

impl ScenarioWorkload {
    /// Builds the runtime generator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when a piecewise composition is empty or has a
    /// zero-length segment.
    pub fn build(&self) -> Result<Box<dyn RequestGenerator>, SimError> {
        match self {
            ScenarioWorkload::Stationary(spec) => Ok(spec.build()),
            ScenarioWorkload::Piecewise(segments) => {
                let segments = segments
                    .iter()
                    .map(|(d, spec)| Segment::new(*d, spec.clone()))
                    .collect::<Vec<_>>();
                Ok(Box::new(PiecewiseStationary::new(segments)?))
            }
        }
    }

    /// Long-run mean arrivals per slice, when analytically defined (the
    /// piecewise mean is duration-weighted over the segments).
    #[must_use]
    pub fn mean_rate(&self) -> Option<f64> {
        match self {
            ScenarioWorkload::Stationary(spec) => spec.mean_rate(),
            ScenarioWorkload::Piecewise(segments) => {
                let total: Step = segments.iter().map(|(d, _)| d).sum();
                if total == 0 {
                    return None;
                }
                let mut acc = 0.0;
                for (d, spec) in segments {
                    acc += *d as f64 * spec.mean_rate()?;
                }
                Some(acc / total as f64)
            }
        }
    }

    /// The analytic reference gain (long-run average cost of the optimal
    /// policy with the model known a priori): the RVI gain for Markovian
    /// stationary workloads, the duration-weighted mean of per-segment
    /// gains for piecewise compositions of Markovian segments, and `None`
    /// when any piece is non-Markovian.
    ///
    /// # Errors
    ///
    /// Propagates model-construction and solver errors.
    pub fn reference_gain(
        &self,
        power: &PowerModel,
        service: &ServiceModel,
        queue_cap: usize,
        weights: &RewardWeights,
    ) -> Result<Option<f64>, SimError> {
        let gain_of = |spec: &WorkloadSpec| -> Result<Option<f64>, SimError> {
            let Some(arrivals) = spec.markov_model() else {
                return Ok(None);
            };
            let model = build_dpm_mdp(power, service, &arrivals, queue_cap, weights.drop_penalty)?;
            let cost = model.mdp.combined_cost(
                CostWeights::new(weights.energy, weights.perf).map_err(SimError::Mdp)?,
            );
            let sol = solvers::relative_value_iteration(&model.mdp, &cost, 1e-9, 500_000)
                .map_err(SimError::Mdp)?;
            Ok(Some(sol.gain))
        };
        match self {
            ScenarioWorkload::Stationary(spec) => gain_of(spec),
            ScenarioWorkload::Piecewise(segments) => {
                let total: Step = segments.iter().map(|(d, _)| d).sum();
                if total == 0 {
                    return Ok(None);
                }
                let mut acc = 0.0;
                for (d, spec) in segments {
                    match gain_of(spec)? {
                        Some(g) => acc += *d as f64 * g,
                        None => return Ok(None),
                    }
                }
                Ok(Some(acc / total as f64))
            }
        }
    }
}

/// Shared per-grid experiment parameters.
#[derive(Debug, Clone)]
pub struct GridParams {
    /// Queue capacity of every cell.
    pub queue_cap: usize,
    /// Reward/cost weights of every cell.
    pub weights: RewardWeights,
    /// Training slices per cell.
    pub train: Step,
    /// Evaluation slices per cell.
    pub evaluate: Step,
    /// Master seed; each cell receives [`derive_cell_seed`]`(master, index)`.
    pub master_seed: u64,
    /// Engine mode every cell's simulator runs under. The default
    /// per-slice mode keeps published TSVs byte-identical; opting into
    /// [`EngineMode::EventSkip`] trades bit-exact streams for throughput
    /// (see the mode's equivalence contract).
    pub engine_mode: EngineMode,
}

impl Default for GridParams {
    fn default() -> Self {
        GridParams {
            queue_cap: 8,
            weights: RewardWeights::default(),
            train: 200_000,
            evaluate: 100_000,
            master_seed: 3,
            engine_mode: EngineMode::PerSlice,
        }
    }
}

/// One fully-specified experiment cell: everything a worker needs to train
/// and evaluate Q-DPM on one scenario, independently of every other cell.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// Device preset name (report label).
    pub device: String,
    /// Device power model.
    pub power: PowerModel,
    /// Workload label (report label).
    pub workload: String,
    /// Workload of this cell.
    pub kind: ScenarioWorkload,
    /// Service process.
    pub service: ServiceModel,
    /// Queue capacity.
    pub queue_cap: usize,
    /// Reward/cost weights.
    pub weights: RewardWeights,
    /// Training slices.
    pub train: Step,
    /// Evaluation slices.
    pub evaluate: Step,
    /// Replicate number along the seed axis (0-based).
    pub replicate: usize,
    /// Flat cell index in the grid (row-major).
    pub index: usize,
    /// The cell's independent derived seed.
    pub seed: u64,
    /// Engine mode for this cell's simulator (from
    /// [`GridParams::engine_mode`]).
    pub engine_mode: EngineMode,
}

/// An ordered collection of [`ScenarioCell`]s with deterministic indices
/// and per-cell derived seeds.
#[derive(Debug, Clone, Default)]
pub struct ScenarioGrid {
    cells: Vec<ScenarioCell>,
}

impl ScenarioGrid {
    /// The full cartesian grid
    /// device-major × workload × service × replicate, in that row-major
    /// order. Each cell's seed is [`derive_cell_seed`] of the master seed
    /// and the flat index, so replicates (and cells) draw independent
    /// streams.
    #[must_use]
    pub fn cartesian(
        devices: &[(String, PowerModel)],
        workloads: &[(String, ScenarioWorkload)],
        services: &[ServiceModel],
        replicates: usize,
        params: &GridParams,
    ) -> Self {
        let mut cells = Vec::with_capacity(
            devices.len() * workloads.len() * services.len() * replicates.max(1),
        );
        let mut index = 0usize;
        for (device, power) in devices {
            for (workload, kind) in workloads {
                for service in services {
                    for replicate in 0..replicates.max(1) {
                        cells.push(ScenarioCell {
                            device: device.clone(),
                            power: power.clone(),
                            workload: workload.clone(),
                            kind: kind.clone(),
                            service: *service,
                            queue_cap: params.queue_cap,
                            weights: params.weights,
                            train: params.train,
                            evaluate: params.evaluate,
                            replicate,
                            index,
                            seed: derive_cell_seed(params.master_seed, index as u64),
                            engine_mode: params.engine_mode,
                        });
                        index += 1;
                    }
                }
            }
        }
        ScenarioGrid { cells }
    }

    /// The cells, in index order.
    #[must_use]
    pub fn cells(&self) -> &[ScenarioCell] {
        &self.cells
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdpm_device::presets;

    #[test]
    fn run_indexed_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = run_indexed(&items, 1, |i, &x| x * 3 + i as u64);
        for threads in [2, 4, 8] {
            let parallel = run_indexed(&items, threads, |i, &x| x * 3 + i as u64);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn run_indexed_mut_mutates_in_place_and_preserves_order() {
        let make = || (0..23u64).collect::<Vec<_>>();
        let mut serial_items = make();
        let serial = run_indexed_mut(&mut serial_items, 1, |i, x| {
            *x += 100;
            *x + i as u64
        });
        for threads in [2, 4, 8] {
            let mut items = make();
            let parallel = run_indexed_mut(&mut items, threads, |i, x| {
                *x += 100;
                *x + i as u64
            });
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(serial_items, items, "threads={threads}: in-place effects");
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        assert!(run_indexed(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(run_indexed(&[9u64], 4, |i, &x| (i, x)), vec![(0, 9)]);
    }

    /// Order and in-place effects across repeated calls on one pool: each
    /// call sees every item at its own index, and effects accumulate.
    #[test]
    fn shard_pool_keeps_order_and_effects_across_calls() {
        let mut serial: Vec<(u64, Vec<usize>)> = (0..29).map(|x| (x, Vec::new())).collect();
        let step = |i: usize, item: &mut (u64, Vec<usize>)| {
            item.0 = item.0 * 3 + i as u64;
            item.1.push(i);
        };
        for _ in 0..5 {
            for (i, item) in serial.iter_mut().enumerate() {
                step(i, item);
            }
        }
        for threads in [2, 3, 4] {
            let mut pool = ShardPool::new();
            let mut items: Vec<(u64, Vec<usize>)> = (0..29).map(|x| (x, Vec::new())).collect();
            for _ in 0..5 {
                pool.run(&mut items, threads, step);
            }
            assert_eq!(items, serial, "threads={threads}");
            assert_eq!(pool.workers(), threads - 1);
        }
    }

    #[test]
    fn shard_pool_follows_a_changing_thread_count() {
        let mut pool = ShardPool::new();
        let mut items: Vec<u64> = (0..17).collect();
        for threads in [2, 3, 1, 3, 2] {
            pool.run(&mut items, threads, |i, x| *x = *x * 7 + i as u64);
        }
        let mut expected: Vec<u64> = (0..17).collect();
        for _ in 0..5 {
            for (i, x) in expected.iter_mut().enumerate() {
                *x = *x * 7 + i as u64;
            }
        }
        assert_eq!(items, expected);
        // Workers persist at the high-water mark; the serial call spawned
        // none and dropped none.
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn shard_pool_with_fewer_items_than_threads() {
        let mut pool = ShardPool::new();
        let mut empty: Vec<u64> = Vec::new();
        pool.run(&mut empty, 8, |_, x| *x += 1);
        assert!(empty.is_empty());
        let mut one = vec![5u64];
        pool.run(&mut one, 8, |i, x| *x += 10 + i as u64);
        assert_eq!(one, vec![15]);
        assert_eq!(pool.workers(), 0, "one item runs on the caller");
        let mut three = vec![1u64, 2, 3];
        pool.run(&mut three, 8, |i, x| *x *= 10 + i as u64);
        assert_eq!(three, vec![10, 22, 36]);
        assert_eq!(
            pool.workers(),
            2,
            "one shard per item, shard 0 on the caller"
        );
    }

    /// A panic on a worker reaches the caller with its payload, after
    /// which the pool (and its blocked workers) drop without hanging.
    #[test]
    #[should_panic(expected = "item 6 refused")]
    fn shard_pool_reraises_a_worker_panic() {
        let mut pool = ShardPool::new();
        let mut items: Vec<u64> = (0..8).collect();
        pool.run(&mut items, 2, |_, x| *x += 1);
        pool.run(&mut items, 2, |i, _| assert!(i != 6, "item {i} refused"));
    }

    #[test]
    fn shard_pool_survives_a_caught_panic() {
        let mut pool = ShardPool::new();
        let mut items: Vec<u64> = (0..8).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&mut items, 3, |i, x| {
                assert!(i != 7, "boom");
                *x += 1;
            });
        }));
        assert!(caught.is_err());
        assert_eq!(items.len(), 8, "every shard came back");
        pool.run(&mut items, 3, |_, x| *x += 100);
        // Item 7 panicked before its increment; the rest of its shard ran.
        assert_eq!(items, vec![101, 102, 103, 104, 105, 106, 107, 107]);
    }

    #[test]
    fn derive_cell_seed_is_pinned() {
        // Pinned values: published sweep results depend on this derivation.
        assert_eq!(derive_cell_seed(3, 0), 0x1d0b_14e4_db01_8fed);
        assert_eq!(derive_cell_seed(3, 1), 0xb346_6f8a_7b81_a989);
        assert_eq!(derive_cell_seed(7, 0), 0x63cb_e1e4_5932_0dd7);
    }

    #[test]
    fn derive_cell_seed_distinct_across_cells_and_masters() {
        let mut seen = std::collections::HashSet::new();
        for master in 0..8u64 {
            for index in 0..64u64 {
                assert!(
                    seen.insert(derive_cell_seed(master, index)),
                    "collision at master={master} index={index}"
                );
            }
        }
    }

    #[test]
    fn cartesian_grid_shape_order_and_seeds() {
        let devices = vec![
            ("a".to_string(), presets::three_state_generic()),
            ("b".to_string(), presets::three_state_generic()),
        ];
        let workloads = vec![
            (
                "bern-0.1".to_string(),
                ScenarioWorkload::Stationary(WorkloadSpec::bernoulli(0.1).unwrap()),
            ),
            (
                "mmpp".to_string(),
                ScenarioWorkload::Stationary(WorkloadSpec::two_mode_mmpp(0.02, 0.5, 0.01).unwrap()),
            ),
        ];
        let services = vec![presets::default_service()];
        let params = GridParams::default();
        let grid = ScenarioGrid::cartesian(&devices, &workloads, &services, 3, &params);
        // 2 devices x 2 workloads x 1 service x 3 replicates.
        assert_eq!(grid.len(), 12);
        for (i, cell) in grid.cells().iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.seed, derive_cell_seed(params.master_seed, i as u64));
        }
        // Row-major: device-major, replicate innermost.
        assert_eq!(grid.cells()[0].device, "a");
        assert_eq!(grid.cells()[0].workload, "bern-0.1");
        assert_eq!(grid.cells()[0].replicate, 0);
        assert_eq!(grid.cells()[2].replicate, 2);
        assert_eq!(grid.cells()[3].workload, "mmpp");
        assert_eq!(grid.cells()[6].device, "b");
    }

    #[test]
    fn piecewise_workload_mean_and_gain_are_duration_weighted() {
        let power = presets::three_state_generic();
        let service = presets::default_service();
        let weights = RewardWeights::default();
        let lo = WorkloadSpec::bernoulli(0.05).unwrap();
        let hi = WorkloadSpec::bernoulli(0.2).unwrap();
        let piecewise = ScenarioWorkload::Piecewise(vec![(3_000, lo.clone()), (1_000, hi.clone())]);
        let mean = piecewise.mean_rate().unwrap();
        assert!((mean - (0.75 * 0.05 + 0.25 * 0.2)).abs() < 1e-12);

        let g_lo = ScenarioWorkload::Stationary(lo)
            .reference_gain(&power, &service, 8, &weights)
            .unwrap()
            .unwrap();
        let g_hi = ScenarioWorkload::Stationary(hi)
            .reference_gain(&power, &service, 8, &weights)
            .unwrap()
            .unwrap();
        let g_pw = piecewise
            .reference_gain(&power, &service, 8, &weights)
            .unwrap()
            .unwrap();
        assert!((g_pw - (0.75 * g_lo + 0.25 * g_hi)).abs() < 1e-9);
    }

    #[test]
    fn non_markovian_workload_has_no_reference_gain() {
        let power = presets::three_state_generic();
        let service = presets::default_service();
        let weights = RewardWeights::default();
        let pareto = ScenarioWorkload::Stationary(WorkloadSpec::Pareto {
            alpha: 2.0,
            xm: 3.0,
        });
        assert!(pareto
            .reference_gain(&power, &service, 8, &weights)
            .unwrap()
            .is_none());
    }
}
