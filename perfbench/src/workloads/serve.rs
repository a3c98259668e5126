//! `serve-dense` and `serve-sparse-resume`: the `qdpm-serve` daemon path,
//! `run_serve` from trace file to report, with real fsync'd checkpoints.

use std::path::{Path, PathBuf};
use std::time::Duration;

use qdpm_core::{QDpmConfig, QosConfig, StateWriter};
use qdpm_serve::{
    read_trace, recover_rack, render_report, run_serve, CheckpointStore, DevicePreset, ServeConfig,
    ServeOptions, TraceSource,
};
use qdpm_sim::hierarchy::{RackCoordinator, RackReport};
use qdpm_sim::{EngineMode, FleetPolicy};
use qdpm_workload::{DispatchPolicy, FaultInjector, TraceRecorder, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::Stopwatch;
use crate::metrics::{LayerReport, NS_PER_MS, NS_PER_S, NS_PER_US};
use crate::trace::SpanLog;
use crate::{derive_seed, err, Outcome, SimTotals, Workload};

/// Slices of arrival-free service after the trace that empty every queue
/// before the conservation check reads the ledger (run twice: the second
/// half must change nothing).
const DRAIN_SLICES: u64 = 20_000;

/// Times the daemon's set-up is repeated to report its median.
const SETUP_REPEATS: usize = 9;

/// One of the two serve workloads.
#[derive(Debug)]
pub struct ServeWorkload {
    config: ServeConfig,
    trace: PathBuf,
    /// Trace length, slices.
    slices: u64,
    /// External arrivals in the trace.
    arrivals: u64,
    checkpoint_every: u64,
    threads: usize,
    /// Where the timed call checkpoints (emptied or re-seeded per call).
    run_dir: PathBuf,
    /// For the resume workload: the prep run's checkpoint directory and
    /// the slice it stopped at.
    resume_from: Option<(PathBuf, u64)>,
    /// Slice the last untraced call resumed from.
    resumed_at: Option<u64>,
    work: PathBuf,
}

fn write_trace(path: &Path, rate: f64, slices: u64, seed: u64) -> Result<u64, String> {
    let spec = WorkloadSpec::bernoulli(rate).map_err(err("trace rate"))?;
    let mut gen = spec.build();
    let mut rng = StdRng::seed_from_u64(seed);
    let rec = TraceRecorder::capture(gen.as_mut(), &mut rng, slices);
    rec.save(path).map_err(err("writing trace"))?;
    let counts = read_trace(path).map_err(err("reading trace back"))?;
    Ok(counts.iter().map(|&c| u64::from(c)).sum())
}

impl ServeWorkload {
    /// `serve-dense`: 16-device capped rack (q-dpm / qos-q-dpm /
    /// adaptive-timeout) under join-shortest-queue dispatch, per-slice,
    /// seeded transient faults, 1 gap thread, a checkpoint every 10000
    /// slices into a fresh directory, over a Bernoulli(0.3) trace. A
    /// checkpoint every 1000 slices made the call's CPU time follow the
    /// host's disk load: at times 400 fsyncs took a quarter of it.
    ///
    /// # Errors
    ///
    /// Failures writing the generated trace.
    pub fn dense(seed: u64, work: PathBuf) -> Result<Self, String> {
        const SLICES: u64 = 400_000;
        let trace = work.join("dense.trace");
        let arrivals = write_trace(&trace, 0.3, SLICES, derive_seed(seed, 0))?;
        let config = ServeConfig {
            devices: 16,
            policies: vec![
                FleetPolicy::QDpm(QDpmConfig::default()),
                FleetPolicy::QosQDpm(QosConfig::default()),
                FleetPolicy::AdaptiveTimeout,
            ],
            preset: DevicePreset::ThreeState,
            power_cap: Some(8.0),
            seed: derive_seed(seed, 1),
            engine_mode: EngineMode::PerSlice,
            dispatch: DispatchPolicy::JoinShortestQueue,
            queue_cap: 8,
            faults: Some(FaultInjector {
                crash_rate: 0.0005,
                crash_down: 250,
                ..FaultInjector::default()
            }),
        };
        Ok(ServeWorkload {
            config,
            trace,
            slices: SLICES,
            arrivals,
            checkpoint_every: 10_000,
            threads: 1,
            run_dir: work.join("dense-ckpt"),
            resume_from: None,
            resumed_at: None,
            work,
        })
    }

    /// `serve-sparse-resume`: a daemon restart. An untimed prep run
    /// serves the first quarter of a long Bernoulli(0.002) trace on a
    /// 64-device uncapped rack (q-dpm / break-even-timeout, round-robin,
    /// event-skip) and checkpoints; every timed call recovers from that
    /// checkpoint and serves the rest with 2 gap threads.
    ///
    /// # Errors
    ///
    /// Failures writing the trace or in the prep run.
    pub fn sparse_resume(seed: u64, work: PathBuf) -> Result<Self, String> {
        const SLICES: u64 = 400_000;
        const EVERY: u64 = 100_000;
        const PREP: u64 = EVERY;
        let trace = work.join("sparse.trace");
        let arrivals = write_trace(&trace, 0.002, SLICES, derive_seed(seed, 0))?;
        let config = ServeConfig {
            devices: 64,
            policies: vec![
                FleetPolicy::QDpm(QDpmConfig::default()),
                FleetPolicy::BreakEvenTimeout,
            ],
            preset: DevicePreset::ThreeState,
            power_cap: None,
            seed: derive_seed(seed, 1),
            engine_mode: EngineMode::EventSkip,
            dispatch: DispatchPolicy::RoundRobin,
            queue_cap: 8,
            faults: None,
        };
        // The prep run serves a prefix that ends on a checkpoint cadence
        // point, so it chunks the trace exactly as the full run does.
        let counts = read_trace(&trace).map_err(err("reading trace"))?;
        let prep_dir = work.join("sparse-prep");
        let prep = run_serve(&ServeOptions {
            checkpoint_dir: Some(prep_dir.clone()),
            checkpoint_every: EVERY,
            threads: 2,
            ..ServeOptions::in_memory(config.clone(), counts[..PREP as usize].to_vec())
        })
        .map_err(err("prep run"))?;
        if prep.slices != PREP {
            return Err(format!(
                "prep run served {} slices, not {PREP}",
                prep.slices
            ));
        }
        Ok(ServeWorkload {
            config,
            trace,
            slices: SLICES,
            arrivals,
            checkpoint_every: EVERY,
            threads: 2,
            run_dir: work.join("sparse-run"),
            resume_from: Some((prep_dir, PREP)),
            resumed_at: None,
            work,
        })
    }

    /// Empties `dir`, then seeds it with the prep checkpoint when resuming.
    fn reset_dir(&self, dir: &Path) -> Result<(), String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(err("clearing checkpoint dir"))?;
        }
        std::fs::create_dir_all(dir).map_err(err("creating checkpoint dir"))?;
        if let Some((prep, _)) = &self.resume_from {
            for entry in std::fs::read_dir(prep).map_err(err("listing prep checkpoints"))? {
                let entry = entry.map_err(err("listing prep checkpoints"))?;
                std::fs::copy(entry.path(), dir.join(entry.file_name()))
                    .map_err(err("copying prep checkpoint"))?;
            }
        }
        Ok(())
    }

    fn options(&self, dir: &Path, threads: usize) -> ServeOptions {
        ServeOptions {
            config: self.config.clone(),
            trace: TraceSource::File(self.trace.clone()),
            checkpoint_dir: Some(dir.to_path_buf()),
            checkpoint_every: self.checkpoint_every,
            throttle: Duration::ZERO,
            report_out: None,
            threads,
            fresh: self.resume_from.is_none(),
            shutdown: None,
        }
    }

    /// Slices the timed call serves.
    fn served(&self) -> u64 {
        self.slices - self.resume_from.as_ref().map_or(0, |&(_, at)| at)
    }

    fn outcome(&self, watch: Stopwatch, report: &RackReport, text: String) -> Outcome {
        Outcome {
            wall_s: watch.wall_s(),
            cpu_s: watch.cpu_s(),
            setup_s: None,
            device_slices: self.config.devices as u64 * self.served(),
            sim: totals(report, self.arrivals),
            exact: text,
        }
    }

    /// The daemon run the timed calls make, at `threads` gap threads, into
    /// a freshly reset `dir`.
    #[allow(clippy::type_complexity)]
    fn serve_into(
        &self,
        dir: &Path,
        threads: usize,
    ) -> Result<(Stopwatch, RackReport, String, Option<u64>), String> {
        self.reset_dir(dir)?;
        let watch = Stopwatch::start();
        let summary = run_serve(&self.options(dir, threads)).map_err(err("run_serve"))?;
        Ok((
            watch,
            summary.report,
            summary.report_text,
            summary.resumed_at,
        ))
    }
}

/// The daemon's rack report as simulated totals; `arrivals` is the
/// trace's external arrival count.
fn totals(report: &RackReport, arrivals: u64) -> SimTotals {
    let total = &report.fleet.stats.total;
    let avail = &report.fleet.stats.availability;
    SimTotals {
        device_slices: total.steps,
        energy: total.total_energy,
        arrivals,
        completed: total.completed,
        dropped: total.dropped,
        shed: avail.total_shed(),
        lost: avail.queue_lost,
        total_wait: total.total_wait,
        deadline: None,
    }
}

impl Workload for ServeWorkload {
    fn shape(&self) -> String {
        let c = &self.config;
        format!(
            "closed loop, run_serve over a {}-slice trace ({} arrivals) on {} {:?} devices, \
             cap {:?}, {:?}, {:?}, faults {}, {} gap thread(s), checkpoint every {} slices{}",
            self.slices,
            self.arrivals,
            c.devices,
            c.preset,
            c.power_cap,
            c.dispatch,
            c.engine_mode,
            c.faults.as_ref().map_or(0.0, |f| f.crash_rate),
            self.threads,
            self.checkpoint_every,
            self.resume_from
                .as_ref()
                .map_or(String::new(), |(_, at)| format!(", resumed at slice {at}")),
        )
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn run(&mut self) -> Result<Outcome, String> {
        let (watch, report, text, resumed_at) = self.serve_into(&self.run_dir, self.threads)?;
        let outcome = self.outcome(watch, &report, text);
        self.resumed_at = resumed_at;
        Ok(outcome)
    }

    fn run_traced(&mut self) -> Result<(Outcome, LayerReport), String> {
        self.reset_dir(&self.run_dir)?;
        let watch = Stopwatch::start();
        let (report, text, resumed_at, mut layers) =
            traced_serve(&self.options(&self.run_dir, self.threads))?;
        let outcome = self.outcome(watch, &report, text);
        if resumed_at != self.resume_from.as_ref().map(|&(_, at)| at) {
            return Err(format!("traced run resumed at {resumed_at:?}"));
        }
        layers.set("sim.failed_share", outcome.sim.failed_share());
        Ok((outcome, layers))
    }

    fn setup_alone(&mut self) -> Result<Option<f64>, String> {
        // The daemon's own set-up calls, in its order: parse the trace,
        // then recover the rack from the checkpoint or build it cold.
        let dir = self.work.join("setup");
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        for _ in 0..SETUP_REPEATS {
            self.reset_dir(&dir)?;
            let watch = Stopwatch::start();
            let counts = read_trace(&self.trace).map_err(err("read_trace"))?;
            let horizon = counts.len() as u64;
            let rack = if self.resume_from.is_some() {
                recover_rack(&dir, &self.config, horizon)
                    .map_err(err("recover_rack"))?
                    .ok_or("no checkpoint to recover")?
                    .0
            } else {
                self.config.build_rack(horizon).map_err(err("build_rack"))?
            };
            times.push(watch.cpu_s());
            std::hint::black_box(rack);
        }
        std::fs::remove_dir_all(&dir).map_err(err("clearing setup dir"))?;
        Ok(Some(crate::stats::median(&times)))
    }

    fn check(&mut self, reference: &Outcome) -> Result<Vec<String>, String> {
        let mut passed = Vec::new();
        if let Some((_, at)) = self.resume_from {
            if self.resumed_at != Some(at) {
                return Err(format!(
                    "timed calls resumed at {:?}, prep stopped at {at}",
                    self.resumed_at
                ));
            }
            passed.push(format!(
                "timed calls resumed from the prep checkpoint at slice {at}"
            ));
            let check_dir = self.work.join("check");
            let (watch, _, one_thread, _) = self.serve_into(&check_dir, 1)?;
            let cpu = watch.cpu_s();
            if one_thread != reference.exact {
                return Err("report at 1 gap thread differs from 2 gap threads".to_string());
            }
            passed.push(format!(
                "resumed report identical at 1 and 2 gap threads (1 thread: {:.0} device-slices/cpu-s)",
                (self.config.devices as u64 * self.served()) as f64 / cpu
            ));
            std::fs::remove_dir_all(&check_dir).map_err(err("clearing check dir"))?;
            let mut cold = self.options(&check_dir, self.threads);
            cold.fresh = true;
            let uninterrupted = run_serve(&cold).map_err(err("uninterrupted run"))?;
            if uninterrupted.report_text != reference.exact {
                return Err("resumed report differs from the uninterrupted run's".to_string());
            }
            passed.push("resumed report equals the uninterrupted run's".to_string());
            std::fs::remove_dir_all(&check_dir).map_err(err("clearing check dir"))?;
        }
        // The last call left its end-of-trace checkpoint in the run dir.
        passed.push(drain_conservation(
            &self.run_dir,
            &self.config,
            self.slices,
            self.arrivals,
            self.threads,
        )?);
        Ok(passed)
    }
}

/// Arrival conservation of a served trace, read from the final
/// checkpoint in `dir`. The rack is recovered and served arrival-free
/// until nothing settles any more; over a further quiet stretch the
/// queue-length integral then grows by exactly the number of requests
/// still queued, which counts them without reading the queues. Every
/// external arrival must be completed, dropped, shed, lost or queued,
/// and the requests queued at the end of the trace must fit in the
/// device queues and the retry queue.
fn drain_conservation(
    dir: &Path,
    config: &ServeConfig,
    horizon: u64,
    external: u64,
    threads: usize,
) -> Result<String, String> {
    let (mut rack, slice, _) = recover_rack(dir, config, horizon)
        .map_err(err("recovering final checkpoint"))?
        .ok_or("no final checkpoint")?;
    if slice != horizon {
        return Err(format!(
            "final checkpoint at slice {slice}, trace has {horizon}"
        ));
    }
    let end = rack.report();
    let settled = |r: &RackReport| {
        let t = &r.fleet.stats.total;
        let a = &r.fleet.stats.availability;
        t.completed + t.dropped + a.total_shed() + a.queue_lost
    };
    let avail = &end.fleet.stats.availability;
    if end.fleet.stats.total.arrivals != external - avail.shed_no_healthy + avail.redispatched {
        return Err(format!(
            "device arrivals {} != external {external} - shed-unhealthy {} + redispatched {}",
            end.fleet.stats.total.arrivals, avail.shed_no_healthy, avail.redispatched
        ));
    }
    let queued_at_end = external
        .checked_sub(settled(&end))
        .ok_or("more settled than arrived")?;
    let room = (config.devices * config.queue_cap) as u64 + avail.retry_pending;
    if queued_at_end > room {
        return Err(format!(
            "{queued_at_end} requests queued at the end, room for {room}"
        ));
    }
    rack.advance_gap(DRAIN_SLICES, threads);
    let drained = rack.report();
    rack.advance_gap(DRAIN_SLICES, threads);
    let quiet = rack.report();
    if settled(&drained) != settled(&quiet) || quiet.fleet.stats.availability.retry_pending != 0 {
        return Err("requests still settling after the drain".to_string());
    }
    let integral = quiet.fleet.stats.total.queue_len_sum - drained.fleet.stats.total.queue_len_sum;
    let stuck = integral / DRAIN_SLICES as f64;
    if stuck.fract() != 0.0 || settled(&quiet) + stuck as u64 != external {
        return Err(format!(
            "arrivals {external} != completed + dropped + shed + lost {} + queued {stuck}",
            settled(&quiet)
        ));
    }
    Ok(format!(
        "arrivals {external} == completed + dropped + queued + shed + lost \
         ({queued_at_end} queued at the end of the trace, {stuck} never served)"
    ))
}

/// `run_serve` with a span around every call it makes into a layer.
///
/// This drives the same public calls as `qdpm_serve::run_serve`, in the
/// same order, for a file trace with no throttle, report file or
/// shutdown hook; the caller compares the report text it returns with
/// `run_serve`'s to prove the copy has not drifted.
#[allow(clippy::type_complexity)]
fn traced_serve(
    opts: &ServeOptions,
) -> Result<(RackReport, String, Option<u64>, LayerReport), String> {
    let TraceSource::File(path) = &opts.trace else {
        return Err("the traced daemon loop serves file traces".to_string());
    };
    let mut log = SpanLog::new();
    let root = log.open("serve.daemon.run", 0, None);
    let counts = log.time("serve.daemon.trace_parse", 0, Some(root), || {
        read_trace(path)
    });
    let counts = counts.map_err(err("read_trace"))?;
    let horizon = counts.len() as u64;
    let hash = opts.config.config_hash();

    let mut resumed_at = None;
    let mut rack: RackCoordinator = match (&opts.checkpoint_dir, opts.fresh) {
        (Some(dir), false) => {
            let recovered = log.time("serve.daemon.recover", 0, Some(root), || {
                recover_rack(dir, &opts.config, horizon)
            });
            match recovered.map_err(err("recover_rack"))? {
                Some((rack, slice, _)) => {
                    if slice > horizon {
                        return Err(format!("checkpoint at {slice}, trace has {horizon}"));
                    }
                    resumed_at = Some(slice);
                    rack
                }
                None => log
                    .time("serve.daemon.build_rack", 0, Some(root), || {
                        opts.config.build_rack(horizon)
                    })
                    .map_err(err("build_rack"))?,
            }
        }
        _ => log
            .time("serve.daemon.build_rack", 0, Some(root), || {
                opts.config.build_rack(horizon)
            })
            .map_err(err("build_rack"))?,
    };
    let mut store = match &opts.checkpoint_dir {
        Some(dir) => Some(CheckpointStore::open(dir, hash).map_err(err("opening store"))?),
        None => None,
    };

    let serving = log.open("serve.daemon.loop", 0, Some(root));
    let start = resumed_at.unwrap_or(0);
    let mut last_saved = resumed_at;
    let mut gap = 0u64;
    let mut gap_slices = 0u64;
    let mut bytes = 0u64;
    let threads = opts.threads.max(1);
    for slice in start..horizon {
        let count = counts[slice as usize];
        if count > 0 {
            log.time("sim.hierarchy.advance_gap", slice, Some(serving), || {
                rack.advance_gap(gap, threads)
            });
            gap_slices += gap;
            gap = 0;
            log.time("sim.hierarchy.arrival_slice", slice, Some(serving), || {
                rack.arrival_slice(count)
            });
        } else {
            gap += 1;
        }
        let done = slice + 1;
        if opts.checkpoint_every > 0 && done % opts.checkpoint_every == 0 {
            log.time("sim.hierarchy.advance_gap", slice, Some(serving), || {
                rack.advance_gap(gap, threads)
            });
            gap_slices += gap;
            gap = 0;
            if let Some(store) = &mut store {
                bytes += checkpoint(&mut log, serving, &rack, store, done)?;
                last_saved = Some(done);
            }
        }
    }
    log.time("sim.hierarchy.advance_gap", horizon, Some(serving), || {
        rack.advance_gap(gap, threads)
    });
    gap_slices += gap;
    if let Some(store) = &mut store {
        if last_saved != Some(horizon) {
            bytes += checkpoint(&mut log, serving, &rack, store, horizon)?;
        }
    }
    log.close(serving);

    let (report, text) = log.time("serve.daemon.report", 0, Some(root), || {
        let report = rack.report();
        let text = render_report(&report, hash, horizon);
        (report, text)
    });
    log.close(root);

    let mut layers = LayerReport::new(log);
    let seconds = |name| layers.span_total_ns(name) as f64 / NS_PER_S;
    let (parse, build, recover) = (
        seconds("serve.daemon.trace_parse"),
        seconds("serve.daemon.build_rack"),
        seconds("serve.daemon.recover"),
    );
    let loop_ns = layers.span_total_ns("serve.daemon.loop") as f64;
    let report_ms = layers.span_total_ns("serve.daemon.report") as f64 / NS_PER_MS;
    layers.set("serve.daemon.trace_parse_s", parse);
    layers.set("serve.daemon.build_rack_s", build);
    layers.set("serve.daemon.recover_s", recover);
    layers.set("serve.daemon.report_ms", report_ms);

    let encode = layers.span_hist("serve.checkpoint.encode");
    let write = layers.span_hist("serve.checkpoint.write");
    layers.set_percentiles(
        "serve.checkpoint.encode_ms_p50",
        "serve.checkpoint.encode_ms_ptail",
        &encode,
        NS_PER_MS,
    );
    layers.set_percentiles(
        "serve.checkpoint.write_ms_p50",
        "serve.checkpoint.write_ms_ptail",
        &write,
        NS_PER_MS,
    );
    layers.set("serve.checkpoint.count", write.count() as f64);
    if write.count() > 0 {
        layers.set(
            "serve.checkpoint.bytes",
            bytes as f64 / write.count() as f64,
        );
    }

    let arrivals = layers.span_hist("sim.hierarchy.arrival_slice");
    let gaps = layers.span_hist("sim.hierarchy.advance_gap");
    layers.set_percentiles(
        "sim.hierarchy.arrival_slice_us_p50",
        "sim.hierarchy.arrival_slice_us_ptail",
        &arrivals,
        NS_PER_US,
    );
    layers.set("sim.hierarchy.arrival_slice_calls", arrivals.count() as f64);
    layers.set(
        "sim.hierarchy.arrival_slice_busy_share",
        arrivals.sum() as f64 / loop_ns,
    );
    layers.set_percentiles(
        "sim.hierarchy.advance_gap_us_p50",
        "sim.hierarchy.advance_gap_us_ptail",
        &gaps,
        NS_PER_US,
    );
    layers.set("sim.hierarchy.advance_gap_calls", gaps.count() as f64);
    layers.set("sim.hierarchy.gap_slices", gap_slices as f64);
    layers.set(
        "sim.hierarchy.advance_gap_busy_share",
        gaps.sum() as f64 / loop_ns,
    );

    let avail = &report.fleet.stats.availability;
    layers.set("sim.hierarchy.vetoed_wakeups", report.vetoed_wakeups as f64);
    layers.set("sim.hierarchy.shed_arrivals", report.shed_arrivals as f64);
    layers.set("sim.hierarchy.retried", avail.retries_enqueued as f64);
    layers.set("sim.hierarchy.lost", avail.queue_lost as f64);
    if arrivals.count() > 0 {
        layers.set(
            "sim.hierarchy.vetoes_per_arrival_slice",
            report.vetoed_wakeups as f64 / arrivals.count() as f64,
        );
    }
    layers.set("trace.spans", layers.spans.spans().len() as f64);
    Ok((report, text, resumed_at, layers))
}

/// One cadence checkpoint, as the daemon takes it: encode the rack state,
/// then frame, checksum, write, fsync and rename it. Returns the state's
/// size in bytes.
fn checkpoint(
    log: &mut SpanLog,
    parent: usize,
    rack: &RackCoordinator,
    store: &mut CheckpointStore,
    done: u64,
) -> Result<u64, String> {
    let state = log.time("serve.checkpoint.encode", done, Some(parent), || {
        let mut w = StateWriter::new();
        rack.save_state(&mut w);
        w.into_bytes()
    });
    log.time("serve.checkpoint.write", done, Some(parent), || {
        store.save(done, &state)
    })
    .map_err(err("checkpoint write"))?;
    Ok(state.len() as u64)
}
