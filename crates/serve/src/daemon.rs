//! The serving loop: ingest a trace, drive a rack online, checkpoint
//! between slices, resume after a crash.
//!
//! # Resume contract
//!
//! A run SIGKILLed at *any* instant and restarted over the same trace,
//! configuration, and checkpoint cadence finishes with a report
//! bit-identical (exact `f64` bits) to a never-interrupted run. This holds
//! because every piece of dynamic state — device, queue, server, all four
//! RNG streams, learner tables, dispatcher cursors, rack budget — is
//! captured by `RackCoordinator::save_state`, gap advancement is additive
//! (`advance_gap(a)` then `advance_gap(b)` equals `advance_gap(a + b)`),
//! and checkpoints are only taken between slices at fixed cadence points,
//! so the interrupted and uninterrupted runs chunk the trace identically.

use std::path::{Path, PathBuf};
use std::time::Duration;

use qdpm_core::{StateReader, StateWriter};
use qdpm_device::{presets, DeviceMode, PowerModel, ServiceModel};
use qdpm_sim::hierarchy::{RackCoordinator, RackReport, RackSpec};
use qdpm_sim::AvailabilityStats;
use qdpm_sim::{EngineMode, FleetConfig, FleetMember, FleetPolicy, RunStats};
use qdpm_workload::{DispatchPolicy, FaultInjector};

use crate::checkpoint::{fnv1a64, list_generations, read_checkpoint, CheckpointStore};
use crate::error::ServeError;

/// Device presets a served rack can be built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevicePreset {
    /// [`presets::three_state_generic`].
    ThreeState,
    /// [`presets::ibm_hdd`].
    IbmHdd,
    /// [`presets::wlan_card`].
    WlanCard,
}

impl DevicePreset {
    /// Parses a CLI name.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadArgs`] for unknown names.
    pub fn parse(name: &str) -> Result<Self, ServeError> {
        match name {
            "three-state" => Ok(DevicePreset::ThreeState),
            "ibm-hdd" => Ok(DevicePreset::IbmHdd),
            "wlan" => Ok(DevicePreset::WlanCard),
            other => Err(ServeError::BadArgs(format!(
                "unknown device preset {other:?} (three-state, ibm-hdd, wlan)"
            ))),
        }
    }

    /// The canonical name (also what the config hash ingests).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DevicePreset::ThreeState => "three-state",
            DevicePreset::IbmHdd => "ibm-hdd",
            DevicePreset::WlanCard => "wlan",
        }
    }

    fn power(self) -> PowerModel {
        match self {
            DevicePreset::ThreeState => presets::three_state_generic(),
            DevicePreset::IbmHdd => presets::ibm_hdd(),
            DevicePreset::WlanCard => presets::wlan_card(),
        }
    }

    fn service(self) -> ServiceModel {
        presets::default_service()
    }
}

/// The rack shape a daemon serves. Everything here is fingerprinted into
/// the checkpoint config hash: a checkpoint only resumes into the exact
/// configuration that wrote it.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of devices in the rack.
    pub devices: usize,
    /// Member policies, cycled across devices (device `i` gets
    /// `policies[i % len]`).
    pub policies: Vec<FleetPolicy>,
    /// Device preset every member is built from.
    pub preset: DevicePreset,
    /// Optional rack power cap.
    pub power_cap: Option<f64>,
    /// Master seed (per-device streams are derived from it).
    pub seed: u64,
    /// Engine mode of every member simulator.
    pub engine_mode: EngineMode,
    /// Intra-rack dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Queue capacity of every device.
    pub queue_cap: usize,
    /// Optional seeded fault injection (see
    /// [`qdpm_workload::FaultInjector`]). Part of the config fingerprint:
    /// the fault plan derives from the seed, so a resumed run replays the
    /// identical failures.
    pub faults: Option<FaultInjector>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: 4,
            policies: vec![FleetPolicy::QDpm(qdpm_core::QDpmConfig::default())],
            preset: DevicePreset::ThreeState,
            power_cap: None,
            seed: 42,
            engine_mode: EngineMode::PerSlice,
            dispatch: DispatchPolicy::RoundRobin,
            queue_cap: 8,
            faults: None,
        }
    }
}

impl ServeConfig {
    /// FNV-1a fingerprint of the canonical config encoding — embedded in
    /// every checkpoint and checked on resume.
    #[must_use]
    pub fn config_hash(&self) -> u64 {
        let mut w = StateWriter::new();
        w.put_usize(self.devices);
        w.put_usize(self.policies.len());
        for p in &self.policies {
            w.put_str(p.name());
            if let FleetPolicy::FixedTimeout(t) = p {
                w.put_u64(*t);
            }
        }
        w.put_str(self.preset.name());
        match self.power_cap {
            None => w.put_bool(false),
            Some(cap) => {
                w.put_bool(true);
                w.put_f64(cap);
            }
        }
        w.put_u64(self.seed);
        w.put_u8(match self.engine_mode {
            EngineMode::PerSlice => 0,
            EngineMode::EventSkip => 1,
        });
        match self.dispatch {
            DispatchPolicy::RoundRobin => w.put_u8(0),
            DispatchPolicy::LeastLoaded => w.put_u8(1),
            DispatchPolicy::HashSharded { salt } => {
                w.put_u8(2);
                w.put_u64(salt);
            }
            DispatchPolicy::JoinShortestQueue => w.put_u8(3),
            DispatchPolicy::SleepAware { spill } => {
                w.put_u8(4);
                w.put_usize(spill);
            }
        }
        w.put_usize(self.queue_cap);
        match &self.faults {
            None => w.put_bool(false),
            Some(f) => {
                w.put_bool(true);
                w.put_f64(f.crash_rate);
                w.put_u64(f.crash_down);
                w.put_f64(f.fail_stop_rate);
                w.put_f64(f.straggle_rate);
                w.put_u64(f.straggle_slowdown);
                w.put_u64(f.straggle_window);
                w.put_f64(f.down_power);
            }
        }
        fnv1a64(&w.into_bytes())
    }

    /// Builds a cold rack for this configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the config is empty/invalid or rack
    /// construction rejects it (e.g. oracle members, infeasible caps).
    pub fn build_rack(&self, horizon: u64) -> Result<RackCoordinator, ServeError> {
        if self.devices == 0 {
            return Err(ServeError::BadArgs(
                "a served rack needs at least one device".to_string(),
            ));
        }
        if self.policies.is_empty() {
            return Err(ServeError::BadArgs(
                "at least one member policy is required".to_string(),
            ));
        }
        let members: Vec<FleetMember> = (0..self.devices)
            .map(|i| FleetMember {
                label: format!("dev-{i}"),
                power: self.preset.power(),
                service: self.preset.service(),
                policy: self.policies[i % self.policies.len()].clone(),
            })
            .collect();
        let spec = RackSpec {
            label: "serve".to_string(),
            members,
            power_cap: self.power_cap,
        };
        let config = FleetConfig {
            queue_cap: self.queue_cap,
            seed: self.seed,
            engine_mode: self.engine_mode,
            dispatch: self.dispatch,
            horizon,
            faults: self.faults.clone(),
            ..FleetConfig::default()
        };
        Ok(RackCoordinator::new(&spec, &config)?)
    }
}

/// Where the arrival stream comes from.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// A `# qdpm-trace v1` text file (one arrival count per line).
    File(PathBuf),
    /// Standard input, same line format. Resuming a killed stdin run
    /// requires the producer to replay from the checkpointed slice — a
    /// file trace re-seeks automatically and is what the crash harness
    /// uses.
    Stdin,
    /// An in-memory trace (library callers and tests).
    Counts(Vec<u32>),
}

/// One serving run: configuration plus operational knobs. The knobs that
/// affect *chunking* (`checkpoint_every`) must match between a killed and
/// an uninterrupted run for bit-identical reports; pacing and output paths
/// never affect results.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The rack shape.
    pub config: ServeConfig,
    /// The arrival stream.
    pub trace: TraceSource,
    /// Checkpoint directory; `None` serves without durability.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every N slices (0 = only the final checkpoint).
    pub checkpoint_every: u64,
    /// Sleep per slice — throttles accelerated replay toward wall-clock.
    pub throttle: Duration,
    /// Write the final report here (atomically).
    pub report_out: Option<PathBuf>,
    /// Threads that advance arrival-free gaps, the serving thread
    /// included: the rack keeps `threads - 1` workers alive between gaps
    /// ([`RackCoordinator::advance_gap`]). The report is identical at any
    /// count.
    pub threads: usize,
    /// Ignore existing checkpoints and start cold.
    pub fresh: bool,
    /// Polled between slices: returning `true` requests a graceful stop —
    /// the daemon writes a final checkpoint at the current slice and
    /// returns early with [`ServeSummary::terminated_at`] set. The CLI
    /// wires a SIGTERM latch in here; `None` never stops early.
    pub shutdown: Option<fn() -> bool>,
}

impl ServeOptions {
    /// Minimal options serving an in-memory trace with no durability.
    #[must_use]
    pub fn in_memory(config: ServeConfig, counts: Vec<u32>) -> Self {
        ServeOptions {
            config,
            trace: TraceSource::Counts(counts),
            checkpoint_dir: None,
            checkpoint_every: 0,
            throttle: Duration::ZERO,
            report_out: None,
            threads: 1,
            fresh: true,
            shutdown: None,
        }
    }
}

/// What a completed serving run reports back.
#[derive(Debug)]
pub struct ServeSummary {
    /// The final rack report.
    pub report: RackReport,
    /// Total trace slices served.
    pub slices: u64,
    /// Slice the run resumed from (`None` for a cold start).
    pub resumed_at: Option<u64>,
    /// Checkpoints written during this run.
    pub checkpoints_written: u64,
    /// Checkpoint generations that failed validation and were skipped
    /// during recovery, newest first.
    pub skipped: Vec<(PathBuf, ServeError)>,
    /// The rendered deterministic report text.
    pub report_text: String,
    /// Slice a graceful-shutdown request stopped the run at (`None` for
    /// a run that served the whole trace). The final checkpoint covers
    /// exactly this many slices; resuming completes the trace.
    pub terminated_at: Option<u64>,
}

/// Parses a `# qdpm-trace v1` text file into per-slice arrival counts.
///
/// # Errors
///
/// [`ServeError::Io`] for unreadable files, [`ServeError::BadArgs`] for
/// malformed lines or an empty trace.
pub fn read_trace(path: &Path) -> Result<Vec<u32>, ServeError> {
    let text = std::fs::read_to_string(path).map_err(|source| ServeError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    parse_trace(&text, &path.display().to_string())
}

fn parse_trace(text: &str, origin: &str) -> Result<Vec<u32>, ServeError> {
    let mut counts = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let count: u32 = line
            .parse()
            .map_err(|e| ServeError::BadArgs(format!("{origin}: line {}: {e}", i + 1)))?;
        counts.push(count);
    }
    if counts.is_empty() {
        return Err(ServeError::BadArgs(format!("{origin}: empty trace")));
    }
    Ok(counts)
}

/// Recovers the newest usable checkpoint from `dir`, degrading gracefully:
/// generations that are unreadable, corrupt, version-mismatched,
/// config-mismatched, or whose payload the rebuilt rack rejects are
/// skipped (typed, newest first, in the returned list) in favour of the
/// next older one. Returns the hydrated rack and the resume slice.
///
/// # Errors
///
/// [`ServeError::NoUsableCheckpoint`] when checkpoint files exist but
/// every one fails; propagates directory listing failures. An empty (or
/// missing) directory is `Ok(None)` — a cold start, not an error.
#[allow(clippy::type_complexity)]
pub fn recover_rack(
    dir: &Path,
    config: &ServeConfig,
    horizon: u64,
) -> Result<Option<(RackCoordinator, u64, Vec<(PathBuf, ServeError)>)>, ServeError> {
    let generations = list_generations(dir)?;
    if generations.is_empty() {
        return Ok(None);
    }
    let tried = generations.len();
    let hash = config.config_hash();
    let mut skipped = Vec::new();
    for (_, path) in generations {
        let ckpt = match read_checkpoint(&path, hash) {
            Ok(c) => c,
            Err(e) => {
                skipped.push((path, e));
                continue;
            }
        };
        let mut rack = config.build_rack(horizon)?;
        match rack.load_state(&mut StateReader::new(&ckpt.rack_state)) {
            Ok(()) => return Ok(Some((rack, ckpt.slice, skipped))),
            Err(source) => {
                // A checksum-valid container whose payload does not fit
                // the rack is as unusable as a torn file: degrade.
                skipped.push((
                    path,
                    ServeError::BadPayload {
                        path: PathBuf::new(),
                        source,
                    },
                ));
            }
        }
    }
    Err(ServeError::NoUsableCheckpoint {
        dir: dir.to_path_buf(),
        tried,
    })
}

/// Runs one serving session to completion: recover-or-cold-start, drive
/// the rack over the trace, checkpoint at cadence, write the final report.
///
/// # Errors
///
/// Any [`ServeError`]: unusable trace or configuration, unrecoverable
/// checkpoint directory, or I/O failure on checkpoint/report writes.
pub fn run_serve(opts: &ServeOptions) -> Result<ServeSummary, ServeError> {
    let counts: Vec<u32> = match &opts.trace {
        TraceSource::File(path) => read_trace(path)?,
        TraceSource::Counts(c) => c.clone(),
        TraceSource::Stdin => {
            let mut text = String::new();
            use std::io::Read as _;
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|source| ServeError::Io {
                    path: PathBuf::from("<stdin>"),
                    source,
                })?;
            parse_trace(&text, "<stdin>")?
        }
    };
    let horizon = counts.len() as u64;
    let hash = opts.config.config_hash();

    let mut skipped = Vec::new();
    let mut resumed_at = None;
    let mut rack = match (&opts.checkpoint_dir, opts.fresh) {
        (Some(dir), false) => match recover_rack(dir, &opts.config, horizon)? {
            Some((rack, slice, skip)) => {
                if slice > horizon {
                    return Err(ServeError::BadArgs(format!(
                        "checkpoint is {slice} slices in, but the trace has only {horizon}"
                    )));
                }
                skipped = skip;
                resumed_at = Some(slice);
                rack
            }
            None => opts.config.build_rack(horizon)?,
        },
        _ => opts.config.build_rack(horizon)?,
    };

    let mut store = match &opts.checkpoint_dir {
        Some(dir) => Some(CheckpointStore::open(dir, hash)?),
        None => None,
    };

    let start = resumed_at.unwrap_or(0);
    let mut checkpoints_written = 0u64;
    let mut last_saved = resumed_at;
    let mut gap = 0u64;
    let mut terminated_at = None;
    let threads = opts.threads.max(1);
    for slice in start..horizon {
        let count = counts[slice as usize];
        if count > 0 {
            rack.advance_gap(gap, threads);
            gap = 0;
            rack.arrival_slice(count);
        } else {
            gap += 1;
        }
        let done = slice + 1;
        if opts.checkpoint_every > 0 && done % opts.checkpoint_every == 0 {
            rack.advance_gap(gap, threads);
            gap = 0;
            if let Some(store) = &mut store {
                let mut w = StateWriter::new();
                rack.save_state(&mut w);
                store.save(done, &w.into_bytes())?;
                checkpoints_written += 1;
                last_saved = Some(done);
            }
        }
        if opts.shutdown.is_some_and(|requested| requested()) {
            // Graceful stop: settle the rack at this slice boundary and
            // fall through to the final-checkpoint path. Resuming is
            // bit-exact because gap advancement is additive — the
            // interrupted and uninterrupted runs chunk identically.
            terminated_at = Some(done);
            break;
        }
        if !opts.throttle.is_zero() {
            std::thread::sleep(opts.throttle);
        }
    }
    rack.advance_gap(gap, threads);
    let served_to = terminated_at.unwrap_or(horizon);
    if let Some(store) = &mut store {
        if last_saved != Some(served_to) {
            let mut w = StateWriter::new();
            rack.save_state(&mut w);
            store.save(served_to, &w.into_bytes())?;
            checkpoints_written += 1;
        }
    }

    let report = rack.report();
    let report_text = render_report(&report, hash, served_to);
    if let Some(path) = &opts.report_out {
        // A gracefully-stopped run leaves the report to the resuming run:
        // a partial report must never overwrite a complete one.
        if terminated_at.is_none() {
            atomic_write(path, report_text.as_bytes())?;
        }
    }
    Ok(ServeSummary {
        report,
        slices: served_to,
        resumed_at,
        checkpoints_written,
        skipped,
        report_text,
        terminated_at,
    })
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// sync, rename.
///
/// # Errors
///
/// [`ServeError::Io`] on any write, sync, or rename failure.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
    let io_err = |p: &Path| {
        let p = p.to_path_buf();
        move |source| ServeError::Io { path: p, source }
    };
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| ServeError::BadArgs(format!("{}: not a file path", path.display())))?;
    let tmp = match dir {
        Some(d) => d.join(format!(".{file_name}.tmp")),
        None => PathBuf::from(format!(".{file_name}.tmp")),
    };
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp).map_err(io_err(&tmp))?;
        f.write_all(bytes).map_err(io_err(&tmp))?;
        f.sync_all().map_err(io_err(&tmp))?;
    }
    std::fs::rename(&tmp, path).map_err(io_err(path))
}

fn mode_str(mode: &DeviceMode) -> String {
    match mode {
        DeviceMode::Operational(s) => format!("op:{}", s.index()),
        DeviceMode::Transitioning {
            from,
            to,
            remaining,
        } => {
            format!("tr:{}>{}:{remaining}", from.index(), to.index())
        }
    }
}

fn stats_fields(s: &RunStats) -> String {
    format!(
        "steps {} energy {:016x} cost {:016x} arrivals {} completed {} \
         dropped {} wait {} qsum {:016x}",
        s.steps,
        s.total_energy.to_bits(),
        s.total_cost.to_bits(),
        s.arrivals,
        s.completed,
        s.dropped,
        s.total_wait,
        s.queue_len_sum.to_bits(),
    )
}

fn availability_fields(a: &AvailabilityStats) -> String {
    format!(
        "faults {} downtime {} lost {} retried {} redispatched {} \
         pending {} shed-unhealthy {} shed-retry {}",
        a.faults_injected,
        a.total_downtime(),
        a.queue_lost,
        a.retries_enqueued,
        a.redispatched,
        a.retry_pending,
        a.shed_no_healthy,
        a.shed_retry_exhausted,
    )
}

/// Renders the deterministic final report. Floating-point values are
/// printed as exact bit patterns (hex), so byte-equal reports mean
/// bit-identical statistics.
#[must_use]
pub fn render_report(report: &RackReport, config_hash: u64, slices: u64) -> String {
    let mut out = String::new();
    out.push_str("# qdpm-serve report v2\n");
    out.push_str(&format!("config {config_hash:016x}\n"));
    out.push_str(&format!("slices {slices}\n"));
    match report.power_cap {
        None => out.push_str("cap none\n"),
        Some(cap) => out.push_str(&format!("cap {:016x}\n", cap.to_bits())),
    }
    out.push_str(&format!("vetoed {}\n", report.vetoed_wakeups));
    out.push_str(&format!("shed {}\n", report.shed_arrivals));
    out.push_str(&format!(
        "availability {}\n",
        availability_fields(&report.fleet.stats.availability),
    ));
    for (i, stats) in report.fleet.per_device.iter().enumerate() {
        out.push_str(&format!(
            "device {} {} final {} health {} downtime {}\n",
            report.fleet.labels[i],
            stats_fields(stats),
            mode_str(&report.fleet.final_modes[i]),
            report.health[i].name(),
            report
                .fleet
                .stats
                .availability
                .downtime_slices
                .get(i)
                .copied()
                .unwrap_or(0),
        ));
    }
    out.push_str(&format!(
        "fleet devices {} {}\n",
        report.fleet.stats.devices,
        stats_fields(&report.fleet.stats.total),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qdpm-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_trace(len: usize) -> Vec<u32> {
        // Deterministic mildly bursty pattern with real gaps.
        (0..len)
            .map(|i| match i % 13 {
                0 | 1 => 2,
                5 => 1,
                8 => 3,
                _ => 0,
            })
            .collect()
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            devices: 3,
            policies: vec![
                FleetPolicy::QDpm(qdpm_core::QDpmConfig::default()),
                FleetPolicy::AdaptiveTimeout,
            ],
            seed: 1234,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn config_hash_tracks_every_field() {
        let base = test_config();
        let mut other = base.clone();
        other.seed += 1;
        assert_ne!(base.config_hash(), other.config_hash());
        let mut other = base.clone();
        other.engine_mode = EngineMode::EventSkip;
        assert_ne!(base.config_hash(), other.config_hash());
        let mut other = base.clone();
        other.power_cap = Some(3.0);
        assert_ne!(base.config_hash(), other.config_hash());
        assert_eq!(base.config_hash(), base.clone().config_hash());
    }

    #[test]
    fn serve_without_checkpoints_matches_checkpointed_serve() {
        // Checkpointing must be observationally free: same trace, same
        // cadence chunking, reports byte-identical with durability on
        // and off.
        let counts = test_trace(600);
        let plain = run_serve(&ServeOptions {
            checkpoint_every: 50,
            ..ServeOptions::in_memory(test_config(), counts.clone())
        })
        .unwrap();
        let dir = tmp_dir("free");
        let durable = run_serve(&ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 50,
            ..ServeOptions::in_memory(test_config(), counts)
        })
        .unwrap();
        assert_eq!(plain.report_text, durable.report_text);
        assert!(durable.checkpoints_written >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_every_cadence_point_is_bit_identical() {
        // Stop a run at each checkpoint boundary (simulating a crash just
        // after the write), resume in a new process-equivalent call, and
        // require the final report to match the uninterrupted run exactly.
        let counts = test_trace(400);
        let reference = run_serve(&ServeOptions {
            checkpoint_every: 100,
            ..ServeOptions::in_memory(test_config(), counts.clone())
        })
        .unwrap();

        for stop_after in [100u64, 200, 300] {
            let dir = tmp_dir(&format!("resume-{stop_after}"));
            // Phase 1: serve only the prefix, checkpointing at cadence.
            // Truncating the trace at a cadence point reproduces the
            // chunking of the full run over that prefix.
            let prefix: Vec<u32> = counts[..stop_after as usize].to_vec();
            run_serve(&ServeOptions {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every: 100,
                ..ServeOptions::in_memory(test_config(), prefix)
            })
            .unwrap();
            // Phase 2: resume over the full trace.
            let resumed = run_serve(&ServeOptions {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every: 100,
                fresh: false,
                ..ServeOptions::in_memory(test_config(), counts.clone())
            })
            .unwrap();
            assert_eq!(resumed.resumed_at, Some(stop_after));
            assert_eq!(
                resumed.report_text, reference.report_text,
                "resume at {stop_after} diverged"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn capped_rack_serves_and_resumes() {
        let mut config = test_config();
        config.power_cap = Some(4.0);
        config.dispatch = DispatchPolicy::SleepAware { spill: 3 };
        let counts = test_trace(400);
        let reference = run_serve(&ServeOptions {
            checkpoint_every: 80,
            ..ServeOptions::in_memory(config.clone(), counts.clone())
        })
        .unwrap();
        let dir = tmp_dir("capped");
        run_serve(&ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 80,
            ..ServeOptions::in_memory(config.clone(), counts[..160].to_vec())
        })
        .unwrap();
        let resumed = run_serve(&ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 80,
            fresh: false,
            ..ServeOptions::in_memory(config, counts)
        })
        .unwrap();
        assert_eq!(resumed.resumed_at, Some(160));
        assert_eq!(resumed.report_text, reference.report_text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_parsing_rejects_garbage_and_empty() {
        assert!(matches!(
            parse_trace("# header\n1\nnope\n", "t").unwrap_err(),
            ServeError::BadArgs(_)
        ));
        assert!(matches!(
            parse_trace("# only comments\n\n", "t").unwrap_err(),
            ServeError::BadArgs(_)
        ));
        assert_eq!(parse_trace("# h\n1\n\n0\n2\n", "t").unwrap(), vec![1, 0, 2]);
    }
}
