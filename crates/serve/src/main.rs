//! Command-line entry point: `qdpm-serve record` captures a trace,
//! `qdpm-serve serve` drives a rack over one with checkpoint/resume.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use qdpm_serve::{run_serve, DevicePreset, ServeConfig, ServeError, ServeOptions, TraceSource};
use qdpm_sim::{EngineMode, FleetPolicy};
use qdpm_workload::{DispatchPolicy, FaultInjector};

/// SIGTERM → graceful-shutdown latch. The handler only flips an atomic;
/// the serving loop polls it between slices and settles with a final
/// checkpoint, so a `systemctl stop` (or plain `kill`) never loses work
/// where a SIGKILL would rely on the last cadence checkpoint.
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    /// POSIX SIGTERM.
    const SIGTERM: i32 = 15;

    #[allow(unsafe_code)]
    mod ffi {
        extern "C" {
            pub fn signal(signum: i32, handler: usize) -> usize;
        }
    }

    extern "C" fn on_sigterm(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Installs the latch (async-signal-safe: the handler is one atomic
    /// store). Registration failure is ignored — the daemon then simply
    /// keeps the default terminate-on-SIGTERM behaviour.
    pub fn install() {
        #[allow(unsafe_code)]
        unsafe {
            ffi::signal(SIGTERM, on_sigterm as *const () as usize);
        }
    }

    /// Whether a SIGTERM has been received.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

const USAGE: &str = "\
qdpm-serve — crash-tolerant Q-DPM serving daemon

USAGE:
  qdpm-serve record --out <PATH> --slices <N> [--rate <P>] [--seed <S>]
      Record a Bernoulli(P) arrival trace (default rate 0.3, seed 42).

  qdpm-serve serve --trace <PATH|-> [OPTIONS]
      Serve a recorded trace (or stdin with '-').

SERVE OPTIONS:
  --devices <N>            rack size (default 4)
  --policy <LIST>          comma-separated member policies, cycled across
                           devices: always-on, greedy-off,
                           break-even-timeout, fixed-timeout:<T>,
                           adaptive-timeout, q-dpm, qos-q-dpm,
                           shared-q-dpm, chaos-monkey (default q-dpm)
  --preset <NAME>          device preset: three-state, ibm-hdd, wlan
  --cap <WATTS>            rack power cap (default uncapped)
  --seed <S>               master seed (default 42)
  --mode <M>               engine: per-slice, event-skip (default per-slice)
  --dispatch <D>           round-robin, least-loaded, hash-sharded:<SALT>,
                           jsq, sleep-aware:<SPILL> (default round-robin)
  --queue-cap <N>          per-device queue capacity (default 8)
  --faults <RATE>          per-device per-slice transient-crash rate
                           (deterministic seeded injection; default off)
  --fault-down <SLICES>    slices a transient crash keeps a device down
                           (default 250)
  --fail-stop <RATE>       per-device per-slice fail-stop rate (a hit
                           device never revives)
  --fault-straggle <RATE>  per-device per-slice straggler-onset rate
  --fault-power <WATTS>    slice draw of a downed device (default 0)
  --checkpoint-dir <DIR>   enable durable checkpoints in DIR
  --checkpoint-every <N>   checkpoint cadence in slices (default 100)
  --throttle-us <U>        sleep U microseconds per slice (default 0)
  --report-out <PATH>      write the final deterministic report here
  --threads <N>            gap-advance threads, >= 1, the caller's
                           included; identical report at any N (default 1)
  --fresh                  ignore existing checkpoints, start cold
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qdpm-serve: {e}");
            match e {
                ServeError::BadArgs(_) => ExitCode::from(2),
                _ => ExitCode::FAILURE,
            }
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), ServeError> {
    match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(ServeError::BadArgs(format!(
            "unknown subcommand {other:?}; see --help"
        ))),
    }
}

/// Pulls the value of a `--flag VALUE` pair out of `args`.
struct Flags<'a> {
    args: &'a [String],
    used: Vec<bool>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags {
            args,
            used: vec![false; args.len()],
        }
    }

    fn value(&mut self, flag: &str) -> Result<Option<&'a str>, ServeError> {
        for i in 0..self.args.len() {
            if self.args[i] == flag {
                self.used[i] = true;
                let v = self
                    .args
                    .get(i + 1)
                    .ok_or_else(|| ServeError::BadArgs(format!("{flag} needs a value")))?;
                self.used[i + 1] = true;
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn switch(&mut self, flag: &str) -> bool {
        for i in 0..self.args.len() {
            if self.args[i] == flag {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    fn finish(self) -> Result<(), ServeError> {
        for (i, used) in self.used.iter().enumerate() {
            if !used {
                return Err(ServeError::BadArgs(format!(
                    "unexpected argument {:?}; see --help",
                    self.args[i]
                )));
            }
        }
        Ok(())
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ServeError>
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .map_err(|e| ServeError::BadArgs(format!("{flag} {v:?}: {e}")))
}

/// Parses a probability-valued flag: finite and within `[0, 1]`.
fn parse_prob(flag: &'static str, v: &str) -> Result<f64, ServeError> {
    let x: f64 = parse_num(flag, v)?;
    if !x.is_finite() || !(0.0..=1.0).contains(&x) {
        return Err(ServeError::OutOfRange {
            flag,
            value: x,
            expected: "a probability in [0, 1]",
        });
    }
    Ok(x)
}

/// Parses a strictly positive finite flag value (a power cap).
fn parse_pos(flag: &'static str, v: &str) -> Result<f64, ServeError> {
    let x: f64 = parse_num(flag, v)?;
    if !x.is_finite() || x <= 0.0 {
        return Err(ServeError::OutOfRange {
            flag,
            value: x,
            expected: "a finite value > 0",
        });
    }
    Ok(x)
}

/// Parses a non-negative finite flag value (a downed device's draw).
fn parse_nonneg(flag: &'static str, v: &str) -> Result<f64, ServeError> {
    let x: f64 = parse_num(flag, v)?;
    if !x.is_finite() || x < 0.0 {
        return Err(ServeError::OutOfRange {
            flag,
            value: x,
            expected: "a finite value >= 0",
        });
    }
    Ok(x)
}

/// Parses a worker-thread count: a positive integer.
fn parse_workers(flag: &'static str, v: &str) -> Result<usize, ServeError> {
    let n: usize = parse_num(flag, v)?;
    if n == 0 {
        return Err(ServeError::OutOfRange {
            flag,
            value: 0.0,
            expected: "a positive worker count",
        });
    }
    Ok(n)
}

fn record(args: &[String]) -> Result<(), ServeError> {
    let mut flags = Flags::new(args);
    let out = flags
        .value("--out")?
        .ok_or_else(|| ServeError::BadArgs("record needs --out <PATH>".to_string()))?
        .to_string();
    let slices: u64 = match flags.value("--slices")? {
        Some(v) => parse_num("--slices", v)?,
        None => return Err(ServeError::BadArgs("record needs --slices <N>".to_string())),
    };
    let rate: f64 = match flags.value("--rate")? {
        Some(v) => parse_prob("--rate", v)?,
        None => 0.3,
    };
    let seed: u64 = match flags.value("--seed")? {
        Some(v) => parse_num("--seed", v)?,
        None => 42,
    };
    flags.finish()?;

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let spec = qdpm_workload::WorkloadSpec::bernoulli(rate)
        .map_err(|e| ServeError::BadArgs(format!("--rate {rate}: {e}")))?;
    let mut gen = spec.build();
    let mut rng = StdRng::seed_from_u64(seed);
    let rec = qdpm_workload::TraceRecorder::capture(gen.as_mut(), &mut rng, slices);
    let out = PathBuf::from(out);
    rec.save(&out).map_err(|source| ServeError::Io {
        path: out.clone(),
        source,
    })?;
    eprintln!("recorded {slices} slices to {}", out.display());
    Ok(())
}

fn parse_policy(name: &str) -> Result<FleetPolicy, ServeError> {
    Ok(match name {
        "always-on" => FleetPolicy::AlwaysOn,
        "greedy-off" => FleetPolicy::GreedyOff,
        "break-even-timeout" => FleetPolicy::BreakEvenTimeout,
        "adaptive-timeout" => FleetPolicy::AdaptiveTimeout,
        "q-dpm" => FleetPolicy::QDpm(qdpm_core::QDpmConfig::default()),
        "qos-q-dpm" => FleetPolicy::QosQDpm(qdpm_core::QosConfig::default()),
        "shared-q-dpm" => FleetPolicy::SharedQDpm(qdpm_core::QDpmConfig::default()),
        "chaos-monkey" => FleetPolicy::ChaosMonkey,
        other => {
            if let Some(t) = other.strip_prefix("fixed-timeout:") {
                FleetPolicy::FixedTimeout(parse_num("--policy fixed-timeout", t)?)
            } else {
                return Err(ServeError::BadArgs(format!(
                    "unknown policy {other:?}; see --help"
                )));
            }
        }
    })
}

fn parse_dispatch(name: &str) -> Result<DispatchPolicy, ServeError> {
    Ok(match name {
        "round-robin" => DispatchPolicy::RoundRobin,
        "least-loaded" => DispatchPolicy::LeastLoaded,
        "jsq" => DispatchPolicy::JoinShortestQueue,
        other => {
            if let Some(salt) = other.strip_prefix("hash-sharded:") {
                DispatchPolicy::HashSharded {
                    salt: parse_num("--dispatch hash-sharded", salt)?,
                }
            } else if let Some(spill) = other.strip_prefix("sleep-aware:") {
                DispatchPolicy::SleepAware {
                    spill: parse_num("--dispatch sleep-aware", spill)?,
                }
            } else {
                return Err(ServeError::BadArgs(format!(
                    "unknown dispatch policy {other:?}; see --help"
                )));
            }
        }
    })
}

fn serve(args: &[String]) -> Result<(), ServeError> {
    let mut flags = Flags::new(args);
    let trace = match flags.value("--trace")? {
        Some("-") => TraceSource::Stdin,
        Some(path) => TraceSource::File(PathBuf::from(path)),
        None => {
            return Err(ServeError::BadArgs(
                "serve needs --trace <PATH|->".to_string(),
            ))
        }
    };

    let mut config = ServeConfig::default();
    if let Some(v) = flags.value("--devices")? {
        config.devices = parse_num("--devices", v)?;
    }
    if let Some(v) = flags.value("--policy")? {
        config.policies = v
            .split(',')
            .map(parse_policy)
            .collect::<Result<Vec<_>, _>>()?;
    }
    if let Some(v) = flags.value("--preset")? {
        config.preset = DevicePreset::parse(v)?;
    }
    if let Some(v) = flags.value("--cap")? {
        config.power_cap = Some(parse_pos("--cap", v)?);
    }
    if let Some(v) = flags.value("--seed")? {
        config.seed = parse_num("--seed", v)?;
    }
    if let Some(v) = flags.value("--mode")? {
        config.engine_mode = match v {
            "per-slice" => EngineMode::PerSlice,
            "event-skip" => EngineMode::EventSkip,
            other => {
                return Err(ServeError::BadArgs(format!(
                    "unknown engine mode {other:?} (per-slice, event-skip)"
                )))
            }
        };
    }
    if let Some(v) = flags.value("--dispatch")? {
        config.dispatch = parse_dispatch(v)?;
    }
    if let Some(v) = flags.value("--queue-cap")? {
        config.queue_cap = parse_num("--queue-cap", v)?;
    }

    let mut faults = FaultInjector::default();
    if let Some(v) = flags.value("--faults")? {
        faults.crash_rate = parse_prob("--faults", v)?;
    }
    if let Some(v) = flags.value("--fault-down")? {
        faults.crash_down = parse_num("--fault-down", v)?;
    }
    if let Some(v) = flags.value("--fail-stop")? {
        faults.fail_stop_rate = parse_prob("--fail-stop", v)?;
    }
    if let Some(v) = flags.value("--fault-straggle")? {
        faults.straggle_rate = parse_prob("--fault-straggle", v)?;
    }
    if let Some(v) = flags.value("--fault-power")? {
        faults.down_power = parse_nonneg("--fault-power", v)?;
    }
    if faults.is_active() {
        faults
            .validate()
            .map_err(|e| ServeError::BadArgs(format!("fault flags: {e}")))?;
        config.faults = Some(faults);
    }

    let checkpoint_dir = flags.value("--checkpoint-dir")?.map(PathBuf::from);
    let checkpoint_every: u64 = match flags.value("--checkpoint-every")? {
        Some(v) => parse_num("--checkpoint-every", v)?,
        None => 100,
    };
    let throttle_us: u64 = match flags.value("--throttle-us")? {
        Some(v) => parse_num("--throttle-us", v)?,
        None => 0,
    };
    let report_out = flags.value("--report-out")?.map(PathBuf::from);
    let threads: usize = match flags.value("--threads")? {
        Some(v) => parse_workers("--threads", v)?,
        None => 1,
    };
    let fresh = flags.switch("--fresh");
    flags.finish()?;

    sigterm::install();
    let summary = run_serve(&ServeOptions {
        config,
        trace,
        checkpoint_dir,
        checkpoint_every,
        throttle: Duration::from_micros(throttle_us),
        report_out,
        threads,
        fresh,
        shutdown: Some(sigterm::requested),
    })?;

    for (path, err) in &summary.skipped {
        eprintln!("degraded: skipped {}: {err}", path.display());
    }
    match summary.resumed_at {
        Some(slice) => eprintln!(
            "resumed from slice {slice}, served {} slices, {} checkpoint(s)",
            summary.slices, summary.checkpoints_written
        ),
        None => eprintln!(
            "cold start, served {} slices, {} checkpoint(s)",
            summary.slices, summary.checkpoints_written
        ),
    }
    if let Some(slice) = summary.terminated_at {
        eprintln!("sigterm: stopped gracefully at slice {slice}, state checkpointed");
    }
    print!("{}", summary.report_text);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out_of_range<T: std::fmt::Debug>(r: Result<T, ServeError>, flag: &str) {
        match r {
            Err(ServeError::OutOfRange { flag: f, .. }) => assert_eq!(f, flag),
            other => panic!("{flag}: expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn rate_flag_rejects_out_of_domain_values() {
        assert_eq!(parse_prob("--rate", "0.3").unwrap(), 0.3);
        assert_eq!(parse_prob("--rate", "0").unwrap(), 0.0);
        assert_eq!(parse_prob("--rate", "1").unwrap(), 1.0);
        for bad in ["2.0", "-0.1", "NaN", "inf", "-inf"] {
            out_of_range(parse_prob("--rate", bad), "--rate");
        }
        assert!(matches!(
            parse_prob("--rate", "abc"),
            Err(ServeError::BadArgs(_))
        ));
    }

    #[test]
    fn fault_rate_flags_reject_out_of_domain_values() {
        for flag in ["--faults", "--fail-stop", "--fault-straggle"] {
            // The flag must be validated *before* FaultInjector::is_active
            // gating: a negative rate used to make the injector read
            // inactive and skip validation entirely.
            assert_eq!(parse_prob(flag, "0.01").unwrap(), 0.01);
            for bad in ["1.5", "-0.2", "NaN", "inf"] {
                out_of_range(parse_prob(flag, bad), flag);
            }
        }
    }

    #[test]
    fn cap_flag_rejects_non_positive_and_non_finite_values() {
        assert_eq!(parse_pos("--cap", "3.5").unwrap(), 3.5);
        for bad in ["0", "-2.5", "NaN", "inf", "-inf"] {
            out_of_range(parse_pos("--cap", bad), "--cap");
        }
    }

    #[test]
    fn fault_power_flag_rejects_negative_and_non_finite_values() {
        assert_eq!(parse_nonneg("--fault-power", "0").unwrap(), 0.0);
        assert_eq!(parse_nonneg("--fault-power", "0.2").unwrap(), 0.2);
        for bad in ["-0.1", "NaN", "inf"] {
            out_of_range(parse_nonneg("--fault-power", bad), "--fault-power");
        }
    }

    #[test]
    fn threads_flag_rejects_zero() {
        assert_eq!(parse_workers("--threads", "1").unwrap(), 1);
        assert_eq!(parse_workers("--threads", "8").unwrap(), 8);
        out_of_range(parse_workers("--threads", "0"), "--threads");
        let msg = parse_workers("--threads", "0").unwrap_err().to_string();
        assert!(msg.contains("a positive worker count"), "{msg}");
        assert!(matches!(
            parse_workers("--threads", "-1"),
            Err(ServeError::BadArgs(_))
        ));
    }

    #[test]
    fn throttle_flag_rejects_negative_values() {
        // `--throttle-us` is unsigned: a negative value fails integer
        // parsing with a typed BadArgs, never wrapping around.
        assert_eq!(parse_num::<u64>("--throttle-us", "250").unwrap(), 250);
        assert!(matches!(
            parse_num::<u64>("--throttle-us", "-5"),
            Err(ServeError::BadArgs(_))
        ));
    }

    #[test]
    fn out_of_range_errors_render_flag_value_and_domain() {
        let err = parse_prob("--rate", "2.5").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--rate"), "{msg}");
        assert!(msg.contains("2.5"), "{msg}");
        assert!(msg.contains("[0, 1]"), "{msg}");
    }
}
