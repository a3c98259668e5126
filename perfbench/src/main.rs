//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Generates the workload's inputs from the seed, runs one untimed
//! warm-up call, then repeats the call for `--seconds` and checks the
//! outputs. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced calls and prints the
//! per-layer metrics. The last line of standard output is the result as
//! one JSON object.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qdpm_perfbench::metrics::{result_line, LayerReport, END_TO_END};
use qdpm_perfbench::stats::{median, quartiles};
use qdpm_perfbench::{build, calib, host, Outcome, Workload, WORKLOADS};

/// Fewest timed calls a run makes, however long each takes.
const MIN_CALLS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    if args.len() != 8 {
        return Err(
            "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>".to_string(),
        );
    }
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

/// Counts calls and calls whose simulated outputs differ from the
/// reference call's.
struct Tally {
    reference: Outcome,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, outcome: Result<Outcome, String>, what: &str) -> Option<Outcome> {
        self.attempted += 1;
        match outcome {
            Ok(o) if o.exact == self.reference.exact => Some(o),
            Ok(_) => {
                self.failed += 1;
                println!(
                    "FAILED: {what} call's simulated statistics differ from the reference call's"
                );
                None
            }
            Err(e) => {
                self.failed += 1;
                println!("FAILED: {what} call: {e}");
                None
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let work = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("creating {}: {e}", work.0.display()))?;
    let mut workload = build(&args.workload, args.seed, work.0.clone())?;
    println!(
        "workload {} seed {}: {}",
        args.workload,
        args.seed,
        workload.shape()
    );
    println!("host: {}", host::fingerprint());

    let reference = workload.run()?;
    // Peak memory of one call in a fresh process: later calls only repeat
    // it, and would add the allocator's history to the reading.
    let peak_kib = host::peak_rss_kib().ok_or("no VmHWM in /proc/self/status")?;
    let mut tally = Tally {
        reference,
        attempted: 1,
        failed: 0,
    };
    let window = Duration::from_secs(args.seconds);
    let (metrics, table) = if args.trace {
        traced(workload.as_mut(), &mut tally, window)?
    } else {
        untraced(workload.as_mut(), &mut tally, window, peak_kib)?
    };

    let checks = workload.check(&tally.reference);
    let checks_ok = match &checks {
        Ok(passed) => {
            for c in passed {
                println!("check passed: {c}");
            }
            true
        }
        Err(e) => {
            println!("FAILED check: {e}");
            false
        }
    };
    print!("{table}");
    let correct = checks_ok && tally.failed == 0;
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)?
    );
    Ok(correct)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn untraced(
    w: &mut dyn Workload,
    tally: &mut Tally,
    window: Duration,
    peak_kib: u64,
) -> Result<(Metrics, String), String> {
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut cpu_rates = Vec::new();
    let mut wall_rates = Vec::new();
    let mut scales = Vec::new();
    let mut setups = Vec::new();
    let mut before = calib::ref_s_per_cpu_s(w.threads());
    while started.elapsed() < window || rates.len() < MIN_CALLS {
        let Some(o) = tally.record(w.run(), "timed") else {
            break;
        };
        // The host's speed just before and just after the call converts
        // its CPU time into reference seconds.
        let after = calib::ref_s_per_cpu_s(w.threads());
        let scale = (before + after) / 2.0;
        before = after;
        rates.push(o.device_slices as f64 / (o.cpu_s * scale));
        cpu_rates.push(o.device_slices as f64 / o.cpu_s);
        wall_rates.push(o.device_slices as f64 / o.wall_s);
        scales.push(scale);
        setups.extend(o.setup_s);
    }
    if rates.is_empty() {
        return Err("no timed call completed".to_string());
    }
    if let Some(setup) = w.setup_alone()? {
        setups = vec![setup];
    }
    let sim = tally.reference.sim;
    let values = [
        median(&rates),
        median(&setups),
        peak_kib as f64 / 1024.0,
        sim.energy_per_device_slice(),
        sim.mean_wait(),
    ];
    let metrics: Metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    let (q1, q3) = quartiles(&rates);
    let (c1, c3) = quartiles(&cpu_rates);
    let (w1, w3) = quartiles(&wall_rates);
    let (s1, s3) = quartiles(&scales);
    let mut table = format!(
        "{} timed calls; device-slices per reference s quartiles {q1:.0} .. {q3:.0}; \
         per CPU s median {:.0}, quartiles {c1:.0} .. {c3:.0}; \
         per wall s median {:.0}, quartiles {w1:.0} .. {w3:.0}; \
         reference s per CPU s on {} thread(s) median {:.4}, quartiles {s1:.4} .. {s3:.4}\n",
        rates.len(),
        median(&cpu_rates),
        median(&wall_rates),
        w.threads(),
        median(&scales),
    );
    for &(name, value, unit) in &metrics {
        table.push_str(&format!("  {name:<26} {value:>18.6} {unit}\n"));
    }
    // Simulated shares that can be 0, so they are reported here and in the
    // traced run rather than as end-to-end metrics.
    table.push_str(&format!(
        "  {:<26} {:>18.6} fraction\n",
        "failed_share",
        sim.failed_share()
    ));
    match sim.deadline {
        Some(_) => table.push_str(&format!(
            "  {:<26} {:>18.6} fraction\n",
            "deadline_miss_share",
            sim.deadline_miss_share()
        )),
        None => table.push_str(&format!(
            "  {:<26} {:>18} (no deadlines)\n",
            "deadline_miss_share", "n/a"
        )),
    }
    Ok((metrics, table))
}

/// Median duration an empty span reads on this host: what one timed
/// call adds to the time it reports (a clock read on each side).
fn timer_ns() -> f64 {
    let samples: Vec<f64> = (0..100_001)
        .map(|_| Instant::now().elapsed().as_nanos() as f64)
        .collect();
    median(&samples)
}

fn traced(
    w: &mut dyn Workload,
    tally: &mut Tally,
    window: Duration,
) -> Result<(Metrics, String), String> {
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut first: Option<LayerReport> = None;
    while started.elapsed() < window || traced.len() < MIN_CALLS {
        let Some(o) = tally.record(w.run(), "untraced") else {
            break;
        };
        plain.push(o.cpu_s);
        tally.attempted += 1;
        match w.run_traced() {
            Ok((o, layers)) if o.exact == tally.reference.exact => {
                traced.push(o.cpu_s);
                first.get_or_insert(layers);
            }
            Ok(_) => {
                tally.failed += 1;
                println!(
                    "FAILED: traced call's simulated statistics differ from the untraced call's"
                );
                break;
            }
            Err(e) => {
                tally.failed += 1;
                println!("FAILED: traced call: {e}");
                break;
            }
        }
    }
    let mut layers = first.ok_or("no traced call completed")?;
    let overhead = median(&traced) / median(&plain) - 1.0;
    layers.set("trace.overhead_share", overhead);
    layers.set("trace.timer_ns", timer_ns());
    let table = format!(
        "{} untraced / {} traced calls, median CPU {:.6} s / {:.6} s, tracing overhead {:.2}%\n{}",
        plain.len(),
        traced.len(),
        median(&plain),
        median(&traced),
        overhead * 100.0,
        layers.table()
    );
    Ok((layers.all(), table))
}
