//! Host-speed calibration. On a shared host the CPU time a fixed piece
//! of work takes drifts by a quarter or more over tens of seconds, as
//! other tenants load the cores and caches; process CPU time cannot see
//! that. A fixed reference kernel, owned by the benchmark and never by
//! the code under test, is timed right after every workload call on the
//! call's own thread count, and the call's CPU time is converted into
//! reference seconds: the CPU time the host needed, at that moment, for
//! [`REF_SLICES_PER_S`] slices of the kernel.
//!
//! The kernel is a toy of the program's hot loop, so it meets the same
//! contention: one Bernoulli queue in front of a three-state device, an
//! epsilon-greedy Q-table choice through a trait object, and an f64
//! Q-learning update per slice.

use crate::host::Stopwatch;

/// Kernel slices in one reference second.
pub const REF_SLICES_PER_S: f64 = 5.0e7;

/// Kernel slices each calibrating thread runs.
const SLICES_PER_THREAD: u64 = 1_500_000;

const QUEUE_CAP: usize = 8;
const POWER_STATES: usize = 3;
const ACTIONS: usize = 4;

trait Policy {
    fn choose(&self, q: &[f64], draw: u64) -> usize;
}

struct EpsilonGreedy;

impl Policy for EpsilonGreedy {
    fn choose(&self, q: &[f64], draw: u64) -> usize {
        if draw.is_multiple_of(50) {
            return (draw >> 8) as usize % q.len();
        }
        let mut best = 0;
        for a in 1..q.len() {
            if q[a] > q[best] {
                best = a;
            }
        }
        best
    }
}

/// Runs the kernel for `slices` slices from `seed`; the result only
/// keeps the work from being optimised away.
fn kernel(seed: u64, slices: u64) -> u64 {
    let policy: Box<dyn Policy> = Box::new(EpsilonGreedy);
    let mut q = vec![0.0f64; (QUEUE_CAP + 1) * POWER_STATES * ACTIONS];
    let mut x = seed | 1;
    let (mut queue, mut power, mut energy) = (0usize, 0usize, 0.0f64);
    for _ in 0..slices {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        if u < 0.3 && queue < QUEUE_CAP {
            queue += 1;
        }
        let s = (queue * POWER_STATES + power) * ACTIONS;
        let a = policy.choose(&q[s..s + ACTIONS], x >> 3);
        power = a % POWER_STATES;
        if power == 0 && queue > 0 {
            queue -= 1;
        }
        let cost = [1.0, 0.4, 0.1][power] + queue as f64 * 0.05;
        energy += cost;
        let next_s = (queue * POWER_STATES + power) * ACTIONS;
        let next = q[next_s..next_s + ACTIONS]
            .iter()
            .copied()
            .fold(f64::MIN, f64::max);
        q[s + a] += 0.1 * (-cost + 0.95 * next - q[s + a]);
    }
    x ^ energy.to_bits()
}

/// Runs the kernel on `threads` threads at once and returns the process
/// CPU time it took, in s.
fn kernel_cpu_s(threads: usize) -> f64 {
    let watch = Stopwatch::start();
    let out = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1) as u64)
            .map(|t| scope.spawn(move || kernel(t + 1, SLICES_PER_THREAD)))
            .collect();
        workers
            .into_iter()
            .fold(0, |acc, w| acc ^ w.join().expect("calibration thread"))
    });
    std::hint::black_box(out);
    watch.cpu_s()
}

/// Reference seconds per CPU second on this host right now, measured
/// with `threads` threads busy: multiply a CPU time by it to get
/// reference seconds.
#[must_use]
pub fn ref_s_per_cpu_s(threads: usize) -> f64 {
    let slices = SLICES_PER_THREAD * threads.max(1) as u64;
    slices as f64 / REF_SLICES_PER_S / kernel_cpu_s(threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_seeded() {
        assert_eq!(kernel(1, 10_000), kernel(1, 10_000));
        assert_ne!(kernel(1, 10_000), kernel(2, 10_000));
    }

    #[test]
    fn reference_scale_is_positive_and_finite() {
        for threads in [1, 2] {
            let scale = ref_s_per_cpu_s(threads);
            assert!(scale.is_finite() && scale > 0.0, "{threads}: {scale}");
        }
    }
}
