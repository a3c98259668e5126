//! The four workloads. Each is a closed loop: accelerated replay with no
//! throttle, the next call starting when the previous one returns.

pub mod fleet;
pub mod grid;
pub mod serve;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// `n` seeded Bernoulli(`p`) draws per slice summed, for `slices` slices:
/// the aggregate arrival counts of `n` independent request sources.
#[must_use]
pub fn binomial_trace(n: u32, p: f64, slices: u64, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..slices)
        .map(|_| {
            (0..n)
                .filter(|_| qdpm_core::rng_util::uniform(&mut rng) < p)
                .count() as u32
        })
        .collect()
}
