//! Exact dynamic-programming solvers for [`Mdp`].
//!
//! These implement the "analytical techniques which assume model is
//! completely known in prior" against which the paper compares Q-DPM in
//! Fig. 1: discounted value iteration, Howard policy iteration (with exact
//! policy evaluation via LU), and relative value iteration for the
//! average-cost criterion. The LP formulation lives in [`crate::lp`].
//!
//! Policy iteration can start from any legal policy:
//! [`policy_iteration_from`] takes the start, and [`policy_iteration`]
//! starts from the myopic policy. A start close to the optimum, such as
//! the optimum of a model with a neighbouring arrival rate, needs fewer
//! evaluations; each evaluation refills one reused matrix buffer and
//! solves it with the zero-skipping LU of [`crate::linalg`]. The result
//! depends only on the policy PI stops at, because that policy's values
//! come from one exact evaluation.

use crate::linalg::Matrix;
use crate::{DeterministicPolicy, Mdp, MdpError};

/// Options shared by the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Discount factor in `(0, 1)`.
    pub discount: f64,
    /// Convergence tolerance on the value-update sup-norm (or span for the
    /// average-cost solver).
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            discount: 0.95,
            tol: 1e-9,
            max_iter: 100_000,
        }
    }
}

impl SolveOptions {
    /// Creates options with a validated discount factor.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::BadDiscount`] unless `0 < discount < 1`.
    pub fn with_discount(discount: f64) -> Result<Self, MdpError> {
        check_discount(discount)?;
        Ok(SolveOptions {
            discount,
            ..SolveOptions::default()
        })
    }
}

fn check_discount(discount: f64) -> Result<(), MdpError> {
    if !(discount.is_finite() && discount > 0.0 && discount < 1.0) {
        return Err(MdpError::BadDiscount(discount));
    }
    Ok(())
}

fn check_cost(mdp: &Mdp, cost: &[f64]) {
    assert_eq!(
        cost.len(),
        mdp.n_states() * mdp.n_actions(),
        "cost vector length must be n_states * n_actions"
    );
}

/// Result of a discounted solve: optimal values and a greedy optimal policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal discounted cost-to-go per state.
    pub values: Vec<f64>,
    /// A deterministic optimal policy.
    pub policy: DeterministicPolicy,
    /// Iterations used.
    pub iterations: usize,
    /// Final update residual (sup-norm).
    pub residual: f64,
}

/// Result of an average-cost solve.
#[derive(Debug, Clone, PartialEq)]
pub struct AverageSolution {
    /// Optimal long-run average cost per slice (gain).
    pub gain: f64,
    /// Relative value (bias) per state, normalized to 0 at state 0.
    pub bias: Vec<f64>,
    /// A deterministic optimal policy.
    pub policy: DeterministicPolicy,
    /// Iterations used.
    pub iterations: usize,
}

/// One Bellman backup `min_a [ c(s,a) + beta * sum P v ]` for every state.
/// Returns the new values and the per-state argmin.
fn bellman_backup(mdp: &Mdp, cost: &[f64], v: &[f64], discount: f64) -> (Vec<f64>, Vec<usize>) {
    let n_a = mdp.n_actions();
    let mut out = vec![f64::INFINITY; mdp.n_states()];
    let mut arg = vec![0usize; mdp.n_states()];
    for s in 0..mdp.n_states() {
        for a in mdp.legal_actions(s) {
            let mut q = cost[s * n_a + a];
            for &(next, p) in mdp.transition_row(s, a) {
                q += discount * p * v[next];
            }
            if q < out[s] {
                out[s] = q;
                arg[s] = a;
            }
        }
    }
    (out, arg)
}

/// The greedy policy with respect to a value function.
#[must_use]
pub fn greedy_policy(
    mdp: &Mdp,
    cost: &[f64],
    values: &[f64],
    discount: f64,
) -> DeterministicPolicy {
    check_cost(mdp, cost);
    let (_, arg) = bellman_backup(mdp, cost, values, discount);
    DeterministicPolicy::new(arg)
}

/// Discounted value iteration.
///
/// Iterates Bellman backups until the sup-norm update falls below
/// `opts.tol`, then extracts the greedy policy.
///
/// # Errors
///
/// Returns [`MdpError::BadDiscount`] for an invalid discount or
/// [`MdpError::NoConvergence`] when `opts.max_iter` is exhausted.
///
/// # Panics
///
/// Panics if `cost.len() != n_states * n_actions`.
pub fn value_iteration(mdp: &Mdp, cost: &[f64], opts: SolveOptions) -> Result<Solution, MdpError> {
    check_discount(opts.discount)?;
    check_cost(mdp, cost);
    let mut v = vec![0.0; mdp.n_states()];
    for it in 1..=opts.max_iter {
        let (next, arg) = bellman_backup(mdp, cost, &v, opts.discount);
        let residual = v
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        v = next;
        if residual < opts.tol {
            return Ok(Solution {
                values: v,
                policy: DeterministicPolicy::new(arg),
                iterations: it,
                residual,
            });
        }
    }
    Err(MdpError::NoConvergence {
        solver: "value iteration",
        iterations: opts.max_iter,
    })
}

/// Exact discounted evaluation of a deterministic policy:
/// solves `(I - beta * P_pi) v = c_pi`.
///
/// # Errors
///
/// Returns [`MdpError::BadDiscount`] or [`MdpError::SingularSystem`].
///
/// # Panics
///
/// Panics on dimension mismatches or an out-of-range policy action.
pub fn evaluate_policy_discounted(
    mdp: &Mdp,
    cost: &[f64],
    policy: &DeterministicPolicy,
    discount: f64,
) -> Result<Vec<f64>, MdpError> {
    check_discount(discount)?;
    check_cost(mdp, cost);
    assert_eq!(policy.n_states(), mdp.n_states(), "policy size mismatch");
    let n = mdp.n_states();
    let mut values = vec![0.0; n];
    solve_policy_system(
        mdp,
        cost,
        policy,
        discount,
        &mut Matrix::zeros(n, n),
        &mut values,
    )?;
    Ok(values)
}

/// Fills `system` with `I - beta * P_pi` and `values` with `c_pi`, then
/// solves in place, leaving the policy's values in `values`.
fn solve_policy_system(
    mdp: &Mdp,
    cost: &[f64],
    policy: &DeterministicPolicy,
    discount: f64,
    system: &mut Matrix,
    values: &mut [f64],
) -> Result<(), MdpError> {
    system.set_identity();
    for (s, b) in values.iter_mut().enumerate() {
        let act = policy.action(s);
        assert!(
            mdp.is_legal(s, act),
            "policy picks illegal action {act} in state {s}"
        );
        *b = cost[s * mdp.n_actions() + act];
        for &(next, p) in mdp.transition_row(s, act) {
            system[(s, next)] -= discount * p;
        }
    }
    system.solve_in_place(values)
}

/// Exact discounted evaluation of a *stochastic* policy: solves
/// `(I - beta * P_pi) v = c_pi` with the action-mixed transition kernel
/// and costs. Needed to audit the randomized policies the constrained LP
/// produces.
///
/// # Errors
///
/// Returns [`MdpError::BadDiscount`] or [`MdpError::SingularSystem`].
///
/// # Panics
///
/// Panics on dimension mismatches (states or actions) or when the policy
/// puts probability on an illegal action.
pub fn evaluate_stochastic_discounted(
    mdp: &Mdp,
    cost: &[f64],
    policy: &crate::StochasticPolicy,
    discount: f64,
) -> Result<Vec<f64>, MdpError> {
    check_discount(discount)?;
    check_cost(mdp, cost);
    assert_eq!(policy.n_states(), mdp.n_states(), "policy size mismatch");
    assert_eq!(
        policy.n_actions(),
        mdp.n_actions(),
        "stochastic policy covers a different number of actions than the mdp"
    );
    let n = mdp.n_states();
    let n_a = mdp.n_actions();
    let mut a = Matrix::identity(n);
    let mut b = vec![0.0; n];
    for s in 0..n {
        for act in 0..n_a {
            let p_a = policy.prob(s, act);
            if p_a <= 1e-15 {
                continue;
            }
            assert!(
                mdp.is_legal(s, act),
                "stochastic policy puts mass {p_a} on illegal action {act} in state {s}"
            );
            b[s] += p_a * cost[s * n_a + act];
            for &(next, p) in mdp.transition_row(s, act) {
                a[(s, next)] -= discount * p_a * p;
            }
        }
    }
    a.solve(&b)
}

/// Howard policy iteration from the myopic policy (the cheapest
/// immediate cost in every state); see [`policy_iteration_from`].
///
/// # Errors
///
/// Returns [`MdpError::BadDiscount`], [`MdpError::SingularSystem`], or
/// [`MdpError::NoConvergence`] (iteration cap `10_000`).
///
/// # Panics
///
/// Panics if `cost.len() != n_states * n_actions`.
pub fn policy_iteration(mdp: &Mdp, cost: &[f64], discount: f64) -> Result<Solution, MdpError> {
    check_discount(discount)?;
    check_cost(mdp, cost);
    let n_a = mdp.n_actions();
    let myopic = DeterministicPolicy::new(
        (0..mdp.n_states())
            .map(|s| {
                mdp.legal_actions(s)
                    .min_by(|&x, &y| cost[s * n_a + x].total_cmp(&cost[s * n_a + y]))
                    .expect("validated mdp has a legal action")
            })
            .collect(),
    );
    policy_iteration_from(mdp, cost, discount, &myopic)
}

/// Howard policy iteration from `start`: exact evaluation + greedy
/// improvement until the greedy policy of the current values is the
/// current policy.
///
/// Terminates in finitely many steps for discounted problems; typically a
/// handful of iterations even for hundreds of states, and fewer when
/// `start` is near the optimum. All evaluations share one matrix buffer.
///
/// # Errors
///
/// Returns [`MdpError::BadDiscount`], [`MdpError::SingularSystem`], or
/// [`MdpError::NoConvergence`] (iteration cap `10_000`).
///
/// # Panics
///
/// Panics if `cost.len() != n_states * n_actions`, if `start` covers a
/// different number of states, or if it picks an illegal action.
pub fn policy_iteration_from(
    mdp: &Mdp,
    cost: &[f64],
    discount: f64,
    start: &DeterministicPolicy,
) -> Result<Solution, MdpError> {
    check_discount(discount)?;
    check_cost(mdp, cost);
    assert_eq!(start.n_states(), mdp.n_states(), "policy size mismatch");
    let n = mdp.n_states();
    let mut system = Matrix::zeros(n, n);
    let mut policy = start.clone();
    for it in 1..=10_000 {
        let mut values = vec![0.0; n];
        solve_policy_system(mdp, cost, &policy, discount, &mut system, &mut values)?;
        let improved = greedy_policy(mdp, cost, &values, discount);
        if improved == policy {
            return Ok(Solution {
                values,
                policy,
                iterations: it,
                residual: 0.0,
            });
        }
        policy = improved;
    }
    Err(MdpError::NoConvergence {
        solver: "policy iteration",
        iterations: 10_000,
    })
}

/// Relative value iteration for the long-run average-cost criterion.
///
/// Applies the aperiodicity transformation `P_tau = tau*I + (1-tau)*P`
/// (which preserves every policy's gain and the optimal policy) so the
/// iteration converges on periodic chains, and stops when the span of the
/// update falls below `tol`.
///
/// # Errors
///
/// Returns [`MdpError::NoConvergence`] when `max_iter` is exhausted.
///
/// # Panics
///
/// Panics if `cost.len() != n_states * n_actions`.
pub fn relative_value_iteration(
    mdp: &Mdp,
    cost: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<AverageSolution, MdpError> {
    check_cost(mdp, cost);
    let tau = 0.5;
    let n = mdp.n_states();
    let n_a = mdp.n_actions();
    let mut h = vec![0.0; n];
    let mut arg = vec![0usize; n];
    for it in 1..=max_iter {
        let mut th = vec![f64::INFINITY; n];
        for s in 0..n {
            for a in mdp.legal_actions(s) {
                let mut q = cost[s * n_a + a] + tau * h[s];
                for &(next, p) in mdp.transition_row(s, a) {
                    q += (1.0 - tau) * p * h[next];
                }
                if q < th[s] {
                    th[s] = q;
                    arg[s] = a;
                }
            }
        }
        // Span of the update decides convergence.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in 0..n {
            let d = th[s] - h[s];
            lo = lo.min(d);
            hi = hi.max(d);
        }
        let gain = th[0] - h[0];
        let anchor = th[0];
        for (hs, ts) in h.iter_mut().zip(&th) {
            *hs = ts - anchor;
        }
        if hi - lo < tol {
            return Ok(AverageSolution {
                gain,
                bias: h,
                policy: DeterministicPolicy::new(arg),
                iterations: it,
            });
        }
    }
    Err(MdpError::NoConvergence {
        solver: "relative value iteration",
        iterations: max_iter,
    })
}

/// Exact average-cost evaluation of a deterministic policy on a unichain
/// model: solves `g + h(s) - sum P h = c(s)` with `h(0) = 0`, returning
/// `(gain, bias)`.
///
/// # Errors
///
/// Returns [`MdpError::SingularSystem`] when the policy's chain is not
/// unichain (the system is then singular).
///
/// # Panics
///
/// Panics on dimension mismatches or an out-of-range policy action.
pub fn evaluate_policy_average(
    mdp: &Mdp,
    cost: &[f64],
    policy: &DeterministicPolicy,
) -> Result<(f64, Vec<f64>), MdpError> {
    check_cost(mdp, cost);
    assert_eq!(policy.n_states(), mdp.n_states(), "policy size mismatch");
    let n = mdp.n_states();
    // Unknowns: [g, h(1), ..., h(n-1)], with h(0) fixed to 0.
    let mut a = Matrix::zeros(n, n);
    let mut b = vec![0.0; n];
    for s in 0..n {
        let act = policy.action(s);
        assert!(
            mdp.is_legal(s, act),
            "policy picks illegal action {act} in state {s}"
        );
        a[(s, 0)] = 1.0; // coefficient of g
        if s != 0 {
            a[(s, s)] += 1.0; // h(s)
        }
        for &(next, p) in mdp.transition_row(s, act) {
            if next != 0 {
                a[(s, next)] -= p;
            }
        }
        b[s] = cost[s * mdp.n_actions() + act];
    }
    let x = a.solve(&b)?;
    let gain = x[0];
    let mut bias = vec![0.0; n];
    bias[1..n].copy_from_slice(&x[1..n]);
    Ok((gain, bias))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostWeights;

    /// State 0: stay for 1/slice, or pay 5 to reach state 1 where staying is
    /// free. With beta = 0.9: V(1) = 0, V(0) = min(1/(1-0.9), 5) = 5.
    fn toy() -> Mdp {
        let mut b = Mdp::builder(2, 2).unwrap();
        b.set_action(0, 0, vec![(0, 1.0)], 1.0, 0.0);
        b.set_action(0, 1, vec![(1, 1.0)], 5.0, 0.0);
        b.set_action(1, 0, vec![(1, 1.0)], 0.0, 0.0);
        b.set_action(1, 1, vec![(0, 1.0)], 2.0, 0.0);
        b.build().unwrap()
    }

    fn toy_cost(m: &Mdp) -> Vec<f64> {
        m.combined_cost(CostWeights::new(1.0, 0.0).unwrap())
    }

    #[test]
    fn value_iteration_hand_solution() {
        let m = toy();
        let sol =
            value_iteration(&m, &toy_cost(&m), SolveOptions::with_discount(0.9).unwrap()).unwrap();
        assert!(
            (sol.values[0] - 5.0).abs() < 1e-6,
            "V(0) = {}",
            sol.values[0]
        );
        assert!(sol.values[1].abs() < 1e-6);
        assert_eq!(sol.policy.action(0), 1);
        assert_eq!(sol.policy.action(1), 0);
    }

    #[test]
    fn policy_iteration_matches_value_iteration() {
        let m = toy();
        let cost = toy_cost(&m);
        let vi = value_iteration(&m, &cost, SolveOptions::with_discount(0.9).unwrap()).unwrap();
        let pi = policy_iteration(&m, &cost, 0.9).unwrap();
        assert_eq!(pi.policy, vi.policy);
        for (a, b) in pi.values.iter().zip(&vi.values) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!(pi.iterations <= 5, "pi took {} iterations", pi.iterations);
    }

    #[test]
    fn policy_iteration_from_any_start_reaches_the_cold_optimum() {
        // Every action is legal in a sampled MDP.
        let m = crate::sample::random_mdp(12, 3, 4, 7).unwrap();
        let cost = m.combined_cost(CostWeights::default());
        let cold = policy_iteration(&m, &cost, 0.9).unwrap();
        for a in 0..3 {
            let start = DeterministicPolicy::new(vec![a; 12]);
            let warm = policy_iteration_from(&m, &cost, 0.9, &start).unwrap();
            assert_eq!(warm.policy, cold.policy);
            assert_eq!(warm.values, cold.values);
        }
        let at_optimum = policy_iteration_from(&m, &cost, 0.9, &cold.policy).unwrap();
        assert_eq!(at_optimum.iterations, 1);
        assert_eq!(
            at_optimum,
            Solution {
                iterations: 1,
                ..cold
            }
        );
    }

    #[test]
    #[should_panic(expected = "policy picks illegal action")]
    fn policy_iteration_from_rejects_an_illegal_start() {
        let mut b = Mdp::builder(2, 2).unwrap();
        b.set_action(0, 0, vec![(0, 1.0)], 1.0, 0.0);
        b.set_action(0, 1, vec![(1, 1.0)], 5.0, 0.0);
        b.set_action(1, 0, vec![(1, 1.0)], 0.0, 0.0);
        let m = b.build().unwrap();
        let cost = toy_cost(&m);
        let _ = policy_iteration_from(&m, &cost, 0.9, &DeterministicPolicy::new(vec![0, 1]));
    }

    #[test]
    fn cheap_switch_changes_optimum() {
        // If switching costs 0.5 instead of 5, still optimal; if staying in
        // state 0 were free, staying would win.
        let mut b = Mdp::builder(2, 2).unwrap();
        b.set_action(0, 0, vec![(0, 1.0)], 0.0, 0.0);
        b.set_action(0, 1, vec![(1, 1.0)], 0.5, 0.0);
        b.set_action(1, 0, vec![(1, 1.0)], 0.4, 0.0);
        b.set_action(1, 1, vec![(0, 1.0)], 0.5, 0.0);
        let m = b.build().unwrap();
        let cost = toy_cost(&m);
        let sol = policy_iteration(&m, &cost, 0.9).unwrap();
        assert_eq!(sol.policy.action(0), 0, "staying free should win");
    }

    #[test]
    fn evaluation_is_bellman_fixed_point() {
        let m = toy();
        let cost = toy_cost(&m);
        let policy = DeterministicPolicy::new(vec![1, 0]);
        let v = evaluate_policy_discounted(&m, &cost, &policy, 0.9).unwrap();
        // v must satisfy v = c_pi + beta P_pi v exactly.
        for s in 0..2 {
            let a = policy.action(s);
            let mut rhs = cost[s * 2 + a];
            for &(next, p) in m.transition_row(s, a) {
                rhs += 0.9 * p * v[next];
            }
            assert!((v[s] - rhs).abs() < 1e-9);
        }
    }

    #[test]
    fn bad_discount_rejected() {
        let m = toy();
        let cost = toy_cost(&m);
        assert!(matches!(
            value_iteration(
                &m,
                &cost,
                SolveOptions {
                    discount: 1.0,
                    ..Default::default()
                }
            ),
            Err(MdpError::BadDiscount(_))
        ));
        assert!(matches!(
            policy_iteration(&m, &cost, 0.0),
            Err(MdpError::BadDiscount(_))
        ));
        assert!(SolveOptions::with_discount(1.5).is_err());
    }

    #[test]
    fn average_cost_solver_prefers_free_state() {
        let m = toy();
        let cost = toy_cost(&m);
        let sol = relative_value_iteration(&m, &cost, 1e-10, 100_000).unwrap();
        // Optimal average cost: pay 5 once (transient), then 0 forever.
        assert!(sol.gain.abs() < 1e-7, "gain {}", sol.gain);
        assert_eq!(sol.policy.action(1), 0);
    }

    #[test]
    fn average_evaluation_on_cycle() {
        // Deterministic 2-cycle paying 2 and 0 alternately: gain 1.
        let mut b = Mdp::builder(2, 1).unwrap();
        b.set_action(0, 0, vec![(1, 1.0)], 2.0, 0.0);
        b.set_action(1, 0, vec![(0, 1.0)], 0.0, 0.0);
        let m = b.build().unwrap();
        let cost = toy_cost(&m);
        let (gain, bias) =
            evaluate_policy_average(&m, &cost, &DeterministicPolicy::new(vec![0, 0])).unwrap();
        assert!((gain - 1.0).abs() < 1e-9);
        assert_eq!(bias[0], 0.0);
    }

    #[test]
    fn rvi_matches_average_evaluation_of_its_policy() {
        let m = toy();
        let cost = toy_cost(&m);
        let sol = relative_value_iteration(&m, &cost, 1e-10, 100_000).unwrap();
        let (gain, _) = evaluate_policy_average(&m, &cost, &sol.policy).unwrap();
        assert!((gain - sol.gain).abs() < 1e-6);
    }

    #[test]
    fn greedy_of_optimal_values_is_optimal() {
        let m = toy();
        let cost = toy_cost(&m);
        let sol = value_iteration(&m, &cost, SolveOptions::with_discount(0.9).unwrap()).unwrap();
        let greedy = greedy_policy(&m, &cost, &sol.values, 0.9);
        assert_eq!(greedy, sol.policy);
    }
}
