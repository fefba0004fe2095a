//! Accuracy-bound contract of the opt-in approximate prediction path, on
//! the Table-1 FIR and IIR kernels.
//!
//! The approximate path (screened-neighbour solves, see
//! `HybridSettings::approx`) is validated by a leave-one-out check at the
//! variogram fit and at growth points and promises:
//!
//! * **off by default** — a default-settings session never screens;
//! * **within ε when active** — kriged values deviate from the exact
//!   session's by at most the declared relative bound;
//! * **rejected when violated** — an unattainable ε turns the
//!   approximation off and the session stays bitwise identical to the
//!   exact one;
//! * **backend-invariant** — inline and engine-backed sessions agree
//!   with approximation enabled too (same plan/commit code path).

use std::sync::Arc;

use krigeval_core::hybrid::ApproxSettings;
use krigeval_core::{
    AccuracyEvaluator, Config, EvalBackend, HybridEvaluator, HybridSettings, Outcome,
};
use krigeval_engine::suite::{build_seeded, Problem};
use krigeval_engine::{EngineBackend, Scale, SimCache};

fn fresh_evaluator(problem: Problem) -> Box<dyn AccuracyEvaluator + Send> {
    build_seeded(problem, Scale::Fast, 0).evaluator
}

/// Word-length grids over the problem's variable count: the even columns
/// seed the store (simulated), the odd columns are the kriging targets.
/// Both the stored sites (what the leave-one-out validation samples) and
/// the targets then have well over `screen_to` neighbours within the
/// default radius, so screening visibly engages *and* the validation
/// actually judges screened systems.
fn grids(problem: Problem) -> (Vec<Config>, Vec<Config>) {
    let nv = AccuracyEvaluator::num_variables(&fresh_evaluator(problem));
    // Full enumeration is exponential in nv; walk a 2-D slice for IIR's
    // 5-variable cube, pinning the remaining variables at 8.
    let mut warm = Vec::new();
    let mut targets = Vec::new();
    for a in 6..=12 {
        for b in 6..=12 {
            let mut config = vec![8; nv];
            config[0] = a;
            config[1] = b;
            if a % 2 == 0 {
                warm.push(config);
            } else {
                targets.push(config);
            }
        }
    }
    (warm, targets)
}

fn approx_settings(epsilon: f64) -> HybridSettings {
    HybridSettings {
        approx: Some(ApproxSettings {
            screen_to: 8,
            epsilon,
            loo_samples: 16,
            check_every: 8,
        }),
        ..HybridSettings::default()
    }
}

/// Seeds the store with the warm grid (forced simulations) and then
/// evaluates every target, returning the outcomes.
fn drive<E: EvalBackend>(
    hybrid: &mut HybridEvaluator<E>,
    warm: &[Config],
    targets: &[Config],
) -> Vec<Outcome> {
    for config in warm {
        hybrid.simulate_exact(config).expect("simulation succeeds");
    }
    targets
        .iter()
        .map(|c| hybrid.evaluate(c).expect("evaluation succeeds"))
        .collect()
}

#[test]
fn approx_is_off_by_default() {
    assert!(HybridSettings::default().approx.is_none());
    let (warm, targets) = grids(Problem::Fir);
    let mut hybrid = HybridEvaluator::new(fresh_evaluator(Problem::Fir), HybridSettings::default());
    drive(&mut hybrid, &warm, &targets);
    assert!(
        !hybrid.approx_active(),
        "a session without approx settings must never activate the approximation"
    );
}

#[test]
fn active_approximation_stays_within_its_declared_bound() {
    // A generous bound the screened FIR/IIR surfaces comfortably satisfy:
    // the validation must *accept*, and every kriged target must then
    // honour the same relative bound against the exact session.
    let epsilon = 0.5;
    for problem in [Problem::Fir, Problem::Iir] {
        let (warm, targets) = grids(problem);
        let mut exact = HybridEvaluator::new(fresh_evaluator(problem), HybridSettings::default());
        let exact_outcomes = drive(&mut exact, &warm, &targets);
        let mut approx = HybridEvaluator::new(fresh_evaluator(problem), approx_settings(epsilon));
        let approx_outcomes = drive(&mut approx, &warm, &targets);
        assert!(
            approx.approx_active(),
            "{problem:?}: leave-one-out validation should accept ε = {epsilon}"
        );
        let mut screened = 0usize;
        let mut kriged = 0usize;
        for (e, a) in exact_outcomes.iter().zip(&approx_outcomes) {
            let (
                Outcome::Kriged {
                    value: ev,
                    neighbors: en,
                    ..
                },
                Outcome::Kriged {
                    value: av,
                    neighbors: an,
                    ..
                },
            ) = (e, a)
            else {
                continue;
            };
            kriged += 1;
            assert!(an <= en, "screening can only shrink the system");
            if an < en {
                screened += 1;
            }
            let deviation = (av - ev).abs() / ev.abs().max(1.0);
            assert!(
                deviation <= epsilon,
                "{problem:?}: |{av} - {ev}| relative deviation {deviation} > ε {epsilon}"
            );
        }
        assert!(kriged > 0, "{problem:?}: the target grid must krige");
        assert!(
            screened > 0,
            "{problem:?}: no target exceeded screen_to — the test exercises nothing"
        );
    }
}

#[test]
fn unattainable_bound_is_rejected_and_falls_back_to_the_exact_path() {
    // ε = 1e-12 cannot hold for a screened solve on these surfaces: the
    // validation must reject, and the session must then be bitwise
    // identical to an exact one.
    for problem in [Problem::Fir, Problem::Iir] {
        let (warm, targets) = grids(problem);
        let mut exact = HybridEvaluator::new(fresh_evaluator(problem), HybridSettings::default());
        let exact_outcomes = drive(&mut exact, &warm, &targets);
        let mut rejected = HybridEvaluator::new(fresh_evaluator(problem), approx_settings(1e-12));
        let rejected_outcomes = drive(&mut rejected, &warm, &targets);
        assert!(
            !rejected.approx_active(),
            "{problem:?}: ε = 1e-12 must be rejected by the leave-one-out check"
        );
        assert_eq!(
            exact_outcomes, rejected_outcomes,
            "{problem:?}: a rejected approximation must leave the exact path untouched"
        );
    }
}

#[test]
fn approx_sessions_agree_between_inline_and_engine_backends() {
    for workers in [1usize, 2, 4] {
        let (warm, targets) = grids(Problem::Fir);
        let mut inline = HybridEvaluator::new(fresh_evaluator(Problem::Fir), approx_settings(0.5));
        let inline_outcomes = drive(&mut inline, &warm, &targets);
        let backend = EngineBackend::new(
            || fresh_evaluator(Problem::Fir),
            workers,
            Arc::new(SimCache::new()),
            "approx-parity",
        );
        let mut engine = HybridEvaluator::new(backend, approx_settings(0.5));
        let engine_outcomes = drive(&mut engine, &warm, &targets);
        assert_eq!(inline.approx_active(), engine.approx_active());
        assert_eq!(
            inline_outcomes, engine_outcomes,
            "approx-enabled sessions diverged at {workers} workers"
        );
    }
}
