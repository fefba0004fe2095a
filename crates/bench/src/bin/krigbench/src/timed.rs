//! Span-recording wrappers around the program's public layer traits.
//!
//! Each wrapper delegates every call unchanged and records one span
//! around it, so a stack rebuilt from these wrappers computes exactly
//! what the untimed stack computes (the traced pass asserts it).

use krigeval_core::opt::DseEvaluator;
use krigeval_core::trace::Source;
use krigeval_core::{AccuracyEvaluator, Config, EvalBackend, EvalError, SimulationRequest};

use crate::spans::{config_key, now_ns, record, Layer};

/// Times every simulator invocation (the innermost layer).
pub struct TimedSim<E> {
    inner: E,
    label: &'static str,
}

impl<E: AccuracyEvaluator> TimedSim<E> {
    /// Wraps a simulator; `label` names its benchmark in the spans.
    pub fn new(inner: E, label: &'static str) -> TimedSim<E> {
        TimedSim { inner, label }
    }
}

impl<E: AccuracyEvaluator> AccuracyEvaluator for TimedSim<E> {
    fn evaluate(&mut self, config: &Config) -> Result<f64, EvalError> {
        let start = now_ns();
        let value = self.inner.evaluate(config);
        record(Layer::Simulate, self.label, start, 1, Vec::new());
        value
    }

    fn num_variables(&self) -> usize {
        self.inner.num_variables()
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }
}

/// Times every fulfillment of a backend (worker pool or inline stack,
/// shared cache included), recording which configurations it requested.
pub struct TimedBackend(Box<dyn EvalBackend>);

impl TimedBackend {
    /// Wraps a backend.
    pub fn new(inner: Box<dyn EvalBackend>) -> TimedBackend {
        TimedBackend(inner)
    }
}

impl EvalBackend for TimedBackend {
    fn fulfill(&mut self, requests: &[SimulationRequest]) -> Result<Vec<f64>, EvalError> {
        let start = now_ns();
        let values = self.0.fulfill(requests);
        let keys = requests.iter().map(|r| config_key(&r.config)).collect();
        record(Layer::Fulfill, "", start, requests.len() as u32, keys);
        values
    }

    fn fulfill_one(&mut self, config: &Config) -> Result<f64, EvalError> {
        let start = now_ns();
        let value = self.0.fulfill_one(config);
        record(Layer::Fulfill, "", start, 1, vec![config_key(config)]);
        value
    }

    fn num_variables(&self) -> usize {
        self.0.num_variables()
    }

    fn evaluations(&self) -> u64 {
        self.0.evaluations()
    }
}

/// Times every call the optimizer makes into the hybrid evaluator,
/// recording which of the call's queries came back kriged.
pub struct TimedDse<D>(pub D);

fn kriged_keys<'a>(
    configs: impl Iterator<Item = &'a Config>,
    sources: impl Iterator<Item = Source>,
) -> Vec<u64> {
    configs
        .zip(sources)
        .filter(|(_, s)| *s == Source::Kriged)
        .map(|(c, _)| config_key(c))
        .collect()
}

impl<D: DseEvaluator> DseEvaluator for TimedDse<D> {
    fn query(&mut self, config: &Config) -> Result<(f64, Source), EvalError> {
        let start = now_ns();
        let answer = self.0.query(config);
        let keys = match &answer {
            Ok((_, source)) => kriged_keys(std::iter::once(config), std::iter::once(*source)),
            Err(_) => Vec::new(),
        };
        record(Layer::Hybrid, "", start, 1, keys);
        answer
    }

    fn query_exact(&mut self, config: &Config) -> Result<f64, EvalError> {
        let start = now_ns();
        let value = self.0.query_exact(config);
        record(Layer::Hybrid, "", start, 1, Vec::new());
        value
    }

    fn query_batch(&mut self, configs: &[Config]) -> Result<Vec<(f64, Source)>, EvalError> {
        let start = now_ns();
        let answers = self.0.query_batch(configs);
        let keys = match &answers {
            Ok(answers) => kriged_keys(configs.iter(), answers.iter().map(|a| a.1)),
            Err(_) => Vec::new(),
        };
        record(Layer::Hybrid, "", start, configs.len() as u32, keys);
        answers
    }

    fn num_variables(&self) -> usize {
        self.0.num_variables()
    }

    fn observe_iteration(&mut self, phase: &'static str, iteration: u64) {
        self.0.observe_iteration(phase, iteration);
    }
}
