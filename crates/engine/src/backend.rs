//! The engine-backed fulfillment backend: planned simulation batches fan
//! out over a persistent worker pool.
//!
//! [`EngineBackend`] implements [`krigeval_core::EvalBackend`] on top of
//! the engine's existing machinery: one private evaluator per worker
//! (the runner's are handles on the run's one benchmark instance), the
//! shared in-flight-deduplicating [`SimCache`], and the run's
//! content-addressed [`FaultStream`]. Every campaign run fulfills through
//! it, at every thread count, and so does every server session. A
//! backend of one worker spawns no thread and simulates on the caller. A
//! backend of `n` workers spawns `n − 1` threads **once** at construction
//! and parks them on a condition variable between batches; optimizer scan
//! batches are narrow (one candidate per variable), so per-batch thread
//! spawns would cost as much as the simulations they fan out. The `n`-th
//! worker is the fulfilling thread itself: it pops and simulates jobs
//! from the same queue until the queue is empty, then collects what the
//! spawned threads finished, so it neither idles nor wakes once per job
//! while the batch runs.
//!
//! # Determinism
//!
//! The backend honours the [`EvalBackend`] contract: values are returned
//! in request order, and a failed batch reports the failure of the
//! lowest-indexed failing request regardless of which worker observed it
//! first — including injected panics, which each worker (the fulfilling
//! thread included) catches per job and the fulfilling thread re-raises
//! with the original payload, exactly as a one-worker backend panics in
//! the caller at that request. Because
//! each request's value is a pure function of its configuration
//! (fixed-seed simulators), each request's injected *fate* is a pure
//! function of its configuration too (the content-addressed
//! [`FaultStream`], fired **before** the cache so a scheduling accident —
//! whose lookup happens to hit — can never skip a draw), and the cache
//! only memoizes values the simulators would produce anyway, results are
//! bitwise identical across worker counts — the backend-parity and chaos
//! suites pin this for all four optimizers and for active fault
//! injection.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use krigeval_core::{AccuracyEvaluator, Config, EvalBackend, EvalError, SimulationRequest};

use crate::cache::SimCache;
use crate::fault::FaultStream;
use crate::obs::BackendObs;

/// What running one job gives: the index, and either the computed result
/// or the payload of a caught panic (re-raised by the fulfilling thread
/// if its index turns out to be the batch's lowest-indexed failure).
type JobOutcome = (usize, std::thread::Result<Result<f64, EvalError>>);

/// One unit of pool work: simulate `config`, report under `index`.
struct Job {
    index: usize,
    config: Config,
    /// Enqueue instant, carried only when the attached [`BackendObs`]
    /// records timing (queue-wait histogram).
    enqueued: Option<Instant>,
}

/// State shared between the backend and its worker threads.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    cache: Arc<SimCache>,
    namespace: String,
    /// Underlying simulator invocations across every thread's evaluator,
    /// the fulfilling thread's included (cache hits do not count).
    evaluations: AtomicU64,
    /// Optional metric bundle (`backend_*`), set once via
    /// [`EngineBackend::with_obs`] before the first batch.
    obs: OnceLock<BackendObs>,
    /// Optional content-addressed fault stream, set once via
    /// [`EngineBackend::with_faults`] before the first batch. Fired at
    /// the top of [`PoolShared::compute`], before the cache lookup, so
    /// each configuration draws its fate whether or not the cache holds
    /// its value.
    fault: OnceLock<FaultStream>,
}

impl PoolShared {
    /// Computes one configuration through the shared cache.
    fn compute(
        &self,
        evaluator: &mut (dyn AccuracyEvaluator + Send),
        config: &Config,
    ) -> Result<f64, EvalError> {
        // Content-addressed injection gate: the fate of `config` is drawn
        // here, before the cache can answer. A retry is the campaign
        // executor's, which re-keys the stream with its attempt counter.
        if let Some(fault) = self.fault.get() {
            fault.fire(config)?;
        }
        let (value, cached) = self.cache.get_or_compute(&self.namespace, config, || {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            let obs = self.obs.get();
            if let Some(obs) = obs {
                obs.evaluations.inc();
            }
            match obs.and_then(|o| o.simulate_us.as_ref()) {
                Some(simulate_us) => {
                    let start = Instant::now();
                    let value = evaluator.evaluate(config);
                    simulate_us.record(start.elapsed().as_secs_f64() * 1e6);
                    value
                }
                None => evaluator.evaluate(config),
            }
        })?;
        // The hit *total* is deterministic across worker counts (hits =
        // lookups − distinct: waiters on an in-flight computation count as
        // hits).
        if cached {
            if let Some(obs) = self.obs.get() {
                obs.cache_hits.inc();
            }
        }
        Ok(value)
    }

    /// Runs one dequeued job on `evaluator`. Panics (injected or organic)
    /// stay contained to the job that raised them: the thread survives,
    /// and the payload is re-raised by the fulfilling thread with its
    /// original message if this index is the batch's lowest-indexed
    /// failure — exactly where a one-worker backend would have panicked.
    fn run(&self, evaluator: &mut (dyn AccuracyEvaluator + Send), job: &Job) -> JobOutcome {
        if let (Some(enqueued), Some(obs)) = (job.enqueued, self.obs.get()) {
            obs.queue_wait_us
                .record(enqueued.elapsed().as_secs_f64() * 1e6);
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.compute(evaluator, &job.config)
        }));
        (job.index, result)
    }
}

fn worker_loop(
    shared: &PoolShared,
    mut evaluator: Box<dyn AccuracyEvaluator + Send>,
    results: &Sender<JobOutcome>,
) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        if results.send(shared.run(&mut *evaluator, &job)).is_err() {
            return; // backend dropped mid-batch
        }
    }
}

/// A parallel [`EvalBackend`] over a persistent worker pool and the
/// engine's shared simulation cache. See the module docs for the
/// determinism contract.
pub struct EngineBackend {
    shared: Arc<PoolShared>,
    /// The fulfilling thread's evaluator: it runs single-request batches,
    /// `fulfill_one`, every batch when `workers <= 1`, and its share of
    /// the queue's jobs otherwise.
    local: Box<dyn AccuracyEvaluator + Send>,
    results: Receiver<JobOutcome>,
    handles: Vec<JoinHandle<()>>,
    num_variables: usize,
    workers: usize,
}

impl std::fmt::Debug for EngineBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBackend")
            .field("workers", &self.workers)
            .field("namespace", &self.shared.namespace)
            .field("num_variables", &self.num_variables)
            .finish_non_exhaustive()
    }
}

impl EngineBackend {
    /// Builds a backend of `workers` simulating threads sharing `cache`
    /// under `namespace`: the thread that calls
    /// [`fulfill`](EvalBackend::fulfill) and `workers − 1` spawned ones,
    /// each with its own evaluator (the factory runs `workers` times up
    /// front). `workers` is clamped to at least 1; the threads are spawned
    /// here and live until the backend is dropped.
    pub fn new(
        factory: impl Fn() -> Box<dyn AccuracyEvaluator + Send>,
        workers: usize,
        cache: Arc<SimCache>,
        namespace: impl Into<String>,
    ) -> EngineBackend {
        let workers = workers.max(1);
        let local = factory();
        let num_variables = AccuracyEvaluator::num_variables(&local);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache,
            namespace: namespace.into(),
            evaluations: AtomicU64::new(0),
            obs: OnceLock::new(),
            fault: OnceLock::new(),
        });
        let (tx, results) = std::sync::mpsc::channel();
        let handles = (1..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                let evaluator = factory();
                std::thread::spawn(move || worker_loop(&shared, evaluator, &tx))
            })
            .collect();
        EngineBackend {
            shared,
            local,
            results,
            handles,
            num_variables,
            workers,
        }
    }

    /// Attaches a worker-pool metric bundle. Counters mirror the
    /// deterministic fulfillment protocol (batches, jobs, cache-hit and
    /// evaluation totals); the gauge and histograms observe
    /// scheduling and are recorded only when the bundle has timing
    /// enabled, and so is each real simulator call's wall clock when the
    /// bundle carries a `backend_simulate_us_*` histogram. Attach before
    /// the first batch; a second call is ignored.
    #[must_use]
    pub fn with_obs(self, obs: BackendObs) -> EngineBackend {
        let _ = self.shared.obs.set(obs);
        self
    }

    /// Attaches a content-addressed [`FaultStream`]: every configuration
    /// computed through the backend, on any of its threads, first draws
    /// its fate from the stream, before the cache lookup.
    /// `None` — or an inactive stream — leaves the backend fault-free.
    /// Attach before the first batch; a second call is ignored.
    #[must_use]
    pub fn with_faults(self, stream: Option<FaultStream>) -> EngineBackend {
        if let Some(stream) = stream.filter(FaultStream::is_active) {
            let _ = self.shared.fault.set(stream);
        }
        self
    }

    /// Threads the backend fans batches over, the fulfilling thread
    /// included.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Drop for EngineBackend {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it under that
        // lock before it waits, so it either sees the flag or is already
        // waiting when the notification comes.
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl EvalBackend for EngineBackend {
    fn fulfill(&mut self, requests: &[SimulationRequest]) -> Result<Vec<f64>, EvalError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let obs = self.shared.obs.get();
        if let Some(obs) = obs {
            obs.batches.inc();
            obs.jobs.add(requests.len() as u64);
            obs.tracer
                .emit("batch_fulfill", vec![("requests", requests.len().into())]);
        }
        let batch_start = obs.filter(|o| o.timing).map(|_| Instant::now());
        let finish = |obs: Option<&BackendObs>, batch_start: Option<Instant>| {
            if let (Some(obs), Some(start)) = (obs, batch_start) {
                obs.fulfill_us.record(start.elapsed().as_secs_f64() * 1e6);
            }
        };
        if self.workers <= 1 || requests.len() <= 1 {
            // No fan-out to pay for: stay on the caller's thread (the cache
            // still deduplicates against concurrent sessions).
            let values = requests
                .iter()
                .map(|r| self.shared.compute(&mut *self.local, &r.config))
                .collect();
            finish(obs, batch_start);
            return values;
        }
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.extend(requests.iter().enumerate().map(|(index, r)| Job {
                index,
                config: r.config.clone(),
                enqueued: batch_start.map(|_| Instant::now()),
            }));
        }
        if let Some(obs) = obs {
            obs.queue_depth.set(requests.len() as i64);
        }
        self.shared.available.notify_all();
        let mut slots: Vec<Option<std::thread::Result<Result<f64, EvalError>>>> =
            (0..requests.len()).map(|_| None).collect();
        // The fulfilling thread simulates too, from the same queue, until
        // it is empty; then it waits only for the jobs still running on
        // the spawned threads.
        let mut pending = requests.len();
        loop {
            let job = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            let Some(job) = job else { break };
            let (index, result) = self.shared.run(&mut *self.local, &job);
            slots[index] = Some(result);
            pending -= 1;
        }
        for _ in 0..pending {
            let (index, result) = self
                .results
                .recv()
                .expect("a pool worker died while the batch was in flight");
            slots[index] = Some(result);
        }
        if let Some(obs) = obs {
            obs.queue_depth.set(0);
        }
        finish(obs, batch_start);
        // Deterministic failure selection: scanning in request order, the
        // lowest-indexed failure wins no matter which worker hit it first
        // — an error returns, a caught panic re-raises with its original
        // payload (matching a one-worker backend, which would have
        // panicked at that request and never reached the later ones).
        let mut values = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot.expect("every index was reported once") {
                Ok(Ok(value)) => values.push(value),
                Ok(Err(error)) => return Err(error),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        Ok(values)
    }

    fn fulfill_one(&mut self, config: &Config) -> Result<f64, EvalError> {
        self.shared.compute(&mut *self.local, config)
    }

    fn num_variables(&self) -> usize {
        self.num_variables
    }

    fn evaluations(&self) -> u64 {
        self.shared.evaluations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    use krigeval_core::FnEvaluator;

    fn requests(configs: &[Vec<i32>]) -> Vec<SimulationRequest> {
        configs
            .iter()
            .map(|c| SimulationRequest::new(c.clone()))
            .collect()
    }

    fn factory() -> impl Fn() -> Box<dyn AccuracyEvaluator + Send> {
        || {
            Box::new(FnEvaluator::new(2, |w: &Config| {
                Ok(f64::from(w[0] * 10 + w[1]))
            }))
        }
    }

    #[test]
    fn dropping_a_backend_right_after_a_batch_never_hangs() {
        // A worker that has just sent the batch's last result is between
        // its shutdown check and its wait when the backend drops; a flag
        // set outside the queue lock lost that wakeup and hung the join.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..20_000 {
                let mut backend = EngineBackend::new(factory(), 2, Arc::new(SimCache::new()), "t");
                backend
                    .fulfill(&requests(&[vec![0, 1], vec![1, 0]]))
                    .unwrap();
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a backend's drop hung");
    }

    #[test]
    fn values_match_inline_evaluation_at_any_worker_count() {
        let configs: Vec<Config> = (0..25).map(|i| vec![i / 5, i % 5]).collect();
        let expected: Vec<f64> = configs
            .iter()
            .map(|w| f64::from(w[0] * 10 + w[1]))
            .collect();
        for workers in [1, 2, 4, 8] {
            let mut backend =
                EngineBackend::new(factory(), workers, Arc::new(SimCache::new()), "t");
            assert_eq!(backend.fulfill(&requests(&configs)).unwrap(), expected);
        }
    }

    #[test]
    fn pool_is_reused_across_batches() {
        let mut backend = EngineBackend::new(factory(), 4, Arc::new(SimCache::new()), "t");
        for round in 0..10 {
            let configs: Vec<Config> = (0..5).map(|i| vec![round, i]).collect();
            let expected: Vec<f64> = configs
                .iter()
                .map(|w| f64::from(w[0] * 10 + w[1]))
                .collect();
            assert_eq!(backend.fulfill(&requests(&configs)).unwrap(), expected);
        }
        assert_eq!(backend.evaluations(), 50);
    }

    #[test]
    fn shared_cache_spares_the_second_backend_all_simulations() {
        let cache = Arc::new(SimCache::new());
        let configs: Vec<Config> = (0..8).map(|i| vec![i, i]).collect();
        let mut first = EngineBackend::new(factory(), 2, Arc::clone(&cache), "shared");
        let a = first.fulfill(&requests(&configs)).unwrap();
        let mut second = EngineBackend::new(factory(), 2, Arc::clone(&cache), "shared");
        let b = second.fulfill(&requests(&configs)).unwrap();
        assert_eq!(a, b);
        assert_eq!(second.evaluations(), 0, "everything came from the cache");
        assert_eq!(first.evaluations(), 8);
    }

    #[test]
    fn lowest_indexed_failure_is_reported() {
        let flaky = || -> Box<dyn AccuracyEvaluator + Send> {
            Box::new(FnEvaluator::new(1, |w: &Config| {
                if w[0] % 3 == 0 {
                    Err(EvalError::msg(format!("bad config {}", w[0])))
                } else {
                    Ok(f64::from(w[0]))
                }
            }))
        };
        let configs: Vec<Config> = (1..20).map(|i| vec![i]).collect(); // fails at 3, 6, 9, …
        for workers in [1, 4] {
            let mut backend = EngineBackend::new(flaky, workers, Arc::new(SimCache::new()), "t");
            let err = backend.fulfill(&requests(&configs)).unwrap_err();
            assert!(err.to_string().contains("bad config 3"), "{err}");
        }
    }

    #[test]
    fn injected_failures_are_identical_at_any_worker_count() {
        use crate::fault::{FaultConfig, FaultPhase};
        let config = FaultConfig {
            panic_rate: 0.0,
            error_rate: 0.25,
            nan_rate: 0.25,
            seed: 21,
        };
        let stream = || Some(FaultStream::new(config, "t/fast/0", 0, FaultPhase::Hybrid));
        let configs: Vec<Config> = (0..40).map(|i| vec![i / 5, i % 5]).collect();
        let outcome = |workers: usize| -> Vec<Result<f64, String>> {
            let mut backend =
                EngineBackend::new(factory(), workers, Arc::new(SimCache::new()), "t")
                    .with_faults(stream());
            configs
                .iter()
                .map(|c| backend.fulfill_one(c).map_err(|e| e.to_string()))
                .collect()
        };
        let serial = outcome(1);
        assert_eq!(serial, outcome(4), "worker count changed injected fates");
        assert!(serial.iter().any(Result::is_err), "faults were injected");
        assert!(serial.iter().any(Result::is_ok), "real calls got through");
        // Batch fulfillment reports the lowest-indexed injected failure.
        let first_err = serial.iter().position(|r| r.is_err()).unwrap();
        for workers in [1, 4] {
            let mut backend =
                EngineBackend::new(factory(), workers, Arc::new(SimCache::new()), "t")
                    .with_faults(stream());
            let err = backend.fulfill(&requests(&configs)).unwrap_err();
            assert_eq!(
                err.to_string(),
                *serial[first_err].as_ref().unwrap_err(),
                "workers={workers}"
            );
        }
    }

    /// Silences the default panic hook for injected panics only (they are
    /// expected and caught); everything else still reports.
    fn silence_injected_panics() {
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.starts_with("injected panic"));
                if !injected {
                    previous(info);
                }
            }));
        });
    }

    #[test]
    fn injected_panics_are_contained_and_rethrown_with_their_payload() {
        use crate::fault::{FaultConfig, FaultPhase};
        silence_injected_panics();
        let config = FaultConfig {
            panic_rate: 1.0,
            error_rate: 0.0,
            nan_rate: 0.0,
            seed: 3,
        };
        let stream = FaultStream::new(config, "t/fast/0", 1, FaultPhase::Pilot);
        let expected = stream.panic_message(&vec![0, 0]);
        let configs: Vec<Config> = (0..8).map(|i| vec![i / 4, i % 4]).collect();
        let mut backend = EngineBackend::new(factory(), 4, Arc::new(SimCache::new()), "t")
            .with_faults(Some(stream));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = backend.fulfill(&requests(&configs));
        }))
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<String>().unwrap(), &expected);
        // The pool survived the panic: a fault-free-looking config (none
        // exists at rate 1.0, so check the workers themselves) can still
        // serve a later batch after the stream is exhausted of real
        // fates — fulfill again and observe the same deterministic panic
        // rather than a dead-worker recv failure.
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = backend.fulfill(&requests(&configs));
        }))
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<String>().unwrap(), &expected);
    }

    #[test]
    fn two_workers_build_two_evaluators_and_spawn_one_thread() {
        let built = Arc::new(AtomicU64::new(0));
        let counted = {
            let built = Arc::clone(&built);
            move || {
                built.fetch_add(1, Ordering::SeqCst);
                factory()()
            }
        };
        let backend = EngineBackend::new(counted, 2, Arc::new(SimCache::new()), "t");
        assert_eq!(built.load(Ordering::SeqCst), 2);
        assert_eq!(backend.handles.len(), 1);
        assert_eq!(backend.workers(), 2);
    }

    /// The jobs a two-worker backend's evaluators ran: `(rank, thread,
    /// config)`, rank 0 being the first evaluator built, the fulfilling
    /// thread's.
    #[derive(Default)]
    struct JobLog {
        entries: Mutex<Vec<(u64, std::thread::ThreadId, i32)>>,
        logged: Condvar,
    }

    impl JobLog {
        /// Logs a job, then waits until both ranks have logged one, so
        /// each thread runs part of every batch of two or more; a thread
        /// that never gets a job fails the test instead of hanging it.
        fn record(&self, rank: u64, config: i32) {
            let mut entries = self.entries.lock().unwrap();
            entries.push((rank, std::thread::current().id(), config));
            self.logged.notify_all();
            let both = |e: &mut Vec<(u64, _, i32)>| (0..2).all(|r| e.iter().any(|x| x.0 == r));
            let (_entries, wait) = self
                .logged
                .wait_timeout_while(entries, std::time::Duration::from_secs(10), |e| !both(e))
                .unwrap();
            assert!(!wait.timed_out(), "one thread ran no job");
        }

        /// The lowest configuration the evaluator of `rank` ran.
        fn lowest_run_by(&self, rank: u64) -> i32 {
            let entries = self.entries.lock().unwrap();
            entries
                .iter()
                .filter(|&&(r, _, _)| r == rank)
                .map(|&(_, _, w)| w)
                .min()
                .expect("every thread ran a job")
        }
    }

    /// An answer that replaces an evaluator's value when it is `Some`,
    /// given the evaluator's rank and the configuration.
    type Override = fn(u64, i32) -> Option<Result<f64, EvalError>>;

    /// A factory whose evaluators log every job in `log` and answer
    /// `fail(rank, config)` when that is `Some`.
    fn ranked(log: &Arc<JobLog>, fail: Override) -> impl Fn() -> Box<dyn AccuracyEvaluator + Send> {
        let (log, built) = (Arc::clone(log), AtomicU64::new(0));
        move || {
            let (log, rank) = (Arc::clone(&log), built.fetch_add(1, Ordering::SeqCst));
            Box::new(FnEvaluator::new(1, move |w: &Config| {
                log.record(rank, w[0]);
                fail(rank, w[0]).unwrap_or(Ok(f64::from(w[0])))
            })) as Box<dyn AccuracyEvaluator + Send>
        }
    }

    #[test]
    fn the_fulfilling_thread_simulates_part_of_a_batch() {
        let log = Arc::new(JobLog::default());
        let mut backend =
            EngineBackend::new(ranked(&log, |_, _| None), 2, Arc::new(SimCache::new()), "t");
        let configs: Vec<Config> = (0..64).map(|i| vec![i]).collect();
        let expected: Vec<f64> = (0..64).map(f64::from).collect();
        assert_eq!(backend.fulfill(&requests(&configs)).unwrap(), expected);
        let entries = log.entries.lock().unwrap();
        assert_eq!(entries.len(), 64);
        let caller = std::thread::current().id();
        assert!(
            entries
                .iter()
                .all(|&(rank, thread, _)| (rank == 0) == (thread == caller)),
            "the fulfilling thread runs its jobs on the first evaluator built"
        );
    }

    #[test]
    fn failures_on_either_side_follow_the_lowest_index_rule() {
        // Every job one thread runs fails, so which indices fail depends
        // on scheduling; the report must still name the lowest of them.
        let configs: Vec<Config> = (0..64).map(|i| vec![i]).collect();
        let failing: [Override; 2] = [
            |rank, w| (rank == 0).then(|| Err(EvalError::msg(format!("bad config {w}")))),
            |rank, w| (rank == 1).then(|| Err(EvalError::msg(format!("bad config {w}")))),
        ];
        for (rank, fail) in (0u64..).zip(failing) {
            let log = Arc::new(JobLog::default());
            let mut backend =
                EngineBackend::new(ranked(&log, fail), 2, Arc::new(SimCache::new()), "t");
            let err = backend.fulfill(&requests(&configs)).unwrap_err();
            let expected = EvalError::msg(format!("bad config {}", log.lowest_run_by(rank)));
            assert_eq!(err.to_string(), expected.to_string(), "rank {rank}");
        }
    }

    #[test]
    fn a_panic_on_the_fulfilling_thread_is_rethrown_with_its_payload() {
        silence_injected_panics();
        let log = Arc::new(JobLog::default());
        let mut backend = EngineBackend::new(
            ranked(&log, |rank, w| {
                (rank == 0).then(|| std::panic::panic_any(format!("injected panic at {w}")))
            }),
            2,
            Arc::new(SimCache::new()),
            "t",
        );
        let configs: Vec<Config> = (0..64).map(|i| vec![i]).collect();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = backend.fulfill(&requests(&configs));
        }))
        .unwrap_err();
        assert_eq!(
            payload.downcast_ref::<String>().unwrap(),
            &format!("injected panic at {}", log.lowest_run_by(0))
        );
    }

    #[test]
    fn debug_shows_shape_not_contents() {
        let backend = EngineBackend::new(factory(), 3, Arc::new(SimCache::new()), "ns");
        let s = format!("{backend:?}");
        assert!(s.contains("workers: 3") && s.contains("\"ns\""), "{s}");
    }
}
