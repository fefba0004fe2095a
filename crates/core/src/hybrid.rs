//! The hybrid kriging/simulation evaluator — the paper's core contribution
//! (the inner loop of Algorithms 1 and 2, lines 6–24).
//!
//! For every queried configuration `w`:
//!
//! 1. gather the **already simulated** configurations within distance `d`
//!    (`dCur = ||w − w_sim||₁ ≤ d`);
//! 2. if more than `N_n,min` neighbours are available (and the variogram has
//!    been identified), solve the ordinary-kriging system and return the
//!    interpolated metric — **no simulation**;
//! 3. otherwise simulate, and add `(w, λ)` to the simulated set.
//!
//! Interpolated configurations are *never* added to the simulated set
//! ("if the configuration is interpolated, it is not used for kriging other
//! configurations"), which prevents interpolation-error accumulation.
//!
//! The optional **audit mode** also simulates every kriged configuration —
//! without feeding the result back — to measure the interpolation error ε
//! of Eqs. 11/12. That is exactly the paper's Table I protocol.
//!
//! # Plan/fulfill batches
//!
//! Every query — a single [`HybridEvaluator::evaluate`] is a batch of one —
//! runs through one decision path in three phases. *Planning* classifies a
//! candidate frontier — without touching the simulator or any session
//! state — into cache hits, krigeable queries (with the exact neighbour set
//! each will use), and a deduplicated list of [`SimulationRequest`]s. The
//! requests are then *fulfilled* by the wrapped [`EvalBackend`] (inline, or
//! fanned out over a worker pool), and *commit* applies the results in
//! input-index order. A session identifies its variogram at most once, and
//! planning predicts a mid-batch identification from the sample *count*
//! alone; commit replays it with the real values. So a batch reproduces the
//! query-by-query semantics while leaving the simulations free to run in
//! any order — the basis of the determinism contract for in-run parallelism
//! (DESIGN.md §8).
//!
//! Planning answers a query the session has already kriged at an unchanged
//! state from an exact memo (the private `memo` module) before any
//! neighbour search; commit counts, traces and audits such a recalled
//! slot exactly like a solved one.

mod memo;

use std::ops::Range;
use std::time::Instant;

use krigeval_fixedpoint::metrics::ErrorStats;
use krigeval_obs::{Counter, Histogram, Registry, Tracer};
use serde::{Deserialize, Serialize};

use crate::eval_backend::{EvalBackend, SimulationRequest};
use crate::evaluator::EvalError;
use crate::kriging::KrigingScratch;
use crate::neighbors::NeighborIndex;
use crate::trace::Source;
use crate::variogram::{
    fit_model, fit_model_loo, lattice_key, FitReport, GammaTable, ModelFamily, ModelSelection,
    VariogramAccumulator, VariogramModel,
};
use crate::{Config, CoreError, DistanceMetric};
use memo::{Kriged, KrigedMemo, Stamp};

/// How the variogram model is obtained (paper Section III-A: "the
/// identification of the semi-variogram has to be done once for a
/// particular metric and application"). A session identifies at most once.
#[derive(Debug, Clone, PartialEq)]
pub enum VariogramPolicy {
    /// Use a caller-supplied model, never fit.
    Fixed(VariogramModel),
    /// Simulate the first `min_samples` configurations, then identify the
    /// model once from their empirical variogram; fall back to `fallback`
    /// if the fit fails (degenerate geometry).
    FitAfter {
        /// Number of simulated configurations required before fitting.
        min_samples: usize,
        /// Families tried by the fit.
        families: Vec<ModelFamily>,
        /// Model used if fitting fails.
        fallback: VariogramModel,
    },
}

impl Default for VariogramPolicy {
    fn default() -> VariogramPolicy {
        VariogramPolicy::FitAfter {
            min_samples: 10,
            families: ModelFamily::all().to_vec(),
            fallback: VariogramModel::linear(1.0),
        }
    }
}

impl VariogramPolicy {
    /// Whether the identification fires once the store holds `len` sites:
    /// only while the session has no model. It reads the sample count
    /// alone (a failed fit still installs the fallback model), so planning
    /// can predict a mid-batch fit.
    fn fit_due(&self, has_model: bool, len: usize) -> bool {
        match *self {
            VariogramPolicy::Fixed(_) => false,
            VariogramPolicy::FitAfter { min_samples, .. } => !has_model && len >= min_samples,
        }
    }
}

/// How audit-mode interpolation errors are expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditMetric {
    /// The metric is `λ = −P` in dB: ε is the equivalent-bit difference of
    /// Eq. 11, `|log₂(P̂/P)| = |λ̂ − λ| / (10·log₁₀ 2)`.
    NoisePowerDb,
    /// Any other metric: ε is the relative difference of Eq. 12.
    Relative,
}

/// The pluggable kriged-vs-simulate decision policy.
///
/// The decision has two phases. **Admission** ([`GatePolicy::admits`]) is
/// the paper's fixed neighbour-count rule (line 17, `Nn > Nn,min`) and is
/// shared by every variant, so batch planning can classify queries without
/// solving any system. **Acceptance** ([`GatePolicy::accepts`]) inspects
/// the solved prediction's kriging variance σ²; a rejected prediction is
/// answered by simulation instead (counted in
/// [`HybridStats::gate_rejections`], never as a kriging failure).
///
/// [`GatePolicy::Fixed`] — the default — accepts every admitted solve and
/// reproduces the historical behaviour bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum GatePolicy {
    /// Accept every admitted prediction (the paper's rule; the default).
    #[default]
    Fixed,
    /// Simulate instead whenever the predicted kriging variance σ² exceeds
    /// `threshold` — variance-aware gating in the spirit of Vazquez &
    /// Bect's kriging-based sequential search.
    Variance {
        /// Maximum tolerated kriging variance, in squared metric units.
        /// `+∞` is allowed (it degenerates to [`GatePolicy::Fixed`]); NaN
        /// and non-positive thresholds are rejected by
        /// [`HybridSettings::validate`].
        threshold: f64,
    },
}

impl GatePolicy {
    /// Pre-solve admission: may this query krige at all? Identical for
    /// every variant (the paper's strict `Nn > Nn,min` rule), which is
    /// what lets batch planning classify slots without solving.
    #[inline]
    pub fn admits(&self, neighbors: usize, min_neighbors: usize) -> bool {
        neighbors > min_neighbors
    }

    /// Post-solve acceptance: is a prediction with kriging variance
    /// `variance` good enough to return without simulating?
    #[inline]
    pub fn accepts(&self, variance: f64) -> bool {
        match *self {
            GatePolicy::Fixed => true,
            GatePolicy::Variance { threshold } => variance <= threshold,
        }
    }

    /// Short human-readable label (`fixed`, `variance(τ)`) for artifacts.
    pub fn label(&self) -> String {
        match *self {
            GatePolicy::Fixed => "fixed".to_string(),
            GatePolicy::Variance { threshold } => format!("variance({threshold})"),
        }
    }
}

/// Noisy-metric support: the nugget (measurement-error) variance `c`.
/// When set, `c` is added to every between-site semi-variogram value, so
/// kriging smooths over noisy site values instead of interpolating their
/// noise exactly; the predicted σ² grows by ≈ `c` accordingly. `c` is
/// fixed for the life of a session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NuggetPolicy {
    /// Use a fixed, caller-supplied nugget variance `c ≥ 0`.
    Fixed {
        /// The nugget variance in squared metric units.
        value: f64,
    },
}

/// Tunable parameters of the hybrid evaluator.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridSettings {
    /// Neighbour-search radius `d` (the paper sweeps `d ∈ {2, 3, 4, 5}`).
    pub distance: f64,
    /// Minimum neighbour count `N_n,min`: kriging runs only when strictly
    /// more neighbours are available (paper line 17, `Nn > Nn,min`).
    /// The paper's experiments use 3 (and 2 in the closing ablation).
    pub min_neighbors: usize,
    /// Configuration distance metric (the paper uses L1).
    pub metric: DistanceMetric,
    /// Variogram identification policy.
    pub variogram: VariogramPolicy,
    /// Optional cap on the number of neighbours per system (closest first);
    /// bounds both solve cost and conditioning. `None` = use all.
    pub max_neighbors: Option<usize>,
    /// When set, every kriged query is *also* simulated (result not fed
    /// back) and the interpolation error recorded — the Table I protocol.
    pub audit: Option<AuditMetric>,
    /// Opt-in approximate prediction for large neighbour sets (screened
    /// solve, in the spirit of "Rapid Approximation Prediction for
    /// Kriging"). `None` — the default — keeps the exact path bitwise
    /// pinned; see [`ApproxSettings`] for the accuracy gate.
    pub approx: Option<ApproxSettings>,
    /// Kriged-vs-simulate decision policy. [`GatePolicy::Fixed`] — the
    /// default — reproduces the historical behaviour bitwise.
    pub gate: GatePolicy,
    /// How identification chooses among candidate variogram families.
    /// [`ModelSelection::WeightedSse`] — the default — is the historical
    /// weighted-least-squares criterion.
    pub selection: ModelSelection,
    /// Optional nugget (noisy-metric) handling. `None` — the default —
    /// keeps the exact interpolating path bitwise pinned.
    pub nugget: Option<NuggetPolicy>,
}

impl Default for HybridSettings {
    fn default() -> HybridSettings {
        HybridSettings {
            distance: 3.0,
            min_neighbors: 3,
            metric: DistanceMetric::L1,
            variogram: VariogramPolicy::default(),
            max_neighbors: Some(32),
            audit: None,
            approx: None,
            gate: GatePolicy::Fixed,
            selection: ModelSelection::WeightedSse,
            nugget: None,
        }
    }
}

impl HybridSettings {
    /// Rejects settings that could never krige or would poison every
    /// solve: a zero or non-finite neighbour radius, `min_neighbors = 0`
    /// (the strict `>` admission rule makes both radius-0 and
    /// min-neighbors-0 footguns), a NaN or non-positive variance-gate
    /// threshold, and a negative or non-finite fixed nugget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSettings`] naming the offending field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !self.distance.is_finite() || self.distance <= 0.0 {
            return Err(CoreError::InvalidSettings {
                reason: format!(
                    "neighbour radius d must be finite and positive (got {})",
                    self.distance
                ),
            });
        }
        if self.min_neighbors == 0 {
            return Err(CoreError::InvalidSettings {
                reason: "min_neighbors must be at least 1 (kriging runs only with strictly \
                         more neighbours, so 0 would krige from a single site)"
                    .to_string(),
            });
        }
        if let GatePolicy::Variance { threshold } = self.gate {
            if threshold.is_nan() || threshold <= 0.0 {
                return Err(CoreError::InvalidSettings {
                    reason: format!(
                        "variance-gate threshold must be positive and not NaN (got {threshold})"
                    ),
                });
            }
        }
        if let Some(NuggetPolicy::Fixed { value }) = self.nugget {
            if !value.is_finite() || value < 0.0 {
                return Err(CoreError::InvalidSettings {
                    reason: format!("nugget variance must be finite and >= 0 (got {value})"),
                });
            }
        }
        Ok(())
    }
}

/// Opt-in approximate (screened-neighbour) prediction, gated by a fast
/// leave-one-out cross-validation accuracy check.
///
/// When a query's neighbour set exceeds `screen_to`, the solve is truncated
/// to the `screen_to` closest neighbours — an `O((n/screen_to)³)` cut on the
/// dominant factorization cost. The truncation only takes effect while the
/// session-level validation holds: at every (re-)validation point the
/// evaluator leave-one-out predicts a bounded sample of stored sites twice
/// (exact cap vs screened) and compares. If any sampled deviation exceeds
/// `epsilon`, the approximation is **rejected** — queries take the exact
/// path — until a later validation passes again.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproxSettings {
    /// Neighbour-count ceiling of the screened solve; systems at or below
    /// this size always run exact.
    pub screen_to: usize,
    /// Declared accuracy bound ε: the maximum allowed deviation
    /// `|λ̂_approx − λ̂_exact| / max(|λ̂_exact|, 1)` observed by the
    /// leave-one-out validation before the approximate path is rejected.
    pub epsilon: f64,
    /// Upper bound on leave-one-out sites sampled per validation (bounds
    /// validation cost; sites are stride-sampled across the store).
    pub loo_samples: usize,
    /// Validation runs at the identification and also every time the store
    /// has grown by this many sites since the last check (a
    /// [`VariogramPolicy::Fixed`] model has no identification).
    pub check_every: usize,
}

impl Default for ApproxSettings {
    fn default() -> ApproxSettings {
        ApproxSettings {
            screen_to: 16,
            epsilon: 0.05,
            loo_samples: 24,
            check_every: 32,
        }
    }
}

/// Counters and audit statistics of a hybrid-evaluation session; the raw
/// material for one Table I row.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HybridStats {
    /// Total metric queries `N_λ`.
    pub queries: u64,
    /// Queries answered by simulation (and stored).
    pub simulated: u64,
    /// Queries answered by kriging.
    pub kriged: u64,
    /// Queries answered from the exact-duplicate cache.
    pub cache_hits: u64,
    /// Kriging attempts that failed numerically and fell back to simulation.
    pub kriging_failures: u64,
    /// Kriging solves whose predicted variance the [`GatePolicy`] rejected
    /// (answered by simulation instead; always 0 under
    /// [`GatePolicy::Fixed`]).
    pub gate_rejections: u64,
    /// Sum over kriged queries of the neighbour count used (for `j̄`).
    pub neighbor_sum: u64,
    /// Sum over kriged (gate-accepted) queries of the predicted kriging
    /// variance σ² — the numerator of [`HybridStats::mean_variance`].
    pub variance_sum: f64,
    /// Audit-mode interpolation errors (Eq. 11 or Eq. 12 units).
    pub errors: ErrorStats,
}

impl HybridStats {
    /// Fraction of queries answered without simulation — the paper's `p(%)`
    /// (in `[0, 1]`; multiply by 100 for the table).
    pub fn interpolated_fraction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.kriged as f64 / self.queries as f64
        }
    }

    /// Mean number of neighbours per interpolation — the paper's `j̄`.
    pub fn mean_neighbors(&self) -> f64 {
        if self.kriged == 0 {
            0.0
        } else {
            self.neighbor_sum as f64 / self.kriged as f64
        }
    }

    /// Mean predicted kriging variance σ̄² over kriged queries (0 when
    /// nothing kriged) — the natural scale for a variance-gate threshold.
    pub fn mean_variance(&self) -> f64 {
        if self.kriged == 0 {
            0.0
        } else {
            self.variance_sum / self.kriged as f64
        }
    }
}

/// Result of one hybrid query.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The configuration was simulated (or found in the duplicate cache).
    Simulated {
        /// The measured metric value.
        value: f64,
    },
    /// The configuration was interpolated by kriging.
    Kriged {
        /// The interpolated metric value `λ̂`.
        value: f64,
        /// The kriging variance.
        variance: f64,
        /// Number of neighbours in the system.
        neighbors: usize,
        /// Audit mode only: the true (simulated) value.
        true_value: Option<f64>,
    },
}

impl Outcome {
    /// The metric value the optimizer should use.
    pub fn value(&self) -> f64 {
        match self {
            Outcome::Simulated { value } => *value,
            Outcome::Kriged { value, .. } => *value,
        }
    }

    /// Where the value came from.
    pub fn source(&self) -> Source {
        match self {
            Outcome::Simulated { .. } => Source::Simulated,
            Outcome::Kriged { .. } => Source::Kriged,
        }
    }
}

/// How one slot of a planned batch gets its value.
#[derive(Debug, Clone, PartialEq)]
enum SlotPlan {
    /// Exact duplicate of a stored configuration.
    CacheHit {
        /// Store position of the duplicate.
        position: usize,
    },
    /// Exact duplicate of an earlier simulation request in the same batch
    /// (queried one at a time, it would be in the store by then).
    Alias {
        /// Index into the plan's request list.
        request: usize,
    },
    /// Needs a fresh simulation.
    Simulate {
        /// Index into the plan's request list.
        request: usize,
    },
    /// Krigeable: the neighbour set this query sees. Neighbour positions
    /// `>= planned_at` refer to pending requests (`planned_at + request
    /// index`).
    Krige {
        /// Range into [`BatchScratch::neighbors`]: combined store/request
        /// positions, closest first.
        neighbors: Range<usize>,
    },
    /// Kriged before at the very session state this slot sees: the memo's
    /// answer, bitwise what the solve would return.
    Recalled(Kriged),
}

/// A krigeable slot answered by simulation after all: its solve failed,
/// left the plausibility envelope, or the gate refused its variance.
#[derive(Debug, Clone, Copy)]
struct Fallback {
    slot: usize,
    /// The gate refused the solved variance (otherwise a kriging failure).
    gate_rejected: bool,
    /// Where the simulated value comes from: indices below the planned
    /// request count address the request values, the rest the fallback
    /// round's values.
    source: usize,
}

/// One variogram identification, staged by a batch until commit
/// installs it.
#[derive(Debug)]
struct Fit {
    /// Store size the identification fired at.
    at: usize,
    /// The fitted model, or the policy's fallback when the fit failed.
    model: VariogramModel,
    /// The fit's report; `None` when it failed.
    report: Option<FitReport>,
}

/// Grow-only plan/commit buffers owned by the evaluator, so that a
/// steady-state batch — a single [`HybridEvaluator::evaluate`] included —
/// allocates nothing.
#[derive(Debug, Default)]
struct BatchScratch {
    slots: Vec<SlotPlan>,
    /// Flat neighbour slab the [`SlotPlan::Krige`] ranges point into.
    neighbors: Vec<usize>,
    /// The deduplicated simulations the batch requires, in
    /// first-occurrence order.
    requests: Vec<SimulationRequest>,
    /// Virtual store length at which the variogram identification fires
    /// while the requests are inserted, if it does in this batch.
    fit_point: Option<usize>,
    /// Store size the plan was computed against.
    planned_at: usize,
    /// `(position, distance)` radius-search buffer.
    search: Vec<(usize, f64)>,
    /// Krige slots in neighbour-set group order.
    krige_order: Vec<usize>,
    /// Per-slot accepted answer, solved or recalled.
    krige_results: Vec<Option<Kriged>>,
    /// Krige slots answered by simulation, in slot order.
    fallbacks: Vec<Fallback>,
    /// Neighbour values of the current solve group.
    group_values: Vec<f64>,
    /// Lattice-key slab for the group's RHS assembly (`targets × n`,
    /// row-major).
    group_keys: Vec<u64>,
    /// γ slab matching `group_keys`.
    group_gamma: Vec<f64>,
    /// One outcome per slot, in input order.
    outcomes: Vec<Outcome>,
}

impl BatchScratch {
    /// Slots answered without simulation or kriging (store duplicates and
    /// intra-batch request duplicates).
    fn num_cache_hits(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, SlotPlan::CacheHit { .. } | SlotPlan::Alias { .. }))
            .count()
    }

    /// Slots planned for kriging interpolation, recalled ones included.
    fn num_krigeable(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, SlotPlan::Krige { .. } | SlotPlan::Recalled(_)))
            .count()
    }
}

/// Bucket bounds of the `hybrid_kriging_variance` histogram: decades from
/// 1e-6 to 1e5 cover σ² for metrics spanning micro-scale noise floors to
/// the word-length benchmarks' dB² spreads.
const VARIANCE_BUCKETS: [f64; 12] = [
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5,
];

/// Observability bundle for a hybrid-evaluation session: pre-registered
/// metric handles plus a [`Tracer`] for per-query decision events.
///
/// Attach with [`HybridEvaluator::with_obs`]. Counters mirror
/// [`HybridStats`] exactly (they are incremented at the same decision
/// points), so counter snapshots are deterministic across worker counts
/// whenever the stats are. Per-phase timing histograms observe
/// wall-clock and are recorded only when enabled via
/// [`HybridObs::with_timing`]; they are excluded from the determinism
/// contract.
///
/// # Event taxonomy
///
/// * `query` — one per evaluated configuration, with a `decision` field
///   of `cache_hit`, `alias` (intra-batch duplicate), `kriged`
///   (with `neighbors` and `jitter_retries`),
///   `simulated`, `fallback` (kriging failed, simulated instead), or
///   `gate_rejected` (the gate refused the solved prediction's variance,
///   simulated instead).
/// * `model_selected` — one per leave-one-out model selection
///   ([`ModelSelection::LeaveOneOut`] only), with the winning family.
/// * `batch` — one per planned batch: slot/request/cache-hit/krigeable
///   counts, plus `plan_us` / `fulfill_us` / `commit_us` when timing is
///   enabled.
/// * `variogram_fit` — one per identification, with the store size it
///   fired at.
#[derive(Clone, Debug)]
pub struct HybridObs {
    tracer: Tracer,
    queries: Counter,
    simulated: Counter,
    kriged: Counter,
    cache_hits: Counter,
    fallbacks: Counter,
    gate_rejections: Counter,
    variance: Histogram,
    neighbors: Counter,
    jitter_retries: Counter,
    fits: Counter,
    iterations: Counter,
    plan_us: Histogram,
    fulfill_us: Histogram,
    commit_us: Histogram,
    timing: bool,
}

impl HybridObs {
    /// Registers the hybrid metric set (`hybrid_*`) in `registry` and
    /// pairs it with `tracer`. Timing histograms start disabled.
    pub fn new(registry: &Registry, tracer: Tracer) -> HybridObs {
        HybridObs {
            tracer,
            queries: registry.counter("hybrid_queries_total"),
            simulated: registry.counter("hybrid_simulated_total"),
            kriged: registry.counter("hybrid_kriged_total"),
            cache_hits: registry.counter("hybrid_cache_hits_total"),
            fallbacks: registry.counter("hybrid_kriging_fallbacks_total"),
            gate_rejections: registry.counter("hybrid_gate_rejections_total"),
            variance: registry.histogram_with("hybrid_kriging_variance", &VARIANCE_BUCKETS),
            neighbors: registry.counter("hybrid_neighbor_sum"),
            jitter_retries: registry.counter("hybrid_jitter_retries_total"),
            fits: registry.counter("hybrid_variogram_fits_total"),
            iterations: registry.counter("opt_iterations_total"),
            plan_us: registry.histogram("hybrid_plan_us"),
            fulfill_us: registry.histogram("hybrid_fulfill_us"),
            commit_us: registry.histogram("hybrid_commit_us"),
            timing: false,
        }
    }

    /// Enables (or disables) the per-phase wall-clock histograms.
    pub fn with_timing(mut self, timing: bool) -> HybridObs {
        self.timing = timing;
        self
    }

    /// The tracer events are emitted through.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

/// The hybrid kriging/simulation evaluator.
///
/// # Examples
///
/// ```
/// use krigeval_core::{FnEvaluator, HybridEvaluator, HybridSettings};
///
/// # fn main() -> Result<(), krigeval_core::EvalError> {
/// // A smooth 2-D metric surface.
/// let sim = FnEvaluator::new(2, |w| Ok(-6.0 * f64::from(w[0] + w[1])));
/// let mut hybrid = HybridEvaluator::new(sim, HybridSettings::default());
/// // First queries are simulated (variogram not yet identified); once the
/// // model is fitted, configurations close to simulated ones get kriged.
/// for a in 4..10 {
///     for b in 4..8 {
///         hybrid.evaluate(&vec![a, b])?;
///     }
/// }
/// assert!(hybrid.stats().kriged > 0);
/// assert!(hybrid.stats().simulated < hybrid.stats().queries);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HybridEvaluator<E> {
    inner: E,
    settings: HybridSettings,
    store: NeighborIndex,
    model: Option<VariogramModel>,
    fit_report: Option<FitReport>,
    stats: HybridStats,
    /// Grow-only solve workspace; with the batch buffers below it makes the
    /// steady-state kriged path allocation-free.
    krige_scratch: KrigingScratch,
    /// Memoized γ over lattice distances, re-targeted on model change.
    gamma_table: Option<GammaTable>,
    /// Reused plan/commit buffers of the decision path.
    batch: BatchScratch,
    /// Accepted kriged answers of the current session state.
    memo: KrigedMemo,
    /// Reused `(store position, distance)` buffer for the approximate
    /// path's leave-one-out validation.
    neighbor_buf: Vec<(usize, f64)>,
    /// Reused neighbour-value buffer for the same validation.
    value_buf: Vec<f64>,
    /// Whether the approximate path passed its last leave-one-out
    /// validation (always `false` when [`HybridSettings::approx`] is off).
    approx_active: bool,
    /// Store size at the last approximate-path validation.
    approx_checked_at: usize,
    /// Whether a validation has ever run with a model present. Sessions
    /// born with a model ([`VariogramPolicy::Fixed`]) have no fit event to
    /// piggyback on, so the first store insertion triggers the initial
    /// validation instead of waiting out a full `check_every` window.
    approx_validated: bool,
    /// Optional metrics/trace bundle; `None` costs one branch per query.
    obs: Option<HybridObs>,
}

impl<E: EvalBackend> HybridEvaluator<E> {
    /// Wraps an evaluation backend. Any
    /// [`AccuracyEvaluator`](crate::evaluator::AccuracyEvaluator) works here
    /// directly (the inline backend); pass an engine-side parallel backend
    /// to fan batched simulation requests over a worker pool instead.
    ///
    /// # Panics
    ///
    /// Panics if `settings` fail [`HybridSettings::validate`] (zero or
    /// non-finite radius, `min_neighbors = 0`, NaN gate threshold,
    /// negative nugget). Use [`HybridEvaluator::try_new`] to handle the
    /// error instead.
    pub fn new(inner: E, settings: HybridSettings) -> HybridEvaluator<E> {
        match HybridEvaluator::try_new(inner, settings) {
            Ok(hybrid) => hybrid,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: validates `settings` first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSettings`] if the settings fail
    /// [`HybridSettings::validate`].
    pub fn try_new(inner: E, settings: HybridSettings) -> Result<HybridEvaluator<E>, CoreError> {
        settings.validate()?;
        let model = match &settings.variogram {
            VariogramPolicy::Fixed(m) => Some(*m),
            VariogramPolicy::FitAfter { .. } => None,
        };
        let store = NeighborIndex::new(settings.metric);
        Ok(HybridEvaluator {
            inner,
            settings,
            store,
            model,
            fit_report: None,
            stats: HybridStats::default(),
            krige_scratch: KrigingScratch::new(),
            gamma_table: None,
            batch: BatchScratch::default(),
            memo: KrigedMemo::default(),
            neighbor_buf: Vec::new(),
            value_buf: Vec::new(),
            approx_active: false,
            approx_checked_at: 0,
            approx_validated: false,
            obs: None,
        })
    }

    /// Attaches an observability bundle: counters mirror
    /// [`HybridStats`] and decision events flow to the bundle's tracer.
    pub fn with_obs(mut self, obs: HybridObs) -> HybridEvaluator<E> {
        self.obs = Some(obs);
        self
    }

    /// Replaces (or removes) the observability bundle in place.
    pub fn set_obs(&mut self, obs: Option<HybridObs>) {
        self.obs = obs;
    }

    /// Evaluates a configuration, kriging when possible.
    ///
    /// A single query is a batch of one: it takes the plan → fulfill →
    /// commit path of [`HybridEvaluator::evaluate_batch`] over the
    /// evaluator's own grow-only buffers, so a steady-state kriged or
    /// cached query allocates nothing. A configuration kriged before at
    /// the same session state (store, model, approximate-path state) is
    /// answered from an exact memo without a solve, with the same bits,
    /// counters and trace events.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`EvalError`] (kriging failures are not
    /// errors — they fall back to simulation and are counted in
    /// [`HybridStats::kriging_failures`]). On error the session is
    /// unchanged, exactly as for a failed batch.
    pub fn evaluate(&mut self, config: &Config) -> Result<Outcome, EvalError> {
        self.run_batch(std::slice::from_ref(config))?;
        Ok(self.batch.outcomes[0].clone())
    }

    /// Convenience: evaluate and return only the metric value.
    ///
    /// # Errors
    ///
    /// See [`HybridEvaluator::evaluate`].
    pub fn evaluate_value(&mut self, config: &Config) -> Result<f64, EvalError> {
        Ok(self.evaluate(config)?.value())
    }

    /// Evaluates many configurations through the plan/fulfill protocol,
    /// solving each distinct kriging system **once**.
    ///
    /// Planning classifies the queries in input order, exactly as
    /// one-at-a-time [`HybridEvaluator::evaluate`] calls would (pending
    /// simulations are visible as neighbours, and a mid-batch variogram fit
    /// is replayed at commit). The backend's [`EvalBackend::fulfill`] then
    /// runs the deduplicated simulations, and commit applies everything in
    /// input order. The kriging solves are grouped by neighbour set, so a
    /// batch whose queries share neighbourhoods — the min+1 candidate scan,
    /// surface replay — factors Γ once per group instead of once per query.
    ///
    /// Batching has one visible consequence: a kriging attempt that fails
    /// (or whose variance the gate rejects) is simulated in a fallback round
    /// after the batch's solves, so queries later in the same batch do not
    /// see that simulation as a neighbour. Splitting a batch into batches of
    /// one therefore returns the same values whenever no fallback fires.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`EvalError`]. The batch is
    /// **all-or-nothing**: on error no query is counted, no value is stored,
    /// and the session state is exactly what it was before the call
    /// (simulator-side invocation counters excepted).
    pub fn evaluate_batch(&mut self, configs: &[Config]) -> Result<Vec<Outcome>, EvalError> {
        self.run_batch(configs)?;
        Ok(self.batch.outcomes.clone())
    }

    /// Runs plan → fulfill → commit over the evaluator-owned buffers,
    /// leaving one outcome per query in `self.batch.outcomes`.
    fn run_batch(&mut self, configs: &[Config]) -> Result<(), EvalError> {
        // The buffers leave `self` for the call so that planning and commit
        // can borrow them alongside the session state.
        let mut batch = std::mem::take(&mut self.batch);
        let result = self.plan_fulfill_commit(&mut batch, configs);
        self.batch = batch;
        result
    }

    fn plan_fulfill_commit(
        &mut self,
        batch: &mut BatchScratch,
        configs: &[Config],
    ) -> Result<(), EvalError> {
        let timing = self.obs.as_ref().is_some_and(|o| o.timing);
        let t0 = timing.then(Instant::now);
        self.plan_batch(batch, configs);
        let t1 = timing.then(Instant::now);
        let values = self.fulfill(&batch.requests)?;
        let t2 = timing.then(Instant::now);
        self.commit_batch(batch, configs, &values)?;
        let t3 = timing.then(Instant::now);
        let (Some(obs), Some(t0), Some(t1), Some(t2), Some(t3)) = (&self.obs, t0, t1, t2, t3)
        else {
            return Ok(());
        };
        let plan_us = t1.duration_since(t0).as_secs_f64() * 1e6;
        let fulfill_us = t2.duration_since(t1).as_secs_f64() * 1e6;
        let commit_us = t3.duration_since(t2).as_secs_f64() * 1e6;
        obs.plan_us.record(plan_us);
        obs.fulfill_us.record(fulfill_us);
        obs.commit_us.record(commit_us);
        if obs.tracer.enabled() {
            obs.tracer.emit(
                "batch",
                vec![
                    ("slots", batch.slots.len().into()),
                    ("requests", batch.requests.len().into()),
                    ("cache_hits", batch.num_cache_hits().into()),
                    ("krigeable", batch.num_krigeable().into()),
                    ("plan_us", plan_us.into()),
                    ("fulfill_us", fulfill_us.into()),
                    ("commit_us", commit_us.into()),
                ],
            );
        }
        Ok(())
    }

    /// Fulfills one round of simulation requests through the backend; an
    /// empty round never reaches it.
    fn fulfill(&mut self, requests: &[SimulationRequest]) -> Result<Vec<f64>, EvalError> {
        if requests.is_empty() {
            Ok(Vec::new())
        } else {
            self.inner.fulfill(requests)
        }
    }

    /// Plans a batch of queries into `batch` without mutating any session
    /// state.
    ///
    /// Store duplicates become cache hits, intra-batch duplicates of pending
    /// simulations alias the earlier request, queries the memo answered at
    /// this session state are recalled, krigeable queries record the
    /// neighbour set they observe (pending requests included, as
    /// pseudo-positions `store length + request index`), and everything
    /// else becomes a deduplicated [`SimulationRequest`]. The variogram
    /// identification is triggered by the sample *count* alone, so the
    /// planner knows *when* a mid-batch fit will fire without needing the
    /// simulated values: no slot before it can krige, and every krige slot
    /// after it reads the fitted model. Commit replays the fit with the
    /// real values.
    fn plan_batch(&self, batch: &mut BatchScratch, configs: &[Config]) {
        let planned_at = self.store.len();
        batch.planned_at = planned_at;
        batch.slots.clear();
        batch.neighbors.clear();
        batch.requests.clear();
        batch.fit_point = None;
        let mut virt_has_model = self.model.is_some();
        let stamp = self.memo_stamp();
        for config in configs {
            // Exact duplicate: the stored value answers it (the optimizer
            // revisits configurations; re-simulating would distort both N_λ
            // and p(%)).
            if let Some(position) = self.store.position_of(config) {
                batch.slots.push(SlotPlan::CacheHit { position });
                continue;
            }
            if let Some(request) = batch.requests.iter().position(|r| &r.config == config) {
                // Queried one at a time, this configuration would have been
                // simulated and stored by now, so the duplicate is a cache
                // hit.
                batch.slots.push(SlotPlan::Alias { request });
                continue;
            }
            // Until the first pending simulation, a query sees exactly the
            // session state, so an answer solved at it is recalled.
            if batch.requests.is_empty() {
                if let Some(answer) = stamp.and_then(|s| self.memo.recall(&s, config)) {
                    batch.slots.push(SlotPlan::Recalled(answer));
                    continue;
                }
            }
            if virt_has_model {
                // Gather simulated neighbours within distance d (paper lines
                // 7–16), sorted by distance.
                let search = &mut batch.search;
                self.store
                    .within_into(config, self.settings.distance, search);
                // Pending requests are neighbours too: queried one at a
                // time, they would be in the store at positions
                // `planned_at + request index` by now. The merged sort
                // reproduces `within_into`'s (distance, position) order,
                // ties included.
                let stored = search.len();
                for (ri, r) in batch.requests.iter().enumerate() {
                    let distance = self.settings.metric.eval_config(&r.config, config);
                    if distance <= self.settings.distance {
                        search.push((planned_at + ri, distance));
                    }
                }
                if search.len() > stored {
                    search.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                }
                if self
                    .settings
                    .gate
                    .admits(search.len(), self.settings.min_neighbors)
                {
                    if let Some(cap) = self.settings.max_neighbors {
                        search.truncate(cap);
                    }
                    if self.approx_active {
                        if let Some(approx) = &self.settings.approx {
                            // Validated approximate path: screen to the
                            // `screen_to` closest neighbours.
                            search.truncate(approx.screen_to.max(1));
                        }
                    }
                    let start = batch.neighbors.len();
                    batch.neighbors.extend(search.iter().map(|&(p, _)| p));
                    batch.slots.push(SlotPlan::Krige {
                        neighbors: start..batch.neighbors.len(),
                    });
                    continue;
                }
            }
            // Simulate and record (paper lines 19–23).
            batch.requests.push(SimulationRequest::new(config.clone()));
            batch.slots.push(SlotPlan::Simulate {
                request: batch.requests.len() - 1,
            });
            // Does this insertion fire the identification? The trigger
            // `maybe_fit_variogram` applies.
            let virt_len = planned_at + batch.requests.len();
            if self.settings.variogram.fit_due(virt_has_model, virt_len) {
                batch.fit_point = Some(virt_len);
                virt_has_model = true;
            }
        }
    }

    /// Commits a fulfilled batch: applies the simulated `values` (one per
    /// planned request, in request order), solves the planned kriging
    /// systems, and updates the store, statistics, and variogram state in
    /// input-index order — so traces and counters are identical no matter
    /// how (or on how many workers) the requests were fulfilled.
    ///
    /// Fallback simulations (implausible, failed or gate-rejected solves)
    /// and audit simulations are fulfilled through the backend as
    /// additional rounds *before* any state is mutated, so a backend error
    /// leaves the session unchanged.
    fn commit_batch(
        &mut self,
        batch: &mut BatchScratch,
        configs: &[Config],
        values: &[f64],
    ) -> Result<(), EvalError> {
        let planned_at = batch.planned_at;

        // Round 1 — replay the batch's identification, if planning
        // scheduled one, with the real values. It reads the store followed
        // by the requests up to the one that fired it: the sites a
        // query-at-a-time run would have held at that point.
        let fit = batch.fit_point.map(|len| {
            let fired_by = len - planned_at;
            let mut sites: Vec<Config> = self.store.configs().to_vec();
            let mut site_values: Vec<f64> = self.store.values().to_vec();
            sites.extend(batch.requests[..fired_by].iter().map(|r| r.config.clone()));
            site_values.extend_from_slice(&values[..fired_by]);
            self.identify(&sites, &site_values)
        });

        // Round 2 — solve the planned kriging systems, grouped by neighbour
        // set, through the factor-once/solve-many scratch: one Γ assembly +
        // Bunch–Kaufman factorization per group, all members
        // back-substituted in one blocked multi-RHS pass over the shared
        // γ-table. Per-member results are bitwise identical to
        // single-target solves. Every krige slot reads the batch's one
        // model: the staged fit's when the batch fires the identification
        // (no slot before it can krige), the session's otherwise. Nothing
        // here mutates session state beyond the reused scratch/table
        // buffers; implausible predictions, failed solves and gate
        // rejections are collected for the fallback round.
        batch.krige_results.clear();
        batch.krige_results.resize(configs.len(), None);
        batch.fallbacks.clear();
        {
            let store = &self.store;
            let model = fit.as_ref().map_or(self.model, |fit| Some(fit.model));
            let metric = self.settings.metric;
            let gate = self.settings.gate;
            let nugget = self.effective_nugget();
            let krige_scratch = &mut self.krige_scratch;
            let gamma_slot = &mut self.gamma_table;
            let slots = &batch.slots;
            let neighbors = &batch.neighbors;
            let requests = &batch.requests;
            let cfg_at = |j: usize| -> &Config {
                if j < planned_at {
                    &store.configs()[j]
                } else {
                    &requests[j - planned_at].config
                }
            };
            let val_at = |j: usize| -> f64 {
                if j < planned_at {
                    store.values()[j]
                } else {
                    values[j - planned_at]
                }
            };
            let slot_neighbors = |s: usize| -> &[usize] {
                match &slots[s] {
                    SlotPlan::Krige { neighbors: range } => &neighbors[range.clone()],
                    _ => unreachable!("krige_order holds only krige slots"),
                }
            };
            let fallback = |slot: usize, gate_rejected: bool| Fallback {
                slot,
                gate_rejected,
                source: 0,
            };
            // Recalled slots are answered already; the rest get solved.
            let order = &mut batch.krige_order;
            order.clear();
            for (s, slot) in slots.iter().enumerate() {
                match slot {
                    SlotPlan::Krige { .. } => order.push(s),
                    SlotPlan::Recalled(answer) => batch.krige_results[s] = Some(*answer),
                    _ => {}
                }
            }
            // Stable sort: members of a group stay in input order, and the
            // neighbour-set group order keeps the float-summing side effects
            // byte-stable across runs.
            order.sort_by(|&x, &y| slot_neighbors(x).cmp(slot_neighbors(y)));
            let order = &batch.krige_order;
            // Every krige slot reads the batch's one model, so the γ-table
            // is re-targeted once, and only when a slot is solved.
            let mut table = model
                .filter(|_| !order.is_empty())
                .map(|model| retarget(gamma_slot, model, metric));
            let mut group_start = 0;
            while group_start < order.len() {
                let table = table
                    .as_deref_mut()
                    .expect("krige slots are planned only with a model");
                let head_neighbors = slot_neighbors(order[group_start]);
                let group_end = order[group_start..]
                    .iter()
                    .position(|&s| slot_neighbors(s) != head_neighbors)
                    .map_or(order.len(), |off| group_start + off);
                let members = &order[group_start..group_end];
                group_start = group_end;
                let n = head_neighbors.len();
                let group_values = &mut batch.group_values;
                group_values.clear();
                group_values.extend(head_neighbors.iter().map(|&j| val_at(j)));
                // Flat RHS γ slab: a tight integer pass computes the
                // lattice keys for every (neighbour, member) pair, then one
                // batched memoized table pass fills the γ row slab.
                let group_keys = &mut batch.group_keys;
                let group_gamma = &mut batch.group_gamma;
                group_keys.clear();
                for &s in members {
                    let target = &configs[s];
                    group_keys.extend(
                        head_neighbors
                            .iter()
                            .map(|&j| lattice_key(metric, cfg_at(j), target)),
                    );
                }
                table.gamma_keys_into(group_keys, group_gamma);
                let solved = krige_scratch.solve_group_with(n, members.len(), |i, j| {
                    let g = if j < n {
                        table.gamma_pair(cfg_at(head_neighbors[i]), cfg_at(head_neighbors[j]))
                    } else {
                        group_gamma[(j - n) * n + i]
                    };
                    // A non-zero nugget (measurement-error variance `c`)
                    // rides the between-site and target rows only (the
                    // diagonal γ(0) stays 0), so noisy site values are
                    // smoothed instead of interpolated exactly; the
                    // `!= 0.0` branch keeps the nugget-free path bitwise
                    // untouched.
                    if nugget != 0.0 {
                        g + nugget
                    } else {
                        g
                    }
                });
                match solved {
                    Ok(()) => {
                        for (t, &s) in members.iter().enumerate() {
                            if !krige_scratch.group_ok(t) {
                                batch.fallbacks.push(fallback(s, false));
                                continue;
                            }
                            let value = krige_scratch.group_interpolate(t, group_values);
                            let variance = krige_scratch.group_variance(t);
                            if !plausible(value, variance, group_values) {
                                batch.fallbacks.push(fallback(s, false));
                            } else if !gate.accepts(variance) {
                                // Converged, but the gate refused its σ².
                                batch.fallbacks.push(fallback(s, true));
                            } else {
                                batch.krige_results[s] = Some(Kriged {
                                    value,
                                    variance,
                                    neighbors: n,
                                    retries: krige_scratch.group_jitter_retries(t),
                                });
                            }
                        }
                    }
                    Err(_) => batch
                        .fallbacks
                        .extend(members.iter().map(|&s| fallback(s, false))),
                }
            }
            batch.fallbacks.sort_unstable_by_key(|f| f.slot);
        }

        // Round 3 — fulfill the fallback simulations, deduplicated in
        // first-occurrence order. A fallback whose configuration is already
        // a planned request reuses that value, as a query-at-a-time run
        // would find it in the store.
        let mut fallback_requests: Vec<SimulationRequest> = Vec::new();
        for f in &mut batch.fallbacks {
            let config = &configs[f.slot];
            f.source = if let Some(r) = batch.requests.iter().position(|r| &r.config == config) {
                r
            } else if let Some(i) = fallback_requests.iter().position(|r| &r.config == config) {
                values.len() + i
            } else {
                fallback_requests.push(SimulationRequest::new(config.clone()));
                values.len() + fallback_requests.len() - 1
            };
        }
        let fallback_values = self.fulfill(&fallback_requests)?;

        // Round 4 — fulfill the audit simulations for every kriged slot, in
        // input order (audited results are never stored).
        let audit_metric = self.settings.audit;
        let audit_values = if audit_metric.is_some() {
            let audit_requests: Vec<SimulationRequest> = batch
                .krige_results
                .iter()
                .zip(configs)
                .filter(|(result, _)| result.is_some())
                .map(|(_, config)| SimulationRequest::new(config.clone()))
                .collect();
            self.fulfill(&audit_requests)?
        } else {
            Vec::new()
        };

        // Commit — from here on nothing can fail. State mutates in input
        // order: per-slot counters and outcomes first, then the request
        // insertions, the staged fit, and the fallback insertions.
        // Metric counters are settled from the stats delta once the whole
        // commit has run, so they track `HybridStats` exactly even through
        // the fallback-accounting corner cases.
        let stats_before = self.obs.as_ref().map(|_| self.stats.clone());
        // A batch that stores nothing leaves the session state — the stamp
        // its solves ran at — unchanged, so its answers are kept for
        // recall; any insertion would outdate them on arrival.
        let keep_at = if batch.requests.is_empty() && batch.fallbacks.is_empty() {
            self.memo_stamp()
        } else {
            None
        };
        let trace_slots = self.obs.as_ref().is_some_and(|o| o.tracer.enabled());
        self.stats.queries += configs.len() as u64;
        let mut audit_iter = audit_values.into_iter();
        let mut fallback_iter = batch.fallbacks.iter();
        batch.outcomes.clear();
        for (s, slot) in batch.slots.iter().enumerate() {
            let outcome = match slot {
                SlotPlan::CacheHit { position } => {
                    self.stats.cache_hits += 1;
                    if trace_slots {
                        self.emit_query_event("cache_hit", None);
                    }
                    Outcome::Simulated {
                        value: self.store.values()[*position],
                    }
                }
                SlotPlan::Alias { request } => {
                    self.stats.cache_hits += 1;
                    if trace_slots {
                        self.emit_query_event("alias", None);
                    }
                    Outcome::Simulated {
                        value: values[*request],
                    }
                }
                SlotPlan::Simulate { request } => {
                    if trace_slots {
                        self.emit_query_event("simulated", None);
                    }
                    Outcome::Simulated {
                        value: values[*request],
                    }
                }
                SlotPlan::Krige { .. } | SlotPlan::Recalled(_) => match batch.krige_results[s] {
                    Some(answer) => {
                        let Kriged {
                            value,
                            variance,
                            neighbors,
                            retries,
                        } = answer;
                        if let (SlotPlan::Krige { .. }, Some(stamp)) = (slot, keep_at) {
                            self.memo.keep(stamp, &configs[s], answer);
                        }
                        self.stats.kriged += 1;
                        self.stats.neighbor_sum += neighbors as u64;
                        self.stats.variance_sum += variance;
                        if let Some(obs) = &self.obs {
                            obs.variance.record(variance);
                            if retries > 0 {
                                obs.jitter_retries.add(u64::from(retries));
                            }
                        }
                        if trace_slots {
                            self.emit_query_event("kriged", Some((neighbors, retries)));
                        }
                        let true_value = audit_metric.map(|metric| {
                            let t = audit_iter.next().expect("one audit value per kriged slot");
                            self.stats.errors.record(audit_error(metric, value, t));
                            t
                        });
                        Outcome::Kriged {
                            value,
                            variance,
                            neighbors,
                            true_value,
                        }
                    }
                    None => {
                        let f = fallback_iter
                            .next()
                            .expect("every unanswered krige slot has a fallback");
                        debug_assert_eq!(f.slot, s);
                        if f.gate_rejected {
                            self.stats.gate_rejections += 1;
                            if trace_slots {
                                self.emit_query_event("gate_rejected", None);
                            }
                        } else {
                            self.stats.kriging_failures += 1;
                            if trace_slots {
                                self.emit_query_event("fallback", None);
                            }
                        }
                        let value = match f.source.checked_sub(values.len()) {
                            None => values[f.source],
                            Some(i) => fallback_values[i],
                        };
                        Outcome::Simulated { value }
                    }
                },
            };
            batch.outcomes.push(outcome);
        }
        for (request, &value) in batch.requests.iter().zip(values) {
            self.store.insert(request.config.clone(), value);
        }
        self.stats.simulated += batch.requests.len() as u64;
        let fitted = fit.is_some();
        if let Some(fit) = fit {
            self.install_fit(fit);
        }
        // A fallback is a krige slot, so the session has its model by now
        // and these insertions cannot fire the identification.
        for (request, value) in fallback_requests.into_iter().zip(fallback_values) {
            self.store.insert(request.config, value);
            self.stats.simulated += 1;
        }
        if fitted {
            // The staged fit is installed outside `maybe_fit_variogram`,
            // so re-run the approximate-path validation here, exactly as a
            // query-at-a-time replay of this batch would have.
            self.revalidate_approx();
        } else if self.store.len() > planned_at {
            // Validation points are store insertions: a batch that stored
            // nothing leaves the validation state alone.
            self.maybe_revalidate_approx();
        }
        if let (Some(obs), Some(before)) = (&self.obs, stats_before) {
            obs.queries.add(self.stats.queries - before.queries);
            obs.simulated.add(self.stats.simulated - before.simulated);
            obs.kriged.add(self.stats.kriged - before.kriged);
            obs.cache_hits
                .add(self.stats.cache_hits - before.cache_hits);
            obs.fallbacks
                .add(self.stats.kriging_failures - before.kriging_failures);
            obs.gate_rejections
                .add(self.stats.gate_rejections - before.gate_rejections);
            obs.neighbors
                .add(self.stats.neighbor_sum - before.neighbor_sum);
        }
        Ok(())
    }

    /// Records one optimizer-iteration marker: counts it and, when
    /// tracing, emits an `opt_iteration` event that segments the query
    /// stream by iteration (see
    /// [`DseEvaluator::observe_iteration`](crate::opt::DseEvaluator::observe_iteration)).
    pub(crate) fn record_iteration(&self, phase: &'static str, iteration: u64) {
        if let Some(obs) = &self.obs {
            obs.iterations.inc();
            if obs.tracer.enabled() {
                obs.tracer.emit(
                    "opt_iteration",
                    vec![("phase", phase.into()), ("iteration", iteration.into())],
                );
            }
        }
    }

    /// Emits one per-slot `query` decision event; a kriged slot carries its
    /// `(neighbours, jitter retries)`.
    fn emit_query_event(&self, decision: &'static str, kriged: Option<(usize, u32)>) {
        if let Some(obs) = &self.obs {
            let mut fields: Vec<krigeval_obs::trace::Field> = Vec::with_capacity(3);
            fields.push(("decision", decision.into()));
            if let Some((neighbors, retries)) = kriged {
                fields.push(("neighbors", neighbors.into()));
                fields.push(("jitter_retries", retries.into()));
            }
            obs.tracer.emit("query", fields);
        }
    }

    /// The variogram identification over `configs`/`values`: the fitted
    /// model with its report, or the policy's fallback model without one
    /// when the fit fails (degenerate geometry).
    fn identify(&self, configs: &[Config], values: &[f64]) -> Fit {
        let VariogramPolicy::FitAfter {
            families, fallback, ..
        } = &self.settings.variogram
        else {
            unreachable!("a fixed model is never identified");
        };
        let metric = self.settings.metric;
        let mut acc = VariogramAccumulator::new(metric);
        acc.sync(configs, values);
        let fitted = acc
            .snapshot()
            .and_then(|emp| match self.settings.selection {
                ModelSelection::WeightedSse => fit_model(&emp, families),
                ModelSelection::LeaveOneOut => {
                    let nugget = self.effective_nugget();
                    fit_model_loo(&emp, families, configs, values, metric, nugget)
                }
            });
        let (model, report) = match fitted {
            Ok(report) => (report.model, Some(report)),
            Err(_) => (*fallback, None),
        };
        Fit {
            at: configs.len(),
            model,
            report,
        }
    }

    /// Installs the identification, then counts and traces it. Under
    /// leave-one-out selection a fit that succeeded also reports its
    /// selected model; a failed fit installs the fallback without a
    /// selection.
    fn install_fit(&mut self, fit: Fit) {
        self.model = Some(fit.model);
        if let Some(obs) = &self.obs {
            obs.fits.inc();
            if obs.tracer.enabled() {
                obs.tracer
                    .emit("variogram_fit", vec![("at", fit.at.into())]);
                if let (ModelSelection::LeaveOneOut, Some(report)) =
                    (self.settings.selection, &fit.report)
                {
                    obs.tracer.emit(
                        "model_selected",
                        vec![("family", report.model.family_name().into())],
                    );
                }
            }
        }
        self.fit_report = fit.report;
    }

    /// Forces a **simulation** of `config`, bypassing kriging, and stores
    /// the result in the simulated set (duplicates return the cached value).
    /// Used by the optimizers' tie-break-by-simulation fidelity mode: when
    /// several kriged candidates are indistinguishable, resolving the tie
    /// with one real simulation restores decision fidelity at bounded cost.
    ///
    /// # Errors
    ///
    /// Propagates the inner evaluator's [`EvalError`].
    pub fn simulate_exact(&mut self, config: &Config) -> Result<f64, EvalError> {
        self.stats.queries += 1;
        if let Some(obs) = &self.obs {
            obs.queries.inc();
        }
        if let Some(pos) = self.store.position_of(config) {
            self.stats.cache_hits += 1;
            if let Some(obs) = &self.obs {
                obs.cache_hits.inc();
                if obs.tracer.enabled() {
                    obs.tracer.emit(
                        "query",
                        vec![("decision", "cache_hit".into()), ("forced", true.into())],
                    );
                }
            }
            return Ok(self.store.values()[pos]);
        }
        let value = self.inner.fulfill_one(config)?;
        self.store.insert(config.clone(), value);
        self.stats.simulated += 1;
        if let Some(obs) = &self.obs {
            obs.simulated.inc();
            if obs.tracer.enabled() {
                obs.tracer.emit(
                    "query",
                    vec![("decision", "simulated".into()), ("forced", true.into())],
                );
            }
        }
        self.maybe_fit_variogram();
        self.maybe_revalidate_approx();
        Ok(value)
    }

    /// Identifies the variogram over the store once it is due (the live
    /// path of [`HybridEvaluator::simulate_exact`]; a batch stages its fit
    /// at commit instead).
    fn maybe_fit_variogram(&mut self) {
        let has_model = self.model.is_some();
        if !self.settings.variogram.fit_due(has_model, self.store.len()) {
            return;
        }
        let fit = self.identify(self.store.configs(), self.store.values());
        self.install_fit(fit);
        // The fit sets the model every prediction reads, so the
        // approximate-path accuracy validation is re-run against it.
        self.revalidate_approx();
    }

    /// Whether the opt-in approximate prediction path is currently active —
    /// `true` only when [`HybridSettings::approx`] is set *and* the last
    /// leave-one-out validation stayed within its declared `epsilon`.
    pub fn approx_active(&self) -> bool {
        self.approx_active
    }

    /// Re-runs the approximate-path validation if the store has grown by
    /// [`ApproxSettings::check_every`] sites since the last check (the
    /// trigger between fits, and the only one under
    /// [`VariogramPolicy::Fixed`]), or if a
    /// model is present but no validation has ever seen it — sessions born
    /// with a fixed model have no fit event, and without this trigger they
    /// would krige exactly for their first `check_every` insertions.
    fn maybe_revalidate_approx(&mut self) {
        let Some(approx) = &self.settings.approx else {
            return;
        };
        let first_opportunity =
            !self.approx_validated && self.model.is_some() && !self.store.is_empty();
        if first_opportunity
            || self.store.len() >= self.approx_checked_at + approx.check_every.max(1)
        {
            self.revalidate_approx();
        }
    }

    /// Fast leave-one-out cross-validation of the screened-neighbour
    /// approximation (Le Gratiet & Cannamela's cheap accuracy check): a
    /// stride sample of stored sites is predicted from its own neighbours
    /// twice — once with the exact neighbour cap, once screened to
    /// [`ApproxSettings::screen_to`] — and the approximate path stays
    /// active only if every sampled deviation is within the declared
    /// `epsilon`. Sites whose neighbourhoods never exceed `screen_to`
    /// exercise no approximation and impose no constraint.
    fn revalidate_approx(&mut self) {
        let Some(approx) = self.settings.approx else {
            return;
        };
        self.approx_checked_at = self.store.len();
        let Some(model) = self.model else {
            self.approx_active = false;
            return;
        };
        self.approx_validated = true;
        let metric = self.settings.metric;
        let distance = self.settings.distance;
        let min_neighbors = self.settings.min_neighbors;
        let max_neighbors = self.settings.max_neighbors;
        let gate = self.settings.gate;
        let nugget = self.effective_nugget();
        let screen_to = approx.screen_to.max(1);
        let store = &self.store;
        let scratch = &mut self.krige_scratch;
        let value_buf = &mut self.value_buf;
        let neighbor_buf = &mut self.neighbor_buf;
        let table = retarget(&mut self.gamma_table, model, metric);
        let len = store.len();
        let step = (len / approx.loo_samples.max(1)).max(1);
        let mut active = true;
        let mut i = 0;
        while i < len && active {
            let target = &store.configs()[i];
            store.within_into(target, distance, neighbor_buf);
            // Leave-one-out: the site itself (distance 0) must not predict
            // itself.
            neighbor_buf.retain(|&(p, _)| p != i);
            if let Some(cap) = max_neighbors {
                neighbor_buf.truncate(cap);
            }
            if neighbor_buf.len() > screen_to && gate.admits(neighbor_buf.len(), min_neighbors) {
                let exact = krige_with(
                    scratch,
                    table,
                    store,
                    value_buf,
                    neighbor_buf,
                    target,
                    nugget,
                );
                let screened = krige_with(
                    scratch,
                    table,
                    store,
                    value_buf,
                    &neighbor_buf[..screen_to],
                    target,
                    nugget,
                );
                active = match (exact, screened) {
                    (Ok((ev, _)), Ok((av, _))) => {
                        (av - ev).abs() <= approx.epsilon * ev.abs().max(1.0)
                    }
                    // An exact-path failure is not the approximation's
                    // fault; only converged exact solves judge it.
                    (Err(_), _) => true,
                    (Ok(_), Err(_)) => false,
                };
            }
            i += step;
        }
        self.approx_active = active;
        if let Some(obs) = &self.obs {
            if obs.tracer.enabled() {
                obs.tracer.emit(
                    "approx_validation",
                    vec![("active", active.into()), ("at", len.into())],
                );
            }
        }
    }

    /// The nugget variance `c` every solve of the session uses: the fixed
    /// value, or 0 when nugget handling is off.
    pub fn effective_nugget(&self) -> f64 {
        match self.settings.nugget {
            None => 0.0,
            Some(NuggetPolicy::Fixed { value }) => value,
        }
    }

    /// The session state a kriging solve reads now, as the memo's stamp;
    /// `None` while no model exists (nothing can krige).
    fn memo_stamp(&self) -> Option<Stamp> {
        self.model.map(|_| Stamp {
            store_len: self.store.len(),
            approx: self.approx_active,
        })
    }

    /// Forgets every kept kriged answer, so the next query of any
    /// configuration solves (the memo-free reference of the exactness
    /// tests).
    #[cfg(test)]
    fn forget_memo(&mut self) {
        self.memo.forget();
    }

    /// Session statistics (Table I raw material).
    pub fn stats(&self) -> &HybridStats {
        &self.stats
    }

    /// The settings in use.
    pub fn settings(&self) -> &HybridSettings {
        &self.settings
    }

    /// The identified (or fixed) variogram model, once available.
    pub fn model(&self) -> Option<&VariogramModel> {
        self.model.as_ref()
    }

    /// The identification report, if a fit was performed.
    pub fn fit_report(&self) -> Option<&FitReport> {
        self.fit_report.as_ref()
    }

    /// Configurations simulated so far (the matrix `W_sim`).
    pub fn simulated_configs(&self) -> &[Config] {
        self.store.configs()
    }

    /// Metric values of the simulated configurations (`λ_sim`).
    pub fn simulated_values(&self) -> &[f64] {
        self.store.values()
    }

    /// Restores session state from a snapshot (internal; see
    /// [`crate::hybrid_snapshot::SessionSnapshot`]) and forgets every kept
    /// kriged answer.
    pub(crate) fn restore(&mut self, snapshot: crate::hybrid_snapshot::SessionSnapshot) {
        for (config, value) in snapshot.configs.into_iter().zip(snapshot.values) {
            self.store.insert(config, value);
        }
        if snapshot.model.is_some() {
            self.model = snapshot.model;
        }
        self.stats = snapshot.stats;
        // The model is the one part of the session state a memo stamp does
        // not name, and a snapshot may set it without a single site.
        self.memo.forget();
    }

    /// Borrows the inner simulation evaluator.
    pub fn inner_ref(&self) -> &E {
        &self.inner
    }

    /// Consumes the wrapper and returns the inner evaluator.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

/// One single-target kriged prediction for the approximate path's
/// leave-one-out validation: solve the neighbour system through the
/// γ-table, interpolate, and apply the same plausibility envelope and
/// nugget handling as the decision path's commit (an implausible prediction
/// is an `Err`).
///
/// Free function over disjoint `HybridEvaluator` fields so the borrow of the
/// neighbour buffer can coexist with the mutable scratch borrows.
fn krige_with(
    scratch: &mut KrigingScratch,
    table: &mut GammaTable,
    store: &NeighborIndex,
    value_buf: &mut Vec<f64>,
    neighbors: &[(usize, f64)],
    target: &Config,
    nugget: f64,
) -> Result<(f64, f64), crate::CoreError> {
    let configs = store.configs();
    let values = store.values();
    let n = neighbors.len();
    value_buf.clear();
    value_buf.extend(neighbors.iter().map(|&(j, _)| values[j]));
    scratch.solve_with(n, |i, j| {
        let a = &configs[neighbors[i].0];
        let g = if j == n {
            table.gamma_pair(a, target)
        } else {
            table.gamma_pair(a, &configs[neighbors[j].0])
        };
        if nugget != 0.0 {
            g + nugget
        } else {
            g
        }
    })?;
    let value = scratch.interpolate(value_buf);
    let variance = scratch.variance();
    if !plausible(value, variance, value_buf) {
        return Err(crate::CoreError::SingularSystem { sites: n });
    }
    Ok((value, variance))
}

/// The session γ-table, built on first use and re-targeted at `model`.
fn retarget(
    slot: &mut Option<GammaTable>,
    model: VariogramModel,
    metric: DistanceMetric,
) -> &mut GammaTable {
    let table = slot.get_or_insert_with(|| GammaTable::new(model, metric));
    if !table.matches(&model, metric) {
        table.reset(model, metric);
    }
    table
}

/// The plausibility envelope: a short-range interpolation has no business
/// leaving its neighbours' value range by more than that range's spread. A
/// violation, or a non-finite result, indicates a mis-fit variogram or ill
/// conditioning, and the query falls back to simulation.
fn plausible(value: f64, variance: f64, neighbor_values: &[f64]) -> bool {
    let lo = neighbor_values
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let hi = neighbor_values
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let spread = (hi - lo).max(1e-9);
    value.is_finite()
        && variance.is_finite()
        && value >= lo - 2.0 * spread
        && value <= hi + 2.0 * spread
}

/// Computes the audit error in the units of `metric` (Eq. 11 or Eq. 12).
fn audit_error(metric: AuditMetric, interpolated: f64, real: f64) -> f64 {
    match metric {
        // λ = −P_dB, so λ̂ − λ = P_dB − P̂_dB and
        // |log₂(P̂/P)| = |P̂_dB − P_dB| / (10·log₁₀ 2).
        AuditMetric::NoisePowerDb => (interpolated - real).abs() / (10.0 * 2f64.log10()),
        AuditMetric::Relative => (interpolated - real).abs() / real.abs().max(f64::MIN_POSITIVE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::AccuracyEvaluator;
    use crate::FnEvaluator;
    use krigeval_obs::{RingSink, TraceSink};
    use std::sync::Arc;

    fn smooth_eval() -> FnEvaluator<impl FnMut(&Config) -> Result<f64, EvalError>> {
        // The additive quantization-noise model of the word-length
        // benchmarks: accuracy −10·log₁₀(Σ gᵢ·2^(−2wᵢ)) — smooth, monotone,
        // ~6 dB per bit on the dominant variable.
        FnEvaluator::new(2, |w: &Config| {
            let p = 1.5 * 2f64.powi(-2 * w[0]) + 0.8 * 2f64.powi(-2 * w[1]);
            Ok(-10.0 * p.log10())
        })
    }

    fn settings(d: f64) -> HybridSettings {
        HybridSettings {
            distance: d,
            ..HybridSettings::default()
        }
    }

    #[test]
    fn invalid_settings_are_rejected_with_typed_errors() {
        let cases = [
            HybridSettings {
                distance: 0.0,
                ..HybridSettings::default()
            },
            HybridSettings {
                distance: f64::NAN,
                ..HybridSettings::default()
            },
            HybridSettings {
                distance: f64::INFINITY,
                ..HybridSettings::default()
            },
            HybridSettings {
                min_neighbors: 0,
                ..HybridSettings::default()
            },
            HybridSettings {
                gate: GatePolicy::Variance {
                    threshold: f64::NAN,
                },
                ..HybridSettings::default()
            },
            HybridSettings {
                gate: GatePolicy::Variance { threshold: 0.0 },
                ..HybridSettings::default()
            },
            HybridSettings {
                nugget: Some(NuggetPolicy::Fixed { value: -0.5 }),
                ..HybridSettings::default()
            },
        ];
        for bad in cases {
            let err = HybridEvaluator::try_new(smooth_eval(), bad.clone())
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidSettings { .. }),
                "{bad:?} -> {err}"
            );
        }
        // An infinite variance threshold is legal (degenerates to Fixed).
        let ok = HybridSettings {
            gate: GatePolicy::Variance {
                threshold: f64::INFINITY,
            },
            ..HybridSettings::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid hybrid settings")]
    fn new_panics_on_invalid_settings() {
        let _ = HybridEvaluator::new(
            smooth_eval(),
            HybridSettings {
                min_neighbors: 0,
                ..HybridSettings::default()
            },
        );
    }

    #[test]
    fn gate_labels_are_stable() {
        assert_eq!(GatePolicy::Fixed.label(), "fixed");
        assert_eq!(
            GatePolicy::Variance { threshold: 0.5 }.label(),
            "variance(0.5)"
        );
    }

    #[test]
    fn zero_fixed_nugget_matches_no_nugget_bitwise() {
        let run = |nugget: Option<NuggetPolicy>| -> Vec<u64> {
            let mut h = HybridEvaluator::new(
                smooth_eval(),
                HybridSettings {
                    nugget,
                    ..settings(3.0)
                },
            );
            let mut bits = Vec::new();
            for a in 6..11 {
                for b in 6..10 {
                    bits.push(h.evaluate(&vec![a, b]).unwrap().value().to_bits());
                }
            }
            for b in 6..10 {
                bits.push(h.evaluate(&vec![11, b]).unwrap().value().to_bits());
            }
            bits
        };
        assert_eq!(run(None), run(Some(NuggetPolicy::Fixed { value: 0.0 })));
    }

    #[test]
    fn first_queries_are_simulated() {
        let mut h = HybridEvaluator::new(smooth_eval(), settings(3.0));
        for i in 0..5 {
            let out = h.evaluate(&vec![8 + i, 8]).unwrap();
            assert!(matches!(out, Outcome::Simulated { .. }));
        }
        assert_eq!(h.stats().simulated, 5);
        assert_eq!(h.stats().kriged, 0);
    }

    #[test]
    fn dense_sampling_enables_kriging() {
        let mut h = HybridEvaluator::new(smooth_eval(), settings(3.0));
        for a in 6..11 {
            for b in 6..10 {
                h.evaluate(&vec![a, b]).unwrap();
            }
        }
        let before = h.stats().kriged;
        let out = h.evaluate(&vec![8, 10]).unwrap();
        assert!(matches!(out, Outcome::Kriged { .. }), "{out:?}");
        assert_eq!(h.stats().kriged, before + 1);
    }

    #[test]
    fn kriged_configs_are_not_stored() {
        let mut h = HybridEvaluator::new(smooth_eval(), settings(3.0));
        for a in 6..11 {
            for b in 6..10 {
                h.evaluate(&vec![a, b]).unwrap();
            }
        }
        let stored_before = h.simulated_configs().len();
        let out = h.evaluate(&vec![8, 10]).unwrap();
        assert!(matches!(out, Outcome::Kriged { .. }));
        assert_eq!(h.simulated_configs().len(), stored_before);
    }

    #[test]
    fn duplicate_queries_hit_the_cache() {
        let mut h = HybridEvaluator::new(smooth_eval(), settings(2.0));
        let w = vec![9, 9];
        let first = h.evaluate(&w).unwrap().value();
        let inner_calls = {
            let s = h.stats().clone();
            s.simulated
        };
        let second = h.evaluate(&w).unwrap().value();
        assert_eq!(first, second);
        assert_eq!(h.stats().cache_hits, 1);
        assert_eq!(h.stats().simulated, inner_calls, "no extra simulation");
    }

    #[test]
    fn kriging_accuracy_on_smooth_surface() {
        // Defer identification until the whole 25-point grid is simulated so
        // the test measures pure interpolation accuracy, not the (legitimate
        // but noisy) cold-start extrapolation the paper also exhibits.
        let mut s = settings(4.0);
        s.variogram = VariogramPolicy::FitAfter {
            min_samples: 25,
            families: ModelFamily::all().to_vec(),
            fallback: VariogramModel::linear(1.0),
        };
        let mut h = HybridEvaluator::new(smooth_eval(), s);
        for a in (4..14).step_by(2) {
            for b in (4..14).step_by(2) {
                h.evaluate(&vec![a, b]).unwrap();
            }
        }
        // Interpolate odd lattice points and compare against the truth.
        let mut reference = smooth_eval();
        let mut worst: f64 = 0.0;
        let mut kriged_count = 0;
        for a in [5, 7, 9, 11] {
            for b in [5, 7, 9, 11] {
                let w = vec![a, b];
                if let Outcome::Kriged { value, .. } = h.evaluate(&w).unwrap() {
                    let truth = reference.evaluate(&w).unwrap();
                    worst = worst.max((value - truth).abs());
                    kriged_count += 1;
                }
            }
        }
        assert!(kriged_count >= 12, "only {kriged_count} kriged");
        // The paper's own max ε at d = 4 reaches 2.3 bits (≈7 dB); interior
        // interpolation here must stay well inside that envelope.
        assert!(worst < 3.5, "worst abs error {worst} dB (≈1.2 bit budget)");
    }

    #[test]
    fn min_neighbors_is_strict() {
        // With min_neighbors = usize::MAX nothing can ever be kriged.
        let mut s = settings(10.0);
        s.min_neighbors = usize::MAX;
        let mut h = HybridEvaluator::new(smooth_eval(), s);
        for a in 4..12 {
            h.evaluate(&vec![a, 8]).unwrap();
        }
        assert_eq!(h.stats().kriged, 0);
    }

    #[test]
    fn larger_distance_interpolates_more() {
        let run = |d: f64| -> f64 {
            let mut h = HybridEvaluator::new(smooth_eval(), settings(d));
            // A fixed query stream mimicking an optimizer trajectory.
            for a in 4..14 {
                h.evaluate(&vec![a, 8]).unwrap();
                h.evaluate(&vec![a, 9]).unwrap();
                h.evaluate(&vec![8, a]).unwrap();
            }
            h.stats().interpolated_fraction()
        };
        let p2 = run(2.0);
        let p5 = run(5.0);
        assert!(p5 >= p2, "p(d=5) = {p5} < p(d=2) = {p2}");
        assert!(p5 > 0.0);
    }

    #[test]
    fn audit_mode_records_errors_without_storing() {
        let mut s = settings(4.0);
        s.audit = Some(AuditMetric::NoisePowerDb);
        s.variogram = VariogramPolicy::FitAfter {
            min_samples: 25,
            families: ModelFamily::all().to_vec(),
            fallback: VariogramModel::linear(1.0),
        };
        let mut h = HybridEvaluator::new(smooth_eval(), s);
        for a in (4..14).step_by(2) {
            for b in (4..14).step_by(2) {
                h.evaluate(&vec![a, b]).unwrap();
            }
        }
        let stored = h.simulated_configs().len();
        for a in [5, 7, 9] {
            h.evaluate(&vec![a, 7]).unwrap();
        }
        assert!(h.stats().errors.count() > 0, "audit recorded nothing");
        assert_eq!(h.simulated_configs().len(), stored);
        // Interior interpolation on a smooth surface: well under 1 bit.
        assert!(h.stats().errors.mean() < 1.0, "{:?}", h.stats().errors);
    }

    #[test]
    fn fixed_model_kriges_immediately_once_neighbors_exist() {
        let mut s = settings(5.0);
        s.variogram = VariogramPolicy::Fixed(VariogramModel::linear(1.0));
        let mut h = HybridEvaluator::new(smooth_eval(), s);
        for a in 6..10 {
            h.evaluate(&vec![a, 8]).unwrap();
        }
        let out = h.evaluate(&vec![7, 9]).unwrap();
        assert!(matches!(out, Outcome::Kriged { .. }), "{out:?}");
    }

    #[test]
    fn fit_report_is_available_after_identification() {
        let mut h = HybridEvaluator::new(smooth_eval(), settings(3.0));
        for a in 4..15 {
            h.evaluate(&vec![a, a]).unwrap();
        }
        assert!(h.model().is_some());
        assert!(h.fit_report().is_some());
    }

    #[test]
    fn near_duplicate_sites_do_not_escalate_to_errors() {
        // A restored session can hold the same configuration twice with
        // noisy values (merged journals of a stochastic simulator). The
        // kriging matrix then has duplicate rows — classically singular.
        // The per-prediction contract: the system is either regularized or
        // the query falls back to simulation (counted in
        // `kriging_failures`); a `CoreError::SingularSystem` must never
        // surface as an optimizer-level error.
        let mut s = settings(5.0);
        s.variogram = VariogramPolicy::Fixed(VariogramModel::linear(1.0));
        let mut h = HybridEvaluator::new(smooth_eval(), s);
        h.restore(crate::hybrid_snapshot::SessionSnapshot {
            configs: vec![vec![8, 8], vec![8, 8], vec![9, 8], vec![8, 9], vec![7, 8]],
            values: vec![60.0, 60.3, 54.0, 55.0, 66.0],
            model: None,
            stats: HybridStats {
                queries: 5,
                simulated: 5,
                ..HybridStats::default()
            },
        });
        let out = h.evaluate(&vec![9, 9]).expect("query must not error");
        // Whichever way the solver resolved it, the query was answered and
        // the accounting stayed consistent.
        let s = h.stats();
        assert_eq!(s.queries, 6);
        assert_eq!(s.queries, s.simulated + s.kriged + s.cache_hits);
        let _ = out;
    }

    #[test]
    fn implausible_prediction_falls_back_to_simulation_per_query() {
        // Colinear sites under an ultra-smooth Gaussian model make the
        // extrapolation weights oscillate (polynomial-extrapolation
        // behaviour); with near-constant jittered values the prediction
        // leaves the plausibility envelope. That must be a *per-query*
        // fall-back-to-simulation decision counted in `kriging_failures`,
        // not an error.
        let mut s = settings(10.0);
        s.variogram =
            VariogramPolicy::Fixed(VariogramModel::gaussian(0.0, 1.0, 50.0).expect("valid model"));
        let configs: Vec<Config> = (4..=11).map(|a| vec![a, 8]).collect();
        let values: Vec<f64> = (0..configs.len())
            .map(|i| 60.0 + if i % 2 == 0 { 1e-3 } else { -1e-3 })
            .collect();
        let n = configs.len() as u64;
        let mut h = HybridEvaluator::new(FnEvaluator::new(2, |_: &Config| Ok(60.0)), s);
        h.restore(crate::hybrid_snapshot::SessionSnapshot {
            configs,
            values,
            model: None,
            stats: HybridStats {
                queries: n,
                simulated: n,
                ..HybridStats::default()
            },
        });
        // Extrapolate past the end of the line.
        let out = h.evaluate(&vec![14, 8]).expect("fallback, not an error");
        assert!(
            matches!(out, Outcome::Simulated { .. }),
            "expected simulation fallback, got {out:?}"
        );
        assert_eq!(h.stats().kriging_failures, 1, "fallback must be counted");
        // The session remains usable: an interior query still kriges.
        let interior = h.evaluate(&vec![7, 8]).unwrap();
        let _ = interior;
        assert_eq!(
            h.stats().queries,
            h.stats().simulated + h.stats().kriged + h.stats().cache_hits
        );
    }

    #[test]
    fn audit_error_units() {
        // 3.0103 dB difference = exactly 1 equivalent bit.
        let e = audit_error(AuditMetric::NoisePowerDb, 63.0103, 60.0);
        assert!((e - 1.0).abs() < 1e-6, "e = {e}");
        let r = audit_error(AuditMetric::Relative, 0.9, 1.0);
        assert!((r - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stats_fractions() {
        let mut s = HybridStats::default();
        assert_eq!(s.interpolated_fraction(), 0.0);
        assert_eq!(s.mean_neighbors(), 0.0);
        s.queries = 10;
        s.kriged = 4;
        s.neighbor_sum = 14;
        assert!((s.interpolated_fraction() - 0.4).abs() < 1e-12);
        assert!((s.mean_neighbors() - 3.5).abs() < 1e-12);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn stats_invariants_hold_on_random_query_streams(
                queries in proptest::collection::vec((4i32..14, 4i32..14), 5..60),
                d in 2.0f64..5.0,
            ) {
                let mut h = HybridEvaluator::new(smooth_eval(), settings(d));
                for (a, b) in queries {
                    let _ = h.evaluate(&vec![a, b]).unwrap();
                }
                let s = h.stats();
                // Every query is exactly one of: simulated, kriged, cached.
                prop_assert_eq!(s.queries, s.simulated + s.kriged + s.cache_hits);
                // The store holds exactly the simulated configurations.
                prop_assert_eq!(h.simulated_configs().len() as u64, s.simulated);
                // Kriged queries each used more than min_neighbors sites.
                if s.kriged > 0 {
                    prop_assert!(s.mean_neighbors() > 3.0);
                }
                // No duplicates in the simulated store.
                let mut seen = std::collections::HashSet::new();
                for c in h.simulated_configs() {
                    prop_assert!(seen.insert(c.clone()), "duplicate stored: {:?}", c);
                }
            }

            #[test]
            fn evaluate_batch_matches_sequential_evaluate(
                warm in proptest::collection::vec((4i32..14, 4i32..14), 8..30),
                batch in proptest::collection::vec((4i32..14, 4i32..14), 1..20),
                d in 2.0f64..5.0,
            ) {
                let mut seq = HybridEvaluator::new(smooth_eval(), settings(d));
                let mut bat = HybridEvaluator::new(smooth_eval(), settings(d));
                for &(a, b) in &warm {
                    seq.evaluate(&vec![a, b]).unwrap();
                    bat.evaluate(&vec![a, b]).unwrap();
                }
                let configs: Vec<Config> =
                    batch.iter().map(|&(a, b)| vec![a, b]).collect();
                let batched = bat.evaluate_batch(&configs).unwrap();
                let sequential: Vec<Outcome> = configs
                    .iter()
                    .map(|c| seq.evaluate(c).unwrap())
                    .collect();
                // What batching changes: a plausibility/solver failure falls
                // back to simulation after the batch's solves instead of at
                // its position, so later queries in the batch see a
                // different store. Equivalence holds exactly when no
                // fallback fired on either side.
                prop_assume!(
                    bat.stats().kriging_failures == 0
                        && seq.stats().kriging_failures == 0
                );
                // Group solves are bitwise equal to single-target ones, so
                // the outcomes match exactly.
                prop_assert_eq!(&batched, &sequential);
                prop_assert_eq!(bat.stats().queries, seq.stats().queries);
                prop_assert_eq!(bat.stats().simulated, seq.stats().simulated);
                prop_assert_eq!(bat.stats().kriged, seq.stats().kriged);
                prop_assert_eq!(bat.stats().cache_hits, seq.stats().cache_hits);
                prop_assert_eq!(
                    bat.simulated_configs().len(),
                    seq.simulated_configs().len()
                );
            }

            #[test]
            fn evaluate_value_equals_outcome_value(
                a in 4i32..14, b in 4i32..14,
            ) {
                let mut h1 = HybridEvaluator::new(smooth_eval(), settings(3.0));
                let mut h2 = HybridEvaluator::new(smooth_eval(), settings(3.0));
                for x in 4..10 {
                    h1.evaluate(&vec![x, 8]).unwrap();
                    h2.evaluate(&vec![x, 8]).unwrap();
                }
                let v1 = h1.evaluate(&vec![a, b]).unwrap().value();
                let v2 = h2.evaluate_value(&vec![a, b]).unwrap();
                prop_assert_eq!(v1, v2);
            }
        }
    }

    #[test]
    fn failed_batch_commits_nothing() {
        // Satellite contract: a batch that errors is all-or-nothing — no
        // counters, no stored configurations, no model state.
        let mut h = HybridEvaluator::new(
            FnEvaluator::new(2, |w: &Config| {
                if w[0] >= 12 {
                    Err(EvalError::msg("simulator rejects w0 >= 12"))
                } else {
                    let p = 1.5 * 2f64.powi(-2 * w[0]) + 0.8 * 2f64.powi(-2 * w[1]);
                    Ok(-10.0 * p.log10())
                }
            }),
            settings(3.0),
        );
        h.evaluate(&vec![8, 8]).unwrap();
        let stats_before = h.stats().clone();
        let stored_before = h.simulated_configs().to_vec();
        let err = h
            .evaluate_batch(&[vec![9, 8], vec![12, 8], vec![10, 8]])
            .unwrap_err();
        assert!(err.to_string().contains("rejects"), "{err}");
        assert_eq!(h.stats(), &stats_before, "counters must be untouched");
        assert_eq!(h.simulated_configs(), stored_before.as_slice());
        assert!(h.model().is_none(), "no fit may have been committed");
        // The session stays fully usable afterwards.
        let ok = h.evaluate_batch(&[vec![9, 8], vec![10, 8]]).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(h.stats().queries, stats_before.queries + 2);
    }

    /// A session whose metrics land in `registry` and whose decision
    /// events land in an in-memory ring.
    fn ring_traced<E: EvalBackend>(
        inner: E,
        settings: HybridSettings,
        registry: &Registry,
    ) -> (HybridEvaluator<E>, Arc<RingSink>) {
        let ring = Arc::new(RingSink::new(4096));
        let sinks: Vec<Arc<dyn TraceSink>> = vec![ring.clone()];
        let obs = HybridObs::new(registry, Tracer::new(sinks));
        (HybridEvaluator::new(inner, settings).with_obs(obs), ring)
    }

    #[test]
    fn failed_mid_batch_fit_selects_no_model() {
        // Under leave-one-out selection only a fit that succeeds selects a
        // model; a failed fit installs the fallback silently. Each session
        // below fits once, inside one batch.
        let loo = |min_samples| HybridSettings {
            variogram: VariogramPolicy::FitAfter {
                min_samples,
                families: ModelFamily::all().to_vec(),
                fallback: VariogramModel::linear(1.0),
            },
            selection: ModelSelection::LeaveOneOut,
            ..settings(3.0)
        };
        // A 3×3 grid with spacing 4: no site is within d = 3 of another,
        // so every query is simulated.
        let grid: Vec<Config> = (0..9)
            .map(|i| vec![4 + 4 * (i % 3), 4 + 4 * (i / 3)])
            .collect();
        let run = |min_samples| {
            let (mut h, ring) = ring_traced(smooth_eval(), loo(min_samples), &Registry::new());
            h.evaluate_batch(&grid).unwrap();
            let events = ring.snapshot();
            let fits: Vec<_> = events
                .iter()
                .filter(|e| e.name == "variogram_fit")
                .map(|e| e.fields.clone())
                .collect();
            assert_eq!(fits, vec![vec![("at", min_samples.into())]], "{events:?}");
            let selected: Vec<_> = events
                .iter()
                .filter(|e| e.name == "model_selected")
                .map(|e| e.fields.clone())
                .collect();
            (h, selected)
        };
        // One site has no variogram pairs, so the fit at 1 sample fails.
        let (failed, selected) = run(1);
        assert_eq!(selected, Vec::<Vec<_>>::new());
        assert_eq!(failed.model(), Some(&VariogramModel::linear(1.0)));
        assert!(failed.fit_report().is_none());
        // Five sites fit, four queries before the end of the batch.
        let (fitted, selected) = run(5);
        let report = fitted.fit_report().expect("the fit at 5 sites succeeds");
        assert_eq!(fitted.model(), Some(&report.model));
        let family = report.model.family_name();
        assert_eq!(selected, vec![vec![("family", family.into())]]);
    }

    #[test]
    fn evaluate_and_batch_of_one_emit_identical_query_events() {
        let mut truth = smooth_eval();
        let grid: Vec<Config> = (6..11)
            .flat_map(|a| (6..10).map(move |b| vec![a, b]))
            .collect();
        let grid_values: Vec<f64> = grid.iter().map(|c| truth.evaluate(c).unwrap()).collect();
        // The colinear, near-constant line of
        // `implausible_prediction_falls_back_to_simulation_per_query`.
        let line: Vec<Config> = (4..=11).map(|a| vec![a, 8]).collect();
        let line_values: Vec<f64> = (4..=11)
            .map(|a| 60.0 + if a % 2 == 0 { 1e-3 } else { -1e-3 })
            .collect();
        let fixed = |model, gate, d| HybridSettings {
            variogram: VariogramPolicy::Fixed(model),
            gate,
            ..settings(d)
        };
        let linear = VariogramModel::linear(1.0);
        let gaussian = VariogramModel::gaussian(0.0, 1.0, 50.0).expect("valid model");
        let tiny = GatePolicy::Variance { threshold: 1e-300 };
        let scenarios = [
            // kriged, simulated, cache_hit
            (
                fixed(linear, GatePolicy::Fixed, 3.0),
                &grid,
                &grid_values,
                vec![vec![8, 10], vec![20, 20], vec![6, 6]],
            ),
            (
                fixed(linear, tiny, 3.0),
                &grid,
                &grid_values,
                vec![vec![8, 10]],
            ),
            (
                fixed(gaussian, GatePolicy::Fixed, 10.0),
                &line,
                &line_values,
                vec![vec![14, 8]],
            ),
        ];
        let mut all = Vec::new();
        for (s, configs, values, probes) in scenarios {
            let run = |batched: bool| -> Vec<String> {
                let (mut h, ring) = ring_traced(smooth_eval(), s.clone(), &Registry::new());
                h.restore(crate::hybrid_snapshot::SessionSnapshot {
                    configs: configs.clone(),
                    values: values.clone(),
                    model: None,
                    stats: HybridStats::default(),
                });
                for p in &probes {
                    if batched {
                        h.evaluate_batch(std::slice::from_ref(p)).unwrap();
                    } else {
                        h.evaluate(p).unwrap();
                    }
                }
                let events = ring.snapshot();
                let queries = events.iter().filter(|e| e.name == "query");
                queries.map(|e| e.render_json(true)).collect()
            };
            let single = run(false);
            assert_eq!(single, run(true));
            all.extend(single);
        }
        for decision in [
            "cache_hit",
            "simulated",
            "kriged",
            "fallback",
            "gate_rejected",
        ] {
            let tag = format!("\"decision\":\"{decision}\"");
            assert!(all.iter().any(|e| e.contains(&tag)), "{decision}: {all:?}");
        }
        let retries = all.iter().any(|e| e.contains("\"jitter_retries\":"));
        assert!(retries, "{all:?}");
    }

    #[test]
    fn mid_batch_fits_match_sequential() {
        // A batch long enough to cross the FitAfter threshold mid-way: the
        // planner schedules the fit, commit replays it, and both the model
        // and the post-fit kriging decisions match one-at-a-time queries. A
        // linear surface keeps every prediction inside the plausibility
        // envelope, so no fallback simulations muddy the comparison (a
        // fallback is the one thing batching moves).
        let lin = || {
            FnEvaluator::new(2, |w: &Config| {
                Ok(6.0 * f64::from(w[0]) + 3.0 * f64::from(w[1]))
            })
        };
        let mut seq = HybridEvaluator::new(lin(), settings(4.0));
        let mut bat = HybridEvaluator::new(lin(), settings(4.0));
        // Warm both sessions one short of the 10-sample fit threshold with a
        // well-spread 2-D grid (stable kriging geometry), then stream a
        // batch whose first simulation triggers the fit.
        for a in [4, 6, 8] {
            for b in [4, 6, 8] {
                seq.evaluate(&vec![a, b]).unwrap();
                bat.evaluate(&vec![a, b]).unwrap();
            }
        }
        let stream: Vec<Config> = vec![
            vec![5, 5],
            vec![5, 6],
            vec![6, 5],
            vec![6, 6],
            vec![7, 6],
            vec![6, 7],
            vec![5, 7],
            vec![7, 5],
        ];
        for c in &stream {
            seq.evaluate(c).unwrap();
        }
        let outcomes = bat.evaluate_batch(&stream).unwrap();
        assert_eq!(seq.stats().kriging_failures, 0, "{:?}", seq.stats());
        assert_eq!(bat.stats().kriging_failures, 0, "{:?}", bat.stats());
        assert!(seq.model().is_some() && bat.model().is_some());
        assert_eq!(bat.model(), seq.model(), "replayed fit must match");
        assert_eq!(bat.stats().kriged, seq.stats().kriged);
        assert_eq!(bat.stats().simulated, seq.stats().simulated);
        assert!(outcomes.iter().any(|o| o.source() == Source::Kriged));
    }

    #[test]
    fn into_inner_returns_the_simulator() {
        let h = HybridEvaluator::new(smooth_eval(), settings(2.0));
        let inner = h.into_inner();
        assert_eq!(AccuracyEvaluator::num_variables(&inner), 2);
    }

    #[test]
    fn fixed_model_sessions_validate_approx_before_the_growth_window() {
        // A session born with a fixed model (the campaign pilot-variogram
        // path) has no fit event to trigger the first leave-one-out check;
        // it must validate at the first insertion rather than silently
        // kriging exactly for its first `check_every` insertions.
        let fixed = VariogramModel::linear(1.0);
        let mut h = HybridEvaluator::new(
            smooth_eval(),
            HybridSettings {
                distance: 3.0,
                variogram: VariogramPolicy::Fixed(fixed),
                approx: Some(ApproxSettings {
                    screen_to: 2,
                    epsilon: 1e9,
                    loo_samples: 8,
                    check_every: 1000,
                }),
                ..HybridSettings::default()
            },
        );
        for a in 4..8 {
            for b in 4..8 {
                h.simulate_exact(&vec![a, b]).unwrap();
            }
        }
        assert!(
            h.approx_active(),
            "16 insertions with a fixed model and ε = 1e9 must leave the \
             approximation active long before check_every = 1000"
        );
        let out = h.evaluate(&vec![8, 6]).unwrap();
        let Outcome::Kriged { neighbors, .. } = out else {
            panic!("a target beside the block must krige, got {out:?}");
        };
        assert_eq!(
            neighbors, 2,
            "active screening must cap the system at screen_to"
        );
    }

    /// `Debug` renders every `f64` round-trip exactly, so equal strings
    /// mean equal bits.
    fn bits<T: std::fmt::Debug>(value: &T) -> String {
        format!("{value:?}")
    }

    /// A session on `smooth_eval` with a fixed linear model over a 6×5
    /// grid of stored sites, probed at `[10, 6]` (nine neighbours at
    /// d = 3).
    fn grid_session(settings: HybridSettings) -> HybridEvaluator<impl EvalBackend> {
        let mut truth = smooth_eval();
        let configs: Vec<Config> = (4..10)
            .flat_map(|a| (4..9).map(move |b| vec![a, b]))
            .collect();
        let values = configs.iter().map(|c| truth.evaluate(c).unwrap()).collect();
        let mut h = HybridEvaluator::new(smooth_eval(), settings);
        h.restore(crate::hybrid_snapshot::SessionSnapshot {
            configs,
            values,
            model: Some(VariogramModel::linear(1.0)),
            stats: HybridStats::default(),
        });
        h
    }

    /// Queries `probe` twice (solved, then recalled), applies `change`, and
    /// checks that the next answer is the one a memo-free solve gives and
    /// that the change reached the solve.
    fn assert_recall_follows<E: EvalBackend>(
        h: &mut HybridEvaluator<E>,
        probe: &Config,
        change: impl FnOnce(&mut HybridEvaluator<E>),
    ) {
        let before = h.evaluate(probe).unwrap();
        assert_eq!(before.source(), Source::Kriged, "{before:?}");
        assert!(matches!(h.batch.slots[0], SlotPlan::Krige { .. }));
        assert_eq!(bits(&h.evaluate(probe).unwrap()), bits(&before));
        assert!(matches!(h.batch.slots[0], SlotPlan::Recalled(_)));
        change(h);
        let after = h.evaluate(probe).unwrap();
        h.forget_memo();
        let solved = h.evaluate(probe).unwrap();
        assert_eq!(bits(&after), bits(&solved));
        assert_ne!(
            bits(&after),
            bits(&before),
            "the change must reach the solve"
        );
    }

    #[test]
    fn an_insertion_inside_the_radius_outdates_recall() {
        let mut h = grid_session(settings(3.0));
        assert_recall_follows(&mut h, &vec![10, 6], |h| {
            h.simulate_exact(&vec![11, 6]).unwrap();
        });
    }

    #[test]
    fn an_approx_validation_flip_outdates_recall() {
        let mut h = grid_session(HybridSettings {
            approx: Some(ApproxSettings {
                screen_to: 4,
                epsilon: 1e9,
                loo_samples: 8,
                check_every: 1000,
            }),
            ..settings(3.0)
        });
        assert!(
            !h.approx_active(),
            "restored sessions validate at the next insertion"
        );
        assert_recall_follows(&mut h, &vec![10, 6], |h| {
            h.simulate_exact(&vec![30, 30]).unwrap();
            assert!(h.approx_active());
        });
    }

    #[test]
    fn a_snapshot_restore_outdates_recall() {
        let mut h = grid_session(settings(3.0));
        assert_recall_follows(&mut h, &vec![10, 6], |h| {
            // No sites, only a model: the store size stays put.
            let stats = h.stats().clone();
            h.restore(crate::hybrid_snapshot::SessionSnapshot {
                configs: Vec::new(),
                values: Vec::new(),
                model: Some(VariogramModel::power(0.0, 2.0, 1.5).expect("valid model")),
                stats,
            });
        });
    }

    #[test]
    fn a_full_memo_solves_what_it_cannot_keep() {
        let linear = || {
            FnEvaluator::new(2, |w: &Config| {
                Ok(6.0 * f64::from(w[0]) + 3.0 * f64::from(w[1]))
            })
        };
        let configs: Vec<Config> = (0..9)
            .flat_map(|a| (0..9).map(move |b| vec![8 * a, 8 * b]))
            .collect();
        let values: Vec<f64> = configs
            .iter()
            .map(|c| 6.0 * f64::from(c[0]) + 3.0 * f64::from(c[1]))
            .collect();
        let mut h = HybridEvaluator::new(
            linear(),
            HybridSettings {
                variogram: VariogramPolicy::Fixed(VariogramModel::linear(1.0)),
                ..settings(12.0)
            },
        );
        h.restore(crate::hybrid_snapshot::SessionSnapshot {
            configs,
            values,
            model: None,
            stats: HybridStats::default(),
        });
        let probes: Vec<Config> = (9..56)
            .flat_map(|a| (9..56).map(move |b| vec![a, b]))
            .filter(|c| c[0] % 8 != 0 || c[1] % 8 != 0)
            .take(memo::CAPACITY + 64)
            .collect();
        let first: Vec<String> = probes
            .iter()
            .map(|p| bits(&h.evaluate(p).unwrap()))
            .collect();
        assert_eq!(h.stats().kriged, probes.len() as u64, "{:?}", h.stats());
        for (i, p) in probes.iter().enumerate() {
            assert_eq!(bits(&h.evaluate(p).unwrap()), first[i]);
            let recalled = matches!(h.batch.slots[0], SlotPlan::Recalled(_));
            assert_eq!(recalled, i < memo::CAPACITY, "probe {i}");
        }
        assert_eq!(h.simulated_configs().len(), 81, "nothing was simulated");
    }

    #[test]
    fn a_pending_simulation_in_the_batch_outdates_recall() {
        let mut h = grid_session(settings(3.0));
        let probe = vec![10, 6];
        let kept = h.evaluate(&probe).unwrap();
        // `[13, 6]` has no stored neighbour, so it is simulated — and the
        // probe, planned after it, sees it as a neighbour.
        let batch = [vec![13, 6], probe];
        let out = h.evaluate_batch(&batch).unwrap();
        assert!(matches!(h.batch.slots[1], SlotPlan::Krige { .. }));
        let reference = grid_session(settings(3.0)).evaluate_batch(&batch).unwrap();
        assert_eq!(bits(&out), bits(&reference));
        assert_ne!(bits(&out[1]), bits(&kept));
    }

    mod memo_proptests {
        use super::*;
        use proptest::prelude::*;

        /// One call of a replayed stream.
        #[derive(Debug, Clone)]
        enum Call {
            One(Config),
            Batch(Vec<Config>),
            /// A forced simulation: it grows the store outside a batch.
            Exact(Config),
        }

        /// A generated call: its kind and configurations.
        type Step = (u8, Vec<(i32, i32)>);

        fn calls(steps: Vec<Step>) -> Vec<Call> {
            let mut out: Vec<Call> = Vec::new();
            for (kind, points) in steps {
                let configs: Vec<Config> = points.iter().map(|&(a, b)| vec![a, b]).collect();
                let call = match kind {
                    0 | 1 => Call::One(configs[0].clone()),
                    2 => Call::Batch(configs),
                    3 => Call::Exact(configs[0].clone()),
                    // Ask the last query again, as designers do.
                    _ => match out.iter().rev().find(|c| !matches!(c, Call::Exact(_))) {
                        Some(previous) => previous.clone(),
                        None => Call::One(configs[0].clone()),
                    },
                };
                out.push(call);
            }
            out
        }

        /// Every observable of a replay — outcome bits, the stats, the
        /// metrics snapshot, the `query` events — and the recalled slots.
        struct Replay {
            outcomes: Vec<String>,
            stats: String,
            metrics: String,
            events: Vec<String>,
            recalled: usize,
        }

        fn replay(settings: &HybridSettings, calls: &[Call], forget: bool) -> Replay {
            let registry = Registry::new();
            let (mut h, ring) = ring_traced(smooth_eval(), settings.clone(), &registry);
            let mut outcomes = Vec::new();
            let mut recalled = 0;
            for call in calls {
                if forget {
                    h.forget_memo();
                }
                match call {
                    Call::One(c) => outcomes.push(bits(&h.evaluate(c).unwrap())),
                    Call::Batch(cs) => outcomes.push(bits(&h.evaluate_batch(cs).unwrap())),
                    Call::Exact(c) => outcomes.push(bits(&h.simulate_exact(c).unwrap())),
                }
                recalled += h
                    .batch
                    .slots
                    .iter()
                    .filter(|s| matches!(s, SlotPlan::Recalled(_)))
                    .count();
            }
            let events = ring
                .snapshot()
                .iter()
                .filter(|e| e.name == "query")
                .map(|e| e.render_json(true))
                .collect();
            Replay {
                outcomes,
                stats: bits(h.stats()),
                metrics: registry.snapshot().to_json(true),
                events,
                recalled,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn recall_changes_no_observable(
                steps in proptest::collection::vec(
                    (0u8..8, proptest::collection::vec((4i32..12, 4i32..12), 1..5)),
                    10..90,
                ),
                d in 2.0f64..5.0,
                (audit, nugget, gated) in (0u8..2, 0u8..2, 0u8..2),
                tau2 in 0.01f64..0.5,
                threshold in 0.05f64..20.0,
            ) {
                let settings = HybridSettings {
                    audit: (audit == 1).then_some(AuditMetric::NoisePowerDb),
                    nugget: (nugget == 1).then_some(NuggetPolicy::Fixed { value: tau2 }),
                    gate: if gated == 1 {
                        GatePolicy::Variance { threshold }
                    } else {
                        GatePolicy::Fixed
                    },
                    ..settings(d)
                };
                let calls = calls(steps);
                let normal = replay(&settings, &calls, false);
                let reference = replay(&settings, &calls, true);
                prop_assert_eq!(reference.recalled, 0);
                prop_assert_eq!(normal.outcomes, reference.outcomes);
                prop_assert_eq!(normal.stats, reference.stats);
                prop_assert_eq!(normal.metrics, reference.metrics);
                prop_assert_eq!(normal.events, reference.events);
            }
        }
    }
}
