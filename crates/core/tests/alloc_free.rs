//! Verifies the zero-allocation contract: once the hybrid evaluator's
//! buffers are warm, a kriged or cached `evaluate` — with or without a
//! metrics bundle attached — performs no heap allocation at all.
//!
//! A counting global allocator wraps `System`; the file holds exactly one
//! test so no concurrent test thread can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use krigeval_core::trace::Source;
use krigeval_core::variogram::ModelFamily;
use krigeval_core::{
    Config, EvalError, FnEvaluator, HybridEvaluator, HybridObs, HybridSettings, Outcome,
    VariogramModel, VariogramPolicy,
};
use krigeval_obs::{Registry, Tracer};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates every operation to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn smooth_eval() -> FnEvaluator<impl FnMut(&Config) -> Result<f64, EvalError>> {
    FnEvaluator::new(2, |w: &Config| {
        let p = 1.5 * 2f64.powi(-2 * w[0]) + 0.8 * 2f64.powi(-2 * w[1]);
        Ok(-10.0 * p.log10())
    })
}

#[test]
fn steady_state_kriged_evaluate_allocates_nothing() {
    // Fit only once the full 6x5 grid is simulated, so every grid point
    // lands in the store (earlier fitting would krige the later seeds and
    // leave the region around the probe sparse).
    let settings = HybridSettings {
        variogram: VariogramPolicy::FitAfter {
            min_samples: 30,
            families: ModelFamily::all().to_vec(),
            fallback: VariogramModel::linear(1.0),
        },
        ..HybridSettings::default()
    };
    let mut hybrid = HybridEvaluator::new(smooth_eval(), settings);

    // Seed a grid so the variogram is identified and the store is dense.
    for a in 4..10 {
        for b in 4..9 {
            hybrid.evaluate(&vec![a, b]).unwrap();
        }
    }
    assert!(hybrid.model().is_some(), "variogram must be identified");

    // An unseen configuration just outside the seeded grid: kriged, never
    // inserted into the store, so re-querying it replays the full kriged
    // path every time.
    let probe: Config = vec![10, 6];
    assert_eq!(
        hybrid.simulated_configs().iter().find(|c| **c == probe),
        None
    );

    // Warm-up kriged calls: grow the scratch/γ-table/neighbor buffers.
    for _ in 0..3 {
        let out = hybrid.evaluate(&probe).unwrap();
        assert_eq!(
            out.source(),
            Source::Kriged,
            "probe must take the kriged path"
        );
    }

    let kriged_before = hybrid.stats().kriged;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut value = f64::NAN;
    for _ in 0..10 {
        match hybrid.evaluate(&probe).unwrap() {
            Outcome::Kriged { value: v, .. } => value = v,
            other => panic!("expected kriged outcome, got {other:?}"),
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state kriged evaluate must not allocate"
    );
    assert_eq!(hybrid.stats().kriged, kriged_before + 10);
    assert!(value.is_finite());

    // A cache hit, and a kriged query with a metrics bundle attached
    // (registry counters plus a disabled tracer, as every `--metrics-out`
    // campaign runs), allocate nothing either.
    let registry = Registry::new();
    let metrics = HybridObs::new(&registry, Tracer::disabled());
    let cases = [
        (vec![6, 6], Source::Simulated, None),
        (probe, Source::Kriged, Some(metrics)),
    ];
    for (config, source, obs) in cases {
        hybrid.set_obs(obs);
        for _ in 0..3 {
            hybrid.evaluate(&config).unwrap();
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..10 {
            assert_eq!(hybrid.evaluate(&config).unwrap().source(), source);
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "steady-state {source:?} evaluate must not allocate"
        );
    }
    assert_eq!(hybrid.stats().cache_hits, 13);
    assert_eq!(registry.snapshot().counter("hybrid_kriged_total"), Some(13));
}
