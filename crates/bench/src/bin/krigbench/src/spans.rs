//! Span recording and the per-layer self-time fold.
//!
//! Spans are timed from outside the program, around the public calls
//! into each layer (see `timed.rs`). Each thread appends to its own
//! buffer, timestamped against one process-wide `Instant` epoch, so the
//! simulations a worker pool runs in parallel land on the same time axis
//! as the batch that requested them. Nesting is not recorded at the call
//! site: a span's parent is the deepest span of a shallower layer whose
//! interval contains it. That is sound because the traced pass drives
//! one run at a time, so only a run's own spans can contain each other.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use krigeval_core::Config;

/// The layer a span times. The order is the nesting depth: a span's
/// parent is always of an earlier (shallower) variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// One optimization run (or one replayed client stream): the root.
    Run,
    /// The variogram pilot: a pure-simulation run of the same optimizer.
    Pilot,
    /// Variogram identification over the pilot trajectory.
    Variogram,
    /// One hybrid evaluator call (`query` or `query_batch`).
    Hybrid,
    /// One backend fulfillment (`fulfill` or `fulfill_one`).
    Fulfill,
    /// One simulator invocation.
    Simulate,
}

impl Layer {
    fn depth(self) -> usize {
        match self {
            Layer::Run => 0,
            Layer::Pilot | Layer::Variogram | Layer::Hybrid => 1,
            Layer::Fulfill => 2,
            Layer::Simulate => 3,
        }
    }

    /// Lowercase name used in metric names and the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Pilot => "pilot",
            Layer::Variogram => "variogram",
            Layer::Hybrid => "hybrid",
            Layer::Fulfill => "fulfill",
            Layer::Simulate => "simulate",
        }
    }
}

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which layer.
    pub layer: Layer,
    /// Benchmark label (simulate spans) or run label (roots).
    pub label: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start: u64,
    /// End, nanoseconds since the epoch.
    pub end: u64,
    /// Recording thread (dense ids in first-use order).
    pub thread: u32,
    /// Work items: requests for fulfill spans, queries for hybrid spans.
    pub items: u32,
    /// Config digests: what a fulfill span requested, or which of a
    /// hybrid call's queries came back kriged.
    pub keys: Vec<u64>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the shared epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

type Buffer = Arc<Mutex<Vec<Span>>>;

fn buffers() -> &'static Mutex<Vec<Buffer>> {
    static BUFFERS: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: (u32, Buffer) = {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
        let mut all = buffers().lock().expect("span registry poisoned");
        all.push(Arc::clone(&buffer));
        ((all.len() - 1) as u32, buffer)
    };
}

/// Appends a finished span to the calling thread's buffer.
pub fn record(layer: Layer, label: &'static str, start: u64, items: u32, keys: Vec<u64>) {
    let end = now_ns();
    LOCAL.with(|(thread, buffer)| {
        buffer.lock().expect("span buffer poisoned").push(Span {
            layer,
            label,
            start,
            end,
            thread: *thread,
            items,
            keys,
        });
    });
}

/// Removes and returns every span recorded so far, on every thread,
/// sorted by start time.
pub fn drain() -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    for buffer in buffers().lock().expect("span registry poisoned").iter() {
        spans.append(&mut buffer.lock().expect("span buffer poisoned"));
    }
    spans.sort_by_key(|s| (s.start, s.layer.depth()));
    spans
}

/// A 64-bit FNV-1a digest of a configuration, for matching what a
/// fulfill span requested against what a hybrid call kriged.
pub fn config_key(config: &Config) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in config {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Sorted, merged union of half-open intervals.
fn merge(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

fn measure(intervals: &[(u64, u64)]) -> u64 {
    intervals.iter().map(|&(s, e)| e - s).sum()
}

/// `[start, end)` minus the union of `children`, clipped to the span.
fn subtract(start: u64, end: u64, children: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let covered = merge(
        children
            .iter()
            .map(|&(s, e)| (s.max(start), e.min(end)))
            .collect(),
    );
    let mut out = Vec::new();
    let mut cursor = start;
    for (s, e) in covered {
        if s > cursor {
            out.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if end > cursor {
        out.push((cursor, end));
    }
    out
}

/// Simulate totals of one benchmark label.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LabelTotals {
    /// Simulator invocations.
    pub calls: u64,
    /// Summed durations.
    pub busy_ns: u64,
    /// Union of the spans (parallel invocations count once).
    pub self_ns: u64,
}

/// Per-layer totals of a folded trace, in nanoseconds unless noted.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Fold {
    /// Number of root spans.
    pub roots: u64,
    /// Sum of root durations.
    pub root_ns: u64,
    /// Wall-attributed self time per layer: the union of the layer's
    /// self intervals, so overlapping parallel spans count once.
    pub self_ns: BTreeMap<Layer, u64>,
    /// Span count per layer.
    pub calls: BTreeMap<Layer, u64>,
    /// Summed durations per layer (busy time; parallel spans add up).
    pub busy_ns: BTreeMap<Layer, u64>,
    /// Per-benchmark simulate totals.
    pub simulate_by_label: BTreeMap<&'static str, LabelTotals>,
    /// Hybrid self time before the call's first fulfill.
    pub plan_ns: u64,
    /// Hybrid self time after the first fulfill.
    pub commit_ns: u64,
    /// Durations of individual hybrid calls.
    pub hybrid_call_ns: Vec<u64>,
    /// Queries across hybrid calls.
    pub hybrid_queries: u64,
    /// Queries answered by kriging.
    pub hybrid_kriged: u64,
    /// Requests across fulfill spans.
    pub fulfill_items: u64,
    /// Configurations requested by audit fulfills.
    pub audit_sims: u64,
    /// Summed duration of audit fulfills.
    pub audit_ns: u64,
    /// Worst `|attributed / root − 1|` over roots.
    pub worst_attribution_error: f64,
    /// Spans not contained in any root (ignored by the fold).
    pub orphans: u64,
}

impl Fold {
    /// Wall-attributed self time of `layer` in milliseconds.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns.get(&layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Summed span durations of `layer` in milliseconds.
    pub fn busy_ms(&self, layer: Layer) -> f64 {
        self.busy_ns.get(&layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Span count of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls.get(&layer).copied().unwrap_or(0)
    }

    /// Sum of all layers' wall-attributed self time over the roots' wall.
    pub fn attributed_ratio(&self) -> f64 {
        self.self_ns.values().sum::<u64>() as f64 / self.root_ns.max(1) as f64
    }
}

/// Finds each span's parent: the deepest shallower-layer span containing
/// it. Shallow layers are recorded by the one driving thread, so within
/// a layer they do not overlap, and the candidate at each depth is the
/// latest span starting no later than the child.
fn parents(spans: &[Span]) -> Vec<Option<usize>> {
    let mut by_depth: Vec<Vec<usize>> = vec![Vec::new(); 4];
    for (i, s) in spans.iter().enumerate() {
        by_depth[s.layer.depth()].push(i);
    }
    for level in &mut by_depth {
        level.sort_by_key(|&i| (spans[i].start, spans[i].end));
    }
    spans
        .iter()
        .map(|s| {
            (0..s.layer.depth()).rev().find_map(|d| {
                let level = &by_depth[d];
                let n = level.partition_point(|&i| spans[i].start <= s.start);
                level[..n]
                    .last()
                    .copied()
                    .filter(|&i| spans[i].end >= s.end)
            })
        })
        .collect()
}

/// Folds a trace into per-layer totals. Self time is a span's duration
/// minus the union of its children's intervals; a layer's total is the
/// union of its spans' self intervals, so the totals of one root sum to
/// its wall clock exactly when every span nests inside its parent.
pub fn fold(spans: &[Span]) -> Fold {
    let parent = parents(spans);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut root_of: Vec<Option<usize>> = vec![None; spans.len()];
    // A parent starts no later than its children and, being shallower,
    // sorts first on a tie, so one pass in this order resolves every root.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].start, spans[i].layer.depth()));
    for &i in &order {
        match parent[i] {
            Some(p) => {
                children[p].push(i);
                root_of[i] = root_of[p];
            }
            None if spans[i].layer == Layer::Run => root_of[i] = Some(i),
            None => {}
        }
    }

    let mut out = Fold::default();
    let mut layer_intervals: BTreeMap<Layer, Vec<(u64, u64)>> = BTreeMap::new();
    let mut per_root: BTreeMap<usize, BTreeMap<Layer, Vec<(u64, u64)>>> = BTreeMap::new();
    let mut label_intervals: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let Some(root) = root_of[i] else {
            out.orphans += 1;
            continue;
        };
        let kids: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start, spans[c].end))
            .collect();
        let own = subtract(s.start, s.end, &kids);
        *out.calls.entry(s.layer).or_default() += 1;
        *out.busy_ns.entry(s.layer).or_default() += s.end - s.start;
        match s.layer {
            Layer::Run => {
                out.roots += 1;
                out.root_ns += s.end - s.start;
            }
            Layer::Hybrid => {
                let first_fulfill = children[i]
                    .iter()
                    .filter(|&&c| spans[c].layer == Layer::Fulfill)
                    .map(|&c| spans[c].start)
                    .min()
                    .unwrap_or(s.end);
                let plan = measure(&subtract(s.start, first_fulfill, &kids));
                out.plan_ns += plan;
                out.commit_ns += measure(&own) - plan;
                out.hybrid_call_ns.push(s.end - s.start);
                out.hybrid_queries += u64::from(s.items);
                out.hybrid_kriged += s.keys.len() as u64;
                let kriged: HashSet<u64> = s.keys.iter().copied().collect();
                for &c in &children[i] {
                    let f = &spans[c];
                    let audit = f.layer == Layer::Fulfill
                        && !f.keys.is_empty()
                        && f.keys.iter().all(|k| kriged.contains(k));
                    if audit {
                        out.audit_sims += f.keys.len() as u64;
                        out.audit_ns += f.end - f.start;
                    }
                }
            }
            Layer::Fulfill => out.fulfill_items += u64::from(s.items),
            Layer::Simulate => {
                let entry = out.simulate_by_label.entry(s.label).or_default();
                entry.calls += 1;
                entry.busy_ns += s.end - s.start;
                label_intervals
                    .entry(s.label)
                    .or_default()
                    .push((s.start, s.end));
            }
            Layer::Pilot | Layer::Variogram => {}
        }
        layer_intervals.entry(s.layer).or_default().extend(&own);
        per_root
            .entry(root)
            .or_default()
            .entry(s.layer)
            .or_default()
            .extend(own);
    }
    for (layer, intervals) in layer_intervals {
        out.self_ns.insert(layer, measure(&merge(intervals)));
    }
    for (label, intervals) in label_intervals {
        if let Some(totals) = out.simulate_by_label.get_mut(label) {
            totals.self_ns = measure(&merge(intervals));
        }
    }
    for (root, layers) in per_root {
        let attributed: u64 = layers.into_values().map(|v| measure(&merge(v))).sum();
        let wall = (spans[root].end - spans[root].start).max(1);
        let error = (attributed as f64 / wall as f64 - 1.0).abs();
        out.worst_attribution_error = out.worst_attribution_error.max(error);
    }
    out
}

/// Renders spans as JSONL (one object per line).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"layer\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{},\"items\":{}}}\n",
            s.layer.name(),
            s.label,
            s.start,
            s.end,
            s.thread,
            s.items
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64) -> Span {
        Span {
            layer,
            label: "t",
            start,
            end,
            thread: 0,
            items: 1,
            keys: Vec::new(),
        }
    }

    fn folded(mut spans: Vec<Span>) -> Fold {
        spans.sort_by_key(|s| (s.start, s.layer.depth()));
        fold(&spans)
    }

    #[test]
    fn nested_spans_split_their_parents_time() {
        let f = folded(vec![
            span(Layer::Run, 0, 100),
            span(Layer::Hybrid, 10, 60),
            span(Layer::Fulfill, 20, 50),
            span(Layer::Simulate, 25, 45),
        ]);
        assert_eq!(f.self_ns[&Layer::Run], 50);
        assert_eq!(f.self_ns[&Layer::Hybrid], 20);
        assert_eq!(f.self_ns[&Layer::Fulfill], 10);
        assert_eq!(f.self_ns[&Layer::Simulate], 20);
        assert_eq!(f.root_ns, 100);
        assert_eq!(f.attributed_ratio(), 1.0);
        assert_eq!(f.worst_attribution_error, 0.0);
        // Plan is the hybrid self time before its first fulfill.
        assert_eq!(f.plan_ns, 10);
        assert_eq!(f.commit_ns, 10);
    }

    #[test]
    fn gaps_between_children_stay_with_the_parent() {
        let f = folded(vec![
            span(Layer::Run, 0, 100),
            span(Layer::Hybrid, 0, 10),
            span(Layer::Hybrid, 40, 50),
            span(Layer::Hybrid, 90, 100),
        ]);
        assert_eq!(f.self_ns[&Layer::Run], 70);
        assert_eq!(f.self_ns[&Layer::Hybrid], 30);
        assert_eq!(f.calls(Layer::Hybrid), 3);
        assert_eq!(f.attributed_ratio(), 1.0);
    }

    #[test]
    fn overlapping_parallel_children_count_once() {
        // Two workers simulate concurrently inside one fulfill.
        let mut a = span(Layer::Simulate, 10, 60);
        a.thread = 1;
        let mut b = span(Layer::Simulate, 20, 90);
        b.thread = 2;
        let f = folded(vec![
            span(Layer::Run, 0, 100),
            span(Layer::Fulfill, 0, 100),
            a,
            b,
        ]);
        assert_eq!(f.self_ns[&Layer::Fulfill], 20);
        assert_eq!(f.self_ns[&Layer::Simulate], 80);
        assert_eq!(f.busy_ns[&Layer::Simulate], 120);
        let per_label = &f.simulate_by_label["t"];
        assert_eq!(
            (per_label.calls, per_label.self_ns, per_label.busy_ns),
            (2, 80, 120)
        );
        assert_eq!(f.self_ns.get(&Layer::Run), Some(&0));
        assert_eq!(f.attributed_ratio(), 1.0);
    }

    #[test]
    fn a_child_escaping_its_parent_shows_as_attribution_error() {
        // The simulate span outlives its fulfill: it nests under the root
        // instead, and its tail is counted by both fulfill and simulate.
        let f = folded(vec![
            span(Layer::Run, 0, 200),
            span(Layer::Fulfill, 0, 100),
            span(Layer::Simulate, 90, 110),
        ]);
        assert!(f.worst_attribution_error > 0.04, "{f:?}");
    }

    #[test]
    fn spans_outside_every_root_are_orphans() {
        let f = folded(vec![span(Layer::Run, 0, 10), span(Layer::Simulate, 20, 30)]);
        assert_eq!(f.orphans, 1);
        assert_eq!(f.root_ns, 10);
        assert_eq!(f.calls(Layer::Simulate), 0);
    }

    #[test]
    fn audit_fulfills_request_only_kriged_configs() {
        let (k1, k2, s1) = (config_key(&vec![1, 2]), config_key(&vec![2, 2]), 7);
        let mut hybrid = span(Layer::Hybrid, 0, 100);
        hybrid.items = 3;
        hybrid.keys = vec![k1, k2];
        let mut plan_phase = span(Layer::Fulfill, 10, 20);
        plan_phase.keys = vec![s1];
        let mut audit = span(Layer::Fulfill, 50, 80);
        audit.keys = vec![k1, k2];
        let f = folded(vec![span(Layer::Run, 0, 100), hybrid, plan_phase, audit]);
        assert_eq!(f.audit_sims, 2);
        assert_eq!(f.audit_ns, 30);
        assert_eq!(f.hybrid_queries, 3);
        assert_eq!(f.hybrid_kriged, 2);
    }

    #[test]
    fn recorded_spans_share_one_epoch_across_threads() {
        let start = now_ns();
        std::thread::scope(|scope| {
            scope.spawn(|| record(Layer::Simulate, "worker", now_ns(), 1, Vec::new()));
        });
        record(Layer::Run, "main", start, 1, Vec::new());
        let spans: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.label == "worker" || s.label == "main")
            .collect();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].thread, spans[1].thread);
        let f = fold(&spans);
        assert_eq!(f.orphans, 0, "{spans:?}");
    }

    #[test]
    fn merge_and_subtract_handle_edges() {
        assert_eq!(
            merge(vec![(5, 7), (0, 3), (2, 4), (7, 7)]),
            vec![(0, 4), (5, 7)]
        );
        assert_eq!(
            subtract(0, 10, &[(2, 4), (3, 6), (9, 15)]),
            vec![(0, 2), (6, 9)]
        );
        assert_eq!(subtract(0, 10, &[]), vec![(0, 10)]);
    }
}
