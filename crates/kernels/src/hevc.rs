//! HEVC motion-compensation benchmark (paper Table I, `Nv = 23`).
//!
//! The paper's fourth benchmark is "the 2-D motion compensation module of an
//! HEVC codec", processing 8×8 pixel blocks with the standard's separable
//! 8-tap fractional-pel interpolation filters, with **23 variables** in the
//! word-length optimization.
//!
//! We rebuild that module from the HEVC luma filter definition (the actual
//! HM reference software is a substitution documented in `DESIGN.md`):
//! quarter/half/three-quarter-pel 8-tap filters applied horizontally then
//! vertically, on smooth synthetic image content. The 23 instrumented
//! word-length sites are:
//!
//! | index | site |
//! |-------|------|
//! | 0–7   | horizontal tap products |
//! | 8     | horizontal accumulator |
//! | 9     | horizontal intermediate row output |
//! | 10–17 | vertical tap products |
//! | 18    | vertical accumulator |
//! | 19    | vertical (2-D path) output |
//! | 20    | horizontal-only path output (`dy = 0`) |
//! | 21    | vertical-only path output (`dx = 0`) |
//! | 22    | final output register (all paths) |
//!
//! A simulation resumes each job path from stored filter outputs, keyed by
//! exactly the sites the path's filters read, so a state serves every
//! configuration that differs elsewhere: horizontal-only outputs by sites
//! 0–8, vertical-only outputs by sites 10–18, 2-D intermediates by sites
//! 0–9 and 2-D vertical outputs by sites 0–18. The path registers (sites
//! 19–21) and the final register (site 22) always rerun.

use std::sync::Arc;

use krigeval_fixedpoint::{NoiseMeter, NoisePower, QFormat, Quantizer, ResumeStats};

use crate::resume::{self, StateStore, STAGE_STATE_BYTES};
use crate::signal::smooth_image;
use crate::{KernelError, WordLengthBenchmark};

/// Number of instrumented word-length sites.
pub const NUM_VARIABLES: usize = 23;
/// Block edge length in pixels.
pub const BLOCK: usize = 8;
/// Filter length.
pub const TAPS: usize = 8;

/// HEVC luma interpolation filter coefficients (×1/64) for quarter-pel
/// phases 1–3 (phase 0 is the integer-pel identity).
pub const LUMA_FILTERS: [[f64; TAPS]; 3] = [
    // phase 1 (quarter-pel)
    [-1.0, 4.0, -10.0, 58.0, 17.0, -5.0, 1.0, 0.0],
    // phase 2 (half-pel)
    [-1.0, 4.0, -11.0, 40.0, 40.0, -11.0, 4.0, -1.0],
    // phase 3 (three-quarter-pel)
    [0.0, 1.0, -5.0, 17.0, 58.0, -10.0, 4.0, -1.0],
];

/// One motion-compensation job: block origin and fractional-pel phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McJob {
    /// Block top-left x in the source image (must leave a 3/4-pixel margin).
    pub x: usize,
    /// Block top-left y in the source image.
    pub y: usize,
    /// Horizontal quarter-pel phase, 0–3.
    pub frac_x: u8,
    /// Vertical quarter-pel phase, 0–3.
    pub frac_y: u8,
}

/// The HEVC-style motion-compensation benchmark.
///
/// # Examples
///
/// ```
/// use krigeval_kernels::{hevc::HevcMcBenchmark, WordLengthBenchmark};
///
/// # fn main() -> Result<(), krigeval_kernels::KernelError> {
/// let mc = HevcMcBenchmark::with_defaults();
/// assert_eq!(mc.num_variables(), 23);
/// let p = mc.noise_power(&vec![12; 23])?;
/// assert!(p.db() < -40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HevcMcBenchmark {
    image: Vec<Vec<f64>>,
    jobs: Vec<McJob>,
    references: Vec<Block>,
    /// Each path's filter outputs for recently simulated word-lengths of
    /// the sites they read; a clone starts with none. Its start counts are
    /// indexed by the filter passes a simulation skipped (0–4).
    states: StateStore<f64>,
}

/// One interpolated 8×8 block, row-major.
type Block = [f64; BLOCK * BLOCK];

/// A 2-D job's horizontal-pass output, `BLOCK + TAPS − 1` rows of
/// [`BLOCK`], row-major.
type Intermediate = [f64; (BLOCK + TAPS - 1) * BLOCK];

/// The values a pass stores, each for every job of one path in job order,
/// keyed by the sites they read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PathState {
    /// Horizontal-only filter outputs, before the path register: sites
    /// 0–8.
    Horizontal,
    /// Vertical-only filter outputs: sites 10–18.
    Vertical,
    /// 2-D horizontal intermediates, after their register: sites 0–9.
    Intermediate,
    /// 2-D vertical filter outputs, before the path register: sites
    /// 0–18.
    TwoD,
}

impl PathState {
    const ALL: [PathState; 4] = [
        PathState::Horizontal,
        PathState::Vertical,
        PathState::Intermediate,
        PathState::TwoD,
    ];

    fn sites(self) -> std::ops::Range<usize> {
        match self {
            PathState::Horizontal => 0..9,
            PathState::Vertical => 10..19,
            PathState::Intermediate => 0..10,
            PathState::TwoD => 0..19,
        }
    }

    /// The path whose jobs the state holds, and the values per job.
    fn path(self) -> (McPath, usize) {
        match self {
            PathState::Horizontal => (McPath::HorizontalOnly, BLOCK * BLOCK),
            PathState::Vertical => (McPath::VerticalOnly, BLOCK * BLOCK),
            PathState::Intermediate => (McPath::TwoD, (BLOCK + TAPS - 1) * BLOCK),
            PathState::TwoD => (McPath::TwoD, BLOCK * BLOCK),
        }
    }

    /// Filter passes a pass that reuses the state skips: the 2-D vertical
    /// outputs stand for both of the path's passes.
    fn passes(self) -> usize {
        if self == PathState::TwoD {
            2
        } else {
            1
        }
    }

    /// The store key: the state, then the word-lengths of its sites.
    fn key<'a>(self, word_lengths: &[i32], key: &'a mut [u64; NUM_VARIABLES]) -> &'a [u64] {
        let sites = &word_lengths[self.sites()];
        key[0] = self as u64;
        for (k, &w) in key[1..].iter_mut().zip(sites) {
            *k = resume::word(w);
        }
        &key[..=sites.len()]
    }
}

/// One state's values during a pass: read job by job from the stored
/// state, or computed and, when capturing, recorded. The default cursor
/// only computes.
#[derive(Default)]
struct PathCursor {
    stored: Option<Arc<Vec<f64>>>,
    at: usize,
    capture: Option<Vec<f64>>,
}

impl PathCursor {
    /// The next job's values; `compute` runs only when none are stored.
    fn next<const N: usize>(&mut self, compute: impl FnOnce() -> [f64; N]) -> [f64; N] {
        if let Some(stored) = &self.stored {
            let values = stored[self.at..][..N]
                .try_into()
                .expect("a stored state holds every job's values");
            self.at += N;
            return values;
        }
        let values = compute();
        if let Some(capture) = &mut self.capture {
            capture.extend_from_slice(&values);
        }
        values
    }
}

/// A pass's cursors, one per [`PathState`] in [`PathState::ALL`]'s order.
/// The default ones neither read nor record: a full pass.
#[derive(Default)]
struct Cursors([PathCursor; 4]);

impl HevcMcBenchmark {
    /// Paper-faithful configuration: a 96×96 smooth synthetic frame and 24
    /// blocks covering all three fractional-pel paths.
    pub fn with_defaults() -> HevcMcBenchmark {
        HevcMcBenchmark::new(96, 24, 0x4EC0_0004)
    }

    /// Builds the benchmark on a `size × size` smooth image with
    /// `num_blocks` jobs cycling through fractional phases.
    ///
    /// # Panics
    ///
    /// Panics if `size < 32` (too small to place blocks with filter margins)
    /// or `num_blocks == 0`.
    pub fn new(size: usize, num_blocks: usize, seed: u64) -> HevcMcBenchmark {
        assert!(size >= 32, "image too small for blocks plus filter margins");
        assert!(num_blocks > 0, "need at least one block");
        let image = smooth_image(seed, size, size, 6);
        // Deterministic job placement: stride across the image, cycle the
        // nine (frac_x, frac_y) combinations that exercise all three paths.
        let phases: [(u8, u8); 9] = [
            (2, 2),
            (1, 0),
            (0, 1),
            (3, 2),
            (2, 0),
            (0, 3),
            (1, 3),
            (2, 1),
            (3, 3),
        ];
        let usable = size - BLOCK - TAPS; // margin for the 8-tap window
        let jobs: Vec<McJob> = (0..num_blocks)
            .map(|i| {
                let (frac_x, frac_y) = phases[i % phases.len()];
                McJob {
                    x: 4 + (i * 13) % usable.max(1),
                    y: 4 + (i * 29) % usable.max(1),
                    frac_x,
                    frac_y,
                }
            })
            .collect();
        let references = jobs
            .iter()
            .map(|job| interpolate_block(&image, *job, &Passthrough))
            .collect();
        HevcMcBenchmark {
            image,
            jobs,
            references,
            states: StateStore::new(5, STAGE_STATE_BYTES),
        }
    }

    /// The motion-compensation jobs in the data set.
    pub fn jobs(&self) -> &[McJob] {
        &self.jobs
    }

    /// The cursor of `state` for a pass with `word_lengths`: the stored
    /// state, or an empty capture when the jobs of its path need it.
    fn cursor(&self, state: PathState, word_lengths: &[i32], needed: bool) -> PathCursor {
        let (path, per_job) = state.path();
        let jobs = self.jobs.iter().filter(|j| j.path() == Some(path)).count();
        if !needed || jobs == 0 {
            return PathCursor::default();
        }
        let mut key = [0; NUM_VARIABLES];
        let stored = self.states.get(state.key(word_lengths, &mut key));
        let capture = stored.is_none().then(|| Vec::with_capacity(jobs * per_job));
        PathCursor {
            stored,
            at: 0,
            capture,
        }
    }
}

impl McJob {
    /// The interpolation path the job's phases select; `None` for an
    /// integer-pel copy.
    fn path(&self) -> Option<McPath> {
        match (self.frac_x, self.frac_y) {
            (0, 0) => None,
            (_, 0) => Some(McPath::HorizontalOnly),
            (0, _) => Some(McPath::VerticalOnly),
            (_, _) => Some(McPath::TwoD),
        }
    }
}

/// Quantization hooks for the interpolation data path, each applied to a
/// row of independent pixel lanes in place. The reference path uses
/// [`Passthrough`]; the fixed-point path uses [`SiteQuantizers`].
trait McQuant {
    fn products(&self, tap: usize, vertical: bool, lanes: &mut [f64]);
    fn accumulators(&self, vertical: bool, lanes: &mut [f64]);
    fn h_intermediates(&self, lanes: &mut [f64]);
    fn path_outputs(&self, path: McPath, lanes: &mut [f64]);
    fn outputs(&self, lanes: &mut [f64]);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum McPath {
    TwoD,
    HorizontalOnly,
    VerticalOnly,
}

struct Passthrough;

impl McQuant for Passthrough {
    fn products(&self, _: usize, _: bool, _: &mut [f64]) {}
    fn accumulators(&self, _: bool, _: &mut [f64]) {}
    fn h_intermediates(&self, _: &mut [f64]) {}
    fn path_outputs(&self, _: McPath, _: &mut [f64]) {}
    fn outputs(&self, _: &mut [f64]) {}
}

struct SiteQuantizers {
    h_products: Vec<Quantizer>,
    h_acc: Quantizer,
    h_out: Quantizer,
    v_products: Vec<Quantizer>,
    v_acc: Quantizer,
    v_out: Quantizer,
    h_only_out: Quantizer,
    v_only_out: Quantizer,
    final_out: Quantizer,
}

impl SiteQuantizers {
    fn from_word_lengths(w: &[i32]) -> Result<SiteQuantizers, KernelError> {
        // Pixels are in [0, 1); tap products stay below 58/64 in magnitude
        // (0 integer bits); accumulators need Σ|h| ≈ 1.75 of headroom
        // (1 integer bit); stage outputs are near-pixel-range (1 integer bit
        // of headroom for filter overshoot).
        let q0 = |wl: i32| -> Result<Quantizer, KernelError> {
            Ok(Quantizer::new(QFormat::with_word_length(0, wl)?))
        };
        let q1 = |wl: i32| -> Result<Quantizer, KernelError> {
            Ok(Quantizer::new(QFormat::with_word_length(1, wl)?))
        };
        Ok(SiteQuantizers {
            h_products: w[0..8].iter().map(|&x| q0(x)).collect::<Result<_, _>>()?,
            h_acc: q1(w[8])?,
            h_out: q1(w[9])?,
            v_products: w[10..18].iter().map(|&x| q0(x)).collect::<Result<_, _>>()?,
            v_acc: q1(w[18])?,
            v_out: q1(w[19])?,
            h_only_out: q1(w[20])?,
            v_only_out: q1(w[21])?,
            final_out: q1(w[22])?,
        })
    }
}

impl McQuant for SiteQuantizers {
    fn products(&self, tap: usize, vertical: bool, lanes: &mut [f64]) {
        let q = if vertical {
            &self.v_products[tap]
        } else {
            &self.h_products[tap]
        };
        q.quantize_in_place(lanes);
    }
    fn accumulators(&self, vertical: bool, lanes: &mut [f64]) {
        let q = if vertical { &self.v_acc } else { &self.h_acc };
        q.quantize_in_place(lanes);
    }
    fn h_intermediates(&self, lanes: &mut [f64]) {
        self.h_out.quantize_in_place(lanes);
    }
    fn path_outputs(&self, path: McPath, lanes: &mut [f64]) {
        let q = match path {
            McPath::TwoD => &self.v_out,
            McPath::HorizontalOnly => &self.h_only_out,
            McPath::VerticalOnly => &self.v_only_out,
        };
        q.quantize_in_place(lanes);
    }
    fn outputs(&self, lanes: &mut [f64]) {
        self.final_out.quantize_in_place(lanes);
    }
}

/// A filter's taps with the 1/64 normalization applied, as the per-tap
/// product `h / 64.0 * sample` computes it.
fn normalized(taps: &[f64; TAPS]) -> [f64; TAPS] {
    taps.map(|h| h / 64.0)
}

/// The 8-tap filter at [`BLOCK`] adjacent positions, one lane each, with
/// per-tap product and accumulator hooks. `samples(t)` holds tap `t`'s
/// input for every lane. Each lane sees the same operations in the same
/// order as a lone 8-tap filter, so its bits are those of the
/// one-position loop; interleaving the lanes overlaps their quantizer
/// latencies.
#[inline(always)]
fn filter8_lanes<'a, Q: McQuant>(
    taps: &[f64; TAPS],
    vertical: bool,
    q: &Q,
    samples: impl Fn(usize) -> &'a [f64],
) -> [f64; BLOCK] {
    let mut acc = [0.0; BLOCK];
    for (t, &h) in taps.iter().enumerate() {
        let mut products = [0.0; BLOCK];
        for (p, &x) in products.iter_mut().zip(&samples(t)[..BLOCK]) {
            *p = h * x;
        }
        q.products(t, vertical, &mut products);
        for (a, p) in acc.iter_mut().zip(products) {
            *a += p;
        }
        q.accumulators(vertical, &mut acc);
    }
    acc
}

/// The block at the job's integer-pel position.
fn copy_block(image: &[Vec<f64>], job: McJob) -> Block {
    let mut out = [0.0; BLOCK * BLOCK];
    for (dy, row_out) in out.chunks_exact_mut(BLOCK).enumerate() {
        row_out.copy_from_slice(&image[job.y + dy][job.x..job.x + BLOCK]);
    }
    out
}

/// The horizontal-only path's filter outputs, a row of eight pixels at a
/// time, before the path register.
#[inline(never)]
fn filter_rows<Q: McQuant>(image: &[Vec<f64>], job: McJob, q: &Q) -> Block {
    let taps = normalized(&LUMA_FILTERS[job.frac_x as usize - 1]);
    let mut out = [0.0; BLOCK * BLOCK];
    for (dy, row_out) in out.chunks_exact_mut(BLOCK).enumerate() {
        let row = &image[job.y + dy];
        row_out.copy_from_slice(&filter8_lanes(&taps, false, q, |t| &row[job.x + t - 3..]));
    }
    out
}

/// The vertical-only path's filter outputs, a row of eight pixels at a
/// time, before the path register.
#[inline(never)]
fn filter_columns<Q: McQuant>(image: &[Vec<f64>], job: McJob, q: &Q) -> Block {
    let taps = normalized(&LUMA_FILTERS[job.frac_y as usize - 1]);
    let mut out = [0.0; BLOCK * BLOCK];
    for (dy, row_out) in out.chunks_exact_mut(BLOCK).enumerate() {
        let v = filter8_lanes(&taps, true, q, |t| &image[job.y + dy + t - 3][job.x..]);
        row_out.copy_from_slice(&v);
    }
    out
}

/// The 2-D path's horizontal pass over `BLOCK + TAPS − 1` rows, after the
/// intermediate register.
#[inline(never)]
fn horizontal_pass<Q: McQuant>(image: &[Vec<f64>], job: McJob, q: &Q) -> Intermediate {
    let taps = normalized(&LUMA_FILTERS[job.frac_x as usize - 1]);
    let mut out = [0.0; (BLOCK + TAPS - 1) * BLOCK];
    for (r, row_out) in out.chunks_exact_mut(BLOCK).enumerate() {
        let row = &image[job.y + r - 3];
        row_out.copy_from_slice(&filter8_lanes(&taps, false, q, |t| &row[job.x + t - 3..]));
        q.h_intermediates(row_out);
    }
    out
}

/// The 2-D path's vertical pass over its intermediates, before the path
/// register.
#[inline(never)]
fn vertical_pass<Q: McQuant>(intermediate: &Intermediate, job: McJob, q: &Q) -> Block {
    let taps = normalized(&LUMA_FILTERS[job.frac_y as usize - 1]);
    let mut out = [0.0; BLOCK * BLOCK];
    for (dy, row_out) in out.chunks_exact_mut(BLOCK).enumerate() {
        let v = filter8_lanes(&taps, true, q, |t| &intermediate[(dy + t) * BLOCK..]);
        row_out.copy_from_slice(&v);
    }
    out
}

/// The path register of `path`, if any, then the final output register.
fn registers<Q: McQuant>(block: &mut Block, path: Option<McPath>, q: &Q) {
    if let Some(path) = path {
        q.path_outputs(path, block);
    }
    q.outputs(block);
}

/// Interpolates one 8×8 block (the module under test), a row of eight
/// pixels at a time, in a full pass.
fn interpolate_block<Q: McQuant>(image: &[Vec<f64>], job: McJob, q: &Q) -> Block {
    resume_block(image, job, q, &mut Cursors::default())
}

/// Interpolates one 8×8 block, taking the filter outputs of the job's path
/// from `cursors` where they hold them stored, and recording the ones it
/// computes where they capture. The path and final registers always run.
fn resume_block<Q: McQuant>(image: &[Vec<f64>], job: McJob, q: &Q, cursors: &mut Cursors) -> Block {
    let [horizontal, vertical, intermediate, two_d] = &mut cursors.0;
    let mut out = match job.path() {
        None => copy_block(image, job),
        Some(McPath::HorizontalOnly) => horizontal.next(|| filter_rows(image, job, q)),
        Some(McPath::VerticalOnly) => vertical.next(|| filter_columns(image, job, q)),
        Some(McPath::TwoD) => two_d.next(|| {
            let h = intermediate.next(|| horizontal_pass(image, job, q));
            vertical_pass(&h, job, q)
        }),
    };
    registers(&mut out, job.path(), q);
    out
}

impl WordLengthBenchmark for HevcMcBenchmark {
    fn name(&self) -> &str {
        "hevc_mc"
    }

    fn num_variables(&self) -> usize {
        NUM_VARIABLES
    }

    fn noise_power(&self, word_lengths: &[i32]) -> Result<NoisePower, KernelError> {
        self.validate(word_lengths)?;
        let q = SiteQuantizers::from_word_lengths(word_lengths)?;
        let cursor = |state, needed| self.cursor(state, word_lengths, needed);
        let horizontal = cursor(PathState::Horizontal, true);
        let vertical = cursor(PathState::Vertical, true);
        let two_d = cursor(PathState::TwoD, true);
        // Stored vertical outputs make the intermediates moot.
        let intermediate = cursor(PathState::Intermediate, two_d.stored.is_none());
        let mut cursors = Cursors([horizontal, vertical, intermediate, two_d]);
        let skipped = cursors
            .0
            .iter()
            .zip(PathState::ALL)
            .filter(|(c, _)| c.stored.is_some())
            .map(|(_, state)| state.passes())
            .sum();
        self.states.count_start(skipped);

        let mut meter = NoiseMeter::new();
        for (&job, reference) in self.jobs.iter().zip(&self.references) {
            let block = resume_block(&self.image, job, &q, &mut cursors);
            meter.record_slices(reference, &block);
        }
        let mut key = [0; NUM_VARIABLES];
        for (cursor, state) in cursors.0.into_iter().zip(PathState::ALL) {
            if let Some(capture) = cursor.capture {
                self.states
                    .insert(state.key(word_lengths, &mut key), capture);
            }
        }
        Ok(meter.noise_power())
    }

    fn resume_stats(&self) -> Option<ResumeStats> {
        Some(self.states.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume::testing::{bits, full_bits, two_threads_share, word_length_stream};
    use proptest::prelude::*;

    /// Applies a lane hook to one value.
    fn one(v: f64, hook: impl FnOnce(&mut [f64])) -> f64 {
        let mut lane = [v];
        hook(&mut lane);
        lane[0]
    }

    /// 8-tap filter at one position: the original per-pixel loop.
    fn filter8(samples: &[f64], taps: &[f64; TAPS], vertical: bool, q: &dyn McQuant) -> f64 {
        let mut acc = 0.0;
        for (t, &h) in taps.iter().enumerate() {
            let product = one(h / 64.0 * samples[t], |l| q.products(t, vertical, l));
            acc = one(acc + product, |l| q.accumulators(vertical, l));
        }
        acc
    }

    /// The block interpolation as originally written, one pixel at a time
    /// with a fresh column `Vec` per vertical-filter pixel: the oracle for
    /// the row-of-eight [`interpolate_block`].
    fn interpolate_block_per_pixel(image: &[Vec<f64>], job: McJob, q: &dyn McQuant) -> Vec<f64> {
        let fx = job.frac_x as usize;
        let fy = job.frac_y as usize;
        let mut out = Vec::with_capacity(BLOCK * BLOCK);
        match (fx, fy) {
            (0, 0) => {
                for dy in 0..BLOCK {
                    for dx in 0..BLOCK {
                        out.push(one(image[job.y + dy][job.x + dx], |l| q.outputs(l)));
                    }
                }
            }
            (_, 0) => {
                let taps = &LUMA_FILTERS[fx - 1];
                for dy in 0..BLOCK {
                    for dx in 0..BLOCK {
                        let row = &image[job.y + dy];
                        let window = &row[job.x + dx - 3..job.x + dx + 5];
                        let v = filter8(window, taps, false, q);
                        let v = one(v, |l| q.path_outputs(McPath::HorizontalOnly, l));
                        out.push(one(v, |l| q.outputs(l)));
                    }
                }
            }
            (0, _) => {
                let taps = &LUMA_FILTERS[fy - 1];
                for dy in 0..BLOCK {
                    for dx in 0..BLOCK {
                        let col: Vec<f64> = (0..TAPS)
                            .map(|t| image[job.y + dy + t - 3][job.x + dx])
                            .collect();
                        let v = filter8(&col, taps, true, q);
                        let v = one(v, |l| q.path_outputs(McPath::VerticalOnly, l));
                        out.push(one(v, |l| q.outputs(l)));
                    }
                }
            }
            (_, _) => {
                let h_taps = &LUMA_FILTERS[fx - 1];
                let v_taps = &LUMA_FILTERS[fy - 1];
                let mut intermediate = vec![vec![0.0; BLOCK]; BLOCK + TAPS - 1];
                for (r, row_out) in intermediate.iter_mut().enumerate() {
                    let row = &image[job.y + r - 3];
                    for (dx, cell) in row_out.iter_mut().enumerate() {
                        let window = &row[job.x + dx - 3..job.x + dx + 5];
                        let v = filter8(window, h_taps, false, q);
                        *cell = one(v, |l| q.h_intermediates(l));
                    }
                }
                for dy in 0..BLOCK {
                    for dx in 0..BLOCK {
                        let col: Vec<f64> = (0..TAPS).map(|t| intermediate[dy + t][dx]).collect();
                        let v = filter8(&col, v_taps, true, q);
                        let v = one(v, |l| q.path_outputs(McPath::TwoD, l));
                        out.push(one(v, |l| q.outputs(l)));
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn row_of_eight_interpolation_is_bitwise_the_per_pixel_loop(
            size in 32usize..=64,
            blocks in 1usize..=18,
            seed in 0u64..1_000_000,
            word_lengths in proptest::collection::vec(2i32..=16, NUM_VARIABLES),
        ) {
            let b = HevcMcBenchmark::new(size, blocks, seed);
            let q = SiteQuantizers::from_word_lengths(&word_lengths).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (job, reference) in b.jobs.iter().zip(&b.references) {
                let fast = interpolate_block(&b.image, *job, &q);
                let oracle = interpolate_block_per_pixel(&b.image, *job, &q);
                prop_assert_eq!(bits(&fast), bits(&oracle), "{:?}", job);
                let exact = interpolate_block_per_pixel(&b.image, *job, &Passthrough);
                prop_assert_eq!(bits(reference), bits(&exact), "{:?}", job);
            }
        }
    }

    fn small() -> HevcMcBenchmark {
        HevcMcBenchmark::new(48, 9, 0x4EC0_0004)
    }

    /// The bits of the noise power the per-pixel loop gives at `w`.
    fn per_pixel_bits(b: &HevcMcBenchmark, w: &[i32]) -> u64 {
        let q = SiteQuantizers::from_word_lengths(w).unwrap();
        let mut meter = NoiseMeter::new();
        for (job, reference) in b.jobs.iter().zip(&b.references) {
            meter.record_slices(reference, &interpolate_block_per_pixel(&b.image, *job, &q));
        }
        meter.noise_power().linear().to_bits()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn resumed_passes_keep_every_bit(seed in 0u64..u64::MAX) {
            let b = small();
            for w in word_length_stream(seed, NUM_VARIABLES, 24) {
                let resumed = bits(&b, &w);
                prop_assert_eq!(resumed, full_bits(&b, &w), "{:?}", w);
                prop_assert_eq!(resumed, per_pixel_bits(&b, &w), "{:?}", w);
            }
            prop_assert!(b.resume_stats().unwrap().resumed() > 0);
        }
    }

    #[test]
    fn a_single_site_change_reuses_the_paths_that_do_not_read_it() {
        let b = small();
        let w = [9; NUM_VARIABLES];
        b.noise_power(&w).unwrap();
        for site in 0..NUM_VARIABLES {
            // Filter passes skipped: the vertical-only one for a site of
            // the horizontal filter; the horizontal-only one and one 2-D
            // pass for the intermediate register or a vertical-filter
            // site; all four for a register after the filters.
            let skipped = match site {
                0..=8 => 1,
                9..=18 => 2,
                _ => 4,
            };
            let before = b.resume_stats().unwrap().started_at[skipped];
            let mut changed = w;
            changed[site] += 1;
            b.noise_power(&changed).unwrap();
            assert_eq!(
                b.resume_stats().unwrap().started_at[skipped],
                before + 1,
                "site {site}"
            );
        }
    }

    #[test]
    fn two_threads_share_one_instance() {
        let b = small();
        let stats = two_threads_share(&b, &word_length_stream(21, NUM_VARIABLES, 16), 20);
        assert_eq!(stats.simulations(), 32);
        assert!(stats.resumed() > 0);
    }

    /// Bytes of the states one configuration stores: 2 horizontal-only
    /// and 2 vertical-only jobs, 5 2-D jobs.
    const CONFIG_BYTES: usize = (2 + 2 + 5) * 64 * 8 + 5 * 120 * 8 + (10 + 10 + 11 + 20) * 8;

    #[test]
    fn a_cap_below_every_entry_falls_back_to_full_passes() {
        // The smallest entry: two jobs' outputs under a ten-word key.
        let smallest = 10 * 8 + 2 * 64 * 8;
        for cap in [0, smallest - 1] {
            let mut b = small();
            b.states = StateStore::new(5, cap);
            for w in word_length_stream(7, NUM_VARIABLES, 16) {
                assert_eq!(bits(&b, &w), full_bits(&b, &w), "cap {cap}");
                assert_eq!(b.states.bytes(), 0, "cap {cap}");
            }
            assert_eq!(b.resume_stats().unwrap().resumed(), 0, "cap {cap}");
        }
    }

    #[test]
    fn the_store_never_exceeds_its_cap() {
        let cap = 2 * CONFIG_BYTES;
        let mut b = small();
        b.states = StateStore::new(5, cap);
        let mut peak = 0;
        for w in word_length_stream(11, NUM_VARIABLES, 60) {
            b.noise_power(&w).unwrap();
            peak = peak.max(b.states.bytes());
            assert!(b.states.bytes() <= cap);
        }
        assert!(peak > cap / 2, "the stream never filled the store: {peak}");
        assert!(b.resume_stats().unwrap().resumed() > 0);
    }

    #[test]
    fn filters_have_unit_dc_gain() {
        for f in &LUMA_FILTERS {
            let sum: f64 = f.iter().sum();
            assert!((sum - 64.0).abs() < 1e-12, "{f:?}");
        }
    }

    #[test]
    fn half_pel_filter_is_symmetric() {
        let f = &LUMA_FILTERS[1];
        for i in 0..TAPS / 2 {
            assert_eq!(f[i], f[TAPS - 1 - i]);
        }
    }

    #[test]
    fn quarter_and_three_quarter_are_mirrors() {
        for i in 0..TAPS {
            assert_eq!(LUMA_FILTERS[0][i], LUMA_FILTERS[2][TAPS - 1 - i]);
        }
    }

    #[test]
    fn has_23_variables() {
        assert_eq!(small().num_variables(), 23);
    }

    #[test]
    fn interpolating_a_constant_image_returns_the_constant() {
        let image = vec![vec![0.5; 48]; 48];
        let job = McJob {
            x: 8,
            y: 8,
            frac_x: 2,
            frac_y: 2,
        };
        let out = interpolate_block(&image, job, &Passthrough);
        for v in out {
            assert!((v - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn all_three_paths_are_exercised() {
        let b = small();
        let has = |f: fn(&McJob) -> bool| b.jobs().iter().any(f);
        assert!(has(|j| j.frac_x > 0 && j.frac_y > 0), "2-D path missing");
        assert!(has(|j| j.frac_x > 0 && j.frac_y == 0), "H path missing");
        assert!(has(|j| j.frac_x == 0 && j.frac_y > 0), "V path missing");
    }

    #[test]
    fn noise_decreases_with_word_length() {
        let b = small();
        let mut prev = f64::INFINITY;
        for w in [6, 8, 10, 12] {
            let db = b.noise_power(&[w; 23]).unwrap().db();
            assert!(db < prev, "w={w}: {db} !< {prev}");
            prev = db;
        }
    }

    #[test]
    fn validates_shape() {
        let b = small();
        assert!(b.noise_power(&[10; 22]).is_err());
        assert!(b.noise_power(&[10; 24]).is_err());
        let mut w = vec![10; 23];
        w[5] = 99;
        assert!(b.noise_power(&w).is_err());
    }

    #[test]
    fn deterministic() {
        let b = small();
        let w: Vec<i32> = (0..23).map(|i| 8 + (i % 5)).collect();
        assert_eq!(
            b.noise_power(&w).unwrap().linear(),
            b.noise_power(&w).unwrap().linear()
        );
    }

    #[test]
    fn narrowing_one_site_changes_noise() {
        let b = small();
        let base = b.noise_power(&[14; 23]).unwrap().db();
        let mut w = vec![14; 23];
        w[22] = 6; // final output register
        let narrowed = b.noise_power(&w).unwrap().db();
        assert!(narrowed > base + 6.0, "base {base}, narrowed {narrowed}");
    }
}
