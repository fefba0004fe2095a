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

use krigeval_fixedpoint::{NoiseMeter, NoisePower, QFormat, Quantizer};

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
}

/// One interpolated 8×8 block, row-major.
type Block = [f64; BLOCK * BLOCK];

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
        }
    }

    /// The motion-compensation jobs in the data set.
    pub fn jobs(&self) -> &[McJob] {
        &self.jobs
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

/// Interpolates one 8×8 block (the module under test), a row of eight
/// pixels at a time.
fn interpolate_block<Q: McQuant>(image: &[Vec<f64>], job: McJob, q: &Q) -> Block {
    let (x, y) = (job.x, job.y);
    let fx = job.frac_x as usize;
    let fy = job.frac_y as usize;
    let mut out = [0.0; BLOCK * BLOCK];
    let out_rows = out.chunks_exact_mut(BLOCK).enumerate();
    match (fx, fy) {
        (0, 0) => {
            for (dy, row_out) in out_rows {
                row_out.copy_from_slice(&image[y + dy][x..x + BLOCK]);
                q.outputs(row_out);
            }
        }
        (_, 0) => {
            let taps = normalized(&LUMA_FILTERS[fx - 1]);
            for (dy, row_out) in out_rows {
                let row = &image[y + dy];
                row_out.copy_from_slice(&filter8_lanes(&taps, false, q, |t| &row[x + t - 3..]));
                q.path_outputs(McPath::HorizontalOnly, row_out);
                q.outputs(row_out);
            }
        }
        (0, _) => {
            let taps = normalized(&LUMA_FILTERS[fy - 1]);
            for (dy, row_out) in out_rows {
                let v = filter8_lanes(&taps, true, q, |t| &image[y + dy + t - 3][x..]);
                row_out.copy_from_slice(&v);
                q.path_outputs(McPath::VerticalOnly, row_out);
                q.outputs(row_out);
            }
        }
        (_, _) => {
            let h_taps = normalized(&LUMA_FILTERS[fx - 1]);
            let v_taps = normalized(&LUMA_FILTERS[fy - 1]);
            // Horizontal pass over BLOCK + 7 rows.
            let mut intermediate = [[0.0; BLOCK]; BLOCK + TAPS - 1];
            for (r, row_out) in intermediate.iter_mut().enumerate() {
                let row = &image[y + r - 3];
                *row_out = filter8_lanes(&h_taps, false, q, |t| &row[x + t - 3..]);
                q.h_intermediates(row_out);
            }
            // Vertical pass.
            for (dy, row_out) in out_rows {
                let v = filter8_lanes(&v_taps, true, q, |t| &intermediate[dy + t][..]);
                row_out.copy_from_slice(&v);
                q.path_outputs(McPath::TwoD, row_out);
                q.outputs(row_out);
            }
        }
    }
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
        let quantizers = SiteQuantizers::from_word_lengths(word_lengths)?;
        let mut meter = NoiseMeter::new();
        for (job, reference) in self.jobs.iter().zip(&self.references) {
            let approx = interpolate_block(&self.image, *job, &quantizers);
            meter.record_slices(reference, &approx);
        }
        Ok(meter.noise_power())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
