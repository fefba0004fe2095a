//! Fixed-point arithmetic simulation for approximate-computing DSE.
//!
//! The word-length benchmarks of the paper (FIR, IIR, FFT, HEVC motion
//! compensation) evaluate the **output noise power** of a fixed-point
//! implementation against a double-precision reference. This crate provides
//! the substrate for that measurement:
//!
//! * [`QFormat`] — a signed two's-complement fixed-point format
//!   (sign + integer bits + fractional bits).
//! * [`Quantizer`] — applies a format to `f64` intermediates with a chosen
//!   [`RoundingMode`] and [`OverflowMode`]; this emulates what a C++
//!   fixed-point library (ac_fixed / sc_fixed, the paper's refs \[12\], \[13\])
//!   would compute, at simulation speed.
//! * [`NoiseMeter`] / [`NoisePower`] — accumulate the error power between a
//!   reference stream and a quantized stream, with dB conversion.
//! * [`metrics`] — the paper's interpolation-quality metrics: the
//!   equivalent-bit difference of Eq. 11 and the relative difference of
//!   Eq. 12.
//! * [`CheckpointStore`] — the byte-capped store of stage states that
//!   resumable simulators (the CNNs and the IIR, FFT and HEVC kernels)
//!   start later simulations from.
//!
//! # Examples
//!
//! ```
//! use krigeval_fixedpoint::{NoiseMeter, Quantizer, QFormat};
//!
//! # fn main() -> Result<(), krigeval_fixedpoint::FixedPointError> {
//! let q = Quantizer::new(QFormat::new(0, 7)?); // 8-bit signal in [-1, 1)
//! let mut meter = NoiseMeter::new();
//! for i in 0..1000 {
//!     let x = (i as f64 / 1000.0).sin() * 0.9;
//!     meter.record(x, q.quantize(x));
//! }
//! let p = meter.noise_power();
//! // Uniform quantization noise: step²/12 with step = 2⁻⁷.
//! assert!(p.db() < -40.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod error;
mod format;
mod interval;
pub mod metrics;
mod noise;
mod quantizer;

pub use checkpoint::{Checkpoint, CheckpointStore, ResumeStats};
pub use error::FixedPointError;
pub use format::QFormat;
pub use interval::{fir_output_range, Interval};
pub use noise::{NoiseMeter, NoisePower};
pub use quantizer::{OverflowMode, Quantizer, RoundingMode};
