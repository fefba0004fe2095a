//! Mini SqueezeNet-style CNN with per-layer error injection.
//!
//! The paper's fifth benchmark is an **error sensitivity analysis** on a
//! SqueezeNet image classifier (`Nv = 10`): an additive error source is
//! injected at the output of each layer, the configuration vector holds the
//! per-source noise powers, and the quality metric is `p_cl` — the
//! probability that the classification matches the error-free reference,
//! measured over 1000 input images.
//!
//! The full SqueezeNet-on-ImageNet setup is substituted (see `DESIGN.md`) by
//! a scaled-down network with the same architectural signature — fire
//! modules (1×1 squeeze + 1×1/3×3 expand), max-pooling, a 1×1 classifier
//! convolution and global average pooling — classifying deterministic
//! synthetic images into 10 classes. Labels are the *reference network's own
//! argmax*, so `p_cl` is exactly the paper's agreement probability.
//!
//! # Examples
//!
//! ```
//! use krigeval_neural::SensitivityBenchmark;
//!
//! # fn main() -> Result<(), krigeval_neural::NeuralError> {
//! let bench = SensitivityBenchmark::new(64, 12, 0xCAFE); // 64 images, 12×12
//! assert_eq!(bench.num_sources(), 10);
//! // No injected error: perfect agreement with the reference.
//! let clean = bench.classification_rate(&vec![f64::NEG_INFINITY; 10])?;
//! assert_eq!(clean, 1.0);
//! // Loud error sources: agreement degrades.
//! let noisy = bench.classification_rate(&vec![0.0; 10])?;
//! assert!(noisy < 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod dataset;
mod error;
mod fire;
mod layers;
mod net;
mod quantized;
mod sensitivity;
mod tensor;

pub use checkpoint::{CHECKPOINT_BYTES, FIRST_CHECKPOINT_SITE};
pub use dataset::synthetic_images;
pub use error::NeuralError;
pub use fire::FireModule;
pub use layers::{argmax, global_avg_pool, max_pool2, relu_in_place, Conv2d};
pub use net::{MiniSqueezeNet, NoopHook, SiteHook, NUM_INJECTION_SITES};
pub use quantized::QuantizedNetBenchmark;
pub use sensitivity::SensitivityBenchmark;
pub use tensor::Tensor3;
