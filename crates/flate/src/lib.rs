//! Raw DEFLATE (RFC 1951) for compressed campaign artifacts.
//!
//! A self-contained, dependency-free implementation of the DEFLATE bit
//! format: a streaming [`DeflateWriter`] encoder (stored, fixed-Huffman and
//! dynamic-Huffman blocks, chosen per block by exact bit cost) and a strict
//! decoder ([`inflate`]) with a tail-tolerant variant
//! ([`inflate_tail_tolerant`]) for crash journals.
//!
//! # Why hand-rolled
//!
//! The build environment is offline, so the usual `flate2`/`miniz_oxide`
//! route is unavailable; campaign artifacts are highly repetitive JSONL
//! where even a modest LZ77 + Huffman pass cuts the volume several-fold.
//! The encoder produces *raw* DEFLATE streams (no zlib or gzip wrapper) —
//! artifact framing is the engine's concern, not the codec's.
//!
//! # Crash-journal semantics
//!
//! [`DeflateWriter`]'s `flush` performs a *sync flush*: everything written so
//! far is compressed into a non-final block, followed by an empty stored
//! block (the `00 00 FF FF` marker) that lands the stream on a byte
//! boundary. A reader that stops at the last intact byte therefore recovers
//! every fully-flushed line; only a torn tail can be lost — exactly the
//! contract the engine's uncompressed flush-per-line journal already has.
//! A journal stream is never *finished* (a crash can happen at any point),
//! so journal readers use [`inflate_tail_tolerant`], which accepts a
//! missing final block and reports how far it got.
//!
//! Determinism is defined on the **uncompressed** stream: the encoder is
//! deterministic too (same bytes + same flush points → same compressed
//! bytes), but no contract pins the compressed form across versions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod deflate;
mod huffman;
mod inflate;
mod tables;

pub use deflate::{compress, DeflateWriter};
pub use inflate::{inflate, inflate_tail_tolerant, InflateError, InflatePrefix, MAX_OUTPUT};
