//! The DEFLATE decoder: strict ([`inflate`]) and tail-tolerant
//! ([`inflate_tail_tolerant`]) entry points over one block-decoding core.

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use crate::bits::BitReader;
use crate::huffman::HuffDecoder;
use crate::tables::{
    fixed_dist_lengths, fixed_lit_lengths, CLCODE_ORDER, DIST_BASE, DIST_EXTRA, LENGTH_BASE,
    LENGTH_EXTRA, MAX_DIST_SYMBOLS, MAX_LIT_SYMBOLS,
};

/// Why a DEFLATE stream failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InflateError {
    /// Input ended mid-element: the stream is truncated (torn tail).
    UnexpectedEof,
    /// A block header used the reserved block type `11`.
    InvalidBlockType,
    /// A stored block's `NLEN` was not the complement of `LEN`.
    StoredLengthMismatch,
    /// A Huffman length table claims more codes than the space holds.
    OversubscribedCode,
    /// A bit pattern matched no code, or a decoded symbol is reserved.
    InvalidSymbol,
    /// A dynamic header's repeat opcode had no previous length to repeat,
    /// or ran past the declared table size.
    InvalidCodeLengthRepeat,
    /// A dynamic header declared more symbols than the alphabet allows.
    TooManyCodeLengths,
    /// A match distance reaches before the start of the output.
    DistanceTooFar,
    /// The decoded output would exceed [`MAX_OUTPUT`] bytes.
    OutputLimit {
        /// The limit, in bytes.
        limit: usize,
    },
}

impl fmt::Display for InflateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            InflateError::UnexpectedEof => "unexpected end of deflate stream",
            InflateError::InvalidBlockType => "reserved block type 11",
            InflateError::StoredLengthMismatch => "stored block LEN/NLEN mismatch",
            InflateError::OversubscribedCode => "oversubscribed huffman code lengths",
            InflateError::InvalidSymbol => "bit pattern matches no huffman code",
            InflateError::InvalidCodeLengthRepeat => "invalid code-length repeat",
            InflateError::TooManyCodeLengths => "dynamic header exceeds alphabet size",
            InflateError::DistanceTooFar => "match distance before start of output",
            InflateError::OutputLimit { limit } => {
                return write!(f, "decoded output exceeds the {limit}-byte limit")
            }
        };
        f.write_str(what)
    }
}

impl Error for InflateError {}

/// The result of a tail-tolerant decode: everything recovered before the
/// stream ended, and whether a final block was actually seen.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InflatePrefix {
    /// The decoded bytes (complete through the last intact element).
    pub data: Vec<u8>,
    /// `true` when the stream ended properly with a final block.
    pub complete: bool,
}

fn fixed_decoders() -> &'static (HuffDecoder, HuffDecoder) {
    static FIXED: OnceLock<(HuffDecoder, HuffDecoder)> = OnceLock::new();
    FIXED.get_or_init(|| {
        (
            HuffDecoder::new(&fixed_lit_lengths()).expect("fixed lit table is well-formed"),
            HuffDecoder::new(&fixed_dist_lengths()).expect("fixed dist table is well-formed"),
        )
    })
}

fn read_dynamic_tables(br: &mut BitReader<'_>) -> Result<(HuffDecoder, HuffDecoder), InflateError> {
    let hlit = br.read_bits(5)? as usize + 257;
    let hdist = br.read_bits(5)? as usize + 1;
    let hclen = br.read_bits(4)? as usize + 4;
    if hlit > MAX_LIT_SYMBOLS || hdist > MAX_DIST_SYMBOLS {
        return Err(InflateError::TooManyCodeLengths);
    }
    let mut cl_lens = [0u8; 19];
    for &sym in CLCODE_ORDER.iter().take(hclen) {
        cl_lens[sym] = br.read_bits(3)? as u8;
    }
    let cl_decoder = HuffDecoder::new(&cl_lens)?;
    let total = hlit + hdist;
    let mut lengths = vec![0u8; total];
    let mut at = 0usize;
    while at < total {
        let sym = cl_decoder.decode(br)?;
        match sym {
            0..=15 => {
                lengths[at] = sym as u8;
                at += 1;
            }
            16 => {
                if at == 0 {
                    return Err(InflateError::InvalidCodeLengthRepeat);
                }
                let prev = lengths[at - 1];
                let count = br.read_bits(2)? as usize + 3;
                if at + count > total {
                    return Err(InflateError::InvalidCodeLengthRepeat);
                }
                lengths[at..at + count].fill(prev);
                at += count;
            }
            17 => {
                let count = br.read_bits(3)? as usize + 3;
                if at + count > total {
                    return Err(InflateError::InvalidCodeLengthRepeat);
                }
                at += count;
            }
            18 => {
                let count = br.read_bits(7)? as usize + 11;
                if at + count > total {
                    return Err(InflateError::InvalidCodeLengthRepeat);
                }
                at += count;
            }
            _ => return Err(InflateError::InvalidSymbol),
        }
    }
    Ok((
        HuffDecoder::new(&lengths[..hlit])?,
        HuffDecoder::new(&lengths[hlit..])?,
    ))
}

/// Fails with [`InflateError::OutputLimit`] unless `out` has room for
/// `more` bytes under `limit`.
fn reserve(out: &[u8], more: usize, limit: usize) -> Result<(), InflateError> {
    if more > limit - out.len() {
        return Err(InflateError::OutputLimit { limit });
    }
    Ok(())
}

fn decode_huffman_block(
    br: &mut BitReader<'_>,
    lit: &HuffDecoder,
    dist: &HuffDecoder,
    out: &mut Vec<u8>,
    limit: usize,
) -> Result<(), InflateError> {
    loop {
        let sym = lit.decode(br)? as usize;
        match sym {
            0..=255 => {
                reserve(out, 1, limit)?;
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let idx = sym - 257;
                let len =
                    LENGTH_BASE[idx] as usize + br.read_bits(LENGTH_EXTRA[idx] as u32)? as usize;
                let dsym = dist.decode(br)? as usize;
                if dsym >= 30 {
                    return Err(InflateError::InvalidSymbol);
                }
                let distance =
                    DIST_BASE[dsym] as usize + br.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                if distance > out.len() {
                    return Err(InflateError::DistanceTooFar);
                }
                reserve(out, len, limit)?;
                let start = out.len() - distance;
                // Overlapping copies are the LZ77 run-length idiom; copy
                // byte-wise so freshly written bytes are visible.
                for i in 0..len {
                    let byte = out[start + i];
                    out.push(byte);
                }
            }
            _ => return Err(InflateError::InvalidSymbol),
        }
    }
}

/// Decodes blocks into `out` until a final block completes (`Ok(true)`),
/// the input runs out cleanly between blocks (`Ok(false)`), or an error
/// stops the stream. Output accumulated before the error is preserved —
/// the tail-tolerant entry point depends on that. `out` never grows past
/// `limit` bytes.
fn run(data: &[u8], out: &mut Vec<u8>, limit: usize) -> Result<bool, InflateError> {
    let mut br = BitReader::new(data);
    loop {
        let bfinal = match br.read_bit() {
            Ok(bit) => bit == 1,
            // A stream cut exactly at a block boundary (sync-flushed
            // journal) ends here without a final block.
            Err(InflateError::UnexpectedEof) => return Ok(false),
            Err(e) => return Err(e),
        };
        let btype = br.read_bits(2)?;
        match btype {
            0b00 => {
                br.align();
                let header = br.take_bytes(4)?;
                let len = header[0] as usize | (header[1] as usize) << 8;
                let nlen = header[2] as usize | (header[3] as usize) << 8;
                if len ^ nlen != 0xffff {
                    return Err(InflateError::StoredLengthMismatch);
                }
                let bytes = br.take_bytes(len)?;
                reserve(out, len, limit)?;
                out.extend_from_slice(bytes);
            }
            0b01 => {
                let (lit, dist) = fixed_decoders();
                decode_huffman_block(&mut br, lit, dist, out, limit)?;
            }
            0b10 => {
                let (lit, dist) = read_dynamic_tables(&mut br)?;
                decode_huffman_block(&mut br, &lit, &dist, out, limit)?;
            }
            _ => return Err(InflateError::InvalidBlockType),
        }
        if bfinal {
            return Ok(true);
        }
    }
}

/// The most bytes [`inflate`] and [`inflate_tail_tolerant`] decode a
/// stream to (64 MiB), so a small hostile stream cannot ask for gigabytes.
/// The largest artifact the engine writes decodes to a few kilobytes.
pub const MAX_OUTPUT: usize = 64 << 20;

/// The initial output buffer: three times the input, but never above
/// [`MAX_OUTPUT`].
fn output_buffer(data: &[u8]) -> Vec<u8> {
    Vec::with_capacity(data.len().saturating_mul(3).min(MAX_OUTPUT))
}

/// Decodes a complete raw-DEFLATE stream.
///
/// # Errors
///
/// Any [`InflateError`], including [`InflateError::UnexpectedEof`] when the
/// stream lacks a final block — use [`inflate_tail_tolerant`] for crash
/// journals, which are never finished — and [`InflateError::OutputLimit`]
/// before the output would pass [`MAX_OUTPUT`].
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, InflateError> {
    let mut out = output_buffer(data);
    if run(data, &mut out, MAX_OUTPUT)? {
        Ok(out)
    } else {
        Err(InflateError::UnexpectedEof)
    }
}

/// Decodes as much of a possibly-truncated stream as is intact.
///
/// Truncation ([`InflateError::UnexpectedEof`] mid-element, or input ending
/// between blocks) is *not* an error: the prefix decoded so far is returned
/// with `complete: false`. Actual corruption (bad block types, invalid
/// codes, LEN/NLEN mismatches) still fails — a torn tail loses data off the
/// end, it does not scramble the middle.
///
/// # Errors
///
/// Any [`InflateError`] other than truncation, including
/// [`InflateError::OutputLimit`] before the output would pass
/// [`MAX_OUTPUT`].
pub fn inflate_tail_tolerant(data: &[u8]) -> Result<InflatePrefix, InflateError> {
    let mut out = output_buffer(data);
    match run(data, &mut out, MAX_OUTPUT) {
        Ok(complete) => Ok(InflatePrefix {
            data: out,
            complete,
        }),
        Err(InflateError::UnexpectedEof) => Ok(InflatePrefix {
            data: out,
            complete: false,
        }),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use super::*;
    use crate::{compress, DeflateWriter};

    /// `mib` MiB and `extra` bytes of zeros in a few KB per MiB: one
    /// sync-flushed MiB of zeros (non-final blocks ending byte-aligned)
    /// repeated `mib` times, then a complete stream of `extra` zeros.
    fn zeros_bomb(mib: usize, extra: usize) -> Vec<u8> {
        let mut chunk = Vec::new();
        let mut writer = DeflateWriter::new(&mut chunk);
        writer.write_all(&vec![0; 1 << 20]).unwrap();
        writer.flush().unwrap();
        drop(writer);
        let mut bomb = chunk.repeat(mib);
        bomb.extend(compress(&vec![0; extra]));
        bomb
    }

    #[test]
    fn a_zeros_bomb_stops_at_the_output_limit() {
        let bomb = zeros_bomb(16, 0);
        assert!(bomb.len() < 32 << 10, "{} bytes", bomb.len());
        let limit = 1 << 20;
        let mut out = Vec::new();
        assert_eq!(
            run(&bomb, &mut out, limit),
            Err(InflateError::OutputLimit { limit })
        );
        assert!(out.len() <= limit);
        assert_eq!(
            InflateError::OutputLimit { limit }.to_string(),
            "decoded output exceeds the 1048576-byte limit"
        );
    }

    #[test]
    fn streams_exactly_at_the_limit_decode_and_one_byte_less_stops() {
        // Each output path: LZ77 copies (zeros), Huffman literals (zlib's
        // fixed-Huffman coding of the bytes 0..64, none repeated) and a
        // stored block.
        let zeros = compress(&[0; 5000]);
        let literals = [
            99, 96, 100, 98, 102, 97, 101, 99, 231, 224, 228, 226, 230, 225, 229, 227, 23, 16, 20,
            18, 22, 17, 21, 19, 151, 144, 148, 146, 150, 145, 149, 147, 87, 80, 84, 82, 86, 81, 85,
            83, 215, 208, 212, 210, 214, 209, 213, 211, 55, 48, 52, 50, 54, 49, 53, 51, 183, 176,
            180, 178, 182, 177, 181, 179, 7, 0,
        ];
        let stored = [0x01, 0x05, 0x00, 0xfa, 0xff, b'k', b'r', b'i', b'g', b'e'];
        for (stream, n) in [(&zeros[..], 5000), (&literals[..], 64), (&stored[..], 5)] {
            let mut out = Vec::new();
            assert_eq!(run(stream, &mut out, n), Ok(true));
            assert_eq!(out.len(), n);
            let (mut out, limit) = (Vec::new(), n - 1);
            assert_eq!(
                run(stream, &mut out, limit),
                Err(InflateError::OutputLimit { limit })
            );
            assert!(out.len() <= limit);
        }
    }

    #[test]
    fn the_entry_points_decode_up_to_max_output() {
        let at = zeros_bomb(MAX_OUTPUT >> 20, 0);
        assert_eq!(inflate(&at).map(|data| data.len()), Ok(MAX_OUTPUT));
        let past = zeros_bomb(MAX_OUTPUT >> 20, 1);
        let over = InflateError::OutputLimit { limit: MAX_OUTPUT };
        assert_eq!(inflate(&past), Err(over));
        assert_eq!(inflate_tail_tolerant(&past), Err(over));
    }
}
