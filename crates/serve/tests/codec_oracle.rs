//! The `Value` path is the oracle of the direct codec: `evaluate` and
//! `value` frames print byte for byte as `serde_json::to_string` prints
//! them, and every line — printed or mutated — reads as
//! `serde_json::from_str` reads it: the same frame, or an error with the
//! same message.

use proptest::collection::vec;
use proptest::prelude::*;

use krigeval_serve::protocol::{OutcomeFrame, Request, Response};

/// Characters of `source` strings: plain, escaped by the printer (quote,
/// backslash, control characters) and passed through (DEL, non-ASCII).
const SOURCE_CHARS: &[char] = &[
    'k', 'r', 'i', 'g', 'e', 'd', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}',
    '\u{1f}', '\u{7f}', 'λ',
];

/// Bytes a mutation inserts or writes: number syntax (`+` and `.` lead no
/// JSON number), whitespace and structure.
const BYTES: &[u8] = b"+-.0123456789eE \t\r\"\\,:[]{}nulx";

/// Spans a mutation splices in: unknown and duplicate keys, escapes, and
/// other spellings of numbers.
const SNIPPETS: &[&str] = &[
    " ",
    "\r\n",
    r#","x":1"#,
    r#","config":[1]"#,
    r#","type":"ping""#,
    r#","value":2.5"#,
    r#","neighbors":3"#,
    r#","variance":null"#,
    "\\u0074",
    "null",
    "-0",
    "007",
    "8.0",
    "1e3",
    "-.5",
    "2147483648",
    "-2147483649",
    "99999999999999999999",
    "18446744073709551616",
];

/// A float of one of the classes the printer treats differently.
fn float_of((class, bits): (u32, u64)) -> f64 {
    let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
    match class {
        0 => sign * 0.0,
        // Subnormal.
        1 => sign * f64::from_bits(1 + (bits >> 12)),
        2 => sign * [1e308, f64::MAX, f64::MIN_POSITIVE, 5e-324][(bits >> 1) as usize % 4],
        3 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(bits >> 1) as usize % 3],
        // Integral, within 8 of the 1e16 switch between `{:.1}` and `{}`.
        4 => sign * (1e16 + 2.0 * ((bits >> 1) % 9) as f64 - 8.0),
        // Integers and halves.
        5 => sign * ((bits >> 1) % 4_000_000) as f64 * 0.5,
        6 => f64::from_bits(bits),
        _ => sign * (bits >> 11) as f64 * 2f64.powi(-40),
    }
}

fn float() -> impl Strategy<Value = f64> {
    (0u32..8, 0u64..=u64::MAX).prop_map(float_of)
}

fn config() -> impl Strategy<Value = Vec<i32>> {
    let element = (0u32..4, i32::MIN..=i32::MAX).prop_map(|(class, v)| match class {
        0 => [i32::MIN, i32::MAX, 0, -1][v.unsigned_abs() as usize % 4],
        1 => v % 64,
        _ => v,
    });
    vec(element, 0..30)
}

fn outcome() -> impl Strategy<Value = OutcomeFrame> {
    let source = vec(0usize..SOURCE_CHARS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| SOURCE_CHARS[i]).collect());
    let variance = (0u32..2, float()).prop_map(|(has, v)| (has == 1).then_some(v));
    let neighbors = (0u32..2, 0u64..=u64::MAX).prop_map(|(has, n)| (has == 1).then_some(n));
    (source, float(), variance, neighbors).prop_map(|(source, value, variance, neighbors)| {
        OutcomeFrame {
            source,
            value,
            variance,
            neighbors,
        }
    })
}

/// Applies `ops` (kind, position, pick) to `line`. Kinds 3 and 4 work at
/// the start of a number, where they make `+5`, `.5` or `05` of `5` and
/// `.5` of `0.5`.
fn mutate(line: &str, ops: &[(u32, usize, usize)]) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for &(kind, at, pick) in ops {
        let byte = BYTES[pick % BYTES.len()];
        let at = if kind == 3 || kind == 4 {
            let starts: Vec<usize> = (1..bytes.len())
                .filter(|&i| {
                    matches!(bytes[i], b'-' | b'0'..=b'9')
                        && matches!(bytes[i - 1], b'[' | b',' | b':')
                })
                .collect();
            match starts.len() {
                0 => continue,
                n => starts[at % n],
            }
        } else {
            at % (bytes.len() + 1)
        };
        match kind {
            0 | 3 => bytes.insert(at, byte),
            1 | 4 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 if at < bytes.len() => bytes[at] = byte,
            5 => {
                let snippet = SNIPPETS[pick % SNIPPETS.len()].bytes();
                bytes.splice(at..at, snippet);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn printed_frames_equal_the_value_paths(config in config(), outcome in outcome()) {
        let request = Request::Evaluate { config };
        prop_assert_eq!(request.to_line(), serde_json::to_string(&request).unwrap());
        let response = Response::Value(outcome);
        prop_assert_eq!(response.to_line(), serde_json::to_string(&response).unwrap());
    }
}

proptest! {
    // About one mutated line in five keeps the printed shape and is read
    // directly; the rest test the hand-over to the `Value` path.
    #![proptest_config(ProptestConfig::with_cases(16384))]

    #[test]
    fn read_frames_equal_the_value_paths(
        config in config(),
        outcome in outcome(),
        ops in vec((0u32..6, 0usize..=usize::MAX, 0usize..=usize::MAX), 0..4),
    ) {
        let printed = [
            Request::Evaluate { config }.to_line(),
            Response::Value(outcome).to_line(),
        ];
        for line in printed.iter().map(|line| mutate(line, &ops)) {
            // Debug output tells -0.0 from 0.0, which `==` does not.
            prop_assert_eq!(
                format!("{:?}", Request::from_line(&line)),
                format!("{:?}", serde_json::from_str::<Request>(&line)),
                "request from {:?}", line
            );
            prop_assert_eq!(
                format!("{:?}", Response::from_line(&line)),
                format!("{:?}", serde_json::from_str::<Response>(&line)),
                "response from {:?}", line
            );
        }
    }
}
