//! Property tests for the wire protocol: every frame the server can send
//! or receive survives a serialize → parse round trip, and parsers
//! tolerate unknown fields (so old servers interoperate with newer
//! clients and vice versa).

use proptest::prelude::*;

use krigeval_serve::protocol::{HelloParams, OutcomeFrame, Request, Response, StatsFrame};

/// Injects an unknown key into a serialized JSON object frame.
fn with_extra_field(line: &str) -> String {
    let line = line.trim_end();
    assert!(line.ends_with('}'), "frames are JSON objects: {line}");
    format!(
        "{},\"x_future_field\":{{\"nested\":[1,2,3]}}}}",
        &line[..line.len() - 1]
    )
}

fn hello_from(
    benchmark_pick: u32,
    seed: u64,
    d: f64,
    knobs: (u32, u32, u32, u32),
    lambda_min: f64,
) -> HelloParams {
    let (metric_pick, variogram_pick, min_n, max_n) = knobs;
    let benchmarks = ["fir64", "iir8", "fft64", "dct8x8", "lms", "hevc_mc"];
    let metrics = ["l1", "l2", "linf"];
    let variograms = ["fit-after:12", "fixed-linear:0.5", "spherical:1.0:2.0:3.0"];
    HelloParams {
        benchmark: benchmarks[benchmark_pick as usize % benchmarks.len()].to_string(),
        scale: if seed.is_multiple_of(2) {
            Some("fast".to_string())
        } else {
            None
        },
        seed: Some(seed),
        d: Some(d),
        min_neighbors: if min_n > 0 {
            Some(min_n as usize)
        } else {
            None
        },
        max_neighbors: if max_n > 0 {
            Some(max_n as usize)
        } else {
            None
        },
        metric: Some(metrics[metric_pick as usize % metrics.len()].to_string()),
        variogram: Some(variograms[variogram_pick as usize % variograms.len()].to_string()),
        lambda_min: Some(lambda_min),
        gate: match seed % 3 {
            0 => None,
            1 => Some("fixed".to_string()),
            _ => Some(format!("variance:{}", f64::from(metric_pick) + 0.5)),
        },
        selection: match seed % 4 {
            0 | 1 => None,
            2 => Some("sse".to_string()),
            _ => Some("loo".to_string()),
        },
        nugget: match seed % 5 {
            0 | 1 => None,
            2 => Some("1e-3".to_string()),
            _ => Some(format!("{}", f64::from(variogram_pick) * 0.25)),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn evaluate_requests_round_trip(
        config in proptest::collection::vec(-64i32..64, 1..24),
    ) {
        let request = Request::Evaluate { config };
        let parsed = Request::from_line(&request.to_line()).unwrap();
        prop_assert_eq!(parsed, request);
    }

    #[test]
    fn batch_requests_round_trip(
        configs in proptest::collection::vec(
            proptest::collection::vec(0i32..32, 1..12),
            0..8,
        ),
    ) {
        let request = Request::EvaluateBatch { configs };
        let parsed = Request::from_line(&request.to_line()).unwrap();
        prop_assert_eq!(parsed, request);
    }

    #[test]
    fn hello_requests_round_trip_and_tolerate_unknown_fields(
        benchmark_pick in 0u32..64,
        seed in 0u64..u64::MAX,
        d in 0.1f64..100.0,
        knobs in (0u32..16, 0u32..16, 0u32..12, 0u32..40),
        lambda_min in -1.0e6f64..1.0e6,
    ) {
        let request = Request::Hello(hello_from(benchmark_pick, seed, d, knobs, lambda_min));
        let line = request.to_line();
        prop_assert_eq!(Request::from_line(&line).unwrap(), request.clone());
        // Unknown fields from a future protocol revision are ignored.
        prop_assert_eq!(Request::from_line(&with_extra_field(&line)).unwrap(), request);
    }

    #[test]
    fn control_requests_round_trip(pick in 0u32..5) {
        let request = match pick {
            0 => Request::Optimize,
            1 => Request::Snapshot,
            2 => Request::Stats,
            3 => Request::Ping,
            _ => Request::Shutdown,
        };
        let line = request.to_line();
        prop_assert_eq!(Request::from_line(&line).unwrap(), request.clone());
        prop_assert_eq!(Request::from_line(&with_extra_field(&line)).unwrap(), request);
    }

    #[test]
    fn value_responses_round_trip(
        value in -1.0e9f64..1.0e9,
        variance in 0.0f64..1.0e6,
        neighbors in 0u64..1000,
        kriged in 0u32..2,
    ) {
        let frame = if kriged == 1 {
            OutcomeFrame {
                source: "kriged".to_string(),
                value,
                variance: Some(variance),
                neighbors: Some(neighbors),
            }
        } else {
            OutcomeFrame {
                source: "simulated".to_string(),
                value,
                variance: None,
                neighbors: None,
            }
        };
        let response = Response::Value(frame);
        let line = response.to_line();
        prop_assert_eq!(Response::from_line(&line).unwrap(), response.clone());
        prop_assert_eq!(Response::from_line(&with_extra_field(&line)).unwrap(), response);
    }

    #[test]
    fn batch_responses_round_trip(
        values in proptest::collection::vec(-1.0e6f64..1.0e6, 0..10),
    ) {
        let outcomes = values
            .iter()
            .enumerate()
            .map(|(i, &value)| OutcomeFrame {
                source: if i % 2 == 0 { "simulated" } else { "kriged" }.to_string(),
                value,
                variance: (i % 2 == 1).then_some(value.abs()),
                neighbors: (i % 2 == 1).then_some(i as u64),
            })
            .collect();
        let response = Response::Values { outcomes };
        let parsed = Response::from_line(&response.to_line()).unwrap();
        prop_assert_eq!(parsed, response);
    }

    #[test]
    fn session_and_stats_responses_round_trip(
        session in 0u64..u64::MAX,
        counts in (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        nv in 1u64..64,
        workers in 1u64..32,
    ) {
        let (queries, simulated, kriged, cache_hits) = counts;
        let response = Response::Session {
            session,
            benchmark: "fir64".to_string(),
            nv,
            protocol: 1,
            workers,
        };
        let line = response.to_line();
        prop_assert_eq!(Response::from_line(&line).unwrap(), response.clone());
        prop_assert_eq!(Response::from_line(&with_extra_field(&line)).unwrap(), response);

        let stats = Response::Stats(StatsFrame {
            queries,
            simulated,
            kriged,
            cache_hits,
            kriging_failures: simulated % 7,
            sessions: workers,
            backends: nv,
            shared_cache_lookups: queries,
            shared_cache_hits: cache_hits,
        });
        let parsed = Response::from_line(&stats.to_line()).unwrap();
        prop_assert_eq!(parsed, stats);
    }

    #[test]
    fn optimum_responses_round_trip(
        solution in proptest::collection::vec(1i32..48, 1..24),
        lambda in 0.0f64..1.0e6,
        iterations in 0u64..100_000,
    ) {
        let response = Response::Optimum { solution, lambda, iterations };
        let parsed = Response::from_line(&response.to_line()).unwrap();
        prop_assert_eq!(parsed, response);
    }

    #[test]
    fn error_and_overloaded_responses_round_trip(
        code_pick in 0u32..6,
        inflight in 0u64..4096,
        capacity in 0u64..4096,
        retry_ms in 1u64..10_000,
        message_pick in 0u32..4,
    ) {
        let codes = [
            "bad_request", "no_session", "eval_failed",
            "shutting_down", "unsupported", "busy",
        ];
        let messages = [
            "plain",
            "with \"quotes\" and \\ backslash",
            "newline\nand\ttab",
            "unicode: λ²-régression",
        ];
        let error = Response::error(
            codes[code_pick as usize % codes.len()],
            messages[message_pick as usize % messages.len()],
        );
        let line = error.to_line();
        prop_assert_eq!(Response::from_line(&line).unwrap(), error.clone());
        prop_assert_eq!(Response::from_line(&with_extra_field(&line)).unwrap(), error);

        let shed = Response::Overloaded { inflight, capacity, retry_ms };
        let line = shed.to_line();
        prop_assert_eq!(Response::from_line(&line).unwrap(), shed.clone());
        prop_assert_eq!(Response::from_line(&with_extra_field(&line)).unwrap(), shed);
    }
}
