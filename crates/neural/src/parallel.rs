//! Construction-time parallelism. A benchmark instance does its per-image
//! set-up work once (rendering, noise streams, calibration and reference
//! passes), and every image's share of it is independent of the others',
//! so a constructor cuts its images into contiguous ranges and runs each
//! range on a thread of its own, inside one scope. The results come back
//! in range order, so reductions over them run in image order.

use std::ops::Range;

/// The threads a constructor splits its images over: the host's available
/// parallelism, or 1 where it is unknown.
pub(crate) fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Part `part` of `0..n` cut into `parts` contiguous ranges whose lengths
/// differ by at most one, the longer ones first. A part is empty when
/// `part >= n`.
pub(crate) fn range(n: usize, parts: usize, part: usize) -> Range<usize> {
    let (len, longer) = (n / parts, n % parts);
    let start = part * len + part.min(longer);
    start..start + len + usize::from(part < longer)
}

/// `0..n` cut into `threads.min(n)` ranges (see [`range`]), each
/// non-empty when `n > 0`; one range when `threads` is 0.
pub(crate) fn ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let parts = threads.clamp(1, n.max(1));
    (0..parts).map(|part| range(n, parts, part)).collect()
}

/// Runs `f` on each of `inputs`, each on a thread of its own inside one
/// scope (the first on the caller's), and returns the results in input
/// order. A single input runs inline and spawns nothing. A panic in any
/// of them is re-raised once all have finished.
pub(crate) fn map<I: Send, T: Send>(inputs: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
    if inputs.len() <= 1 {
        return inputs.into_iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut inputs = inputs.into_iter();
        let first = inputs.next();
        let spawned: Vec<_> = inputs.map(|input| scope.spawn(move || f(input))).collect();
        let mut results: Vec<T> = first.into_iter().map(f).collect();
        for handle in spawned {
            results.push(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_images_in_order() {
        for n in 0..20 {
            for threads in 1..6 {
                let ranges = ranges(n, threads);
                assert_eq!(ranges.len(), threads.min(n.max(1)));
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "{n} over {threads}");
                let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                assert!(lens.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
                assert!(n == 0 || lens.iter().all(|&len| len > 0));
            }
        }
        assert_eq!(range(2, 3, 2), 2..2);
    }

    #[test]
    fn map_returns_results_in_input_order() {
        for threads in 1..5 {
            let parts = map(ranges(7, threads), |r| r.collect::<Vec<_>>());
            assert_eq!(parts.concat(), (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "part 2 failed")]
    fn a_panicking_part_is_re_raised() {
        map(vec![0, 1, 2], |part| {
            assert!(part != 2, "part {part} failed")
        });
    }
}
