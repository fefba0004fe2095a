//! Sample statistics and the process CPU clock.

/// Linear-interpolation percentile (`q` in `[0, 100]`) of `samples`, the
/// same rule as NumPy's default: rank `q/100 · (n − 1)` between the two
/// closest order statistics. `NaN` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median (50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// CPU time (user + system, all threads) this process has consumed, in
/// seconds, read from `/proc/self/stat`.
///
/// # Errors
///
/// The file is unreadable (not Linux) or malformed.
pub fn process_cpu_s() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_stat_cpu_s(&text)
}

/// Kernel clock ticks per second for `/proc` times. `USER_HZ` is 100 on
/// every Linux architecture the workspace builds for; reading
/// `sysconf(_SC_CLK_TCK)` would need a libc binding the offline build
/// does not have.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `utime + stime` from one `/proc/<pid>/stat` line, in seconds. The
/// command name (field 2) is parenthesised and may itself contain spaces
/// or parentheses, so fields are counted from the **last** `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Result<f64, String> {
    let close = stat
        .rfind(')')
        .ok_or_else(|| "malformed /proc stat: no command field".to_string())?;
    // After the command come field 3 (state) onwards; utime and stime are
    // fields 14 and 15.
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed /proc stat: field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / CLOCK_TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!((percentile(&s, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_of_many_samples_matches_rank() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!((percentile(&s, 99.0) - 990.01).abs() < 1e-9);
        assert!((median(&s) - 500.5).abs() < 1e-12);
    }

    #[test]
    fn stat_parser_reads_utime_and_stime() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let line = "4242 (krig bench) R 1 4242 4242 0 -1 4194304 900 0 0 0 250 75 0 0 20 0";
        assert_eq!(parse_stat_cpu_s(line).unwrap(), 3.25);
    }

    #[test]
    fn stat_parser_survives_parentheses_in_the_command() {
        let line = "7 (a) b) (c) S 1 7 7 0 -1 0 0 0 0 0 3 4 0 0";
        assert_eq!(parse_stat_cpu_s(line).unwrap(), 0.07);
    }

    #[test]
    fn stat_parser_rejects_truncated_lines() {
        assert!(parse_stat_cpu_s("1 (x) R 1 2 3").is_err());
        assert!(parse_stat_cpu_s("no command field").is_err());
    }

    #[test]
    fn own_cpu_clock_is_readable() {
        assert!(process_cpu_s().unwrap() >= 0.0);
    }
}
