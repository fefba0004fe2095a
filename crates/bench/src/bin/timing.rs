//! Measures per-evaluation simulation vs kriging times and the projected
//! refinement speed-ups (§IV prose claims). `t_build` is the median time
//! to build one benchmark instance; `t_sim` is a full simulation pass; `t_step` is a neighbour `w + e_i` of a simulated `w`, which the
//! CNN benchmarks resume from stored site inputs and iir8, fft64 and
//! hevc_mc from stored stage states.
//!
//! ```text
//! timing [--scale fast|paper] [--reps N]
//! ```

use std::process::ExitCode;

use krigeval_bench::suite::Problem;
use krigeval_bench::timing::measure;
use krigeval_bench::Scale;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut reps = 10usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = if args[i] == "fast" {
                    Scale::Fast
                } else {
                    Scale::Paper
                };
            }
            "--reps" => {
                i += 1;
                reps = args[i].parse().unwrap_or(10);
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    println!(
        "{:<13} {:>12} {:>12} {:>12} {:>12} {:>10} {:>11} {:>11}",
        "benchmark",
        "t_build (s)",
        "t_sim (s)",
        "t_step (s)",
        "t_krige (s)",
        "speedup",
        "proj p=0.8",
        "proj p=0.9"
    );
    for problem in Problem::extended() {
        match measure(problem, scale, reps, 4) {
            Ok(row) => println!(
                "{:<13} {:>12.6} {:>12.6} {:>12.6} {:>12.9} {:>10.0} {:>11.2} {:>11.2}",
                problem.label(),
                row.t_build,
                row.t_sim,
                row.t_step,
                row.t_krige,
                row.per_eval_speedup(),
                row.projected_speedup(0.8),
                row.projected_speedup(0.9),
            ),
            Err(e) => {
                eprintln!("{}: {e}", problem.label());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
