//! The benchmark command: set-up rounds, timed passes for `--seconds`,
//! checks, and the result line. With `--trace 1` it also runs the traced
//! pass in the `perfbench_traced` binary and reports per-layer metrics.
//!
//! Run it through `perfbench/run.sh`, which builds both binaries first.

use heap_bench::hostmeta;
use perfbench::{
    check_pass, combined_fingerprint, inputs, median, parse_args, peak_rss_kb, per_layer_metrics,
    quality, result_line, setup_round, timed_pass, Args, MetricDef, Reference, Size, END_TO_END,
    SETUP_MIN_ROUNDS, SETUP_SECONDS, USAGE,
};
use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::time::Instant;

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args, process_start));
}

fn run(args: &Args, process_start: Instant) -> i32 {
    println!(
        "# host: cpu={} nproc={}",
        hostmeta::cpu_model(),
        hostmeta::core_count()
    );
    // Set-up rounds: input generation and a checked warm-up pass over the
    // miniature inputs, repeated so that `setup_s` can be their median.
    let mut setups = Vec::new();
    let mut warm_up_reference: Option<Reference> = None;
    let setup_start = Instant::now();
    while setups.len() < SETUP_MIN_ROUNDS || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let round = setups.len();
        let failures = match setup_round(args.workload, args.seed) {
            Ok((secs, pass, warm_up)) => {
                setups.push(secs);
                let (reference, failures, _) =
                    check_pass(&pass, &warm_up, warm_up_reference.as_ref());
                warm_up_reference.get_or_insert(reference);
                failures
            }
            Err(panic) => vec![format!("the program panicked: {panic}")],
        };
        if !failures.is_empty() {
            for e in failures {
                println!("# FAIL set-up round {round}: {e}");
            }
            println!("{}", result_line(false, 1, 1, &[]));
            return 1;
        }
    }
    let inputs = inputs(args.workload, Size::Bench, args.seed);
    let n_scenarios = inputs.scenarios.len() as u64;
    println!(
        "# workload={} seed={} scenarios={} nodes={} windows={}",
        args.workload.name(),
        args.seed,
        n_scenarios,
        inputs.scale.n_nodes,
        inputs.scale.n_windows
    );
    println!(
        "# setup rounds (s): {:?}; process start to first timed pass: {:.3} s",
        setups,
        process_start.elapsed().as_secs_f64()
    );

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut walls = Vec::new();
    let mut reference: Option<Reference> = None;
    let mut quality_values = (f64::NAN, None);
    let mut delivered = 0u64;
    let loop_start = Instant::now();
    // Passes continue until `--seconds` have elapsed, with the last one
    // ending at most half a pass late, and at least two for the repeat check.
    while walls.len() < 2
        || loop_start.elapsed().as_secs_f64() + walls[walls.len() - 1] / 2.0 < args.seconds
    {
        attempted += n_scenarios;
        let pass = match timed_pass(&inputs) {
            Ok(pass) => pass,
            Err(panic) => {
                println!("# FAIL pass {}: the program panicked: {panic}", walls.len());
                failed += n_scenarios;
                break;
            }
        };
        let (pass_reference, failures, pass_failed) =
            check_pass(&pass, &inputs, reference.as_ref());
        for e in failures {
            println!("# FAIL pass {}: {e}", walls.len());
        }
        failed += pass_failed;
        let results = pass.results.results();
        let pass_delivered: u64 = results.iter().map(|r| r.net.messages_delivered).sum();
        let (cpu, wait) = pass.sched.unwrap_or((f64::NAN, f64::NAN));
        println!(
            "# pass {}: wall={:.4} s on_cpu={cpu:.4} s runq_wait={wait:.4} s delivered={pass_delivered}",
            walls.len(),
            pass.wall_s
        );
        if reference.is_none() {
            quality_values = quality(&results, &inputs.scenarios);
            delivered = pass_delivered;
            reference = Some(pass_reference);
        }
        walls.push(pass.wall_s);
    }

    let wall_s = median(&walls).unwrap_or(f64::NAN);
    let end_to_end = [
        wall_s,
        delivered as f64 / wall_s,
        peak_rss_kb().map_or(f64::NAN, |kb| kb as f64 / inputs.scale.n_nodes as f64),
        median(&setups).unwrap_or(f64::NAN),
    ];
    let end_to_end: Vec<(MetricDef, f64)> = END_TO_END.iter().cloned().zip(end_to_end).collect();
    for (def, value) in &end_to_end {
        println!("# metric {} = {value} {}", def.name, def.unit);
    }
    // Simulated quality is deterministic per seed; it is reported with the
    // per-layer metrics and printed here for every run.
    let (jitter_free_pct, lag_p50) = quality_values;
    let lag_p50_s = lag_p50.unwrap_or(f64::NAN);
    println!("# metric streaming.jitter_free_pct = {jitter_free_pct} %");
    println!("# metric streaming.lag_p50_s = {lag_p50_s} sim_s");
    println!(
        "# metric failed_run_ratio = {} ({failed} of {attempted} scenario runs)",
        failed as f64 / attempted.max(1) as f64
    );
    let fingerprint = reference
        .as_ref()
        .map(|(fps, rendered)| combined_fingerprint(fps, *rendered));
    println!("# check fingerprint={:016x}", fingerprint.unwrap_or(0));

    let metrics = if args.trace {
        let quality = [
            ("streaming.jitter_free_pct", jitter_free_pct),
            ("streaming.lag_p50_s", lag_p50_s),
        ];
        match traced_pass(args, fingerprint, wall_s, &quality) {
            Ok(traced) => {
                attempted += traced.attempted;
                failed += traced.failed;
                traced.metrics
            }
            Err(e) => {
                println!("# FAIL traced pass: {e}");
                attempted += n_scenarios;
                failed += n_scenarios;
                Vec::new()
            }
        }
    } else {
        end_to_end
    };
    let correct = failed == 0 && !metrics.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        0
    } else {
        1
    }
}

/// The per-layer metrics and the run counts of the traced binary.
struct TracedRun {
    metrics: Vec<(MetricDef, f64)>,
    attempted: u64,
    failed: u64,
}

/// Runs the traced pass in `perfbench_traced` and collects its output.
fn traced_pass(
    args: &Args,
    fingerprint: Option<u64>,
    wall_s: f64,
    quality: &[(&str, f64)],
) -> Result<TracedRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let traced = exe.with_file_name("perfbench_traced");
    let output = Command::new(&traced)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", traced.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut values: HashMap<String, f64> = HashMap::new();
    let mut counts = (0u64, 0u64);
    let mut child_fingerprint = None;
    for line in stdout.lines() {
        println!("# traced: {line}");
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["metric", name, value] => {
                values.insert(
                    name.to_string(),
                    value
                        .parse()
                        .map_err(|_| format!("bad value in {line:?}"))?,
                );
            }
            ["fingerprint", hex] => child_fingerprint = u64::from_str_radix(hex, 16).ok(),
            ["runs", attempted, failed] => {
                let parse = |v: &str| {
                    v.parse::<u64>()
                        .map_err(|_| format!("bad count in {line:?}"))
                };
                counts = (parse(attempted)?, parse(failed)?);
            }
            _ => {}
        }
    }
    if !output.status.success() {
        return Err(format!("perfbench_traced exited with {}", output.status));
    }
    if child_fingerprint != fingerprint {
        return Err("the traced binary's results differ from the timed passes".to_string());
    }
    let traced_wall = values
        .get("trace.wall_s")
        .copied()
        .ok_or("no traced wall time")?;
    values.insert("trace.overhead_ratio".to_string(), traced_wall / wall_s);
    values.extend(
        quality
            .iter()
            .map(|&(name, value)| (name.to_string(), value)),
    );
    let metrics = per_layer_metrics()
        .into_iter()
        .map(|def| {
            let value = values
                .get(def.name.as_ref())
                .copied()
                .ok_or(format!("missing metric {}", def.name))?;
            Ok((def, value))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(TracedRun {
        metrics,
        attempted: counts.0,
        failed: counts.1,
    })
}
