//! The benchmark's own checks, at test size: the traced mirror reproduces
//! `run_scenario` bit for bit on all three workload shapes, the workload
//! inputs are the scenarios the program's experiments build, and the metric
//! tables agree with `BENCHMARK.json`.

use heap_simnet::time::SimDuration;
use heap_workloads::experiments::fig10_churn::window_coverage_series;
use heap_workloads::experiments::{partial_view, StandardRuns};
use heap_workloads::run_scenario;
use perfbench::mirror;
use perfbench::trace::{self, Op, Spans};
use perfbench::{
    check_pass, inputs, parse_args, per_layer_metrics, setup_round, valid_metric_name, Size,
    Workload, END_TO_END,
};

fn mirror_fingerprints(workload: Workload, spans: &mut Spans) -> Vec<u64> {
    inputs(workload, Size::Test, 11)
        .scenarios
        .iter()
        .map(|s| {
            mirror::run_scenario(s, spans)
                .expect("supported shape")
                .0
                .fingerprint()
        })
        .collect()
}

fn program_fingerprints(workload: Workload) -> Vec<u64> {
    inputs(workload, Size::Test, 11)
        .scenarios
        .iter()
        .map(|s| run_scenario(s).fingerprint())
        .collect()
}

#[test]
fn traced_mirror_matches_run_scenario_on_every_shape() {
    for workload in Workload::ALL {
        let expected = program_fingerprints(workload);
        let mut spans = Spans::new();
        assert_eq!(
            mirror_fingerprints(workload, &mut spans),
            expected,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn churn_shape_takes_the_notification_path() {
    trace::reset_folded();
    let scenario = &inputs(Workload::Churn, Size::Test, 11).scenarios[0];
    let mut spans = Spans::new();
    let (result, _) = mirror::run_scenario(scenario, &mut spans).expect("supported shape");
    assert!(result.crashed_count > 0, "the churn shape must crash nodes");
    assert_eq!(result.fingerprint(), run_scenario(scenario).fingerprint());
    let folded = trace::folded_snapshot();
    let calls = |op: Op| {
        folded
            .iter()
            .find(|(o, _)| *o == op)
            .expect("every op is folded")
            .1
            .calls
    };
    assert!(
        calls(Op::NotifyFailure) > 0,
        "crash notifications reach the nodes"
    );
    assert!(calls(Op::TimerJoin) > 0, "standby nodes join");
    assert!(calls(Op::MsgShuffle) > 0, "Cyclon shuffles run");
    assert!(spans.records().iter().any(|r| r.name == "workloads.notify"));
}

#[test]
fn top_level_spans_cover_the_children() {
    let scenario = &inputs(Workload::Scale, Size::Test, 3).scenarios[0];
    let mut spans = Spans::new();
    mirror::run_scenario(scenario, &mut spans).expect("supported shape");
    let records = spans.records();
    let root = records
        .iter()
        .position(|r| r.parent.is_none())
        .expect("a root span");
    let self_total: u64 = spans.self_ns().iter().sum::<u64>();
    let folded_in_root = records[root].folded_ns;
    // Every nanosecond of the root is either some record's self time or a
    // folded operation's time.
    assert_eq!(self_total + folded_in_root, records[root].duration_ns());
}

#[test]
fn paper_inputs_are_the_standard_runs() {
    let input = inputs(Workload::Paper, Size::Test, 5);
    let runs = StandardRuns::compute_sequential(input.scale);
    let expected: Vec<(String, u64)> = runs
        .iter()
        .map(|(_, r)| (r.scenario_name.clone(), r.fingerprint()))
        .collect();
    let ours: Vec<(String, u64)> = input
        .scenarios
        .iter()
        .map(|s| {
            let r = run_scenario(s);
            (r.scenario_name.clone(), r.fingerprint())
        })
        .collect();
    assert_eq!(ours, expected);
}

#[test]
fn churn_input_is_the_continuous_cyclon_scenario() {
    let scenario = &inputs(Workload::Churn, Size::Test, 5).scenarios[1];
    let figure = partial_view::run_continuous(scenario.scale);
    let ours = window_coverage_series(
        &run_scenario(scenario),
        SimDuration::from_secs(12),
        "cyclon - 12s lag",
    );
    let theirs = figure
        .series_named("cyclon - 12s lag")
        .expect("cyclon series");
    assert_eq!(ours.points, theirs.points);
}

#[test]
fn setup_rounds_warm_up_through_the_program() {
    for workload in Workload::ALL {
        let (secs, pass, warm_up) = setup_round(workload, 11).expect("no panic");
        assert!(secs > 0.0);
        assert_eq!(
            warm_up.scenarios.len(),
            inputs(workload, Size::Test, 11).scenarios.len()
        );
        let (reference, failures, failed) = check_pass(&pass, &warm_up, None);
        assert!(failures.is_empty() && failed == 0, "{failures:?}");
        assert_eq!(reference.0, program_fingerprints(workload));
        // A pass that differs from its reference fails every scenario run.
        let wrong = (vec![0; reference.0.len()], reference.1);
        let (_, failures, failed) = check_pass(&pass, &warm_up, Some(&wrong));
        assert_eq!(failed, warm_up.scenarios.len() as u64);
        assert_eq!(failures.len(), warm_up.scenarios.len());
    }
}

#[test]
fn same_seed_same_inputs() {
    for workload in Workload::ALL {
        let a = format!("{:?}", inputs(workload, Size::Bench, 9).scenarios);
        let b = format!("{:?}", inputs(workload, Size::Bench, 9).scenarios);
        let c = format!("{:?}", inputs(workload, Size::Bench, 10).scenarios);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

#[test]
fn unsupported_shapes_are_refused() {
    let mut scenario = inputs(Workload::Paper, Size::Test, 1).scenarios[0].clone();
    scenario.health_series = Some(SimDuration::from_secs(1));
    assert!(mirror::check_shape(&scenario).is_err());
}

/// `(name, unit, better)` of every metric in one section of BENCHMARK.json.
fn listed(section: &str) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| {
            let field = |key: &str| {
                let at = l.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
                l[at..]
                    .split('"')
                    .next()
                    .expect("closing quote")
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json_and_names_are_valid() {
    let end_to_end: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect();
    let per_layer: Vec<(String, String, String)> = per_layer_metrics()
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), end_to_end);
    assert_eq!(listed("per_layer"), per_layer);
    let mut names: Vec<&str> = end_to_end
        .iter()
        .chain(&per_layer)
        .map(|(n, _, _)| n.as_str())
        .collect();
    for name in &names {
        assert!(valid_metric_name(name), "{name}");
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        end_to_end.len() + per_layer.len(),
        "names are unique"
    );
}

#[test]
fn metric_name_check_rejects_other_characters() {
    assert!(valid_metric_name("gossip.msg.serve.self_s"));
    assert!(valid_metric_name("a-b_c.9"));
    assert!(!valid_metric_name(""));
    assert!(!valid_metric_name("wall s"));
    assert!(!valid_metric_name("lag/p50"));
}

#[test]
fn bad_arguments_are_refused() {
    let args = |list: &[&str]| parse_args(list.iter().map(|s| s.to_string()));
    assert!(args(&["--workload", "paper", "--seed", "3"]).is_ok());
    assert!(args(&["--workload", "bogus", "--seed", "3"]).is_err());
    assert!(args(&["--workload", "paper"]).is_err());
    assert!(args(&["--workload", "paper", "--seed", "x"]).is_err());
    assert!(args(&["--workload", "paper", "--seed", "1", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "paper", "--seed", "1", "--seconds"]).is_err());
    assert!(args(&["--workload", "paper", "--seed", "1", "--size", "test"]).is_err());
}
