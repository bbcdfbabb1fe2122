//! End-to-end and per-layer benchmark of the HEAP reproduction.
//!
//! Three workloads, each a batch job on one thread, built from `--seed`:
//!
//! - `paper`: the six `StandardRuns` scenarios at 271 nodes in full detail,
//!   run in sequence, then figs. 3–9, tables 2–3 and the baseline exposition
//!   rendered from them;
//! - `scale`: `scale_campaign::scenario` at 20 000 nodes in compact detail;
//! - `churn`: the Cyclon scenario of `partial_view::run_continuous` at 271
//!   nodes (HEAP on ref-691, 15 % standby pool, Poisson join/leave churn),
//!   three times with seeds derived from `--seed`.
//!
//! Set-up rounds and timed passes call the program's own entry points
//! (`run_scenario`, `StandardRuns::compute_sequential`, the figure
//! functions) with no tracing. The traced pass (the `perfbench_traced` binary) replays the same
//! scenarios through [`mirror`], a span-instrumented copy of the runner, and
//! must reproduce every result fingerprint. `README.md` in this directory
//! documents the metrics.

pub mod mirror;
pub mod trace;

use heap_streaming::source::StreamConfig;
use heap_workloads::experiments::{
    common::table1_distributions, fig3_heap_dist1, fig4_bandwidth_usage, fig5_6_jitter_free,
    fig7_jitter_cdf, fig8_lag_by_class, fig9_lag_cdf, scale_campaign, stream_health,
    table2_jittered_delivery, table3_jitter_free_nodes, Figure, StandardRuns,
};
use heap_workloads::runner::{run_scenario, ExperimentResult};
use heap_workloads::scenario::{ChurnSpec, MembershipChoice, ProtocolChoice, Scenario};
use heap_workloads::{BandwidthDistribution, Scale};
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Windows streamed per `paper` scenario (one window ≈ 1.93 s of stream).
pub const PAPER_WINDOWS: u64 = 20;
/// Population of the `scale` workload.
pub const SCALE_NODES: usize = 20_000;
/// Windows streamed by the `scale` scenario.
pub const SCALE_WINDOWS: u64 = 1;
/// Windows streamed by each `churn` scenario.
pub const CHURN_WINDOWS: u64 = 20;
/// Independent `churn` scenarios per pass. One churn scenario's cost and
/// memory depend on which nodes its seed makes join and leave; averaging
/// over a few seeds keeps one run's figures close to the next run's.
pub const CHURN_INSTANCES: u64 = 3;
/// Set-up rounds repeat until this many seconds have elapsed, and at least
/// [`SETUP_MIN_ROUNDS`] times; `setup_s` is their median. One round takes
/// 0.05–0.2 s, and the host's speed drifts over seconds, so a median over a
/// few seconds of rounds varies less from run to run than one over a few
/// rounds.
pub const SETUP_SECONDS: f64 = 3.0;
pub const SETUP_MIN_ROUNDS: usize = 9;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Scale,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Scale, Workload::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Scale => "scale",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a miniature for the set-up rounds'
/// warm-up and the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Bench,
    Test,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    /// The shared scale of the scenarios.
    pub scale: Scale,
    /// The scenarios, in run order.
    pub scenarios: Vec<Scenario>,
}

/// Generates a workload's inputs from the seed; the same seed gives the same
/// scenarios.
pub fn inputs(workload: Workload, size: Size, seed: u64) -> Inputs {
    let scale = match (workload, size) {
        (Workload::Paper, Size::Bench) => Scale::paper().with_windows(PAPER_WINDOWS),
        (Workload::Paper, Size::Test) => Scale::test().with_nodes(30).with_windows(2),
        (Workload::Scale, Size::Bench) => Scale::test()
            .with_nodes(SCALE_NODES)
            .with_windows(SCALE_WINDOWS),
        (Workload::Scale, Size::Test) => Scale::test().with_nodes(300).with_windows(1),
        (Workload::Churn, Size::Bench) => Scale::paper().with_windows(CHURN_WINDOWS),
        (Workload::Churn, Size::Test) => Scale::test(),
    }
    .with_seed(seed);
    let scenarios = match workload {
        Workload::Paper => paper_scenarios(scale),
        Workload::Scale => vec![scale_campaign::scenario(
            scale.n_nodes,
            scale.n_windows,
            seed,
        )],
        Workload::Churn => (0..CHURN_INSTANCES)
            .map(|i| {
                churn_scenario(scale.with_seed(seed.wrapping_mul(CHURN_INSTANCES).wrapping_add(i)))
            })
            .collect(),
    };
    Inputs {
        workload,
        scale,
        scenarios,
    }
}

/// The six `StandardRuns` scenarios, in `StandardRuns` order and naming.
pub fn paper_scenarios(scale: Scale) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for dist in table1_distributions() {
        for (label, protocol) in [
            ("standard", ProtocolChoice::Standard { fanout: 7.0 }),
            ("heap", ProtocolChoice::Heap { fanout: 7.0 }),
        ] {
            let name = format!("{}/{label}", dist.name());
            scenarios.push(Scenario::new(name, scale, dist.clone(), protocol));
        }
    }
    scenarios
}

/// The Cyclon scenario of `partial_view::run_continuous` at `scale`.
pub fn churn_scenario(scale: Scale) -> Scenario {
    let stream_minutes = StreamConfig::paper(scale.n_windows)
        .stream_duration()
        .as_secs_f64()
        / 60.0;
    let n = scale.n_nodes as f64;
    let churn = ChurnSpec::Continuous {
        standby_fraction: 0.15,
        joins_per_min: (0.12 * n / stream_minutes).max(1.0),
        leaves_per_min: (0.08 * n / stream_minutes).max(1.0),
        detection_secs: 10,
    };
    Scenario::new(
        "partial-view/continuous/cyclon",
        scale,
        BandwidthDistribution::ref_691(),
        ProtocolChoice::Heap { fanout: 7.0 },
    )
    .with_churn(churn)
    .with_membership(MembershipChoice::cyclon())
}

/// Renders figs. 3–9, tables 2–3 and the baseline exposition as `repro`
/// prints them, calling `around` with each figure's name and renderer.
pub fn render_paper(
    runs: &StandardRuns,
    mut around: impl FnMut(&'static str, &mut dyn FnMut() -> String) -> String,
) -> String {
    type Render = fn(&StandardRuns) -> Figure;
    let figures: [(&'static str, Render); 8] = [
        ("workloads.render.fig3", fig3_heap_dist1::run),
        ("workloads.render.fig4", fig4_bandwidth_usage::run),
        ("workloads.render.fig5_6", fig5_6_jitter_free::run),
        ("workloads.render.fig7", fig7_jitter_cdf::run),
        ("workloads.render.fig8", fig8_lag_by_class::run),
        ("workloads.render.fig9", fig9_lag_cdf::run),
        ("workloads.render.table2", table2_jittered_delivery::run),
        ("workloads.render.table3", table3_jitter_free_nodes::run),
    ];
    let mut text = String::new();
    for (name, render) in figures {
        text.push_str(&around(name, &mut || render(runs).to_string()));
    }
    text.push_str(&around("workloads.render.exposition", &mut || {
        stream_health::baseline_exposition(runs)
    }));
    text
}

/// The results of one pass, owned or borrowed from `StandardRuns`.
pub enum PassResults {
    Standard(StandardRuns),
    Plain(Vec<ExperimentResult>),
}

impl PassResults {
    pub fn results(&self) -> Vec<&ExperimentResult> {
        match self {
            PassResults::Standard(runs) => runs.iter().map(|(_, r)| r).collect(),
            PassResults::Plain(results) => results.iter().collect(),
        }
    }
}

/// On-CPU time and run-queue wait of the calling thread, in ns, from
/// `/proc/thread-self/schedstat`.
pub fn schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// One timed pass's measurements.
pub struct Pass {
    pub wall_s: f64,
    /// On-CPU seconds and run-queue wait seconds of the pass, when the
    /// kernel reports them.
    pub sched: Option<(f64, f64)>,
    pub results: PassResults,
    /// Hash of the rendered text (`paper` only).
    pub rendered: Option<u64>,
}

/// Runs one untraced pass: the program's own entry points, no wrapper, no
/// allocator hook. A panic inside the program comes back as an error.
pub fn timed_pass(inputs: &Inputs) -> Result<Pass, String> {
    let sched_before = schedstat();
    let start = Instant::now();
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match inputs.workload {
            Workload::Paper => {
                let runs = StandardRuns::compute_sequential(inputs.scale);
                let text = render_paper(&runs, |_, render| render());
                (PassResults::Standard(runs), Some(text))
            }
            Workload::Scale | Workload::Churn => (
                PassResults::Plain(inputs.scenarios.iter().map(run_scenario).collect()),
                None,
            ),
        }));
    let wall_s = start.elapsed().as_secs_f64();
    let sched = match (sched_before, schedstat()) {
        (Some((cpu0, wait0)), Some((cpu1, wait1))) => {
            Some(((cpu1 - cpu0) as f64 * 1e-9, (wait1 - wait0) as f64 * 1e-9))
        }
        _ => None,
    };
    let (results, text) = outcome.map_err(|panic| panic_message(&*panic))?;
    Ok(Pass {
        wall_s,
        sched,
        results,
        rendered: text.map(|t| hash_of(&t)),
    })
}

/// One set-up round: generates the workload's inputs, then warms up with a
/// pass over the workload's miniature inputs ([`Size::Test`]) through the
/// program's own entry points. Returns the round's duration with the
/// warm-up pass and its inputs, for the caller to check.
pub fn setup_round(workload: Workload, seed: u64) -> Result<(f64, Pass, Inputs), String> {
    let start = Instant::now();
    let bench = inputs(workload, Size::Bench, seed);
    let warm_up = inputs(workload, Size::Test, seed);
    let pass = timed_pass(&warm_up)?;
    let elapsed = start.elapsed().as_secs_f64();
    drop(bench);
    Ok((elapsed, pass, warm_up))
}

/// What a pass leaves for the next pass to be checked against: its result
/// fingerprints and the hash of its rendered text.
pub type Reference = (Vec<u64>, Option<u64>);

/// Checks one pass: every result with [`check_result`], the result count,
/// and, when `reference` is given, identical fingerprints and rendered text.
/// Returns the pass's own reference and one message per failed check, with
/// the number of scenario runs that failed.
pub fn check_pass(
    pass: &Pass,
    inputs: &Inputs,
    reference: Option<&Reference>,
) -> (Reference, Vec<String>, u64) {
    let results = pass.results.results();
    let fingerprints: Vec<u64> = results.iter().map(|r| r.fingerprint()).collect();
    let mut failures = Vec::new();
    let mut failed = 0;
    for (i, (result, scenario)) in results.iter().zip(&inputs.scenarios).enumerate() {
        let repeat = match reference {
            Some((fps, _)) if fps.get(i) != Some(&fingerprints[i]) => Err(format!(
                "{}: fingerprint differs from the first pass",
                scenario.name
            )),
            _ => Ok(()),
        };
        if let Err(e) = check_result(result, scenario).and(repeat) {
            failures.push(e);
            failed += 1;
        }
    }
    let n_scenarios = inputs.scenarios.len() as u64;
    if results.len() != inputs.scenarios.len() {
        failures.push(format!(
            "{} results for {n_scenarios} scenarios",
            results.len()
        ));
        failed = n_scenarios;
    }
    if reference.is_some_and(|(_, rendered)| *rendered != pass.rendered) {
        failures.push("rendered figures differ from the first pass".to_string());
        failed = n_scenarios;
    }
    ((fingerprints, pass.rendered), failures, failed)
}

pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Checks one result: it belongs to `scenario` and conserves messages
/// (`delivered + lost <= sent`; the remainder was in flight at the end).
pub fn check_result(result: &ExperimentResult, scenario: &Scenario) -> Result<(), String> {
    if result.scenario_name != scenario.name {
        return Err(format!(
            "result {} where {} was expected",
            result.scenario_name, scenario.name
        ));
    }
    let net = result.net;
    if net.messages_delivered + net.messages_lost > net.messages_sent {
        return Err(format!(
            "{}: delivered {} + lost {} exceed sent {}",
            scenario.name, net.messages_delivered, net.messages_lost, net.messages_sent
        ));
    }
    if net.messages_delivered == 0 {
        return Err(format!("{}: nothing was delivered", scenario.name));
    }
    Ok(())
}

/// Simulated stream quality over the surviving receivers of every result:
/// the percentage of their windows that play jitter-free at the table-3 view
/// lag of the scenario's distribution, and the median 99 %-delivery lag in
/// seconds of those that reach 99 % delivery (`None` if none does).
///
/// The share is taken over windows, not over whole receivers as in table 3:
/// under continuous churn every receiver has some jittered window, so the
/// receiver-level share is 0 and would say nothing about a change.
pub fn quality(results: &[&ExperimentResult], scenarios: &[Scenario]) -> (f64, Option<f64>) {
    let mut jitter_free = Vec::new();
    let mut lags = Vec::new();
    for (result, scenario) in results.iter().zip(scenarios) {
        let view_lag = table3_jitter_free_nodes::view_lag(scenario.distribution.name());
        for node in result.survivors() {
            jitter_free.push(node.metrics.jitter_free_fraction(view_lag));
            if let Some(lag) = node.metrics.lag_for_full_delivery(0.99) {
                lags.push(lag.as_secs_f64());
            }
        }
    }
    let pct = 100.0 * jitter_free.iter().sum::<f64>() / jitter_free.len().max(1) as f64;
    (pct, median(&lags))
}

/// The median (mean of the middle two for even counts); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Peak resident set size of this process, in KiB (`VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A metric the benchmark reports: name, unit and which direction is better.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: Cow<'static, str>,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn metric(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: Cow::Borrowed(name),
        unit,
        better,
    }
}

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    metric("wall_s", "s", "lower"),
    metric("delivered_msgs_per_s", "1/s", "higher"),
    metric("peak_rss_kb_per_node", "KiB", "lower"),
    metric("setup_s", "s", "lower"),
];

/// The callback and collection operations reported per layer with calls,
/// self time and allocations per call.
pub const OP_METRICS: &[trace::Op] = &[
    trace::Op::MsgPropose,
    trace::Op::MsgRequest,
    trace::Op::MsgServe,
    trace::Op::MsgAggregation,
    trace::Op::TimerGossip,
    trace::Op::TimerAggregation,
    trace::Op::TimerSource,
    trace::Op::TimerRetransmit,
    trace::Op::MsgShuffle,
    trace::Op::TimerShuffle,
    trace::Op::TimerJoin,
];

/// Per-layer metrics, reported with `--trace 1`, besides the
/// `<op>.{calls,self_s,allocs_per_call}` triple of every [`OP_METRICS`] entry.
pub const PER_LAYER_SCALARS: &[MetricDef] = &[
    metric("streaming.jitter_free_pct", "%", "higher"),
    metric("streaming.lag_p50_s", "sim_s", "lower"),
    metric("gossip.start.self_s", "s", "lower"),
    metric("gossip.allocs_per_delivered_msg", "count", "lower"),
    metric("gossip.retransmit_ratio", "ratio", "lower"),
    metric("gossip.duplicate_payload_ratio", "ratio", "lower"),
    metric("gossip.self_s", "s", "lower"),
    metric("simnet.queue_drop_ratio", "ratio", "lower"),
    metric("simnet.upload_wait_ms_mean", "sim_ms", "lower"),
    metric("simnet.run_self_s", "s", "lower"),
    metric("simnet.events", "count", "lower"),
    metric("simnet.ns_per_event", "ns", "lower"),
    metric("simnet.build_s", "s", "lower"),
    metric("simnet.footprint_bytes_per_node", "B", "lower"),
    metric("membership.notify_failure_s", "s", "lower"),
    metric("membership.self_s", "s", "lower"),
    metric("streaming.result_bytes_per_node", "B", "lower"),
    metric("streaming.metrics_compute_s", "s", "lower"),
    metric("streaming.compact_s", "s", "lower"),
    metric("streaming.health_report_s", "s", "lower"),
    metric("workloads.setup_s", "s", "lower"),
    metric("workloads.collect_self_s", "s", "lower"),
    metric("workloads.render_s", "s", "lower"),
    metric("workloads.self_s", "s", "lower"),
    metric("trace.overhead_ratio", "ratio", "lower"),
    metric("trace.span_coverage", "ratio", "higher"),
];

/// Every per-layer metric, in output order.
pub fn per_layer_metrics() -> Vec<MetricDef> {
    let mut defs = Vec::new();
    for op in OP_METRICS {
        for (suffix, unit) in [
            ("calls", "count"),
            ("self_s", "s"),
            ("allocs_per_call", "count"),
        ] {
            defs.push(MetricDef {
                name: Cow::Owned(format!("{}.{suffix}", op.name())),
                unit,
                better: "lower",
            });
        }
    }
    defs.extend_from_slice(PER_LAYER_SCALARS);
    defs
}

/// Whether a metric name is made only of `[A-Za-z0-9_.-]` and is non-empty.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Formats the result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Non-finite values make the line incorrect.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(def, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        correct && finite,
        body.join(", ")
    )
}

/// One fingerprint over a pass: every result's fingerprint, in order, and
/// the rendered text's hash. Printed as a check field, never as a metric.
pub fn combined_fingerprint(fingerprints: &[u64], rendered: Option<u64>) -> u64 {
    hash_of(&(fingerprints, rendered))
}

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: std::path::PathBuf,
}

pub const USAGE: &str =
    "usage: perfbench --workload <paper|scale|churn> --seed <n> [--seconds <s>] \
[--trace <0|1>] [--out-dir <dir>]";

/// Parses `--name value` pairs; `--workload` and `--seed` are required.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut parsed = Args {
        workload: Workload::Paper,
        seed: 0,
        seconds: 10.0,
        trace: false,
        out_dir: std::path::PathBuf::from("perfbench/out"),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out-dir" => parsed.out_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    parsed.seed = seed.ok_or("--seed is required")?;
    Ok(parsed)
}
