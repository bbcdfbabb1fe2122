//! The traced pass. Runs the workload once through the program's own entry
//! points as the reference, then once through the span-instrumented mirror
//! with the timing `Protocol` wrapper, and checks that every result
//! fingerprint matches. Prints `metric <name> <value>` lines, the reference
//! fingerprint and the run counts for `perfbench --trace 1`, and writes the
//! span records and folded accumulators to `<out-dir>/trace-<workload>-seed<n>.json`.

use perfbench::mirror::{self, Extras};
use perfbench::trace::{self, layer_of, CountingAlloc, Op, Spans};
use perfbench::{
    check_result, combined_fingerprint, hash_of, inputs, parse_args, render_paper, schedstat,
    timed_pass, Args, PassResults, Size, Workload, OP_METRICS, USAGE,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench_traced: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(failed) => std::process::exit(if failed == 0 { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench_traced: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<u64, String> {
    let inputs = inputs(args.workload, Size::Bench, args.seed);
    let reference = timed_pass(&inputs)?;
    let reference_results = reference.results.results();
    let reference_fps: Vec<u64> = reference_results.iter().map(|r| r.fingerprint()).collect();
    println!(
        "fingerprint {:016x}",
        combined_fingerprint(&reference_fps, reference.rendered)
    );

    // The traced pass: mirror runs, then (paper) rendering from the
    // reference runs, whose results the mirror must reproduce exactly.
    trace::reset_folded();
    let mut spans = Spans::new();
    let sched_before = schedstat();
    let start = Instant::now();
    let mut mirrored = Vec::with_capacity(inputs.scenarios.len());
    for scenario in &inputs.scenarios {
        mirrored.push(mirror::run_scenario(scenario, &mut spans));
    }
    let rendered = match &reference.results {
        PassResults::Standard(runs) => Some(spans.span("workloads.render", |spans| {
            render_paper(runs, |name, render| spans.span(name, |_| render()))
        })),
        PassResults::Plain(_) => None,
    };
    let wall_s = start.elapsed().as_secs_f64();
    let sched = schedstat()
        .zip(sched_before)
        .map(|((c1, w1), (c0, w0))| ((c1 - c0) as f64 * 1e-9, (w1 - w0) as f64 * 1e-9));

    let mut failed = 0u64;
    let mut results = Vec::new();
    let mut extras = Vec::new();
    for (i, (outcome, scenario)) in mirrored.into_iter().zip(&inputs.scenarios).enumerate() {
        let check = outcome.and_then(|(result, extra)| {
            check_result(&result, scenario)?;
            if result.fingerprint() != reference_fps[i] {
                return Err(format!(
                    "{}: the mirror's result differs from run_scenario's",
                    scenario.name
                ));
            }
            Ok((result, extra))
        });
        match check {
            Ok((result, extra)) => {
                results.push(result);
                extras.push(extra);
            }
            Err(e) => {
                println!("FAIL {e}");
                failed += 1;
            }
        }
    }
    if rendered.map(|t| hash_of(&t)) != reference.rendered {
        println!("FAIL the traced rendering differs from the reference rendering");
        failed += 1;
    }
    println!("runs {} {failed}", 2 * inputs.scenarios.len());
    if failed > 0 {
        return Ok(failed);
    }

    let metrics = layer_metrics(&spans, &results, &extras, wall_s);
    for (name, value) in &metrics {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        println!("metric {name} {:?}", value + 0.0);
    }
    let split = layer_split(&spans);
    for (layer, secs) in &split {
        println!("layer {layer} {secs:.6} s {:.1} %", 100.0 * secs / wall_s);
    }
    let path = args.out_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| {
            std::fs::write(
                &path,
                trace_json(args.workload, args.seed, wall_s, sched, &split, &spans),
            )
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace written to {}", path.display());
    Ok(0)
}

/// Sums the self time of every record whose name equals `name`.
fn self_s_of(spans: &Spans, self_ns: &[u64], name: &str) -> f64 {
    spans
        .records()
        .iter()
        .zip(self_ns)
        .filter(|(r, _)| r.name == name)
        .map(|(_, &ns)| ns as f64 * 1e-9)
        .sum()
}

fn layer_metrics(
    spans: &Spans,
    results: &[heap_workloads::ExperimentResult],
    extras: &[Extras],
    wall_s: f64,
) -> Vec<(String, f64)> {
    let self_ns = spans.self_ns();
    let folded: BTreeMap<&str, trace::OpStats> = trace::folded_snapshot()
        .into_iter()
        .map(|(op, stats)| (op.name(), stats))
        .collect();
    let op_s = |op: Op| folded[op.name()].ns as f64 * 1e-9;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let layer_self = |layer: &str| {
        let records: f64 = spans
            .records()
            .iter()
            .zip(&self_ns)
            .filter(|(r, _)| layer_of(r.name) == layer)
            .map(|(_, &ns)| ns as f64 * 1e-9)
            .sum();
        let ops: f64 = folded
            .iter()
            .filter(|(name, _)| layer_of(name) == layer)
            .map(|(_, s)| s.ns as f64 * 1e-9)
            .sum();
        records + ops
    };

    let mut out: Vec<(String, f64)> = Vec::new();
    for op in OP_METRICS {
        let stats = folded[op.name()];
        out.push((format!("{}.calls", op.name()), stats.calls as f64));
        out.push((format!("{}.self_s", op.name()), stats.ns as f64 * 1e-9));
        out.push((
            format!("{}.allocs_per_call", op.name()),
            ratio(stats.allocs as f64, stats.calls as f64),
        ));
    }
    let nodes = || results.iter().flat_map(|r| r.nodes.iter());
    let net = |f: fn(&heap_workloads::NetTotals) -> u64| {
        results.iter().map(|r| f(&r.net)).sum::<u64>() as f64
    };
    let delivered = net(|n| n.messages_delivered);
    let callback_allocs: u64 = trace::folded_snapshot()
        .iter()
        .filter(|(op, _)| op.is_callback())
        .map(|(_, s)| s.allocs)
        .sum();
    let retransmits: u64 = nodes().map(|n| n.protocol_stats.retransmit_requests).sum();
    let requests: u64 = nodes().map(|n| n.protocol_stats.requests_sent).sum();
    let duplicates: u64 = extras.iter().map(|e| e.duplicate_payloads).sum();
    let packets: u64 = extras.iter().map(|e| e.packets_delivered).sum();
    let queue_drops = net(|n| n.queue_drops);
    let departed = delivered + net(|n| n.messages_lost);
    let wait_us = net(|n| n.total_queueing_delay.as_micros());
    let run_self_s = self_s_of(spans, &self_ns, "simnet.run_until");
    let events: u64 = extras.iter().map(|e| e.events).sum();
    let receivers: usize = results.iter().map(|r| r.nodes.len()).sum();
    let top_level_s: f64 = spans
        .records()
        .iter()
        .filter(|r| r.parent.is_none())
        .map(|r| r.duration_ns() as f64 * 1e-9)
        .sum();
    let render_s: f64 = spans
        .records()
        .iter()
        .filter(|r| r.name == "workloads.render")
        .map(|r| r.duration_ns() as f64 * 1e-9)
        .sum();

    out.extend([
        ("gossip.start.self_s".to_string(), op_s(Op::Start)),
        (
            "gossip.allocs_per_delivered_msg".to_string(),
            ratio(callback_allocs as f64, delivered),
        ),
        (
            "gossip.retransmit_ratio".to_string(),
            ratio(retransmits as f64, requests as f64),
        ),
        (
            "gossip.duplicate_payload_ratio".to_string(),
            ratio(duplicates as f64, packets as f64),
        ),
        ("gossip.self_s".to_string(), layer_self("gossip")),
        (
            "simnet.queue_drop_ratio".to_string(),
            ratio(queue_drops, net(|n| n.messages_sent) + queue_drops),
        ),
        (
            "simnet.upload_wait_ms_mean".to_string(),
            ratio(wait_us / 1e3, departed),
        ),
        ("simnet.run_self_s".to_string(), run_self_s),
        ("simnet.events".to_string(), events as f64),
        (
            "simnet.ns_per_event".to_string(),
            ratio(run_self_s * 1e9, events as f64),
        ),
        (
            "simnet.build_s".to_string(),
            self_s_of(spans, &self_ns, "simnet.build"),
        ),
        (
            "simnet.footprint_bytes_per_node".to_string(),
            ratio(
                extras.iter().map(|e| e.footprint_bytes_per_node).sum(),
                extras.len() as f64,
            ),
        ),
        (
            "membership.notify_failure_s".to_string(),
            op_s(Op::NotifyFailure),
        ),
        ("membership.self_s".to_string(), layer_self("membership")),
        (
            "streaming.result_bytes_per_node".to_string(),
            ratio(
                extras.iter().map(|e| e.result_bytes as f64).sum(),
                receivers as f64,
            ),
        ),
        (
            "streaming.metrics_compute_s".to_string(),
            op_s(Op::MetricsCompute),
        ),
        ("streaming.compact_s".to_string(), op_s(Op::Compact)),
        (
            "streaming.health_report_s".to_string(),
            op_s(Op::HealthReport),
        ),
        (
            "workloads.setup_s".to_string(),
            self_s_of(spans, &self_ns, "workloads.setup"),
        ),
        (
            "workloads.collect_self_s".to_string(),
            self_s_of(spans, &self_ns, "workloads.collect"),
        ),
        ("workloads.render_s".to_string(), render_s),
        ("workloads.self_s".to_string(), layer_self("workloads")),
        ("trace.span_coverage".to_string(), top_level_s / wall_s),
        ("trace.wall_s".to_string(), wall_s),
    ]);
    out
}

/// Self time per layer: span records by name prefix plus folded operations.
fn layer_split(spans: &Spans) -> BTreeMap<&'static str, f64> {
    let mut split: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (record, ns) in spans.records().iter().zip(spans.self_ns()) {
        *split.entry(layer_of(record.name)).or_default() += ns as f64 * 1e-9;
    }
    for (op, stats) in trace::folded_snapshot() {
        *split.entry(layer_of(op.name())).or_default() += stats.ns as f64 * 1e-9;
    }
    split
}

fn trace_json(
    workload: Workload,
    seed: u64,
    wall_s: f64,
    sched: Option<(f64, f64)>,
    split: &BTreeMap<&'static str, f64>,
    spans: &Spans,
) -> String {
    let mut out = String::new();
    let (cpu, wait) = sched.unwrap_or((-1.0, -1.0));
    let _ = write!(
        out,
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"traced_wall_s\": {wall_s:?},\n  \
         \"on_cpu_s\": {cpu:?},\n  \"runq_wait_s\": {wait:?},\n  \"cpu_model\": \"{}\",\n  \"nproc\": {},\n",
        workload.name(),
        heap_bench::hostmeta::cpu_model(),
        heap_bench::hostmeta::core_count()
    );
    let layers: Vec<String> = split
        .iter()
        .map(|(l, s)| format!("\"{l}\": {s:?}"))
        .collect();
    let _ = writeln!(out, "  \"layer_self_s\": {{{}}},", layers.join(", "));
    let ops: Vec<String> = trace::folded_snapshot()
        .iter()
        .map(|(op, s)| {
            format!(
                "    {{\"name\": \"{}\", \"calls\": {}, \"ns\": {}, \"allocs\": {}, \"log2_ns_hist\": {:?}}}",
                op.name(),
                s.calls,
                s.ns,
                s.allocs,
                s.hist
            )
        })
        .collect();
    let _ = writeln!(out, "  \"folded\": [\n{}\n  ],", ops.join(",\n"));
    let records: Vec<String> = spans
        .records()
        .iter()
        .zip(spans.self_ns())
        .enumerate()
        .map(|(id, (r, self_ns))| {
            format!(
                "    {{\"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"allocs\": {}, \"events\": {}}}",
                r.parent.map_or("null".to_string(), |p| p.to_string()),
                r.name,
                r.start_ns,
                r.end_ns,
                r.allocs,
                r.events
            )
        })
        .collect();
    let _ = writeln!(out, "  \"spans\": [\n{}\n  ]\n}}", records.join(",\n"));
    out
}
