//! A benchmark-owned mirror of `heap_workloads::runner::run_scenario`.
//!
//! It makes the same public calls in the same order, so it draws the same
//! random numbers and produces a bit-identical [`ExperimentResult`] (the
//! traced pass asserts this per scenario by fingerprint). What it adds is a
//! span around each call into a layer, and each [`GossipNode`] wrapped in
//! [`Traced`], which times its callbacks.
//!
//! Only the shapes the benchmark workloads use are mirrored: the single-core
//! engine, no fault plan, no free-riders, no health series, and either no
//! churn or continuous churn. Any other scenario is refused with an error.

use crate::trace::{fold, Op, Spans, Traced};
use heap_analytics::BucketSeries;
use heap_gossip::fanout::FanoutPolicy;
use heap_gossip::node::{GossipNode, Role};
use heap_membership::churn::ChurnSchedule;
use heap_simnet::bandwidth::{Bandwidth, UploadCapacity};
use heap_simnet::node::NodeId;
use heap_simnet::rng::stream_rng;
use heap_simnet::sim::{Simulator, SimulatorBuilder};
use heap_simnet::time::{SimDuration, SimTime};
use heap_streaming::metrics::{CompactNodeMetrics, NodeMetrics, NodeStreamMetrics};
use heap_streaming::source::{StreamConfig, StreamSchedule};
use heap_workloads::runner::{ExperimentResult, NetTotals, NodeResult, WARMUP};
use heap_workloads::scenario::{ChurnSpec, ResultDetail, Scenario, ShardingChoice};
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// Refuses scenario shapes the mirror does not reproduce.
pub fn check_shape(scenario: &Scenario) -> Result<(), String> {
    let unsupported = if scenario.fault.is_some() {
        Some("a fault plan")
    } else if scenario.free_riders.is_some() {
        Some("free-riders")
    } else if scenario.health_series.is_some() {
        Some("a health series")
    } else if !matches!(scenario.sharding, ShardingChoice::Single) {
        Some("a sharded engine")
    } else if !matches!(
        scenario.churn,
        ChurnSpec::None | ChurnSpec::Continuous { .. }
    ) {
        Some("catastrophic or flash-crowd churn")
    } else {
        None
    };
    match unsupported {
        Some(what) => Err(format!(
            "scenario {} uses {what}, which the mirror does not cover",
            scenario.name
        )),
        None if scenario.scale.n_nodes < 2 => Err(format!(
            "scenario {} has fewer than two nodes",
            scenario.name
        )),
        None => Ok(()),
    }
}

/// A scenario with its simulator built and its churn scheduled, ready to run.
pub struct Prepared {
    sim: Simulator<Traced>,
    advertised: Vec<Option<Bandwidth>>,
    join_at: Vec<Option<SimTime>>,
    crashed_nodes: HashSet<NodeId>,
    notifications: Vec<(SimTime, NodeId)>,
    schedule: StreamSchedule,
    stream_config: StreamConfig,
    end: SimTime,
}

/// What the traced pass reads from the simulator besides the result.
#[derive(Debug, Clone, Copy, Default)]
pub struct Extras {
    /// Events processed over all `run_until` calls.
    pub events: u64,
    /// `Simulator::memory_footprint()` per node after the run.
    pub footprint_bytes_per_node: f64,
    /// Sum of `EngineStats::duplicate_payloads` over all nodes.
    pub duplicate_payloads: u64,
    /// Sum of `EngineStats::packets_delivered` over all nodes.
    pub packets_delivered: u64,
    /// Live heap bytes the collected result holds (counting allocator only).
    pub result_bytes: u64,
}

/// Set-up: capabilities, churn plan, simulator build, crash schedule.
pub fn prepare(scenario: &Scenario, spans: &mut Spans) -> Result<Prepared, String> {
    check_shape(scenario)?;
    Ok(spans.span("workloads.setup", |spans| prepare_inner(scenario, spans)))
}

fn prepare_inner(scenario: &Scenario, spans: &mut Spans) -> Prepared {
    let scale = scenario.scale;
    let n = scale.n_nodes;
    let mut setup_rng = stream_rng(scale.seed, 0xC0FF_EE00);

    let receiver_caps = scenario.distribution.assign(n - 1, &mut setup_rng);
    let mut advertised: Vec<Option<Bandwidth>> = Vec::with_capacity(n);
    advertised.push(Some(scenario.source_capability));
    advertised.extend(receiver_caps.iter().copied());
    let mut actual = advertised.clone();
    if scenario.straggler_fraction > 0.0 {
        for slot in actual.iter_mut().skip(1) {
            if let Some(cap) = slot {
                if setup_rng.gen_bool(scenario.straggler_fraction) {
                    *slot = Some(Bandwidth::from_bps((cap.as_bps() / 2).max(1)));
                }
            }
        }
    }
    let capacities: Vec<UploadCapacity> = actual
        .iter()
        .map(|c| {
            c.map(UploadCapacity::Limited)
                .unwrap_or(UploadCapacity::Unlimited)
        })
        .collect();

    let stream_config = StreamConfig::paper(scale.n_windows);
    let schedule = StreamSchedule::new(stream_config, SimTime::ZERO + WARMUP);
    let policy = scenario.protocol.policy(scenario.distribution.average());
    let gossip_config = scenario.gossip.clone();

    let continuous = match scenario.churn {
        ChurnSpec::Continuous {
            standby_fraction,
            joins_per_min,
            leaves_per_min,
            ..
        } => Some(ChurnSchedule::continuous(
            n,
            standby_fraction,
            joins_per_min,
            leaves_per_min,
            (
                schedule.start(),
                schedule.start() + stream_config.stream_duration(),
            ),
            &[0],
            &mut setup_rng,
        )),
        _ => None,
    };
    let join_at: Vec<Option<SimTime>> = match &continuous {
        None => vec![None; n],
        Some(plan) => {
            let join_time: HashMap<NodeId, SimTime> =
                plan.joins.iter().map(|j| (j.node, j.at)).collect();
            (0..n)
                .map(|i| {
                    let id = NodeId::new(i as u32);
                    plan.standby
                        .binary_search(&id)
                        .ok()
                        .map(|_| join_time.get(&id).copied().unwrap_or(SimTime::MAX))
                })
                .collect()
        }
    };

    let mut builder = SimulatorBuilder::new(n, scale.seed)
        .latency(scenario.latency.clone())
        .loss(scenario.loss.clone())
        .capacities(capacities);
    if let Some(limit) = scenario.upload_queue_limit {
        builder = builder.upload_queue_limit(limit);
    }
    let partial_membership = scenario.membership.partial_config();
    let mut sim: Simulator<Traced> = spans.span("simnet.build", |_| {
        builder.build(|id| {
            fold(Op::NodeBuild, || {
                let capability =
                    advertised[id.index()].unwrap_or_else(|| Bandwidth::from_mbps(100));
                let (role, node_policy) = if id.index() == 0 {
                    (Role::Source, FanoutPolicy::fixed(gossip_config.fanout))
                } else {
                    (Role::Receiver, policy)
                };
                let mut node = GossipNode::builder(id, n, schedule)
                    .config(gossip_config.clone())
                    .fanout(node_policy)
                    .capability(capability)
                    .role(role);
                if let Some(partial) = partial_membership {
                    node = node.partial_membership(partial);
                }
                if let Some(at) = join_at[id.index()] {
                    node = node.join_at(at);
                }
                Traced(node.build())
            })
        })
    });

    let churn_schedule = match scenario.churn {
        ChurnSpec::Continuous { detection_secs, .. } => continuous
            .expect("continuous plan generated above")
            .schedule
            .with_detection_mean(SimDuration::from_secs(detection_secs)),
        _ => ChurnSchedule::none(),
    };
    for event in churn_schedule.events() {
        sim.schedule_crash(event.node, event.at);
    }
    let mut notifications: Vec<(SimTime, NodeId)> = churn_schedule
        .events()
        .iter()
        .map(|e| {
            (
                churn_schedule.sample_detection_time(e.at, &mut setup_rng),
                e.node,
            )
        })
        .collect();
    notifications.sort_by_key(|(t, _)| *t);

    Prepared {
        sim,
        advertised,
        join_at,
        crashed_nodes: churn_schedule.crashed_nodes().into_iter().collect(),
        notifications,
        schedule,
        stream_config,
        end: schedule.start() + scenario.run_duration(),
    }
}

/// The run: advance to each crash notification, deliver it to every live
/// node, then advance to the end. Returns the events processed.
fn run(prep: &mut Prepared, spans: &mut Spans) -> u64 {
    let n = prep.sim.len();
    let end = prep.end;
    let mut events = 0;
    for (at, crashed) in std::mem::take(&mut prep.notifications) {
        let at = at.min(end);
        events += run_until(&mut prep.sim, at, spans);
        spans.span("workloads.notify", |_| {
            for i in 0..n {
                let id = NodeId::new(i as u32);
                if prep.sim.is_alive(id) {
                    let node = &mut prep.sim.node_mut(id).0;
                    fold(Op::NotifyFailure, || node.notify_failure(crashed, at));
                }
            }
        });
    }
    events + run_until(&mut prep.sim, end, spans)
}

fn run_until(sim: &mut Simulator<Traced>, to: SimTime, spans: &mut Spans) -> u64 {
    spans.span("simnet.run_until", |spans| {
        let events = sim.run_until(to);
        spans.set_events(events);
        events
    })
}

/// Collection: per-node stream metrics, health reports and upload figures,
/// then the network totals; the simulator is dropped inside the pass, as
/// `run_scenario` drops it.
fn collect(prep: Prepared, scenario: &Scenario, spans: &mut Spans) -> (ExperimentResult, Extras) {
    let live_before = crate::trace::live_bytes();
    let result = spans.span("workloads.collect", |_| collect_inner(&prep, scenario));
    let result_bytes = crate::trace::live_bytes().saturating_sub(live_before);

    let mut extras = Extras {
        result_bytes,
        footprint_bytes_per_node: prep.sim.memory_footprint().bytes_per_node(),
        ..Extras::default()
    };
    for (_, node) in prep.sim.iter_nodes() {
        let stats = node.0.engine().stats();
        extras.duplicate_payloads += stats.duplicate_payloads;
        extras.packets_delivered += stats.packets_delivered;
    }
    spans.span("workloads.drop", |_| drop(prep));
    (result, extras)
}

fn collect_inner(prep: &Prepared, scenario: &Scenario) -> ExperimentResult {
    let sim = &prep.sim;
    let schedule = prep.schedule;
    let end = prep.end;
    let streaming_span = prep.stream_config.stream_duration();
    let mut nodes = Vec::with_capacity(prep.advertised.len() - 1);
    let mut packet_lag_series = match scenario.detail {
        ResultDetail::Full => None,
        ResultDetail::Compact => Some(BucketSeries::new("packet lag distribution", 0.5)),
    };
    for (i, &advertised_cap) in prep.advertised.iter().enumerate().skip(1) {
        let id = NodeId::new(i as u32);
        let node = &sim.node(id).0;
        let full_metrics = fold(Op::MetricsCompute, || {
            NodeStreamMetrics::compute(&schedule, node.receiver_log())
        });
        let metrics = match scenario.detail {
            ResultDetail::Full => NodeMetrics::Full(full_metrics),
            ResultDetail::Compact => {
                let series = packet_lag_series.as_mut().expect("created above");
                for lag in full_metrics.received_packet_lags() {
                    let secs = lag.as_secs_f64();
                    series.record(secs, secs);
                }
                NodeMetrics::Compact(fold(Op::Compact, || {
                    CompactNodeMetrics::from_full(&full_metrics)
                }))
            }
        };
        let health = fold(Op::HealthReport, || node.health().report(end));
        let queue = sim.upload_queue(id);
        let upload_utilization = match queue.capacity() {
            UploadCapacity::Unlimited => None,
            UploadCapacity::Limited(_) => {
                Some((queue.busy_time().as_secs_f64() / streaming_span.as_secs_f64()).min(1.0))
            }
        };
        nodes.push(NodeResult {
            node: id,
            class: scenario.distribution.class_label(advertised_cap),
            capability: advertised_cap,
            crashed: prep.crashed_nodes.contains(&id),
            joined_at: prep.join_at[i],
            free_rider: false,
            metrics,
            health,
            upload_utilization,
            upload_rate_kbps: queue.achieved_rate_bps(streaming_span) / 1_000.0,
            protocol_stats: node.stats(),
        });
    }
    let stats = sim.stats();
    ExperimentResult {
        scenario_name: scenario.name.clone(),
        schedule,
        nodes,
        crashed_count: prep.crashed_nodes.len(),
        net: NetTotals {
            messages_sent: stats.total_messages_sent(),
            messages_delivered: stats.total_messages_delivered(),
            messages_lost: stats.total_messages_lost(),
            queue_drops: stats.total_queue_drops(),
            total_queueing_delay: stats.total_queueing_delay,
        },
        health_series: None,
        packet_lag_series,
    }
}

/// Runs one scenario through the mirror: set-up, run and collection, each
/// under its spans, all under one `workloads.scenario` span.
pub fn run_scenario(
    scenario: &Scenario,
    spans: &mut Spans,
) -> Result<(ExperimentResult, Extras), String> {
    spans.span("workloads.scenario", |spans| {
        let mut prep = prepare(scenario, spans)?;
        let events = run(&mut prep, spans);
        let (result, mut extras) = collect(prep, scenario, spans);
        extras.events = events;
        Ok((result, extras))
    })
}
