//! Outside-in tracing: span records, folded per-kind accumulators, a counting
//! allocator and the timing [`Protocol`] wrapper around [`GossipNode`].
//!
//! Nothing here touches the program's own code. Spans are taken around calls
//! into each crate's public API; the protocol callbacks are timed by
//! [`Traced`], which forwards every call to the wrapped node unchanged. The
//! transmit path (`Context::send`) and the receive path run inside those
//! callbacks, so their cost is charged to the calling gossip span.

use heap_gossip::message::GossipMessage;
use heap_gossip::node::{TAG_AGGREGATION, TAG_GOSSIP, TAG_JOIN, TAG_SHUFFLE, TAG_SOURCE};
use heap_gossip::{GossipNode, RetransmitTracker};
use heap_simnet::node::NodeId;
use heap_simnet::sim::{Context, Protocol, TimerId};
use heap_simnet::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts allocation calls and live bytes. Only the
/// traced binary installs it; the timed binary runs on the system allocator.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters are plain relaxed
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) so far; 0 without
/// [`CountingAlloc`] installed.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes currently allocated; 0 without [`CountingAlloc`] installed.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// A hot operation whose calls are folded into one accumulator each instead
/// of being kept as span records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Start,
    MsgPropose,
    MsgRequest,
    MsgServe,
    MsgAggregation,
    MsgShuffle,
    TimerGossip,
    TimerAggregation,
    TimerSource,
    TimerRetransmit,
    TimerShuffle,
    TimerJoin,
    TimerOther,
    NodeBuild,
    NotifyFailure,
    MetricsCompute,
    Compact,
    HealthReport,
}

impl Op {
    /// Every operation, in accumulator order.
    pub const ALL: [Op; 18] = [
        Op::Start,
        Op::MsgPropose,
        Op::MsgRequest,
        Op::MsgServe,
        Op::MsgAggregation,
        Op::MsgShuffle,
        Op::TimerGossip,
        Op::TimerAggregation,
        Op::TimerSource,
        Op::TimerRetransmit,
        Op::TimerShuffle,
        Op::TimerJoin,
        Op::TimerOther,
        Op::NodeBuild,
        Op::NotifyFailure,
        Op::MetricsCompute,
        Op::Compact,
        Op::HealthReport,
    ];

    /// The span name; the part before the first `.` is the layer.
    pub fn name(self) -> &'static str {
        match self {
            Op::Start => "gossip.start",
            Op::MsgPropose => "gossip.msg.propose",
            Op::MsgRequest => "gossip.msg.request",
            Op::MsgServe => "gossip.msg.serve",
            Op::MsgAggregation => "gossip.msg.aggregation",
            Op::MsgShuffle => "membership.msg.shuffle",
            Op::TimerGossip => "gossip.timer.gossip",
            Op::TimerAggregation => "gossip.timer.aggregation",
            Op::TimerSource => "gossip.timer.source",
            Op::TimerRetransmit => "gossip.timer.retransmit",
            Op::TimerShuffle => "membership.timer.shuffle",
            Op::TimerJoin => "membership.timer.join",
            Op::TimerOther => "gossip.timer.other",
            Op::NodeBuild => "gossip.node_build",
            Op::NotifyFailure => "membership.notify_failure",
            Op::MetricsCompute => "streaming.metrics_compute",
            Op::Compact => "streaming.compact",
            Op::HealthReport => "streaming.health_report",
        }
    }

    /// Whether the operation is a protocol callback invoked by the simulator.
    pub fn is_callback(self) -> bool {
        (self as usize) <= (Op::TimerOther as usize)
    }

    fn of_message(msg: &GossipMessage) -> Op {
        match msg {
            GossipMessage::Propose { .. } => Op::MsgPropose,
            GossipMessage::Request { .. } => Op::MsgRequest,
            GossipMessage::Serve { .. } => Op::MsgServe,
            GossipMessage::Aggregation { .. } => Op::MsgAggregation,
            GossipMessage::Shuffle { .. } => Op::MsgShuffle,
        }
    }

    fn of_timer(tag: u64) -> Op {
        match tag {
            TAG_GOSSIP => Op::TimerGossip,
            TAG_AGGREGATION => Op::TimerAggregation,
            TAG_SOURCE => Op::TimerSource,
            TAG_SHUFFLE => Op::TimerShuffle,
            TAG_JOIN => Op::TimerJoin,
            t if RetransmitTracker::is_retransmit_tag(t) => Op::TimerRetransmit,
            _ => Op::TimerOther,
        }
    }
}

/// Number of log2 latency buckets: bucket `b` counts calls of `[2^b, 2^(b+1))` ns.
pub const HIST_BUCKETS: usize = 40;

/// The folded accumulator of one [`Op`].
#[derive(Debug, Clone, Copy)]
pub struct OpStats {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
    pub hist: [u64; HIST_BUCKETS],
}

impl OpStats {
    const ZERO: OpStats = OpStats {
        calls: 0,
        ns: 0,
        allocs: 0,
        hist: [0; HIST_BUCKETS],
    };
}

struct Folded {
    ops: [OpStats; Op::ALL.len()],
    total_ns: u64,
}

thread_local! {
    static FOLDED: RefCell<Folded> = const {
        RefCell::new(Folded { ops: [OpStats::ZERO; Op::ALL.len()], total_ns: 0 })
    };
}

/// Runs `f`, charging its time and allocations to `op`'s accumulator.
#[inline]
pub fn fold<R>(op: Op, f: impl FnOnce() -> R) -> R {
    let allocs_before = allocations();
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    let allocs = allocations() - allocs_before;
    FOLDED.with(|folded| {
        let mut folded = folded.borrow_mut();
        folded.total_ns += ns;
        let stats = &mut folded.ops[op as usize];
        stats.calls += 1;
        stats.ns += ns;
        stats.allocs += allocs;
        let bucket = (u64::BITS - ns.max(1).leading_zeros() - 1) as usize;
        stats.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    });
    out
}

/// A snapshot of every accumulator, in [`Op::ALL`] order.
pub fn folded_snapshot() -> Vec<(Op, OpStats)> {
    FOLDED.with(|folded| {
        let folded = folded.borrow();
        Op::ALL
            .iter()
            .map(|&op| (op, folded.ops[op as usize]))
            .collect()
    })
}

/// Clears every accumulator.
pub fn reset_folded() {
    FOLDED.with(|folded| {
        let mut folded = folded.borrow_mut();
        folded.ops = [OpStats::ZERO; Op::ALL.len()];
        folded.total_ns = 0;
    });
}

fn folded_total_ns() -> u64 {
    FOLDED.with(|folded| folded.borrow().total_ns)
}

/// A [`GossipNode`] whose callbacks are timed per message kind and timer
/// tag. Same size as the node it wraps, so `memory_footprint()` is unchanged.
pub struct Traced(pub GossipNode);

impl Protocol for Traced {
    type Message = GossipMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, GossipMessage>) {
        fold(Op::Start, || self.0.on_start(ctx))
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, GossipMessage>,
        from: NodeId,
        msg: GossipMessage,
    ) {
        let op = Op::of_message(&msg);
        fold(op, || self.0.on_message(ctx, from, msg))
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, GossipMessage>, timer: TimerId, tag: u64) {
        fold(Op::of_timer(tag), || self.0.on_timer(ctx, timer, tag))
    }

    fn on_crash(&mut self, now: SimTime) {
        self.0.on_crash(now)
    }
}

/// One coarse span: kept as a record with its parent and written out at the
/// end of the pass.
#[derive(Debug, Clone)]
pub struct Record {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time of folded operations inside the span, children's included.
    pub folded_ns: u64,
    /// Allocation calls inside the span, children's included.
    pub allocs: u64,
    /// Simulator events processed (`run_until` spans only).
    pub events: u64,
}

impl Record {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The coarse-span recorder.
pub struct Spans {
    origin: Instant,
    records: Vec<Record>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            records: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span. `f` gets the recorder back to open children or set the event
    /// count.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.records.len();
        self.records.push(Record {
            name,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            folded_ns: folded_total_ns(),
            allocs: allocations(),
            events: 0,
        });
        self.stack.push(id);
        self.records[id].start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        let record = &mut self.records[id];
        record.end_ns = end_ns;
        record.folded_ns = folded_total_ns() - record.folded_ns;
        record.allocs = allocations() - record.allocs;
        out
    }

    /// Sets the event count of the innermost open span.
    pub fn set_events(&mut self, events: u64) {
        if let Some(&id) = self.stack.last() {
            self.records[id].events = events;
        }
    }

    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Self time of every record: its duration minus its child records'
    /// durations and the folded operations run directly inside it.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.records.len()];
        let mut child_folded = vec![0u64; self.records.len()];
        for record in &self.records {
            if let Some(parent) = record.parent {
                child_ns[parent] += record.duration_ns();
                child_folded[parent] += record.folded_ns;
            }
        }
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let own_folded = r.folded_ns.saturating_sub(child_folded[i]);
                r.duration_ns()
                    .saturating_sub(child_ns[i])
                    .saturating_sub(own_folded)
            })
            .collect()
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

/// The layer of a span name: the part before the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}
