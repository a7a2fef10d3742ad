//! Thread-per-node execution of a deployment for wall-clock latency and
//! throughput measurements (the Fig. 8 experiment of the paper).
//!
//! Each network node runs as one OS thread owning its tasks; matches cross
//! nodes in batched [`Frame`]s over bounded `crossbeam` channels. Execution
//! proceeds in *chunks* of virtual time: within a chunk every node injects
//! its local events as fast as possible (interleaved with inbox draining),
//! then all nodes run a fixed number of barrier-synchronized drain rounds —
//! one per possible network hop — so every in-flight match is consumed
//! before the next chunk starts. With a store-eviction slack covering the
//! chunk skew, the produced match sets equal the deterministic simulator's
//! (asserted in tests), while wall-clock throughput and per-match latency
//! reflect real parallel execution.
//!
//! Each node thread runs the execution kernel shared with the simulator
//! over its own tasks; this module keeps only threads, frames, barriers
//! and crash recovery. Deliveries between tasks on the same node go
//! through the node's backlog, which is run to empty after every
//! injection.
//!
//! # Data plane
//!
//! The transport ([`TransportMode`]) keeps one output buffer per
//! destination node and flushes it as a multi-message frame when it
//! reaches the batch threshold, and at chunk and drain-round boundaries.
//! Receivers hand emptied frame buffers back to their origin node over an
//! unbounded return channel, so the steady-state send path recycles buffers
//! instead of allocating. Data channels are bounded: a full channel rejects
//! the `try_send`, and the blocked sender *steals from its own inbox*
//! (ingesting frames into a local backlog without processing them) before
//! retrying — senders under backpressure convert stalls into useful work,
//! which also breaks send cycles between mutually-full nodes. The same
//! steal runs while spinning at the drain barrier, so a node waiting for a
//! round cannot deadlock senders that are still flushing into it.
//! Backpressure is observable, not silent: blocked sends, in-flight queue
//! depth, and the realized batch-size distribution are recorded in
//! [`crate::metrics::TransportStats`].
//!
//! # Negation
//!
//! Nodes process a chunk's events in parallel, so a negation guard may
//! arrive *after* the match it should suppress — the simulator, processing
//! in global timestamp order, never observes that race. Negation-hosting
//! joins therefore defer completed candidates and re-check absence at chunk
//! quiescence ([`crate::matcher::JoinTask::release_deferred`]), when every
//! guard timestamped inside the chunk has been delivered. Chains of
//! negation joins release level by level: each chunk runs one extra
//! release-and-drain phase per level ([`negation_release_phases`]).

use crate::checkpoint::{self, CheckpointError, Snapshot};
use crate::deploy::Deployment;
use crate::flight::{FlightRecord, FlightRing};
use crate::kernel::{build_joins, match_hash, Kernel, LatencyRule, MuxBuildHasher, Outbound};
use crate::matcher::{JoinTask, Match};
use crate::metrics::{Metrics, RecoveryStats};
use crate::telemetry::{names, ClockDomain, ExecTelemetry, GaugeKind, RunTelemetry, TelemetrySpec};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use muse_core::event::{Event, Timestamp};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Inter-node transport settings of the threaded executor: per-destination
/// output buffers flushed as multi-message frames over bounded channels,
/// with a frame-recycling return path and inbox-stealing backpressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportMode {
    /// Messages per frame before an eager flush (frames also flush at
    /// chunk and drain-round boundaries, so they may be smaller).
    pub batch: usize,
    /// Bound of each node's data channel, in frames.
    pub capacity: usize,
}

impl Default for TransportMode {
    fn default() -> Self {
        Self {
            batch: 64,
            capacity: 128,
        }
    }
}

/// Deterministic fault-injection plan: crash one node mid-run and recover
/// it from its last chunk-boundary checkpoint (the executor's stand-in
/// for the paper's §7.3 Ambrosia resiliency setup).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The node to crash.
    pub node: usize,
    /// The crash fires just before the node injects its `crash_at`-th
    /// local event (0-based count over the whole run). A count beyond the
    /// node's share of the trace means the fault never fires.
    pub crash_at: u64,
    /// Simulated downtime between the crash and the start of recovery.
    pub restart_delay: Duration,
}

/// Configuration of the threaded executor.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Join store eviction slack (multiples of the window; must cover the
    /// inter-node skew of one chunk, ≥ 2 recommended; deferred-negation
    /// release additionally needs `slack · window ≥ chunk + window`, which
    /// the defaults satisfy).
    pub slack: f64,
    /// Virtual-time chunk length; defaults to the workload's largest
    /// window.
    pub chunk_ticks: Option<Timestamp>,
    /// Inter-node transport settings.
    pub transport: TransportMode,
    /// Telemetry collection; each node thread keeps a private shard
    /// (registry, series, trace) that is merged when the threads join.
    pub telemetry: Option<TelemetrySpec>,
    /// Take a per-node state snapshot at every chunk boundary and assemble
    /// the merged end-of-run state into [`ThreadedReport::final_snapshot`].
    /// Forced on by a fault plan (recovery restores from these shards).
    pub checkpoint: bool,
    /// Crash-and-recover one node mid-run (see [`FaultPlan`]).
    pub fault: Option<FaultPlan>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        Self {
            slack: 4.0,
            chunk_ticks: None,
            transport: TransportMode::default(),
            telemetry: None,
            checkpoint: false,
            fault: None,
        }
    }
}

/// The result of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Sink matches per query.
    pub matches: Vec<Vec<Match>>,
    /// Aggregated metrics (virtual-time latencies unused; see
    /// `wall_latencies_ns`).
    pub metrics: Metrics,
    /// Total wall-clock execution time.
    pub wall_time: Duration,
    /// Injected events per wall-clock second.
    pub events_per_sec: f64,
    /// Wall-clock latency per sink match, in nanoseconds: emission minus
    /// injection of the match's newest constituent event. Matches whose
    /// newest event was injected in an earlier (resumed-from) run have no
    /// injection record and are counted in
    /// `metrics.latency_samples_dropped` instead of being recorded with a
    /// bogus baseline.
    pub wall_latencies_ns: Vec<u64>,
    /// Shard-merged telemetry, when [`ThreadedConfig::telemetry`] was set.
    pub telemetry: Option<RunTelemetry>,
    /// Encoded end-of-run state (all shards merged), when
    /// [`ThreadedConfig::checkpoint`] was set. Restorable by either
    /// executor via [`crate::checkpoint`].
    pub final_snapshot: Option<Vec<u8>>,
    /// Encoded flight-recorder dumps published by crashed shards (one per
    /// crash; empty unless a [`FaultPlan`] fired). Decode with
    /// [`crate::flight::decode_dump`] and pretty-print with
    /// [`crate::flight::render_timeline`].
    pub flight_dumps: Vec<Vec<u8>>,
}

impl ThreadedReport {
    /// Five-number summary of wall-clock latencies in nanoseconds
    /// `(min, p25, p50, p75, max)`, as plotted in Fig. 8. Quantiles use
    /// the shared nearest-rank rule
    /// ([`crate::metrics::percentile_nearest_rank`]), so summaries agree
    /// with `Metrics::latency_percentile` on identical samples.
    pub fn latency_summary_ns(&self) -> Option<[u64; 5]> {
        let mut sorted = self.wall_latencies_ns.clone();
        sorted.sort_unstable();
        let pick = |q: f64| crate::metrics::percentile_nearest_rank(&sorted, q);
        Some([pick(0.0)?, pick(0.25)?, pick(0.5)?, pick(0.75)?, pick(1.0)?])
    }
}

/// A match in flight between nodes.
struct NodeMsg {
    target: usize,
    slot: usize,
    m: Match,
}

/// A batch of messages on an inter-node channel. `origin` addresses the
/// return path: the receiver hands the emptied `msgs` buffer back to the
/// origin node's recycling pool.
struct Frame {
    origin: usize,
    msgs: Vec<NodeMsg>,
}

/// A sense-reversing spin barrier whose waiters run an `idle` closure each
/// spin iteration. The threaded executor's waiters steal frames from their
/// own inbox (ingest without processing) so a node parked at a round
/// boundary keeps consuming — a plain [`std::sync::Barrier`] would let a
/// bounded-channel sender and a parked receiver deadlock each other.
///
/// Correctness: the last arriver resets `arrived` (Release) and then bumps
/// `generation` (Release); a waiter leaves on an Acquire load of the new
/// generation, which happens-after the reset, so its `fetch_add` for the
/// next round observes the zeroed count.
struct DrainBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
}

impl DrainBarrier {
    fn new(n: usize) -> Self {
        Self {
            n: n.max(1),
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
        }
    }

    fn wait(&self, mut idle: impl FnMut()) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            while self.generation.load(Ordering::Acquire) == generation {
                idle();
            }
        }
    }
}

/// The maximum number of network hops on any task path — the number of
/// drain rounds needed to reach quiescence after all sends of a chunk.
fn remote_depth(deployment: &Deployment) -> usize {
    let n = deployment.tasks.len();
    let mut indeg = vec![0usize; n];
    for routes in &deployment.routes {
        for r in routes {
            indeg[r.target] += 1;
        }
    }
    let mut depth = vec![0usize; n];
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut head = 0;
    let mut max_depth = 0;
    while head < queue.len() {
        let i = queue[head];
        head += 1;
        for r in &deployment.routes[i] {
            let d = depth[i] + usize::from(r.remote);
            if d > depth[r.target] {
                depth[r.target] = d;
                max_depth = max_depth.max(d);
            }
            indeg[r.target] -= 1;
            if indeg[r.target] == 0 {
                queue.push(r.target);
            }
        }
    }
    max_depth
}

/// The longest chain of negation-hosting joins on any task path — the
/// number of extra release-and-drain phases each chunk needs so deferred
/// candidates released by one negation level reach (and are re-checked by)
/// the next.
fn negation_release_phases(deployment: &Deployment, joins: &[Option<JoinTask>]) -> usize {
    let n = deployment.tasks.len();
    let neg: Vec<bool> = joins
        .iter()
        .map(|j| j.as_ref().is_some_and(JoinTask::has_negations))
        .collect();
    let mut indeg = vec![0usize; n];
    for routes in &deployment.routes {
        for r in routes {
            indeg[r.target] += 1;
        }
    }
    let mut count = vec![0usize; n];
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    for &i in &queue {
        count[i] = usize::from(neg[i]);
    }
    let mut head = 0;
    let mut max_count = count.iter().copied().max().unwrap_or(0);
    while head < queue.len() {
        let i = queue[head];
        head += 1;
        for r in &deployment.routes[i] {
            let c = count[i] + usize::from(neg[r.target]);
            if c > count[r.target] {
                count[r.target] = c;
                max_count = max_count.max(c);
            }
            indeg[r.target] -= 1;
            if indeg[r.target] == 0 {
                queue.push(r.target);
            }
        }
    }
    max_count
}

/// Crash-recovery coordination shared by the node threads in checkpoint
/// or fault mode.
struct ResilienceShared {
    /// Last chunk-boundary snapshot of each node, encoded (the "durable
    /// storage" a crashed node recovers from).
    shards: Vec<Mutex<Vec<u8>>>,
    /// `chunk index + 1` of the injected crash; 0 while no crash has
    /// happened. Written by the crashing node before it reaches the
    /// crash-coordination barrier, so every node reads a consistent value
    /// right after it.
    crashed_chunk: AtomicU64,
    /// Encoded flight-recorder dump of each node, published by the crash
    /// path alongside the recovery snapshot (empty while no crash).
    flight_dumps: Vec<Mutex<Vec<u8>>>,
}

/// Flight-recorder records retained per shard in resilient mode.
const FLIGHT_CAPACITY: usize = 256;

/// Runs a deployment with one thread per network node.
pub fn run_threaded(
    deployment: &Deployment,
    events: &[Event],
    config: &ThreadedConfig,
) -> ThreadedReport {
    let joins =
        build_joins(deployment, config.slack, |_| true, None).expect("fresh joins instantiate");
    run_threaded_inner(deployment, events, config, joins, None)
}

/// Resumes a threaded run from a snapshot (produced by either executor —
/// a [`ThreadedReport::final_snapshot`] or a simulator checkpoint).
///
/// `events` is the remainder of the trace: the part the snapshotted run
/// had not yet consumed. The snapshot must be quiescent (no in-flight
/// deliveries — true of every snapshot the executors produce at event or
/// chunk boundaries); otherwise [`CheckpointError::NotQuiescent`] is
/// returned.
pub fn run_threaded_resumed(
    deployment: &Deployment,
    events: &[Event],
    config: &ThreadedConfig,
    snapshot: &[u8],
) -> Result<ThreadedReport, CheckpointError> {
    let mut snap = checkpoint::decode_for(deployment, snapshot)?;
    if !snap.pending.is_empty() {
        return Err(CheckpointError::NotQuiescent);
    }
    // Graft every join up front, so the node threads cannot fail.
    let joins = build_joins(deployment, config.slack, |_| true, Some(&mut snap.tasks))?;
    Ok(run_threaded_inner(
        deployment,
        events,
        config,
        joins,
        Some(&snap),
    ))
}

/// Parallel chunk execution can deliver a negation guard after the match
/// it suppresses: negation-hosting joins defer candidates to chunk
/// quiescence (see the module docs).
fn defer_negations(joins: &mut [Option<JoinTask>]) {
    for join in joins.iter_mut().flatten() {
        if join.has_negations() {
            join.set_defer_negation(true);
        }
    }
}

/// Runs the node threads over `joins` (every task's state, fresh or
/// grafted from `resume`).
fn run_threaded_inner(
    deployment: &Deployment,
    events: &[Event],
    config: &ThreadedConfig,
    mut joins: Vec<Option<JoinTask>>,
    resume: Option<&Snapshot>,
) -> ThreadedReport {
    let num_nodes = deployment.num_nodes.max(1);
    let chunk = config
        .chunk_ticks
        .unwrap_or_else(|| {
            deployment
                .queries
                .iter()
                .map(|q| q.window())
                .max()
                .unwrap_or(1)
        })
        .max(1);
    let t_end = events.iter().map(|e| e.time).max().unwrap_or(0) + 1;
    let num_chunks = t_end.div_ceil(chunk).max(1);
    let rounds_per_chunk = remote_depth(deployment) + 1;
    let release_phases = negation_release_phases(deployment, &joins);

    // One flat, origin-partitioned copy of the trace shared by all node
    // threads; each thread reads its own contiguous range. (The former
    // implementation cloned every event into per-node vectors — double
    // buffering of the whole trace before the run even started.) The sort
    // is stable, so trace order is preserved within each node; events from
    // origins outside the network are excluded, as before.
    let flat: Arc<[Event]> = {
        let mut sorted: Vec<Event> = events
            .iter()
            .filter(|e| e.origin.index() < num_nodes)
            .cloned()
            .collect();
        sorted.sort_by_key(|e| e.origin.index());
        sorted.into()
    };
    // Hand each node thread the state of its own tasks.
    defer_negations(&mut joins);
    let mut node_joins: Vec<Vec<Option<JoinTask>>> = (0..num_nodes)
        .map(|_| (0..joins.len()).map(|_| None).collect())
        .collect();
    for (i, join) in joins.into_iter().enumerate() {
        node_joins[deployment.tasks[i].node.index()][i] = join;
    }
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(num_nodes);
    let mut begin = 0usize;
    for node in 0..num_nodes {
        let mut end = begin;
        while end < flat.len() && flat[end].origin.index() == node {
            end += 1;
        }
        ranges.push(begin..end);
        begin = end;
    }

    // Bounded data channels, buffer return channels, in-flight depth
    // gauges, and the drain barrier.
    let mut senders: Vec<Sender<Frame>> = Vec::with_capacity(num_nodes);
    let mut receivers: Vec<Option<Receiver<Frame>>> = Vec::with_capacity(num_nodes);
    let mut ret_senders: Vec<Sender<Vec<NodeMsg>>> = Vec::with_capacity(num_nodes);
    let mut ret_receivers: Vec<Option<Receiver<Vec<NodeMsg>>>> = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let (s, r) = bounded(config.transport.capacity.max(1));
        senders.push(s);
        receivers.push(Some(r));
        let (rs, rr) = unbounded();
        ret_senders.push(rs);
        ret_receivers.push(Some(rr));
    }
    let depth: Arc<Vec<AtomicU64>> = Arc::new((0..num_nodes).map(|_| AtomicU64::new(0)).collect());
    let barrier = Arc::new(DrainBarrier::new(num_nodes));
    let max_seq = events.iter().map(|e| e.seq).max().unwrap_or(0) as usize;
    let inject_ns: Arc<Vec<AtomicU64>> =
        Arc::new((0..=max_seq).map(|_| AtomicU64::new(0)).collect());
    let resilient = config.checkpoint || config.fault.is_some();
    let shared: Option<Arc<ResilienceShared>> = resilient.then(|| {
        Arc::new(ResilienceShared {
            shards: (0..num_nodes).map(|_| Mutex::new(Vec::new())).collect(),
            crashed_chunk: AtomicU64::new(0),
            flight_dumps: (0..num_nodes).map(|_| Mutex::new(Vec::new())).collect(),
        })
    });
    let start = Instant::now();

    let report_parts: Vec<NodeOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_nodes);
        for (node, joins) in node_joins.into_iter().enumerate() {
            let channels = NodeChannels {
                inbox: receivers[node].take().expect("receiver unused"),
                ret_inbox: ret_receivers[node].take().expect("return receiver unused"),
                senders: senders.clone(),
                ret_senders: ret_senders.clone(),
                depth: Arc::clone(&depth),
                barrier: Arc::clone(&barrier),
            };
            let events = Arc::clone(&flat);
            let range = ranges[node].clone();
            let inject_ns = Arc::clone(&inject_ns);
            let config = config.clone();
            let shared = shared.clone();
            let schedule = ChunkSchedule {
                chunk,
                num_chunks,
                rounds_per_chunk,
                release_phases,
            };
            handles.push(scope.spawn(move || {
                run_node(
                    deployment, node, joins, events, range, channels, inject_ns, start, schedule,
                    config, shared, resume,
                )
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect()
    });

    let wall_time = start.elapsed();
    let mut metrics = Metrics::new(num_nodes);
    let mut matches = vec![Vec::new(); deployment.queries.len()];
    let mut wall_latencies_ns = Vec::new();
    let mut telemetry = config
        .telemetry
        .as_ref()
        .map(|spec| RunTelemetry::new(ClockDomain::WallNanos, spec));
    let mut final_state = config.checkpoint.then(|| Snapshot::empty(deployment));
    for part in report_parts {
        metrics.merge(&part.metrics);
        for (q, ms) in part.matches.into_iter().enumerate() {
            matches[q].extend(ms);
        }
        wall_latencies_ns.extend(part.wall_latencies_ns);
        if let (Some(merged), Some(shard)) = (&mut final_state, part.shard) {
            merged.merge_shard(shard);
        }
        if let (Some(merged), Some(shard)) = (&mut telemetry, part.telemetry) {
            merged.registry.merge(&shard.registry);
            merged.series.absorb(shard.series);
            merged.trace.absorb(shard.trace);
            merged.provenance.absorb(shard.provenance);
            merged.rates.merge(&shard.rates);
            merged.tasks.extend(shard.tasks);
        }
    }
    let flight_dumps: Vec<Vec<u8>> = shared
        .as_ref()
        .map(|s| {
            s.flight_dumps
                .iter()
                .map(|d| std::mem::take(&mut *d.lock().expect("flight dump lock")))
                .filter(|d| !d.is_empty())
                .collect()
        })
        .unwrap_or_default();
    let final_snapshot = final_state.map(|state| checkpoint::encode(&state));
    if let Some(merged) = &mut telemetry {
        merged.series.sort_by_time();
        merged.tasks.sort_by_key(|s| s.task);
        let g = merged.registry.gauge(names::RUN_WALL_NS, GaugeKind::Max);
        merged.registry.gauge_peak(g, wall_time.as_nanos() as u64);
    }
    let events_per_sec = if wall_time.as_secs_f64() > 0.0 {
        events.len() as f64 / wall_time.as_secs_f64()
    } else {
        0.0
    };
    ThreadedReport {
        matches,
        metrics,
        wall_time,
        events_per_sec,
        wall_latencies_ns,
        telemetry,
        final_snapshot,
        flight_dumps,
    }
}

struct NodeOutcome {
    metrics: Metrics,
    matches: Vec<Vec<Match>>,
    wall_latencies_ns: Vec<u64>,
    telemetry: Option<RunTelemetry>,
    /// End-of-run state shard (checkpoint mode).
    shard: Option<Snapshot>,
}

/// The communication endpoints handed to one node thread.
struct NodeChannels {
    inbox: Receiver<Frame>,
    ret_inbox: Receiver<Vec<NodeMsg>>,
    senders: Vec<Sender<Frame>>,
    ret_senders: Vec<Sender<Vec<NodeMsg>>>,
    /// Frames in flight to each node (shared gauge; receivers decrement).
    depth: Arc<Vec<AtomicU64>>,
    barrier: Arc<DrainBarrier>,
}

/// Per-run chunking parameters, identical on every node.
#[derive(Clone, Copy)]
struct ChunkSchedule {
    chunk: Timestamp,
    num_chunks: u64,
    rounds_per_chunk: usize,
    release_phases: usize,
}

/// The threaded executor's latency rule: wall-clock nanoseconds from the
/// injection of a match's newest constituent event to its emission.
struct WallLatency {
    /// Injection mark per event seq (0: not injected in this run).
    inject_ns: Arc<Vec<AtomicU64>>,
    /// This node's latency samples.
    samples: Vec<u64>,
}

impl LatencyRule for WallLatency {
    fn latency(&self, m: &Match, now: u64) -> Option<u64> {
        let newest = m
            .entries()
            .iter()
            .map(|(_, e)| e)
            .max_by(|a, b| a.trace_cmp(b))
            .expect("non-empty match");
        // No mark means the newest constituent entered in a resumed-from
        // run (or its seq is outside this run's table).
        let injected = self
            .inject_ns
            .get(newest.seq as usize)
            .map_or(0, |a| a.load(Ordering::Acquire));
        (injected != 0).then(|| now.saturating_sub(injected))
    }

    fn record(&mut self, _: &mut Metrics, latency: u64) {
        self.samples.push(latency);
    }
}

struct NodeRunner<'a> {
    node: usize,
    /// The execution kernel over this node's tasks.
    kernel: Kernel<'a, WallLatency>,
    /// The kernel's outbound deliveries, awaiting dispatch (kept to reuse
    /// its allocation).
    out: Vec<Outbound>,
    channels: NodeChannels,
    /// Local deliveries and messages ingested from inbox frames, awaiting
    /// processing.
    backlog: VecDeque<NodeMsg>,
    /// Pending outgoing messages per destination node.
    out_bufs: Vec<Vec<NodeMsg>>,
    /// Emptied frame buffers recycled via the return path.
    pool: Vec<Vec<NodeMsg>>,
    /// Flush threshold in messages.
    batch: usize,
    start: Instant,
    /// Newest event timestamp seen by any local join (the node-local
    /// watermark behind the series' lag column).
    max_seen: Timestamp,
    /// Eviction slack (kept for rebuilding joins during crash recovery).
    slack: f64,
    /// Fault plan from the config, when fault injection is enabled.
    fault: Option<FaultPlan>,
    /// Shared shard storage and crash flag (checkpoint or fault mode).
    shared: Option<Arc<ResilienceShared>>,
    /// Crash-recovery counters, kept OUTSIDE `metrics` so the crashing
    /// node's state rollback cannot erase the record of its own recovery;
    /// folded into `metrics.recovery` when the thread finishes.
    recovery: RecoveryStats,
    /// Local events injected so far (drives [`FaultPlan::crash_at`]).
    injected_local: u64,
    /// Whether this run's planned crash has already fired (single-shot).
    crashed: bool,
    /// Fault mode, pre-crash: messages flushed to the planned-crash node
    /// this chunk, replayed to it after the crash (the peers' side of the
    /// Ambrosia-style logged-call replay).
    send_log: Vec<(usize, usize, Match)>,
    /// Fault mode, pre-crash: multiset of messages ingested from the
    /// planned-crash node this chunk, keyed by `(target, slot, mux match
    /// hash)` — the receive-side replay-dedup filter.
    recv_log: HashMap<(usize, usize, u64), u32, MuxBuildHasher>,
    /// Whether chunk logs are being recorded (fault mode, until the crash
    /// has happened).
    logs_active: bool,
    /// Whether re-deliveries from the crashed node are being deduplicated
    /// against `recv_log` (peers, from the crash to the chunk's end).
    dedup_active: bool,
    /// Wall-clock mark of the injected crash (downtime + recovery timer).
    crash_started: Option<Instant>,
    /// Bounded black box of recent transport/checkpoint/injection steps;
    /// recording only in resilient mode (capacity 0 otherwise), dumped by
    /// the crash path.
    flight: FlightRing,
}

/// First backoff sleep of a blocked fault-mode send.
const SEND_BACKOFF_START: Duration = Duration::from_micros(1);

/// Backoff ceiling: a blocked fault-mode sender keeps retrying at this
/// bounded cadence (doubling up to the cap) instead of parking
/// indefinitely on a channel whose receiver may have crashed.
const SEND_BACKOFF_CAP: Duration = Duration::from_micros(256);

#[allow(clippy::too_many_arguments)]
fn run_node(
    deployment: &Deployment,
    node: usize,
    joins: Vec<Option<JoinTask>>,
    events: Arc<[Event]>,
    range: Range<usize>,
    channels: NodeChannels,
    inject_ns: Arc<Vec<AtomicU64>>,
    start: Instant,
    schedule: ChunkSchedule,
    config: ThreadedConfig,
    shared: Option<Arc<ResilienceShared>>,
    resume: Option<&Snapshot>,
) -> NodeOutcome {
    let telemetry = config
        .telemetry
        .as_ref()
        .map(|spec| ExecTelemetry::new(ClockDomain::WallNanos, spec, deployment.tasks.len()));
    let latency = WallLatency {
        inject_ns,
        samples: Vec::new(),
    };
    let mut kernel = Kernel::new(deployment, joins, latency, telemetry);
    // Node 0 absorbs the resumed snapshot's run-wide accumulators
    // (metrics, matches, latencies) so the merged report continues the
    // interrupted totals; every node takes the `sent` entries it shipped.
    if let Some(snap) = resume {
        kernel
            .sent
            .extend(snap.sent.iter().filter(|k| usize::from(k.1) == node));
        if node == 0 {
            kernel.metrics = snap.metrics.clone();
            kernel.matches = snap.matches.clone();
            kernel.latency.samples = snap.wall_latencies_ns.clone();
            // Re-establish `sink_matches == samples + dropped` over the
            // absorbed history: matches the snapshot carries without a
            // wall-latency sample (all of them, for simulator snapshots —
            // the sim measures event-time lag, not wall time) count as
            // dropped samples of this run.
            kernel.metrics.latency_samples_dropped = kernel
                .metrics
                .sink_matches
                .saturating_sub(kernel.latency.samples.len() as u64);
        }
    }
    let fault_mode = config.fault.is_some();
    let flight = FlightRing::new(
        node as u16,
        if shared.is_some() { FLIGHT_CAPACITY } else { 0 },
    );
    let mut runner = NodeRunner {
        node,
        kernel,
        out: Vec::new(),
        channels,
        backlog: VecDeque::new(),
        out_bufs: (0..deployment.num_nodes.max(1))
            .map(|_| Vec::new())
            .collect(),
        pool: Vec::new(),
        batch: config.transport.batch.max(1),
        start,
        max_seen: 0,
        slack: config.slack,
        fault: config.fault.clone(),
        shared,
        recovery: RecoveryStats::default(),
        injected_local: 0,
        crashed: false,
        send_log: Vec::new(),
        recv_log: Default::default(),
        logs_active: false,
        dedup_active: false,
        crash_started: None,
        flight,
    };

    let local_events = &events[range];
    let mut next = 0usize;
    for chunk_idx in 0..schedule.num_chunks {
        let bound = (chunk_idx + 1) * schedule.chunk;
        if runner.shared.is_some() {
            // Every chunk starts from quiescence: persist this node's
            // shard (the durable state a crash rolls back to).
            runner.save_shard(next);
        }
        if fault_mode {
            runner.begin_chunk_logs(chunk_idx);
        }
        let mut crashed_here = false;
        while next < local_events.len() && local_events[next].time < bound {
            if runner.crash_due() {
                runner.crash(chunk_idx);
                crashed_here = true;
                break;
            }
            runner.drain();
            runner.inject(&local_events[next]);
            runner.maybe_sample();
            next += 1;
        }
        if !crashed_here {
            runner.flush_all();
        }
        if fault_mode {
            // Crash coordination. Barrier A publishes the crash flag
            // consistently; the crashed node then discards its inbox and
            // restores its shard while peers hold their sends; barrier B
            // orders the discard before the replay traffic.
            runner.barrier_wait();
            let crash_chunk = runner
                .shared
                .as_ref()
                .map(|s| s.crashed_chunk.load(Ordering::Acquire))
                .unwrap_or(0);
            if crash_chunk == chunk_idx + 1 {
                let fault_node = runner.fault.as_ref().map(|f| f.node).unwrap_or(usize::MAX);
                if node == fault_node {
                    next = runner.recover();
                } else {
                    runner.dedup_active = true;
                }
                runner.barrier_wait();
                if node == fault_node {
                    // Replay the rolled-back part of the chunk: re-inject
                    // the local events from the restored cursor. Sends are
                    // regenerated; peers dedup re-deliveries they already
                    // processed against their receive logs.
                    while next < local_events.len() && local_events[next].time < bound {
                        runner.drain();
                        runner.inject(&local_events[next]);
                        next += 1;
                    }
                    if let Some(started) = runner.crash_started.take() {
                        runner.recovery.recovery_ns += started.elapsed().as_nanos() as u64;
                    }
                } else {
                    runner.resend_log();
                }
                runner.flush_all();
            } else {
                runner.barrier_wait();
            }
        }
        // Quiescence: one barrier-synchronized drain round per possible
        // network hop; then, per negation level, release the deferred
        // candidates and drain to quiescence again.
        for phase in 0..=schedule.release_phases {
            if phase > 0 {
                runner.release_deferred();
                runner.flush_all();
            }
            for _ in 0..schedule.rounds_per_chunk {
                runner.barrier_wait();
                runner.drain();
                runner.flush_all();
                runner.maybe_sample();
            }
            runner.barrier_wait();
        }
    }
    // End-of-run state shard, captured BEFORE the join-stats fold below:
    // snapshots keep `metrics.join` unfolded (the engine counters live in
    // the saved task states), so a resumed run folds them exactly once.
    let shard = config.checkpoint.then(|| runner.build_shard(next));
    // Fold the recovery record kept outside the rolled-back metrics, take
    // a final sample at shutdown, then fold this node's join-engine
    // counters and seal its telemetry shard with its local task summaries.
    runner
        .kernel
        .metrics
        .recovery
        .merge(&std::mem::take(&mut runner.recovery));
    runner.sample(runner.start.elapsed().as_nanos() as u64);
    let local = (0..deployment.tasks.len()).filter(|&i| deployment.tasks[i].node.index() == node);
    let telemetry = runner.kernel.finish(local);
    NodeOutcome {
        metrics: runner.kernel.metrics,
        matches: runner.kernel.matches,
        wall_latencies_ns: runner.kernel.latency.samples,
        telemetry,
        shard,
    }
}

impl NodeRunner<'_> {
    /// This node's state as a snapshot shard: local task states, local
    /// sent-set entries, this node's metrics share, and its local event
    /// cursor. Shards of all nodes merge into one whole-run [`Snapshot`].
    fn build_shard(&self, cursor: usize) -> Snapshot {
        let mut snap = self.kernel.snapshot();
        snap.wall_latencies_ns = self.kernel.latency.samples.clone();
        snap.cursors = vec![0; self.kernel.deployment.num_nodes.max(1)];
        snap.cursors[self.node] = cursor as u64;
        snap
    }

    /// Encodes this node's state and stores it as the chunk-boundary
    /// shard — the durable state a crash rolls back to.
    fn save_shard(&mut self, cursor: usize) {
        let bytes = checkpoint::encode(&self.build_shard(cursor));
        self.recovery.snapshots_taken += 1;
        self.recovery.snapshot_bytes += bytes.len() as u64;
        self.flight.push(FlightRecord::Checkpoint {
            t: self.start.elapsed().as_nanos() as u64,
            bytes: bytes.len() as u64,
        });
        if let Some(shared) = &self.shared {
            *shared.shards[self.node].lock().expect("shard lock") = bytes;
        }
    }

    /// Resets the per-chunk replay logs (fault mode). Logging stops once
    /// the planned crash has fired in an *earlier* chunk — no second
    /// crash can need the logs. The current chunk still logs even when
    /// the flag is already up: a node crashing at its very first
    /// injection can publish the flag before its peers begin the chunk,
    /// and their logs are exactly what the recovery will replay.
    fn begin_chunk_logs(&mut self, chunk_idx: u64) {
        self.send_log.clear();
        self.recv_log.clear();
        self.dedup_active = false;
        self.logs_active = self.shared.as_ref().is_some_and(|s| {
            let c = s.crashed_chunk.load(Ordering::Relaxed);
            c == 0 || c == chunk_idx + 1
        });
    }

    /// Whether the planned crash fires before the next injection.
    fn crash_due(&self) -> bool {
        !self.crashed
            && self
                .fault
                .as_ref()
                .is_some_and(|f| f.node == self.node && self.injected_local == f.crash_at)
    }

    /// Simulates the crash: publish the flag (peers read it consistently
    /// after the next barrier), drop every piece of volatile state, and
    /// sleep out the configured downtime. The inbox is discarded later in
    /// [`Self::recover`]; until then barrier waits keep stealing from it
    /// so peers blocked on this node's bounded channel stay live.
    fn crash(&mut self, chunk_idx: u64) {
        self.crashed = true;
        self.crash_started = Some(Instant::now());
        self.recovery.crashes += 1;
        self.flight.push(FlightRecord::Crash {
            t: self.start.elapsed().as_nanos() as u64,
            chunk: chunk_idx,
        });
        if let Some(shared) = &self.shared {
            shared.crashed_chunk.store(chunk_idx + 1, Ordering::Release);
            // The black box: publish this shard's recent history next to
            // the snapshot it will recover from.
            *shared.flight_dumps[self.node]
                .lock()
                .expect("flight dump lock") = self.flight.encode();
        }
        self.backlog.clear();
        for buf in &mut self.out_bufs {
            buf.clear();
        }
        let delay = self
            .fault
            .as_ref()
            .map(|f| f.restart_delay)
            .unwrap_or_default();
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Post-crash restoration: discard every in-flight frame addressed to
    /// the old incarnation (peers replay their chunk logs afterwards),
    /// decode the last shard, rebuild the local joins from the plan, and
    /// graft the saved dynamic state. Returns the restored event cursor.
    fn recover(&mut self) -> usize {
        self.flight.push(FlightRecord::RecoveryStart {
            t: self.start.elapsed().as_nanos() as u64,
        });
        self.backlog.clear();
        while let Ok(frame) = self.channels.inbox.try_recv() {
            self.channels.depth[self.node].fetch_sub(1, Ordering::Relaxed);
            let Frame { origin, mut msgs } = frame;
            msgs.clear();
            let _ = self.channels.ret_senders[origin].send(msgs);
        }
        let bytes = self.shared.as_ref().expect("fault mode has shards").shards[self.node]
            .lock()
            .expect("shard lock")
            .clone();
        let mut snap = checkpoint::decode(&bytes).expect("own shard decodes");
        let deployment = self.kernel.deployment;
        let node = self.node;
        let mut joins = build_joins(
            deployment,
            self.slack,
            |i| deployment.tasks[i].node.index() == node,
            Some(&mut snap.tasks),
        )
        .expect("own shard matches the plan");
        defer_negations(&mut joins);
        self.max_seen = joins
            .iter()
            .flatten()
            .map(|j| j.last_seen())
            .max()
            .unwrap_or(0);
        self.kernel.joins = joins;
        self.kernel.metrics = snap.metrics;
        self.kernel.matches = snap.matches;
        self.kernel.latency.samples = snap.wall_latencies_ns;
        self.kernel.sent = snap.sent.into_iter().collect();
        let cursor = snap.cursors.get(self.node).copied().unwrap_or(0) as usize;
        self.flight.push(FlightRecord::RecoveryDone {
            t: self.start.elapsed().as_nanos() as u64,
            cursor: cursor as u64,
        });
        cursor
    }

    /// Replays every message this node flushed to the crashed node during
    /// the chunk — the peers' half of the logged-call replay. Replayed
    /// deliveries are not new network transmissions (the §4.4 message
    /// metric counted them when first shipped), so they bypass the mux
    /// accounting and are tallied separately.
    fn resend_log(&mut self) {
        let Some(dest) = self.fault.as_ref().map(|f| f.node) else {
            return;
        };
        let log = std::mem::take(&mut self.send_log);
        self.recovery.replayed_messages += log.len() as u64;
        self.flight.push(FlightRecord::Replay {
            t: self.start.elapsed().as_nanos() as u64,
            msgs: log.len() as u32,
        });
        for (target, slot, m) in log {
            if let Some(tel) = self.kernel.telemetry.as_mut() {
                tel.on_replayed(target, 1);
            }
            self.enqueue(dest, NodeMsg { target, slot, m });
        }
    }

    /// Processes the backlog and every frame currently in the inbox.
    fn drain(&mut self) {
        loop {
            self.run_backlog();
            match self.channels.inbox.try_recv() {
                Ok(frame) => self.ingest(frame),
                Err(_) => break,
            }
        }
    }

    /// Moves one inbox frame into the backlog without processing it;
    /// returns whether a frame was available. This is the unit of work a
    /// blocked sender (or a barrier waiter) performs to guarantee global
    /// progress under backpressure.
    fn steal(&mut self) -> bool {
        match self.channels.inbox.try_recv() {
            Ok(frame) => {
                self.ingest(frame);
                true
            }
            Err(_) => false,
        }
    }

    /// Accepts a frame: decrements the in-flight gauge, queues its
    /// messages, and hands the emptied buffer back to the origin node.
    ///
    /// In fault mode, messages from the planned-crash node additionally
    /// pass the replay-dedup filter: while the crash is being replayed,
    /// any message this node already ingested earlier in the chunk is
    /// dropped (the channel is FIFO per sender, so the pre-crash copy
    /// always arrives before its replay).
    fn ingest(&mut self, mut frame: Frame) {
        self.channels.depth[self.node].fetch_sub(1, Ordering::Relaxed);
        if !self.flight.is_disabled() {
            self.flight.push(FlightRecord::FrameRecv {
                t: self.start.elapsed().as_nanos() as u64,
                from: frame.origin as u16,
                msgs: frame.msgs.len() as u32,
            });
        }
        let filtered = (self.logs_active || self.dedup_active)
            && self
                .fault
                .as_ref()
                .is_some_and(|f| f.node == frame.origin && f.node != self.node);
        if filtered {
            for msg in frame.msgs.drain(..) {
                let key = (msg.target, msg.slot, match_hash(&msg.m));
                if self.dedup_active {
                    if let Some(count) = self.recv_log.get_mut(&key) {
                        *count -= 1;
                        if *count == 0 {
                            self.recv_log.remove(&key);
                        }
                        self.recovery.suppressed_sends += 1;
                        if let Some(tel) = self.kernel.telemetry.as_mut() {
                            tel.on_suppressed(msg.target);
                        }
                        continue;
                    }
                }
                *self.recv_log.entry(key).or_insert(0) += 1;
                self.backlog.push_back(msg);
            }
        } else {
            self.backlog.extend(frame.msgs.drain(..));
        }
        // The origin may already have shut its return receiver down at the
        // very end of the run; the buffer is then simply dropped.
        let _ = self.channels.ret_senders[frame.origin].send(frame.msgs);
    }

    /// Waits at the drain barrier, stealing inbox frames (or yielding)
    /// while parked so senders blocked on this node's channel can finish.
    fn barrier_wait(&mut self) {
        let barrier = Arc::clone(&self.channels.barrier);
        barrier.wait(|| {
            if !self.steal() {
                std::thread::yield_now();
            }
        });
    }

    /// A frame buffer from the recycling pool, refilled from the return
    /// path; allocates only when no buffer has come back yet.
    fn acquire_buf(&mut self) -> Vec<NodeMsg> {
        if self.pool.is_empty() {
            while let Ok(buf) = self.channels.ret_inbox.try_recv() {
                self.pool.push(buf);
            }
        }
        if let Some(buf) = self.pool.pop() {
            self.kernel.metrics.transport.pool_reuses += 1;
            buf
        } else {
            self.kernel.metrics.transport.pool_allocs += 1;
            Vec::with_capacity(self.batch)
        }
    }

    /// Queues a message for `dest`, flushing when the batch fills.
    fn enqueue(&mut self, dest: usize, msg: NodeMsg) {
        if self.out_bufs[dest].capacity() == 0 {
            self.out_bufs[dest] = self.acquire_buf();
        }
        self.out_bufs[dest].push(msg);
        if self.out_bufs[dest].len() >= self.batch {
            self.flush_to(dest);
        }
    }

    /// Sends the pending buffer for `dest`, if any.
    fn flush_to(&mut self, dest: usize) {
        if self.out_bufs[dest].is_empty() {
            return;
        }
        let msgs = std::mem::take(&mut self.out_bufs[dest]);
        self.send_frame(dest, msgs);
    }

    /// Flushes every pending output buffer (chunk and round boundaries).
    fn flush_all(&mut self) {
        for dest in 0..self.out_bufs.len() {
            self.flush_to(dest);
        }
    }

    /// Pushes a frame onto `dest`'s channel, stealing from the own inbox
    /// while the channel is full. In fault mode a failed steal backs off
    /// with bounded exponential sleeps — a sender facing a crashed (hence
    /// non-draining) peer retries at a capped cadence instead of spinning
    /// or parking forever, and the waits are recorded in the recovery
    /// stats.
    fn send_frame(&mut self, dest: usize, msgs: Vec<NodeMsg>) {
        if self.logs_active
            && self
                .fault
                .as_ref()
                .is_some_and(|f| f.node == dest && f.node != self.node)
        {
            self.send_log
                .extend(msgs.iter().map(|msg| (msg.target, msg.slot, msg.m.clone())));
        }
        let t = &mut self.kernel.metrics.transport;
        t.frames_sent += 1;
        t.messages_framed += msgs.len() as u64;
        t.batch_hist.record(msgs.len() as u64);
        if !self.flight.is_disabled() {
            self.flight.push(FlightRecord::FrameSent {
                t: self.start.elapsed().as_nanos() as u64,
                to: dest as u16,
                msgs: msgs.len() as u32,
            });
        }
        let in_flight = self.channels.depth[dest].fetch_add(1, Ordering::Relaxed) + 1;
        let t = &mut self.kernel.metrics.transport;
        t.peak_queue_depth = t.peak_queue_depth.max(in_flight);
        let mut frame = Frame {
            origin: self.node,
            msgs,
        };
        let mut backoff = SEND_BACKOFF_START;
        loop {
            match self.channels.senders[dest].try_send(frame) {
                Ok(()) => return,
                Err(TrySendError::Full(f)) => {
                    self.kernel.metrics.transport.blocked_sends += 1;
                    frame = f;
                    if !self.steal() {
                        if self.fault.is_some() {
                            self.recovery.send_retries += 1;
                            let ns = backoff.as_nanos() as u64;
                            self.recovery.backoff_ns += ns;
                            self.recovery.backoff_hist.record(ns);
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(SEND_BACKOFF_CAP);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    panic!("receiver alive during execution")
                }
            }
        }
    }

    /// Samples the series shard when the wall-clock cadence has elapsed.
    fn maybe_sample(&mut self) {
        let now = self.start.elapsed().as_nanos() as u64;
        if self
            .kernel
            .telemetry
            .as_ref()
            .is_some_and(|tel| tel.sample_due(now))
        {
            self.sample(now);
        }
    }

    /// Emits one series record per local join task. Queue depth is the
    /// number of deliveries the task consumed since the previous sample
    /// (crossbeam receivers expose no length), and watermark lag is
    /// measured against this node's newest-seen event timestamp.
    fn sample(&mut self, now: u64) {
        let kernel = &mut self.kernel;
        let Some(tel) = kernel.telemetry.as_mut() else {
            return;
        };
        for (i, join) in kernel.joins.iter().enumerate() {
            let Some(join) = join else { continue };
            let stats = join.stats();
            let queue_depth = tel.drained_since(i);
            tel.record_task_sample(
                now,
                i,
                self.node,
                kernel.deployment.task_label(i),
                queue_depth,
                join.buffered() as u64,
                self.max_seen.saturating_sub(join.last_seen()),
                [stats.inputs, stats.probes, stats.evicted, stats.emitted],
            );
        }
        tel.end_sample(now);
    }

    /// Injects one local event and runs its node-local cascade.
    fn inject(&mut self, event: &Event) {
        if !self.kernel.inject(event, &self.start, &mut self.out) {
            return;
        }
        self.injected_local += 1;
        let now = self.start.elapsed().as_nanos() as u64;
        if !self.flight.is_disabled() {
            self.flight.push(FlightRecord::Inject {
                t: now,
                seq: event.seq,
                ty: event.ty.0,
                time: event.time,
            });
        }
        if let Some(slot) = self.kernel.latency.inject_ns.get(event.seq as usize) {
            // First write wins (0 means "never injected"), so a crash
            // replay keeps the original mark and a recovered match's
            // latency includes the downtime it survived.
            let _ = slot.compare_exchange(0, now.max(1), Ordering::AcqRel, Ordering::Acquire);
        }
        self.dispatch();
        self.run_backlog();
    }

    /// Processes one delivery to a local join.
    fn handle(&mut self, msg: NodeMsg) {
        self.max_seen = self.max_seen.max(msg.m.last_time());
        self.kernel
            .deliver(msg.target, msg.slot, msg.m, &self.start, &mut self.out);
        self.dispatch();
    }

    /// Processes backlogged messages until the backlog is empty.
    fn run_backlog(&mut self) {
        while let Some(msg) = self.backlog.pop_front() {
            self.handle(msg);
        }
    }

    /// Re-checks and releases the deferred candidates of every local
    /// negation-hosting join (called once per release phase, at chunk
    /// quiescence when all in-window guards have been delivered).
    fn release_deferred(&mut self) {
        self.kernel.release_deferred(&self.start, &mut self.out);
        self.dispatch();
        self.run_backlog();
    }

    /// Moves the kernel's outbound deliveries into per-destination frame
    /// buffers (remote) or the backlog (local). The steady-state path
    /// performs no heap allocation: match clones are reference-counted and
    /// frame buffers come from the pool.
    fn dispatch(&mut self) {
        let mut out = std::mem::take(&mut self.out);
        for o in out.drain(..) {
            let msg = NodeMsg {
                target: o.target,
                slot: o.slot,
                m: o.m,
            };
            if o.remote {
                self.enqueue(o.dest, msg);
            } else {
                self.backlog.push_back(msg);
            }
        }
        self.out = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run_simulation, SimConfig};
    use muse_core::algorithms::amuse::{amuse, AMuseConfig};
    use muse_core::graph::PlanContext;
    use muse_core::network::{Network, NetworkBuilder};
    use muse_core::query::{Pattern, Query};
    use muse_core::types::{EventTypeId, NodeId, QueryId};
    use std::collections::BTreeSet;

    fn t(i: u16) -> EventTypeId {
        EventTypeId(i)
    }
    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn network() -> Network {
        NetworkBuilder::new(3, 3)
            .node(n(0), [t(0), t(2)])
            .node(n(1), [t(0), t(1)])
            .node(n(2), [t(1)])
            .rate(t(0), 20.0)
            .rate(t(1), 20.0)
            .rate(t(2), 1.0)
            .build()
    }

    fn query() -> Query {
        Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                Pattern::leaf(t(2)),
            ]),
            vec![],
            5_000,
        )
        .unwrap()
    }

    fn fingerprints(ms: &[Match]) -> BTreeSet<Vec<u64>> {
        ms.iter().map(Match::fingerprint).collect()
    }

    fn test_deployment() -> (Deployment, Vec<Event>) {
        let net = network();
        let q = query();
        let plan = amuse(&q, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(&q), &net, &plan.table);
        let deployment = Deployment::new(&plan.graph, &ctx);
        let events = muse_sim::traces::generate_traces(
            &net,
            &muse_sim::traces::TraceConfig {
                duration: 40.0,
                ticks_per_unit: 100.0,
                rate_scale: 0.05,
                key_domain: 0,
                band_domain: 0,
                seed: 23,
            },
        );
        (deployment, events)
    }

    #[test]
    fn threaded_matches_equal_simulator() {
        let (deployment, events) = test_deployment();
        let sim = run_simulation(&deployment, &events, &SimConfig::default());
        let threaded = run_threaded(&deployment, &events, &ThreadedConfig::default());
        assert_eq!(
            fingerprints(&threaded.matches[0]),
            fingerprints(&sim.matches[0]),
            "threaded {} vs sim {}",
            threaded.matches[0].len(),
            sim.matches[0].len()
        );
        // Same network transmissions.
        assert_eq!(threaded.metrics.messages_sent, sim.metrics.messages_sent);
        assert!(threaded.events_per_sec > 0.0);
        assert_eq!(threaded.wall_latencies_ns.len(), threaded.matches[0].len());
        let t = &threaded.metrics.transport;
        assert!(t.frames_sent > 0, "threaded run must ship frames");
        assert!(
            t.frames_sent < t.messages_framed,
            "batching must pack multiple messages into at least some frames"
        );
    }

    #[test]
    fn batched_transport_recycles_buffers() {
        let (deployment, events) = test_deployment();
        // Per-message frames force maximal traffic through the pool so
        // reuse dominates allocation in steady state.
        let report = run_threaded(
            &deployment,
            &events,
            &ThreadedConfig {
                transport: TransportMode {
                    batch: 1,
                    capacity: 8,
                },
                ..ThreadedConfig::default()
            },
        );
        let t = &report.metrics.transport;
        assert!(t.frames_sent > 10, "workload must ship many frames");
        assert!(
            t.pool_reuses > t.pool_allocs,
            "steady state must be served from the recycling pool \
             (allocs {} vs reuses {})",
            t.pool_allocs,
            t.pool_reuses
        );
    }

    #[test]
    fn bounded_capacity_exerts_backpressure_without_deadlock() {
        let (deployment, events) = test_deployment();
        let report = run_threaded(
            &deployment,
            &events,
            &ThreadedConfig {
                transport: TransportMode {
                    batch: 1,
                    capacity: 1,
                },
                ..ThreadedConfig::default()
            },
        );
        // Capacity 1 with per-message frames: the run must still complete
        // and agree with the simulator on the produced matches.
        let sim = run_simulation(&deployment, &events, &SimConfig::default());
        assert_eq!(
            fingerprints(&report.matches[0]),
            fingerprints(&sim.matches[0]),
        );
        assert!(report.metrics.transport.peak_queue_depth >= 1);
    }

    #[test]
    fn telemetry_counters_agree_across_executors() {
        let (deployment, events) = test_deployment();
        let sim = run_simulation(
            &deployment,
            &events,
            &SimConfig {
                telemetry: Some(TelemetrySpec::default()),
                ..SimConfig::default()
            },
        );
        let threaded = run_threaded(
            &deployment,
            &events,
            &ThreadedConfig {
                telemetry: Some(TelemetrySpec::default()),
                ..ThreadedConfig::default()
            },
        );
        // The executors must agree on the run's aggregate metrics …
        assert_eq!(threaded.metrics.sink_matches, sim.metrics.sink_matches);
        assert_eq!(threaded.metrics.messages_sent, sim.metrics.messages_sent);
        assert_eq!(threaded.metrics.join.emitted, sim.metrics.join.emitted);
        assert!(
            sim.metrics.sink_matches > 0,
            "workload must produce matches"
        );
        // … and their telemetry registries must carry the same counters.
        let s = sim.telemetry.expect("sim telemetry");
        let t = threaded.telemetry.expect("threaded telemetry");
        for name in [
            names::EVENTS_INJECTED,
            names::MESSAGES_SENT,
            names::BYTES_SENT,
            names::SINK_MATCHES,
            names::JOIN_INPUTS,
            names::JOIN_EMITTED,
        ] {
            assert_eq!(
                s.registry.counter_value(name),
                t.registry.counter_value(name),
                "counter {name} diverges between executors"
            );
        }
        // Task summaries cover the same join tasks (threaded shards each
        // contribute their local slice; merged and sorted by task id).
        let s_tasks: Vec<usize> = s.tasks.iter().map(|x| x.task).collect();
        let t_tasks: Vec<usize> = t.tasks.iter().map(|x| x.task).collect();
        assert_eq!(s_tasks, t_tasks);
        assert!(!s.series.is_empty(), "sim series sampled");
        assert!(!s.trace.is_empty(), "sim trace recorded");
    }

    #[test]
    fn latency_summary_shape() {
        let report = ThreadedReport {
            matches: vec![],
            metrics: Metrics::new(1),
            wall_time: Duration::from_millis(1),
            events_per_sec: 0.0,
            wall_latencies_ns: vec![50, 10, 30, 20, 40],
            telemetry: None,
            final_snapshot: None,
            flight_dumps: vec![],
        };
        assert_eq!(report.latency_summary_ns(), Some([10, 20, 30, 40, 50]));
        let empty = ThreadedReport {
            wall_latencies_ns: vec![],
            ..report
        };
        assert_eq!(empty.latency_summary_ns(), None);
    }

    #[test]
    fn remote_depth_counts_network_hops() {
        let (deployment, _) = test_deployment();
        let d = remote_depth(&deployment);
        assert!(d >= 1, "plan must have at least one network hop");
        assert!(d <= deployment.tasks.len());
    }

    #[test]
    fn release_phases_zero_without_negations() {
        let (deployment, _) = test_deployment();
        let joins = build_joins(&deployment, 4.0, |_| true, None).unwrap();
        assert_eq!(negation_release_phases(&deployment, &joins), 0);
    }

    #[test]
    fn empty_trace_completes() {
        let (deployment, _) = test_deployment();
        let report = run_threaded(&deployment, &[], &ThreadedConfig::default());
        assert_eq!(report.metrics.events_injected, 0);
        assert!(report.matches[0].is_empty());
    }

    #[test]
    fn drain_barrier_synchronizes_rounds() {
        let barrier = Arc::new(DrainBarrier::new(4));
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    for round in 0..50u64 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait(std::thread::yield_now);
                        // After the barrier, every thread has contributed
                        // to this round.
                        assert!(counter.load(Ordering::Relaxed) >= (round + 1) * 4);
                        barrier.wait(std::thread::yield_now);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }
}
