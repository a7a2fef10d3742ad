//! The execution kernel shared by the simulator and the threaded executor.
//!
//! A [`Kernel`] owns the runtime state of a set of tasks — every task for
//! the simulator, one node's tasks for each thread of the threaded
//! executor — together with the transmission-multiplexing `sent` set, the
//! metrics, the sink matches and the telemetry of its share of the run. It
//! turns an injected event, or a delivery of a match to `(target, slot)`,
//! into an ordered list of [`Outbound`] deliveries, and does the sink
//! attribution, latency and provenance bookkeeping on the way. Every
//! `Metrics` bump of the execution path and its telemetry hook live here,
//! once.
//!
//! The kernel never calls back into an executor. The executor passes in
//! its [`Clock`] (virtual ticks or wall nanoseconds, read only when a hook
//! needs a timestamp) and chooses the [`LatencyRule`]; it then schedules
//! the outbound deliveries itself — on a virtual-time heap, or through
//! frames and a local backlog.

use crate::checkpoint::{CheckpointError, Snapshot};
use crate::codec::encoded_len;
use crate::deploy::{Deployment, TaskKind};
use crate::matcher::{JoinState, JoinTask, Match};
use crate::metrics::Metrics;
use crate::telemetry::{ExecTelemetry, RunTelemetry};
use muse_core::event::{Event, Timestamp};
use std::collections::HashSet;
use std::time::Instant;

/// A transmission-multiplexing key `(stream sig, from node, to node, match
/// hash)` — the shape [`Snapshot::sent`] stores.
pub(crate) type SentKey = (u64, u16, u16, u64);

/// One delivery produced by the kernel. Per emitted match, deliveries
/// follow [`Deployment::routes`] order.
pub(crate) struct Outbound {
    /// Node hosting the receiving task.
    pub dest: usize,
    /// Whether the route crosses the network.
    pub remote: bool,
    /// Receiving task.
    pub target: usize,
    /// Input slot at the receiver.
    pub slot: usize,
    /// The delivered match.
    pub m: Match,
}

/// An executor's notion of "now", read lazily: only the hooks that record
/// a timestamp ask for it.
pub(crate) trait Clock {
    fn now(&self) -> u64;
}

/// Virtual time: the simulator passes the current delivery time.
impl Clock for Timestamp {
    fn now(&self) -> u64 {
        *self
    }
}

/// Wall time: nanoseconds since the run started.
impl Clock for Instant {
    fn now(&self) -> u64 {
        self.elapsed().as_nanos() as u64
    }
}

/// How a sink match's latency is measured and where its samples go.
pub(crate) trait LatencyRule {
    /// The latency of sink match `m` emitted at `now`, or `None` when the
    /// rule has no baseline for it (counted in
    /// `Metrics::latency_samples_dropped`).
    fn latency(&self, m: &Match, now: u64) -> Option<u64>;
    /// Records one sample (once per query the match is attributed to).
    fn record(&mut self, metrics: &mut Metrics, latency: u64);
}

/// The simulator's rule: event-time lag in virtual ticks, recorded in
/// `Metrics::latencies`.
pub(crate) struct EventTimeLag;

impl LatencyRule for EventTimeLag {
    fn latency(&self, m: &Match, now: u64) -> Option<u64> {
        Some(now.saturating_sub(m.last_time()))
    }

    fn record(&mut self, metrics: &mut Metrics, latency: u64) {
        metrics.record_latency(latency);
    }
}

/// Task state and bookkeeping of one executor's share of a deployment.
pub(crate) struct Kernel<'a, L> {
    pub deployment: &'a Deployment,
    /// Join state per task; `None` for sources and tasks owned elsewhere.
    pub joins: Vec<Option<JoinTask>>,
    /// Already-transmitted streams: identical matches of semantically
    /// identical tasks are shipped to a node once and multiplexed
    /// (cross-query stream reuse at runtime).
    pub sent: HashSet<SentKey, MuxBuildHasher>,
    pub metrics: Metrics,
    /// Sink matches per query (parallel to `Deployment::queries`).
    pub matches: Vec<Vec<Match>>,
    pub telemetry: Option<ExecTelemetry>,
    pub latency: L,
}

impl<'a, L: LatencyRule> Kernel<'a, L> {
    /// A kernel over `joins` with empty metrics, matches and `sent` set.
    pub fn new(
        deployment: &'a Deployment,
        joins: Vec<Option<JoinTask>>,
        latency: L,
        telemetry: Option<ExecTelemetry>,
    ) -> Self {
        Self {
            deployment,
            joins,
            sent: HashSet::default(),
            metrics: Metrics::new(deployment.num_nodes),
            matches: vec![Vec::new(); deployment.queries.len()],
            telemetry,
            latency,
        }
    }

    /// Injects one event into the source tasks at its origin, consulting
    /// the deployment's discrimination index first: candidates whose
    /// predicate bands reject the event are pruned without evaluating a
    /// single predicate. Returns whether any source task takes the event
    /// (only then does it count as injected).
    pub fn inject(&mut self, event: &Event, clock: &impl Clock, out: &mut Vec<Outbound>) -> bool {
        let deployment = self.deployment;
        let candidates = deployment.candidates_for(event.origin, event.ty);
        if candidates.is_empty() {
            return false;
        }
        self.metrics.events_injected += 1;
        self.metrics.record_processed(event.origin.index());
        if let Some(tel) = &mut self.telemetry {
            tel.on_inject(clock.now(), event.origin.index(), candidates[0].task, event);
        }
        let mut admitted = 0u64;
        for cand in candidates {
            let admits = cand.admits(event);
            if let Some(tel) = &mut self.telemetry {
                tel.on_candidate(cand.task, admits);
            }
            if !admits {
                continue;
            }
            admitted += 1;
            let task = cand.task;
            let TaskKind::Source {
                prim, predicates, ..
            } = &deployment.tasks[task].kind
            else {
                unreachable!("candidates_for returns source tasks");
            };
            let query = &deployment.queries[deployment.tasks[task].query_idx];
            let passes = predicates.iter().all(|&pi| {
                query.predicates()[pi].evaluate(|p| (p == *prim).then_some(event)) == Some(true)
            });
            if !passes {
                continue;
            }
            if let Some(tel) = &mut self.telemetry {
                tel.on_emit(task, event.time, 1);
            }
            self.route(task, Match::single(*prim, event.clone()), clock, out);
        }
        self.metrics
            .discrimination
            .observe(candidates.len() as u64, admitted);
        true
    }

    /// Delivers `m` to input `slot` of the owned join `target`.
    pub fn deliver(
        &mut self,
        target: usize,
        slot: usize,
        m: Match,
        clock: &impl Clock,
        out: &mut Vec<Outbound>,
    ) {
        self.metrics
            .record_processed(self.deployment.tasks[target].node.index());
        if let Some(tel) = &mut self.telemetry {
            tel.on_delivery(target);
        }
        let outs = self.joins[target]
            .as_mut()
            .expect("deliveries target owned joins")
            .on_match(slot, m);
        self.emit(target, outs, clock, out);
    }

    /// Re-checks and releases the deferred candidates of every owned
    /// negation-hosting join (see [`JoinTask::release_deferred`]).
    pub fn release_deferred(&mut self, clock: &impl Clock, out: &mut Vec<Outbound>) {
        for task in 0..self.joins.len() {
            let released = match self.joins[task].as_mut() {
                Some(join) if join.has_negations() => join.release_deferred(),
                _ => continue,
            };
            self.emit(task, released, clock, out);
        }
    }

    /// Sink bookkeeping (or merge telemetry) for a task's outputs, then
    /// routing to its fanout.
    fn emit(&mut self, task: usize, outs: Vec<Match>, clock: &impl Clock, out: &mut Vec<Outbound>) {
        if outs.is_empty() {
            return;
        }
        if let Some(tel) = &mut self.telemetry {
            for m in &outs {
                tel.on_emit(task, m.last_time(), 1);
            }
        }
        let deployment = self.deployment;
        let node = deployment.tasks[task].node.index();
        if deployment.tasks[task].is_sink {
            // One physical sink may feed many logical queries (shared
            // deployments): attribute each match — and its latency
            // bookkeeping — to every subscriber so per-query match sets
            // are identical to independent evaluation.
            let now = clock.now();
            let prov = self
                .telemetry
                .as_ref()
                .map_or(0, |tel| tel.provenance_sample());
            for m in &outs {
                let latency = self.latency.latency(m, now);
                let mhash = if prov != 0 { match_hash(m) } else { 0 };
                for &query_idx in &deployment.sink_queries[task] {
                    self.metrics.sink_matches += 1;
                    match latency {
                        Some(latency) => {
                            self.latency.record(&mut self.metrics, latency);
                            if let Some(tel) = &mut self.telemetry {
                                tel.on_sink(now, node, task, m.len(), m.last_time(), latency);
                            }
                        }
                        // No baseline (e.g. the newest constituent entered
                        // in a resumed-from run): count the loss instead of
                        // recording a bogus sample. Invariant:
                        // `sink_matches == samples + latency_samples_dropped`.
                        None => self.metrics.latency_samples_dropped += 1,
                    }
                    if prov != 0 {
                        if let Some(tel) = &mut self.telemetry {
                            tel.on_sink_match(
                                now,
                                node,
                                task,
                                &deployment.queries[query_idx],
                                query_idx,
                                m,
                                mhash,
                            );
                        }
                    }
                    self.matches[query_idx].push(m.clone());
                }
            }
        } else if let Some(tel) = &mut self.telemetry {
            let now = clock.now();
            for m in &outs {
                let span = m.last_time().saturating_sub(m.first_time());
                tel.on_merge(now, node, task, m.len(), span);
            }
        }
        for m in outs {
            self.route(task, m, clock, out);
        }
    }

    /// Counts a task's output match as a network message once per remote
    /// node (§4.4: matches are shipped to a node once and shared by its
    /// placements), then appends one delivery per route.
    fn route(&mut self, task: usize, m: Match, clock: &impl Clock, out: &mut Vec<Outbound>) {
        let deployment = self.deployment;
        let routes = &deployment.routes[task];
        if routes.is_empty() {
            return;
        }
        let from = deployment.tasks[task].node;
        let remote_nodes = &deployment.fanouts[task].remote_nodes;
        if !remote_nodes.is_empty() {
            let sig = deployment.tasks[task].stream_sig;
            let mhash = match_hash(&m);
            // The encoded size is only needed for transmissions that
            // survive the multiplexing.
            let mut bytes: Option<u64> = None;
            for &to in remote_nodes {
                if self.sent.insert((sig, from.0, to as u16, mhash)) {
                    let b = *bytes.get_or_insert_with(|| encoded_len(&m) as u64);
                    self.metrics.messages_sent += 1;
                    self.metrics.bytes_sent += b;
                    if let Some(tel) = &mut self.telemetry {
                        tel.on_ship(clock.now(), from.index(), to, task, b);
                    }
                }
            }
        }
        for r in routes {
            let dest = if r.remote {
                deployment.tasks[r.target].node.index()
            } else {
                self.metrics.local_deliveries += 1;
                if let Some(tel) = &mut self.telemetry {
                    tel.on_local();
                }
                from.index()
            };
            out.push(Outbound {
                dest,
                remote: r.remote,
                target: r.target,
                slot: r.slot,
                m: m.clone(),
            });
        }
    }

    /// The kernel's state as a snapshot: owned task states, the sorted
    /// `sent` set, metrics and matches. Executor-specific fields (pending
    /// deliveries, wall latencies, cursors) are left empty.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::empty(self.deployment);
        snap.tasks = self
            .joins
            .iter()
            .map(|j| j.as_ref().map(JoinTask::save_state))
            .collect();
        snap.metrics = self.metrics.clone();
        snap.matches = self.matches.clone();
        snap.sent = self.sent.iter().copied().collect();
        snap.sent.sort_unstable();
        snap
    }

    /// Folds the join-engine counters into the metrics and seals the
    /// telemetry with the summaries of `tasks`.
    pub fn finish(&mut self, tasks: impl Iterator<Item = usize>) -> Option<RunTelemetry> {
        for join in self.joins.iter().flatten() {
            self.metrics.join.merge(join.stats());
        }
        let tel = self.telemetry.take()?;
        let summaries = crate::telemetry::task_summaries(
            self.deployment,
            tasks,
            |i| self.joins[i].as_ref(),
            &tel,
        );
        Some(tel.finish(&self.metrics, summaries))
    }
}

/// Instantiates from the plan the join state of every task `owned` selects
/// (`None` for sources and for tasks owned elsewhere). Given a snapshot's
/// per-task states, grafts each owned task's saved state on, checking that
/// it fits the task's kind.
pub(crate) fn build_joins(
    deployment: &Deployment,
    slack: f64,
    owned: impl Fn(usize) -> bool,
    mut saved: Option<&mut [Option<JoinState>]>,
) -> Result<Vec<Option<JoinTask>>, CheckpointError> {
    (0..deployment.tasks.len())
        .map(|i| {
            if !owned(i) {
                return Ok(None);
            }
            let join = deployment.make_join(i, slack);
            let Some(saved) = saved.as_deref_mut() else {
                return Ok(join);
            };
            match (&deployment.tasks[i].kind, saved[i].take(), join) {
                (TaskKind::Source { .. }, None, _) => Ok(None),
                (TaskKind::Join { .. }, Some(state), Some(mut j)) => {
                    j.restore_state(state).map_err(CheckpointError::Shape)?;
                    Ok(Some(j))
                }
                (TaskKind::Source { .. }, Some(_), _) => {
                    Err(CheckpointError::Shape("join state for a source task"))
                }
                (TaskKind::Join { .. }, None, _) => {
                    Err(CheckpointError::Shape("missing join state for a join task"))
                }
                (TaskKind::Join { .. }, Some(_), None) => {
                    Err(CheckpointError::Shape("join task failed to instantiate"))
                }
            }
        })
        .collect()
}

/// A compact hash of a match's constituent events (for transmission
/// multiplexing; collisions only skew the metric, never the results).
pub(crate) fn match_hash(m: &Match) -> u64 {
    // Only the constituent events identify the physical payload: primitive
    // operator ids are receiver-side interpretation and differ across
    // queries for semantically identical streams. Each seq is finalized
    // through splitmix64 and combined with a commutative add, so the hash
    // is independent of entry order without sorting (and allocating) a
    // scratch vector on the send path.
    let mut acc: u64 = 0;
    for (_, e) in m.entries() {
        let mut x = e.seq.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = acc.wrapping_add(x ^ (x >> 31));
    }
    acc
}

/// The hasher for the transmission-multiplexing `sent` sets.
///
/// The set keys are stream signatures and [`match_hash`] values — both
/// already well mixed — so SipHash's keyed preimage resistance buys
/// nothing here while its per-insert cost shows up in the send path (the
/// set grows with every unique transmission). One multiply-and-rotate
/// round per word keeps the tuple components from cancelling and costs a
/// few cycles.
#[derive(Default)]
pub(crate) struct MuxHasher(u64);

impl std::hash::Hasher for MuxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(26);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64)
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64)
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64)
    }
}

/// `HashSet` state for [`MuxHasher`]-keyed multiplexing sets.
pub(crate) type MuxBuildHasher = std::hash::BuildHasherDefault<MuxHasher>;
