//! Workload inputs and one measured pass over them.
//!
//! Every workload is sized by its own input parameters (jobs, horizon,
//! segments, relay duration), never by a repetition count; repetitions
//! only fill the measuring time. A pass is the work a user of the system
//! pays for one deployment: estimate statistics, construct the plan,
//! verify and build the deployment, then replay every segment of the
//! pre-generated stream on the simulator and on the threaded executor.
//! Each call into the program is timed from outside, inside a span of the
//! [`Tracer`].

use crate::spans::Tracer;
use muse_bench::transport_stress;
use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::baselines::{centralized_cost, placement_to_graph, OperatorPlacement};
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Timestamp};
use muse_core::graph::{MuseGraph, PlanContext};
use muse_core::network::Network;
use muse_core::projection::ProjectionTable;
use muse_core::query::parser::ParserOptions;
use muse_core::query::{Pattern, Predicate};
use muse_core::types::{EventTypeId, NodeId, QueryId};
use muse_core::workload::Workload;
use muse_runtime::checkpoint;
use muse_runtime::deploy::{Deployment, Sharing};
use muse_runtime::matcher::{Evaluator, Match};
use muse_runtime::metrics::Metrics;
use muse_runtime::sim::{SimConfig, SimExecutor};
use muse_runtime::threaded::{run_threaded, ThreadedConfig};
use muse_sim::cluster_trace::{
    generate_cluster_trace, query1_source, query2_source, ClusterTraceConfig,
};
use muse_sim::stats_est::{rates_per_window, PairSelectivities};
use std::collections::{BTreeMap, BTreeSet};

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's case study (Listing 1, both queries) on the cluster trace.
    Cluster,
    /// The transport-bound relay of `muse_bench::transport_stress`.
    Relay,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::Cluster, Kind::Relay];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Cluster => "cluster",
            Kind::Relay => "relay",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes of the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Cluster-trace jobs per segment.
    pub jobs: usize,
    /// Cluster-trace horizon per segment, in hours.
    pub hours: u64,
    /// Independent cluster-trace segments in the stream (each replayed by
    /// a fresh executor on the same deployment).
    pub segments: usize,
    /// Relay trace duration in the relay network's time units.
    pub relay_units: f64,
}

impl Size {
    /// The measured size. The cluster stream is six segments of 4000 jobs
    /// over 120 h at the generator's default density (400 jobs per 12 h):
    /// about 390k events and 17k matches in all. Match volume hangs on the
    /// rare `UpdateR` events (a few hundred per segment), so one segment
    /// alone varies by about 10% between seeds; six independent segments
    /// average that out, while keeping each executor run's state at the
    /// size of one segment. The relay runs about 300k events.
    pub const FULL: Size = Size {
        jobs: 4000,
        hours: 120,
        segments: 6,
        relay_units: 1000.0,
    };

    /// A small size for the benchmark's own smoke tests.
    pub const TINY: Size = Size {
        jobs: 400,
        hours: 12,
        segments: 2,
        relay_units: 20.0,
    };
}

/// The case-study queries' window (`WITHIN 30min`, in trace milliseconds);
/// also the simulator's chunk length on the cluster workload.
const CLUSTER_WINDOW: Timestamp = 30 * 60 * 1000;

/// The relay's chunk for both executors: 10 windows, as the `executor`
/// harness experiment runs it. Remote deliveries can land a full chunk
/// late, so the eviction slack must keep `slack · window` above the chunk.
const RELAY_CHUNK: Timestamp = 10 * transport_stress::WINDOW;
const RELAY_SLACK: f64 = 12.0;

/// The seed of the history trace that planning statistics are estimated
/// from. A deployed system plans from past observations, not from the
/// stream it is about to process; and at this trace size the estimates of
/// the rare `UpdateR` stream vary enough between seeds to flip aMuSE
/// between plan families whose per-event cost differs by up to 2.5x. With
/// one history, every seed runs the same plan and the seed only draws the
/// stream it executes.
const HISTORY_SEED: u64 = 0x4d75_5345;

/// Generated inputs: the only thing the program is handed.
pub struct Inputs {
    pub kind: Kind,
    /// The stream both executors replay and the reference evaluates, as
    /// independent segments.
    pub segments: Vec<Vec<Event>>,
    /// Past observations the planner's statistics come from.
    history: Vec<Event>,
    network: Network,
    workload: Workload,
    horizon: Timestamp,
}

/// Generates a workload's inputs from its seed.
pub fn generate(kind: Kind, size: Size, seed: u64) -> Inputs {
    // Segment `i` of seed `s` draws from seed `s << 8 | i`.
    let segment_seeds = |n: usize| (0..n as u64).map(move |i| seed << 8 | i);
    match kind {
        Kind::Cluster => {
            let horizon = size.hours * 60 * 60 * 1000;
            let trace = |seed| {
                generate_cluster_trace(&ClusterTraceConfig {
                    jobs: size.jobs,
                    duration_ms: horizon,
                    seed,
                    ..Default::default()
                })
            };
            let history = trace(HISTORY_SEED);
            let workload = Workload::parse(
                history.catalog.clone(),
                [query1_source(), query2_source()],
                &ParserOptions::default(),
            )
            .expect("Listing 1 queries parse");
            Inputs {
                kind,
                segments: segment_seeds(size.segments)
                    .map(|s| trace(s).events)
                    .collect(),
                history: history.events,
                network: history.network,
                workload,
                horizon,
            }
        }
        Kind::Relay => {
            let network = transport_stress::stress_network();
            let trace = |seed| transport_stress::stress_trace(&network, size.relay_units, seed);
            let history = trace(HISTORY_SEED);
            let horizon = history.last().map_or(1, |e| e.time + 1);
            Inputs {
                kind,
                segments: segment_seeds(1).map(trace).collect(),
                history,
                workload: relay_workload(),
                network,
                horizon,
            }
        }
    }
}

/// `SEQ(edge_i, anchor_c)` for every edge type and center, in the order
/// `transport_stress::stress_deployment` declares them.
fn relay_workload() -> Workload {
    use transport_stress::{CENTERS, EDGE_TYPES, WINDOW};
    Workload::from_patterns(
        Catalog::with_anonymous_types(EDGE_TYPES + CENTERS),
        (0..CENTERS).flat_map(|c| {
            (0..EDGE_TYPES).map(move |i| {
                (
                    Pattern::seq([
                        Pattern::leaf(EventTypeId(i as u16)),
                        Pattern::leaf(EventTypeId((EDGE_TYPES + c) as u16)),
                    ]),
                    Vec::<Predicate>::new(),
                    WINDOW,
                )
            })
        }),
    )
    .expect("relay patterns build a workload")
}

impl Inputs {
    fn window(&self) -> Timestamp {
        match self.kind {
            Kind::Cluster => CLUSTER_WINDOW,
            Kind::Relay => transport_stress::WINDOW,
        }
    }

    fn sim_chunk(&self) -> Timestamp {
        match self.kind {
            Kind::Cluster => CLUSTER_WINDOW,
            Kind::Relay => RELAY_CHUNK,
        }
    }

    /// Threads each threaded run spawns: one per network node.
    pub fn threads(&self) -> usize {
        self.network.num_nodes()
    }

    /// Events over all segments.
    pub fn events(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    fn threaded_config(&self) -> ThreadedConfig {
        match self.kind {
            Kind::Cluster => ThreadedConfig::default(),
            Kind::Relay => ThreadedConfig {
                slack: RELAY_SLACK,
                chunk_ticks: Some(RELAY_CHUNK),
                ..ThreadedConfig::default()
            },
        }
    }
}

/// The centralized `Evaluator`'s match fingerprints per segment and query.
pub struct Reference {
    per_segment: Vec<BTreeMap<QueryId, BTreeSet<Vec<u64>>>>,
}

impl Reference {
    /// Evaluates every (segment, query) pair; run once per process,
    /// before anything is measured.
    pub fn compute(inputs: &Inputs) -> Self {
        let queries = inputs.workload.queries();
        let per_segment = inputs
            .segments
            .iter()
            .map(|events| {
                queries
                    .iter()
                    .map(|q| {
                        let fps = Evaluator::for_query(q)
                            .run(events)
                            .iter()
                            .map(Match::fingerprint)
                            .collect();
                        (q.id(), fps)
                    })
                    .collect()
            })
            .collect();
        Self { per_segment }
    }

    /// Reference matches over all segments and queries.
    pub fn matches(&self) -> u64 {
        self.per_segment
            .iter()
            .flat_map(BTreeMap::values)
            .map(|s| s.len() as u64)
            .sum()
    }

    /// Missing plus spurious (including duplicate) sink matches of one
    /// executor run over segment `segment` against the reference.
    pub fn errors(&self, segment: usize, deployment: &Deployment, matches: &[Vec<Match>]) -> u64 {
        let reference = &self.per_segment[segment];
        let empty = BTreeSet::new();
        let mut errors = 0;
        for (query, got) in deployment.queries.iter().zip(matches) {
            let expected = reference.get(&query.id()).unwrap_or(&empty);
            let mut seen = BTreeSet::new();
            for m in got {
                let fp = m.fingerprint();
                if !expected.contains(&fp) || !seen.insert(fp) {
                    errors += 1;
                }
            }
            errors += (expected.len() - seen.len()) as u64;
        }
        // A query the deployment does not serve has all its matches missing.
        for (id, expected) in reference {
            if !deployment.queries.iter().any(|q| q.id() == *id) {
                errors += expected.len() as u64;
            }
        }
        errors
    }
}

/// Planning and deployment figures of one set-up.
pub struct Setup {
    pub deployment: Deployment,
    pub secs: f64,
    pub projections: u64,
    pub combinations: u64,
    pub graphs_evaluated: u64,
    pub plan_cost_ratio: f64,
}

/// Estimates statistics, constructs the plan, verifies it and builds the
/// deployment. `Err` carries the verifier's report when it refuses the
/// plan (a failed operation).
pub fn setup(inputs: &Inputs, tr: &mut Tracer) -> Result<Setup, String> {
    let window = inputs.window();
    let ((workload, network), estimate_s) = tr.time("plan.estimate", |_| {
        let mut workload = inputs.workload.clone();
        if inputs.kind != Kind::Relay {
            let catalog = workload.catalog();
            let attrs = [
                catalog.attr("jID").expect("cluster catalog has jID"),
                catalog.attr("uID").expect("cluster catalog has uID"),
            ];
            let sel = PairSelectivities::estimate(&inputs.history, window, &attrs, inputs.horizon);
            for q in workload.queries_mut() {
                sel.apply_to_query(q);
            }
        }
        let network = rates_per_window(&inputs.network, &inputs.history, window, inputs.horizon);
        (workload, network)
    });

    type Planned = (MuseGraph, ProjectionTable, [u64; 3]);
    let (planned, construct_s) = tr.time("plan.construct", |_| -> Result<Planned, String> {
        match inputs.kind {
            Kind::Cluster => {
                let plan = amuse_workload(&workload, &network, &AMuseConfig::default())
                    .map_err(|e| format!("aMuSE failed: {e}"))?;
                let sum = |f: fn(&muse_core::algorithms::amuse::ConstructionStats) -> usize| {
                    plan.stats.iter().map(f).sum::<usize>() as u64
                };
                let counts = [
                    sum(|s| s.projections_beneficial),
                    sum(|s| s.combinations),
                    sum(|s| s.graphs_evaluated),
                ];
                Ok((plan.merged, plan.table, counts))
            }
            Kind::Relay => {
                // One pinned graph per query; no projections or combinations.
                let (graph, table) = relay_graph(&workload, &network)?;
                Ok((graph, table, [0, 0, workload.len() as u64]))
            }
        }
    });
    let (graph, table, [projections, combinations, graphs_evaluated]) = planned?;

    let ctx = PlanContext::new(workload.queries(), &network, &table);
    let (report, verify_s) = tr.time("deploy.verify", |_| {
        muse_verify::verify_for_deploy(&graph, &ctx)
    });
    if report.has_errors() {
        return Err(format!(
            "the verifier refused the plan:\n{}",
            report.render_pretty(None)
        ));
    }
    let (deployment, build_s) = tr.time("deploy.build", |_| {
        Deployment::unchecked(&graph, &ctx, Sharing::default())
    });
    let plan_cost_ratio = graph.cost(&ctx) / centralized_cost(workload.queries(), &network);
    Ok(Setup {
        deployment,
        secs: estimate_s + construct_s + verify_s + build_s,
        projections,
        combinations,
        graphs_evaluated,
        plan_cost_ratio,
    })
}

/// The relay's pinned placements: every query wholesale on its center, as
/// in `transport_stress::stress_deployment` (not an aMuSE plan, by design).
fn relay_graph(
    workload: &Workload,
    network: &Network,
) -> Result<(MuseGraph, ProjectionTable), String> {
    let mut table = ProjectionTable::new();
    let mut graph = MuseGraph::new();
    for (q_idx, q) in workload.queries().iter().enumerate() {
        let placement = OperatorPlacement {
            assignments: vec![(
                q.prims(),
                NodeId((q_idx / transport_stress::EDGE_TYPES) as u16),
            )],
            cost: 0.0,
        };
        let g = placement_to_graph(q, &placement, network, &mut table)
            .map_err(|e| format!("pinned placement failed: {e}"))?;
        graph.union_with(&g);
    }
    Ok((graph, table))
}

/// Splits a trace-ordered slice at multiples of `ticks` (empty chunks are
/// skipped).
fn chunks(events: &[Event], ticks: Timestamp) -> impl Iterator<Item = &[Event]> {
    let mut rest = events;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let end = (first.time / ticks + 1) * ticks;
        let (chunk, tail) = rest.split_at(rest.partition_point(|e| e.time < end));
        rest = tail;
        Some(chunk)
    })
}

/// Set-ups per pass. Planning takes tens of milliseconds, short enough
/// for a burst of load elsewhere on the machine to double one sample, so
/// `setup_s` is the median of several set-ups in every pass.
pub const SETUPS_PER_PASS: usize = 8;

/// Everything one pass measured, summed over the stream's segments.
pub struct Pass {
    /// The last set-up of the pass, whose deployment the executors run.
    pub setup: Setup,
    /// Wall seconds of each of the pass's set-ups.
    pub setup_secs: Vec<f64>,
    pub sim_s: f64,
    pub sim: Metrics,
    /// Encoded snapshot sizes in order, per segment.
    pub snapshot_bytes: Vec<Vec<u64>>,
    pub threaded_s: f64,
    pub threaded: Metrics,
    /// Sorted wall latencies of the threaded runs, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Executor runs checked against the reference (per segment: the
    /// simulator, the simulator resumed from a snapshot and the threaded
    /// executor).
    pub runs: u64,
    /// Runs whose sink matches differ from the reference.
    pub failed_runs: u64,
    /// Missing plus spurious sink matches over those runs.
    pub match_errors: u64,
}

impl Pass {
    /// Checks one executor run's sink matches against the reference.
    fn check(
        &mut self,
        tr: &mut Tracer,
        reference: &Reference,
        segment: usize,
        matches: &[Vec<Match>],
    ) {
        let (errors, _) = tr.time("check.matches", |_| {
            reference.errors(segment, &self.setup.deployment, matches)
        });
        self.runs += 1;
        self.failed_runs += u64::from(errors > 0);
        self.match_errors += errors;
    }
}

/// One pass: set up [`SETUPS_PER_PASS`] times, then replay each segment on
/// both executors with the last deployment and check every run against
/// the reference.
pub fn pass(inputs: &Inputs, reference: &Reference, tr: &mut Tracer) -> Result<Pass, String> {
    let mut setup_secs = Vec::with_capacity(SETUPS_PER_PASS);
    let mut last = None;
    for _ in 0..SETUPS_PER_PASS {
        let s = setup(inputs, tr)?;
        setup_secs.push(s.secs);
        last = Some(s);
    }
    let mut out = Pass {
        setup: last.expect("at least one set-up per pass"),
        setup_secs,
        sim_s: 0.0,
        sim: Metrics::default(),
        snapshot_bytes: Vec::new(),
        threaded_s: 0.0,
        threaded: Metrics::default(),
        latencies_ns: Vec::new(),
        runs: 0,
        failed_runs: 0,
        match_errors: 0,
    };
    for (i, events) in inputs.segments.iter().enumerate() {
        segment(inputs, i, events, reference, tr, &mut out)?;
    }
    out.latencies_ns.sort_unstable();
    Ok(out)
}

fn snapshot(tr: &mut Tracer, ex: &SimExecutor<'_>) -> Result<(Vec<u8>, f64), String> {
    let (bytes, secs) = tr.time("ckpt.snapshot", |_| checkpoint::snapshot(ex));
    Ok((bytes.map_err(|e| format!("snapshot failed: {e}"))?, secs))
}

/// Replays one segment on the simulator, then on a simulator restored
/// from the snapshot taken after the first chunk, then on the threaded
/// executor. Each run is checked, and its report dropped, before the next
/// starts, so that only one report is alive at a time.
fn segment(
    inputs: &Inputs,
    index: usize,
    events: &[Event],
    reference: &Reference,
    tr: &mut Tracer,
    out: &mut Pass,
) -> Result<(), String> {
    // Snapshots after the first chunk and at the end of the segment show
    // how the state a checkpoint carries grows with run length; neither is
    // counted in `sim_s`.
    let dep = &out.setup.deployment;
    let chunk = inputs.sim_chunk();
    let mut ex = SimExecutor::new(dep, SimConfig::default());
    let mut first = Vec::new();
    let (first_snapshot_s, sim_s) = tr.time("exec.sim", |tr| {
        let mut first_snapshot_s = 0.0;
        for (i, events) in chunks(events, chunk).enumerate() {
            tr.time("exec.sim.chunk", |_| ex.process_trace(events));
            if i == 0 {
                (first, first_snapshot_s) = snapshot(tr, &ex)?;
            }
        }
        Ok::<f64, String>(first_snapshot_s)
    });
    let sim_s = sim_s - first_snapshot_s?;
    let (last, _) = snapshot(tr, &ex)?;
    out.snapshot_bytes
        .push(vec![first.len() as u64, last.len() as u64]);
    drop(last);
    let sim = ex.finish();
    out.sim_s += sim_s;
    out.sim.merge(&sim.metrics);
    out.check(tr, reference, index, &sim.matches);
    drop(sim);

    let (restored, _) = tr.time("ckpt.restore", |_| {
        checkpoint::restore(&out.setup.deployment, SimConfig::default(), &first)
    });
    let mut resumed = restored.map_err(|e| format!("restore failed: {e}"))?;
    drop(first);
    tr.time("exec.resume", |_| {
        for events in chunks(events, chunk).skip(1) {
            resumed.process_trace(events);
        }
    });
    let resumed = resumed.finish();
    out.check(tr, reference, index, &resumed.matches);
    drop(resumed);

    let config = inputs.threaded_config();
    let (threaded, threaded_s) = tr.time("exec.threaded", |_| {
        run_threaded(&out.setup.deployment, events, &config)
    });
    out.threaded_s += threaded_s;
    out.threaded.merge(&threaded.metrics);
    out.latencies_ns
        .extend_from_slice(&threaded.wall_latencies_ns);
    out.check(tr, reference, index, &threaded.matches);
    Ok(())
}
