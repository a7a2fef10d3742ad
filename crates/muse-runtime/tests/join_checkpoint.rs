//! Checkpoint round trip of a join whose stores carry equality-key
//! partitions.
//!
//! The partitions are derived data: a join's `JoinState` holds only the
//! sorted slot stores, and `restore_state` rebuilds the partitions from
//! them. A keyed join saved mid-stream and resumed — through
//! `save_state`/`restore_state` directly and through the full snapshot
//! codec — must emit exactly what an uninterrupted run emits, with the same
//! counters. A committed fixture, encoded by the join engine before the
//! partitions existed, shows that the snapshot format did not change and
//! that an old snapshot resumes fingerprint-identically.

use muse_core::event::{Event, Payload, Timestamp, Value};
use muse_core::query::{CmpOp, Pattern, Predicate, Query};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId, QueryId};
use muse_runtime::checkpoint::{self, Snapshot};
use muse_runtime::matcher::{JoinState, JoinTask, Match};
use muse_runtime::metrics::Metrics;

/// A snapshot of [`keyed_join`] after the first [`CUT`] arrivals of
/// [`stream`], written by the join engine as it was before joins
/// partitioned their stores.
const FIXTURE: &[u8] = include_bytes!("data/keyed_join_mid.snapshot");
const CUT: usize = 200;
const WINDOW: Timestamp = 60;

/// `SEQ(A, B, C)` with `A.0 = B.0 = C.0` and `B.1 != C.1`, joined from
/// three single-primitive slots.
fn keyed_join() -> JoinTask {
    let eq = |l: u8, r: u8| {
        Predicate::binary(
            (PrimId(l), AttrId(0)),
            CmpOp::Eq,
            (PrimId(r), AttrId(0)),
            0.2,
        )
    };
    let query = Query::build(
        QueryId(0),
        &Pattern::seq((0..3).map(|t| Pattern::leaf(EventTypeId(t)))),
        vec![
            eq(0, 1),
            eq(1, 2),
            Predicate::binary(
                (PrimId(1), AttrId(1)),
                CmpOp::Ne,
                (PrimId(2), AttrId(1)),
                0.8,
            ),
        ],
        WINDOW,
    )
    .unwrap();
    let slots = [0u8, 1, 2].map(|p| [PrimId(p)].into_iter().collect());
    JoinTask::with_slack(&query, query.prims(), &slots, 2.0).with_evict_stride(25)
}

/// A deterministic, mildly out-of-order stream over the three slots. Keys
/// alternate between `Int` and equal `Float` values; every ninth event
/// lacks the key attribute.
fn stream() -> Vec<(usize, Match)> {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    (0..400u64)
        .map(|i| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let slot = (x >> 40) as usize % 3;
            let time = 20 + 3 * i - (x >> 60) % 8;
            let key = (x >> 20) as i64 % 4;
            let mut payload = Payload::new();
            if i % 9 != 4 {
                let v = if i % 2 == 0 {
                    Value::Int(key)
                } else {
                    Value::Float(key as f64)
                };
                payload.set(AttrId(0), v);
            }
            payload.set(AttrId(1), Value::Int((x >> 50) as i64 % 3));
            let event = Event::with_payload(i, EventTypeId(slot as u16), time, NodeId(0), payload);
            (slot, Match::single(PrimId(slot as u8), event))
        })
        .collect()
}

fn feed(join: &mut JoinTask, arrivals: &[(usize, Match)]) -> Vec<Vec<Vec<u64>>> {
    arrivals
        .iter()
        .map(|(slot, m)| {
            join.on_match(*slot, m.clone())
                .iter()
                .map(Match::fingerprint)
                .collect()
        })
        .collect()
}

/// A snapshot holding one task: the join.
fn snapshot_of(state: JoinState) -> Snapshot {
    Snapshot {
        plan: 0,
        tasks: vec![Some(state)],
        pending: Vec::new(),
        next_sub: 0,
        metrics: Metrics::new(1),
        matches: Vec::new(),
        wall_latencies_ns: Vec::new(),
        sent: Vec::new(),
        cursors: Vec::new(),
    }
}

#[test]
fn keyed_join_resumes_from_checkpoint() {
    let arrivals = stream();
    let mut whole = keyed_join();
    let want = feed(&mut whole, &arrivals);
    let emitted_before: usize = want[..CUT].iter().map(Vec::len).sum();
    let emitted_after: usize = want[CUT..].iter().map(Vec::len).sum();
    assert!(
        emitted_before > 0 && emitted_after > 0,
        "stream must emit on both sides of the cut"
    );

    let mut first = keyed_join();
    assert_eq!(feed(&mut first, &arrivals[..CUT]), want[..CUT]);
    assert!(first.buffered() > 0, "the cut must leave partials buffered");
    let state = first.save_state();
    let bytes = checkpoint::encode(&snapshot_of(state.clone()));
    let decoded = checkpoint::decode(&bytes).unwrap().tasks[0]
        .clone()
        .unwrap();
    assert_eq!(decoded, state);

    // The format is unchanged: the fixture re-encodes byte for byte, is as
    // long as the new encoding, and holds the same buffered state. Only
    // its counters differ — the engine that wrote it probed every
    // window-compatible partial, not just those with the same key.
    let old = checkpoint::decode(FIXTURE).unwrap().tasks[0]
        .clone()
        .unwrap();
    assert_eq!(checkpoint::encode(&snapshot_of(old.clone())), FIXTURE);
    assert_eq!(bytes.len(), FIXTURE.len());
    assert_eq!(
        (&old.stores, &old.negations, old.max_time, &old.deferred),
        (
            &state.stores,
            &state.negations,
            state.max_time,
            &state.deferred
        )
    );
    assert!(old.stats.probes > state.stats.probes);

    for saved in [state, decoded] {
        let mut resumed = keyed_join();
        resumed.restore_state(saved).unwrap();
        assert_eq!(feed(&mut resumed, &arrivals[CUT..]), want[CUT..]);
        assert_eq!(resumed.stats(), whole.stats());
        assert_eq!(resumed.buffered(), whole.buffered());
    }
    let mut resumed = keyed_join();
    resumed.restore_state(old).unwrap();
    assert_eq!(feed(&mut resumed, &arrivals[CUT..]), want[CUT..]);
    assert_eq!(resumed.emitted(), whole.emitted());
}
