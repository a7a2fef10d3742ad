//! Equality-key partitions of a join's slot stores.
//!
//! Equi-join queries (the case study's `f.uID = e.uID = k.uID = u.uID`)
//! constrain every complete match to one attribute value across a chain of
//! `=` predicates. [`EqIndex`] picks one such chain — an *equality class*
//! of `(prim, attr)` pairs connected by `BinaryAttr` `Eq` predicates over
//! the target's positive primitives — and keeps each covered slot's stored
//! matches partitioned by the class value, so a probe visits only the
//! partners that could possibly agree with it.
//!
//! **Soundness.** A complete match assigns every positive primitive, so it
//! satisfies every predicate of the class. [`canonical`] maps values such
//! that `a = b` under [`Value::partial_cmp_value`] implies equal keys, and
//! key equality is transitive even where `=` is not (`Int(2⁵³)` and
//! `Int(2⁵³+1)` both equal `Float(2⁵³)`), so all class members of a
//! complete match carry one key. A candidate and a stored match whose keys
//! differ therefore never extend to a complete match, and skipping the
//! pair cannot change the join's output. A member lacking the attribute
//! (or carrying NaN) fails its own `=` predicate, so a match with such a
//! first member ([`EqKey::Void`]) has no partner at all.
//!
//! **Derived state.** The partitions hold `Arc`-backed clones of the
//! entries of the owning [`MatchStore`], which stays the single owner of
//! buffered matches, eviction counts, and checkpoint state. They are
//! drained whenever their store drains, never serialized, and rebuilt from
//! the stores on restore.

use super::store::{window_slice, MatchStore, StoredMatch};
use super::{Match, SlotSpec};
use muse_core::event::{Timestamp, Value};
use muse_core::query::{CmpOp, PredicateExpr, Query};
use muse_core::types::{AttrId, PrimId, PrimSet};
use serde::{DeError, Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// A match's position with respect to the equality class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EqKey {
    /// The match assigns no class member: any partner may agree with it.
    Unkeyed,
    /// The first class member the match assigns lacks the attribute or is
    /// NaN: no complete match contains it.
    Void,
    /// Canonical value of the first class member the match assigns.
    Key(u64),
}

/// The per-slot equality-key partitions of one join task.
///
/// Serializes to nothing and deserializes to the empty index, under which
/// every probe takes the whole store slice: a join read back through serde
/// emits the same matches, unpartitioned.
#[derive(Debug, Clone, Default)]
pub(crate) struct EqIndex {
    /// Members of the chosen equality class, sorted (empty: no index).
    members: Vec<(PrimId, AttrId)>,
    /// Per slot, the stored matches partitioned by key, each partition
    /// sorted like the store. `None` for negated slots, slots without a
    /// class member, and slots that received an unkeyed match.
    parts: Vec<Option<HashMap<u64, Vec<StoredMatch>>>>,
}

impl EqIndex {
    /// Derives the equality class of a join and builds its (empty)
    /// partitions: union-find over the `(prim, attr)` pairs of the `Eq`
    /// attribute predicates within `positive`, keeping the class that
    /// covers the most positive slots (at least two; ties go to the class
    /// whose first pair appears first in the predicate list).
    pub(crate) fn build(query: &Query, positive: PrimSet, slots: &[SlotSpec]) -> Self {
        let mut nodes: Vec<(PrimId, AttrId)> = Vec::new();
        let mut parent: Vec<usize> = Vec::new();
        let mut node = |pair, parent: &mut Vec<usize>| match nodes.iter().position(|&n| n == pair) {
            Some(i) => i,
            None => {
                nodes.push(pair);
                parent.push(parent.len());
                parent.len() - 1
            }
        };
        fn root(parent: &[usize], mut i: usize) -> usize {
            while parent[i] != i {
                i = parent[i];
            }
            i
        }
        for pred in query.predicates() {
            if let PredicateExpr::BinaryAttr {
                left_prim,
                left_attr,
                op: CmpOp::Eq,
                right_prim,
                right_attr,
            } = pred.expr
            {
                if pred.prims().is_subset(positive) {
                    let l = node((left_prim, left_attr), &mut parent);
                    let r = node((right_prim, right_attr), &mut parent);
                    let (rl, rr) = (root(&parent, l), root(&parent, r));
                    // Attach to the older root so a class's root is its
                    // first-seen pair (the tie-break order).
                    parent[rl.max(rr)] = rl.min(rr);
                }
            }
        }
        let positive_slots = || slots.iter().filter(|s| !s.negated);
        // (covered slots, class root, class prims) of the best class so far.
        let mut best: Option<(usize, usize, PrimSet)> = None;
        for class in (0..nodes.len()).filter(|&i| parent[i] == i) {
            let prims: PrimSet = (0..nodes.len())
                .filter(|&i| root(&parent, i) == class)
                .map(|i| nodes[i].0)
                .collect();
            let covered = positive_slots()
                .filter(|s| !s.prims.is_disjoint(prims))
                .count();
            if covered >= 2 && best.is_none_or(|(n, _, _)| covered > n) {
                best = Some((covered, class, prims));
            }
        }
        let Some((_, class, class_prims)) = best else {
            return Self::default();
        };
        let mut members: Vec<(PrimId, AttrId)> = (0..nodes.len())
            .filter(|&i| root(&parent, i) == class)
            .map(|i| nodes[i])
            .collect();
        members.sort_unstable();
        let parts = slots
            .iter()
            .map(|s| (!s.negated && !s.prims.is_disjoint(class_prims)).then(HashMap::new))
            .collect();
        Self { members, parts }
    }

    /// Builds the index and fills it from the live entries of `stores`.
    pub(crate) fn rebuild(
        query: &Query,
        positive: PrimSet,
        slots: &[SlotSpec],
        stores: &[MatchStore],
    ) -> Self {
        let mut index = Self::build(query, positive, slots);
        for (slot, store) in stores.iter().enumerate() {
            for e in store.live() {
                let key = index.key_of(&e.m);
                index.insert(slot, key, e);
            }
        }
        index
    }

    /// A match's key: the canonical value of the first class member it
    /// assigns.
    pub(crate) fn key_of(&self, m: &Match) -> EqKey {
        for &(prim, attr) in &self.members {
            if let Some(e) = m.get(prim) {
                return e
                    .payload
                    .get(attr)
                    .and_then(canonical)
                    .map_or(EqKey::Void, EqKey::Key);
            }
        }
        EqKey::Unkeyed
    }

    /// Mirrors a store insert into the slot's partitions. A void entry can
    /// never be a partner and is left out; an unkeyed entry in a keyed slot
    /// (a match not covering its slot's primitives) turns the slot's
    /// partitions off, so the slot falls back to full store probes.
    pub(crate) fn insert(&mut self, slot: usize, key: EqKey, stored: &StoredMatch) {
        let Some(Some(parts)) = self.parts.get_mut(slot) else {
            return;
        };
        match key {
            EqKey::Key(k) => {
                let part = parts.entry(k).or_default();
                let idx = part.partition_point(|e| e.first <= stored.first);
                part.insert(idx, stored.clone());
            }
            EqKey::Void => {}
            EqKey::Unkeyed => self.parts[slot] = None,
        }
    }

    /// The partners a probe keyed `key` spanning `[first, last]` may have
    /// in `slot`: the window-compatible slice of the key's partition, or
    /// of the whole `store` when either side carries no key.
    pub(crate) fn compatible<'a>(
        &'a self,
        slot: usize,
        store: &'a MatchStore,
        key: EqKey,
        first: Timestamp,
        last: Timestamp,
        window: Timestamp,
    ) -> &'a [StoredMatch] {
        match (self.parts.get(slot).and_then(Option::as_ref), key) {
            (_, EqKey::Void) => &[],
            (Some(parts), EqKey::Key(k)) => parts.get(&k).map_or(&[], |part| {
                window_slice(part, store.horizon(), first, last, window)
            }),
            _ => store.compatible(first, last, window),
        }
    }

    /// Drops the slot's entries below `horizon` (called when the owning
    /// store drains), removing emptied keys.
    pub(crate) fn drain(&mut self, slot: usize, horizon: Timestamp) {
        if let Some(Some(parts)) = self.parts.get_mut(slot) {
            parts.retain(|_, part| {
                let dead = part.partition_point(|e| e.first < horizon);
                part.drain(..dead);
                !part.is_empty()
            });
        }
    }
}

/// The partition key of an attribute value, such that `a = b` under
/// [`Value::partial_cmp_value`] implies `canonical(a) == canonical(b)`:
/// numbers map to their `f64` bits (`Int` converted with `as f64`, `-0.0`
/// folded onto `0.0`), strings to a fixed hash of their content (a
/// collision only widens a partition), NaN to no key.
pub(crate) fn canonical(v: &Value) -> Option<u64> {
    let num = |f: f64| (!f.is_nan()).then(|| if f == 0.0 { 0 } else { f.to_bits() });
    match v {
        Value::Int(i) => num(*i as f64),
        Value::Float(f) => num(*f),
        Value::Str(s) => {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            Some(h.finish())
        }
    }
}

impl Serialize for EqIndex {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for EqIndex {
    fn from_value(_: &serde::Value) -> Result<Self, DeError> {
        Ok(Self::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::event::{Event, Payload};
    use muse_core::query::{Pattern, Predicate};
    use muse_core::types::{EventTypeId, NodeId, QueryId};

    fn ps(prims: impl IntoIterator<Item = u8>) -> PrimSet {
        prims.into_iter().map(PrimId).collect()
    }

    fn slot(prims: PrimSet) -> SlotSpec {
        SlotSpec {
            prims,
            negated: false,
        }
    }

    fn eq(l: u8, la: u8, r: u8, ra: u8) -> Predicate {
        Predicate::binary(
            (PrimId(l), AttrId(la)),
            CmpOp::Eq,
            (PrimId(r), AttrId(ra)),
            0.1,
        )
    }

    /// AND over four leaves with the given predicates.
    fn and4(preds: Vec<Predicate>) -> Query {
        Query::build(
            QueryId(0),
            &Pattern::and((0..4).map(|t| Pattern::leaf(EventTypeId(t)))),
            preds,
            100,
        )
        .unwrap()
    }

    fn keyed(prim: u8, attr: u8, v: Value) -> Match {
        let mut p = Payload::new();
        p.set(AttrId(attr), v);
        Match::single(
            PrimId(prim),
            Event::with_payload(0, EventTypeId(prim as u16), 0, NodeId(0), p),
        )
    }

    #[test]
    fn canonical_respects_numeric_equality() {
        let big = 1i64 << 53;
        let k = |v: Value| canonical(&v);
        assert_eq!(k(Value::Int(big)), k(Value::Float(big as f64)));
        // Not transitive under `=`, but both equal Float(2⁵³): same key.
        assert_eq!(k(Value::Int(big + 1)), k(Value::Float(big as f64)));
        assert_eq!(k(Value::Float(-0.0)), k(Value::Float(0.0)));
        assert_eq!(k(Value::Int(0)), k(Value::Float(-0.0)));
        assert_eq!(k(Value::Float(f64::NAN)), None);
        assert_eq!(k(Value::Str("a".into())), k(Value::Str("a".into())));
        assert_ne!(k(Value::Str("a".into())), k(Value::Str("b".into())));
        assert_ne!(k(Value::Int(1)), k(Value::Int(2)));
    }

    #[test]
    fn class_covering_most_slots_wins() {
        // Class {0.0, 1.0} covers two slots; {1.1, 2.1, 3.1} covers three.
        let q = and4(vec![eq(0, 0, 1, 0), eq(1, 1, 2, 1), eq(2, 1, 3, 1)]);
        let slots = [slot(ps([0])), slot(ps([1])), slot(ps([2])), slot(ps([3]))];
        let idx = EqIndex::build(&q, q.prims(), &slots);
        let attrs: Vec<(u8, u8)> = idx.members.iter().map(|(p, a)| (p.0, a.0)).collect();
        assert_eq!(attrs, vec![(1, 1), (2, 1), (3, 1)]);
        assert_eq!(
            idx.parts.iter().map(Option::is_some).collect::<Vec<_>>(),
            vec![false, true, true, true]
        );
    }

    #[test]
    fn ties_go_to_the_first_class_and_one_slot_is_not_enough() {
        let q = and4(vec![eq(2, 0, 3, 0), eq(0, 0, 1, 0)]);
        let slots = [slot(ps([0])), slot(ps([1])), slot(ps([2])), slot(ps([3]))];
        let idx = EqIndex::build(&q, q.prims(), &slots);
        assert_eq!(
            idx.members,
            vec![(PrimId(2), AttrId(0)), (PrimId(3), AttrId(0))]
        );
        // Each class lies inside one slot: nothing to partition.
        let idx = EqIndex::build(&q, q.prims(), &[slot(ps([0, 1])), slot(ps([2, 3]))]);
        assert!(idx.members.is_empty());
    }

    #[test]
    fn classes_sharing_a_prim_stay_apart() {
        // {0.0, 1.0} and {1.1, 2.1} share prim 1 but not an attribute.
        let q = and4(vec![eq(0, 0, 1, 0), eq(1, 1, 2, 1)]);
        let slots = [slot(ps([0])), slot(ps([1])), slot(ps([2]))];
        let idx = EqIndex::build(&q, q.prims(), &slots);
        assert_eq!(
            idx.members,
            vec![(PrimId(0), AttrId(0)), (PrimId(1), AttrId(0))]
        );
    }

    #[test]
    fn predicates_outside_the_positive_prims_are_ignored() {
        let q = and4(vec![eq(0, 0, 1, 0)]);
        let slots = [slot(ps([0])), slot(ps([1]))];
        let idx = EqIndex::build(&q, ps([0, 2]), &slots);
        assert!(idx.members.is_empty());
    }

    #[test]
    fn keys_and_probes() {
        let q = and4(vec![eq(0, 0, 1, 0)]);
        let slots = [slot(ps([0])), slot(ps([1]))];
        let mut idx = EqIndex::build(&q, q.prims(), &slots);
        let mut store = MatchStore::new();
        for v in [Value::Int(7), Value::Float(7.0), Value::Int(8)] {
            let m = keyed(1, 0, v);
            store.insert(m.clone());
            let key = idx.key_of(&m);
            idx.insert(1, key, &store.live()[store.len() - 1]);
        }
        let probe = idx.key_of(&keyed(0, 0, Value::Int(7)));
        assert_eq!(idx.compatible(1, &store, probe, 0, 0, 100).len(), 2);
        assert_eq!(idx.key_of(&keyed(0, 1, Value::Int(7))), EqKey::Void);
        assert_eq!(idx.key_of(&keyed(2, 0, Value::Int(7))), EqKey::Unkeyed);
        assert!(idx.compatible(1, &store, EqKey::Void, 0, 0, 100).is_empty());
        assert_eq!(
            idx.compatible(1, &store, EqKey::Unkeyed, 0, 0, 100).len(),
            3
        );
        idx.drain(1, 1);
        assert!(idx.parts[1].as_ref().unwrap().is_empty());
    }
}
