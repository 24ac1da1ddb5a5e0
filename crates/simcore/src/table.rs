//! Dense request table with incrementally maintained phase indices.
//!
//! The serving engine's run loop must build a scheduler view at every
//! scheduling point. Scanning every request ever seen makes each point cost
//! O(all requests) and a whole trace O(N²); [`RequestTable`] makes the view
//! O(active) instead. It is a dense slab indexed by [`RequestId`] whose
//! entries each carry a coarse [`PhaseClass`]; for every class the table
//! maintains an index set ordered by **admission rank** — the order in which
//! requests became visible to the scheduler. Phase transitions move an entry
//! between index sets in O(log n); iterating one class visits exactly the
//! requests in that class, in the same order a full scan over an append-only
//! arrival log would produce. That ordering guarantee is what keeps
//! incremental maintenance bit-for-bit equivalent to the naive rebuild.
//!
//! The payload type is generic: the engine stores its full per-request state
//! (timestamps, fine-grained phase) in `T` and mirrors the coarse class via
//! [`RequestTable::set_class`] on every transition.
//!
//! # Examples
//!
//! ```
//! use loong_simcore::ids::RequestId;
//! use loong_simcore::table::{PhaseClass, RequestTable};
//!
//! let mut table: RequestTable<&'static str> = RequestTable::new();
//! table.insert(RequestId(0), "a");
//! table.insert(RequestId(1), "b");
//! // Nothing is visible until admitted.
//! assert_eq!(table.iter_class(PhaseClass::Pending).count(), 0);
//! table.admit(RequestId(1));
//! table.admit(RequestId(0));
//! // Iteration follows admission order, not id order.
//! let pending: Vec<RequestId> = table.iter_class(PhaseClass::Pending).collect();
//! assert_eq!(pending, vec![RequestId(1), RequestId(0)]);
//! table.set_class(RequestId(1), PhaseClass::InFlight);
//! assert_eq!(table.class_len(PhaseClass::Pending), 1);
//! ```

use crate::ids::RequestId;
use std::collections::BTreeSet;

/// Coarse request phases the engine indexes by.
///
/// The engine keeps its fine-grained phase (chunked-prefill progress,
/// generated-token counts, …) in the table payload; the class only decides
/// which scheduler-view list — if any — the request appears in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseClass {
    /// Waiting for (more) prefill; appears in the pending view.
    Pending,
    /// Decode phase, ready for its next iteration; appears in the decoding
    /// view.
    DecodeReady,
    /// An iteration or migration is executing; appears in no view.
    InFlight,
    /// Evicted to the host-DRAM swap tier; appears in the swapped view and
    /// waits there until memory pressure clears.
    Swapped,
    /// Finished or rejected; appears in no view and never transitions again.
    Done,
}

impl PhaseClass {
    const COUNT: usize = 5;

    fn index(self) -> usize {
        match self {
            PhaseClass::Pending => 0,
            PhaseClass::DecodeReady => 1,
            PhaseClass::InFlight => 2,
            PhaseClass::Swapped => 3,
            PhaseClass::Done => 4,
        }
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    payload: T,
    class: PhaseClass,
    /// Admission rank; `u64::MAX` until admitted.
    rank: u64,
    admitted: bool,
}

/// A dense slab of per-request state with intrusive phase-index sets.
///
/// Entries are keyed by `RequestId::index()` relative to the lowest id
/// inserted, so the slab spans the ids the table has seen, not every id
/// before them: a fleet replica's engine, started mid-run, holds a window
/// of a long trace. Ids should be dense within that window (the workload
/// generator allocates them sequentially); sparse ids work but waste slab
/// space.
#[derive(Debug, Clone, Default)]
pub struct RequestTable<T> {
    /// `slots[i]` holds id `base + i`.
    slots: Vec<Option<Slot<T>>>,
    base: usize,
    /// One ordered index per class, keyed by (admission rank, id).
    classes: [BTreeSet<(u64, RequestId)>; PhaseClass::COUNT],
    next_rank: u64,
    len: usize,
}

impl<T> RequestTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        RequestTable {
            slots: Vec::new(),
            base: 0,
            classes: Default::default(),
            next_rank: 0,
            len: 0,
        }
    }

    /// Creates an empty table with slab space for ids `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut t = Self::new();
        t.slots.reserve(capacity);
        t
    }

    /// Number of requests in the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the table holds no requests.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a request in class [`PhaseClass::Pending`], initially
    /// invisible: it joins the phase indices only once [`Self::admit`]ted.
    ///
    /// # Panics
    ///
    /// Panics if the id is already present.
    pub fn insert(&mut self, id: RequestId, payload: T) {
        let idx = id.index();
        if self.slots.is_empty() {
            self.base = idx;
        } else if idx < self.base {
            let grow = self.base - idx;
            self.slots
                .splice(0..0, std::iter::repeat_with(|| None).take(grow));
            self.base = idx;
        }
        let idx = idx - self.base;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        assert!(self.slots[idx].is_none(), "request {id} inserted twice");
        self.slots[idx] = Some(Slot {
            payload,
            class: PhaseClass::Pending,
            rank: u64::MAX,
            admitted: false,
        });
        self.len += 1;
    }

    /// Makes a request visible to class iteration, assigning it the next
    /// admission rank. Iteration order within every class follows this rank,
    /// so admitting in event order reproduces an append-only arrival log.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or already admitted.
    pub fn admit(&mut self, id: RequestId) {
        let rank = self.next_rank;
        let slot = self.slot_mut(id);
        assert!(!slot.admitted, "request {id} admitted twice");
        slot.admitted = true;
        slot.rank = rank;
        let class = slot.class;
        self.next_rank += 1;
        self.classes[class.index()].insert((rank, id));
    }

    /// Returns true if the request is present.
    pub fn contains(&self, id: RequestId) -> bool {
        self.slots.get(self.pos(id)).is_some_and(|s| s.is_some())
    }

    /// The payload of `id`, if present.
    pub fn get(&self, id: RequestId) -> Option<&T> {
        self.slots.get(self.pos(id))?.as_ref().map(|s| &s.payload)
    }

    /// Mutable payload of `id`, if present. Class membership is unaffected;
    /// callers that change the logical phase must also call
    /// [`Self::set_class`].
    pub fn get_mut(&mut self, id: RequestId) -> Option<&mut T> {
        let pos = self.pos(id);
        self.slots.get_mut(pos)?.as_mut().map(|s| &mut s.payload)
    }

    /// The coarse class of `id`, if present.
    pub fn class_of(&self, id: RequestId) -> Option<PhaseClass> {
        self.slots.get(self.pos(id))?.as_ref().map(|s| s.class)
    }

    /// Moves `id` to `class`, updating the phase indices in O(log n).
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn set_class(&mut self, id: RequestId, class: PhaseClass) {
        let slot = self.slot_mut(id);
        let old = slot.class;
        if old == class {
            return;
        }
        slot.class = class;
        if slot.admitted {
            let rank = slot.rank;
            self.classes[old.index()].remove(&(rank, id));
            self.classes[class.index()].insert((rank, id));
        }
    }

    /// Number of admitted requests currently in `class`.
    pub fn class_len(&self, class: PhaseClass) -> usize {
        self.classes[class.index()].len()
    }

    /// Iterates the admitted requests of `class` in admission order.
    pub fn iter_class(&self, class: PhaseClass) -> impl Iterator<Item = RequestId> + '_ {
        self.classes[class.index()].iter().map(|&(_, id)| id)
    }

    /// Iterates `(id, payload)` over every request, admitted or not, in id
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (RequestId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            slot.as_ref()
                .map(|s| (RequestId::from(self.base + i), &s.payload))
        })
    }

    /// Removes `id`, and its phase-index entry, returning its payload.
    pub fn remove(&mut self, id: RequestId) -> Option<T> {
        let slot = {
            let pos = self.pos(id);
            self.slots.get_mut(pos)?.take()?
        };
        if slot.admitted {
            self.classes[slot.class.index()].remove(&(slot.rank, id));
        }
        self.len -= 1;
        Some(slot.payload)
    }

    /// Consumes the table, yielding `(id, payload)` in id order.
    pub fn into_entries(self) -> impl Iterator<Item = (RequestId, T)> {
        let base = self.base;
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.map(|s| (RequestId::from(base + i), s.payload)))
    }

    /// Checks the index invariants: every admitted entry appears in exactly
    /// the set of its class, unadmitted entries appear nowhere, and set
    /// sizes add up. Intended for tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut admitted = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let id = RequestId::from(self.base + i);
            for class_idx in 0..PhaseClass::COUNT {
                let present = self.classes[class_idx].contains(&(slot.rank, id));
                let expected = slot.admitted && class_idx == slot.class.index();
                if present != expected {
                    return Err(format!(
                        "request {id}: class index {class_idx} membership {present}, expected {expected}"
                    ));
                }
            }
            if slot.admitted {
                admitted += 1;
            }
        }
        let indexed: usize = self.classes.iter().map(|s| s.len()).sum();
        if indexed != admitted {
            return Err(format!(
                "phase indices hold {indexed} entries but {admitted} requests are admitted"
            ));
        }
        Ok(())
    }

    /// The slab position of `id`; out of range for ids below the window.
    fn pos(&self, id: RequestId) -> usize {
        id.index().wrapping_sub(self.base)
    }

    fn slot_mut(&mut self, id: RequestId) -> &mut Slot<T> {
        let pos = self.pos(id);
        self.slots
            .get_mut(pos)
            .and_then(|s| s.as_mut())
            .unwrap_or_else(|| panic!("unknown request {id}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(ids: &[u64]) -> RequestTable<u64> {
        let mut t = RequestTable::new();
        for &i in ids {
            t.insert(RequestId(i), i * 10);
        }
        t
    }

    #[test]
    fn insert_admit_and_lookup() {
        let mut t = table_with(&[0, 1, 2]);
        assert_eq!(t.len(), 3);
        assert!(t.contains(RequestId(1)));
        assert_eq!(t.get(RequestId(2)), Some(&20));
        assert_eq!(t.class_of(RequestId(0)), Some(PhaseClass::Pending));
        // Invisible until admitted.
        assert_eq!(t.class_len(PhaseClass::Pending), 0);
        t.admit(RequestId(0));
        t.admit(RequestId(2));
        assert_eq!(t.class_len(PhaseClass::Pending), 2);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn iteration_follows_admission_order_not_id_order() {
        let mut t = table_with(&[0, 1, 2, 3]);
        for id in [3u64, 0, 2, 1] {
            t.admit(RequestId(id));
        }
        let order: Vec<u64> = t.iter_class(PhaseClass::Pending).map(|r| r.raw()).collect();
        assert_eq!(order, vec![3, 0, 2, 1]);
    }

    #[test]
    fn transitions_move_between_index_sets() {
        let mut t = table_with(&[0, 1]);
        t.admit(RequestId(0));
        t.admit(RequestId(1));
        t.set_class(RequestId(0), PhaseClass::InFlight);
        assert_eq!(t.class_len(PhaseClass::Pending), 1);
        assert_eq!(t.class_len(PhaseClass::InFlight), 1);
        t.set_class(RequestId(0), PhaseClass::DecodeReady);
        t.set_class(RequestId(1), PhaseClass::Done);
        assert_eq!(t.class_len(PhaseClass::Pending), 0);
        assert_eq!(
            t.iter_class(PhaseClass::DecodeReady).collect::<Vec<_>>(),
            vec![RequestId(0)]
        );
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn reentering_a_class_keeps_the_original_rank() {
        let mut t = table_with(&[0, 1]);
        t.admit(RequestId(1));
        t.admit(RequestId(0));
        // Request 1 leaves and re-enters pending (chunked prefill does
        // this); it must keep its place ahead of request 0.
        t.set_class(RequestId(1), PhaseClass::InFlight);
        t.set_class(RequestId(1), PhaseClass::Pending);
        let order: Vec<u64> = t.iter_class(PhaseClass::Pending).map(|r| r.raw()).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn class_changes_before_admission_take_effect_at_admission() {
        let mut t = table_with(&[0]);
        // E.g. a request rejected before its arrival event fires.
        t.set_class(RequestId(0), PhaseClass::Done);
        t.admit(RequestId(0));
        assert_eq!(t.class_len(PhaseClass::Pending), 0);
        assert_eq!(t.class_len(PhaseClass::Done), 1);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn into_entries_yields_id_order() {
        let mut t = RequestTable::new();
        t.insert(RequestId(2), "c");
        t.insert(RequestId(0), "a");
        let entries: Vec<(RequestId, &str)> = t.into_entries().collect();
        assert_eq!(entries, vec![(RequestId(0), "a"), (RequestId(2), "c")]);
    }

    #[test]
    fn remove_drops_the_entry_and_its_index() {
        let mut t = table_with(&[0, 1, 2]);
        t.admit(RequestId(0));
        t.admit(RequestId(1));
        assert_eq!(t.remove(RequestId(1)), Some(10));
        assert_eq!(t.remove(RequestId(2)), Some(20));
        assert_eq!(t.remove(RequestId(2)), None);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![RequestId(0)]
        );
        assert_eq!(t.class_len(PhaseClass::Pending), 1);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn the_slab_spans_only_the_ids_seen() {
        let mut t = RequestTable::new();
        t.insert(RequestId(1_000_000), "late");
        t.insert(RequestId(1_000_002), "later");
        assert_eq!(t.slots.len(), 3);
        // An id below the window grows the slab at the front.
        t.insert(RequestId(999_999), "early");
        assert_eq!(t.slots.len(), 4);
        assert_eq!(t.get(RequestId(1_000_000)), Some(&"late"));
        assert_eq!(t.get(RequestId(7)), None);
        let ids: Vec<u64> = t.iter().map(|(id, _)| id.raw()).collect();
        assert_eq!(ids, vec![999_999, 1_000_000, 1_000_002]);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut t = table_with(&[0]);
        t.insert(RequestId(0), 9);
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    fn set_class_of_unknown_request_panics() {
        let mut t: RequestTable<u64> = RequestTable::new();
        t.set_class(RequestId(7), PhaseClass::Done);
    }
}
