//! Dense request table with one admission-ordered list of live requests.
//!
//! The serving engine's run loop must build a scheduler view at every
//! scheduling point. Scanning every request ever seen makes each point cost
//! O(all requests) and a whole trace O(N²); [`RequestTable`] makes the view
//! O(live) instead. It is a dense slab indexed by [`RequestId`] whose
//! entries each carry a coarse [`PhaseClass`], plus one list of the
//! admitted requests not yet [`PhaseClass::Done`], ordered by **admission
//! rank** — the order in which requests became visible to the scheduler.
//! The class lives in the slot, so moving among the live classes (a decode
//! iteration's DecodeReady → InFlight → DecodeReady cycle, say) is a field
//! write. Only two events touch the list: admission appends (ranks only
//! grow) and resolution removes by binary search. Walking the list visits
//! every live class in the same order a full scan over an append-only
//! arrival log would produce; that ordering guarantee is what keeps
//! incremental maintenance bit-for-bit equivalent to the naive rebuild.
//! Done requests leave the list, so iterating them takes a slow path over
//! the slab.
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
    /// Finished or rejected; appears in no view. The engine never moves a
    /// Done request again; the table allows it, re-listing the request at
    /// its rank.
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
    /// Admission rank; `None` until admitted.
    rank: Option<u64>,
}

/// A dense slab of per-request state with one admission-ordered list of the
/// live (admitted, not Done) requests.
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
    /// `(admission rank, id)` of every admitted request not in
    /// [`PhaseClass::Done`], in rank order.
    live: Vec<(u64, RequestId)>,
    /// Admitted requests per class.
    counts: [usize; PhaseClass::COUNT],
    next_rank: u64,
    len: usize,
}

impl<T> RequestTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        RequestTable {
            slots: Vec::new(),
            base: 0,
            live: Vec::new(),
            counts: [0; PhaseClass::COUNT],
            next_rank: 0,
            len: 0,
        }
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
    /// invisible: it joins class iteration only once [`Self::admit`]ted.
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
            rank: None,
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
        assert!(slot.rank.is_none(), "request {id} admitted twice");
        slot.rank = Some(rank);
        let class = slot.class;
        self.next_rank += 1;
        self.counts[class.index()] += 1;
        if class != PhaseClass::Done {
            self.live.push((rank, id));
        }
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

    /// Moves `id` to `class`. Among the live classes this is a field write;
    /// entering or leaving [`PhaseClass::Done`] also removes the request
    /// from, or re-inserts it into, the live list by binary search.
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
        let Some(rank) = slot.rank else { return };
        self.counts[old.index()] -= 1;
        self.counts[class.index()] += 1;
        if class == PhaseClass::Done {
            self.unlist(rank);
        } else if old == PhaseClass::Done {
            let at = self
                .live
                .binary_search_by_key(&rank, |&(r, _)| r)
                .expect_err("Done requests are not listed");
            self.live.insert(at, (rank, id));
        }
    }

    /// Number of admitted requests currently in `class`.
    pub fn class_len(&self, class: PhaseClass) -> usize {
        self.counts[class.index()]
    }

    /// Iterates the admitted requests of `class` in admission order. A live
    /// class filters the live list; [`PhaseClass::Done`], which the engine
    /// never iterates, collects its requests from the slab and sorts them.
    pub fn iter_class(&self, class: PhaseClass) -> impl Iterator<Item = RequestId> + '_ {
        let (live, done) = if class == PhaseClass::Done {
            let mut done: Vec<(u64, RequestId)> = self
                .entries()
                .filter(|(_, s)| s.class == PhaseClass::Done)
                .filter_map(|(id, s)| Some((s.rank?, id)))
                .collect();
            done.sort_unstable();
            (&[][..], done)
        } else {
            (&self.live[..], Vec::new())
        };
        live.iter()
            .copied()
            .filter(move |&(_, id)| self.live_slot(id).class == class)
            .chain(done)
            .map(|(_, id)| id)
    }

    /// Iterates `(id, payload)` over the admitted requests not in
    /// [`PhaseClass::Done`], every live class together, in admission order.
    pub fn iter_live(&self) -> impl Iterator<Item = (RequestId, &T)> {
        self.live
            .iter()
            .map(|&(_, id)| (id, &self.live_slot(id).payload))
    }

    /// Iterates `(id, payload)` over every request, admitted or not, in id
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (RequestId, &T)> {
        self.entries().map(|(id, s)| (id, &s.payload))
    }

    /// Removes `id`, and its live-list entry, returning its payload.
    pub fn remove(&mut self, id: RequestId) -> Option<T> {
        let slot = {
            let pos = self.pos(id);
            self.slots.get_mut(pos)?.take()?
        };
        if let Some(rank) = slot.rank {
            self.counts[slot.class.index()] -= 1;
            if slot.class != PhaseClass::Done {
                self.unlist(rank);
            }
        }
        self.len -= 1;
        Some(slot.payload)
    }

    /// Checks the index invariants: the live list holds, in strictly
    /// increasing rank order, exactly the admitted requests not in Done,
    /// each under its own rank, and the per-class counts match the slab.
    /// Intended for tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut counts = [0usize; PhaseClass::COUNT];
        let mut live = 0usize;
        for (_, slot) in self.entries() {
            if slot.rank.is_some() {
                counts[slot.class.index()] += 1;
                live += usize::from(slot.class != PhaseClass::Done);
            }
        }
        if counts != self.counts {
            return Err(format!(
                "class counts {:?}, but the slab holds {counts:?}",
                self.counts
            ));
        }
        if live != self.live.len() {
            return Err(format!(
                "live list holds {} entries but {live} admitted requests are not done",
                self.live.len()
            ));
        }
        for (k, &(rank, id)) in self.live.iter().enumerate() {
            let slot = self
                .slots
                .get(self.pos(id))
                .and_then(|s| s.as_ref())
                .ok_or_else(|| format!("live list names unknown request {id}"))?;
            if slot.rank != Some(rank) || slot.class == PhaseClass::Done {
                return Err(format!(
                    "request {id} listed at rank {rank} but has rank {:?} and class {:?}",
                    slot.rank, slot.class
                ));
            }
            if k > 0 && self.live[k - 1].0 >= rank {
                return Err(format!("live list out of rank order at request {id}"));
            }
        }
        Ok(())
    }

    /// Every present slot with its id, in id order.
    fn entries(&self) -> impl Iterator<Item = (RequestId, &Slot<T>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|s| (RequestId::from(self.base + i), s)))
    }

    /// Removes the live-list entry of rank `rank`.
    fn unlist(&mut self, rank: u64) {
        let at = self
            .live
            .binary_search_by_key(&rank, |&(r, _)| r)
            .expect("live requests are listed");
        self.live.remove(at);
    }

    /// The slab position of `id`; out of range for ids below the window.
    fn pos(&self, id: RequestId) -> usize {
        id.index().wrapping_sub(self.base)
    }

    /// The slot of a listed request.
    fn live_slot(&self, id: RequestId) -> &Slot<T> {
        self.slots[self.pos(id)]
            .as_ref()
            .expect("listed requests are present")
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
    fn live_moves_keep_the_admission_position_and_done_reenters_at_its_rank() {
        let mut t = table_with(&[0, 1, 2, 3]);
        for id in [2u64, 0, 3, 1] {
            t.admit(RequestId(id));
            t.set_class(RequestId(id), PhaseClass::DecodeReady);
        }
        let decode_ready = |t: &RequestTable<u64>| -> Vec<u64> {
            t.iter_class(PhaseClass::DecodeReady)
                .map(|r| r.raw())
                .collect()
        };
        // Request 0 runs decode iterations while the others wait: each
        // iteration is a DecodeReady -> InFlight -> DecodeReady cycle.
        for _ in 0..3 {
            t.set_class(RequestId(0), PhaseClass::InFlight);
            assert_eq!(decode_ready(&t), vec![2, 3, 1]);
            t.set_class(RequestId(0), PhaseClass::DecodeReady);
            assert_eq!(decode_ready(&t), vec![2, 0, 3, 1]);
        }
        // Request 3 finishes, then comes back: it re-enters between 0 and 1.
        t.set_class(RequestId(3), PhaseClass::Done);
        assert_eq!(decode_ready(&t), vec![2, 0, 1]);
        assert_eq!(t.live.len(), 3);
        t.set_class(RequestId(3), PhaseClass::Pending);
        t.set_class(RequestId(3), PhaseClass::DecodeReady);
        assert_eq!(decode_ready(&t), vec![2, 0, 3, 1]);
        let live: Vec<u64> = t.iter_live().map(|(id, _)| id.raw()).collect();
        assert_eq!(live, vec![2, 0, 3, 1]);
        assert_eq!(t.class_len(PhaseClass::DecodeReady), 4);
        assert!(t.check_invariants().is_ok());
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
