//! Dense request table with one admission-ordered list of live requests.
//!
//! The serving engine's run loop must build a scheduler view at every
//! scheduling point. Scanning every request ever seen makes each point cost
//! O(all requests) and a whole trace O(N²); [`RequestTable`] makes the view
//! O(live) instead. It is a dense slab indexed by [`RequestId`], plus one
//! list of the *live* requests (admitted, not yet retired) ordered by
//! **admission rank**, the order in which requests became visible to the
//! scheduler. Only two events touch the list: admission appends (ranks only
//! grow) and retirement removes by binary search.
//!
//! The table knows no phases. The engine keeps each request's phase in the
//! payload, filters the live list by it, and retires a request when it
//! finishes or is rejected. Any other phase change is a payload write that
//! keeps the request's place, so walking the list visits each phase's
//! requests in the order a full scan over an append-only arrival log would
//! produce; that ordering guarantee is what keeps incremental maintenance
//! bit-for-bit equivalent to the naive rebuild.
//!
//! # Examples
//!
//! ```
//! use loong_simcore::ids::RequestId;
//! use loong_simcore::table::RequestTable;
//!
//! let mut table: RequestTable<&'static str> = RequestTable::new();
//! table.insert(RequestId(0), "a");
//! table.insert(RequestId(1), "b");
//! // Nothing is live until admitted.
//! assert_eq!(table.iter_live().count(), 0);
//! table.admit(RequestId(1));
//! table.admit(RequestId(0));
//! // Iteration follows admission order, not id order.
//! let live: Vec<RequestId> = table.iter_live().map(|(id, _)| id).collect();
//! assert_eq!(live, vec![RequestId(1), RequestId(0)]);
//! table.retire(RequestId(1));
//! assert_eq!(table.iter_live().count(), 1);
//! ```

use crate::ids::RequestId;

#[derive(Debug, Clone)]
struct Slot<T> {
    payload: T,
    /// Admission rank; `None` until admitted.
    rank: Option<u64>,
    /// Resolved: never listed again.
    retired: bool,
}

/// A dense slab of per-request state with one admission-ordered list of the
/// live (admitted, not retired) requests.
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
    /// `(admission rank, id)` of every admitted, unretired request, in rank
    /// order.
    live: Vec<(u64, RequestId)>,
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

    /// Inserts a request, initially invisible: it joins the live list only
    /// once [`Self::admit`]ted.
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
            rank: None,
            retired: false,
        });
        self.len += 1;
    }

    /// Assigns a request the next admission rank and lists it as live
    /// (unless it was retired first). The live list follows this rank, so
    /// admitting in event order reproduces an append-only arrival log.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown or already admitted.
    pub fn admit(&mut self, id: RequestId) {
        let rank = self.next_rank;
        let slot = self.slot_mut(id);
        assert!(slot.rank.is_none(), "request {id} admitted twice");
        slot.rank = Some(rank);
        let retired = slot.retired;
        self.next_rank += 1;
        if !retired {
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

    /// The admission rank of `id`: the live list's order. `None` until it
    /// is admitted, or when it is absent.
    pub fn rank(&self, id: RequestId) -> Option<u64> {
        self.slots.get(self.pos(id))?.as_ref()?.rank
    }

    /// Mutable payload of `id`, if present. The live list is unaffected.
    pub fn get_mut(&mut self, id: RequestId) -> Option<&mut T> {
        let pos = self.pos(id);
        self.slots.get_mut(pos)?.as_mut().map(|s| &mut s.payload)
    }

    /// Takes `id` off the live list for good: it is resolved. Retiring a
    /// request before its admission keeps it off the list at admission;
    /// retiring it again does nothing.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn retire(&mut self, id: RequestId) {
        let slot = self.slot_mut(id);
        if slot.retired {
            return;
        }
        slot.retired = true;
        if let Some(rank) = slot.rank {
            self.unlist(rank);
        }
    }

    /// Iterates `(id, payload)` over the live requests in admission order.
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
        if let (Some(rank), false) = (slot.rank, slot.retired) {
            self.unlist(rank);
        }
        self.len -= 1;
        Some(slot.payload)
    }

    /// Checks the index invariants: the live list holds, in strictly
    /// increasing rank order, exactly the admitted, unretired requests, each
    /// under its own rank. Intended for tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let live = self
            .entries()
            .filter(|(_, slot)| slot.rank.is_some() && !slot.retired)
            .count();
        if live != self.live.len() {
            return Err(format!(
                "live list holds {} entries but {live} admitted requests are not retired",
                self.live.len()
            ));
        }
        for (k, &(rank, id)) in self.live.iter().enumerate() {
            let slot = self
                .slots
                .get(self.pos(id))
                .and_then(|s| s.as_ref())
                .ok_or_else(|| format!("live list names unknown request {id}"))?;
            if slot.rank != Some(rank) || slot.retired {
                return Err(format!(
                    "request {id} listed at rank {rank} but has rank {:?}, retired {}",
                    slot.rank, slot.retired
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

    // The engine's phases live in the payload; these tests use a bare
    // class code as the payload and filter the live list by it.
    const PENDING: u64 = 0;
    const IN_FLIGHT: u64 = 1;
    const DECODE_READY: u64 = 2;

    fn table_with(ids: &[u64]) -> RequestTable<u64> {
        let mut t = RequestTable::new();
        for &i in ids {
            t.insert(RequestId(i), PENDING);
        }
        t
    }

    /// The live requests whose payload is `class`, in list order.
    fn listed(t: &RequestTable<u64>, class: u64) -> Vec<u64> {
        t.iter_live()
            .filter(|&(_, &c)| c == class)
            .map(|(id, _)| id.raw())
            .collect()
    }

    fn set(t: &mut RequestTable<u64>, id: u64, class: u64) {
        *t.get_mut(RequestId(id)).expect("present") = class;
    }

    #[test]
    fn insert_admit_and_lookup() {
        let mut t = table_with(&[0, 1, 2]);
        assert_eq!(t.len(), 3);
        assert!(t.contains(RequestId(1)));
        assert_eq!(t.get(RequestId(2)), Some(&PENDING));
        // Invisible until admitted.
        assert_eq!(t.iter_live().count(), 0);
        t.admit(RequestId(0));
        t.admit(RequestId(2));
        assert_eq!(listed(&t, PENDING), vec![0, 2]);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn iteration_follows_admission_order_not_id_order() {
        let mut t = table_with(&[0, 1, 2, 3]);
        assert_eq!(t.rank(RequestId(3)), None);
        for id in [3u64, 0, 2, 1] {
            t.admit(RequestId(id));
        }
        let order: Vec<u64> = t.iter_live().map(|(id, _)| id.raw()).collect();
        assert_eq!(order, vec![3, 0, 2, 1]);
        let ranks: Vec<Option<u64>> = (0..5).map(|id| t.rank(RequestId(id))).collect();
        assert_eq!(ranks, vec![Some(1), Some(3), Some(2), Some(0), None]);
        // Retirement keeps the rank.
        t.retire(RequestId(2));
        assert_eq!(t.rank(RequestId(2)), Some(2));
    }

    #[test]
    fn transitions_move_between_index_sets() {
        let mut t = table_with(&[0, 1]);
        t.admit(RequestId(0));
        t.admit(RequestId(1));
        set(&mut t, 0, IN_FLIGHT);
        assert_eq!(listed(&t, PENDING), vec![1]);
        assert_eq!(listed(&t, IN_FLIGHT), vec![0]);
        set(&mut t, 0, DECODE_READY);
        t.retire(RequestId(1));
        assert_eq!(listed(&t, PENDING), Vec::<u64>::new());
        assert_eq!(listed(&t, DECODE_READY), vec![0]);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn reentering_a_class_keeps_the_original_rank() {
        let mut t = table_with(&[0, 1]);
        t.admit(RequestId(1));
        t.admit(RequestId(0));
        // Request 1 leaves and re-enters pending (chunked prefill does
        // this); it must keep its place ahead of request 0.
        set(&mut t, 1, IN_FLIGHT);
        set(&mut t, 1, PENDING);
        assert_eq!(listed(&t, PENDING), vec![1, 0]);
    }

    #[test]
    fn live_moves_keep_the_admission_position_and_retirement_is_final() {
        let mut t = table_with(&[0, 1, 2, 3]);
        for id in [2u64, 0, 3, 1] {
            t.admit(RequestId(id));
            set(&mut t, id, DECODE_READY);
        }
        // Request 0 runs decode iterations while the others wait: each
        // iteration is a DecodeReady -> InFlight -> DecodeReady cycle.
        for _ in 0..3 {
            set(&mut t, 0, IN_FLIGHT);
            assert_eq!(listed(&t, DECODE_READY), vec![2, 3, 1]);
            set(&mut t, 0, DECODE_READY);
            assert_eq!(listed(&t, DECODE_READY), vec![2, 0, 3, 1]);
        }
        // Request 3 finishes; a later payload write does not list it again.
        t.retire(RequestId(3));
        assert_eq!(listed(&t, DECODE_READY), vec![2, 0, 1]);
        t.retire(RequestId(3));
        set(&mut t, 3, PENDING);
        assert_eq!(t.live.len(), 3);
        let live: Vec<u64> = t.iter_live().map(|(id, _)| id.raw()).collect();
        assert_eq!(live, vec![2, 0, 1]);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn class_changes_before_admission_take_effect_at_admission() {
        let mut t = table_with(&[0, 1]);
        // E.g. a request rejected before its arrival event fires: retired
        // before admission, it is never listed.
        t.retire(RequestId(0));
        set(&mut t, 1, DECODE_READY);
        t.admit(RequestId(0));
        t.admit(RequestId(1));
        assert_eq!(listed(&t, PENDING), Vec::<u64>::new());
        assert_eq!(listed(&t, DECODE_READY), vec![1]);
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn remove_drops_the_entry_and_its_index() {
        let mut t = table_with(&[0, 1, 2]);
        t.admit(RequestId(0));
        t.admit(RequestId(1));
        set(&mut t, 2, 20);
        assert_eq!(t.remove(RequestId(1)), Some(PENDING));
        assert_eq!(t.remove(RequestId(2)), Some(20));
        assert_eq!(t.remove(RequestId(2)), None);
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![RequestId(0)]
        );
        assert_eq!(listed(&t, PENDING), vec![0]);
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
    fn retiring_an_unknown_request_panics() {
        let mut t: RequestTable<u64> = RequestTable::new();
        t.retire(RequestId(7));
    }
}
