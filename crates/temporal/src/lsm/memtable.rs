//! The mutable memtable: where recent intervals live before a seal.
//!
//! One flat buffer plus a map from record id to buffer slot. Inserts
//! append, deletes `swap_remove` the entry the map points at (repointing
//! the entry that moved into its slot), and [`Memtable::replace`]
//! overwrites a rectangle in place — so a temporal update, which closes
//! the version it opened earlier, costs O(1) whatever the buffer holds.
//! Buffer order is free: the seal's bulk loader re-sorts everything, and
//! queries scan the whole buffer, which the seal threshold bounds.

use segidx_core::RecordId;
use segidx_geom::Rect;
use std::collections::HashMap;

/// The mutable tier. Not thread-safe; the owning index serializes access.
#[derive(Debug)]
pub struct Memtable<const D: usize> {
    /// Entries in no particular order.
    entries: Vec<(Rect<D>, RecordId)>,
    /// Where each held record sits in `entries`.
    slots: HashMap<RecordId, usize>,
    /// Buffer capacity reserved after each drain (the seal threshold).
    capacity: usize,
}

impl<const D: usize> Memtable<D> {
    /// Creates an empty memtable with room for `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            slots: HashMap::with_capacity(capacity),
            capacity,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memtable holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `record` currently lives in the memtable.
    pub fn contains(&self, record: RecordId) -> bool {
        self.slots.contains_key(&record)
    }

    /// Adds an entry. Record ids must be unique among live entries (the
    /// temporal table guarantees this; duplicate ids would make shadowing
    /// checks ambiguous).
    pub fn insert(&mut self, rect: Rect<D>, record: RecordId) {
        let previous = self.slots.insert(record, self.entries.len());
        debug_assert!(previous.is_none(), "duplicate live record id");
        self.entries.push((rect, record));
    }

    /// Physically removes `record`. Returns whether it was present.
    pub fn delete(&mut self, record: RecordId) -> bool {
        let Some(at) = self.slots.remove(&record) else {
            return false;
        };
        self.entries.swap_remove(at);
        if let Some(&(_, moved)) = self.entries.get(at) {
            self.slots.insert(moved, at);
        }
        true
    }

    /// Overwrites `record`'s rectangle in place. Returns whether it was
    /// present (nothing changes when it is not).
    pub fn replace(&mut self, record: RecordId, rect: Rect<D>) -> bool {
        match self.slots.get(&record) {
            Some(&at) => {
                self.entries[at].0 = rect;
                true
            }
            None => false,
        }
    }

    /// Record ids intersecting `query`, sorted ascending and deduped — the
    /// same contract as [`Tree::search`](segidx_core::Tree::search).
    pub fn search(&self, query: &Rect<D>) -> Vec<RecordId> {
        let mut out: Vec<RecordId> = self
            .entries
            .iter()
            .filter(|(r, _)| r.intersects(query))
            .map(|&(_, id)| id)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Takes every entry out, leaving an empty memtable.
    pub fn drain(&mut self) -> Vec<(Rect<D>, RecordId)> {
        self.slots.clear();
        std::mem::replace(&mut self.entries, Vec::with_capacity(self.capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Disjoint for distinct `x`.
    fn rect(x: f64) -> Rect<2> {
        Rect::new([10.0 * x, 0.0], [10.0 * x + 1.0, 0.0])
    }

    /// Deleting a non-tail entry moves the tail into its slot; replacing
    /// and then deleting the moved entry must find it there.
    #[test]
    fn slot_map_follows_swap_remove() {
        let mut mem = Memtable::<2>::new(4);
        let mut model: Vec<(Rect<2>, RecordId)> = Vec::new();
        for i in 0..5u64 {
            mem.insert(rect(i as f64), RecordId(i));
            model.push((rect(i as f64), RecordId(i)));
        }
        // Record 1 sits mid-buffer; record 4 (the tail) moves into its slot.
        assert!(mem.delete(RecordId(1)));
        model.retain(|&(_, r)| r != RecordId(1));
        assert!(!mem.delete(RecordId(1)), "already gone");
        assert!(
            !mem.replace(RecordId(1), rect(9.0)),
            "absent id is untouched"
        );

        assert!(mem.replace(RecordId(4), rect(40.0)));
        model.iter_mut().find(|(_, r)| *r == RecordId(4)).unwrap().0 = rect(40.0);
        assert_eq!(mem.search(&rect(40.0)), vec![RecordId(4)]);
        assert!(mem.search(&rect(4.0)).is_empty(), "old rectangle is gone");

        assert!(mem.delete(RecordId(4)));
        model.retain(|&(_, r)| r != RecordId(4));
        // The head goes next; the tail (record 2) moves into slot 0.
        assert!(mem.delete(RecordId(0)));
        model.retain(|&(_, r)| r != RecordId(0));

        for i in 0..6u64 {
            let held = model.iter().any(|&(_, r)| r == RecordId(i));
            assert_eq!(mem.contains(RecordId(i)), held, "contains({i})");
        }
        assert_eq!(mem.len(), model.len());
        let mut drained = mem.drain();
        drained.sort_by_key(|&(_, r)| r);
        model.sort_by_key(|&(_, r)| r);
        assert_eq!(drained, model);
        assert!(mem.is_empty() && !mem.contains(RecordId(2)));
    }
}
