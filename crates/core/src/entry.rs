//! Index node entries: leaf records, branches, and spanning records —
//! plus the structure-of-arrays stores that hold them inside nodes.
//!
//! Nodes do **not** store `Vec<LeafEntry>` etc. directly. Each store keeps
//! the entry rectangles as per-dimension `lo`/`hi` coordinate planes, all
//! `2·D` of them in one buffer (see [`RectSoA`]), alongside parallel
//! payload columns, so the search hot loops can hand contiguous `&[f64]`
//! planes straight to the branchless scan kernels in `segidx_geom`, and a
//! copy-on-write node copy allocates one planes buffer plus one block per
//! payload column. The entry structs ([`LeafEntry`],
//! [`Branch`], [`SpanningEntry`]) survive as *views*: mutation paths and
//! invariant logic work with whole entries reconstructed on demand, which
//! keeps them readable while the layout stays scan-friendly.

use crate::id::{NodeId, RecordId};
use segidx_geom::{Coord, Rect};

/// An external index record on a leaf node: a rectangle plus the id of the
/// data record it describes.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LeafEntry<const D: usize> {
    /// The indexed geometry (a point, segment, or box).
    pub rect: Rect<D>,
    /// The data record this entry points at.
    pub record: RecordId,
}

/// An internal branch on a non-leaf node: the stored covering region of a
/// child node plus the child's id.
///
/// In plain R-Trees the stored region is the minimal bounding rectangle of
/// the child's contents; in Skeleton indexes it may be a larger pre-allocated
/// tile (paper §4). Search correctness only requires that the stored region
/// covers everything reachable through the child.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Branch<const D: usize> {
    /// Covering region of the child.
    pub rect: Rect<D>,
    /// The child node.
    pub child: NodeId,
}

/// A *spanning index record* stored on a non-leaf node (paper §3.1.1,
/// Figure 2): an external record that spans the region of one of the node's
/// branches, linked to that branch.
///
/// Invariants maintained by the tree:
/// * `rect` spans (in at least one dimension) and intersects the region of
///   the branch whose child is [`SpanningEntry::linked_child`];
/// * `rect` is wholly contained by the region of the node storing the entry
///   (enforced by cutting; not applicable to the root, which has no stored
///   region).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SpanningEntry<const D: usize> {
    /// The (possibly cut) indexed geometry.
    pub rect: Rect<D>,
    /// The data record this entry points at.
    pub record: RecordId,
    /// The child id of the branch this entry is linked to.
    pub linked_child: NodeId,
}

/// Rectangles stored as structure-of-arrays coordinate planes: entry
/// `i`'s bounds in dimension `d` are `los[d][i]` / `his[d][i]` of
/// [`planes`](Self::planes). All `2·D` planes share one buffer of
/// `2·D·cap` coordinates — the `lo` planes first, then the `hi` planes,
/// plane `p` starting at `p·cap` — so a store costs one allocation for
/// any dimensionality, and copying a node copies one block. Intersection-
/// style scans touch only the planes they test, never the payload they
/// don't.
///
/// A clone has room for exactly one more rectangle (see the `Clone`
/// impl): nodes are copied on write, so a copy is usually pushed to next.
pub struct RectSoA<const D: usize> {
    /// `2·D` planes of `cap` slots; slots `len..cap` of each are spare.
    buf: Box<[Coord]>,
    cap: usize,
    len: usize,
}

impl<const D: usize> RectSoA<D> {
    /// An empty plane set.
    pub fn new() -> Self {
        Self {
            buf: Box::default(),
            cap: 0,
            len: 0,
        }
    }

    /// Number of rectangles stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rectangles are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffer index of slot `i` in plane `p` (`p < D`: `lo` of dimension
    /// `p`; `p ≥ D`: `hi` of dimension `p − D`).
    #[inline]
    fn at(&self, p: usize, i: usize) -> usize {
        p * self.cap + i
    }

    /// Panics unless `i < len`, as `Vec` indexing would: the buffer
    /// itself extends past `len` into spare slots.
    #[inline]
    fn check(&self, i: usize) {
        assert!(
            i < self.len,
            "index {i} out of bounds for {} rectangles",
            self.len
        );
    }

    /// Reconstructs rectangle `i` from the planes.
    #[inline]
    pub fn get(&self, i: usize) -> Rect<D> {
        self.check(i);
        Rect::new(
            std::array::from_fn(|d| self.buf[self.at(d, i)]),
            std::array::from_fn(|d| self.buf[self.at(D + d, i)]),
        )
    }

    /// Appends a rectangle.
    #[inline]
    pub fn push(&mut self, rect: &Rect<D>) {
        if self.len == self.cap {
            // Vec's amortized doubling, from Vec's minimum of 4 slots.
            let cap = (2 * self.cap).max(4);
            self.buf = self.copy_planes(cap);
            self.cap = cap;
        }
        self.len += 1;
        self.set(self.len - 1, rect);
    }

    /// Overwrites rectangle `i`.
    #[inline]
    pub fn set(&mut self, i: usize, rect: &Rect<D>) {
        self.check(i);
        for d in 0..D {
            self.buf[self.at(d, i)] = rect.lo(d);
            self.buf[self.at(D + d, i)] = rect.hi(d);
        }
    }

    /// Removes rectangle `i` by swapping in the last one.
    #[inline]
    pub fn swap_remove(&mut self, i: usize) -> Rect<D> {
        let removed = self.get(i);
        let last = self.len - 1;
        for p in 0..2 * D {
            self.buf[self.at(p, i)] = self.buf[self.at(p, last)];
        }
        self.len = last;
        removed
    }

    /// Drops all rectangles, keeping allocations.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Keeps the first `len` rectangles (no-op if there are fewer).
    fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// A buffer of `2·D` planes of `cap ≥ len` slots holding these
    /// rectangles.
    fn copy_planes(&self, cap: usize) -> Box<[Coord]> {
        debug_assert!(cap >= self.len);
        let mut buf = vec![0.0; 2 * D * cap].into_boxed_slice();
        for p in 0..2 * D {
            let from = self.at(p, 0);
            buf[p * cap..][..self.len].copy_from_slice(&self.buf[from..][..self.len]);
        }
        buf
    }

    /// The `(lo, hi)` planes, ready for the `segidx_geom` scan kernels.
    #[inline]
    pub fn planes(&self) -> ([&[Coord]; D], [&[Coord]; D]) {
        let (los, his) = self.buf.split_at(D * self.cap);
        (
            std::array::from_fn(|d| &los[d * self.cap..][..self.len]),
            std::array::from_fn(|d| &his[d * self.cap..][..self.len]),
        )
    }

    /// Union of all stored rectangles, `None` when empty.
    pub fn union_all(&self) -> Option<Rect<D>> {
        if self.is_empty() {
            return None;
        }
        let (los, his) = self.planes();
        let lo = std::array::from_fn(|d| los[d].iter().copied().fold(f64::INFINITY, f64::min));
        let hi = std::array::from_fn(|d| his[d].iter().copied().fold(f64::NEG_INFINITY, f64::max));
        Some(Rect::new(lo, hi))
    }
}

/// Write-ready and compact: the copy has `len + 1` slots per plane. The
/// writer copies a node only to write into it, so the extra slot spares
/// the push that follows a copy-on-write a reallocation, while the
/// original's spare capacity is not copied into every node a snapshot
/// shares. A set that never allocated (an internal node's unused
/// spanning store) stays empty.
impl<const D: usize> Clone for RectSoA<D> {
    fn clone(&self) -> Self {
        let cap = write_ready_capacity(self.cap, self.len);
        Self {
            buf: self.copy_planes(cap),
            cap,
            len: self.len,
        }
    }
}

/// Compares the stored rectangles; spare capacity is not part of the value.
impl<const D: usize> PartialEq for RectSoA<D> {
    fn eq(&self, other: &Self) -> bool {
        self.planes() == other.planes()
    }
}

impl<const D: usize> std::fmt::Debug for RectSoA<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (los, his) = self.planes();
        f.debug_struct("RectSoA")
            .field("los", &los)
            .field("his", &his)
            .finish()
    }
}

impl<const D: usize> Default for RectSoA<D> {
    fn default() -> Self {
        Self::new()
    }
}

/// Capacity of a write-ready copy of a column holding `len` of `cap`
/// slots: room for one more entry, unless the column never allocated.
fn write_ready_capacity(cap: usize, len: usize) -> usize {
    if cap == 0 {
        0
    } else {
        len + 1
    }
}

/// A write-ready copy of a payload column (see [`RectSoA`]'s `Clone`).
fn write_ready_vec<T: Copy>(v: &Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(write_ready_capacity(v.capacity(), v.len()));
    out.extend_from_slice(v);
    out
}

/// Generates the shared Vec-like entry-view API for one store type. Each
/// store pairs a [`RectSoA`] with parallel payload columns; the macro
/// wires the entry struct (the *view*) to the columns so mutation code
/// reads like it did when nodes held `Vec<Entry>`.
macro_rules! soa_store {
    (
        $(#[$doc:meta])*
        $store:ident, $entry:ident, $rect_field:ident,
        { $( $(#[$fdoc:meta])* $field:ident : $fty:ty ),+ $(,)? }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Default, PartialEq)]
        pub struct $store<const D: usize> {
            rects: RectSoA<D>,
            $( $field: Vec<$fty>, )+
        }

        /// Write-ready, column by column (see [`RectSoA`]'s `Clone`).
        impl<const D: usize> Clone for $store<D> {
            fn clone(&self) -> Self {
                Self {
                    rects: self.rects.clone(),
                    $( $field: write_ready_vec(&self.$field), )+
                }
            }
        }

        impl<const D: usize> $store<D> {
            /// An empty store.
            pub fn new() -> Self {
                Self::default()
            }

            /// Number of entries.
            #[inline]
            pub fn len(&self) -> usize {
                self.rects.len()
            }

            /// Whether the store is empty.
            #[inline]
            pub fn is_empty(&self) -> bool {
                self.rects.is_empty()
            }

            /// Entry `i` as a by-value view.
            #[inline]
            pub fn get(&self, i: usize) -> $entry<D> {
                $entry {
                    $rect_field: self.rects.get(i),
                    $( $field: self.$field[i], )+
                }
            }

            /// Rectangle of entry `i` (no payload gather).
            #[inline]
            pub fn rect(&self, i: usize) -> Rect<D> {
                self.rects.get(i)
            }

            /// Overwrites the rectangle of entry `i`.
            #[inline]
            pub fn set_rect(&mut self, i: usize, rect: &Rect<D>) {
                self.rects.set(i, rect);
            }

            /// Appends an entry.
            #[inline]
            pub fn push(&mut self, e: $entry<D>) {
                self.rects.push(&e.$rect_field);
                $( self.$field.push(e.$field); )+
            }

            /// Removes entry `i` by swapping in the last one.
            #[inline]
            pub fn swap_remove(&mut self, i: usize) -> $entry<D> {
                $entry {
                    $rect_field: self.rects.swap_remove(i),
                    $( $field: self.$field.swap_remove(i), )+
                }
            }

            /// Drops all entries, keeping allocations.
            pub fn clear(&mut self) {
                self.rects.clear();
                $( self.$field.clear(); )+
            }

            /// Iterates entry views in storage order.
            pub fn iter(&self) -> impl Iterator<Item = $entry<D>> + '_ {
                (0..self.len()).map(move |i| self.get(i))
            }

            /// Keeps only entries satisfying `pred`, preserving order.
            pub fn retain(&mut self, mut pred: impl FnMut(&$entry<D>) -> bool) {
                let mut kept = 0;
                for i in 0..self.len() {
                    let e = self.get(i);
                    if pred(&e) {
                        if kept != i {
                            self.rects.set(kept, &e.$rect_field);
                            $( self.$field[kept] = e.$field; )+
                        }
                        kept += 1;
                    }
                }
                self.truncate(kept);
            }

            /// Shortens the store to `len` entries.
            pub fn truncate(&mut self, len: usize) {
                self.rects.truncate(len);
                $( self.$field.truncate(len); )+
            }

            /// Moves all entries out into a `Vec` of views (for
            /// redistribution algorithms that shuffle whole entries),
            /// leaving the store empty with capacity intact.
            pub fn take_vec(&mut self) -> Vec<$entry<D>> {
                let out: Vec<$entry<D>> = self.iter().collect();
                self.clear();
                out
            }

            /// Replaces the store's contents with `entries`.
            pub fn assign(&mut self, entries: Vec<$entry<D>>) {
                self.clear();
                self.extend(entries);
            }

            /// The `(lo, hi)` coordinate planes for scan kernels.
            #[inline]
            pub fn planes(&self) -> ([&[Coord]; D], [&[Coord]; D]) {
                self.rects.planes()
            }

            /// Union of all entry rectangles, `None` when empty.
            pub fn union_all(&self) -> Option<Rect<D>> {
                self.rects.union_all()
            }
        }

        impl<const D: usize> Extend<$entry<D>> for $store<D> {
            fn extend<I: IntoIterator<Item = $entry<D>>>(&mut self, iter: I) {
                for e in iter {
                    self.push(e);
                }
            }
        }

        impl<const D: usize> FromIterator<$entry<D>> for $store<D> {
            fn from_iter<I: IntoIterator<Item = $entry<D>>>(iter: I) -> Self {
                let mut s = Self::new();
                s.extend(iter);
                s
            }
        }
    };
}

soa_store!(
    /// SoA store of a leaf's index records: coordinate planes plus the
    /// parallel record-id column.
    LeafStore, LeafEntry, rect,
    {
        record: RecordId,
    }
);

soa_store!(
    /// SoA store of an internal node's branches: coordinate planes plus
    /// the parallel child-id column.
    BranchStore, Branch, rect,
    {
        child: NodeId,
    }
);

soa_store!(
    /// SoA store of an internal node's spanning records: coordinate
    /// planes plus record-id and linked-child columns.
    SpanningStore, SpanningEntry, rect,
    {
        record: RecordId,
        linked_child: NodeId,
    }
);

impl<const D: usize> LeafStore<D> {
    /// The record-id payload column.
    #[inline]
    pub fn records(&self) -> &[RecordId] {
        &self.record
    }

    /// Record id of entry `i`.
    #[inline]
    pub fn record(&self, i: usize) -> RecordId {
        self.record[i]
    }
}

impl<const D: usize> BranchStore<D> {
    /// The child-id payload column.
    #[inline]
    pub fn children(&self) -> &[NodeId] {
        &self.child
    }

    /// Child id of branch `i`.
    #[inline]
    pub fn child(&self, i: usize) -> NodeId {
        self.child[i]
    }

    /// Index of the branch pointing at `child`, if present.
    #[inline]
    pub fn position_of_child(&self, child: NodeId) -> Option<usize> {
        self.child.iter().position(|&c| c == child)
    }
}

impl<const D: usize> SpanningStore<D> {
    /// Record id of entry `i`.
    #[inline]
    pub fn record(&self, i: usize) -> RecordId {
        self.record[i]
    }

    /// Linked child of entry `i`.
    #[inline]
    pub fn linked_child(&self, i: usize) -> NodeId {
        self.linked_child[i]
    }

    /// Relinks entry `i` to another branch's child.
    #[inline]
    pub fn set_linked_child(&mut self, i: usize, child: NodeId) {
        self.linked_child[i] = child;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_small() {
        // The paper derives node capacities from a fixed entry size; keep
        // the in-memory representations compact as well.
        assert!(std::mem::size_of::<LeafEntry<2>>() <= 40);
        assert!(std::mem::size_of::<Branch<2>>() <= 40);
        assert!(std::mem::size_of::<SpanningEntry<2>>() <= 48);
    }

    fn entry(x0: f64, x1: f64, id: u64) -> LeafEntry<2> {
        LeafEntry {
            rect: Rect::new([x0, 0.0], [x1, 1.0]),
            record: RecordId(id),
        }
    }

    #[test]
    fn store_roundtrips_entries() {
        let mut s: LeafStore<2> = LeafStore::new();
        for i in 0..10 {
            s.push(entry(i as f64, i as f64 + 2.0, i));
        }
        assert_eq!(s.len(), 10);
        for i in 0..10 {
            assert_eq!(s.get(i), entry(i as f64, i as f64 + 2.0, i as u64));
        }
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected.len(), 10);
        assert_eq!(collected[3], s.get(3));
    }

    #[test]
    fn planes_are_parallel_and_contiguous() {
        let mut s: LeafStore<2> = LeafStore::new();
        s.push(entry(1.0, 4.0, 1));
        s.push(entry(2.0, 6.0, 2));
        let (los, his) = s.planes();
        assert_eq!(los[0], &[1.0, 2.0]);
        assert_eq!(his[0], &[4.0, 6.0]);
        assert_eq!(los[1], &[0.0, 0.0]);
        assert_eq!(his[1], &[1.0, 1.0]);
        assert_eq!(s.records(), &[RecordId(1), RecordId(2)]);
    }

    #[test]
    fn swap_remove_and_retain_match_vec_semantics() {
        let mut s: LeafStore<2> = LeafStore::new();
        let mut model: Vec<LeafEntry<2>> = Vec::new();
        for i in 0..12 {
            let e = entry(i as f64, i as f64 + 1.0, i);
            s.push(e);
            model.push(e);
        }
        assert_eq!(s.swap_remove(4), model.swap_remove(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), model);
        s.retain(|e| e.record.0 % 3 != 0);
        model.retain(|e| e.record.0 % 3 != 0);
        assert_eq!(s.iter().collect::<Vec<_>>(), model);
    }

    #[test]
    fn take_vec_empties_the_store() {
        let mut s: LeafStore<2> = LeafStore::new();
        s.push(entry(0.0, 1.0, 7));
        s.push(entry(5.0, 9.0, 8));
        let v = s.take_vec();
        assert_eq!(v.len(), 2);
        assert!(s.is_empty());
        s.extend(v);
        assert_eq!(s.len(), 2);
        assert_eq!(s.record(1), RecordId(8));
    }

    #[test]
    fn set_rect_and_union_all() {
        let mut s: BranchStore<2> = BranchStore::new();
        s.push(Branch {
            rect: Rect::new([0.0, 0.0], [1.0, 1.0]),
            child: NodeId(1),
        });
        s.push(Branch {
            rect: Rect::new([5.0, 5.0], [6.0, 6.0]),
            child: NodeId(2),
        });
        s.set_rect(0, &Rect::new([-1.0, 0.0], [2.0, 1.0]));
        assert_eq!(s.rect(0), Rect::new([-1.0, 0.0], [2.0, 1.0]));
        assert_eq!(s.child(0), NodeId(1));
        assert_eq!(s.union_all(), Some(Rect::new([-1.0, 0.0], [6.0, 6.0])));
        assert_eq!(s.position_of_child(NodeId(2)), Some(1));
        assert_eq!(s.position_of_child(NodeId(9)), None);
    }

    #[test]
    fn spanning_store_relinks() {
        let mut s: SpanningStore<2> = SpanningStore::new();
        s.push(SpanningEntry {
            rect: Rect::new([0.0, 0.0], [10.0, 0.0]),
            record: RecordId(3),
            linked_child: NodeId(1),
        });
        s.set_linked_child(0, NodeId(4));
        assert_eq!(s.linked_child(0), NodeId(4));
        assert_eq!(s.record(0), RecordId(3));
    }

    #[test]
    fn clones_are_write_ready() {
        // Every column of a copy has room for one more entry, so the push
        // that follows a copy-on-write moves no buffer.
        let mut leaves: LeafStore<2> = LeafStore::new();
        let mut spans: SpanningStore<2> = SpanningStore::new();
        for i in 0..8 {
            leaves.push(entry(i as f64, i as f64 + 1.0, i));
            spans.push(SpanningEntry {
                rect: Rect::new([0.0, i as f64], [9.0, i as f64]),
                record: RecordId(i),
                linked_child: NodeId(i as u32),
            });
        }
        assert_eq!(leaves.rects.cap, leaves.len(), "full before the copy");

        let mut copy = leaves.clone();
        let (planes, records) = (copy.planes().0[0].as_ptr(), copy.records().as_ptr());
        copy.push(entry(20.0, 21.0, 20));
        assert_eq!(copy.planes().0[0].as_ptr(), planes);
        assert_eq!(copy.records().as_ptr(), records);

        // Nor does a copy inherit the original's spare capacity.
        leaves.truncate(3);
        let copy = leaves.clone();
        assert_eq!((copy.rects.cap, copy.record.capacity()), (4, 4));

        let mut copy = spans.clone();
        let ptrs = |s: &SpanningStore<2>| {
            (
                s.planes().0[0].as_ptr(),
                s.record.as_ptr(),
                s.linked_child.as_ptr(),
            )
        };
        let before = ptrs(&copy);
        copy.push(spans.get(0));
        assert_eq!(ptrs(&copy), before);

        // A store that never allocated stays unallocated when copied.
        let empty: SpanningStore<2> = SpanningStore::new();
        let copy = empty.clone();
        assert_eq!((copy.rects.cap, copy.record.capacity()), (0, 0));
    }

    /// Model-based checks: each store against a `Vec` of entries, over
    /// random operation sequences long enough to cross several growth
    /// boundaries of the planes buffer.
    mod model {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Op {
            Push(Rect<2>, u64, u32),
            SwapRemove(usize),
            SetRect(usize, Rect<2>),
            /// Keep entries whose `lo(0)` is below the threshold.
            Retain(f64),
            Truncate(usize),
            Clear,
            Assign(Vec<(Rect<2>, u64, u32)>),
            TakeVec,
            /// Replace the store by a clone and push once into the clone.
            Clone(Rect<2>, u64, u32),
        }

        fn rect() -> impl Strategy<Value = Rect<2>> {
            (-50.0..50.0f64, -50.0..50.0f64, 0.0..20.0f64, 0.0..20.0f64)
                .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
        }

        fn payload() -> impl Strategy<Value = (Rect<2>, u64, u32)> {
            (rect(), 0..1000u64, 0..1000u32)
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                10 => payload().prop_map(|(r, a, b)| Op::Push(r, a, b)),
                2 => any::<usize>().prop_map(Op::SwapRemove),
                2 => (any::<usize>(), rect()).prop_map(|(i, r)| Op::SetRect(i, r)),
                1 => (-60.0..60.0f64).prop_map(Op::Retain),
                1 => (0..80usize).prop_map(Op::Truncate),
                1 => Just(Op::Clear),
                1 => vec(payload(), 0..70).prop_map(Op::Assign),
                1 => Just(Op::TakeVec),
                2 => payload().prop_map(|(r, a, b)| Op::Clone(r, a, b)),
            ]
        }

        macro_rules! store_matches_model {
            ($test:ident, $store:ident, |$r:ident, $a:ident, $b:ident| $make:expr) => {
                proptest! {
                    #[test]
                    fn $test(ops in vec(op(), 1..400)) {
                        let make = |$r: Rect<2>, $a: u64, $b: u32| $make;
                        let mut s: $store<2> = $store::new();
                        let mut m = Vec::new();
                        for op in ops {
                            match op {
                                Op::Push(r, a, b) => {
                                    s.push(make(r, a, b));
                                    m.push(make(r, a, b));
                                }
                                Op::SwapRemove(i) if !m.is_empty() => {
                                    let i = i % m.len();
                                    prop_assert_eq!(s.swap_remove(i), m.swap_remove(i));
                                }
                                Op::SetRect(i, r) if !m.is_empty() => {
                                    let i = i % m.len();
                                    s.set_rect(i, &r);
                                    m[i].rect = r;
                                }
                                Op::SwapRemove(_) | Op::SetRect(..) => {}
                                Op::Retain(t) => {
                                    s.retain(|e| e.rect.lo(0) < t);
                                    m.retain(|e| e.rect.lo(0) < t);
                                }
                                Op::Truncate(n) => {
                                    s.truncate(n);
                                    m.truncate(n);
                                }
                                Op::Clear => {
                                    s.clear();
                                    m.clear();
                                }
                                Op::Assign(v) => {
                                    m = v.iter().map(|&(r, a, b)| make(r, a, b)).collect();
                                    s.assign(m.clone());
                                }
                                Op::TakeVec => {
                                    prop_assert_eq!(s.take_vec(), std::mem::take(&mut m));
                                }
                                Op::Clone(r, a, b) => {
                                    let mut copy = s.clone();
                                    prop_assert_eq!(&copy, &s);
                                    let base = copy.planes().0[0].as_ptr();
                                    copy.push(make(r, a, b));
                                    m.push(make(r, a, b));
                                    if s.rects.cap > 0 {
                                        prop_assert_eq!(copy.planes().0[0].as_ptr(), base);
                                    }
                                    s = copy;
                                }
                            }
                            prop_assert_eq!(s.len(), m.len());
                            prop_assert_eq!(s.iter().collect::<Vec<_>>(), m.clone());
                            let (los, his) = s.planes();
                            for d in 0..2 {
                                let lo: Vec<f64> = m.iter().map(|e| e.rect.lo(d)).collect();
                                let hi: Vec<f64> = m.iter().map(|e| e.rect.hi(d)).collect();
                                prop_assert_eq!(los[d], lo.as_slice());
                                prop_assert_eq!(his[d], hi.as_slice());
                            }
                            let union = m.iter().map(|e| e.rect).reduce(|x, y| x.union(&y));
                            prop_assert_eq!(s.union_all(), union);
                            // Equality ignores spare capacity, but not content.
                            let fresh: $store<2> = m.iter().copied().collect();
                            prop_assert_eq!(&s, &fresh);
                            if !m.is_empty() {
                                let mut shorter = fresh.clone();
                                shorter.truncate(m.len() - 1);
                                prop_assert_ne!(&s, &shorter);
                            }
                        }
                    }
                }
            };
        }

        store_matches_model!(leaf_store_matches_vec_model, LeafStore, |r, a, _b| {
            LeafEntry {
                rect: r,
                record: RecordId(a),
            }
        });

        store_matches_model!(branch_store_matches_vec_model, BranchStore, |r, _a, b| {
            Branch {
                rect: r,
                child: NodeId(b),
            }
        });

        store_matches_model!(
            spanning_store_matches_vec_model,
            SpanningStore,
            |r, a, b| SpanningEntry {
                rect: r,
                record: RecordId(a),
                linked_child: NodeId(b),
            }
        );
    }
}
