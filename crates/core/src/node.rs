//! Index nodes and the node arena.

use crate::entry::{BranchStore, LeafStore, SpanningStore};
use crate::id::NodeId;
use segidx_geom::Rect;
use std::sync::Arc;

/// The level-dependent contents of a node. Entries live in
/// structure-of-arrays stores (see [`crate::entry`]): per-dimension
/// coordinate planes plus parallel payload columns, so search scans run
/// over contiguous `&[f64]` slices via the `segidx_geom` kernels.
#[derive(Clone, Debug)]
pub enum NodeKind<const D: usize> {
    /// A leaf holds external index records only.
    Leaf {
        /// The leaf's index records.
        entries: LeafStore<D>,
    },
    /// A non-leaf holds branches and — in segment (SR) mode — spanning
    /// index records linked to those branches.
    Internal {
        /// Pointers to child nodes with their covering regions.
        branches: BranchStore<D>,
        /// Spanning index records (empty unless segment mode).
        spanning: SpanningStore<D>,
    },
}

/// An index node.
#[derive(Clone, Debug)]
pub struct Node<const D: usize> {
    /// Level in the tree; 0 = leaf.
    pub level: u32,
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Contents.
    pub kind: NodeKind<D>,
    /// Number of times this node's contents were modified — the
    /// "least frequently modified" statistic driving coalescing (paper §4).
    pub mod_count: u64,
}

impl<const D: usize> Node<D> {
    /// Creates an empty leaf.
    pub fn leaf() -> Self {
        Self {
            level: 0,
            parent: None,
            kind: NodeKind::Leaf {
                entries: LeafStore::new(),
            },
            mod_count: 0,
        }
    }

    /// Creates an empty internal node at `level ≥ 1`.
    pub fn internal(level: u32) -> Self {
        debug_assert!(level >= 1);
        Self {
            level,
            parent: None,
            kind: NodeKind::Internal {
                branches: BranchStore::new(),
                spanning: SpanningStore::new(),
            },
            mod_count: 0,
        }
    }

    /// Whether this is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }

    /// Leaf entry store (panics on internal nodes).
    pub fn entries(&self) -> &LeafStore<D> {
        match &self.kind {
            NodeKind::Leaf { entries } => entries,
            NodeKind::Internal { .. } => panic!("entries() on internal node"),
        }
    }

    /// Mutable leaf entry store (panics on internal nodes).
    pub fn entries_mut(&mut self) -> &mut LeafStore<D> {
        match &mut self.kind {
            NodeKind::Leaf { entries } => entries,
            NodeKind::Internal { .. } => panic!("entries_mut() on internal node"),
        }
    }

    /// Branch store (panics on leaves).
    pub fn branches(&self) -> &BranchStore<D> {
        match &self.kind {
            NodeKind::Internal { branches, .. } => branches,
            NodeKind::Leaf { .. } => panic!("branches() on leaf node"),
        }
    }

    /// Mutable branch store (panics on leaves).
    pub fn branches_mut(&mut self) -> &mut BranchStore<D> {
        match &mut self.kind {
            NodeKind::Internal { branches, .. } => branches,
            NodeKind::Leaf { .. } => panic!("branches_mut() on leaf node"),
        }
    }

    /// Spanning record store (panics on leaves).
    pub fn spanning(&self) -> &SpanningStore<D> {
        match &self.kind {
            NodeKind::Internal { spanning, .. } => spanning,
            NodeKind::Leaf { .. } => panic!("spanning() on leaf node"),
        }
    }

    /// Mutable spanning record store (panics on leaves).
    pub fn spanning_mut(&mut self) -> &mut SpanningStore<D> {
        match &mut self.kind {
            NodeKind::Internal { spanning, .. } => spanning,
            NodeKind::Leaf { .. } => panic!("spanning_mut() on leaf node"),
        }
    }

    /// Total occupied entry slots: leaf entries, or branches plus spanning
    /// records. This is what is compared against the node capacity.
    pub fn occupancy(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf { entries } => entries.len(),
            NodeKind::Internal { branches, spanning } => branches.len() + spanning.len(),
        }
    }

    /// The branch index pointing at `child`, if present.
    pub fn branch_index_of(&self, child: NodeId) -> Option<usize> {
        self.branches().position_of_child(child)
    }

    /// Minimal bounding rectangle of the node's *structural* contents: leaf
    /// entries for leaves, branch regions for internal nodes. Spanning
    /// records are excluded — they are kept within the node's region by
    /// cutting, never by stretching the region (paper §3.1.1).
    ///
    /// Returns `None` for an empty node.
    pub fn content_mbr(&self) -> Option<Rect<D>> {
        match &self.kind {
            NodeKind::Leaf { entries } => entries.union_all(),
            NodeKind::Internal { branches, .. } => branches.union_all(),
        }
    }

    /// Records a structural modification (for LFM tracking).
    #[inline]
    pub fn touch_modified(&mut self) {
        self.mod_count += 1;
    }
}

/// Slots per arena chunk: the unit of copy-on-write sharing between an
/// arena and its clones.
const CHUNK: usize = 16;

/// A fixed run of arena slots, shared between clones until one of them
/// writes into it.
type Chunk<const D: usize> = [Option<Arc<Node<D>>>; CHUNK];

/// A slab arena of nodes with id stability and slot reuse.
///
/// Storage is copy-on-write at two levels, so an arena clone is a
/// *structural-sharing snapshot*. Slots live in fixed-size chunks of
/// `CHUNK` (16) slots, each chunk behind an `Arc`, and each slot holds an
/// `Arc<Node>`. Cloning copies one refcounted pointer per chunk — no slot
/// tables and no entry data. A later write through [`Arena::alloc`],
/// [`Arena::dealloc`] or [`Arena::get_mut`] first unshares the chunk it
/// lands in (one pointer bump per slot of that chunk), then — for
/// `get_mut` — the node itself ([`Arc::make_mut`]). A group commit that
/// touches *k* nodes therefore copies at most *k* chunks and *k* nodes,
/// and dropping the old snapshot afterwards releases only the chunks the
/// writer replaced. While an arena is uniquely owned — the common case,
/// with no snapshot outstanding — both levels degrade to a refcount check
/// and mutate in place, so the single-owner write path stays
/// allocation-free.
#[derive(Clone, Debug, Default)]
pub struct Arena<const D: usize> {
    chunks: Vec<Arc<Chunk<D>>>,
    /// Slots handed out so far, free or live (the next fresh id).
    end: usize,
    free: Vec<NodeId>,
    live: usize,
}

impl<const D: usize> Arena<D> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `id`, unsharing its chunk first.
    #[inline]
    fn slot_mut(&mut self, id: NodeId) -> &mut Option<Arc<Node<D>>> {
        let i = id.index();
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }

    /// Inserts a node, returning its id.
    pub fn alloc(&mut self, node: Node<D>) -> NodeId {
        self.live += 1;
        let id = self.free.pop().unwrap_or_else(|| {
            if self.end % CHUNK == 0 {
                self.chunks.push(Arc::new(Default::default()));
            }
            self.end += 1;
            NodeId((self.end - 1) as u32)
        });
        *self.slot_mut(id) = Some(Arc::new(node));
        id
    }

    /// Removes a node, freeing its slot. A snapshot that still shares the
    /// node keeps its own reference; nothing is copied.
    pub fn dealloc(&mut self, id: NodeId) {
        self.slot_mut(id)
            .take()
            .expect("dealloc of free arena slot");
        self.free.push(id);
        self.live -= 1;
    }

    /// Shared access.
    #[inline]
    pub fn get(&self, id: NodeId) -> &Node<D> {
        let i = id.index();
        self.chunks[i / CHUNK][i % CHUNK]
            .as_ref()
            .expect("use of freed node")
    }

    /// Exclusive access. Copy-on-write: if the node (or its chunk) is
    /// shared with a snapshot, it is cloned once and the arena points at
    /// the copy.
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> &mut Node<D> {
        Arc::make_mut(self.slot_mut(id).as_mut().expect("use of freed node"))
    }

    /// Number of live nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the arena has no live nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over live `(id, node)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node<D>)> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|n| (NodeId(i as u32), n.as_ref())))
    }

    /// Number of live nodes whose storage is shared with another arena
    /// clone: every node of a chunk still shared, plus nodes of unshared
    /// chunks with refcount > 1. Zero when no snapshot is outstanding.
    pub fn shared_nodes(&self) -> usize {
        self.chunks
            .iter()
            .map(|chunk| {
                let chunk_shared = Arc::strong_count(chunk) > 1;
                chunk
                    .iter()
                    .flatten()
                    .filter(|n| chunk_shared || Arc::strong_count(n) > 1)
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Branch, SpanningEntry};
    use crate::id::RecordId;

    fn rect(x0: f64, x1: f64) -> Rect<2> {
        Rect::new([x0, 0.0], [x1, 1.0])
    }

    #[test]
    fn arena_alloc_dealloc_reuses_slots() {
        let mut arena: Arena<2> = Arena::new();
        let a = arena.alloc(Node::leaf());
        let b = arena.alloc(Node::leaf());
        assert_eq!(arena.len(), 2);
        arena.dealloc(a);
        assert_eq!(arena.len(), 1);
        let c = arena.alloc(Node::internal(1));
        assert_eq!(c, a, "slot reused");
        assert_eq!(arena.len(), 2);
        assert!(!arena.get(c).is_leaf());
        let ids: Vec<_> = arena.iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 2);
        let _ = b;
    }

    fn marked_leaf(mark: u64) -> Node<2> {
        let mut n = Node::leaf();
        n.mod_count = mark;
        n
    }

    #[test]
    fn clone_survives_writes_across_chunk_boundaries() {
        // 20 nodes: chunk 0 full, chunk 1 holding slots 16..20.
        let mut arena: Arena<2> = Arena::new();
        for i in 0..20 {
            assert_eq!(arena.alloc(marked_leaf(i)), NodeId(i as u32));
        }
        let snap = arena.clone();
        assert_eq!(arena.shared_nodes(), 20);

        // Fill the rest of shared chunk 1 and spill into a fresh chunk 2.
        for i in 20..34 {
            assert_eq!(arena.alloc(marked_leaf(i)), NodeId(i as u32));
        }
        assert_eq!(arena.shared_nodes(), 20, "only the snapshot's nodes");

        // Free two slots of still-shared chunk 0, then reuse them.
        arena.dealloc(NodeId(3));
        arena.dealloc(NodeId(5));
        assert_eq!(arena.shared_nodes(), 18);
        assert_eq!(arena.alloc(marked_leaf(105)), NodeId(5));
        assert_eq!(arena.alloc(marked_leaf(103)), NodeId(3));
        assert_eq!(arena.shared_nodes(), 18);

        // Mutate a shared node, a reused slot and a node born after the clone.
        arena.get_mut(NodeId(7)).touch_modified();
        arena.get_mut(NodeId(3)).touch_modified();
        arena.get_mut(NodeId(33)).touch_modified();
        assert_eq!(arena.shared_nodes(), 17);
        assert_eq!(arena.get(NodeId(7)).mod_count, 8);
        assert_eq!(arena.get(NodeId(3)).mod_count, 104);
        assert_eq!(arena.get(NodeId(33)).mod_count, 34);
        assert_eq!(arena.len(), 34);

        // The clone still sees exactly the 20 nodes it was taken with.
        assert_eq!(snap.len(), 20);
        let marks: Vec<(u32, u64)> = snap.iter().map(|(id, n)| (id.raw(), n.mod_count)).collect();
        assert_eq!(marks, (0..20).map(|i| (i as u32, i)).collect::<Vec<_>>());
        assert_eq!(snap.shared_nodes(), 17);

        drop(snap);
        assert_eq!(arena.shared_nodes(), 0);
    }

    #[test]
    #[should_panic]
    fn use_after_free_panics() {
        let mut arena: Arena<2> = Arena::new();
        let a = arena.alloc(Node::leaf());
        arena.dealloc(a);
        let _ = arena.get(a);
    }

    #[test]
    fn occupancy_counts_branches_and_spanning() {
        let mut n: Node<2> = Node::internal(1);
        n.branches_mut().push(Branch {
            rect: rect(0.0, 1.0),
            child: NodeId(5),
        });
        n.spanning_mut().push(SpanningEntry {
            rect: rect(0.0, 1.0),
            record: RecordId(1),
            linked_child: NodeId(5),
        });
        n.spanning_mut().push(SpanningEntry {
            rect: rect(0.2, 0.9),
            record: RecordId(2),
            linked_child: NodeId(5),
        });
        assert_eq!(n.occupancy(), 3);
        assert_eq!(n.branch_index_of(NodeId(5)), Some(0));
        assert_eq!(n.branch_index_of(NodeId(6)), None);
    }

    #[test]
    fn content_mbr_ignores_spanning() {
        let mut n: Node<2> = Node::internal(1);
        n.branches_mut().push(Branch {
            rect: rect(0.0, 1.0),
            child: NodeId(1),
        });
        n.branches_mut().push(Branch {
            rect: rect(2.0, 3.0),
            child: NodeId(2),
        });
        n.spanning_mut().push(SpanningEntry {
            rect: rect(-100.0, 100.0),
            record: RecordId(9),
            linked_child: NodeId(1),
        });
        assert_eq!(n.content_mbr(), Some(rect(0.0, 3.0)));
    }

    #[test]
    fn empty_node_has_no_mbr() {
        let n: Node<2> = Node::leaf();
        assert!(n.content_mbr().is_none());
        let n: Node<2> = Node::internal(1);
        assert!(n.content_mbr().is_none());
    }
}
