//! Snapshot semantics: a reader pinned at epoch *N* continues to observe
//! exactly epoch *N*'s tree — same results, same invariants — no matter
//! how many later epochs the writer publishes, for all four paper
//! variants, including delete-heavy streams.

use segidx_concurrent::{
    CommitTicket, ConcurrentIndex, IndexOp, ShardedIndex, SubmitError, ZOrderRouter,
};
use segidx_core::tree::Tree;
use segidx_core::{
    IndexConfig, IntervalIndex, RTree, RecordId, SRTree, SkeletonRTree, SkeletonSRTree,
};
use segidx_geom::Rect;
use segidx_storage::{
    DiskManager, DiskManagerConfig, FaultInjector, SyncFault, SyncKind, WriteFault, WriteKind,
};
use segidx_workloads::{queries_for_qar, DataDistribution, DOMAIN_MAX};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

const N: usize = 4_000;

/// Each paper variant, pre-loaded with the first half of `dataset`, as a
/// bare `Tree` ready for concurrent serving.
fn variant_trees(dataset: &segidx_workloads::Dataset) -> Vec<(&'static str, Tree<2>)> {
    let half = &dataset.records[..N / 2];
    let domain = Rect::new([0.0, 0.0], [DOMAIN_MAX, DOMAIN_MAX]);
    let mut rtree = RTree::<2>::new();
    let mut srtree = SRTree::<2>::new();
    let mut sk_r = SkeletonRTree::<2>::with_prediction(domain, N, N / 10);
    let mut sk_sr = SkeletonSRTree::<2>::with_prediction(domain, N, N / 10);
    for (r, id) in half {
        rtree.insert(*r, *id);
        srtree.insert(*r, *id);
        sk_r.insert(*r, *id);
        sk_sr.insert(*r, *id);
    }
    vec![
        ("R-Tree", rtree.into_tree()),
        ("SR-Tree", srtree.into_tree()),
        ("Skeleton R-Tree", sk_r.into_tree()),
        ("Skeleton SR-Tree", sk_sr.into_tree()),
    ]
}

fn submit_all(index: &ConcurrentIndex<2>, ops: impl IntoIterator<Item = IndexOp<2>>) {
    for op in ops {
        loop {
            match index.submit(op) {
                Ok(_) => break,
                Err(SubmitError::Overloaded { .. }) => std::thread::yield_now(),
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
}

#[test]
fn pinned_snapshot_is_immutable_across_later_epochs_all_variants() {
    let dataset = DataDistribution::I3.generate(N, 17);
    let queries: Vec<Rect<2>> = [0.01, 1.0, 500.0]
        .iter()
        .flat_map(|&q| queries_for_qar(q, 10, 7).queries)
        .collect();

    for (name, tree) in variant_trees(&dataset) {
        let index = ConcurrentIndex::builder(tree).start().unwrap();

        // Pin epoch N and record everything it answers.
        let pinned = index.snapshot();
        let pinned_epoch = pinned.epoch();
        let pinned_len = pinned.len();
        let pinned_results: Vec<Vec<RecordId>> = queries.iter().map(|q| pinned.search(q)).collect();

        // Publish N+1: the second half of the dataset.
        submit_all(
            &index,
            dataset.records[N / 2..]
                .iter()
                .map(|(r, id)| IndexOp::Insert {
                    rect: *r,
                    record: *id,
                }),
        );
        index.flush().unwrap();
        assert!(index.epoch() > pinned_epoch, "{name}: N+1 published");

        // Publish N+2 (and beyond): delete a third of the original half.
        submit_all(
            &index,
            dataset.records[..N / 6]
                .iter()
                .map(|(r, id)| IndexOp::Delete {
                    rect: *r,
                    record: *id,
                }),
        );
        index.flush().unwrap();
        assert!(index.epoch() >= pinned_epoch + 2, "{name}: N+2 published");

        // The pinned reader still sees exactly epoch N.
        assert_eq!(pinned.epoch(), pinned_epoch, "{name}");
        assert_eq!(pinned.len(), pinned_len, "{name}: len frozen");
        for (q, expect) in queries.iter().zip(&pinned_results) {
            assert_eq!(&pinned.search(q), expect, "{name}: results frozen");
        }
        pinned.assert_invariants();

        // A fresh snapshot sees the new world, also valid.
        let fresh = index.snapshot();
        assert_eq!(fresh.len(), N - N / 6, "{name}");
        fresh.assert_invariants();
        drop(pinned);
        drop(fresh);

        // With no reader pinned below the current epoch, the next commit
        // reclaims every retired snapshot.
        submit_all(
            &index,
            [IndexOp::Insert {
                rect: Rect::new([1.0, 1.0], [2.0, 2.0]),
                record: RecordId(u64::MAX - 1),
            }],
        );
        index.flush().unwrap();
        assert_eq!(index.retired_snapshots(), 0, "{name}: reclaimed");
    }
}

#[test]
fn delete_heavy_stream_keeps_pinned_snapshot_intact() {
    let dataset = DataDistribution::R1.generate(N, 5);
    for (name, tree) in variant_trees(&dataset) {
        let index = ConcurrentIndex::builder(tree)
            .max_batch(64)
            .start()
            .unwrap();
        let whole = Rect::new([0.0, 0.0], [DOMAIN_MAX, DOMAIN_MAX]);

        let pinned = index.snapshot();
        let before: BTreeSet<RecordId> = pinned.search(&whole).into_iter().collect();
        assert_eq!(before.len(), N / 2, "{name}: pinned sees the full load");

        // Delete *everything* the index currently holds, across several
        // group commits.
        submit_all(
            &index,
            dataset.records[..N / 2]
                .iter()
                .map(|(r, id)| IndexOp::Delete {
                    rect: *r,
                    record: *id,
                }),
        );
        index.flush().unwrap();

        let empty = index.snapshot();
        assert_eq!(empty.len(), 0, "{name}: live tree fully drained");
        empty.assert_invariants();

        // The pinned snapshot still answers with every deleted record.
        let after: BTreeSet<RecordId> = pinned.search(&whole).into_iter().collect();
        assert_eq!(before, after, "{name}: deletes invisible at pinned epoch");
        pinned.assert_invariants();
    }
}

#[test]
fn readers_make_progress_while_commit_is_in_flight() {
    // The commit hook blocks the writer *mid-commit* (after the batch is
    // applied, before it is published). Readers must still pin, search,
    // and unpin — never waiting on the writer.
    let in_hook = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (hook_flag, release_flag) = (Arc::clone(&in_hook), Arc::clone(&release));

    let dataset = DataDistribution::I3.generate(1_000, 3);
    let mut seed = SRTree::<2>::new();
    for (r, id) in &dataset.records {
        seed.insert(*r, *id);
    }
    let index = ConcurrentIndex::builder(seed.into_tree())
        .commit_hook(Box::new(move |_epoch| {
            hook_flag.store(true, Ordering::SeqCst);
            while !release_flag.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }))
        .start()
        .unwrap();

    let epoch_before = index.epoch();
    index
        .submit(IndexOp::Insert {
            rect: Rect::new([3.0, 3.0], [4.0, 4.0]),
            record: RecordId(999_999),
        })
        .unwrap();
    while !in_hook.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }

    // Writer is now parked mid-commit. Take and use many snapshots from
    // several threads; all of this completes while the commit is in flight.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let handle = index.handle();
            scope.spawn(move || {
                for _ in 0..200 {
                    let snap = handle.snapshot();
                    assert_eq!(snap.epoch(), epoch_before, "commit not yet published");
                    assert_eq!(snap.len(), 1_000);
                    let hits = snap.search(&Rect::new([0.0, 0.0], [DOMAIN_MAX, DOMAIN_MAX]));
                    assert_eq!(hits.len(), 1_000);
                }
            });
        }
    });
    assert!(
        in_hook.load(Ordering::SeqCst) && index.epoch() == epoch_before,
        "all reader work happened while the commit was still in flight"
    );

    release.store(true, Ordering::SeqCst);
    let receipt = index.flush().unwrap();
    assert!(receipt.epoch > epoch_before);
    assert_eq!(index.snapshot().len(), 1_001);
}

/// A fault injector that lets every I/O through but parks the durable
/// writer in its checkpoint barrier while the gate is closed — a way to
/// hold a writer (of any shard) between two group commits.
#[derive(Debug, Default)]
struct SyncGate {
    closed: Mutex<bool>,
    opened: Condvar,
    parked: AtomicUsize,
}

impl SyncGate {
    fn set_closed(&self, closed: bool) {
        *self.closed.lock().unwrap() = closed;
        self.opened.notify_all();
    }
}

impl FaultInjector for SyncGate {
    fn before_write(&self, _: WriteKind, _: usize) -> WriteFault {
        WriteFault::Allow
    }

    fn before_sync(&self, _: SyncKind) -> SyncFault {
        let mut closed = self.closed.lock().unwrap();
        if *closed {
            self.parked.fetch_add(1, Ordering::SeqCst);
            while *closed {
                closed = self.opened.wait(closed).unwrap();
            }
        }
        SyncFault::Allow
    }
}

fn gated_disk(gate: &Arc<SyncGate>, name: &str) -> Arc<DiskManager> {
    let dir = std::env::temp_dir().join(format!("segidx-completion-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let config = DiskManagerConfig {
        fault_injector: Some(Arc::clone(gate) as Arc<dyn FaultInjector>),
        ..DiskManagerConfig::default()
    };
    Arc::new(DiskManager::create_with(path, config).unwrap())
}

fn insert(i: u64) -> IndexOp<2> {
    let x = (i * 7919 % 1_000) as f64;
    let y = (i * 104_729 % 1_000) as f64;
    IndexOp::Insert {
        rect: Rect::new([x, y], [x + 1.0, y + 1.0]),
        record: RecordId(i),
    }
}

/// Submits `ops` while every shard's writer is parked between commits, so
/// each shard applies its share as exactly one group commit once the gate
/// opens. Then checks the two-phase completion contract on every shard:
/// callbacks fire on the writer in submission order, and the callback of
/// op *i* already sees the shard's next op of the same commit resolved.
fn check_completion_order(
    shards: usize,
    gate: &SyncGate,
    route: impl Fn(&IndexOp<2>) -> usize,
    submit: impl Fn(Vec<IndexOp<2>>) -> Vec<Result<CommitTicket, SubmitError>>,
    flush: impl Fn(),
) {
    // One blocker per shard parks each writer inside its checkpoint.
    gate.set_closed(true);
    let mut blockers = Vec::new();
    for i in 1_000_000u64.. {
        let op = insert(i);
        if route(&op) == blockers.len() {
            blockers.push(op);
            if blockers.len() == shards {
                break;
            }
        }
    }
    for r in submit(blockers) {
        r.unwrap();
    }
    while gate.parked.load(Ordering::SeqCst) < shards {
        std::thread::yield_now();
    }

    let ops: Vec<IndexOp<2>> = (0..96).map(insert).collect();
    let shard_of: Vec<usize> = ops.iter().map(&route).collect();
    let tickets: Vec<CommitTicket> = submit(ops).into_iter().map(Result::unwrap).collect();
    let log: Arc<Mutex<Vec<(usize, usize, bool)>>> = Arc::default();
    let test_thread = std::thread::current().id();
    for (i, ticket) in tickets.iter().enumerate() {
        let next = (i + 1..tickets.len())
            .find(|&j| shard_of[j] == shard_of[i])
            .map(|j| tickets[j].clone());
        let (log, shard) = (Arc::clone(&log), shard_of[i]);
        ticket.on_complete(move |outcome| {
            assert!(outcome.is_ok());
            assert_ne!(std::thread::current().id(), test_thread, "ran on a writer");
            let next_resolved = next.map_or(true, |t| t.try_receipt().is_some());
            log.lock().unwrap().push((shard, i, next_resolved));
        });
    }
    gate.set_closed(false);
    flush();

    let log = log.lock().unwrap();
    assert_eq!(log.len(), tickets.len());
    for shard in 0..shards {
        let fired: Vec<usize> = log
            .iter()
            .filter(|(s, _, _)| *s == shard)
            .map(|&(_, i, _)| i)
            .collect();
        let submitted: Vec<usize> = (0..tickets.len())
            .filter(|&i| shard_of[i] == shard)
            .collect();
        assert!(!submitted.is_empty(), "every shard gets part of the run");
        assert_eq!(
            fired, submitted,
            "shard {shard}: callbacks in submission order"
        );
        let epochs: BTreeSet<u64> = submitted
            .iter()
            .map(|&i| tickets[i].try_receipt().unwrap().unwrap().epoch)
            .collect();
        assert_eq!(epochs.len(), 1, "shard {shard}: one group commit");
    }
    for &(shard, i, next_resolved) in log.iter() {
        assert!(
            next_resolved,
            "shard {shard}: op {i} fired before its successor resolved"
        );
    }
}

#[test]
fn group_commit_resolves_every_ticket_before_any_callback() {
    let gate = Arc::new(SyncGate::default());
    let index = ConcurrentIndex::builder(Tree::<2>::new(IndexConfig::srtree()))
        .durable(gated_disk(&gate, "single.db"))
        .start()
        .unwrap();
    check_completion_order(
        1,
        &gate,
        |_| 0,
        |ops| index.submit_batch(ops),
        || {
            index.flush().unwrap();
        },
    );

    // Both shards' disks share one gate, so it holds both writers at once.
    let gate = Arc::new(SyncGate::default());
    let router = ZOrderRouter::new(Rect::new([0.0, 0.0], [1_000.0, 1_000.0]), 2);
    let trees = (0..2)
        .map(|_| Tree::<2>::new(IndexConfig::srtree()))
        .collect();
    let disks = (0..2)
        .map(|s| gated_disk(&gate, &format!("shard{s}.db")))
        .collect();
    let sharded = ShardedIndex::builder(router, trees)
        .durable(disks)
        .start()
        .unwrap();
    check_completion_order(
        2,
        &gate,
        |op| sharded.route(op),
        |ops| sharded.submit_batch(ops),
        || {
            sharded.flush().unwrap();
        },
    );
}
