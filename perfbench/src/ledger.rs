//! The traced run: replays a workload's statement stream in-process
//! through the public functions the server's connection code calls, one
//! statement at a time (the depth-1 case of `execute_batch`), and times
//! every call as a span. Span self times give the per-layer metrics; the
//! depth-1 end-to-end p50 minus their sum is the wire residual.

use crate::gen::{Class, Inputs, Stmt, Workload};
use crate::model::rows;
use crate::report::{median, pct, Obj};
use crate::wire::frame;
use segidx_concurrent::{IndexOp, SnapshotEngine, SubmitError};
use segidx_core::{RecordId, StatsSnapshot};
use segidx_geom::{Interval, Point, Rect};
use segidx_obs::{RingBufferSink, Tracer};
use segidx_server::{
    encode_response, parse, Backend, BackendConfig, FrameDecoder, Mode, Statement,
};
use segidx_temporal::{
    TemporalBackend, TemporalConfig, TemporalTable, TieredConfig, TieredTelemetry,
};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Statements replayed per workload: a fixed count, so the counts the
/// layers report (seals, merges, splits) repeat exactly for one seed.
/// `temporal-history` replays enough RECORDs to fill four memtables, the
/// point where a leveled merge runs.
fn replay_len(workload: Workload) -> usize {
    match workload {
        Workload::PaperWindow => 20_000,
        Workload::TemporalHistory => 24_000,
        Workload::Churn | Workload::ChurnSharded => 8_000,
    }
}

/// One timed call. `parent == u32::MAX` marks a request's root span.
struct Span {
    req: u32,
    parent: u32,
    name: &'static str,
    start: u64,
    end: u64,
}

/// Spans kept in memory and written out when the run ends.
struct Spans {
    base: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn push(&mut self, req: u32, parent: u32, name: &'static str, start: u64, end: u64) -> u32 {
        self.list.push(Span {
            req,
            parent,
            name,
            start,
            end,
        });
        (self.list.len() - 1) as u32
    }

    /// Times `f` as a child span of `parent`.
    fn time<T>(
        &mut self,
        req: u32,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        (out, self.push(req, parent, name, t0, t1))
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.list.len()];
        for s in &self.list {
            if s.parent != u32::MAX {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        self.list
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    fn write(&self, path: &str) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# request, span, parent (-1 = root), name, start_ns, end_ns"
        )?;
        for (i, s) in self.list.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "[{}, {i}, {parent}, \"{}\", {}, {}]",
                s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Counts summed over every shard's published snapshot.
fn write_stats(backend: &Backend) -> StatsSnapshot {
    let mut sum = StatsSnapshot::default();
    let mut add = |s: StatsSnapshot| {
        sum.maintenance_node_accesses += s.maintenance_node_accesses;
        sum.leaf_splits += s.leaf_splits;
        sum.internal_splits += s.internal_splits;
    };
    match backend {
        Backend::Concurrent(ix) => add(ix.snapshot().stats()),
        Backend::Sharded(ix) => {
            for i in 0..ix.shard_count() {
                add(ix.shard_snapshot(i).stats());
            }
        }
    }
    sum
}

fn rect2(lo: &[f64], hi: &[f64]) -> Rect<2> {
    Rect::new([lo[0], lo[1]], [hi[0], hi[1]])
}

fn op_of(stmt: &Stmt) -> IndexOp<2> {
    match *stmt {
        Stmt::Insert(id, r) => IndexOp::Insert {
            rect: Rect::new([r[0], r[1]], [r[2], r[3]]),
            record: RecordId(id),
        },
        Stmt::Delete(id, r) => IndexOp::Delete {
            rect: Rect::new([r[0], r[1]], [r[2], r[3]]),
            record: RecordId(id),
        },
        _ => unreachable!("not a spatial write"),
    }
}

fn vers(mut v: Vec<(segidx_temporal::VersionId, segidx_temporal::Version)>) -> String {
    v.sort_unstable_by_key(|(id, _)| id.0);
    let mut out = format!("VERS {}", v.len());
    for (id, v) in v {
        out.push_str(&format!(" {}:{}={:?}", id.0, v.key, v.value));
    }
    out
}

/// Running sums for the count-type metrics.
#[derive(Default)]
struct Counts {
    reads: u64,
    nodes: u64,
    results: u64,
    writes: u64,
    write_nodes: u64,
    splits: u64,
    commits_ops: u64,
    commits: u64,
    busy: u64,
    fanout: u64,
    useful: u64,
    shard_reads: u64,
    scatter_overhead: Vec<f64>,
    temporal_queries: u64,
    tiers: u64,
    rows: u64,
    records: u64,
    record_max_ns: u64,
    reply_bytes: u64,
    requests: u64,
}

/// The in-process service the replay drives, built like the server builds
/// its own (`Backend::start`, tiered `TemporalTable` with telemetry).
struct Service {
    backend: Backend,
    table: TemporalTable,
    telemetry: Arc<TieredTelemetry>,
}

impl Service {
    fn start(workload: Workload) -> io::Result<Service> {
        let config = BackendConfig {
            shards: workload.shards(),
            ..BackendConfig::default()
        };
        let backend = Backend::start(
            &config,
            Arc::new(Tracer::with_config(0, 8, 4096)),
            Arc::new(RingBufferSink::new(4096)),
        )?;
        let mut table = TemporalTable::new(TemporalConfig {
            backend: TemporalBackend::Tiered(TieredConfig::default()),
            ..TemporalConfig::default()
        });
        let telemetry = Arc::new(TieredTelemetry::new());
        table
            .tiered_index_mut()
            .expect("tiered backend")
            .set_telemetry(Some(Arc::clone(&telemetry)));
        Ok(Service {
            backend,
            table,
            telemetry,
        })
    }

    /// Loads the preload, in the order the socket run sends it, without
    /// timing it.
    fn preload(&mut self, inputs: &Inputs) -> io::Result<()> {
        let fail = |e: String| io::Error::other(e);
        let stmts = inputs.preload_order();
        if inputs.workload.is_temporal() {
            for s in &stmts {
                if let Stmt::Record { key, value, at } = *s {
                    self.table
                        .try_insert(key, value as f64, at as f64)
                        .map_err(|e| fail(e.to_string()))?;
                }
            }
            return Ok(());
        }
        for chunk in stmts.chunks(512) {
            for t in self.backend.submit_batch(chunk.iter().map(op_of).collect()) {
                t.map_err(|e| fail(e.to_string()))?
                    .wait()
                    .map_err(|e| fail(e.to_string()))?;
            }
        }
        Ok(())
    }

    /// Replays one statement as request `req`, timing each layer.
    fn replay(&mut self, req: u32, stmt: &Stmt, sp: &mut Spans, c: &mut Counts) {
        let class = stmt.class();
        let root = sp.push(req, u32::MAX, root_name(class), sp.now(), 0);
        let mut bytes = Vec::new();
        frame(&stmt.text(), &mut bytes);
        let mut decoder = FrameDecoder::new();
        let (frame, _) = sp.time(req, root, "frame.decode", || {
            decoder.feed(&bytes);
            decoder.next_frame()
        });
        let text = frame
            .expect("own frame decodes")
            .expect("complete frame")
            .text;
        let (parsed, _) = sp.time(req, root, "parser.parse", || parse(&text));
        let parsed = parsed.expect("generated statement parses");
        let reply = match parsed {
            Statement::Search { lo, hi } => {
                self.read(req, root, sp, c, Read::Search(rect2(&lo, &hi)))
            }
            Statement::Stab { point } => self.read(
                req,
                root,
                sp,
                c,
                Read::Stab(Point::new([point[0], point[1]])),
            ),
            Statement::Insert { .. } | Statement::Delete { .. } => {
                self.write(req, root, sp, c, stmt)
            }
            Statement::Record { key, value, at } => {
                let (r, id) = sp.time(req, root, "temporal.record", || {
                    self.table.try_insert(key, value, at)
                });
                let s = &sp.list[id as usize];
                c.record_max_ns = c.record_max_ns.max(s.end - s.start);
                c.records += 1;
                match r {
                    Ok(id) => format!("OK version={}", id.0),
                    Err(e) => format!("ERR exec {e}"),
                }
            }
            Statement::AsOf { t } => {
                let (r, _) = sp.time(req, root, "temporal.as_of", || self.table.try_as_of(t));
                self.temporal_reply(c, r)
            }
            Statement::Within { t1, t2, lo, hi } => {
                let (r, _) = sp.time(req, root, "temporal.within", || {
                    self.table.try_within(Interval::new(t1, t2), lo, hi)
                });
                self.temporal_reply(c, r)
            }
            other => unreachable!("not generated: {other:?}"),
        };
        let mut out = Vec::new();
        sp.time(req, root, "frame.encode", || {
            encode_response(Mode::Binary, &reply, &mut out)
        });
        c.reply_bytes += out.len() as u64;
        c.requests += 1;
        sp.list[root as usize].end = sp.now();
    }

    fn temporal_reply(
        &self,
        c: &mut Counts,
        r: Result<
            Vec<(segidx_temporal::VersionId, segidx_temporal::Version)>,
            segidx_temporal::TemporalError,
        >,
    ) -> String {
        let tiered = self.table.tiered_index().expect("tiered backend");
        c.temporal_queries += 1;
        c.tiers += tiered.tier_count() as u64 + u64::from(tiered.memtable_len() > 0);
        match r {
            Ok(v) => {
                c.rows += v.len() as u64;
                vers(v)
            }
            Err(e) => format!("ERR exec {e}"),
        }
    }

    fn read(&self, req: u32, root: u32, sp: &mut Spans, c: &mut Counts, q: Read) -> String {
        let engine = q.engine_span();
        let ids: Vec<RecordId> = match &self.backend {
            Backend::Concurrent(ix) => {
                let (snap, _) = sp.time(req, root, "snapshot.pin", || ix.snapshot());
                let before = snap.stats();
                let (mut res, _) = sp.time(req, root, engine, || q.run(&*snap));
                let d = snap.stats().diff(&before);
                c.nodes += d.search_node_accesses;
                c.results += d.search_results;
                res.pop().expect("one query")
            }
            Backend::Sharded(ix) => {
                let (snap, _) = sp.time(req, root, "shard.pin", || ix.snapshot());
                let (mut res, batch) = sp.time(req, root, "shard.batch", || match &q {
                    Read::Search(r) => snap.search_batch(std::slice::from_ref(r)),
                    Read::Stab(p) => snap.stab_batch(std::slice::from_ref(p)),
                });
                // Per-shard engine time, measured apart through
                // `shard_snapshot`; the rest of the batch is scatter/gather.
                let mut engine_ns = 0;
                for i in 0..ix.shard_count() {
                    let s = ix.shard_snapshot(i);
                    let before = s.stats();
                    let t0 = Instant::now();
                    let part = q.run(&*s);
                    engine_ns += t0.elapsed().as_nanos() as u64;
                    let d = s.stats().diff(&before);
                    c.nodes += d.search_node_accesses;
                    c.results += d.search_results;
                    c.useful += u64::from(!part[0].is_empty());
                }
                c.fanout += snap.shard_count() as u64;
                c.shard_reads += 1;
                let b = &sp.list[batch as usize];
                let (start, end) = (b.start, b.end);
                c.scatter_overhead
                    .push((end - start) as f64 - engine_ns as f64);
                sp.push(req, batch, engine, start, (start + engine_ns).min(end));
                res.pop().expect("one query")
            }
        };
        c.reads += 1;
        let mut ids: Vec<u64> = ids.into_iter().map(|r| r.0).collect();
        ids.sort_unstable();
        rows(&ids)
    }

    fn write(&self, req: u32, root: u32, sp: &mut Spans, c: &mut Counts, stmt: &Stmt) -> String {
        let before = write_stats(&self.backend);
        let op = op_of(stmt);
        let (mut tickets, _) = sp.time(req, root, "commit.submit", || {
            self.backend.submit_batch(vec![op])
        });
        c.writes += 1;
        let ticket = match tickets.pop().expect("one ticket") {
            Ok(t) => t,
            Err(SubmitError::Overloaded { depth }) => {
                c.busy += 1;
                return format!("BUSY depth={depth}");
            }
            Err(e) => return format!("ERR commit {e}"),
        };
        let (receipt, wait) = sp.time(req, root, "commit.wait", || ticket.wait());
        // The writer's phase breakdown, laid end to end so they finish
        // when the wait did (clipped to the wait's own interval).
        if let Some(p) = ticket.phases() {
            let w = &sp.list[wait as usize];
            let (w0, w1) = (w.start, w.end);
            let mut t = w1.saturating_sub(p.queue_wait_nanos + p.apply_nanos + p.publish_nanos);
            for (name, d) in [
                ("commit.queue_wait", p.queue_wait_nanos),
                ("commit.apply", p.apply_nanos),
                ("commit.publish", p.publish_nanos),
            ] {
                sp.push(req, wait, name, t.max(w0), (t + d).max(w0));
                t += d;
            }
        }
        let after = write_stats(&self.backend);
        c.write_nodes += after.maintenance_node_accesses - before.maintenance_node_accesses;
        c.splits += (after.leaf_splits + after.internal_splits)
            - (before.leaf_splits + before.internal_splits);
        match receipt {
            Ok(r) => {
                c.commits += 1;
                c.commits_ops += r.ops_in_commit as u64;
                format!("OK epoch={}", r.epoch)
            }
            Err(e) => format!("ERR commit {e}"),
        }
    }
}

enum Read {
    Search(Rect<2>),
    Stab(Point<2>),
}

impl Read {
    fn engine_span(&self) -> &'static str {
        match self {
            Read::Search(_) => "engine.search",
            Read::Stab(_) => "engine.stab",
        }
    }

    fn run<E: SnapshotEngine<2>>(&self, engine: &E) -> Vec<Vec<RecordId>> {
        match self {
            Read::Search(r) => engine.search_many(std::slice::from_ref(r)),
            Read::Stab(p) => engine.stab_many(std::slice::from_ref(p)),
        }
    }
}

fn root_name(class: Class) -> &'static str {
    match class {
        Class::Search => "request.search",
        Class::Stab => "request.stab",
        Class::Insert => "request.insert",
        Class::Delete => "request.delete",
        Class::Record => "request.record",
        Class::AsOf => "request.as_of",
        Class::Within => "request.within",
    }
}

/// Replays the workload and returns the per-layer metrics, the ledger, and
/// whether any residual came out negative. `e2e_p50_ms` holds the depth-1
/// end-to-end p50 of each class, from the socket run.
pub fn run(
    inputs: &Inputs,
    e2e_p50_ms: &BTreeMap<Class, f64>,
    spans_path: &str,
) -> io::Result<(Obj, Obj, bool)> {
    let mut svc = Service::start(inputs.workload)?;
    svc.preload(inputs)?;
    let tel = &svc.telemetry;
    let (seals0, merges0, merged0) = (
        tel.seals_total.load(Ordering::Relaxed),
        tel.merges_total.load(Ordering::Relaxed),
        tel.merged_entries_total.load(Ordering::Relaxed),
    );

    // The same streams the socket run sent, interleaved in generation
    // order across the connections.
    let mut streams = inputs.streams.clone();
    let mut sp = Spans {
        base: Instant::now(),
        list: Vec::new(),
    };
    let mut c = Counts::default();
    let mut classes = Vec::new();
    for i in 0..replay_len(inputs.workload) {
        let n = streams.len();
        let stmt = streams[i % n].next_stmt();
        classes.push(stmt.class());
        svc.replay(i as u32, &stmt, &mut sp, &mut c);
    }
    let tel = &svc.telemetry;
    let seals = tel.seals_total.load(Ordering::Relaxed) - seals0;
    let merges = tel.merges_total.load(Ordering::Relaxed) - merges0;
    let merged = tel.merged_entries_total.load(Ordering::Relaxed) - merged0;
    let imbalance = match &svc.backend {
        Backend::Sharded(ix) => ix.routing_stats().imbalance(),
        Backend::Concurrent(_) => 0.0,
    };
    sp.write(spans_path)?;

    // Self time per (class, span name), over every request.
    let selfs = sp.self_times();
    let mut by: BTreeMap<(Class, &'static str), Vec<f64>> = BTreeMap::new();
    for (s, &t) in sp.list.iter().zip(&selfs) {
        if s.parent != u32::MAX {
            by.entry((classes[s.req as usize], s.name))
                .or_default()
                .push(t as f64);
        }
    }
    let all = |name: &str, q: f64| -> f64 {
        let v: Vec<f64> = by
            .iter()
            .filter(|((_, n), _)| *n == name)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        pct(&v, q)
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let mut m = Obj::default();
    m.num("frame.decode_ns", all("frame.decode", 0.5))
        .num("frame.encode_ns", all("frame.encode", 0.5))
        .num("frame.response_bytes", ratio(c.reply_bytes, c.requests))
        .num("parser.parse_ns", all("parser.parse", 0.5))
        .num("snapshot.pin_ns", all("snapshot.pin", 0.5))
        .num("engine.search_p50_ns", all("engine.search", 0.5))
        .num("engine.search_p99_ns", all("engine.search", 0.99))
        .num("engine.stab_ns", all("engine.stab", 0.5))
        .num("engine.nodes_per_query", ratio(c.nodes, c.reads))
        .num("engine.results_per_query", ratio(c.results, c.reads))
        .num("engine.results_per_node", ratio(c.results, c.nodes))
        .num("engine.write_nodes_per_op", ratio(c.write_nodes, c.writes))
        .num("engine.splits_per_kop", ratio(c.splits * 1000, c.writes))
        .num("commit.submit_ns", all("commit.submit", 0.5))
        .num("commit.queue_wait_ns", all("commit.queue_wait", 0.5))
        .num("commit.apply_ns", all("commit.apply", 0.5))
        .num("commit.publish_ns", all("commit.publish", 0.5))
        .num("commit.ops_per_commit", ratio(c.commits_ops, c.commits))
        .num("commit.busy_share", ratio(c.busy, c.writes))
        .num("shard.pin_ns", all("shard.pin", 0.5))
        .num("shard.scatter_overhead_ns", median(&c.scatter_overhead))
        .num("shard.fanout", ratio(c.fanout, c.shard_reads))
        .num("shard.useful_fanout", ratio(c.useful, c.fanout))
        .num("shard.imbalance", imbalance)
        .num("temporal.record_ns", all("temporal.record", 0.5))
        .num("temporal.record_max_ms", c.record_max_ns as f64 / 1e6)
        .int("temporal.seals", seals)
        .int("temporal.merges", merges)
        .num("temporal.rewrite_ratio", ratio(merged, c.records))
        .num("temporal.asof_ns", all("temporal.as_of", 0.5))
        .num("temporal.within_ns", all("temporal.within", 0.5))
        .num(
            "temporal.tiers_per_query",
            ratio(c.tiers, c.temporal_queries),
        )
        .num("temporal.rows_per_query", ratio(c.rows, c.temporal_queries));

    // The ledger: per class, each layer's p50 self time, their sum, and
    // the depth-1 end-to-end p50 it must reproduce.
    let mut ledger = Obj::default();
    let mut negative = false;
    for class in Class::ALL {
        let mut layers = Obj::default();
        let mut sum = 0.0;
        for ((_, name), v) in by
            .range((class, "")..)
            .take_while(|((k, _), _)| *k == class)
        {
            let p50 = median(v);
            sum += p50;
            layers.num(name, p50);
        }
        let residual = match e2e_p50_ms.get(&class) {
            Some(&e2e) if sum > 0.0 => {
                let r = e2e * 1e6 - sum;
                negative |= r < 0.0;
                let mut row = Obj::default();
                row.num("e2e_p50_ns", e2e * 1e6)
                    .num("layers_sum_ns", sum)
                    .num("residual_ns", r)
                    .obj("layers_p50_ns", &layers);
                ledger.obj(class.name(), &row);
                r
            }
            _ => 0.0,
        };
        m.num(&format!("wire.residual_ns.{}", class.name()), residual);
    }
    Ok((m, ledger, negative))
}
