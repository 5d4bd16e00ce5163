//! Per-connection machinery: a reader thread that decodes, parses, and
//! executes pipelined frames, and a flusher thread that writes responses
//! back in request order.
//!
//! # Why no thread parks per in-flight write
//!
//! Writes are submitted in batches ([`Backend::submit_batch`]) and their
//! responses are produced by `CommitTicket::on_complete` callbacks that
//! run on the index writer thread. The reader thread never blocks on a
//! commit: it reserves an ordered response slot in the [`Outbox`] and
//! moves on to the next frame. The flusher wakes only when the *next*
//! response in order is ready, packs the contiguous ready responses into
//! socket writes of about 64 KiB, and sleeps again — so a connection with
//! hundreds of in-flight writes costs two parked threads total, not one
//! per write.
//! The index resolves every ticket of a group commit before it runs any
//! callback, so a write's callback can tell that the next write of its run
//! is about to fill the slot behind it and leave the wake to that fill:
//! the flusher wakes once per (connection, commit), not once per write.
//!
//! Reads and temporal statements run inline on the reader thread. A run
//! of consecutive searches or stabs is one batched index call; a run of
//! consecutive `RECORD` / `AS OF` / `WITHIN` statements takes the temporal
//! table lock once, executes in request order, and formats its replies
//! only after the lock is released. Either kind of run fills all its
//! replies with one outbox call, which wakes the flusher at most once.
//!
//! Backpressure is two-layered: the submission queue rejects writes with
//! `BUSY depth=…` when the writer is behind (admission control), and the
//! outbox caps reserved-but-unflushed responses, suspending the reader —
//! which stops draining the socket and lets TCP push back on the client.

use crate::backend::DIMS;
use crate::frame::{encode_response, FrameDecoder, Mode};
use crate::parser::{parse, Statement};
use crate::server::Shared;
use crate::telemetry::ConnStats;
use segidx_concurrent::{CommitTicket, IndexOp, SubmitError};
use segidx_core::RecordId;
use segidx_geom::{Interval, Point, Rect};
use segidx_obs::OpClass;
use segidx_temporal::{TemporalError, TemporalTable, Version, VersionId};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Cap on reserved-but-unflushed responses per connection. Hitting it
/// suspends the reader (TCP backpressure), it does not drop anything.
const OUTBOX_CAPACITY: usize = 64 * 1024;

/// The flusher packs ready responses into socket writes of about this
/// many bytes (a single larger response goes alone), so a burst of large
/// replies is never copied into one buffer of its whole size.
const FLUSH_CHUNK_BYTES: usize = 64 * 1024;

/// A temporal run releases the table lock once the query results it
/// holds reach this many rows (48 bytes each): the results wait for
/// formatting, and the lock wait of other connections grows with them.
/// RECORDs hold no rows, so a run of them takes the lock once.
const TEMPORAL_ROWS_PER_LOCK: usize = 4096;

/// Ordered response slots shared by the reader, the flusher, and commit
/// callbacks. `reserve` hands out sequence numbers in request order;
/// `fill` may complete them in any order; the flusher only ever sends the
/// contiguous filled prefix.
pub(crate) struct Outbox {
    inner: Mutex<OutboxInner>,
    /// Signals the flusher: front slot filled, closed, or aborted.
    ready: Condvar,
    /// Signals the reader: capacity freed. Notified only while someone
    /// waits on it (see `OutboxInner::space_waiters`), except by `abort`.
    space: Condvar,
}

struct OutboxInner {
    slots: VecDeque<Option<Vec<u8>>>,
    /// Length of the filled prefix of `slots`: what the flusher can send.
    ready: usize,
    /// Sequence number of `slots[0]`.
    base: u64,
    /// Next sequence number to hand out.
    next: u64,
    /// No more reservations will arrive (reader is done).
    closed: bool,
    /// Socket is dead; discard instead of buffering.
    aborted: bool,
    /// Threads blocked in `reserve` at capacity. The flusher notifies
    /// `space` only when this is non-zero: a condvar notify costs a wake
    /// syscall even when nobody waits, and the flusher frees space on
    /// every chunk it sends.
    space_waiters: usize,
}

impl OutboxInner {
    /// Grows the sendable prefix over every filled slot behind it.
    fn extend_ready(&mut self) {
        while self.slots.get(self.ready).is_some_and(Option::is_some) {
            self.ready += 1;
        }
    }
}

impl Outbox {
    fn new() -> Self {
        Self {
            inner: Mutex::new(OutboxInner {
                slots: VecDeque::new(),
                ready: 0,
                base: 0,
                next: 0,
                closed: false,
                aborted: false,
                space_waiters: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Reserves the next in-order response slot, blocking while the
    /// outbox is at capacity.
    fn reserve(&self) -> u64 {
        let mut g = self.inner.lock().unwrap();
        while g.slots.len() >= OUTBOX_CAPACITY && !g.aborted {
            g.space_waiters += 1;
            g = self.space.wait(g).unwrap();
            g.space_waiters -= 1;
        }
        g.slots.push_back(None);
        let seq = g.next;
        g.next += 1;
        seq
    }

    /// Completes slot `seq`. Safe from any thread, in any order.
    ///
    /// `next` is set when `seq` answers a write whose run continues with
    /// the write behind `next`. The flusher is woken when the fill extends
    /// the sendable prefix — unless `next` is already resolved and its
    /// slot, right behind this one, is still empty: then `next`'s own fill
    /// is bound to follow and carries the wake, so a run of writes that
    /// commit together costs one flusher wake. (Skipping whenever `next`
    /// is resolved is not enough: on a sharded index `next` may have
    /// resolved and filled first, on another writer, and nobody would
    /// wake the flusher.)
    fn fill(&self, seq: u64, bytes: Vec<u8>, next: Option<&CommitTicket>) {
        let mut g = self.inner.lock().unwrap();
        if g.aborted {
            return;
        }
        let idx = (seq - g.base) as usize;
        g.slots[idx] = Some(bytes);
        if idx != g.ready {
            // An earlier slot is still empty; its fill extends the prefix.
            return;
        }
        g.extend_ready();
        let carried = g.ready == idx + 1 && next.is_some_and(|t| t.try_receipt().is_some());
        if !carried {
            self.ready.notify_one();
        }
    }

    /// Completes several slots under one lock and wakes the flusher at
    /// most once: only if the sendable prefix grew.
    fn fill_many(&self, replies: impl IntoIterator<Item = (u64, Vec<u8>)>) {
        let mut g = self.inner.lock().unwrap();
        if g.aborted {
            return;
        }
        for (seq, bytes) in replies {
            let idx = (seq - g.base) as usize;
            g.slots[idx] = Some(bytes);
        }
        let before = g.ready;
        g.extend_ready();
        if g.ready > before {
            self.ready.notify_one();
        }
    }

    /// Marks that no further reservations will be made; the flusher exits
    /// once everything reserved has been filled and sent.
    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_one();
    }

    /// Drops all pending output (socket died) and unblocks both sides.
    fn abort(&self) {
        let mut g = self.inner.lock().unwrap();
        g.aborted = true;
        g.slots.clear();
        g.ready = 0;
        self.ready.notify_one();
        self.space.notify_all();
    }

    /// Blocks until at least one in-order response is ready, then returns
    /// the whole contiguous ready prefix as one buffer. `None` means the
    /// connection is finished (closed and drained, or aborted).
    fn next_chunk(&self) -> Option<Vec<u8>> {
        let mut g = self.inner.lock().unwrap();
        loop {
            if g.aborted {
                return None;
            }
            if g.ready > 0 {
                let mut buf = Vec::new();
                let mut taken = 0;
                while taken < g.ready && (taken == 0 || buf.len() < FLUSH_CHUNK_BYTES) {
                    let bytes = g.slots.pop_front().flatten();
                    buf.extend_from_slice(&bytes.expect("ready slots are filled"));
                    taken += 1;
                }
                g.ready -= taken;
                g.base += taken as u64;
                if g.space_waiters > 0 {
                    self.space.notify_all();
                }
                return Some(buf);
            }
            if g.closed && g.slots.is_empty() {
                return None;
            }
            g = self.ready.wait(g).unwrap();
        }
    }
}

/// A statement validated against the index dimensionality, ready to
/// execute (or an error response ready to send).
enum Prepared {
    Search(Rect<DIMS>),
    Stab(Point<DIMS>),
    Write(IndexOp<DIMS>),
    Nearest(Point<DIMS>, usize),
    Record {
        key: u64,
        value: f64,
        at: f64,
    },
    AsOf(f64),
    Within {
        t1: f64,
        t2: f64,
        lo: f64,
        hi: f64,
    },
    Flush,
    Stats,
    Metrics,
    /// Response already decided: PONG, parse errors, validation errors.
    Reply(String),
}

impl Prepared {
    /// `RECORD`, `AS OF` and `WITHIN`: statements on the temporal table.
    fn is_temporal(&self) -> bool {
        matches!(
            self,
            Prepared::Record { .. } | Prepared::AsOf(_) | Prepared::Within { .. }
        )
    }
}

struct Pending {
    seq: u64,
    mode: Mode,
    t0: Instant,
    prepared: Prepared,
}

fn point2(p: &[f64]) -> Result<Point<DIMS>, String> {
    if p.len() != DIMS {
        return Err(format!("expected {DIMS} coordinates, got {}", p.len()));
    }
    Ok(Point::new([p[0], p[1]]))
}

fn rect2(lo: &[f64], hi: &[f64]) -> Result<Rect<DIMS>, String> {
    let lo = point2(lo)?;
    let hi = point2(hi)?;
    Rect::checked(*lo.coords(), *hi.coords())
        .ok_or_else(|| "invalid rectangle: each lo must be <= the matching hi".to_string())
}

fn prepare(text: &str, stats: &ConnStats) -> Prepared {
    let stmt = match parse(text) {
        Ok(s) => s,
        Err(e) => {
            stats.count_parse_error();
            return Prepared::Reply(format!("ERR parse {e}"));
        }
    };
    stats.count_request(stmt.op_name());
    let validated = match stmt {
        Statement::Insert { lo, hi, id } => rect2(&lo, &hi).map(|rect| {
            Prepared::Write(IndexOp::Insert {
                rect,
                record: RecordId(id),
            })
        }),
        Statement::Delete { id, lo, hi } => rect2(&lo, &hi).map(|rect| {
            Prepared::Write(IndexOp::Delete {
                rect,
                record: RecordId(id),
            })
        }),
        Statement::Search { lo, hi } => rect2(&lo, &hi).map(Prepared::Search),
        Statement::Stab { point } => point2(&point).map(Prepared::Stab),
        Statement::Nearest { point, k } => point2(&point).map(|p| Prepared::Nearest(p, k)),
        Statement::Record { key, value, at } => Ok(Prepared::Record { key, value, at }),
        Statement::AsOf { t } => Ok(Prepared::AsOf(t)),
        Statement::Within { t1, t2, lo, hi } => {
            if t2 < t1 {
                Err(format!("invalid time window: {t1} > {t2}"))
            } else if hi < lo {
                Err(format!("invalid duration band: {lo} > {hi}"))
            } else {
                Ok(Prepared::Within { t1, t2, lo, hi })
            }
        }
        Statement::Flush => Ok(Prepared::Flush),
        Statement::Ping => Ok(Prepared::Reply("PONG".to_string())),
        Statement::Stats => Ok(Prepared::Stats),
        Statement::Metrics => Ok(Prepared::Metrics),
    };
    validated.unwrap_or_else(|msg| Prepared::Reply(format!("ERR exec {msg}")))
}

/// `ROWS <n> <id>…` with ids sorted ascending, so responses depend only
/// on index *contents*, never on tree shape — the property the load
/// generator's serial model replay checks bit-for-bit.
fn rows_response(mut ids: Vec<RecordId>) -> String {
    ids.sort_unstable_by_key(|r| r.0);
    let mut out = String::new();
    let _ = write!(out, "ROWS {}", ids.len());
    for id in ids {
        let _ = write!(out, " {}", id.0);
    }
    out
}

/// `VERS <n> <id>:<key>=<value>…` with versions sorted by id — like
/// [`rows_response`], the reply depends only on table contents, never on
/// the backing tier layout.
fn vers_response(mut versions: Vec<(VersionId, Version)>) -> String {
    versions.sort_unstable_by_key(|(id, _)| id.0);
    let mut out = String::new();
    let _ = write!(out, "VERS {}", versions.len());
    for (id, v) in versions {
        let _ = write!(out, " {}:{}={:?}", id.0, v.key, v.value);
    }
    out
}

/// What a temporal statement produced under the table lock; formatted
/// into its reply only after the lock is released.
enum TemporalOutcome {
    Recorded(Result<VersionId, TemporalError>),
    Versions(Result<Vec<(VersionId, Version)>, TemporalError>),
}

fn execute_temporal(table: &mut TemporalTable, prepared: &Prepared) -> TemporalOutcome {
    match *prepared {
        Prepared::Record { key, value, at } => {
            TemporalOutcome::Recorded(table.try_insert(key, value, at))
        }
        Prepared::AsOf(t) => TemporalOutcome::Versions(table.try_as_of(t)),
        Prepared::Within { t1, t2, lo, hi } => {
            TemporalOutcome::Versions(table.try_within(Interval::new(t1, t2), lo, hi))
        }
        _ => unreachable!("not a temporal statement"),
    }
}

fn encoded(mode: Mode, text: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_response(mode, text, &mut buf);
    buf
}

fn fill_reply(outbox: &Outbox, seq: u64, mode: Mode, text: &str) {
    outbox.fill(seq, encoded(mode, text), None);
}

/// Answers a run of searches or stabs with one outbox fill.
fn fill_rows(
    outbox: &Outbox,
    stats: &ConnStats,
    items: &[Pending],
    results: impl IntoIterator<Item = Vec<RecordId>>,
) {
    let replies: Vec<(u64, Vec<u8>)> = items
        .iter()
        .zip(results)
        .map(|(item, ids)| (item.seq, encoded(item.mode, &rows_response(ids))))
        .collect();
    outbox.fill_many(replies);
    for item in items {
        stats.read_latency.record_duration(item.t0.elapsed());
    }
}

/// Executes one batch of decoded frames. Consecutive searches, stabs, and
/// writes are executed as single batched calls into the index;
/// consecutive temporal statements share one acquisition of the table
/// lock.
fn execute_batch(
    shared: &Shared,
    stats: &Arc<ConnStats>,
    outbox: &Arc<Outbox>,
    items: Vec<Pending>,
) {
    let mut i = 0;
    while i < items.len() {
        match &items[i].prepared {
            Prepared::Search(_) => {
                let mut j = i;
                let mut queries = Vec::new();
                while j < items.len() {
                    match &items[j].prepared {
                        Prepared::Search(r) => queries.push(*r),
                        _ => break,
                    }
                    j += 1;
                }
                let _trace = shared.tracer.start(OpClass::Search, "server.search_batch");
                let results = shared.backend.search_many(&queries);
                fill_rows(outbox, stats, &items[i..j], results);
                i = j;
            }
            Prepared::Stab(_) => {
                let mut j = i;
                let mut points = Vec::new();
                while j < items.len() {
                    match &items[j].prepared {
                        Prepared::Stab(p) => points.push(*p),
                        _ => break,
                    }
                    j += 1;
                }
                let _trace = shared.tracer.start(OpClass::Stab, "server.stab_batch");
                let results = shared.backend.stab_many(&points);
                fill_rows(outbox, stats, &items[i..j], results);
                i = j;
            }
            Prepared::Write(_) => {
                let mut j = i;
                let mut ops = Vec::new();
                while j < items.len() {
                    match &items[j].prepared {
                        Prepared::Write(op) => ops.push(*op),
                        _ => break,
                    }
                    j += 1;
                }
                let submitted = shared.backend.submit_batch(ops);
                for (k, (item, res)) in items[i..j].iter().zip(&submitted).enumerate() {
                    match res {
                        Ok(ticket) => {
                            let outbox = Arc::clone(outbox);
                            let stats = Arc::clone(stats);
                            let (seq, mode, t0) = (item.seq, item.mode, item.t0);
                            let next = submitted.get(k + 1).and_then(|r| r.as_ref().ok()).cloned();
                            // Completion runs on the index writer thread;
                            // nothing on this connection parks waiting.
                            ticket.on_complete(move |result| {
                                let text = match result {
                                    Ok(receipt) => format!("OK epoch={}", receipt.epoch),
                                    Err(e) => format!("ERR commit {e}"),
                                };
                                stats.write_latency.record_duration(t0.elapsed());
                                outbox.fill(seq, encoded(mode, &text), next.as_ref());
                            });
                        }
                        Err(SubmitError::Overloaded { depth }) => {
                            stats.count_busy();
                            fill_reply(outbox, item.seq, item.mode, &format!("BUSY depth={depth}"));
                        }
                        Err(SubmitError::Closed) => {
                            fill_reply(
                                outbox,
                                item.seq,
                                item.mode,
                                "ERR commit submission queue closed",
                            );
                        }
                    }
                }
                i = j;
            }
            Prepared::Nearest(p, k) => {
                let _trace = shared.tracer.start(OpClass::Nearest, "server.nearest");
                let mut hits = shared.backend.nearest(p, *k);
                hits.sort_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0 .0.cmp(&b.0 .0))
                });
                let mut text = format!("NEAR {}", hits.len());
                for (id, dist) in hits {
                    let _ = write!(text, " {}={dist:?}", id.0);
                }
                fill_reply(outbox, items[i].seq, items[i].mode, &text);
                stats.read_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
            Prepared::Record { .. } | Prepared::AsOf(_) | Prepared::Within { .. } => {
                // One lock for the whole run (up to a row budget),
                // released before any reply is formatted.
                let mut j = i;
                let mut outcomes = Vec::new();
                {
                    let mut table = shared.temporal.lock().unwrap();
                    let mut rows = 0;
                    while j < items.len()
                        && items[j].prepared.is_temporal()
                        && rows < TEMPORAL_ROWS_PER_LOCK
                    {
                        let outcome = execute_temporal(&mut table, &items[j].prepared);
                        if let TemporalOutcome::Versions(Ok(versions)) = &outcome {
                            rows += versions.len();
                        }
                        outcomes.push(outcome);
                        j += 1;
                    }
                }
                let run = &items[i..j];
                let replies: Vec<(u64, Vec<u8>)> = run
                    .iter()
                    .zip(outcomes)
                    .map(|(item, outcome)| {
                        let text = match outcome {
                            TemporalOutcome::Recorded(Ok(id)) => format!("OK version={}", id.0),
                            TemporalOutcome::Versions(Ok(versions)) => vers_response(versions),
                            TemporalOutcome::Recorded(Err(e))
                            | TemporalOutcome::Versions(Err(e)) => format!("ERR exec {e}"),
                        };
                        (item.seq, encoded(item.mode, &text))
                    })
                    .collect();
                outbox.fill_many(replies);
                for item in run {
                    let latency = match item.prepared {
                        Prepared::Record { .. } => &stats.write_latency,
                        _ => &stats.read_latency,
                    };
                    latency.record_duration(item.t0.elapsed());
                }
                i = j;
            }
            Prepared::Flush => {
                let text = match shared.backend.flush() {
                    Ok(epoch) => format!("OK epoch={epoch}"),
                    Err(e) => format!("ERR commit {e}"),
                };
                fill_reply(outbox, items[i].seq, items[i].mode, &text);
                stats.read_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
            Prepared::Stats => {
                let text = format!(
                    "STATS {} records={} epoch={}",
                    shared.stats.summary_line(),
                    shared.backend.len(),
                    shared.backend.epoch(),
                );
                fill_reply(outbox, items[i].seq, items[i].mode, &text);
                stats.read_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
            Prepared::Metrics => {
                let json = shared.registry.snapshot().to_json();
                fill_reply(outbox, items[i].seq, items[i].mode, &json);
                stats.read_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
            Prepared::Reply(text) => {
                fill_reply(outbox, items[i].seq, items[i].mode, text);
                stats.read_latency.record_duration(items[i].t0.elapsed());
                i += 1;
            }
        }
    }
}

/// Serves one accepted connection to completion. Called on the dedicated
/// reader thread; spawns (and joins) the flusher thread itself.
pub(crate) fn serve(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let stats = shared.stats.open_connection();
    let outbox = Arc::new(Outbox::new());

    let flusher = {
        let mut write_half = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                shared.stats.close_connection(&stats);
                return;
            }
        };
        let outbox = Arc::clone(&outbox);
        let stats = Arc::clone(&stats);
        std::thread::spawn(move || {
            while let Some(chunk) = outbox.next_chunk() {
                if write_half.write_all(&chunk).is_err() {
                    outbox.abort();
                    break;
                }
                stats.add_bytes_written(chunk.len() as u64);
            }
            let _ = write_half.shutdown(Shutdown::Write);
        })
    };

    let mut read_half = stream;
    let mut decoder = FrameDecoder::with_max_frame(shared.max_frame);
    let mut buf = vec![0u8; 64 * 1024];
    'conn: loop {
        let n = match read_half.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        stats.add_bytes_read(n as u64);
        decoder.feed(&buf[..n]);

        // Drain every complete frame from this read before executing, so
        // pipelined requests batch into single index calls.
        let mut items = Vec::new();
        let mut fatal = None;
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    stats.count_frame(frame.mode);
                    let t0 = Instant::now();
                    let prepared = prepare(&frame.text, &stats);
                    let seq = outbox.reserve();
                    items.push(Pending {
                        seq,
                        mode: frame.mode,
                        t0,
                        prepared,
                    });
                }
                Ok(None) => break,
                Err(e) => {
                    stats.count_protocol_error();
                    fatal = Some(e);
                    break;
                }
            }
        }
        let fatal_seq = fatal.as_ref().map(|_| outbox.reserve());
        execute_batch(&shared, &stats, &outbox, items);
        if let (Some(e), Some(seq)) = (fatal, fatal_seq) {
            // The stream is undecodable from here: answer in line mode
            // (readable either way) and drop the connection.
            fill_reply(&outbox, seq, Mode::Line, &format!("ERR protocol {e}"));
            break 'conn;
        }
    }

    outbox.close();
    let _ = flusher.join();
    shared.stats.close_connection(&stats);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flusher notifies `space` only while someone waits on it; a
    /// reader blocked at capacity must still be released by the next
    /// chunk sent.
    #[test]
    fn reader_blocked_at_capacity_resumes_after_a_flush() {
        let outbox = Arc::new(Outbox::new());
        for seq in 0..OUTBOX_CAPACITY as u64 {
            assert_eq!(outbox.reserve(), seq);
        }
        let reader = {
            let outbox = Arc::clone(&outbox);
            std::thread::spawn(move || outbox.reserve())
        };
        while outbox.inner.lock().unwrap().space_waiters == 0 {
            std::thread::yield_now();
        }
        outbox.fill(0, b"a".to_vec(), None);
        assert_eq!(outbox.next_chunk(), Some(b"a".to_vec()));
        assert_eq!(reader.join().unwrap(), OUTBOX_CAPACITY as u64);
        assert_eq!(outbox.inner.lock().unwrap().space_waiters, 0);
    }

    /// A burst of large replies leaves in chunks of about
    /// `FLUSH_CHUNK_BYTES`, and the replies a chunk leaves behind stay
    /// ready to send.
    #[test]
    fn flush_chunks_are_capped_and_the_rest_stays_ready() {
        let outbox = Outbox::new();
        let big = vec![b'x'; FLUSH_CHUNK_BYTES / 2 + 1];
        let replies: Vec<(u64, Vec<u8>)> =
            (0..3).map(|_| (outbox.reserve(), big.clone())).collect();
        outbox.fill_many(replies);
        assert_eq!(outbox.next_chunk().map(|c| c.len()), Some(2 * big.len()));
        assert_eq!(outbox.inner.lock().unwrap().ready, 1);
        assert_eq!(outbox.next_chunk().map(|c| c.len()), Some(big.len()));
        outbox.close();
        assert_eq!(outbox.next_chunk(), None);
    }
}
