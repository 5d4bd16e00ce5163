//! The socket-level run: boot the real server binary, preload it, drive
//! the measured phases over two connections, and check every reply.

use crate::gen::{Class, Stmt, Stream};
use crate::wire::{frame, Conn};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Replies arriving this long after an open-loop phase ends count as
/// failed (unanswered) rather than as latency samples.
const GRACE: Duration = Duration::from_secs(2);
/// In-flight statements per connection while preloading and verifying.
const PRELOAD_DEPTH: usize = 512;

/// A running `segidx_server` child process; killed and reaped on drop.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts the binary on a free port and waits for `READY <addr>`.
    pub fn spawn(bin: &str, shards: usize) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--shards", &shards.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("READY ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "server did not print READY: {line:?}"
                )));
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// CPU time the server process has used so far, user plus system,
    /// in seconds. Time the hypervisor stole is not in it.
    pub fn cpu_seconds(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // After the parenthesised command name, utime and stime are the
        // 12th and 13th fields, in clock ticks.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let ticks: u64 = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|t| t.parse::<u64>().ok())
            .sum();
        ticks as f64 / clock_ticks_per_second()
    }

    /// The server's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` takes a plain integer and touches no memory of
    // ours; `_SC_CLK_TCK` is 2 on Linux.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Failure tallies of one connection.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub busy: u64,
    pub err: u64,
    /// Answered after the open-loop grace period.
    pub unanswered: u64,
    /// Replies of the wrong shape: a correctness failure, not load.
    pub malformed: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.busy + self.err + self.unanswered + self.malformed
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.busy += o.busy;
        self.err += o.err;
        self.unanswered += o.unanswered;
        self.malformed += o.malformed;
    }
}

/// A latency sample; `None` marks a failed request, which counts as
/// exceeding every percentile.
pub type Sample = (Class, Option<f64>);

/// The statement streams one connection sends, taken in turn.
pub struct Streams {
    list: Vec<Stream>,
    turn: usize,
}

impl Streams {
    pub fn next_stmt(&mut self) -> Stmt {
        let i = self.turn % self.list.len();
        self.turn += 1;
        self.list[i].next_stmt()
    }

    /// The latest RECORD timestamp any of the streams generated.
    pub fn clock(&self) -> u64 {
        self.list.iter().map(Stream::clock).max().unwrap_or(0)
    }
}

/// One connection of the run and everything it learned.
pub struct Client {
    pub conn: Conn,
    pub streams: Streams,
    /// Acknowledged writes in submission order, with the version id of
    /// each RECORD.
    pub acked: Vec<(Stmt, u64)>,
    pub tally: Tally,
}

/// What a reply says about its statement.
enum Verdict {
    Ok(u64),
    Busy,
    Err,
    Malformed,
}

fn judge(stmt: &Stmt, reply: &str) -> Verdict {
    let number = |prefix: &str| {
        reply
            .strip_prefix(prefix)
            .and_then(|n| n.parse::<u64>().ok())
    };
    let counted = |prefix: &str| -> Option<u64> {
        let mut it = reply.strip_prefix(prefix)?.split(' ');
        let n: u64 = it.next()?.parse().ok()?;
        (it.count() as u64 == n).then_some(n)
    };
    let ok = match stmt.class() {
        Class::Insert | Class::Delete => number("OK epoch="),
        Class::Record => number("OK version="),
        Class::Search | Class::Stab => counted("ROWS "),
        Class::AsOf | Class::Within => counted("VERS "),
    };
    match ok {
        Some(v) => Verdict::Ok(v),
        None if reply.starts_with("BUSY") => Verdict::Busy,
        None if reply.starts_with("ERR") => Verdict::Err,
        None => Verdict::Malformed,
    }
}

impl Client {
    /// A connection sending `streams` in turn.
    pub fn new(addr: &str, streams: Vec<Stream>) -> io::Result<Client> {
        Ok(Client {
            conn: Conn::connect(addr)?,
            streams: Streams {
                list: streams,
                turn: 0,
            },
            acked: Vec::new(),
            tally: Tally::default(),
        })
    }

    /// Records a reply; returns whether the statement succeeded.
    fn settle(&mut self, stmt: Stmt, reply: &str) -> bool {
        self.tally.attempted += 1;
        match judge(&stmt, reply) {
            Verdict::Ok(v) => {
                if stmt.class().is_write() {
                    self.acked.push((stmt, v));
                }
                true
            }
            Verdict::Busy => {
                self.tally.busy += 1;
                false
            }
            Verdict::Err => {
                eprintln!("perfbench: `{}` answered `{reply}`", stmt.text());
                self.tally.err += 1;
                false
            }
            Verdict::Malformed => {
                eprintln!("perfbench: `{}` answered malformed `{reply}`", stmt.text());
                self.tally.malformed += 1;
                false
            }
        }
    }

    /// Closed loop with up to `depth` statements in flight; `next` yields
    /// statements until it returns `None`. Returns the replies in order
    /// when `keep` is set.
    fn pipeline(
        &mut self,
        depth: usize,
        mut next: impl FnMut(&mut Streams) -> Option<Stmt>,
        keep: bool,
    ) -> io::Result<(u64, Vec<(Stmt, String)>)> {
        let mut inflight: VecDeque<Stmt> = VecDeque::with_capacity(depth);
        let mut out = Vec::new();
        let mut done = false;
        let mut completed = 0;
        let mut kept = Vec::new();
        loop {
            while !done && inflight.len() < depth {
                match next(&mut self.streams) {
                    Some(s) => {
                        frame(&s.text(), &mut out);
                        inflight.push_back(s);
                    }
                    None => done = true,
                }
            }
            if !out.is_empty() {
                self.conn.send(&out)?;
                out.clear();
            }
            if inflight.is_empty() {
                return Ok((completed, kept));
            }
            self.conn.fill()?;
            while let Some(reply) = self.conn.decoded() {
                let stmt = inflight.pop_front().ok_or_else(|| {
                    io::Error::other(format!("reply without a request: {reply:?}"))
                })?;
                if keep {
                    kept.push((stmt.clone(), reply.clone()));
                }
                self.settle(stmt, &reply);
                completed += 1;
            }
        }
    }

    /// Sends `stmts` pipelined and waits for every reply.
    pub fn preload(&mut self, stmts: &[Stmt]) -> io::Result<()> {
        let mut it = stmts.iter().cloned();
        self.pipeline(PRELOAD_DEPTH, |_| it.next(), false)?;
        Ok(())
    }

    /// `FLUSH`: returns once every write admitted so far is committed.
    pub fn flush(&mut self) -> io::Result<()> {
        let reply = self.conn.call("FLUSH")?;
        if reply.starts_with("OK epoch=") {
            Ok(())
        } else {
            Err(io::Error::other(format!("FLUSH answered {reply:?}")))
        }
    }

    /// Saturated phase: `depth` in flight until `until`, then drained.
    /// Returns statements completed.
    pub fn saturate(&mut self, until: Instant, depth: usize) -> io::Result<u64> {
        let (n, _) = self.pipeline(
            depth,
            |s| (Instant::now() < until).then(|| s.next_stmt()),
            false,
        )?;
        Ok(n)
    }

    /// Synchronous caller: one statement outstanding until `until`.
    pub fn synchronous(&mut self, until: Instant) -> io::Result<Vec<Sample>> {
        let mut samples = Vec::new();
        let mut out = Vec::new();
        while Instant::now() < until {
            let stmt = self.streams.next_stmt();
            out.clear();
            frame(&stmt.text(), &mut out);
            let t0 = Instant::now();
            self.conn.send(&out)?;
            let reply = self.conn.recv()?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let class = stmt.class();
            let ok = self.settle(stmt, &reply);
            samples.push((class, ok.then_some(ms)));
        }
        Ok(samples)
    }

    /// Open loop: one statement every `interval` from `start` until
    /// `until`, whatever the replies do. Latency runs from each
    /// statement's *scheduled* send time. Returns the samples and the
    /// generator's lateness (actual minus scheduled send), in ms.
    pub fn open_loop(
        &mut self,
        start: Instant,
        until: Instant,
        interval: Duration,
    ) -> io::Result<(Vec<Sample>, Vec<f64>)> {
        let mut samples = Vec::new();
        let mut lateness = Vec::new();
        let mut inflight: VecDeque<(Stmt, Instant)> = VecDeque::new();
        let mut out = Vec::new();
        let mut sent: u32 = 0;
        let due = |i: u32| start + interval * i;
        loop {
            let now = Instant::now();
            while due(sent) <= now && due(sent) < until {
                let stmt = self.streams.next_stmt();
                frame(&stmt.text(), &mut out);
                lateness.push((now - due(sent)).as_secs_f64() * 1e3);
                inflight.push_back((stmt, due(sent)));
                sent += 1;
            }
            if !out.is_empty() {
                self.conn.send(&out)?;
                out.clear();
            }
            let sending = due(sent) < until;
            if !sending && inflight.is_empty() {
                return Ok((samples, lateness));
            }
            let wake = if sending { due(sent) } else { until + GRACE };
            if !sending && Instant::now() >= wake {
                // Past the grace period: wait for the stragglers (keeps
                // the connection in step) but count them as failed.
                self.conn.fill()?;
            } else if !self.conn.wait_readable(wake) {
                continue;
            } else {
                self.conn.fill()?;
            }
            let at = Instant::now();
            while let Some(reply) = self.conn.decoded() {
                let (stmt, due_at) = inflight.pop_front().ok_or_else(|| {
                    io::Error::other(format!("reply without a request: {reply:?}"))
                })?;
                let class = stmt.class();
                let mut ok = self.settle(stmt, &reply);
                if ok && at > until + GRACE {
                    self.tally.unanswered += 1;
                    ok = false;
                }
                samples.push((class, ok.then(|| (at - due_at).as_secs_f64() * 1e3)));
            }
        }
    }

    /// Sends `queries` pipelined and returns each with its reply.
    pub fn ask(&mut self, queries: &[Stmt]) -> io::Result<Vec<(Stmt, String)>> {
        let mut it = queries.iter().cloned();
        let (_, kept) = self.pipeline(PRELOAD_DEPTH, |_| it.next(), true)?;
        Ok(kept)
    }
}
