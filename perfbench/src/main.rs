//! The repository benchmark.
//!
//! ```text
//! perfbench --server PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Boots the real `segidx_server` binary, preloads it, and drives one
//! workload over two TCP connections from two threads. `--trace 0`
//! measures the end-to-end metrics; `--trace 1` measures the depth-1
//! latencies again and then replays the same statements in-process
//! through each layer to produce the per-layer metrics and the ledger.
//! Both modes verify the server's answers against a serial model. The
//! last stdout line is the result object; the lines before it are the
//! full report. See README.md for the workloads and metrics.

mod drive;
mod gen;
mod ledger;
mod model;
mod report;
mod wire;

use drive::{Client, Sample, Server, Tally};
use gen::{Class, Inputs, Stmt, Workload, CONNS};
use model::{SpatialModel, TemporalModel};
use report::{median, pct, quantile, stamp, Obj};
use std::collections::BTreeMap;
use std::io;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Measurement rounds per run; each end-to-end metric is their median.
const ROUNDS: usize = 10;
/// Where reports and span files go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    server: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--server" => server = Some(value.clone()),
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Args {
        server: server.ok_or_else(|| missing("--server"))?,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `f` on every client at once, one thread each.
fn each<T: Send>(
    clients: &mut [Client],
    f: impl Fn(usize, &mut Client) -> io::Result<T> + Sync,
) -> io::Result<Vec<T>> {
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| scope.spawn(move || f(i, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Spawn → `READY` → preload → `FLUSH` acknowledged.
fn setup(args: &Args, inputs: &Inputs) -> io::Result<(Server, Vec<Client>, f64)> {
    let t0 = Instant::now();
    let server = Server::spawn(&args.server, args.workload.shards())?;
    // A traced run drives every stream over one connection, in the order
    // the single-threaded replay uses, so that the ledger's end-to-end
    // p50 carries no contention between connections.
    let mut clients = if args.trace {
        vec![Client::new(&server.addr, inputs.streams.clone())?]
    } else {
        inputs
            .streams
            .iter()
            .map(|s| Client::new(&server.addr, vec![s.clone()]))
            .collect::<io::Result<Vec<_>>>()?
    };
    // One connection carries the whole preload in generation order, so
    // the server builds the same index for the same seed on every run.
    clients[0].preload(&inputs.preload_order())?;
    clients[0].flush()?;
    let secs = t0.elapsed().as_secs_f64();
    for c in &mut clients {
        if c.tally.failed() > 0 {
            return Err(io::Error::other(format!("preload failed: {:?}", c.tally)));
        }
        c.tally = Tally::default();
    }
    Ok((server, clients, secs))
}

/// Replays every acknowledged write into the serial model and checks the
/// seeded verification queries against it.
fn verify(args: &Args, clients: &mut [Client]) -> io::Result<Verified> {
    for c in clients.iter_mut() {
        c.flush()?;
    }
    let clock = clients.iter().map(|c| c.streams.clock()).max().unwrap_or(0);
    let queries = gen::verification_queries(args.workload, args.seed, clock);
    let replies = clients[0].ask(&queries)?;
    let mut spatial = SpatialModel::default();
    let mut temporal = TemporalModel::default();
    for c in clients.iter() {
        for (stmt, version) in &c.acked {
            match *stmt {
                Stmt::Record { key, value, at } => temporal.record(key, value, at, *version),
                _ => spatial.apply(stmt),
            }
        }
    }
    let mut mismatches = 0;
    for (q, got) in &replies {
        let want = match q {
            Stmt::AsOf(_) | Stmt::Within { .. } => temporal.answer(q),
            _ => spatial.answer(q),
        };
        if *got != want {
            if mismatches < 3 {
                eprintln!(
                    "perfbench: MISMATCH `{}`\n  server: {:.200}\n  model:  {:.200}",
                    q.text(),
                    got,
                    want
                );
            }
            mismatches += 1;
        }
    }
    Ok(Verified {
        checked: replies.len(),
        mismatches,
    })
}

/// Latency summary of one phase: per class and per read/write group.
struct Latencies {
    by_class: BTreeMap<Class, Vec<Option<f64>>>,
    failed_as: f64,
}

impl Latencies {
    fn new(samples: Vec<Vec<Sample>>, phase: Duration) -> Latencies {
        let mut by_class: BTreeMap<Class, Vec<Option<f64>>> = BTreeMap::new();
        for (class, ms) in samples.into_iter().flatten() {
            by_class.entry(class).or_default().push(ms);
        }
        Latencies {
            by_class,
            failed_as: phase.as_secs_f64() * 1e3,
        }
    }

    /// Pools the samples of several phases.
    fn merge(parts: Vec<Latencies>) -> Latencies {
        let mut out = Latencies {
            by_class: BTreeMap::new(),
            failed_as: parts.iter().map(|p| p.failed_as).fold(0.0, f64::max),
        };
        for p in parts {
            for (class, v) in p.by_class {
                out.by_class.entry(class).or_default().extend(v);
            }
        }
        out
    }

    /// Requests measured.
    fn count(&self) -> u64 {
        self.by_class.values().map(|v| v.len() as u64).sum()
    }

    fn group(&self, writes: bool) -> Vec<Option<f64>> {
        self.by_class
            .iter()
            .filter(|(c, _)| c.is_write() == writes)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    fn q(&self, writes: bool, q: f64) -> f64 {
        quantile(&self.group(writes), q, self.failed_as)
    }

    fn report(&self) -> Obj {
        let mut o = Obj::default();
        for (class, v) in &self.by_class {
            let mut row = Obj::default();
            row.int("samples", v.len() as u64)
                .num("p50_ms", quantile(v, 0.5, self.failed_as))
                .num("p99_ms", quantile(v, 0.99, self.failed_as))
                .num("max_ms", quantile(v, 1.0, self.failed_as));
            o.obj(class.name(), &row);
        }
        o
    }
}

/// Every metric the result line can carry, with its unit (as in
/// `BENCHMARK.json`).
const UNITS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("frame.decode_ns", "ns"),
    ("frame.encode_ns", "ns"),
    ("frame.response_bytes", "bytes"),
    ("parser.parse_ns", "ns"),
    ("snapshot.pin_ns", "ns"),
    ("engine.search_p50_ns", "ns"),
    ("engine.search_p99_ns", "ns"),
    ("engine.stab_ns", "ns"),
    ("engine.nodes_per_query", "count"),
    ("engine.results_per_query", "count"),
    ("engine.results_per_node", "fraction"),
    ("engine.write_nodes_per_op", "count"),
    ("engine.splits_per_kop", "count"),
    ("commit.submit_ns", "ns"),
    ("commit.queue_wait_ns", "ns"),
    ("commit.apply_ns", "ns"),
    ("commit.publish_ns", "ns"),
    ("commit.ops_per_commit", "count"),
    ("commit.busy_share", "fraction"),
    ("shard.pin_ns", "ns"),
    ("shard.scatter_overhead_ns", "ns"),
    ("shard.fanout", "count"),
    ("shard.useful_fanout", "fraction"),
    ("shard.imbalance", "count"),
    ("temporal.record_ns", "ns"),
    ("temporal.record_max_ms", "ms"),
    ("temporal.seals", "count"),
    ("temporal.merges", "count"),
    ("temporal.rewrite_ratio", "fraction"),
    ("temporal.asof_ns", "ns"),
    ("temporal.within_ns", "ns"),
    ("temporal.tiers_per_query", "count"),
    ("temporal.rows_per_query", "count"),
    ("wire.residual_ns.search", "ns"),
    ("wire.residual_ns.stab", "ns"),
    ("wire.residual_ns.insert", "ns"),
    ("wire.residual_ns.delete", "ns"),
    ("wire.residual_ns.record", "ns"),
    ("wire.residual_ns.as_of", "ns"),
    ("wire.residual_ns.within", "ns"),
];

fn unit_of(name: &str) -> &'static str {
    UNITS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} has no unit"))
}

/// The end-to-end metrics the result line carries (`BENCHMARK.json`):
/// those whose run-to-run spread stays well inside their bound on a shared
/// 2-core virtual machine. The report line has every metric.
const END_TO_END: [&str; 2] = ["setup_s", "peak_rss_mb"];

/// Outcome of the verification queries.
struct Verified {
    checked: usize,
    mismatches: usize,
}

fn run(args: &Args) -> io::Result<()> {
    let ticks0 = report::cpu_ticks();
    let inputs = Inputs::generate(args.workload, args.seed);
    std::fs::create_dir_all(OUT_DIR)?;
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut report = Obj::default();
    report
        .obj("stamp", &stamp())
        .str("workload", args.workload.name())
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .num("open_loop_rate_ops_s", args.workload.open_loop_rate())
        .int("pipeline_depth", Workload::PIPELINE as u64);
    let (metrics, tally, verified) = if args.trace {
        traced(args, &inputs, &tag, &mut report)?
    } else {
        measured(args, &inputs, &mut report)?
    };

    let failed_share = tally.failed() as f64 / tally.attempted.max(1) as f64;
    let mut t = Obj::default();
    t.int("attempted", tally.attempted)
        .int("busy", tally.busy)
        .int("err", tally.err)
        .int("unanswered", tally.unanswered)
        .int("malformed", tally.malformed)
        .num("failed_share", failed_share);
    let (steal, total) = report::cpu_ticks();
    report
        .int("verify_checked", verified.checked as u64)
        .int("verify_mismatches", verified.mismatches as u64)
        .obj("requests", &t)
        .obj("metrics", &metrics)
        .num(
            "cpu_steal_share",
            (steal - ticks0.0) as f64 / (total - ticks0.1).max(1) as f64,
        );
    let text = report.render();
    std::fs::write(format!("{OUT_DIR}/report-{tag}.json"), &text)?;
    println!("{text}");

    let mut m = Obj::default();
    for (name, value) in metrics.entries() {
        if args.trace || END_TO_END.contains(&name) {
            let mut v = Obj::default();
            v.raw("value", value).str("unit", unit_of(name));
            m.obj(name, &v);
        }
    }
    let correct = verified.checked > 0 && verified.mismatches == 0 && tally.malformed == 0;
    let mut last = Obj::default();
    last.bool("correct", correct)
        .int("attempted", tally.attempted)
        .int("failed", tally.failed())
        .obj("metrics", &m);
    println!("{}", last.render());
    Ok(())
}

/// `--trace 0`: three set-ups, then ROUNDS rounds of (saturated,
/// synchronous, open loop), then verification. Each metric is the median
/// of its per-round values, so a burst of interference spoils one round
/// instead of the run.
fn measured(args: &Args, inputs: &Inputs, report: &mut Obj) -> io::Result<(Obj, Tally, Verified)> {
    let wl = args.workload;
    let s = args.seconds;
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let (server, clients, secs) = setup(args, inputs)?;
        setups.push(secs);
        // An earlier set-up's server is killed and reaped right here.
        kept = Some((server, clients));
    }
    let (server, mut clients) = kept.expect("at least one set-up");

    let mut per_round: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut sync_all = Vec::new();
    let mut open_all = Vec::new();
    let mut lateness = Vec::new();
    let (mut saturated_cpu, mut saturated_ops) = (0.0, 0);
    let (mut depth1_cpu, mut depth1_ops) = (0.0, 0);
    let phase = Duration::from_secs_f64(0.35 * s / ROUNDS as f64);
    let interval = Duration::from_secs_f64(CONNS as f64 / wl.open_loop_rate());
    for _ in 0..ROUNDS {
        let ticks = report::cpu_ticks();
        // Saturated: PIPELINE statements in flight per connection.
        let cpu0 = server.cpu_seconds();
        let t0 = Instant::now();
        let until = t0 + Duration::from_secs_f64(0.3 * s / ROUNDS as f64);
        let n: u64 = each(&mut clients, |_, c| c.saturate(until, Workload::PIPELINE))?
            .into_iter()
            .sum();
        let mut round = |k, v| per_round.entry(k).or_default().push(v);
        round("throughput_ops_s", n as f64 / t0.elapsed().as_secs_f64());
        saturated_cpu += server.cpu_seconds() - cpu0;
        saturated_ops += n;

        // Synchronous callers: one statement outstanding per connection.
        let cpu0 = server.cpu_seconds();
        let until = Instant::now() + phase;
        let sync = Latencies::new(each(&mut clients, |_, c| c.synchronous(until))?, phase);
        depth1_cpu += server.cpu_seconds() - cpu0;
        depth1_ops += sync.count();
        round("read_p50_ms", sync.q(false, 0.5));
        round("read_p99_ms", sync.q(false, 0.99));
        round("write_p50_ms", sync.q(true, 0.5));
        round("write_p99_ms", sync.q(true, 0.99));

        // Open loop at the workload's fixed rate, the connections offset
        // by half an interval so the merged schedule is even.
        let start = Instant::now() + Duration::from_millis(10);
        let until = start + phase;
        let runs = each(&mut clients, |i, c| {
            c.open_loop(start + interval * i as u32 / CONNS as u32, until, interval)
        })?;
        let mut samples = Vec::new();
        let mut late = Vec::new();
        for (s, l) in runs {
            samples.push(s);
            late.extend(l);
        }
        round("lateness_p99_ms", pct(&late, 0.99));
        lateness.extend(late);
        let open = Latencies::new(samples, phase);
        round("loaded_read_p99_ms", open.q(false, 0.99));
        round("loaded_write_p99_ms", open.q(true, 0.99));
        let (steal, total) = report::cpu_ticks();
        round(
            "steal_share",
            (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64,
        );
        sync_all.push(sync);
        open_all.push(open);
    }
    let mut tally = Tally::default();
    for c in &clients {
        tally.add(&c.tally);
    }
    let verified = verify(args, &mut clients)?;
    let mut metrics = Obj::default();
    metrics.num("setup_s", median(&setups));
    for name in [
        "throughput_ops_s",
        "read_p50_ms",
        "read_p99_ms",
        "write_p50_ms",
        "write_p99_ms",
        "loaded_read_p99_ms",
        "loaded_write_p99_ms",
    ] {
        metrics.num(name, median(&per_round[name]));
    }
    metrics
        .num("peak_rss_mb", server.peak_rss_mb())
        .num(
            "server_cpu_us_per_op",
            saturated_cpu * 1e6 / saturated_ops.max(1) as f64,
        )
        .num(
            "server_cpu_us_per_op_depth1",
            depth1_cpu * 1e6 / depth1_ops.max(1) as f64,
        );

    let sync = Latencies::merge(sync_all);
    let open = Latencies::merge(open_all);
    let mut rounds = Obj::default();
    for (k, v) in &per_round {
        rounds.raw(k, &format!("{v:?}"));
    }
    let mut setup_obj = Obj::default();
    for (i, v) in setups.iter().enumerate() {
        setup_obj.num(&i.to_string(), *v);
    }
    let mut late = Obj::default();
    late.num("p50_ms", pct(&lateness, 0.5))
        .num("p99_ms", pct(&lateness, 0.99))
        .num("max_ms", pct(&lateness, 1.0));
    report
        .obj("setup_s_samples", &setup_obj)
        .obj("rounds", &rounds)
        .obj("synchronous", &sync.report())
        .obj("open_loop", &open.report())
        .obj("open_loop_lateness", &late);
    Ok((metrics, tally, verified))
}

/// `--trace 1`: one set-up, the synchronous phase over one connection for
/// the ledger's end-to-end p50s, verification, then the in-process replay.
fn traced(
    args: &Args,
    inputs: &Inputs,
    tag: &str,
    report: &mut Obj,
) -> io::Result<(Obj, Tally, Verified)> {
    let (server, mut clients, _) = setup(args, inputs)?;
    let phase = Duration::from_secs_f64(0.4 * args.seconds);
    let until = Instant::now() + phase;
    let sync = Latencies::new(each(&mut clients, |_, c| c.synchronous(until))?, phase);
    let tally = clients[0].tally;
    let verified = verify(args, &mut clients)?;
    drop(clients);
    drop(server);
    let e2e: BTreeMap<Class, f64> = sync
        .by_class
        .iter()
        .map(|(c, v)| (*c, quantile(v, 0.5, sync.failed_as)))
        .collect();
    let spans = format!("{OUT_DIR}/spans-{tag}.jsonl");
    let (metrics, ledger, negative) = ledger::run(inputs, &e2e, &spans)?;
    if negative {
        eprintln!(
            "perfbench: FLAG negative wire residual: the replay does work the server does not"
        );
    }
    report
        .obj("synchronous", &sync.report())
        .obj("ledger", &ledger)
        .bool("negative_residual", negative)
        .str("spans_file", &spans);
    Ok((metrics, tally, verified))
}
