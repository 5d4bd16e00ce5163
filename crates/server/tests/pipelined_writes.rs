//! Flusher wake-ups under deep pipelines: one connection sends thousands
//! of statements in a single socket write, and every reply must come back,
//! in request order, within a bounded time. INSERTs run on one writer and
//! on two shard writers, whose commits resolve a run's consecutive ops out
//! of order; temporal statements run inline, a whole run under one table
//! lock. A lost flusher wake-up shows up here as a reply that never
//! arrives (the read times out), not as a hung test.

use segidx_concurrent::ZOrderRouter;
use segidx_geom::Rect;
use segidx_server::{BackendConfig, Server, ServerConfig};
use segidx_temporal::{TemporalConfig, TemporalTable};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const OPS: usize = 2_000;
const ROUNDS: usize = 16;
const DEADLINE: Duration = Duration::from_secs(30);

/// Record `id`'s rectangle: consecutive ids alternate between the left and
/// right half of the domain, so on two shards they route to different
/// writers (checked below).
fn rect(id: u64, domain: &Rect<2>) -> Rect<2> {
    let (lo, hi) = (domain.lo_coords(), domain.hi_coords());
    let half = (hi[0] - lo[0]) / 2.0;
    let x = lo[0] + (id % 2) as f64 * half + (id * 37 % 1_000) as f64;
    let y = lo[1] + (id * 113 % 100_000) as f64;
    Rect::new([x, y], [x + 5.0, y + 5.0])
}

fn pipelined_inserts_all_answered(shards: usize) {
    let backend = BackendConfig {
        shards,
        ..BackendConfig::default()
    };
    let domain = backend.domain;
    let router = ZOrderRouter::new(domain, shards);
    let server = Server::start(ServerConfig {
        backend,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(DEADLINE)).unwrap();
    let mut replies = BufReader::new(stream.try_clone().unwrap());

    // Per shard, the epoch of the last reply: replies in request order
    // carry non-decreasing epochs for the ops of any one shard.
    let mut last_epoch = vec![0u64; shards];
    for round in 0..ROUNDS as u64 {
        let ids: Vec<u64> = (round * OPS as u64..(round + 1) * OPS as u64).collect();
        let mut request = String::new();
        for &id in &ids {
            let r = rect(id, &domain);
            request.push_str(&format!(
                "INSERT RECT ({:?}, {:?}) ({:?}, {:?}) ID {id}\n",
                r.lo(0),
                r.lo(1),
                r.hi(0),
                r.hi(1)
            ));
        }
        stream.write_all(request.as_bytes()).unwrap();

        let started = Instant::now();
        for &id in &ids {
            let mut line = String::new();
            if let Err(e) = replies.read_line(&mut line) {
                panic!(
                    "{shards} shard(s), round {round}: reply to ID {id} missing after {:?}: {e}",
                    started.elapsed()
                );
            }
            let epoch: u64 = line
                .trim_end()
                .strip_prefix("OK epoch=")
                .unwrap_or_else(|| panic!("ID {id}: unexpected reply {line:?}"))
                .parse()
                .unwrap();
            let shard = router.route(&rect(id, &domain));
            assert_eq!(
                shard,
                (id % shards as u64) as usize,
                "consecutive ops alternate shards"
            );
            assert!(
                epoch >= last_epoch[shard],
                "ID {id}: epoch {epoch} after {} on shard {shard}: replies out of order",
                last_epoch[shard]
            );
            last_epoch[shard] = epoch;
        }
    }
    drop(replies);
    drop(stream);
    server.shutdown();
}

#[test]
fn pipelined_inserts_all_answered_on_one_writer() {
    pipelined_inserts_all_answered(1);
}

#[test]
fn pipelined_inserts_all_answered_on_two_shard_writers() {
    pipelined_inserts_all_answered(2);
}

/// Replays `statements` (RECORD / AS OF only) into a table, producing the
/// exact reply text the server must send for each.
fn model_replies(statements: &[String]) -> Vec<String> {
    let mut table = TemporalTable::new(TemporalConfig::default());
    statements
        .iter()
        .map(|stmt| {
            let words: Vec<&str> = stmt.split(' ').collect();
            match words[0] {
                "RECORD" => {
                    let key = words[1].parse().unwrap();
                    let value = words[3].parse().unwrap();
                    let at = words[5].parse().unwrap();
                    match table.try_insert(key, value, at) {
                        Ok(id) => format!("OK version={}", id.0),
                        Err(e) => format!("ERR exec {e}"),
                    }
                }
                _ => {
                    let versions = table.try_as_of(words[2].parse().unwrap()).unwrap();
                    let mut reply = format!("VERS {}", versions.len());
                    for (id, v) in versions {
                        let _ = write!(reply, " {}:{}={:?}", id.0, v.key, v.value);
                    }
                    reply
                }
            }
        })
        .collect()
}

/// A run of RECORDs with AS OF probes and one out-of-order RECORD in the
/// middle, sent as one socket write: replies arrive in order, the bad
/// RECORD gets a typed error without stopping the run, and each AS OF
/// sees exactly the RECORDs sent before it. The AS OF results add up to
/// more rows than one lock acquisition holds, so runs are also split.
#[test]
fn pipelined_temporal_run_answers_in_order() {
    const KEYS: u64 = 500;
    const RECORDS: u64 = 3_000;
    let mut statements = Vec::new();
    for i in 0..RECORDS {
        let (key, at) = (i % KEYS, (i / KEYS) as f64 * 10.0 + (i % KEYS) as f64 * 0.1);
        statements.push(format!(
            "RECORD {key} VALUE {:?} AT {at:?}",
            (i * 7 % 1_000) as f64
        ));
        if i == RECORDS / 2 {
            // Key 3 has been updated past t = 1 long before this.
            statements.push("RECORD 3 VALUE 5.0 AT 1.0".to_string());
        }
        if i % 100 == 99 {
            statements.push(format!("AS OF {at:?}"));
            statements.push(format!("AS OF {:?}", at / 2.0));
        }
    }
    let expected = model_replies(&statements);
    let bad = expected
        .iter()
        .filter(|r| r.starts_with("ERR exec out-of-order update for key 3"))
        .count();
    assert_eq!(bad, 1, "the model rejects exactly the one bad RECORD");

    let server = Server::start(ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(DEADLINE)).unwrap();
    let mut replies = BufReader::new(stream.try_clone().unwrap());
    let mut request = statements.join("\n");
    request.push('\n');
    stream.write_all(request.as_bytes()).unwrap();
    for (k, (stmt, want)) in statements.iter().zip(&expected).enumerate() {
        let mut line = String::new();
        if let Err(e) = replies.read_line(&mut line) {
            panic!("reply {k} to `{stmt}` missing: {e}");
        }
        assert_eq!(line.trim_end(), want, "reply {k} to `{stmt}`");
    }
    drop(replies);
    drop(stream);
    server.shutdown();
}
