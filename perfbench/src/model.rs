//! Serial models the server's answers are checked against. Nothing here
//! calls into the crates under test: intersection, stabbing and the
//! temporal validity rules are re-stated from the query language's
//! documented semantics.

use crate::gen::{Rect, Stmt};
use std::collections::HashMap;

/// The temporal table's horizon (`TemporalConfig::default`): open versions
/// are indexed up to it and their duration is measured to it.
const HORIZON: f64 = f64::MAX / 2.0;

/// Live spatial records: the preload plus every acknowledged write,
/// applied per connection in submission order.
#[derive(Default)]
pub struct SpatialModel {
    live: HashMap<u64, Rect>,
}

impl SpatialModel {
    pub fn apply(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Insert(id, r) => {
                self.live.insert(*id, *r);
            }
            Stmt::Delete(id, _) => {
                self.live.remove(id);
            }
            _ => {}
        }
    }

    /// The exact reply the server must give to a read statement.
    pub fn answer(&self, stmt: &Stmt) -> String {
        let hit = |r: &Rect| match stmt {
            Stmt::Search(q) => r[0] <= q[2] && q[0] <= r[2] && r[1] <= q[3] && q[1] <= r[3],
            Stmt::Stab(p) => r[0] <= p[0] && p[0] <= r[2] && r[1] <= p[1] && p[1] <= r[3],
            _ => unreachable!("not a spatial read"),
        };
        let mut ids: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, r)| hit(r))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        rows(&ids)
    }
}

/// `ROWS <n> <id>…`, ids ascending.
pub fn rows(ids: &[u64]) -> String {
    let mut out = format!("ROWS {}", ids.len());
    for id in ids {
        out.push(' ');
        out.push_str(&id.to_string());
    }
    out
}

#[derive(Clone, Copy)]
struct Version {
    id: u64,
    key: u64,
    value: f64,
    from: f64,
    to: Option<f64>,
}

/// The generator's own version log, filled from acknowledged RECORDs
/// (`OK version=<id>`) in per-connection order.
#[derive(Default)]
pub struct TemporalModel {
    versions: Vec<Version>,
    current: HashMap<u64, usize>,
}

impl TemporalModel {
    pub fn record(&mut self, key: u64, value: u64, at: u64, id: u64) {
        let at = at as f64;
        if let Some(&open) = self.current.get(&key) {
            let v = &mut self.versions[open];
            v.to = Some(at.max(v.from));
        }
        self.current.insert(key, self.versions.len());
        self.versions.push(Version {
            id,
            key,
            value: value as f64,
            from: at,
            to: None,
        });
    }

    /// The exact reply the server must give to `AS OF` / `WITHIN`.
    pub fn answer(&self, stmt: &Stmt) -> String {
        let keep = |v: &Version| match *stmt {
            // Valid over [from, to); open versions never end.
            Stmt::AsOf(t) => {
                let t = t as f64;
                v.from <= t && v.to.is_none_or(|to| t < to)
            }
            // Closed overlap with [t1, t2]; lifetime measured to the
            // horizon while open.
            Stmt::Within { t1, t2, lo, hi } => {
                let end = v.to.unwrap_or(HORIZON);
                let dur = end - v.from;
                v.from <= t2 as f64 && end >= t1 as f64 && dur >= lo as f64 && dur <= hi as f64
            }
            _ => unreachable!("not a temporal read"),
        };
        let mut hits: Vec<&Version> = self.versions.iter().filter(|v| keep(v)).collect();
        hits.sort_unstable_by_key(|v| v.id);
        let mut out = format!("VERS {}", hits.len());
        for v in hits {
            out.push_str(&format!(" {}:{}={:?}", v.id, v.key, v.value));
        }
        out
    }
}
