//! Seeded input generation: the preloaded data, each connection's
//! statement stream, and the verification queries.
//!
//! Everything here is a pure function of the `--seed` argument. The
//! server only ever sees the statement text produced below.

/// Side of the server's routing domain `[0, 10⁶]²`. The paper's domain is
/// `[0, 10⁵]²`; its data is scaled ×10 into this one so Z-order routing
/// spreads records over every shard instead of sending them all to shard 0.
const DOMAIN: f64 = 1_000_000.0;
/// Paper data is generated in paper units, then multiplied by this.
const SCALE: f64 = 10.0;
const PAPER_DOMAIN: f64 = 100_000.0;
/// Exponential length parameter of I3/R2 (paper §5: β = 2000).
const BETA_LEN: f64 = 2_000.0;
/// Paper query area (10⁶ paper units²).
const PAPER_QUERY_AREA: f64 = 1_000_000.0;
/// The paper's thirteen query aspect ratios (§5).
const QAR_SWEEP: [f64; 13] = [
    0.0001, 0.001, 0.01, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1000.0, 10000.0,
];
/// Record ids a connection allocates for new inserts start here, shifted
/// by the connection number, so connections never share an id.
const FRESH_ID_BASE: u64 = 1 << 40;
/// Temporal keys per connection; connection `c` owns `[c·K, (c+1)·K)`.
const KEYS_PER_CONN: u64 = 500;
/// Distinct values a RECORD may carry.
const VALUE_RANGE: u64 = 100_000;

/// Seed of the preloaded dataset, the same on every run.
const DATASET_SEED: u64 = 1991;

/// Connections the benchmark drives.
pub const CONNS: usize = 2;

/// SplitMix64: small, seedable, and independent of every crate under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn exponential(&mut self, beta: f64) -> f64 {
        -beta * (1.0 - self.unit()).ln()
    }
}

/// A rectangle as `[x0, y0, x1, y1]`.
pub type Rect = [f64; 4];

/// Statement classes, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Search,
    Stab,
    Insert,
    Delete,
    Record,
    AsOf,
    Within,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::Search,
        Class::Stab,
        Class::Insert,
        Class::Delete,
        Class::Record,
        Class::AsOf,
        Class::Within,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Search => "search",
            Class::Stab => "stab",
            Class::Insert => "insert",
            Class::Delete => "delete",
            Class::Record => "record",
            Class::AsOf => "as_of",
            Class::Within => "within",
        }
    }

    pub fn is_write(self) -> bool {
        matches!(self, Class::Insert | Class::Delete | Class::Record)
    }
}

/// One generated statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    Search(Rect),
    Stab([f64; 2]),
    Insert(u64, Rect),
    Delete(u64, Rect),
    Record { key: u64, value: u64, at: u64 },
    AsOf(u64),
    Within { t1: u64, t2: u64, lo: u64, hi: u64 },
}

impl Stmt {
    pub fn class(&self) -> Class {
        match self {
            Stmt::Search(_) => Class::Search,
            Stmt::Stab(_) => Class::Stab,
            Stmt::Insert(..) => Class::Insert,
            Stmt::Delete(..) => Class::Delete,
            Stmt::Record { .. } => Class::Record,
            Stmt::AsOf(_) => Class::AsOf,
            Stmt::Within { .. } => Class::Within,
        }
    }

    /// The statement text. Coordinates use `{:?}`, the shortest form that
    /// parses back to the same `f64`, so the server indexes exactly the
    /// rectangle the model holds.
    pub fn text(&self) -> String {
        match self {
            Stmt::Search(r) => format!(
                "SEARCH WINDOW ({:?}, {:?}) ({:?}, {:?})",
                r[0], r[1], r[2], r[3]
            ),
            Stmt::Stab(p) => format!("STAB POINT ({:?}, {:?})", p[0], p[1]),
            Stmt::Insert(id, r) => format!(
                "INSERT RECT ({:?}, {:?}) ({:?}, {:?}) ID {id}",
                r[0], r[1], r[2], r[3]
            ),
            Stmt::Delete(id, r) => format!(
                "DELETE ID {id} RECT ({:?}, {:?}) ({:?}, {:?})",
                r[0], r[1], r[2], r[3]
            ),
            Stmt::Record { key, value, at } => format!("RECORD {key} VALUE {value} AT {at}"),
            Stmt::AsOf(t) => format!("AS OF {t}"),
            Stmt::Within { t1, t2, lo, hi } => {
                format!("WITHIN ({t1}, {t2}) DURATION {lo} {hi}")
            }
        }
    }
}

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperWindow,
    Churn,
    ChurnSharded,
    TemporalHistory,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "paper-window" => Workload::PaperWindow,
            "churn" => Workload::Churn,
            "churn-sharded" => Workload::ChurnSharded,
            "temporal-history" => Workload::TemporalHistory,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperWindow => "paper-window",
            Workload::Churn => "churn",
            Workload::ChurnSharded => "churn-sharded",
            Workload::TemporalHistory => "temporal-history",
        }
    }

    /// `--shards` the server is started with.
    pub fn shards(self) -> usize {
        match self {
            Workload::ChurnSharded => 2,
            _ => 1,
        }
    }

    /// Open-loop offered rate over both connections, statements/s: fixed
    /// at roughly a third of the saturated throughput measured at seed 1
    /// on the parent commit, and never re-derived per run.
    pub fn open_loop_rate(self) -> f64 {
        match self {
            Workload::PaperWindow => 4_000.0,
            Workload::Churn => 2_100.0,
            Workload::ChurnSharded => 2_500.0,
            Workload::TemporalHistory => 1_800.0,
        }
    }

    /// In-flight statements per connection in the saturated phase.
    pub const PIPELINE: usize = 64;

    fn preload_records(self) -> u64 {
        match self {
            Workload::PaperWindow => 200_000,
            Workload::Churn | Workload::ChurnSharded => 300_000,
            Workload::TemporalHistory => 100_000,
        }
    }

    pub fn is_temporal(self) -> bool {
        self == Workload::TemporalHistory
    }
}

/// Paper I3 in scaled units: X an interval of exponential length around a
/// uniform centre, Y a uniform point value.
fn i3(rng: &mut Rng) -> Rect {
    let cx = rng.uniform(0.0, PAPER_DOMAIN);
    let len = rng.exponential(BETA_LEN);
    let y = rng.uniform(0.0, PAPER_DOMAIN);
    let x0 = (cx - len / 2.0).clamp(0.0, PAPER_DOMAIN);
    let x1 = (cx + len / 2.0).clamp(0.0, PAPER_DOMAIN);
    [x0 * SCALE, y * SCALE, x1 * SCALE, y * SCALE]
}

/// Paper R2 in scaled units: uniform centroid, exponential side lengths.
fn r2(rng: &mut Rng) -> Rect {
    let cx = rng.uniform(0.0, PAPER_DOMAIN);
    let cy = rng.uniform(0.0, PAPER_DOMAIN);
    let lx = rng.exponential(BETA_LEN);
    let ly = rng.exponential(BETA_LEN);
    [
        (cx - lx / 2.0).clamp(0.0, PAPER_DOMAIN) * SCALE,
        (cy - ly / 2.0).clamp(0.0, PAPER_DOMAIN) * SCALE,
        (cx + lx / 2.0).clamp(0.0, PAPER_DOMAIN) * SCALE,
        (cy + ly / 2.0).clamp(0.0, PAPER_DOMAIN) * SCALE,
    ]
}

/// A paper query window: area 10⁶ paper units (10⁸ scaled), one of the
/// thirteen QARs, centroid uniform over the domain.
fn paper_window(rng: &mut Rng) -> Rect {
    let qar = QAR_SWEEP[rng.below(QAR_SWEEP.len() as u64) as usize];
    let area = PAPER_QUERY_AREA * SCALE * SCALE;
    let (cx, cy) = (rng.uniform(0.0, DOMAIN), rng.uniform(0.0, DOMAIN));
    let (w, h) = ((area * qar).sqrt(), (area / qar).sqrt());
    [cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0]
}

fn point(rng: &mut Rng) -> [f64; 2] {
    [rng.uniform(0.0, DOMAIN), rng.uniform(0.0, DOMAIN)]
}

/// One connection's statement source. Cloning it replays the identical
/// stream, which is how the traced run sees what the socket run sent.
#[derive(Clone, Debug)]
pub struct Stream {
    workload: Workload,
    conn: u64,
    rng: Rng,
    /// Live records this connection owns and may delete (spatial): its
    /// share of the preload plus its own inserts.
    live: Vec<(u64, Rect)>,
    next_id: u64,
    /// Logical clock: every RECORD of this connection advances it by one,
    /// so each key's timestamps increase strictly.
    clock: u64,
}

impl Stream {
    /// The last RECORD timestamp this connection generated.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Generates the next measured statement.
    pub fn next_stmt(&mut self) -> Stmt {
        let u = self.rng.unit();
        match self.workload {
            Workload::PaperWindow => {
                // A 2% INSERT + 2% DELETE trickle keeps every write metric
                // defined on this read workload.
                if u < 0.02 {
                    self.insert(i3)
                } else if u < 0.04 {
                    self.delete()
                } else {
                    Stmt::Search(paper_window(&mut self.rng))
                }
            }
            Workload::Churn | Workload::ChurnSharded => {
                if u < 0.4 {
                    self.insert(r2)
                } else if u < 0.8 {
                    self.delete()
                } else {
                    Stmt::Stab(point(&mut self.rng))
                }
            }
            Workload::TemporalHistory => {
                if u < 0.70 {
                    self.record()
                } else if u < 0.85 {
                    Stmt::AsOf(1 + self.rng.below(self.clock))
                } else {
                    let t1 = self.rng.below(self.clock + 1);
                    let t2 = t1 + self.rng.below(500);
                    let lo = self.rng.below(1_000);
                    Stmt::Within {
                        t1,
                        t2,
                        lo,
                        hi: lo + 100,
                    }
                }
            }
        }
    }

    fn insert(&mut self, shape: fn(&mut Rng) -> Rect) -> Stmt {
        let rect = shape(&mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        self.live.push((id, rect));
        Stmt::Insert(id, rect)
    }

    fn delete(&mut self) -> Stmt {
        let i = self.rng.below(self.live.len() as u64) as usize;
        let (id, rect) = self.live.swap_remove(i);
        Stmt::Delete(id, rect)
    }

    fn record(&mut self) -> Stmt {
        self.clock += 1;
        Stmt::Record {
            key: self.conn * KEYS_PER_CONN + self.rng.below(KEYS_PER_CONN),
            value: self.rng.below(VALUE_RANGE),
            at: self.clock,
        }
    }
}

/// Everything one run sends: the preload of each connection and the
/// stream each connection continues with.
pub struct Inputs {
    pub workload: Workload,
    /// Per connection: the preload statements, in send order.
    pub preload: Vec<Vec<Stmt>>,
    /// Per connection: the measured stream, positioned after the preload.
    pub streams: Vec<Stream>,
}

impl Inputs {
    /// Both connections' preloads interleaved in generation order.
    pub fn preload_order(&self) -> Vec<Stmt> {
        let longest = self.preload.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| self.preload.iter().filter_map(move |p| p.get(i)))
            .cloned()
            .collect()
    }

    /// The preloaded dataset comes from the fixed [`DATASET_SEED`] (the
    /// paper, too, runs every experiment on one dataset per
    /// distribution); `seed` drives the measured streams.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let n = workload.preload_records();
        let mut preload = vec![Vec::new(); CONNS];
        let mut streams = Vec::new();
        if workload.is_temporal() {
            for c in 0..CONNS as u64 {
                let mut s = Stream {
                    workload,
                    conn: c,
                    rng: Rng::new(DATASET_SEED, 100 + c),
                    live: Vec::new(),
                    next_id: 0,
                    clock: 0,
                };
                for _ in 0..n / CONNS as u64 {
                    preload[c as usize].push(s.record());
                }
                s.rng = Rng::new(seed, 100 + c);
                streams.push(s);
            }
        } else {
            // One dataset, ids 0..n, dealt round-robin to the connections;
            // each connection later deletes only records it owns.
            let mut rng = Rng::new(DATASET_SEED, 1);
            let shape = if workload == Workload::PaperWindow {
                i3
            } else {
                r2
            };
            let mut live = vec![Vec::new(); CONNS];
            for id in 0..n {
                let rect = shape(&mut rng);
                let c = (id % CONNS as u64) as usize;
                preload[c].push(Stmt::Insert(id, rect));
                live[c].push((id, rect));
            }
            for (c, live) in live.into_iter().enumerate() {
                streams.push(Stream {
                    workload,
                    conn: c as u64,
                    rng: Rng::new(seed, 100 + c as u64),
                    live,
                    next_id: FRESH_ID_BASE * (c as u64 + 1),
                    clock: 0,
                });
            }
        }
        Inputs {
            workload,
            preload,
            streams,
        }
    }
}

/// Seeded verification queries, asked once the server is idle. Temporal
/// query times are drawn over `[1, clock]`, the history actually written.
pub fn verification_queries(workload: Workload, seed: u64, clock: u64) -> Vec<Stmt> {
    let mut rng = Rng::new(seed, 7);
    let mut out = Vec::new();
    for i in 0..256 {
        // Stabs almost never hit I3's degenerate (zero-height) segments,
        // so paper-window is checked with windows only.
        let window = i % 2 == 0 || workload == Workload::PaperWindow;
        out.push(match (workload.is_temporal(), window) {
            (false, true) => Stmt::Search(paper_window(&mut rng)),
            (false, false) => Stmt::Stab(point(&mut rng)),
            (true, true) => Stmt::AsOf(1 + rng.below(clock.max(1))),
            (true, false) => {
                let t1 = rng.below(clock + 1);
                let lo = rng.below(1_000);
                Stmt::Within {
                    t1,
                    t2: t1 + rng.below(500),
                    lo,
                    hi: lo + 100,
                }
            }
        });
    }
    out
}
