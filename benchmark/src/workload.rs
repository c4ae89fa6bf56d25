//! The three workloads. Each one boots a [`HiveServer`], loads its data,
//! and then hands out statements one at a time (closed loop, one client)
//! together with what a correct answer looks like. Read workloads check
//! every result against committed row digests; `acid_churn` checks every
//! result against an in-benchmark model of its table.

use crate::model::AcctModel;
use crate::rng::SplitMix;
use hive_benchdata::{ssb, tpcds};
use hive_common::HiveConf;
use hive_core::{HiveServer, QueryResult, Session};
use std::collections::{HashMap, VecDeque};

/// Data-generator seed of the read workloads. Their committed digests
/// were recorded for this seed; `--seed` shuffles the query order.
pub const DATA_SEED: u64 = 2019;

/// Statements of `acid_churn` per pass (the loop stops at pass ends).
const ACID_PASS_LEN: usize = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    TpcdsAdhoc,
    SsbScan,
    AcidChurn,
}

impl Name {
    pub const ALL: [Name; 3] = [Name::TpcdsAdhoc, Name::SsbScan, Name::AcidChurn];

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    /// Measured passes per episode (each episode runs on a freshly set-up
    /// server): a few seconds of statements on the bench host. An
    /// `acid_churn` episode is 300 statements, about 120 writes and some
    /// twenty auto-compactions, so every episode follows the same course of delta
    /// growth and compaction whatever the host's speed.
    pub fn episode_passes(self) -> usize {
        match self {
            Name::TpcdsAdhoc => 4,
            Name::SsbScan => 40,
            Name::AcidChurn => 5,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::TpcdsAdhoc => "tpcds_adhoc",
            Name::SsbScan => "ssb_scan",
            Name::AcidChurn => "acid_churn",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Tiny,
}

impl Scale {
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Bench => "bench",
            Scale::Tiny => "tiny",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

/// What a correct result looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Row count and FNV-1a digest of the displayed rows.
    Digest(usize, u64),
    /// `acid_churn`: compared against the model at check time.
    Model(crate::model::Op),
}

#[derive(Debug, Clone)]
pub struct Stmt {
    /// Template id (`q3`, `q1.1`, `dash_groups`, …): groups
    /// latencies per query for the `sim_ms` calibration.
    pub id: String,
    pub sql: String,
    pub kind: Kind,
    pub expect: Expect,
}

/// Row count and FNV-1a digest of a result's displayed rows.
pub fn digest(result: &QueryResult) -> (usize, u64) {
    digest_lines(&result.display_rows())
}

/// FNV-1a over rows rendered one per line.
pub fn digest_lines(rows: &[String]) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rows {
        for b in r.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (rows.len(), h)
}

/// Committed reference digests, `id \t rows \t digest-hex` per line.
fn committed_digests(name: Name, scale: Scale) -> HashMap<String, (usize, u64)> {
    let text = match (name, scale) {
        (Name::TpcdsAdhoc, Scale::Bench) => include_str!("../digests/tpcds_adhoc.bench.tsv"),
        (Name::TpcdsAdhoc, Scale::Tiny) => include_str!("../digests/tpcds_adhoc.tiny.tsv"),
        (Name::SsbScan, Scale::Bench) => include_str!("../digests/ssb_scan.bench.tsv"),
        (Name::SsbScan, Scale::Tiny) => include_str!("../digests/ssb_scan.tiny.tsv"),
        (Name::AcidChurn, _) => "",
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let rows = f[1].parse().expect("digest file: row count");
            let d = u64::from_str_radix(f[2], 16).expect("digest file: hex digest");
            (f[0].to_string(), (rows, d))
        })
        .collect()
}

/// The deployment every workload runs on: Hive 3.1 defaults with the
/// host-thread fan-out pinned, so the scheduler is not what is measured.
pub fn base_conf(threads: usize) -> HiveConf {
    HiveConf::v3_1().with(|c| c.parallel_threads = threads)
}

/// The workload-specific settings on top of [`base_conf`].
pub fn workload_conf(name: Name, scale: Scale, threads: usize) -> HiveConf {
    base_conf(threads).with(|c| match name {
        // Measure execution, not the results cache.
        Name::TpcdsAdhoc => c.results_cache = false,
        Name::SsbScan => {
            c.results_cache = false;
            // At least 4x below the resident working set (4.3 MB at
            // bench scale), so every pass misses and evicts.
            c.llap_cache_bytes = match scale {
                Scale::Bench => 1 << 20,
                Scale::Tiny => 48 << 10,
            };
        }
        // Auto-compaction and the results cache stay at their defaults.
        Name::AcidChurn => {}
    })
}

/// The queries a read workload cycles through: `(id, sql)`.
pub fn read_queries(name: Name) -> Vec<(String, String)> {
    match name {
        Name::TpcdsAdhoc => tpcds::queries()
            .into_iter()
            .map(|q| (q.id.to_string(), q.sql))
            .collect(),
        Name::SsbScan => ssb::queries("ssb_flat"),
        Name::AcidChurn => Vec::new(),
    }
}

/// Boot a server and load the read workload's data (returns the server;
/// the session is opened by the caller).
pub fn load_read_data(name: Name, scale: Scale, conf: HiveConf) -> hive_common::Result<HiveServer> {
    let server = HiveServer::new(conf);
    match (name, scale) {
        (Name::TpcdsAdhoc, Scale::Bench) => {
            tpcds::load(&server, tpcds::TpcdsScale::bench(), DATA_SEED)?
        }
        (Name::TpcdsAdhoc, Scale::Tiny) => {
            tpcds::load(&server, tpcds::TpcdsScale::tiny(), DATA_SEED)?
        }
        (Name::SsbScan, Scale::Bench) => {
            ssb::load_native(&server, ssb::SsbScale::bench(), DATA_SEED)?
        }
        (Name::SsbScan, Scale::Tiny) => {
            ssb::load_native(&server, ssb::SsbScale::tiny(), DATA_SEED)?
        }
        (Name::AcidChurn, _) => unreachable!("acid_churn is not a read workload"),
    };
    Ok(server)
}

/// One running workload.
pub struct Workload {
    pub server: HiveServer,
    pub session: Session,
    /// The transactional table the workload writes, if it writes (metrics
    /// on deltas, compactions and bytes per live row are taken on it).
    pub written_table: Option<&'static str>,
    rng: SplitMix,
    queue: VecDeque<Stmt>,
    kind: Body,
}

enum Body {
    Reads {
        queries: Vec<(String, String)>,
        digests: HashMap<String, (usize, u64)>,
    },
    Acid(Box<AcctModel>),
}

impl Workload {
    /// Boot the server and load the data: everything `setup_s` times.
    /// Every episode of a run loads the same data; the statement order
    /// (and `acid_churn`'s statement mix) differs per episode.
    pub fn setup(
        name: Name,
        scale: Scale,
        seed: u64,
        episode: u64,
        threads: usize,
    ) -> hive_common::Result<Workload> {
        let conf = workload_conf(name, scale, threads);
        let rng = SplitMix::new(
            seed ^ 0x9e37_79b9_7f4a_7c15 ^ episode.wrapping_mul(0xbf58_476d_1ce4_e5b9),
        );
        let (server, kind, written_table) = match name {
            Name::TpcdsAdhoc | Name::SsbScan => {
                let server = load_read_data(name, scale, conf)?;
                let body = Body::Reads {
                    queries: read_queries(name),
                    digests: committed_digests(name, scale),
                };
                (server, body, None)
            }
            Name::AcidChurn => {
                let server = HiveServer::new(conf);
                let rows = match scale {
                    Scale::Bench => 20_000,
                    Scale::Tiny => 1_000,
                };
                let model = AcctModel::load(&server.session(), rows, seed)?;
                (
                    server,
                    Body::Acid(Box::new(model)),
                    Some(crate::model::TABLE),
                )
            }
        };
        let session = server.session();
        Ok(Workload {
            server,
            session,
            written_table,
            rng,
            queue: VecDeque::new(),
            kind,
        })
    }

    /// Statements in one pass.
    pub fn pass_len(&self) -> usize {
        match &self.kind {
            Body::Reads { queries, .. } => queries.len(),
            Body::Acid(_) => ACID_PASS_LEN,
        }
    }

    /// Start a pass, untimed: a read workload queues its query set in a
    /// seeded order.
    pub fn begin_pass(&mut self) {
        let Body::Reads { queries, digests } = &self.kind else {
            return;
        };
        let mut order: Vec<usize> = (0..queries.len()).collect();
        self.rng.shuffle(&mut order);
        self.queue = order
            .into_iter()
            .map(|i| {
                let (id, sql) = &queries[i];
                let (rows, d) = *digests
                    .get(id)
                    .unwrap_or_else(|| panic!("no committed digest for {id}"));
                Stmt {
                    id: id.clone(),
                    sql: sql.clone(),
                    kind: Kind::Read,
                    expect: Expect::Digest(rows, d),
                }
            })
            .collect();
    }

    /// Succeeded compactions on this server.
    pub fn compactions(&self) -> usize {
        self.server
            .metastore()
            .show_compactions()
            .iter()
            .filter(|c| c.state == hive_metastore::CompactionState::Succeeded)
            .count()
    }

    /// The next statement of the current pass.
    pub fn next_stmt(&mut self) -> Stmt {
        match &mut self.kind {
            Body::Reads { .. } => self.queue.pop_front().expect("begin_pass queued the pass"),
            Body::Acid(model) => model.next_stmt(&mut self.rng),
        }
    }

    /// Check one result; on success, fold a write into the model.
    pub fn check(&mut self, stmt: &Stmt, result: &QueryResult) -> Result<(), String> {
        match (&stmt.expect, &mut self.kind) {
            (Expect::Digest(rows, d), _) => {
                let got = digest(result);
                if got != (*rows, *d) {
                    return Err(format!(
                        "{}: got {} rows digest {:016x}, expected {rows} rows digest {d:016x}",
                        stmt.id, got.0, got.1
                    ));
                }
                Ok(())
            }
            (Expect::Model(op), Body::Acid(model)) => model.check(&stmt.id, op, result),
            _ => Err(format!(
                "{}: expectation does not fit the workload",
                stmt.id
            )),
        }
    }

    /// End-of-run check of the written table against the model.
    pub fn final_check(&mut self) -> Result<(), String> {
        match &mut self.kind {
            Body::Reads { .. } => Ok(()),
            Body::Acid(model) => model.final_check(&self.session),
        }
    }

    /// Live rows of the written table, per the model.
    pub fn live_rows(&self) -> u64 {
        match &self.kind {
            Body::Reads { .. } => 0,
            Body::Acid(model) => model.live_rows(),
        }
    }
}
