//! `acid_churn`: one transactional table, its seeded statement mix, and
//! the in-benchmark model every result is checked against. The model is
//! updated only after the system acknowledges a write, and keeps the
//! dashboard aggregates incrementally so checking a read costs far less
//! than the read itself.

use crate::rng::SplitMix;
use crate::workload::{Expect, Kind, Stmt};
use hive_common::{Row, Value};
use hive_core::{QueryResult, Session};
use std::collections::{BTreeMap, BTreeSet, HashMap};

pub const TABLE: &str = "bench_acct";
const GROUPS: usize = 16;
const NOTES: usize = 5;
/// `dash_notes` counts rows at or above this balance.
const HIGH_BALANCE: i64 = 500;

const DASH_GROUPS: &str =
    "SELECT grp, COUNT(*), SUM(balance) FROM bench_acct GROUP BY grp ORDER BY grp";
const DASH_TOTALS: &str =
    "SELECT COUNT(*), SUM(balance), MIN(balance), MAX(balance) FROM bench_acct";
const DASH_NOTES: &str =
    "SELECT note, COUNT(*) FROM bench_acct WHERE balance >= 500 GROUP BY note ORDER BY note";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acct {
    grp: i32,
    balance: i64,
    note: u8,
}

impl Acct {
    fn random(rng: &mut SplitMix) -> Acct {
        Acct {
            grp: rng.below(GROUPS as u64) as i32,
            balance: rng.below(1000) as i64,
            note: rng.below(NOTES as u64) as u8,
        }
    }

    fn values_sql(&self, id: i64) -> String {
        format!("({id}, {}, {}, 'n{}')", self.grp, self.balance, self.note)
    }
}

/// One statement's effect, applied to the model once it succeeds.
#[derive(Debug, Clone)]
pub enum Op {
    DashGroups,
    DashTotals,
    DashNotes,
    Point(i64),
    Insert(Vec<(i64, Acct)>),
    Update {
        grp: i32,
        lo: i64,
        hi: i64,
        delta: i64,
    },
    Delete(Vec<i64>),
    /// Source rows: matched ids take the balance, new ids are inserted.
    Merge(Vec<(i64, Acct)>),
}

pub struct AcctModel {
    rows: BTreeMap<i64, Acct>,
    /// `(balance, id)` per group: predicate UPDATEs select by range.
    by_grp: Vec<BTreeSet<(i64, i64)>>,
    grp_sum: [i64; GROUPS],
    high_notes: [u64; NOTES],
    /// Balance multiset for MIN / MAX.
    balances: BTreeMap<i64, u32>,
    sum: i64,
    /// Live ids in a vector for uniform picks, with their positions.
    live: Vec<i64>,
    pos: HashMap<i64, usize>,
    next_id: i64,
}

impl AcctModel {
    fn empty() -> AcctModel {
        AcctModel {
            rows: BTreeMap::new(),
            by_grp: vec![BTreeSet::new(); GROUPS],
            grp_sum: [0; GROUPS],
            high_notes: [0; NOTES],
            balances: BTreeMap::new(),
            sum: 0,
            live: Vec::new(),
            pos: HashMap::new(),
            next_id: 0,
        }
    }

    /// Create and bulk-load the table with `n` seeded rows.
    pub fn load(session: &Session, n: usize, seed: u64) -> hive_common::Result<AcctModel> {
        let mut rng = SplitMix::new(seed);
        let mut model = AcctModel::empty();
        session
            .execute("CREATE TABLE bench_acct (id BIGINT, grp INT, balance BIGINT, note STRING)")?;
        let mut rows = Vec::with_capacity(n);
        for id in 0..n as i64 {
            let a = Acct::random(&mut rng);
            rows.push(Row::new(vec![
                Value::BigInt(id),
                Value::Int(a.grp),
                Value::BigInt(a.balance),
                Value::String(format!("n{}", a.note)),
            ]));
            model.put(id, a);
        }
        model.next_id = n as i64;
        session.bulk_insert(TABLE, rows)?;
        session.execute("ANALYZE TABLE bench_acct COMPUTE STATISTICS")?;
        Ok(model)
    }

    pub fn live_rows(&self) -> u64 {
        self.rows.len() as u64
    }

    fn put(&mut self, id: i64, a: Acct) {
        if let Some(old) = self.rows.insert(id, a) {
            self.unindex(id, old);
        } else {
            self.pos.insert(id, self.live.len());
            self.live.push(id);
        }
        let g = a.grp as usize;
        self.by_grp[g].insert((a.balance, id));
        self.grp_sum[g] += a.balance;
        self.sum += a.balance;
        *self.balances.entry(a.balance).or_insert(0) += 1;
        if a.balance >= HIGH_BALANCE {
            self.high_notes[a.note as usize] += 1;
        }
    }

    fn remove(&mut self, id: i64) -> bool {
        let Some(old) = self.rows.remove(&id) else {
            return false;
        };
        self.unindex(id, old);
        let i = self.pos.remove(&id).expect("live id has a position");
        self.live.swap_remove(i);
        if let Some(&moved) = self.live.get(i) {
            self.pos.insert(moved, i);
        }
        true
    }

    /// Drop `old`'s contribution to every aggregate (not `rows`/`live`).
    fn unindex(&mut self, id: i64, old: Acct) {
        let g = old.grp as usize;
        self.by_grp[g].remove(&(old.balance, id));
        self.grp_sum[g] -= old.balance;
        self.sum -= old.balance;
        let c = self
            .balances
            .get_mut(&old.balance)
            .expect("balance indexed");
        *c -= 1;
        if *c == 0 {
            self.balances.remove(&old.balance);
        }
        if old.balance >= HIGH_BALANCE {
            self.high_notes[old.note as usize] -= 1;
        }
    }

    fn pick_live(&self, rng: &mut SplitMix) -> Option<i64> {
        (!self.live.is_empty()).then(|| self.live[rng.below(self.live.len() as u64) as usize])
    }

    fn fresh_id(&mut self) -> i64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// The next statement of the seeded mix: 40% writes (INSERT 30%,
    /// predicate UPDATE 25%, key DELETE 25%, MERGE upsert 20%), 60%
    /// reads (dashboard aggregates 65%, point lookups 35%).
    pub fn next_stmt(&mut self, rng: &mut SplitMix) -> Stmt {
        let (id, sql, op) = if rng.below(100) < 40 {
            match rng.below(100) {
                0..=29 => {
                    let n = 1 + rng.below(8);
                    let rows: Vec<(i64, Acct)> = (0..n)
                        .map(|_| (self.fresh_id(), Acct::random(rng)))
                        .collect();
                    let values: Vec<String> =
                        rows.iter().map(|(id, a)| a.values_sql(*id)).collect();
                    let sql = format!("INSERT INTO bench_acct VALUES {}", values.join(", "));
                    ("insert", sql, Op::Insert(rows))
                }
                30..=54 => {
                    let grp = rng.below(GROUPS as u64) as i32;
                    let lo = rng.below(981) as i64;
                    let hi = lo + 19;
                    let delta = rng.below(101) as i64 - 50;
                    let set = if delta < 0 {
                        format!("balance - {}", -delta)
                    } else {
                        format!("balance + {delta}")
                    };
                    let sql = format!(
                        "UPDATE bench_acct SET balance = {set} WHERE grp = {grp} AND balance BETWEEN {lo} AND {hi}"
                    );
                    ("update", sql, Op::Update { grp, lo, hi, delta })
                }
                55..=79 => {
                    let n = 1 + rng.below(16);
                    let mut ids = BTreeSet::new();
                    for _ in 0..n {
                        let k = match self.pick_live(rng) {
                            Some(k) if rng.below(100) < 80 => k,
                            _ => self.next_id + rng.below(1000) as i64,
                        };
                        ids.insert(k);
                    }
                    let ids: Vec<i64> = ids.into_iter().collect();
                    let list: Vec<String> = ids.iter().map(|k| k.to_string()).collect();
                    let sql = format!("DELETE FROM bench_acct WHERE id IN ({})", list.join(", "));
                    ("delete", sql, Op::Delete(ids))
                }
                _ => {
                    let mut src: BTreeMap<i64, Acct> = BTreeMap::new();
                    for _ in 0..2 {
                        if let Some(k) = self.pick_live(rng) {
                            src.insert(k, Acct::random(rng));
                        }
                    }
                    while src.len() < 4 {
                        src.insert(self.fresh_id(), Acct::random(rng));
                    }
                    let selects: Vec<String> = src
                        .iter()
                        .map(|(id, a)| {
                            format!(
                                "SELECT CAST({id} AS BIGINT) AS id, {} AS grp, CAST({} AS BIGINT) AS balance, 'n{}' AS note",
                                a.grp, a.balance, a.note
                            )
                        })
                        .collect();
                    let sql = format!(
                        "MERGE INTO bench_acct t USING ({}) s ON t.id = s.id
                         WHEN MATCHED THEN UPDATE SET balance = s.balance
                         WHEN NOT MATCHED THEN INSERT VALUES (s.id, s.grp, s.balance, s.note)",
                        selects.join(" UNION ALL ")
                    );
                    ("merge", sql, Op::Merge(src.into_iter().collect()))
                }
            }
        } else if rng.below(100) < 65 {
            match rng.below(3) {
                0 => ("dash_groups", DASH_GROUPS.to_string(), Op::DashGroups),
                1 => ("dash_totals", DASH_TOTALS.to_string(), Op::DashTotals),
                _ => ("dash_notes", DASH_NOTES.to_string(), Op::DashNotes),
            }
        } else {
            let k = match self.pick_live(rng) {
                Some(k) if rng.below(100) < 85 => k,
                _ => self.next_id + rng.below(1000) as i64,
            };
            let sql = format!("SELECT id, grp, balance, note FROM bench_acct WHERE id = {k}");
            ("point", sql, Op::Point(k))
        };
        let kind = match op {
            Op::DashGroups | Op::DashTotals | Op::DashNotes | Op::Point(_) => Kind::Read,
            _ => Kind::Write,
        };
        Stmt {
            id: id.to_string(),
            sql,
            kind,
            expect: Expect::Model(op),
        }
    }

    /// The rows a read must return, as displayed.
    fn expected_rows(&self, op: &Op) -> Vec<String> {
        match op {
            Op::DashGroups => (0..GROUPS)
                .filter(|&g| !self.by_grp[g].is_empty())
                .map(|g| format!("{g}\t{}\t{}", self.by_grp[g].len(), self.grp_sum[g]))
                .collect(),
            Op::DashTotals => {
                let min = self.balances.keys().next().expect("table never empties");
                let max = self
                    .balances
                    .keys()
                    .next_back()
                    .expect("table never empties");
                vec![format!("{}\t{}\t{min}\t{max}", self.rows.len(), self.sum)]
            }
            Op::DashNotes => (0..NOTES)
                .filter(|&n| self.high_notes[n] > 0)
                .map(|n| format!("n{n}\t{}", self.high_notes[n]))
                .collect(),
            Op::Point(k) => self
                .rows
                .get(k)
                .map(|a| format!("{k}\t{}\t{}\tn{}", a.grp, a.balance, a.note))
                .into_iter()
                .collect(),
            _ => unreachable!("not a read"),
        }
    }

    /// Check a result against the model; fold a successful write in.
    pub fn check(&mut self, id: &str, op: &Op, result: &QueryResult) -> Result<(), String> {
        let affected = match op {
            Op::DashGroups | Op::DashTotals | Op::DashNotes | Op::Point(_) => {
                let want = self.expected_rows(op);
                let got = result.display_rows();
                return if got == want {
                    Ok(())
                } else {
                    Err(format!("{id}: got {got:?}, model says {want:?}"))
                };
            }
            Op::Insert(rows) => {
                for (k, a) in rows {
                    self.put(*k, *a);
                }
                rows.len() as u64
            }
            Op::Update { grp, lo, hi, delta } => {
                let hits: Vec<(i64, i64)> = self.by_grp[*grp as usize]
                    .range((*lo, i64::MIN)..=(*hi, i64::MAX))
                    .copied()
                    .collect();
                for &(bal, k) in &hits {
                    let a = self.rows[&k];
                    self.put(
                        k,
                        Acct {
                            balance: bal + delta,
                            ..a
                        },
                    );
                }
                hits.len() as u64
            }
            Op::Delete(ids) => ids.iter().filter(|&&k| self.remove(k)).count() as u64,
            Op::Merge(src) => {
                for (k, a) in src {
                    match self.rows.get(k).copied() {
                        Some(old) => self.put(
                            *k,
                            Acct {
                                balance: a.balance,
                                ..old
                            },
                        ),
                        None => self.put(*k, *a),
                    }
                }
                src.len() as u64
            }
        };
        if result.affected_rows == affected {
            Ok(())
        } else {
            Err(format!(
                "{id}: wrote {} rows, model says {affected}",
                result.affected_rows
            ))
        }
    }

    /// End of run: the whole table, row by row, against the model.
    pub fn final_check(&self, session: &Session) -> Result<(), String> {
        let r = session
            .execute("SELECT id, grp, balance, note FROM bench_acct ORDER BY id")
            .map_err(|e| format!("final table scan: {e}"))?;
        let got = r.display_rows();
        let want: Vec<String> = self
            .rows
            .iter()
            .map(|(k, a)| format!("{k}\t{}\t{}\tn{}", a.grp, a.balance, a.note))
            .collect();
        if got == want {
            Ok(())
        } else {
            let first = got.iter().zip(&want).position(|(g, w)| g != w);
            Err(format!(
                "final table: {} rows vs model {}; first difference at {first:?}",
                got.len(),
                want.len()
            ))
        }
    }
}
