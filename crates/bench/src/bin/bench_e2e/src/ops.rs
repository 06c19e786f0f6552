//! The seeded operation streams: the read cycle, the write mix and their
//! blend.  Everything a workload sends is drawn here from the seed, so the
//! program under test only ever sees generated inputs.

use maybms::UpdateExpr;
use ws_census::{ATTRIBUTE_COUNT, RELATION_NAME};
use ws_relational::{Predicate, Tuple, Value};

/// Number of census queries (Q1–Q6).
pub const QUERIES: usize = 6;

/// Marker values start here; connection `c` owns `[BASE·(c+1), BASE·(c+2))`.
pub const MARKER_BASE: i64 = 1_000_000;

/// The attribute carrying the marker (the first census attribute).
pub const MARKER_ATTR: &str = "CITIZEN";

/// The attribute `modify` overwrites: no census query reads it.
const MODIFIED_ATTR: &str = "AGE";

/// Connection 0 checkpoints after this many of its own applies.
pub const CHECKPOINT_EVERY: u64 = 50;

/// Share of reads in the blended stream, in percent.
const MIXED_READ_PERCENT: u64 = 80;

/// The harness's own generator (splitmix64), so no `rand` dependency.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What a write does, for the acknowledged-insert bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    Insert,
    InsertPossible,
    Modify,
}

/// One operation of a workload.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Stream the answer of query `Q[i]` to its last row.
    Execute(usize),
    /// Tuple confidences of query `Q[i]`.
    Confidence(usize),
    /// Durably apply one update.
    Apply(WriteKind, UpdateExpr),
    /// Snapshot and truncate the log.
    Checkpoint,
}

impl Op {
    /// The verb, as used in metric and span names.
    pub fn verb(&self) -> &'static str {
        match self {
            Op::Execute(_) => "execute",
            Op::Confidence(_) => "confidence",
            Op::Apply(..) => "apply",
            Op::Checkpoint => "checkpoint",
        }
    }

    /// The query label for reads, the update kind for writes.
    pub fn detail(&self) -> String {
        match self {
            Op::Execute(q) | Op::Confidence(q) => format!("Q{}", q + 1),
            Op::Apply(kind, _) => format!("{kind:?}"),
            Op::Checkpoint => String::new(),
        }
    }
}

/// Which stream a workload draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    Read,
    Write,
    Mixed,
}

/// A marker tuple: the marker in the first attribute, 0 everywhere else, so
/// it satisfies none of Q1–Q6 (each of them needs a non-zero constant in
/// some attribute other than CITIZEN, or CITIZEN = 0).
pub fn marker_tuple(marker: i64) -> Tuple {
    let mut values = vec![Value::int(0); ATTRIBUTE_COUNT];
    values[0] = Value::int(marker);
    Tuple::new(values)
}

/// The seeded, endless operation stream of one connection.
#[derive(Clone, Debug)]
pub struct OpStream {
    mix: Mix,
    conn: u64,
    rng: SplitMix64,
    /// 24 reads — each query executed three times and asked for confidences
    /// once — in seeded order: three executes in four set the median, one
    /// confidence in four sets the tail.
    cycle: Vec<Op>,
    reads: usize,
    /// How many markers this connection has inserted.
    inserted: i64,
    applies: u64,
    checkpoint_due: bool,
}

impl OpStream {
    pub fn new(mix: Mix, seed: u64, conn: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ (conn + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let mut cycle: Vec<Op> = (0..QUERIES)
            .flat_map(|q| {
                [
                    Op::Execute(q),
                    Op::Execute(q),
                    Op::Execute(q),
                    Op::Confidence(q),
                ]
            })
            .collect();
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, rng.below(i as u64 + 1) as usize);
        }
        OpStream {
            mix,
            conn,
            rng,
            cycle,
            reads: 0,
            inserted: 0,
            applies: 0,
            checkpoint_due: false,
        }
    }

    fn read(&mut self) -> Op {
        let op = self.cycle[self.reads % self.cycle.len()].clone();
        self.reads += 1;
        op
    }

    fn write(&mut self) -> Op {
        if self.checkpoint_due {
            self.checkpoint_due = false;
            return Op::Checkpoint;
        }
        self.applies += 1;
        self.checkpoint_due = self.conn == 0 && self.applies.is_multiple_of(CHECKPOINT_EVERY);
        let draw = self.rng.below(100);
        // 70 % insert, 15 % possible insert, 15 % modify of one of the
        // connection's own markers (an insert while there is none yet).
        if draw >= 85 && self.inserted > 0 {
            let k = self.rng.below(self.inserted as u64) as i64;
            let marker = self.marker(k);
            let age = Value::int(self.rng.below(91) as i64);
            let update = UpdateExpr::modify(
                RELATION_NAME,
                Predicate::eq_const(MARKER_ATTR, marker),
                vec![(MODIFIED_ATTR.to_string(), age)],
            );
            return Op::Apply(WriteKind::Modify, update);
        }
        let tuple = marker_tuple(self.marker(self.inserted));
        self.inserted += 1;
        if (70..85).contains(&draw) {
            let update = UpdateExpr::insert_possible(RELATION_NAME, tuple, 0.5);
            Op::Apply(WriteKind::InsertPossible, update)
        } else {
            Op::Apply(WriteKind::Insert, UpdateExpr::insert(RELATION_NAME, tuple))
        }
    }

    /// The `k`-th marker of this connection.
    fn marker(&self, k: i64) -> i64 {
        MARKER_BASE * (self.conn as i64 + 1) + k
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(match self.mix {
            Mix::Read => self.read(),
            Mix::Write => self.write(),
            Mix::Mixed => {
                if self.checkpoint_due || self.rng.below(100) >= MIXED_READ_PERCENT {
                    self.write()
                } else {
                    self.read()
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(mix: Mix, seed: u64, conn: u64, n: usize) -> Vec<Op> {
        OpStream::new(mix, seed, conn).take(n).collect()
    }

    #[test]
    fn same_seed_same_ops_and_update_values() {
        for mix in [Mix::Read, Mix::Write, Mix::Mixed] {
            assert_eq!(first(mix, 7, 0, 500), first(mix, 7, 0, 500));
            assert_ne!(first(mix, 7, 0, 500), first(mix, 8, 0, 500));
            assert_ne!(first(mix, 7, 0, 500), first(mix, 7, 1, 500));
        }
    }

    #[test]
    fn read_cycle_is_three_executes_to_one_confidence_per_query() {
        let ops = first(Mix::Read, 3, 0, 24);
        for q in 0..QUERIES {
            assert_eq!(ops.iter().filter(|o| **o == Op::Execute(q)).count(), 3);
            assert_eq!(ops.iter().filter(|o| **o == Op::Confidence(q)).count(), 1);
        }
    }

    #[test]
    fn writes_stay_on_the_connections_own_markers() {
        for conn in 0..2u64 {
            let range = MARKER_BASE * (conn as i64 + 1)..MARKER_BASE * (conn as i64 + 2);
            let mut checkpoints = 0;
            for op in first(Mix::Write, 11, conn, 2_000) {
                match op {
                    Op::Checkpoint => checkpoints += 1,
                    Op::Apply(_, UpdateExpr::InsertCertain { tuple, .. })
                    | Op::Apply(_, UpdateExpr::InsertPossible { tuple, .. }) => {
                        let marker = tuple.values()[0].as_int().unwrap();
                        assert!(range.contains(&marker));
                        assert!(tuple.values()[1..].iter().all(|v| v.as_int() == Some(0)));
                    }
                    Op::Apply(_, UpdateExpr::Modify { pred, .. }) => match pred {
                        Predicate::AttrConst { attr, value, .. } => {
                            assert_eq!(attr, MARKER_ATTR);
                            assert!(range.contains(&value.as_int().unwrap()));
                        }
                        other => panic!("unexpected predicate {other:?}"),
                    },
                    other => panic!("unexpected op {other:?}"),
                }
            }
            // Only connection 0 checkpoints, once per CHECKPOINT_EVERY applies.
            let expected = if conn == 0 {
                2_000 / (CHECKPOINT_EVERY + 1)
            } else {
                0
            };
            assert_eq!(checkpoints, expected);
        }
    }
}
