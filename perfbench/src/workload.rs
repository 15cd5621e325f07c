//! The three workloads, their seeded input generator, and the value encoding
//! that lets every read be attributed to the transaction that wrote it.

use sss_core::{Key, TxnId, Value};
use sss_vclock::NodeId;

/// Keys populated before every run, in every workload.
pub const KEYS: usize = 5_000;
/// Balance every key starts with; transfers move one unit at a time.
pub const INITIAL_BALANCE: i64 = 1_000_000;
/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Cluster size (`SssConfig::new(NODES)`, replication 2).
pub const NODES: usize = 3;

/// One closed-loop traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// Share of transactions that are read-only, in percent.
    pub ro_percent: u64,
    /// Keys the transactions draw from: `0..span` of the populated keys.
    pub span: usize,
    /// Keys one read-only transaction reads (`span` means all of them).
    pub ro_reads: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ro-heavy",
        ro_percent: 90,
        span: KEYS,
        ro_reads: 2,
    },
    Workload {
        name: "update-heavy",
        ro_percent: 10,
        span: KEYS,
        ro_reads: 2,
    },
    Workload {
        name: "long-ro-hot",
        ro_percent: 50,
        span: 16,
        ro_reads: 16,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// `true` when every read-only transaction reads the whole key span, so
    /// its snapshot must sum to `span * INITIAL_BALANCE`.
    pub fn ro_reads_whole_span(&self) -> bool {
        self.ro_reads == self.span
    }
}

/// What a client does next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Read these keys in one read-only transaction.
    ReadOnly(Vec<usize>),
    /// Move one unit from the first key to the second.
    Transfer(usize, usize),
}

/// splitmix64: small, seedable and good enough to pick keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `count` distinct values of `0..n`, in random order.
    pub fn distinct(&mut self, n: usize, count: usize) -> Vec<usize> {
        if count == n {
            let mut all: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                all.swap(i, self.below(i + 1));
            }
            return all;
        }
        let mut picked = Vec::with_capacity(count);
        while picked.len() < count {
            let k = self.below(n);
            if !picked.contains(&k) {
                picked.push(k);
            }
        }
        picked
    }
}

/// The operation stream of one client: a function of the seed and the
/// client index only.
#[derive(Debug)]
pub struct OpGen {
    workload: Workload,
    rng: Rng,
}

impl OpGen {
    pub fn new(workload: Workload, seed: u64, client: usize) -> Self {
        let mixed = seed ^ (client as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
        OpGen {
            workload,
            rng: Rng::new(mixed),
        }
    }

    /// The next operation and the coordinator node to run it on.
    pub fn next(&mut self) -> (Op, usize) {
        let w = self.workload;
        let node = self.rng.below(NODES);
        let op = if (self.rng.below(100) as u64) < w.ro_percent {
            Op::ReadOnly(self.rng.distinct(w.span, w.ro_reads))
        } else {
            let pair = self.rng.distinct(w.span, 2);
            Op::Transfer(pair[0], pair[1])
        };
        (op, node)
    }
}

pub fn key(i: usize) -> Key {
    Key::new(format!("k{i:05}"))
}

/// A balance tagged with the transaction that wrote it, `"<balance>:<origin>:<seq>"`.
pub fn encode(balance: i64, writer: TxnId) -> Value {
    Value::new(format!("{balance}:{}:{}", writer.origin.index(), writer.seq).into_bytes())
}

/// Inverse of [`encode`].
pub fn decode(value: &Value) -> Option<(i64, TxnId)> {
    let mut parts = value.as_utf8()?.split(':');
    let balance = parts.next()?.parse().ok()?;
    let origin = parts.next()?.parse().ok()?;
    let seq = parts.next()?.parse().ok()?;
    Some((balance, TxnId::new(NodeId(origin), seq)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let id = TxnId::new(NodeId(2), 77);
        assert_eq!(decode(&encode(-5, id)), Some((-5, id)));
    }

    #[test]
    fn op_stream_depends_only_on_seed_and_client() {
        let w = Workload::by_name("long-ro-hot").unwrap();
        let a: Vec<_> = {
            let mut g = OpGen::new(w, 7, 1);
            (0..50).map(|_| g.next()).collect()
        };
        let mut g = OpGen::new(w, 7, 1);
        let b: Vec<_> = (0..50).map(|_| g.next()).collect();
        assert_eq!(a, b);
        for (op, node) in a {
            assert!(node < NODES);
            match op {
                Op::ReadOnly(keys) => {
                    let mut sorted = keys.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, (0..16).collect::<Vec<_>>());
                }
                Op::Transfer(from, to) => assert!(from != to && from < 16 && to < 16),
            }
        }
    }
}
