//! Per-rank communication statistics.
//!
//! Every [`crate::Comm`] operation increments these counters. The figure
//! harnesses run the real SPMD algorithms at host scale and print the
//! counters per rank and step.

use obs::{ToJson, Value};

/// Counters for one rank's communication activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Point-to-point messages sent (including those routed through
    /// `alltoallv`, excluding self-sends).
    pub p2p_messages: u64,
    /// Point-to-point payload bytes sent.
    pub p2p_bytes: u64,
    /// Barrier entries.
    pub barriers: u64,
    /// Allgather/allgatherv calls.
    pub allgathers: u64,
    /// Allreduce calls.
    pub allreduces: u64,
    /// Exclusive-scan calls.
    pub exscans: u64,
    /// Broadcast calls.
    pub bcasts: u64,
    /// All-to-all calls.
    pub alltoalls: u64,
    /// Split-phase neighbor exchange rounds (`exchange_start`/
    /// `exchange_end`). Their messages and bytes are already included in
    /// the point-to-point counters — an exchange is pure p2p, with no
    /// rendezvous — so this counts rounds, not traffic.
    pub exchanges: u64,
    /// Bytes moved through gather-style collectives (read volume).
    pub collective_bytes: u64,
}

impl CommStats {
    /// Total number of collective operations of any kind.
    pub fn collectives(&self) -> u64 {
        self.barriers
            + self.allgathers
            + self.allreduces
            + self.exscans
            + self.bcasts
            + self.alltoalls
    }

    /// Merge another rank's counters into this one (for aggregating a
    /// whole world's activity).
    pub fn merge(&mut self, other: &CommStats) {
        self.p2p_messages += other.p2p_messages;
        self.p2p_bytes += other.p2p_bytes;
        self.barriers += other.barriers;
        self.allgathers += other.allgathers;
        self.allreduces += other.allreduces;
        self.exscans += other.exscans;
        self.bcasts += other.bcasts;
        self.alltoalls += other.alltoalls;
        self.exchanges += other.exchanges;
        self.collective_bytes += other.collective_bytes;
    }
}

/// Machine-readable form, embedded in `results/obs/` run manifests.
/// (Hand-rolled via [`obs::ToJson`]: the offline build cannot fetch
/// `serde`, and the field set is small and stable.)
impl ToJson for CommStats {
    fn to_json_value(&self) -> Value {
        Value::object([
            ("p2p_messages", Value::from(self.p2p_messages)),
            ("p2p_bytes", Value::from(self.p2p_bytes)),
            ("barriers", Value::from(self.barriers)),
            ("allgathers", Value::from(self.allgathers)),
            ("allreduces", Value::from(self.allreduces)),
            ("exscans", Value::from(self.exscans)),
            ("bcasts", Value::from(self.bcasts)),
            ("alltoalls", Value::from(self.alltoalls)),
            ("exchanges", Value::from(self.exchanges)),
            ("collective_bytes", Value::from(self.collective_bytes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd;

    #[test]
    fn merge_adds_fields() {
        let mut a = CommStats {
            p2p_messages: 1,
            p2p_bytes: 10,
            barriers: 2,
            ..Default::default()
        };
        let b = CommStats {
            p2p_messages: 3,
            allgathers: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.p2p_messages, 4);
        assert_eq!(a.p2p_bytes, 10);
        assert_eq!(a.barriers, 2);
        assert_eq!(a.allgathers, 4);
        assert_eq!(a.collectives(), 6);
    }

    #[test]
    fn to_json_exposes_every_counter() {
        let s = CommStats {
            p2p_messages: 3,
            p2p_bytes: 96,
            barriers: 2,
            allgathers: 1,
            allreduces: 4,
            exscans: 5,
            bcasts: 6,
            alltoalls: 7,
            exchanges: 8,
            collective_bytes: 1024,
        };
        let v = s.to_json_value();
        for (field, want) in [
            ("p2p_messages", 3),
            ("p2p_bytes", 96),
            ("barriers", 2),
            ("allgathers", 1),
            ("allreduces", 4),
            ("exscans", 5),
            ("bcasts", 6),
            ("alltoalls", 7),
            ("exchanges", 8),
            ("collective_bytes", 1024),
        ] {
            assert_eq!(v.get(field).and_then(|x| x.as_u64()), Some(want), "{field}");
        }
        // The serialized text parses back to the same value.
        assert_eq!(obs::json::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn byte_accounting_matches_hand_computed_payloads() {
        // Rank r contributes r u64s to allgatherv and sends (r + d) u32s to
        // each destination d in alltoallv. Check counters against the sizes
        // computed by hand from those payload shapes.
        let p = 4usize;
        let stats = spmd::run(p, |c| {
            let mine: Vec<u64> = (0..c.rank() as u64).collect();
            let _ = c.allgatherv(&mine);
            let outgoing: Vec<Vec<u32>> = (0..p).map(|d| vec![7u32; c.rank() + d]).collect();
            let _ = c.alltoallv(&outgoing);
            c.stats()
        });
        // allgatherv reads every rank's slot: (0+1+2+3) u64s = 48 bytes,
        // identical on all ranks.
        let gathered_bytes = 8 * (1 + 2 + 3) as u64;
        for (r, s) in stats.iter().enumerate() {
            assert_eq!(s.allgathers, 1);
            assert_eq!(s.collective_bytes, gathered_bytes, "rank {r}");
            assert_eq!(s.alltoalls, 1);
            // alltoallv sends 4*(r+d) bytes to each d != r.
            let sent: u64 = (0..p).filter(|&d| d != r).map(|d| 4 * (r + d) as u64).sum();
            assert_eq!(s.p2p_bytes, sent, "rank {r}");
            // One message per non-self destination with a non-empty payload;
            // rank 0's payload for d=0 is empty but that's the self slot, so
            // only rank 0 -> 0 is excluded anyway.
            let msgs = (0..p).filter(|&d| d != r && r + d > 0).count() as u64;
            assert_eq!(s.p2p_messages, msgs, "rank {r}");
        }
    }
}
