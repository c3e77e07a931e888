//! Machine model of a Ranger-class (2008) system.
//!
//! The paper's scaling figures were measured on TACC Ranger: 3,936 nodes of
//! four 2.3 GHz quad-core AMD Barcelona sockets (16 cores/node, 62,976
//! cores), 2 GB RAM per core, SDR InfiniBand in a fat tree. No such machine
//! is available, so (per DESIGN.md substitution #1) the benchmark harnesses
//! run the real distributed algorithms at host scale, measure per-element
//! compute cost and per-rank communication volumes, and use this α–β–γ
//! model to produce the modeled large-scale times that stand in for the
//! paper's wall-clock measurements.
//!
//! The modeled time for one rank executing a phase is
//!
//! ```text
//! T = flops / (ζ · peak_flops)                       (compute)
//!   + msgs · α + bytes / β                           (point-to-point)
//!   + Σ collectives: log2(P) · α + bytes(P) / β      (collectives)
//! ```
//!
//! which is the standard postal/LogP-style model; the log₂(P) collective
//! term is what bends the weak-scaling curves of Figs. 7–9 exactly as in
//! the paper.

use crate::stats::CommStats;

/// Parameters of the modeled machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Peak floating-point rate per core, flop/s.
    pub peak_flops_per_core: f64,
    /// Sustained fraction of peak achieved by FEM-style kernels.
    pub fem_efficiency: f64,
    /// Sustained fraction of peak achieved by dense (matrix-based DG)
    /// kernels.
    pub dense_efficiency: f64,
    /// Network injection latency α, seconds per message.
    pub latency: f64,
    /// Network bandwidth β per core, bytes/second.
    pub bandwidth: f64,
    /// Memory bandwidth per core, bytes/second (shared-node contention
    /// already divided out).
    pub mem_bandwidth: f64,
    /// Cores per node (16 on Ranger); used for intra-node discounting.
    pub cores_per_node: usize,
}

impl MachineModel {
    /// Ranger-like defaults: 2.3 GHz Barcelona (4 flop/cycle/core ⇒ 9.2
    /// Gflop/s peak), SDR InfiniBand (~1 GB/s per node, ~2.3 µs latency),
    /// ~2.1 GB/s sustained memory bandwidth per core under full-node load.
    pub fn ranger() -> Self {
        MachineModel {
            peak_flops_per_core: 9.2e9,
            fem_efficiency: 0.06,
            dense_efficiency: 0.50,
            latency: 2.3e-6,
            bandwidth: 0.9e9 / 16.0 * 4.0, // per-core share with some overlap
            mem_bandwidth: 2.1e9,
            cores_per_node: 16,
        }
    }

    /// Time to execute `flops` floating point operations in a sparse/FEM
    /// kernel (memory-bandwidth-limited regime).
    pub fn t_fem_flops(&self, flops: f64) -> f64 {
        flops / (self.fem_efficiency * self.peak_flops_per_core)
    }

    /// Time to execute `flops` in a dense (BLAS3-like) kernel.
    pub fn t_dense_flops(&self, flops: f64) -> f64 {
        flops / (self.dense_efficiency * self.peak_flops_per_core)
    }

    /// Time for one point-to-point message of `bytes`.
    pub fn t_p2p(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }

    /// Time for a barrier among `p` ranks (dissemination algorithm).
    pub fn t_barrier(&self, p: usize) -> f64 {
        (p.max(2) as f64).log2().ceil() * self.latency
    }

    /// Time for an allreduce of `bytes` among `p` ranks
    /// (recursive-doubling).
    pub fn t_allreduce(&self, bytes: f64, p: usize) -> f64 {
        let rounds = (p.max(2) as f64).log2().ceil();
        rounds * (self.latency + bytes / self.bandwidth)
    }

    /// Time for an allgather where each of `p` ranks contributes
    /// `bytes_per_rank` (ring algorithm: latency ~ p, bandwidth ~ total).
    pub fn t_allgather(&self, bytes_per_rank: f64, p: usize) -> f64 {
        let pf = p.max(2) as f64;
        pf.log2().ceil() * self.latency + (pf - 1.0) * bytes_per_rank / self.bandwidth
    }

    /// Time for an all-to-all where this rank sends `bytes_total` spread
    /// over `msgs` destinations.
    pub fn t_alltoallv(&self, bytes_total: f64, msgs: u64) -> f64 {
        msgs as f64 * self.latency + bytes_total / self.bandwidth
    }

    /// Total phase time when communication is *blocking*: the rank pays
    /// compute and communication as a sum, as every pre-split-phase code
    /// path does.
    pub fn t_phase_blocking(&self, t_comp: f64, t_comm: f64) -> f64 {
        t_comp + t_comm
    }

    /// Total phase time when communication is *overlapped* with
    /// computation (split-phase ghost exchange): the transfer hides behind
    /// the interior sweep and the rank pays `max(comp, comm)` instead of
    /// the sum. This is the idealized full-overlap bound; the measured
    /// `comm.overlap_ns` counter reports how much of the window a real run
    /// actually covered.
    pub fn t_phase_overlapped(&self, t_comp: f64, t_comm: f64) -> f64 {
        t_comp.max(t_comm)
    }

    /// Model the communication time of one rank's [`CommStats`] record at
    /// world size `p`, assuming gather-style collectives carried
    /// `avg_collective_bytes` per call.
    pub fn t_comm(&self, stats: &CommStats, p: usize) -> f64 {
        let mut t = 0.0;
        t += stats.p2p_messages as f64 * self.latency + stats.p2p_bytes as f64 / self.bandwidth;
        t += stats.barriers as f64 * self.t_barrier(p);
        let gathers = stats.allgathers + stats.bcasts;
        if gathers > 0 {
            let per = stats.collective_bytes as f64 / gathers.max(1) as f64 / p.max(1) as f64;
            t += gathers as f64 * self.t_allgather(per, p);
        }
        t += (stats.allreduces + stats.exscans) as f64 * self.t_allreduce(8.0, p);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranger_sanity() {
        let m = MachineModel::ranger();
        // 1 Gflop of FEM work should take on the order of a second at ~6%
        // of 9.2 Gflop/s peak.
        let t = m.t_fem_flops(1e9);
        assert!(t > 0.5 && t < 5.0, "t = {t}");
        // Dense kernels are much faster per flop.
        assert!(m.t_dense_flops(1e9) < t / 4.0);
    }

    #[test]
    fn collective_costs_grow_logarithmically() {
        let m = MachineModel::ranger();
        let t16 = m.t_allreduce(8.0, 16);
        let t256 = m.t_allreduce(8.0, 256);
        let t65536 = m.t_allreduce(8.0, 65536);
        assert!(t256 > t16);
        // log2(65536)/log2(256) = 2, so the ratio should be exactly 2.
        assert!((t65536 / t256 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn p2p_latency_dominates_small_messages() {
        let m = MachineModel::ranger();
        let small = m.t_p2p(8.0);
        assert!((small - m.latency) / m.latency < 0.1);
    }

    #[test]
    fn overlapped_phase_never_slower_than_blocking() {
        let m = MachineModel::ranger();
        for (comp, comm) in [(1.0, 0.2), (0.2, 1.0), (0.5, 0.5), (0.0, 3.0)] {
            let b = m.t_phase_blocking(comp, comm);
            let o = m.t_phase_overlapped(comp, comm);
            assert!(o <= b);
            assert_eq!(o, comp.max(comm));
            assert_eq!(b, comp + comm);
        }
    }

    #[test]
    fn comm_model_monotone_in_world_size() {
        let m = MachineModel::ranger();
        let stats = CommStats {
            p2p_messages: 10,
            p2p_bytes: 1 << 20,
            barriers: 5,
            allgathers: 3,
            allreduces: 7,
            collective_bytes: 3 * 1024,
            ..Default::default()
        };
        let t64 = m.t_comm(&stats, 64);
        let t4096 = m.t_comm(&stats, 4096);
        assert!(t4096 > t64);
    }
}
