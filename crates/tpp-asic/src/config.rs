//! Static configuration of an ASIC instance and its ports.

/// What an edge port does with TPPs arriving from an untrusted attachment
/// (§4: "the ingress switches at the network edge ... can strip TPPs
/// injected by VMs, or those TPPs received from the Internet").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripAction {
    /// Drop the whole frame.
    Drop,
    /// Remove the TPP section and forward the encapsulated payload as an
    /// ordinary frame (preserving the Ethernet header).
    Unwrap,
}

/// Per-port configuration.
#[derive(Debug, Clone)]
pub struct PortConfig {
    /// Egress link capacity in kilobits per second. Exposed to TPPs via
    /// `Link:CapacityKbps`.
    pub capacity_kbps: u32,
    /// Drop-tail limit of each egress queue, in bytes.
    pub queue_limit_bytes: u32,
    /// Number of egress queues on this port (scheduler is FIFO across
    /// queue 0 unless a packet carries a priority; the paper's examples
    /// use one queue).
    pub num_queues: usize,
    /// Whether frames *arriving* on this port may carry TPPs. `None`
    /// means trusted (no filtering); `Some(action)` applies the §4 edge
    /// security policy.
    pub ingress_tpp_filter: Option<StripAction>,
    /// ECN marking threshold in bytes for this port's egress queues.
    /// `None` disables marking. When enabled, a TPP-format frame whose
    /// enqueue finds the queue at/above the threshold gets its
    /// `FLAG_ECN` header bit set — the fixed-function congestion signal
    /// of §4's ECN comparison.
    pub ecn_threshold_bytes: Option<u32>,
}

impl Default for PortConfig {
    fn default() -> Self {
        PortConfig {
            capacity_kbps: 10_000_000, // 10 Gb/s, a datacenter link
            queue_limit_bytes: 512 * 1024,
            num_queues: 1,
            ingress_tpp_filter: None,
            ecn_threshold_bytes: None,
        }
    }
}

/// Configuration of one ASIC.
#[derive(Debug, Clone)]
pub struct AsicConfig {
    /// The switch's unique identifier (`Switch:SwitchID`).
    pub switch_id: u32,
    /// Per-port configuration; the vector length is the port count.
    pub ports: Vec<PortConfig>,
    /// Whether the TCPU executes TPPs at all ("Unless otherwise noted, a
    /// TPP executes at all TCPU-enabled ASICs it traverses", §3.2).
    pub tcpu_enabled: bool,
    /// TCPU cycle budget per packet. §3.3: low-latency ASICs switch
    /// minimum-sized packets with a 300 ns cut-through latency, "which is
    /// 300 clock cycles for a 1 GHz ASIC"; restricting a TPP to a handful
    /// of instructions keeps it inside that budget.
    pub tcpu_cycle_budget: u32,
    /// Words of global scratch SRAM (the `0x8000+` namespace).
    pub global_sram_words: usize,
    /// Words of per-port link scratch SRAM (the `0x4000+` namespace).
    pub link_sram_words: usize,
    /// EWMA weight (0..=1, applied per tick) for link utilization
    /// registers. Higher = more responsive, noisier.
    pub utilization_ewma_alpha: f64,
    /// Capacity of the exact-match flow cache fronting the TCAM→L3→L2
    /// lookup chain. `0` disables the cache (every packet walks the
    /// tables). Cached results are invalidated by a generation counter
    /// bumped on any table mutation or `reset()`.
    pub flow_cache_entries: usize,
}

impl AsicConfig {
    /// A switch with `num_ports` identical default ports.
    pub fn with_ports(switch_id: u32, num_ports: usize) -> Self {
        AsicConfig {
            switch_id,
            ports: vec![PortConfig::default(); num_ports],
            tcpu_enabled: true,
            tcpu_cycle_budget: 300,
            global_sram_words: 0x8000 / 4,
            link_sram_words: 0x1000 / 4,
            utilization_ewma_alpha: 0.5,
            flow_cache_entries: 1024,
        }
    }

    /// Disable the flow cache, so every packet walks the tables.
    /// `perf_baseline` uses this for its "off" rows, and the differential
    /// tests to prove the cache changes nothing observable.
    pub fn without_flow_cache(mut self) -> Self {
        self.flow_cache_entries = 0;
        self
    }

    /// Set every port's capacity (convenience for uniform topologies).
    pub fn capacity_kbps(mut self, kbps: u32) -> Self {
        for p in &mut self.ports {
            p.capacity_kbps = kbps;
        }
        self
    }

    /// Set every port's queue limit in bytes.
    pub fn queue_limit_bytes(mut self, bytes: u32) -> Self {
        for p in &mut self.ports {
            p.queue_limit_bytes = bytes;
        }
        self
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_conveniences() {
        let cfg = AsicConfig::with_ports(7, 4)
            .capacity_kbps(10_000)
            .queue_limit_bytes(64_000);
        assert_eq!(cfg.num_ports(), 4);
        assert_eq!(cfg.switch_id, 7);
        assert!(cfg.ports.iter().all(|p| p.capacity_kbps == 10_000));
        assert!(cfg.ports.iter().all(|p| p.queue_limit_bytes == 64_000));
        assert_eq!(cfg.tcpu_cycle_budget, 300, "§3.3 default budget");
    }
}
