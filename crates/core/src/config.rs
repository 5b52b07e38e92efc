//! Accelerator configuration.
//!
//! [`GramerConfig`] holds the modeled hardware parameters (PUs, slots,
//! memory budget and organisation, latencies, the pair memo) plus two
//! host-side fields that never change a simulated quantity:
//! `sim_threads` (cell-level parallelism) and `access_path` (the memory
//! model's fast lane or its exact reference).

use crate::error::ConfigError;
use gramer_memsim::{AccessPath, DramConfig, LatencyConfig};

/// How much graph data the on-chip memory can hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoryBudget {
    /// Absolute number of data items (vertices + adjacency slots) across
    /// the high- and low-priority memories combined.
    Items(usize),
    /// Fraction of the graph's data items held on-chip (e.g. `0.1` for the
    /// 10% setting of the Fig. 12 study).
    Fraction(f64),
}

impl MemoryBudget {
    /// Resolves the budget to an item count for a graph with `data_items`
    /// total items (`|V| + adjacency slots`).
    ///
    /// Returns [`ConfigError::BadFraction`] for a fractional budget
    /// outside `[0, 1]` (NaN included).
    pub fn resolve(self, data_items: usize) -> Result<usize, ConfigError> {
        match self {
            MemoryBudget::Items(n) => Ok(n),
            MemoryBudget::Fraction(f) => {
                if !(0.0..=1.0).contains(&f) {
                    return Err(ConfigError::BadFraction(f));
                }
                Ok(((data_items as f64) * f).round() as usize)
            }
        }
    }
}

/// The on-chip memory organisation, selecting between GRAMER's hierarchy
/// and the two Fig. 12 baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryMode {
    /// The paper's locality-aware memory hierarchy: high-priority
    /// scratchpad + low-priority cache under the locality-preserved
    /// replacement policy (Eq. 2).
    Lamh,
    /// High-priority scratchpad + low-priority cache under classical LRU
    /// ("Static + LRU" in Fig. 12).
    StaticLru,
    /// No scratchpad; a uniform LRU cache of the same total capacity
    /// ("Uniform LRU" in Fig. 12).
    UniformLru,
}

/// Recurrent-pattern memoization of the pairwise connectivity probe.
///
/// Unlike [`AccessPath`], this is a *modeled hardware structure*, not a
/// host-side engine choice: enabling it legitimately changes simulated
/// cycles, memory statistics and DRAM traffic (a memo hit skips one vertex access and two edge probes and
/// pays a modeled lookup instead). Mined results — embeddings, candidate
/// counts, pattern counts — are bit-identical either way, because the
/// memo caches a pure function of the immutable graph. `Off` is the
/// reference path and is asserted to perform zero memo work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoMode {
    /// No memo table: the reference access stream (default).
    #[default]
    Off,
    /// Byte-budgeted LRU memo table over canonical vertex pairs.
    On {
        /// On-chip SRAM budget in bytes (16 bytes per entry).
        bytes: u64,
    },
}

impl MemoMode {
    /// Whether memoization is enabled.
    pub fn is_on(&self) -> bool {
        matches!(self, MemoMode::On { .. })
    }
}

impl std::str::FromStr for MemoMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(MemoMode::Off),
            "on" => Ok(MemoMode::On {
                bytes: gramer_mining::DEFAULT_MEMO_BYTES,
            }),
            other => match other.parse::<u64>() {
                Ok(bytes) if bytes >= gramer_mining::MEMO_ENTRY_BYTES => Ok(MemoMode::On { bytes }),
                Ok(bytes) => Err(format!(
                    "memo budget {bytes} is below one entry ({} bytes)",
                    gramer_mining::MEMO_ENTRY_BYTES
                )),
                Err(_) => Err(format!(
                    "unknown memo mode {other:?} (expected \"on\", \"off\" or a byte budget)"
                )),
            },
        }
    }
}

/// Upper bound accepted for [`GramerConfig::sim_threads`].
pub const MAX_SIM_THREADS: usize = 64;

/// Configuration of the GRAMER accelerator.
///
/// [`GramerConfig::default`] reproduces the evaluated configuration of
/// §VI-A: 8 PUs × 16 slots (128 concurrent embeddings), 16-deep ancestor
/// buffers, 8 memory partitions, 200 MHz, λ = 1, τ chosen by
/// `MIN(50%, |Memory| / (2·(|V|+|E|)))`.
#[derive(Debug, Clone)]
pub struct GramerConfig {
    /// Number of processing units.
    pub num_pus: usize,
    /// Pipeline slots (concurrent embeddings) per PU.
    pub slots_per_pu: usize,
    /// Maximum extension depth supported by the ancestor buffers.
    pub ancestor_depth: usize,
    /// Accelerator clock in Hz (the paper conservatively runs at 200 MHz).
    pub clock_hz: f64,
    /// On-chip memory capacity.
    pub budget: MemoryBudget,
    /// Explicit τ override; `None` applies the paper's formula.
    pub tau: Option<f64>,
    /// Balancing factor λ of the locality-preserved policy.
    pub lambda: f64,
    /// Memory organisation (GRAMER or a Fig. 12 baseline).
    pub memory_mode: MemoryMode,
    /// Whether the per-PU work-stealing mechanism of §V-C is enabled.
    pub work_stealing: bool,
    /// Dispatch initial embeddings statically (pure round-robin
    /// pre-assignment) instead of the default demand-driven streaming,
    /// where the Arbitrator hands the next initial embedding to whichever
    /// PU frees a slot. Static dispatch is kept as an ablation knob — it
    /// systematically overloads the PU that receives the hottest roots.
    pub static_dispatch: bool,
    /// Number of banked memory partitions.
    pub partitions: usize,
    /// On-chip latencies.
    pub latency: LatencyConfig,
    /// Off-chip DRAM model.
    pub dram: DramConfig,
    /// Whether the edge memory performs next-line prefetching on misses
    /// (an extension of §III's Prefetcher to adjacency walks). Off by
    /// default: the `ablation` harness measures that at constrained
    /// on-chip budgets the prefetch fills pollute the small low-priority
    /// cache and cost extra DRAM bandwidth, slowing the mine — a negative
    /// result documented in EXPERIMENTS.md.
    pub next_line_prefetch: bool,
    /// Fixed FPGA setup time in seconds. Table III's GRAMER numbers
    /// "include the FPGA setup time and data transfer overheads"; this
    /// floor dominates tiny graphs (real Citeseer runs ~10 ms).
    pub setup_seconds: f64,
    /// Host-to-card transfer bandwidth in bytes/second (PCIe Gen3 x16).
    pub pcie_bandwidth: f64,
    /// Timed-access engine of the memory subsystem. A library-level
    /// reference switch, not a product knob: the default fast path is
    /// bit-exact against [`AccessPath::Exact`] on every simulated
    /// quantity, and the equivalence tests use `Exact` as their
    /// reference.
    pub access_path: AccessPath,
    /// Host threads for running *independent* simulation cells in
    /// parallel (see [`crate::shard`]). A single simulation cell is
    /// always executed serially, so this knob never affects simulated
    /// results; it bounds the worker pool when a caller hands several
    /// cells to [`crate::shard::run_cells`]. Must lie in
    /// `1..=`[`MAX_SIM_THREADS`].
    pub sim_threads: usize,
    /// Recurrent-pattern memoization of the connectivity probe (see
    /// [`MemoMode`]). A modeled structure: changes cycles and memory
    /// traffic, never mined results.
    pub memo: MemoMode,
    /// Adaptive λ autotuning for the locality-preserved policy: when a
    /// telemetry window's on-chip hit ratio trends down against the
    /// previous window, λ is ratcheted upward (one-way, capped) across
    /// every bank at the deterministic window boundary. No-op for
    /// policies without a λ. Changes simulated quantities when it fires.
    pub adaptive_lambda: bool,
    /// Runtime re-pinning: track per-vertex access frequency and, when
    /// the pinned set's share of vertex traffic goes stale mid-run,
    /// rebuild the vertex scratchpad pin set from the observed hot set
    /// (edge pinning is left unchanged), charging a re-pin stall to every
    /// PU. Changes simulated quantities when it fires.
    pub repin: bool,
}

impl Default for GramerConfig {
    fn default() -> Self {
        GramerConfig {
            num_pus: 8,
            slots_per_pu: 16,
            ancestor_depth: 16,
            clock_hz: 200e6,
            // ~0.5M items ≈ 7.75 MB of BRAM at 8 B per vertex record /
            // adjacency slot counting both priority levels — the 65.7%
            // BRAM utilisation of Table II.
            budget: MemoryBudget::Items(500_000),
            tau: None,
            lambda: 1.0,
            memory_mode: MemoryMode::Lamh,
            work_stealing: true,
            static_dispatch: false,
            partitions: 8,
            latency: LatencyConfig::default(),
            dram: DramConfig::default(),
            next_line_prefetch: false,
            setup_seconds: 5e-3,
            pcie_bandwidth: 12e9,
            access_path: AccessPath::default(),
            sim_threads: 1,
            memo: MemoMode::Off,
            adaptive_lambda: false,
            repin: false,
        }
    }
}

impl GramerConfig {
    /// Validates invariants; called by [`crate::Simulator::new`] and
    /// [`crate::preprocess`].
    ///
    /// Returns the first violated invariant as a typed [`ConfigError`]
    /// (degenerate configurations: zero PUs/slots/partitions, non-positive
    /// clock, λ < 0, τ outside `(0, 0.5]`, fractional budget outside
    /// `[0, 1]`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_pus == 0 {
            return Err(ConfigError::ZeroPus);
        }
        if self.slots_per_pu == 0 {
            return Err(ConfigError::ZeroSlots);
        }
        if self.ancestor_depth < 2 {
            return Err(ConfigError::AncestorDepthTooSmall(self.ancestor_depth));
        }
        if !(self.clock_hz.is_finite() && self.clock_hz > 0.0) {
            return Err(ConfigError::BadClock(self.clock_hz));
        }
        if !(self.lambda.is_finite() && self.lambda >= 0.0) {
            return Err(ConfigError::BadLambda(self.lambda));
        }
        if self.partitions == 0 {
            return Err(ConfigError::ZeroPartitions);
        }
        if let Some(tau) = self.tau {
            if !(tau > 0.0 && tau <= 0.5) {
                return Err(ConfigError::BadTau(tau));
            }
        }
        // Surface a bad fractional budget at validation time rather than
        // deep inside tau resolution.
        if let MemoryBudget::Fraction(f) = self.budget {
            if !(0.0..=1.0).contains(&f) {
                return Err(ConfigError::BadFraction(f));
            }
        }
        if !(1..=MAX_SIM_THREADS).contains(&self.sim_threads) {
            return Err(ConfigError::BadSimThreads(self.sim_threads));
        }
        if let MemoMode::On { bytes } = self.memo {
            if bytes < gramer_mining::MEMO_ENTRY_BYTES {
                return Err(ConfigError::BadMemoBudget(bytes));
            }
        }
        Ok(())
    }

    /// The paper's τ formula: `MIN(50%, |Memory| / (2·(|V|+|E|)))`,
    /// honouring an explicit override.
    ///
    /// `data_items` is `|V|` plus the adjacency-slot count. Fails with
    /// [`ConfigError::BadFraction`] if the budget fraction is out of
    /// range.
    pub fn effective_tau(&self, data_items: usize) -> Result<f64, ConfigError> {
        if let Some(t) = self.tau {
            return Ok(t);
        }
        let capacity = self.budget.resolve(data_items)? as f64;
        Ok((capacity / (2.0 * data_items as f64)).min(0.5))
    }

    /// Total concurrent embeddings (`num_pus × slots_per_pu`; 128 in the
    /// evaluated configuration).
    pub fn total_slots(&self) -> usize {
        self.num_pus * self.slots_per_pu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = GramerConfig::default();
        c.validate().unwrap();
        assert_eq!(c.total_slots(), 128);
        assert_eq!(c.partitions, 8);
        assert!((c.clock_hz - 200e6).abs() < 1.0);
    }

    #[test]
    fn tau_formula_caps_at_half() {
        let c = GramerConfig {
            budget: MemoryBudget::Items(1_000_000),
            ..GramerConfig::default()
        };
        // Tiny graph: everything fits, tau = 50%.
        assert!((c.effective_tau(100).unwrap() - 0.5).abs() < 1e-12);
        // Huge graph: tau = capacity / (2 * items).
        let tau = c.effective_tau(10_000_000).unwrap();
        assert!((tau - 0.05).abs() < 1e-12);
    }

    #[test]
    fn tau_override_wins() {
        let c = GramerConfig {
            tau: Some(0.05),
            ..GramerConfig::default()
        };
        assert_eq!(c.effective_tau(123).unwrap(), 0.05);
    }

    #[test]
    fn budget_fraction_resolves() {
        assert_eq!(MemoryBudget::Fraction(0.1).resolve(1000).unwrap(), 100);
        assert_eq!(MemoryBudget::Items(42).resolve(1000).unwrap(), 42);
    }

    #[test]
    fn bad_fraction_is_typed_error() {
        assert_eq!(
            MemoryBudget::Fraction(1.5).resolve(1000),
            Err(ConfigError::BadFraction(1.5))
        );
        assert_eq!(
            MemoryBudget::Fraction(f64::NAN)
                .resolve(1000)
                .map_err(|e| e.kind()),
            Err("config-bad-fraction")
        );
    }

    #[test]
    fn memo_mode_parses() {
        assert_eq!("off".parse::<MemoMode>(), Ok(MemoMode::Off));
        assert_eq!(
            "on".parse::<MemoMode>(),
            Ok(MemoMode::On {
                bytes: gramer_mining::DEFAULT_MEMO_BYTES
            })
        );
        assert_eq!(
            "65536".parse::<MemoMode>(),
            Ok(MemoMode::On { bytes: 65536 })
        );
        assert!("8".parse::<MemoMode>().is_err()); // below one entry
        assert!("fast".parse::<MemoMode>().is_err());
        assert_eq!(MemoMode::default(), MemoMode::Off);
        assert!(!MemoMode::Off.is_on());
        assert!(MemoMode::On { bytes: 1024 }.is_on());
    }

    #[test]
    fn memo_budget_below_entry_rejected() {
        let c = GramerConfig {
            memo: MemoMode::On { bytes: 8 },
            ..GramerConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::BadMemoBudget(8)));
        assert_eq!(
            c.validate().map_err(|e| e.kind()),
            Err("config-bad-memo-budget")
        );
        let ok = GramerConfig {
            memo: MemoMode::On {
                bytes: gramer_mining::MEMO_ENTRY_BYTES,
            },
            ..GramerConfig::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn sim_threads_range_enforced() {
        for bad in [0usize, MAX_SIM_THREADS + 1] {
            let c = GramerConfig {
                sim_threads: bad,
                ..GramerConfig::default()
            };
            assert_eq!(c.validate(), Err(ConfigError::BadSimThreads(bad)));
            assert_eq!(
                c.validate().map_err(|e| e.kind()),
                Err("config-bad-sim-threads")
            );
        }
        let ok = GramerConfig {
            sim_threads: MAX_SIM_THREADS,
            ..GramerConfig::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn bad_tau_rejected() {
        let c = GramerConfig {
            tau: Some(0.9),
            ..GramerConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::BadTau(0.9)));
    }

    #[test]
    fn validate_reports_first_violation() {
        let zero_pus = GramerConfig {
            num_pus: 0,
            ..GramerConfig::default()
        };
        assert_eq!(zero_pus.validate(), Err(ConfigError::ZeroPus));
        let bad_budget = GramerConfig {
            budget: MemoryBudget::Fraction(-0.1),
            ..GramerConfig::default()
        };
        assert_eq!(bad_budget.validate(), Err(ConfigError::BadFraction(-0.1)));
        let bad_clock = GramerConfig {
            clock_hz: f64::NAN,
            ..GramerConfig::default()
        };
        assert_eq!(
            bad_clock.validate().map_err(|e| e.kind()),
            Err("config-bad-clock")
        );
    }
}
