//! The memory model replayed alone: the `(kind, item, rank)` access
//! stream of an enumeration-only pass, fed in issue order into a
//! `MemorySubsystem` built the way the simulator builds its own.

use gramer::{GramerConfig, MemoryMode, Preprocessed};
use gramer_graph::VertexId;
use gramer_memsim::policy::PolicyKind;
use gramer_memsim::{DataKind, HybridConfig, MemorySubsystem, SubsystemConfig};
use gramer_mining::AccessObserver;
use std::sync::Arc;

/// Marks an edge access in a packed stream entry.
const EDGE_BIT: u32 = 1 << 31;

/// An [`AccessObserver`] that keeps every vertex and edge access in
/// issue order, four bytes each: the top bit is the kind, the rest the
/// item (vertex id or adjacency slot). An edge's rank is its source
/// vertex, which [`replay`] looks up from the slot, so the stream need
/// not carry it.
#[derive(Debug, Default)]
pub struct AccessRecorder {
    /// Packed accesses.
    pub stream: Vec<u32>,
}

impl AccessObserver for AccessRecorder {
    fn vertex_access(&mut self, v: VertexId, _size: usize) {
        self.stream.push(v);
    }

    fn edge_access(&mut self, slot: usize, _src: VertexId, _size: usize) {
        self.stream.push(slot as u32 | EDGE_BIT);
    }
}

/// Source vertex of every adjacency slot of `pre`'s graph.
pub fn slot_sources(pre: &Preprocessed) -> Vec<VertexId> {
    let g = &pre.graph;
    let mut src = Vec::with_capacity(g.adjacency_len());
    for v in g.vertices() {
        src.extend(std::iter::repeat_n(v, g.degree(v)));
    }
    src
}

/// Builds the memory subsystem the simulator would build for `pre`
/// under `cfg`: one bank pair per partition, pin masks from the
/// preprocessing, 4-way sets, and 4-slot edge blocks routed whole to
/// one partition. Only the default locality-aware memory mode is
/// mirrored.
pub fn build_memory(pre: &Preprocessed, cfg: &GramerConfig) -> Result<MemorySubsystem, String> {
    if cfg.memory_mode != MemoryMode::Lamh {
        return Err(format!(
            "replay mirrors only the default memory mode, not {:?}",
            cfg.memory_mode
        ));
    }
    let policy = PolicyKind::LocalityPreserved { lambda: cfg.lambda };
    let hybrid = |pinned: Arc<Vec<bool>>, cache_items: usize, block_bits: u32| {
        let per_partition = cache_items.div_ceil(cfg.partitions).max(4);
        let lines = per_partition.div_ceil(1 << block_bits);
        HybridConfig {
            pinned,
            sets: lines.div_ceil(4).max(1),
            ways: 4,
            block_bits,
            policy,
        }
    };
    MemorySubsystem::try_new(SubsystemConfig {
        partitions: cfg.partitions,
        vertex: hybrid(pre.vertex_pin_mask.clone(), pre.vertex_pin, 0),
        edge: hybrid(pre.edge_pin_mask.clone(), pre.edge_pin, 2),
        vertex_route_bits: 0,
        edge_route_bits: 2,
        next_line_prefetch: cfg.next_line_prefetch,
        latency: cfg.latency,
        dram: cfg.dram,
        access_path: cfg.access_path,
    })
    .map_err(|e| format!("memory subsystem: {e}"))
}

/// Replays `stream` into `mem`, each access issued when the previous
/// one completes. Returns the number of accesses made.
pub fn replay(mem: &mut MemorySubsystem, stream: &[u32], src_of_slot: &[VertexId]) -> u64 {
    let mut now = 0u64;
    for &packed in stream {
        let c = if packed & EDGE_BIT == 0 {
            mem.access(DataKind::Vertex, u64::from(packed), packed, now)
        } else {
            let slot = packed & !EDGE_BIT;
            mem.access(
                DataKind::Edge,
                u64::from(slot),
                src_of_slot[slot as usize],
                now,
            )
        };
        now = c.finish;
    }
    std::hint::black_box(now);
    stream.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramer_graph::generate;
    use gramer_mining::{apps::CliqueFinding, DfsEnumerator};

    #[test]
    fn replayed_count_matches_a_run_without_work_stealing() {
        let g = generate::barabasi_albert(300, 3, 5);
        let mut cfg = GramerConfig::default();
        let pre = gramer::preprocess(&g, &cfg).expect("preprocess");
        let app = CliqueFinding::new(3).expect("app");
        let mut rec = AccessRecorder::default();
        DfsEnumerator::new(&pre.graph).run_with_observer(&app, &mut rec);
        let mut mem = build_memory(&pre, &cfg).expect("memory");
        let n = replay(&mut mem, &rec.stream, &slot_sources(&pre));
        assert_eq!(mem.stats().total(), n);
        // A thief re-reads what it takes over, so only a run without
        // stealing makes exactly the enumerator's accesses.
        cfg.work_stealing = false;
        let report = gramer::Simulator::new(&pre, cfg)
            .expect("sim")
            .run(&app)
            .expect("run");
        assert_eq!(report.mem.total(), n);
    }
}
