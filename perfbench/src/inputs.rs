//! Seeded input files for the mining workloads.
//!
//! Inputs are written by a child process (`perfbench gen ...`), so the
//! measuring process's peak RSS covers loading and mining only, not the
//! generators.

use gramer_graph::{generate, io, CsrGraph, GraphBuilder};
use std::path::{Path, PathBuf};

/// R-MAT scale of `mine-rmat-mc` (8192 vertex ids).
pub const RMAT_SCALE: u32 = 13;
/// R-MAT edges drawn for `mine-rmat-mc`, before de-duplication.
pub const RMAT_EDGES: usize = 40_000;
/// Components of the `mine-ba-cf-memo` graph. Several independent
/// components keep the seed-to-seed spread of the modeled cycles near
/// 2%, where one BA graph of the same size spreads about 5%.
pub const BA_COMPONENTS: usize = 4;
/// Vertices per component of the `mine-ba-cf-memo` graph.
pub const BA_N: usize = 2_500;
/// Edges each new vertex attaches with in the `mine-ba-cf-memo` graph.
pub const BA_M: usize = 6;
/// Components of the `mine-query-large` graph. A match count is driven
/// by which labels the few hubs draw; 64 independent components keep
/// the seed-to-seed spread of the modeled cycles near 5%, where one BA
/// graph of the same size spreads by a factor of two.
pub const QUERY_COMPONENTS: usize = 64;
/// Vertices per component of the `mine-query-large` graph (1M in all).
pub const QUERY_N: usize = 15_625;
/// Edges each new vertex attaches with in the `mine-query-large` graph.
pub const QUERY_M: usize = 3;
/// Label alphabet of the `mine-query-large` graph.
pub const QUERY_ALPHABET: u16 = 16;

/// The input file of `workload` in `dir`.
pub fn input_path(dir: &Path, workload: &str) -> PathBuf {
    match workload {
        "mine-query-large" => dir.join("graph.bin"),
        _ => dir.join("graph.txt"),
    }
}

/// Disjoint union of `components` seeded BA(`n`, `m`) graphs.
pub fn ba_forest(components: usize, n: usize, m: usize, seed: u64) -> Result<CsrGraph, String> {
    let mut b = GraphBuilder::new();
    for c in 0..components {
        let g = generate::barabasi_albert(n, m, seed.wrapping_mul(1000).wrapping_add(c as u64));
        let off = (c * n) as u32;
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                if v < u {
                    b.add_edge(v + off, u + off);
                }
            }
        }
    }
    b.build().map_err(|e| e.to_string())
}

/// Writes the input of `workload` for `seed` into `dir`.
pub fn generate_input(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = input_path(dir, workload);
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    match workload {
        "mine-rmat-mc" => {
            let g = generate::rmat(RMAT_SCALE, RMAT_EDGES, Default::default(), seed);
            io::write_edge_list(&g, &mut out)
        }
        "mine-ba-cf-memo" => {
            io::write_edge_list(&ba_forest(BA_COMPONENTS, BA_N, BA_M, seed)?, &mut out)
        }
        "mine-query-large" => {
            let g = ba_forest(QUERY_COMPONENTS, QUERY_N, QUERY_M, seed)?;
            let g = generate::with_random_labels(&g, QUERY_ALPHABET, seed ^ 0x1abe1);
            io::write_binary(&g, &mut out)
        }
        other => return Err(format!("no input for workload {other:?}")),
    }
    .map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut out).map_err(|e| e.to_string())
}
