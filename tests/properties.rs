//! Randomized property tests over the core invariants listed in
//! DESIGN.md §4.
//!
//! Historically these used `proptest`; the offline build environment
//! cannot fetch it, so the same properties now run over seeded random
//! inputs drawn from the workspace's deterministic `rand` shim. Every
//! case is reproducible: a failure message includes the case seed.

use gramer_suite::gramer::{
    preprocess, AccessPath, GramerConfig, MemoMode, MemoryBudget, Simulator,
};
use gramer_suite::gramer_graph::{generate, io, on1, reorder, GraphBuilder, VertexId};
use gramer_suite::gramer_memsim::policy::PolicyKind;
use gramer_suite::gramer_memsim::{
    DataKind, HybridConfig, LatencyConfig, MemorySubsystem, SetAssociativeCache, SubsystemConfig,
};
use gramer_suite::gramer_mining::apps::MotifCounting;
use gramer_suite::gramer_mining::{DfsEnumerator, Explorer, NullObserver, Step};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Cases per property (proptest ran 64; these loops are cheap enough to
/// keep that).
const CASES: u64 = 64;

/// A random edge list over up to `n` vertices with 1..max_edges entries.
fn random_edges(rng: &mut StdRng, n: u32, max_edges: usize) -> Vec<(u32, u32)> {
    let count = rng.gen_range(1..max_edges);
    (0..count)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

/// Builds a graph from a random edge list, or `None` when every edge was
/// a self-loop (the builder rejects empty graphs).
fn random_graph(
    rng: &mut StdRng,
    n: u32,
    max_edges: usize,
) -> Option<gramer_suite::gramer_graph::CsrGraph> {
    let mut b = GraphBuilder::new();
    b.add_edges(random_edges(rng, n, max_edges));
    b.build().ok()
}

#[test]
fn csr_roundtrips_through_edge_list() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(g) = random_graph(&mut rng, 24, 60) else {
            continue;
        };
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).expect("write");
        if g.num_edges() == 0 {
            continue;
        }
        let g2 = io::read_edge_list(buf.as_slice()).expect("read");
        assert_eq!(g.num_edges(), g2.num_edges(), "seed {seed}");
        for v in g2.vertices() {
            for &u in g2.neighbors(v) {
                assert!(g.has_edge(v, u), "seed {seed}: phantom edge {v}-{u}");
            }
        }
    }
}

#[test]
fn reordering_is_a_degree_preserving_permutation() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let Some(g) = random_graph(&mut rng, 30, 80) else {
            continue;
        };
        let r = reorder::reorder_by_on1(&g);
        assert_eq!(g.num_vertices(), r.graph.num_vertices(), "seed {seed}");
        assert_eq!(g.num_edges(), r.graph.num_edges(), "seed {seed}");
        let mut seen = vec![false; g.num_vertices()];
        for v in g.vertices() {
            let nv = r.to_new(v);
            assert!(!seen[nv as usize], "seed {seed}: rank {nv} duplicated");
            seen[nv as usize] = true;
            assert_eq!(g.degree(v), r.graph.degree(nv), "seed {seed}");
            assert_eq!(r.to_old(nv), v, "seed {seed}");
        }
    }
}

#[test]
fn mining_counts_invariant_under_relabeling() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2000 + seed);
        let Some(g) = random_graph(&mut rng, 20, 50) else {
            continue;
        };
        let app = MotifCounting::new(4).expect("valid");
        let before = DfsEnumerator::new(&g).run(&app);
        // Fisher–Yates permutation derived from the case seed.
        let n = g.num_vertices();
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..i + 1);
            perm.swap(i, j);
        }
        let relabeled = reorder::apply_permutation(&g, &perm).graph;
        let after = DfsEnumerator::new(&relabeled).run(&app);
        assert_eq!(before.total_at(3), after.total_at(3), "seed {seed}");
        assert_eq!(before.total_at(4), after.total_at(4), "seed {seed}");
        assert_eq!(
            before.count_where(3, |p| p.is_clique()),
            after.count_where(3, |p| p.is_clique()),
            "seed {seed}"
        );
    }
}

#[test]
fn cache_occupancy_never_exceeds_capacity() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3000 + seed);
        let ways = rng.gen_range(1usize..5);
        let sets = rng.gen_range(1usize..9);
        let len = rng.gen_range(1usize..400);
        let mut cache = SetAssociativeCache::new(sets, ways, 0, PolicyKind::default());
        for _ in 0..len {
            let item = rng.gen_range(0u64..500);
            cache.access(item, item as u32);
            assert!(
                cache.resident_lines() <= sets * ways,
                "seed {seed}: occupancy exceeded {sets}x{ways}"
            );
        }
    }
}

#[test]
fn locality_policy_with_huge_lambda_equals_lru() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let len = rng.gen_range(1usize..300);
        let mut lru = SetAssociativeCache::new(2, 4, 0, PolicyKind::Lru);
        let mut loc =
            SetAssociativeCache::new(2, 4, 0, PolicyKind::LocalityPreserved { lambda: 1e15 });
        for _ in 0..len {
            let item = rng.gen_range(0u64..64);
            let a = lru.access(item, item as u32);
            let b = loc.access(item, item as u32);
            assert_eq!(a, b, "seed {seed}: diverged on item {item}");
        }
    }
}

#[test]
fn on1_ranks_are_a_permutation() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5000 + seed);
        let Some(g) = random_graph(&mut rng, 40, 100) else {
            continue;
        };
        let ranks = on1::on1_scores(&g).ranks();
        let mut seen = vec![false; ranks.len()];
        for &r in &ranks {
            assert!(!seen[r as usize], "seed {seed}: rank {r} duplicated");
            seen[r as usize] = true;
        }
    }
}

#[test]
fn explorer_split_conserves_embeddings() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(6000 + seed);
        let Some(g) = random_graph(&mut rng, 18, 40) else {
            continue;
        };
        let cut = rng.gen_range(1usize..30);
        let expected = {
            let app = MotifCounting::new(4).expect("valid");
            DfsEnumerator::new(&g).run(&app).embeddings
        };

        // Run with a split injected after `cut` steps on every root.
        let mut total = 0u64;
        let mut obs = NullObserver;
        for root in g.vertices() {
            let mut pool = vec![Explorer::new(&g, root)];
            let mut steps = 0usize;
            while let Some(mut ex) = pool.pop() {
                loop {
                    match ex.step(&mut obs) {
                        Step::Candidate => {
                            total += 1;
                            if ex.embedding().len() < 4 {
                                ex.descend();
                            } else {
                                ex.retract();
                            }
                        }
                        Step::Done => break,
                        _ => {}
                    }
                    steps += 1;
                    if steps % cut == 0 {
                        if let Some(thief) = ex.split() {
                            pool.push(thief);
                        }
                    }
                }
            }
        }
        assert_eq!(total, expected, "seed {seed} cut {cut}");
    }
}

/// Random pinned-membership mask over `n` items. Shape 0 pins nothing,
/// shape 1 pins a prefix (the post-reorder layout the fast lane
/// recognises), shape 2 pins a scatter (a non-prefix set, which disarms
/// the fast lane entirely — a 100%-fallback degenerate).
fn random_pin_mask(rng: &mut StdRng, n: usize) -> Arc<Vec<bool>> {
    match rng.gen_range(0u32..3) {
        0 => Arc::new(vec![false; n]),
        1 => {
            let k = rng.gen_range(0..n + 1);
            Arc::new((0..n).map(|i| i < k).collect())
        }
        _ => Arc::new((0..n).map(|_| rng.gen_range(0u32..2) == 1).collect()),
    }
}

/// A random `SubsystemConfig` spanning the fast-lane fallback boundary:
/// tiny scratchpad/cache latencies, `port_occupancy > 1`, FIFO depth 1
/// and single-ported banks are all drawn with real probability.
fn random_subsystem_config(rng: &mut StdRng) -> SubsystemConfig {
    let policy = PolicyKind::default();
    let hybrid = |rng: &mut StdRng, n: usize| HybridConfig {
        pinned: random_pin_mask(rng, n),
        sets: rng.gen_range(1usize..5),
        ways: rng.gen_range(1usize..5),
        block_bits: rng.gen_range(0u32..3),
        policy,
    };
    SubsystemConfig {
        partitions: 1 << rng.gen_range(0u32..4),
        vertex: hybrid(rng, 64),
        edge: hybrid(rng, 128),
        vertex_route_bits: 0,
        edge_route_bits: rng.gen_range(0u32..3),
        next_line_prefetch: rng.gen_range(0u32..2) == 1,
        latency: LatencyConfig {
            scratchpad_cycles: rng.gen_range(1u64..4),
            cache_cycles: rng.gen_range(1u64..6),
            port_occupancy_cycles: rng.gen_range(1u64..4),
            ports_per_bank: rng.gen_range(1usize..4),
            request_fifo_depth: [0, 1, 2, 8][rng.gen_range(0usize..4)],
            memo_lookup_cycles: rng.gen_range(1u64..3),
            filter_lookup_cycles: 1,
        },
        dram: Default::default(),
        access_path: AccessPath::Fast,
    }
}

/// Tentpole invariant: the pinned-run fast lane is bit-exact. A fast and
/// an exact subsystem driven in lockstep over random configs and random
/// access streams must return identical completions on every access and
/// identical statistics at the end — including configs that force 100%
/// fallback (scatter pins, nothing pinned) and configs where the ultra
/// lane dominates (full prefix, quiet FIFOs).
#[test]
fn fast_path_matches_exact_path() {
    let mut seen_mixed_fallback = false;
    let mut seen_fast_hits = false;
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(7000 + seed);
        let cfg = random_subsystem_config(&mut rng);
        let exact_cfg = SubsystemConfig {
            access_path: AccessPath::Exact,
            ..cfg.clone()
        };
        let mut fast = MemorySubsystem::try_new(cfg).expect("valid random config");
        let mut exact = MemorySubsystem::try_new(exact_cfg).expect("valid random config");
        let mut now = 0u64;
        for i in 0..400 {
            now += rng.gen_range(0u64..3);
            let (kind, item) = if rng.gen_range(0u32..2) == 0 {
                (DataKind::Vertex, rng.gen_range(0u64..64))
            } else {
                (DataKind::Edge, rng.gen_range(0u64..128))
            };
            let rank = item as u32;
            let a = fast.access(kind, item, rank, now);
            let b = exact.access(kind, item, rank, now);
            assert_eq!(
                a, b,
                "seed {seed}: access {i} diverged ({kind:?} {item} @{now})"
            );
        }
        assert_eq!(fast.stats(), exact.stats(), "seed {seed}: stats diverged");
        assert_eq!(
            fast.dram_requests(),
            exact.dram_requests(),
            "seed {seed}: dram requests diverged"
        );
        assert_eq!(
            fast.prefetches(),
            exact.prefetches(),
            "seed {seed}: prefetches diverged"
        );
        assert_eq!(
            exact.fast_path_hits(),
            0,
            "seed {seed}: exact mode took the fast lane"
        );
        let total = fast.stats().total();
        let fast_hits = fast.fast_path_hits();
        seen_fast_hits |= fast_hits > 0;
        // The acceptance boundary: at least one seeded config where the
        // exact-path fallback serves > 10% of accesses while the fast
        // lane still fires (proving both sides of the boundary run).
        if fast_hits > 0 && (total - fast_hits) as f64 > 0.1 * total as f64 {
            seen_mixed_fallback = true;
        }
    }
    assert!(seen_fast_hits, "no case exercised the fast lane");
    assert!(
        seen_mixed_fallback,
        "no case mixed fast-lane hits with > 10% exact fallback"
    );
}

/// End-to-end flavour of the same invariant: over randomized
/// `LatencyConfig` and `MemoryBudget` draws, a full simulator run on
/// `AccessPath::Fast` is indistinguishable from `AccessPath::Exact` on
/// every simulated quantity.
#[test]
fn fast_path_matches_exact_path_full_sim() {
    for seed in 0..CASES / 4 {
        let mut rng = StdRng::seed_from_u64(8000 + seed);
        let Some(g) = random_graph(&mut rng, 48, 160) else {
            continue;
        };
        let latency = LatencyConfig {
            scratchpad_cycles: rng.gen_range(1u64..4),
            cache_cycles: rng.gen_range(1u64..6),
            port_occupancy_cycles: rng.gen_range(1u64..4),
            ports_per_bank: rng.gen_range(1usize..4),
            request_fifo_depth: [0, 1, 2, 8][rng.gen_range(0usize..4)],
            memo_lookup_cycles: rng.gen_range(1u64..3),
            filter_lookup_cycles: 1,
        };
        let budget = MemoryBudget::Fraction(rng.gen_range(2u32..60) as f64 / 100.0);
        let fast_cfg = GramerConfig {
            latency,
            budget,
            access_path: AccessPath::Fast,
            ..GramerConfig::default()
        };
        let exact_cfg = GramerConfig {
            access_path: AccessPath::Exact,
            ..fast_cfg.clone()
        };
        let pre = preprocess(&g, &fast_cfg).expect("random graph preprocesses");
        let app = MotifCounting::new(3).expect("valid");
        let a = Simulator::new(&pre, fast_cfg)
            .expect("valid config")
            .run(&app)
            .expect("runs");
        let b = Simulator::new(&pre, exact_cfg)
            .expect("valid config")
            .run(&app)
            .expect("runs");
        assert_eq!(a.cycles, b.cycles, "seed {seed}");
        assert_eq!(a.steps, b.steps, "seed {seed}");
        assert_eq!(a.steals, b.steals, "seed {seed}");
        assert_eq!(a.mem, b.mem, "seed {seed}");
        assert_eq!(a.dram_requests, b.dram_requests, "seed {seed}");
        assert_eq!(a.pu_steps, b.pu_steps, "seed {seed}");
        assert_eq!(a.pu_finish, b.pu_finish, "seed {seed}");
        assert_eq!(a.result.embeddings, b.result.embeddings, "seed {seed}");
        assert_eq!(
            a.result.candidates_examined, b.result.candidates_examined,
            "seed {seed}"
        );
        assert_eq!(
            a.result.counts.sorted(),
            b.result.counts.sorted(),
            "seed {seed}"
        );
    }
}

/// The epoch-batched event engine must be indistinguishable from the
/// heap oracle's one-event-at-a-time interleaving on every simulated
/// quantity, across randomized PU/slot geometries (down to the
/// degenerate 1 PU × 1 slot), latency draws, memory budgets,
/// stealing/dispatch modes and both memory access paths. This is the
/// load-bearing property behind the engine: batching is a host-side
/// choice, not a model change.
#[test]
fn epoch_matches_interleaved() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9000 + seed);
        let Some(g) = random_graph(&mut rng, 40, 140) else {
            continue;
        };
        // Degenerate and steal-heavy geometries are the interesting
        // corners: a lone slot exercises the fast-forward horizon, many
        // tiny PUs exercise donation/steal interleavings.
        let (num_pus, slots_per_pu) =
            [(1, 1), (1, 4), (8, 1), (2, 3), (8, 16), (3, 2)][rng.gen_range(0usize..6)];
        let latency = LatencyConfig {
            scratchpad_cycles: rng.gen_range(1u64..4),
            cache_cycles: rng.gen_range(1u64..6),
            port_occupancy_cycles: rng.gen_range(1u64..4),
            ports_per_bank: rng.gen_range(1usize..4),
            request_fifo_depth: [0, 1, 2, 8][rng.gen_range(0usize..4)],
            memo_lookup_cycles: rng.gen_range(1u64..3),
            filter_lookup_cycles: 1,
        };
        let cfg = GramerConfig {
            num_pus,
            slots_per_pu,
            ancestor_depth: 16,
            latency,
            budget: MemoryBudget::Fraction(rng.gen_range(2u32..60) as f64 / 100.0),
            work_stealing: rng.gen_bool(0.7),
            static_dispatch: rng.gen_bool(0.3),
            access_path: if rng.gen_bool(0.5) {
                AccessPath::Fast
            } else {
                AccessPath::Exact
            },
            ..GramerConfig::default()
        };
        let pre = preprocess(&g, &cfg).expect("random graph preprocesses");
        let app = MotifCounting::new(3).expect("valid");
        let sim = Simulator::new(&pre, cfg).expect("valid config");
        let a = sim.run(&app).expect("runs");
        let b = sim.run_oracle(&app).expect("runs");
        assert_eq!(a.cycles, b.cycles, "seed {seed}");
        assert_eq!(a.steps, b.steps, "seed {seed}");
        assert_eq!(a.steals, b.steals, "seed {seed}");
        assert_eq!(a.mem, b.mem, "seed {seed}");
        assert_eq!(a.dram_requests, b.dram_requests, "seed {seed}");
        assert_eq!(a.pu_steps, b.pu_steps, "seed {seed}");
        assert_eq!(a.pu_finish, b.pu_finish, "seed {seed}");
        assert_eq!(a.result.embeddings, b.result.embeddings, "seed {seed}");
        assert_eq!(
            a.result.candidates_examined, b.result.candidates_examined,
            "seed {seed}"
        );
        assert_eq!(
            a.result.counts.sorted(),
            b.result.counts.sorted(),
            "seed {seed}"
        );
    }
}

/// The recurrent-pattern pair memo (`--memo`) is a *model* optimization:
/// it may change cycles, memory traffic and energy, but the mining
/// results — embeddings, candidates examined, per-size acceptance
/// counts, pattern counts — must be bit-identical to the memo-off
/// reference path across randomized geometries, latency draws, budgets
/// and memo byte budgets (down to a single-entry table that thrashes).
#[test]
fn memo_preserves_mining_results() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(10_000 + seed);
        let Some(g) = random_graph(&mut rng, 40, 140) else {
            continue;
        };
        let (num_pus, slots_per_pu) = [(1, 1), (2, 3), (8, 16), (4, 2)][rng.gen_range(0usize..4)];
        let latency = LatencyConfig {
            scratchpad_cycles: rng.gen_range(1u64..4),
            cache_cycles: rng.gen_range(1u64..6),
            port_occupancy_cycles: rng.gen_range(1u64..4),
            ports_per_bank: rng.gen_range(1usize..4),
            request_fifo_depth: [0, 1, 2, 8][rng.gen_range(0usize..4)],
            memo_lookup_cycles: rng.gen_range(1u64..3),
            filter_lookup_cycles: 1,
        };
        // Budgets from one entry (16 B, constant eviction) to roomy.
        let bytes = [16u64, 64, 1 << 10, 1 << 16, 1 << 20][rng.gen_range(0usize..5)];
        let off_cfg = GramerConfig {
            num_pus,
            slots_per_pu,
            ancestor_depth: 16,
            latency,
            budget: MemoryBudget::Fraction(rng.gen_range(2u32..60) as f64 / 100.0),
            work_stealing: rng.gen_bool(0.7),
            memo: MemoMode::Off,
            ..GramerConfig::default()
        };
        let on_cfg = GramerConfig {
            memo: MemoMode::On { bytes },
            ..off_cfg.clone()
        };
        let pre = preprocess(&g, &off_cfg).expect("random graph preprocesses");
        let app = MotifCounting::new(3).expect("valid");
        let a = Simulator::new(&pre, off_cfg)
            .expect("valid config")
            .run(&app)
            .expect("runs");
        let b = Simulator::new(&pre, on_cfg)
            .expect("valid config")
            .run(&app)
            .expect("runs");
        assert!(a.memo.is_none(), "seed {seed}: reference path probed memo");
        let stats = b.memo.unwrap_or_else(|| panic!("seed {seed}: no stats"));
        assert_eq!(
            stats.lookups(),
            stats.hits + stats.misses,
            "seed {seed}: lookup accounting broken"
        );
        assert_eq!(a.result.embeddings, b.result.embeddings, "seed {seed}");
        assert_eq!(
            a.result.candidates_examined, b.result.candidates_examined,
            "seed {seed}"
        );
        assert_eq!(
            a.result.accepted_by_size, b.result.accepted_by_size,
            "seed {seed}"
        );
        assert_eq!(
            a.result.candidates_by_size, b.result.candidates_by_size,
            "seed {seed}"
        );
        assert_eq!(
            a.result.counts.sorted(),
            b.result.counts.sorted(),
            "seed {seed}"
        );
        // A memoizing run never issues *more* memory work than the
        // reference: hits only remove accesses.
        assert!(
            b.mem.total() <= a.mem.total(),
            "seed {seed}: memo added accesses ({} > {})",
            b.mem.total(),
            a.mem.total()
        );
    }
}

#[test]
fn generators_are_power_law_where_promised() {
    use gramer_suite::gramer_graph::stats::degree_stats;
    let cl = degree_stats(&generate::chung_lu(3000, 9000, 2.2, 1));
    let er = degree_stats(&generate::erdos_renyi(3000, 9000, 1));
    assert!(cl.gini > er.gini + 0.2);
}
