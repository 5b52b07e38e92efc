use crate::config::{GramerConfig, MemoMode, MemoryMode};
use crate::error::{ConfigError, SimError};
use crate::events::SlotCalendar;
use crate::preprocess::Preprocessed;
use crate::progress;
use crate::report::QueryRunStats;
use crate::report::RunReport;
use crate::telemetry::{NullSink, SinkObserver, Telemetry, TelemetrySink};
use gramer_graph::VertexId;
use gramer_memsim::policy::PolicyKind;
use gramer_memsim::{DataKind, HybridConfig, MemError, MemorySubsystem, SubsystemConfig};
use gramer_mining::{
    AccessObserver, CandidateFilter, CandidateProbe, CandidateSets, EcmApp, Explorer, MemoProbe,
    MemoStats, MiningResult, NoFilter, NoMemo, PairMemoTable, PatternCounts, PatternInterner,
    QueryApp, Step, Tee,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Cycles an idle slot waits before re-checking for stealable work.
const IDLE_RETRY_CYCLES: u64 = 32;
/// Extra cycles charged when a steal succeeds (stealing-buffer pop plus
/// ancestor transfer, §V-C).
const STEAL_PENALTY_CYCLES: u64 = 2;
/// Executed events per heartbeat flush. The thread-local lookup in
/// `tick` costs as much as several queue operations, so the event loop
/// batches it; cancellation latency stays well under a millisecond at
/// any realistic event rate. The epoch driver additionally checks for
/// cancellation at every epoch boundary (a single relaxed load on a
/// hoisted token), so the watchdog's latency bound never degrades to
/// "once per batch" even on sparse event populations.
const PROGRESS_BATCH: u64 = 256;
/// Window width of the λ-autotuner (`--adaptive-lambda`): the on-chip
/// hit ratio is sampled as a delta every this many simulated cycles.
const ADAPT_WINDOW_CYCLES: u64 = 4096;
/// Hit-ratio drop between consecutive adaptation windows that triggers a
/// λ ratchet.
const ADAPT_DROP_THRESHOLD: f64 = 0.01;
/// Ceiling of the λ ratchet — beyond this the locality-preserved policy
/// is saturated (effectively "always keep the hotter line").
const LAMBDA_MAX: f64 = 1e6;
/// Window width of the re-pinning monitor (`--repin`).
const REPIN_WINDOW_CYCLES: u64 = 8192;
/// Minimum share of windowed vertex traffic the pinned set must capture;
/// below it the pin set is considered stale and rebuilt.
const REPIN_CONCENTRATION: f64 = 0.5;
/// Cycles every PU stalls while a re-pin swaps the scratchpad contents
/// (the DMA that reloads the high-priority memory is not free).
const REPIN_STALL_CYCLES: u64 = 64;

/// The discrete-event GRAMER simulator.
///
/// Each of the `num_pus × slots_per_pu` pipeline slots owns the step-wise
/// DFS of one initial embedding ([`gramer_mining::Explorer`]); a PU's
/// scheduler issues at most one slot-step per cycle (§V-B, "the Scheduler
/// … schedules one valid embedding per cycle"), every memory access flows
/// through the banked [`MemorySubsystem`] (queueing included), and idle
/// slots steal split-off extension ranges from busy neighbours.
///
/// See the crate-level example for usage.
#[derive(Debug)]
pub struct Simulator<'p> {
    pre: &'p Preprocessed,
    config: GramerConfig,
}

/// An [`AccessObserver`] that charges each access to the memory subsystem
/// and chains completion times (accesses within one extension step are
/// dependent). Every logical access goes through the hierarchy, as in the
/// paper's Fig. 7 — sequential neighbor walks get their spatial reuse
/// from the cache's multi-slot blocks, not from a bypass register.
struct TimedObserver<'a> {
    mem: &'a mut MemorySubsystem,
    now: u64,
    /// Windowed per-vertex access counts for the re-pinning monitor.
    /// Empty (and therefore free: `get_mut` fails without a bounds
    /// check against real data) unless `--repin` is active.
    freq: &'a mut [u32],
}

impl AccessObserver for TimedObserver<'_> {
    fn vertex_access(&mut self, v: VertexId, _size: usize) {
        if let Some(f) = self.freq.get_mut(v as usize) {
            *f += 1;
        }
        // After reordering, the priority rank of a vertex IS its ID.
        let c = self.mem.access(DataKind::Vertex, v as u64, v, self.now);
        self.now = c.finish;
    }

    fn edge_access(&mut self, slot: usize, src: VertexId, _size: usize) {
        // An edge inherits the rank of its source vertex (§IV-B); the
        // explorer passes the source along, so no slot → source lookup
        // is needed on this path.
        let c = self.mem.access(DataKind::Edge, slot as u64, src, self.now);
        self.now = c.finish;
    }

    // A memo probe — hit or miss — costs one modeled table lookup; the
    // hit's saving is the vertex/edge accesses it no longer performs.
    fn memo_hit(&mut self, _size: usize) {
        self.now = self.mem.memo_lookup(self.now);
    }

    fn memo_miss(&mut self, _size: usize) {
        self.now = self.mem.memo_lookup(self.now);
    }

    // A candidate-filter admission check costs one modeled bitmap read,
    // charged whether it admits or rejects — filtered runs pay for their
    // pruning.
    fn filter_probe(&mut self, _admitted: bool, _size: usize) {
        self.now = self.mem.filter_lookup(self.now);
    }
}

/// Per-PU state, split hot-from-cold: the scheduler reads `next_issue`
/// and `active_slots` on every scheduled event, so they live in flat
/// parallel vectors (a cache line covers all eight PUs) instead of
/// alongside the fat root queues, which are only touched when a slot
/// drains.
struct Pus {
    next_issue: Vec<u64>,
    active_slots: Vec<u32>,
    roots: Vec<VecDeque<VertexId>>,
}

/// State of the λ autotuner (`--adaptive-lambda`): samples the on-chip
/// hit ratio as a windowed delta and ratchets the locality-preserved
/// policy's λ upward whenever the ratio trends down — the knob the paper
/// tunes per-dataset, re-tuned online instead.
struct AdaptState {
    /// First cycle of the next adaptation window.
    next_window: u64,
    /// Cumulative on-chip hits at the last window boundary.
    prev_on_chip: u64,
    /// Cumulative accesses at the last window boundary.
    prev_total: u64,
    /// Previous window's hit ratio (`None` until one full window with
    /// traffic has closed).
    prev_ratio: Option<f64>,
    /// Current λ (starts at the configured value).
    lambda: f64,
    retunes: u32,
}

/// State of the re-pinning monitor (`--repin`): watches how much of the
/// windowed vertex traffic the ON1 pin set still captures and rebuilds
/// the scratchpad contents from observed frequencies when it goes stale.
struct RepinState {
    /// First cycle of the next monitoring window.
    next_window: u64,
    /// Current pinned-membership mask (starts as the ON1 prefix).
    mask: std::sync::Arc<Vec<bool>>,
    /// Number of pinned vertices (capacity of the high-priority memory —
    /// invariant across re-pins).
    pin_count: usize,
    epochs: u32,
}

/// Everything one run mutates, shared verbatim by the two loop drivers.
///
/// The epoch engine ([`Simulator::run_epochs`]) and the heap oracle
/// ([`Simulator::run_heap`]) differ only in *which order machinery*
/// hands `(time, slot)` events to [`RunState::exec_event`]; the event
/// semantics live here exactly once, so the two cannot drift apart —
/// the bit-identity the equivalence tests and `epoch_matches_interleaved`
/// assert is structural, not coincidental.
struct RunState<'s, 'p, A: EcmApp> {
    app: &'s A,
    cfg: &'s GramerConfig,
    pre: &'p Preprocessed,
    mem: MemorySubsystem,
    interner: PatternInterner,
    counts: PatternCounts,
    embeddings: u64,
    candidates: u64,
    steals: u64,
    steps: u64,
    max_time: u64,
    pu_steps: Vec<u64>,
    pu_finish: Vec<u64>,
    accepted_by_size: Vec<u64>,
    candidates_by_size: Vec<u64>,
    pus: Pus,
    spp: usize,
    pu_of: Vec<u32>,
    slots: Vec<Option<Explorer<'p>>>,
    /// Windowed vertex-access frequencies (empty unless `--repin`).
    vtx_freq: Vec<u32>,
    adapt: Option<AdaptState>,
    repin: Option<RepinState>,
}

impl<'s, 'p, A: EcmApp> RunState<'s, 'p, A> {
    /// Executes the event `(t, id)`: one idle-acquire attempt or one
    /// slot-step, with every counter, memory access and telemetry hook of
    /// the historical event loop. Returns the time of the slot's next
    /// event, or `None` when the slot retires (its PU has fully drained).
    #[inline]
    fn exec_event<S: TelemetrySink, M: MemoProbe, Q: CandidateProbe>(
        &mut self,
        t: u64,
        id: u32,
        sink: &mut S,
        memo: &mut M,
        filter: &mut Q,
    ) -> Option<u64> {
        // Adaptive policies observe window boundaries before the event
        // executes. Both loop drivers hand over the identical `(t, id)`
        // sequence, so these checks fire at identical points — the
        // engine-equivalence guarantee extends to the adaptive paths.
        if self.adapt.is_some() {
            self.maybe_adapt(t, sink);
        }
        if self.repin.is_some() {
            self.maybe_repin(t, sink);
        }
        let RunState {
            app,
            cfg,
            pre,
            mem,
            interner,
            counts,
            embeddings,
            candidates,
            steals,
            steps,
            max_time,
            pu_steps,
            pu_finish,
            accepted_by_size,
            candidates_by_size,
            pus,
            spp,
            pu_of,
            slots,
            vtx_freq,
            adapt: _,
            repin: _,
        } = self;
        let (app, cfg, pre, spp) = (*app, *cfg, *pre, *spp);
        let graph = &pre.graph;
        let sid = id as usize;
        let p = pu_of[sid] as usize;

        // Acquire work if the slot is idle.
        if slots[sid].is_none() {
            let mut acquired_at = t;
            let own = pus.roots[p].pop_front();
            let root = own.or_else(|| {
                if cfg.static_dispatch {
                    return None;
                }
                // Adaptive dispatching: drain the tail (coldest pending
                // root) of the most-loaded peer queue.
                let donor = (0..cfg.num_pus)
                    .filter(|&q| q != p)
                    .max_by_key(|&q| (pus.roots[q].len(), usize::MAX - q))?;
                let donated = pus.roots[donor].pop_back();
                if S::ACTIVE && donated.is_some() {
                    sink.on_donation(donor, p);
                }
                donated
            });
            if let Some(root) = root {
                slots[sid] = Some(Explorer::with_probe(graph, &pre.probe, root));
                pus.active_slots[p] += 1;
            } else if cfg.work_stealing {
                let mut stolen = None;
                for victim in p * spp..(p + 1) * spp {
                    if victim == sid {
                        continue;
                    }
                    if let Some(ex) = slots[victim].as_mut() {
                        if S::ACTIVE {
                            sink.on_steal_attempt(p);
                        }
                        if let Some(thief) = ex.split() {
                            stolen = Some(thief);
                            break;
                        }
                    }
                }
                if let Some(thief) = stolen {
                    slots[sid] = Some(thief);
                    pus.active_slots[p] += 1;
                    *steals += 1;
                    acquired_at = t + STEAL_PENALTY_CYCLES;
                    if S::ACTIVE {
                        sink.on_steal_success(p);
                    }
                }
            }
            if slots[sid].is_none() {
                if S::ACTIVE {
                    sink.on_idle(p);
                }
                // Nothing to do now; retry while peers are active (their
                // descents may create stealable ranges), else retire.
                return (pus.active_slots[p] > 0).then_some(t + IDLE_RETRY_CYCLES);
            }
            if acquired_at > t {
                return Some(acquired_at);
            }
        }

        // Scheduler: one slot-step per PU per cycle.
        let issue = t.max(pus.next_issue[p]);
        pus.next_issue[p] = issue + 1;
        *steps += 1;
        pu_steps[p] += 1;

        let ex = match slots[sid].as_mut() {
            Some(ex) => ex,
            // The idle branch above either filled the slot or bailed.
            None => unreachable!("scheduled an empty slot"),
        };
        // Explorer state the sink wants is captured before the step
        // mutates it; free when the sink is inert.
        let (depth, thief) = if S::ACTIVE {
            (ex.depth(), ex.is_thief())
        } else {
            (0, false)
        };
        let mut obs = Tee(
            TimedObserver {
                mem,
                now: issue,
                freq: vtx_freq,
            },
            SinkObserver(&mut *sink),
        );
        let step = ex.step_filtered(&mut obs, memo, filter);
        let next_t = match step {
            Step::Rejected => {
                *candidates += 1;
                let next_size = (ex.embedding().len() + 1).min(app.max_vertices());
                candidates_by_size[next_size] += 1;
                obs.0.now
            }
            Step::Traceback => obs.0.now,
            Step::Candidate => {
                *candidates += 1;
                let emb = ex.embedding();
                candidates_by_size[emb.len()] += 1;
                if app.filter(graph, emb) {
                    *embeddings += 1;
                    accepted_by_size[emb.len()] += 1;
                    app.process(graph, emb, interner, counts);
                    if emb.len() < app.max_vertices() {
                        ex.descend();
                    } else {
                        ex.retract();
                    }
                } else {
                    ex.retract();
                }
                // Filter/Process pipeline stage: one extra cycle.
                obs.0.now + 1
            }
            Step::Done => {
                slots[sid] = None;
                pus.active_slots[p] -= 1;
                obs.0.now + 1
            }
        };
        let finished = obs.0.now;
        *max_time = (*max_time).max(finished);
        pu_finish[p] = pu_finish[p].max(finished);
        if S::ACTIVE {
            sink.on_step(p, t, issue, finished, depth, thief, step);
        }
        Some(next_t)
    }

    /// λ autotuner: at each window boundary, compare the window's
    /// on-chip hit ratio with the previous window's; a drop ratchets λ
    /// upward (doubling, floored at 1), biasing the locality-preserved
    /// policy harder toward high-priority lines. Cold (`#[cold]` would
    /// overstate it, but out-of-line) relative to the event hot path.
    fn maybe_adapt<S: TelemetrySink>(&mut self, t: u64, sink: &mut S) {
        let RunState { adapt, mem, .. } = self;
        let Some(a) = adapt.as_mut() else { return };
        if t < a.next_window {
            return;
        }
        while a.next_window <= t {
            a.next_window += ADAPT_WINDOW_CYCLES;
        }
        let stats = mem.stats();
        let total = stats.total();
        let on_chip = total - stats.total_misses();
        let d_total = total - a.prev_total;
        let d_on = on_chip - a.prev_on_chip;
        a.prev_total = total;
        a.prev_on_chip = on_chip;
        if d_total == 0 {
            return;
        }
        let ratio = d_on as f64 / d_total as f64;
        if let Some(prev) = a.prev_ratio {
            if prev - ratio > ADAPT_DROP_THRESHOLD && a.lambda < LAMBDA_MAX {
                let new = (a.lambda * 2.0).clamp(1.0, LAMBDA_MAX);
                if mem.set_lambda(new).is_ok() {
                    a.lambda = new;
                    a.retunes += 1;
                    if S::ACTIVE {
                        sink.on_lambda_retune(new);
                    }
                }
            }
        }
        a.prev_ratio = Some(ratio);
    }

    /// Re-pinning monitor: at each window boundary, measure the share of
    /// windowed vertex traffic the pinned set captured; when it falls
    /// below [`REPIN_CONCENTRATION`] the ON1 ranking has gone stale for
    /// the current exploration frontier, so the pin set is rebuilt from
    /// the observed frequencies (top-K by count, ties to the lower ID)
    /// and every PU is charged the scratchpad-reload stall.
    fn maybe_repin<S: TelemetrySink>(&mut self, t: u64, sink: &mut S) {
        let RunState {
            repin,
            vtx_freq,
            mem,
            pus,
            ..
        } = self;
        let Some(r) = repin.as_mut() else { return };
        if t < r.next_window {
            return;
        }
        while r.next_window <= t {
            r.next_window += REPIN_WINDOW_CYCLES;
        }
        let total: u64 = vtx_freq.iter().map(|&c| u64::from(c)).sum();
        if total == 0 {
            return;
        }
        let pinned: u64 = vtx_freq
            .iter()
            .zip(r.mask.iter())
            .filter(|&(_, &p)| p)
            .map(|(&c, _)| u64::from(c))
            .sum();
        if (pinned as f64) < REPIN_CONCENTRATION * total as f64 {
            let mut idx: Vec<u32> = (0..vtx_freq.len() as u32).collect();
            idx.sort_unstable_by_key(|&i| (std::cmp::Reverse(vtx_freq[i as usize]), i));
            let mut mask = vec![false; vtx_freq.len()];
            for &i in idx.iter().take(r.pin_count) {
                mask[i as usize] = true;
            }
            let mask = std::sync::Arc::new(mask);
            mem.repin_vertices(mask.clone());
            r.mask = mask;
            r.epochs += 1;
            // The reload DMA stalls every PU's scheduler.
            for ni in pus.next_issue.iter_mut() {
                *ni = (*ni).max(t) + REPIN_STALL_CYCLES;
            }
            if S::ACTIVE {
                sink.on_repin(r.epochs);
            }
        }
        vtx_freq.iter_mut().for_each(|c| *c = 0);
    }

    /// Seals the run into a [`RunReport`]. `memo` carries the memo
    /// table's lifetime counters when memoization was active (`None` on
    /// the reference path, which must not have probed at all); `query`
    /// likewise carries the candidate filter's counters for filtered
    /// runs.
    fn finish<S: TelemetrySink>(
        self,
        sink: &mut S,
        memo: Option<MemoStats>,
        query: Option<QueryRunStats>,
    ) -> Result<RunReport, SimError> {
        debug_assert!(self.pus.roots.iter().all(VecDeque::is_empty));
        match &memo {
            // `--memo off` is the bit-exact reference path: not a single
            // modeled lookup may have been charged.
            None => debug_assert_eq!(self.mem.memo_lookups(), 0),
            // Every probe — hit or miss — was charged exactly once.
            Some(s) => debug_assert_eq!(self.mem.memo_lookups(), s.lookups()),
        }
        match &query {
            // Unfiltered runs must never touch the filter SRAM.
            None => debug_assert_eq!(self.mem.filter_lookups(), 0),
            // Every admission check was charged exactly once.
            Some(q) => debug_assert_eq!(self.mem.filter_lookups(), q.probes),
        }

        sink.on_finish(self.max_time, &self.mem);

        let cfg = self.cfg;
        let mem_stats = self.mem.stats();
        let transfer_seconds =
            cfg.setup_seconds + self.pre.graph.footprint_bytes() as f64 / cfg.pcie_bandwidth;
        Ok(RunReport {
            app: self.app.name(),
            cycles: self.max_time,
            seconds: self.max_time as f64 / cfg.clock_hz,
            preprocess_seconds: self.pre.preprocess_seconds,
            transfer_seconds,
            result: MiningResult {
                counts: self.counts,
                interner: self.interner,
                embeddings: self.embeddings,
                candidates_examined: self.candidates,
                accepted_by_size: self.accepted_by_size,
                candidates_by_size: self.candidates_by_size,
            },
            mem: mem_stats,
            dram_requests: self.mem.dram_requests(),
            steals: self.steals,
            steps: self.steps,
            pu_steps: self.pu_steps,
            pu_finish: self.pu_finish,
            memo,
            lambda_retunes: self.adapt.as_ref().map(|a| a.retunes),
            pin_epochs: self.repin.as_ref().map(|r| r.epochs),
            query,
        })
    }
}

impl<'p> Simulator<'p> {
    /// Creates a simulator over a preprocessed graph.
    ///
    /// Fails with a typed [`ConfigError`] if `config` violates an
    /// invariant.
    pub fn new(pre: &'p Preprocessed, config: GramerConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Simulator { pre, config })
    }

    /// Builds the memory subsystem for the configured memory mode.
    ///
    /// The pinned-membership masks come straight from [`Preprocessed`]
    /// (built once per dataset) and are `Arc`-shared into every partition
    /// bank, so constructing a subsystem never copies an O(universe)
    /// vector.
    fn build_memory(&self) -> Result<MemorySubsystem, MemError> {
        let cfg = &self.config;
        let empty_mask = || std::sync::Arc::new(Vec::new());

        let (vertex_mask, vertex_cache_items, edge_mask, edge_cache_items, policy) =
            match cfg.memory_mode {
                MemoryMode::Lamh => (
                    self.pre.vertex_pin_mask.clone(),
                    self.pre.vertex_pin,
                    self.pre.edge_pin_mask.clone(),
                    self.pre.edge_pin,
                    PolicyKind::LocalityPreserved { lambda: cfg.lambda },
                ),
                MemoryMode::StaticLru => (
                    self.pre.vertex_pin_mask.clone(),
                    self.pre.vertex_pin,
                    self.pre.edge_pin_mask.clone(),
                    self.pre.edge_pin,
                    PolicyKind::Lru,
                ),
                // Same total capacity, all of it cache.
                MemoryMode::UniformLru => (
                    empty_mask(),
                    2 * self.pre.vertex_pin,
                    empty_mask(),
                    2 * self.pre.edge_pin,
                    PolicyKind::Lru,
                ),
            };

        let hybrid = |mask: std::sync::Arc<Vec<bool>>, cache_items: usize, block_bits: u32| {
            // The cache is split evenly over the partitions (ceiling so
            // the configured capacity is a lower bound); 4-way
            // set-associative as in §VI-A.
            let per_partition = cache_items.div_ceil(cfg.partitions).max(4);
            let lines = per_partition.div_ceil(1 << block_bits);
            let sets = lines.div_ceil(4).max(1);
            HybridConfig {
                pinned: mask,
                sets,
                ways: 4,
                block_bits,
                policy,
            }
        };

        // Vertices cache per item; edge lines hold 4 consecutive slots
        // (16 B), giving neighbor-walks their natural spatial locality.
        let vertex = hybrid(vertex_mask, vertex_cache_items, 0);
        let edge = hybrid(edge_mask, edge_cache_items, 2);

        MemorySubsystem::try_new(SubsystemConfig {
            partitions: cfg.partitions,
            vertex,
            edge,
            vertex_route_bits: 0,
            // Route whole edge blocks to one partition so spatial blocks
            // stay intact.
            edge_route_bits: 2,
            next_line_prefetch: cfg.next_line_prefetch,
            latency: cfg.latency,
            dram: cfg.dram,
            access_path: cfg.access_path,
        })
    }

    /// Builds the initial [`RunState`] for one run of `app`. When a
    /// candidate filter is active, initial embeddings outside its
    /// admission set are pruned before dispatch: every embedding's
    /// minimum-ID vertex is its canonical root, and that vertex is in
    /// the admission set for any embedding the filter preserves, so
    /// pruning loses no match. Root pruning happens at setup time (like
    /// the dispatch itself) and charges no modeled probes.
    fn start<'s, A: EcmApp, Q: CandidateProbe>(
        &'s self,
        app: &'s A,
        filter: &Q,
    ) -> Result<RunState<'s, 'p, A>, SimError> {
        if app.max_vertices() > self.config.ancestor_depth {
            return Err(SimError::DepthExceedsAncestors {
                depth: app.max_vertices(),
                ancestor_depth: self.config.ancestor_depth,
            });
        }
        let cfg = &self.config;
        let mem = self.build_memory()?;

        // Arbitrator: initial embeddings are dispatched round-robin
        // (§III); the rank-interleaving this produces spreads the hot
        // low-ID roots evenly over the PUs. Under the default adaptive
        // dispatching (§V-C, "parallel executions can be effectively
        // balanced using adaptive dispatching of the initial
        // embeddings"), a PU that drains its queue pulls pending roots
        // from the most-loaded peer queue.
        let mut pus = Pus {
            next_issue: vec![0u64; cfg.num_pus],
            active_slots: vec![0u32; cfg.num_pus],
            roots: (0..cfg.num_pus).map(|_| VecDeque::new()).collect(),
        };
        let mut dispatched = 0usize;
        for v in self.pre.graph.vertices() {
            if Q::ACTIVE && !filter.contains(v) {
                continue;
            }
            pus.roots[dispatched % cfg.num_pus].push_back(v);
            dispatched += 1;
        }

        // Event id = pu * slots_per_pu + slot: monotone in (pu, slot), so
        // `(time, id)` queue order is identical to the historical
        // `(time, pu, slot)` heap order. Slots are stored flat and indexed
        // by the id directly; the id → PU map is a table lookup because a
        // hardware divide by the runtime `slots_per_pu` costs as much as
        // several queue operations on every scheduled event.
        let spp = cfg.slots_per_pu;
        let num_slots = cfg.num_pus * spp;
        let pu_of: Vec<u32> = (0..num_slots).map(|i| (i / spp) as u32).collect();
        let slots: Vec<Option<Explorer<'p>>> = (0..num_slots).map(|_| None).collect();

        // λ autotuning only does anything under the locality-preserved
        // policy; other memory modes silently accept `set_lambda`, so
        // gate here rather than count retunes that cannot take effect.
        let adapt =
            (cfg.adaptive_lambda && cfg.memory_mode == MemoryMode::Lamh).then_some(AdaptState {
                next_window: ADAPT_WINDOW_CYCLES,
                prev_on_chip: 0,
                prev_total: 0,
                prev_ratio: None,
                lambda: cfg.lambda,
                retunes: 0,
            });
        // Re-pinning needs a pinned set to monitor.
        let pin_count = self.pre.vertex_pin_mask.iter().filter(|&&p| p).count();
        let repin = (cfg.repin && pin_count > 0).then(|| RepinState {
            next_window: REPIN_WINDOW_CYCLES,
            mask: self.pre.vertex_pin_mask.clone(),
            pin_count,
            epochs: 0,
        });
        let vtx_freq = if repin.is_some() {
            vec![0u32; self.pre.graph.num_vertices()]
        } else {
            Vec::new()
        };

        Ok(RunState {
            app,
            cfg,
            pre: self.pre,
            mem,
            interner: PatternInterner::new(),
            counts: PatternCounts::new(),
            embeddings: 0,
            candidates: 0,
            steals: 0,
            steps: 0,
            max_time: 0,
            pu_steps: vec![0u64; cfg.num_pus],
            pu_finish: vec![0u64; cfg.num_pus],
            accepted_by_size: vec![0u64; app.max_vertices() + 1],
            candidates_by_size: vec![0u64; app.max_vertices() + 1],
            pus,
            spp,
            pu_of,
            slots,
            vtx_freq,
            adapt,
            repin,
        })
    }

    /// Runs `app` to completion and returns the full report.
    ///
    /// Fails with [`SimError::DepthExceedsAncestors`] when the
    /// application's maximum embedding size exceeds the configured
    /// ancestor-buffer depth, or [`SimError::Memory`] when the memory
    /// subsystem cannot be built.
    ///
    /// The event loop reports forward progress through
    /// [`crate::progress`] once per small batch of executed events and
    /// checks for cancellation at least once per epoch, so a watchdog
    /// (the sweep runner's per-point timeout) can observe liveness and
    /// cancel a run cooperatively with negligible hot-path overhead.
    pub fn run<A: EcmApp>(&self, app: &A) -> Result<RunReport, SimError> {
        self.dispatch_memo::<A, NullSink, Epochs>(app, &mut NullSink)
    }

    /// Runs `app` like [`Simulator::run`] while recording cycle-windowed
    /// telemetry into `tel` (see [`crate::telemetry`]).
    ///
    /// Recording is observational only: the returned [`RunReport`] — and
    /// every simulated quantity inside it — is bit-identical to what
    /// [`Simulator::run`] produces for the same inputs (asserted by
    /// `tests/telemetry.rs`). The sink hooks ride the existing event
    /// loop; they never schedule events or touch the memory subsystem.
    pub fn run_telemetry<A: EcmApp>(
        &self,
        app: &A,
        tel: &mut Telemetry,
    ) -> Result<RunReport, SimError> {
        self.dispatch_memo::<A, Telemetry, Epochs>(app, tel)
    }

    /// Runs a candidate-filtered subgraph query: the LDF → NLF → GQL
    /// pipeline is computed over the (reordered) data graph, initial
    /// embeddings outside the admission set are pruned, and every
    /// examined extension pays one modeled filter probe before the
    /// extend-check pipeline (see [`gramer_mining::query`]).
    ///
    /// Mining results are bit-identical to running the same
    /// [`QueryApp`] through [`Simulator::run`] — the filter is sound, so
    /// it only removes extensions that could never reach a match — while
    /// simulated cycles and energy reflect the pruned extension space
    /// plus the honest filter-probe cost. The report gains a
    /// [`QueryRunStats`] block.
    pub fn run_query(&self, app: &QueryApp) -> Result<RunReport, SimError> {
        self.dispatch_query::<NullSink, Epochs>(app, &mut NullSink)
    }

    /// [`Simulator::run_query`] with cycle-windowed telemetry (the
    /// filtered analogue of [`Simulator::run_telemetry`]).
    pub fn run_query_telemetry(
        &self,
        app: &QueryApp,
        tel: &mut Telemetry,
    ) -> Result<RunReport, SimError> {
        self.dispatch_query::<Telemetry, Epochs>(app, tel)
    }

    /// Test oracle for [`Simulator::run`]: the same run driven by a plain
    /// binary-heap event loop instead of the epoch engine. Reports must
    /// be bit-identical; only the equivalence tests call this.
    #[doc(hidden)]
    pub fn run_oracle<A: EcmApp>(&self, app: &A) -> Result<RunReport, SimError> {
        self.dispatch_memo::<A, NullSink, HeapOracle>(app, &mut NullSink)
    }

    /// Test oracle for [`Simulator::run_telemetry`] (see
    /// [`Simulator::run_oracle`]).
    #[doc(hidden)]
    pub fn run_telemetry_oracle<A: EcmApp>(
        &self,
        app: &A,
        tel: &mut Telemetry,
    ) -> Result<RunReport, SimError> {
        self.dispatch_memo::<A, Telemetry, HeapOracle>(app, tel)
    }

    /// Test oracle for [`Simulator::run_query`] (see
    /// [`Simulator::run_oracle`]).
    #[doc(hidden)]
    pub fn run_query_oracle(&self, app: &QueryApp) -> Result<RunReport, SimError> {
        self.dispatch_query::<NullSink, HeapOracle>(app, &mut NullSink)
    }

    /// Test oracle for [`Simulator::run_query_telemetry`] (see
    /// [`Simulator::run_oracle`]).
    #[doc(hidden)]
    pub fn run_query_telemetry_oracle(
        &self,
        app: &QueryApp,
        tel: &mut Telemetry,
    ) -> Result<RunReport, SimError> {
        self.dispatch_query::<Telemetry, HeapOracle>(app, tel)
    }

    /// Builds the candidate filter for `app`'s query and forks on the
    /// memo mode, mirroring [`Simulator::dispatch_memo`] with an active
    /// [`CandidateFilter`] instead of [`NoFilter`].
    fn dispatch_query<S: TelemetrySink, E: Engine>(
        &self,
        app: &QueryApp,
        sink: &mut S,
    ) -> Result<RunReport, SimError> {
        // Candidates are computed over the REORDERED graph — the one the
        // simulator actually mines.
        let candidates = CandidateSets::build(&self.pre.graph, app.query());
        let mut filter = CandidateFilter::new(&candidates);
        match self.config.memo {
            MemoMode::Off => E::drive(self, app, sink, &mut NoMemo, &mut filter),
            MemoMode::On { bytes } => {
                let mut memo = PairMemoTable::with_budget(bytes);
                E::drive(self, app, sink, &mut memo, &mut filter)
            }
        }
    }

    /// Monomorphization fork on [`GramerConfig::memo`]: `--memo off`
    /// instantiates the loop with the zero-sized [`NoMemo`], whose
    /// `ACTIVE = false` folds every memo branch away — the reference
    /// path is bit-for-bit (and instruction-for-instruction) the
    /// pre-memoization loop. `--memo on` builds one byte-budgeted
    /// [`PairMemoTable`] shared by all PUs for the whole run.
    fn dispatch_memo<A: EcmApp, S: TelemetrySink, E: Engine>(
        &self,
        app: &A,
        sink: &mut S,
    ) -> Result<RunReport, SimError> {
        match self.config.memo {
            MemoMode::Off => E::drive(self, app, sink, &mut NoMemo, &mut NoFilter),
            MemoMode::On { bytes } => {
                let mut memo = PairMemoTable::with_budget(bytes);
                E::drive(self, app, sink, &mut memo, &mut NoFilter)
            }
        }
    }

    /// The test oracle's event loop: a plain binary min-heap of
    /// `(time, slot)` events, popped one at a time. It defines the
    /// reference execution order the epoch engine must reproduce. With
    /// [`NullSink`] every hook and `S::ACTIVE` guard is a compile-time
    /// no-op.
    fn run_heap<A: EcmApp, S: TelemetrySink, M: MemoProbe, F: CandidateProbe>(
        &self,
        app: &A,
        sink: &mut S,
        memo: &mut M,
        filter: &mut F,
    ) -> Result<RunReport, SimError> {
        let mut st = self.start(app, filter)?;
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..st.slots.len() as u32)
            .map(|id| Reverse((0, id)))
            .collect();
        sink.on_begin(self.config.num_pus);

        let mut tick_backlog = 0u64;
        while let Some(Reverse((t, id))) = heap.pop() {
            // Heartbeat + cooperative cancellation point, amortised over
            // batches of executed events.
            tick_backlog += 1;
            if tick_backlog == PROGRESS_BATCH {
                progress::tick_n(PROGRESS_BATCH);
                tick_backlog = 0;
            }
            if S::ACTIVE {
                // The popped event is live but no longer counted by the
                // heap, hence the +1.
                sink.on_event(t, &st.mem, heap.len() + 1);
            }
            if let Some(next_t) = st.exec_event(t, id, sink, memo, filter) {
                heap.push(Reverse((next_t, id)));
            }
        }
        // Flush the partial heartbeat batch (also a final cancel check).
        progress::tick_n(tick_backlog);

        let query = F::ACTIVE.then(|| query_stats(filter));
        st.finish(sink, M::ACTIVE.then(|| memo.stats()), query)
    }

    /// The event engine.
    ///
    /// One *epoch* is one simulated cycle with pending work: the
    /// [`SlotCalendar`] advances to it and hands over that cycle's slots
    /// in ascending id order — which, with `id = pu × slots_per_pu +
    /// slot`, is exactly per-PU batch order, so consecutive events reuse
    /// the same PU's scheduler words, explorer state and root queues
    /// while they are hot. Between epochs nothing is reordered: the
    /// calendar's pop order is the reference `(time, id)` order.
    ///
    /// The *solo-run* fast path exploits the conservative horizon: after
    /// a slot's step schedules its continuation at `next_t`, the slot
    /// keeps executing with zero calendar traffic as long as `next_t` is
    /// strictly earlier than every other pending event
    /// ([`SlotCalendar::peek_time`], derived from the occupancy bitset
    /// and the far heap). Strictness means ties — the only times a
    /// cross-slot interaction (scheduler contention, steal probe, shared
    /// bank conflict) could be observed — always go back through the
    /// calendar, which is why batching can never reorder an observable
    /// interaction.
    fn run_epochs<A: EcmApp, S: TelemetrySink, M: MemoProbe, F: CandidateProbe>(
        &self,
        app: &A,
        sink: &mut S,
        memo: &mut M,
        filter: &mut F,
    ) -> Result<RunReport, SimError> {
        let mut st = self.start(app, filter)?;
        let num_slots = st.slots.len();

        let mut cal = SlotCalendar::new(num_slots);
        for id in 0..num_slots {
            cal.push(0, id as u32);
        }
        sink.on_begin(self.config.num_pus);

        // Hoist the progress token out of the thread-local once: the
        // per-epoch cancellation check is then a single relaxed load,
        // and heartbeats flush in 256-event batches.
        let token = progress::current();
        let mut tick_backlog = 0u64;
        while let Some(t) = cal.advance() {
            if let Some(tok) = &token {
                // Epoch boundary: cancellation check independent of the
                // heartbeat batch, keeping watchdog latency bounded by
                // one epoch even when events are sparse.
                tok.checkpoint(0);
            }
            while let Some(id) = cal.take_at_cur() {
                let mut t_run = t;
                loop {
                    tick_backlog += 1;
                    if tick_backlog == PROGRESS_BATCH {
                        if let Some(tok) = &token {
                            tok.checkpoint(PROGRESS_BATCH);
                        }
                        tick_backlog = 0;
                    }
                    if S::ACTIVE {
                        // The in-flight event is no longer counted by
                        // the calendar, hence the +1 — identical depths
                        // to the oracle's gauge.
                        sink.on_event(t_run, &st.mem, cal.event_count() + 1);
                    }
                    match st.exec_event(t_run, id, sink, memo, filter) {
                        Some(next_t) => {
                            if next_t < cal.peek_time() {
                                // Solo run: strictly earlier than every
                                // other pending event, so no interaction
                                // can be observed before it executes.
                                t_run = next_t;
                            } else {
                                cal.push(next_t, id);
                                break;
                            }
                        }
                        None => break,
                    }
                }
            }
        }
        // Flush the partial heartbeat batch (also a final cancel check).
        if let Some(tok) = &token {
            tok.checkpoint(tick_backlog);
        }

        let query = F::ACTIVE.then(|| query_stats(filter));
        st.finish(sink, M::ACTIVE.then(|| memo.stats()), query)
    }
}

/// The order machinery that drives a run: hands `(time, slot)` events to
/// [`RunState::exec_event`] in reference `(time, id)` order. A type
/// parameter rather than a config field, so product entry points never
/// instantiate the oracle's loop.
trait Engine {
    fn drive<A: EcmApp, S: TelemetrySink, M: MemoProbe, F: CandidateProbe>(
        sim: &Simulator<'_>,
        app: &A,
        sink: &mut S,
        memo: &mut M,
        filter: &mut F,
    ) -> Result<RunReport, SimError>;
}

/// The product engine: [`Simulator::run_epochs`].
struct Epochs;

impl Engine for Epochs {
    fn drive<A: EcmApp, S: TelemetrySink, M: MemoProbe, F: CandidateProbe>(
        sim: &Simulator<'_>,
        app: &A,
        sink: &mut S,
        memo: &mut M,
        filter: &mut F,
    ) -> Result<RunReport, SimError> {
        sim.run_epochs(app, sink, memo, filter)
    }
}

/// The test oracle: [`Simulator::run_heap`].
struct HeapOracle;

impl Engine for HeapOracle {
    fn drive<A: EcmApp, S: TelemetrySink, M: MemoProbe, F: CandidateProbe>(
        sim: &Simulator<'_>,
        app: &A,
        sink: &mut S,
        memo: &mut M,
        filter: &mut F,
    ) -> Result<RunReport, SimError> {
        sim.run_heap(app, sink, memo, filter)
    }
}

/// Seals a live filter's counters into the report block.
fn query_stats<F: CandidateProbe>(filter: &F) -> QueryRunStats {
    let s = filter.stats();
    QueryRunStats {
        admitted: filter.admitted(),
        probes: s.probes,
        rejects: s.rejects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryBudget;
    use crate::preprocess::preprocess;
    use crate::progress::{install, Cancelled, ProgressToken};
    use gramer_graph::generate;
    use gramer_mining::apps::{CliqueFinding, MotifCounting};
    use gramer_mining::{DfsEnumerator, QueryGraph};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn small_graph() -> gramer_graph::CsrGraph {
        generate::barabasi_albert(120, 3, 21)
    }

    #[test]
    fn counts_match_reference_cf() {
        let g = small_graph();
        let cfg = GramerConfig::default();
        let pre = preprocess(&g, &cfg).unwrap();
        let app = CliqueFinding::new(4).unwrap();
        let report = Simulator::new(&pre, cfg).unwrap().run(&app).unwrap();
        let reference = DfsEnumerator::new(&g).run(&app);
        assert_eq!(report.result.total_at(4), reference.total_at(4));
        assert_eq!(report.result.embeddings, reference.embeddings);
        assert_eq!(
            report.result.candidates_examined,
            reference.candidates_examined
        );
    }

    #[test]
    fn counts_match_reference_mc() {
        let g = small_graph();
        let cfg = GramerConfig::default();
        let pre = preprocess(&g, &cfg).unwrap();
        let app = MotifCounting::new(3).unwrap();
        let report = Simulator::new(&pre, cfg).unwrap().run(&app).unwrap();
        // Note: the simulator mines the REORDERED graph; motif counts are
        // relabel-invariant, so totals still match the original.
        let reference = DfsEnumerator::new(&g).run(&app);
        assert_eq!(report.result.total_at(3), reference.total_at(3));
        assert_eq!(
            report.result.count_where(3, |p| p.is_clique()),
            reference.count_where(3, |p| p.is_clique())
        );
    }

    #[test]
    fn stealing_does_not_change_results_but_changes_time() {
        let g = small_graph();
        let base = GramerConfig::default();
        let pre = preprocess(&g, &base).unwrap();
        let app = CliqueFinding::new(4).unwrap();
        let with_steal = Simulator::new(&pre, base.clone())
            .unwrap()
            .run(&app)
            .unwrap();
        let without = Simulator::new(
            &pre,
            GramerConfig {
                work_stealing: false,
                ..base
            },
        )
        .unwrap()
        .run(&app)
        .unwrap();
        assert_eq!(with_steal.result.total_at(4), without.result.total_at(4));
        assert!(with_steal.steals > 0, "no steals happened");
        assert!(without.steals == 0);
        // Stealing should not slow things down on a skewed graph.
        assert!(with_steal.cycles <= without.cycles);
    }

    #[test]
    fn more_slots_fewer_cycles() {
        // A graph large enough that per-PU work dwarfs the ramp-up tail
        // (the paper's own Fig. 13(a) shows no scaling on tiny Citeseer).
        let g = generate::barabasi_albert(800, 3, 7);
        let cfg1 = GramerConfig {
            slots_per_pu: 1,
            ..GramerConfig::default()
        };
        let cfg8 = GramerConfig {
            slots_per_pu: 8,
            ..GramerConfig::default()
        };
        let pre = preprocess(&g, &cfg1).unwrap();
        let app = CliqueFinding::new(4).unwrap();
        let t1 = Simulator::new(&pre, cfg1)
            .unwrap()
            .run(&app)
            .unwrap()
            .cycles;
        let t8 = Simulator::new(&pre, cfg8)
            .unwrap()
            .run(&app)
            .unwrap()
            .cycles;
        assert!(
            (t8 as f64) < (t1 as f64) * 0.7,
            "slots gave no speedup: {t1} -> {t8}"
        );
    }

    #[test]
    fn lamh_beats_uniform_lru_where_locality_is_strong() {
        // The extension-locality regime: a heavy-tailed graph and an
        // application deep enough to concentrate traffic on the hot set
        // (Figs. 5 and 12 of the paper).
        let g = generate::rmat(
            11,
            8000,
            generate::RmatParams {
                a: 0.65,
                b: 0.15,
                c: 0.15,
                d: 0.05,
            },
            5,
        );
        let mk = |mode| GramerConfig {
            budget: MemoryBudget::Fraction(0.1),
            memory_mode: mode,
            ..GramerConfig::default()
        };
        let pre = preprocess(&g, &mk(MemoryMode::Lamh)).unwrap();
        let app = CliqueFinding::new(4).unwrap();
        let lamh = Simulator::new(&pre, mk(MemoryMode::Lamh))
            .unwrap()
            .run(&app)
            .unwrap();
        let uniform = Simulator::new(&pre, mk(MemoryMode::UniformLru))
            .unwrap()
            .run(&app)
            .unwrap();
        assert_eq!(
            lamh.result.total_at(4),
            uniform.result.total_at(4),
            "memory mode must not affect results"
        );
        assert!(
            lamh.cycles < uniform.cycles,
            "LAMH {} !< uniform {} cycles",
            lamh.cycles,
            uniform.cycles
        );
        // Raw hit ratios are close (the uniform cache has twice the
        // adaptive capacity); the win comes from scratchpad-latency hits
        // on the pinned hot set, so the *time* comparison above is the
        // meaningful one. Sanity-bound the ratio gap.
        assert!(
            lamh.mem.on_chip_ratio() > uniform.mem.on_chip_ratio() - 0.05,
            "LAMH hit ratio collapsed: {} vs {}",
            lamh.mem.on_chip_ratio(),
            uniform.mem.on_chip_ratio()
        );
    }

    #[test]
    fn deterministic_runs() {
        let g = small_graph();
        let cfg = GramerConfig::default();
        let pre = preprocess(&g, &cfg).unwrap();
        let app = MotifCounting::new(3).unwrap();
        let a = Simulator::new(&pre, cfg.clone())
            .unwrap()
            .run(&app)
            .unwrap();
        let b = Simulator::new(&pre, cfg).unwrap().run(&app).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.steals, b.steals);
    }

    #[test]
    fn filtered_query_run_matches_unfiltered_and_reports_stats() {
        let g = generate::with_random_labels(&small_graph(), 3, 17);
        let query = QueryGraph::from_spec("1,2,1:0-1,1-2").unwrap();
        let app = QueryApp::new(query).unwrap();
        let cfg = GramerConfig::default();
        let pre = preprocess(&g, &cfg).unwrap();
        let brute = Simulator::new(&pre, cfg.clone())
            .unwrap()
            .run(&app)
            .unwrap();
        let filtered = Simulator::new(&pre, cfg).unwrap().run_query(&app).unwrap();
        // Result-identical at full query size: the filter only skips
        // vertices that cannot appear in any complete match. Partial
        // embeddings MAY shrink — pruning dead-end partials is the point —
        // so compare the full-size totals, not the running `embeddings`.
        assert_eq!(
            filtered.result.total_at(3),
            brute.result.total_at(3),
            "filtered enumeration lost or invented matches"
        );
        assert!(
            filtered.result.embeddings <= brute.result.embeddings,
            "filtering cannot create partial embeddings"
        );
        // Stats are gated: absent on the brute run, present and honest on
        // the filtered one.
        assert!(brute.query.is_none());
        let q = filtered
            .query
            .expect("filtered run must report query stats");
        // `RunState::finish` debug-asserts q.probes == mem.filter_lookups(),
        // so probes here are exactly the modeled bitmap reads.
        assert!(q.probes > 0, "no probes charged");
        assert!(q.rejects > 0, "labels should prune something here");
        // Root pruning shrinks the explored space.
        assert!(filtered.result.candidates_examined <= brute.result.candidates_examined);
    }

    #[test]
    fn filtered_query_run_matches_oracle() {
        let g = generate::with_random_labels(&generate::barabasi_albert(150, 3, 9), 4, 23);
        let query = QueryGraph::from_spec("2,3,2,1:0-1,1-2,2-3,3-0").unwrap();
        let app = QueryApp::new(query).unwrap();
        let cfg = GramerConfig::default();
        let pre = preprocess(&g, &cfg).unwrap();
        let sim = Simulator::new(&pre, cfg).unwrap();
        let a = sim.run_query(&app).unwrap();
        let b = sim.run_query_oracle(&app).unwrap();
        assert_eq!(a.result.embeddings, b.result.embeddings);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.query, b.query);
    }

    #[test]
    fn depth_overflow_is_typed_error() {
        let g = generate::complete(6);
        let cfg = GramerConfig {
            ancestor_depth: 3,
            ..GramerConfig::default()
        };
        let pre = preprocess(&g, &cfg).unwrap();
        let err = Simulator::new(&pre, cfg)
            .unwrap()
            .run(&MotifCounting::new(4).unwrap())
            .expect_err("depth overflow accepted");
        assert_eq!(err.kind(), "sim-depth-exceeds-ancestors");
        assert!(err.to_string().contains("ancestor buffers"));
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let g = generate::cycle(8);
        let good = GramerConfig::default();
        let pre = preprocess(&g, &good).unwrap();
        let bad = GramerConfig {
            num_pus: 0,
            ..GramerConfig::default()
        };
        let err = match Simulator::new(&pre, bad) {
            Err(e) => e,
            Ok(_) => panic!("zero PUs accepted"),
        };
        assert_eq!(err.kind(), "config-zero-pus");
    }

    #[test]
    fn run_bumps_installed_progress_heartbeat() {
        let g = small_graph();
        let cfg = GramerConfig::default();
        let pre = preprocess(&g, &cfg).unwrap();
        let app = CliqueFinding::new(3).unwrap();
        let tok = ProgressToken::new();
        let guard = install(tok.clone());
        let report = Simulator::new(&pre, cfg).unwrap().run(&app).unwrap();
        drop(guard);
        // Heartbeats are batched (one flush per 256 executed events,
        // remainder flushed at the end), so the total still equals the
        // executed-event count — at least one per recorded step — while
        // the watchdog only observes it in coarse jumps.
        assert!(tok.heartbeat() >= report.steps);
        assert!(tok.heartbeat() > 0);
    }

    #[test]
    fn epoch_engine_matches_heap_oracle() {
        let g = small_graph();
        let cfg = GramerConfig::default();
        let pre = preprocess(&g, &cfg).unwrap();
        let sim = Simulator::new(&pre, cfg).unwrap();
        for k in [3usize, 4] {
            let app = CliqueFinding::new(k).unwrap();
            let a = sim.run(&app).unwrap();
            let b = sim.run_oracle(&app).unwrap();
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.steals, b.steals);
            assert_eq!(a.mem, b.mem);
            assert_eq!(a.dram_requests, b.dram_requests);
            assert_eq!(a.pu_steps, b.pu_steps);
            assert_eq!(a.pu_finish, b.pu_finish);
            assert_eq!(a.result.embeddings, b.result.embeddings);
            assert_eq!(a.result.candidates_examined, b.result.candidates_examined);
            assert_eq!(a.result.accepted_by_size, b.result.accepted_by_size);
            assert_eq!(a.result.candidates_by_size, b.result.candidates_by_size);
        }
    }

    /// A sink that requests cancellation from *inside* an epoch: the
    /// cancel lands mid-drain, and the driver must still unwind at its
    /// next checkpoint — within one heartbeat batch — rather than only
    /// between runs. Verifies the watchdog latency bound of the epoch
    /// engine.
    struct CancelAfterEvents {
        after: u64,
        seen: std::sync::Arc<std::sync::atomic::AtomicU64>,
        tok: ProgressToken,
    }

    impl TelemetrySink for CancelAfterEvents {
        const ACTIVE: bool = true;

        fn on_event(&mut self, _now: u64, _mem: &MemorySubsystem, _depth: usize) {
            let seen = self.seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if seen == self.after {
                self.tok.cancel();
            }
        }
    }

    #[test]
    fn cancel_mid_epoch_unwinds_within_latency_bound() {
        let g = small_graph();
        let cfg = GramerConfig::default();
        let pre = preprocess(&g, &cfg).unwrap();
        let app = CliqueFinding::new(4).unwrap();
        const CANCEL_AT: u64 = 1000;
        let seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let tok = ProgressToken::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _guard = install(tok.clone());
            let mut sink = CancelAfterEvents {
                after: CANCEL_AT,
                seen: seen.clone(),
                tok: tok.clone(),
            };
            let sim = Simulator::new(&pre, cfg.clone()).unwrap();
            sim.run_epochs::<_, CancelAfterEvents, NoMemo, NoFilter>(
                &app,
                &mut sink,
                &mut NoMemo,
                &mut NoFilter,
            )
        }));
        let payload = match caught {
            Err(p) => p,
            Ok(_) => panic!("cancelled run returned normally"),
        };
        assert!(payload.downcast_ref::<Cancelled>().is_some());
        let executed = seen.load(std::sync::atomic::Ordering::Relaxed);
        assert!(executed >= CANCEL_AT, "cancel point never reached");
        // Latency bound: the driver checks at every heartbeat batch and
        // at every epoch boundary, so at most one batch of events can
        // execute after cancellation.
        assert!(
            executed - CANCEL_AT <= PROGRESS_BATCH,
            "cancellation latency too high: {} events after cancel",
            executed - CANCEL_AT
        );
    }

    #[test]
    fn memo_changes_timing_but_not_results() {
        let g = small_graph();
        let off = GramerConfig::default();
        assert_eq!(off.memo, MemoMode::Off);
        let on = GramerConfig {
            memo: MemoMode::On {
                bytes: gramer_mining::DEFAULT_MEMO_BYTES,
            },
            ..GramerConfig::default()
        };
        let pre = preprocess(&g, &off).unwrap();
        let app = CliqueFinding::new(4).unwrap();
        let base = Simulator::new(&pre, off).unwrap().run(&app).unwrap();
        let memo = Simulator::new(&pre, on).unwrap().run(&app).unwrap();
        // The mined answer is bit-identical...
        assert_eq!(base.result.embeddings, memo.result.embeddings);
        assert_eq!(
            base.result.candidates_examined,
            memo.result.candidates_examined
        );
        assert_eq!(base.result.accepted_by_size, memo.result.accepted_by_size);
        assert_eq!(
            base.result.candidates_by_size,
            memo.result.candidates_by_size
        );
        assert_eq!(base.result.counts.sorted(), memo.result.counts.sorted());
        // ...while the memoized run did real work with the table and
        // skipped real memory traffic.
        assert!(base.memo.is_none());
        let stats = memo.memo.expect("memo stats missing");
        assert!(stats.hits > 0, "memo never hit");
        assert!(
            memo.mem.total() < base.mem.total(),
            "memo did not skip accesses: {} !< {}",
            memo.mem.total(),
            base.mem.total()
        );
    }

    #[test]
    fn memo_on_agrees_with_oracle() {
        let g = small_graph();
        let cfg = GramerConfig {
            memo: MemoMode::On { bytes: 1 << 14 },
            ..GramerConfig::default()
        };
        let pre = preprocess(&g, &cfg).unwrap();
        let app = CliqueFinding::new(4).unwrap();
        let sim = Simulator::new(&pre, cfg).unwrap();
        let a = sim.run(&app).unwrap();
        let b = sim.run_oracle(&app).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.memo, b.memo);
        assert_eq!(a.result.embeddings, b.result.embeddings);
    }

    #[test]
    fn adaptive_policies_are_deterministic_and_preserve_results() {
        // A cache-starved heavy-tailed workload: enough pressure that
        // the adaptive machinery has something to react to.
        let g = generate::rmat(
            10,
            6000,
            generate::RmatParams {
                a: 0.6,
                b: 0.16,
                c: 0.16,
                d: 0.08,
            },
            13,
        );
        let base_cfg = GramerConfig {
            budget: MemoryBudget::Fraction(0.05),
            ..GramerConfig::default()
        };
        let cfg = GramerConfig {
            adaptive_lambda: true,
            repin: true,
            ..base_cfg.clone()
        };
        let pre = preprocess(&g, &cfg).unwrap();
        let app = CliqueFinding::new(4).unwrap();
        let sim = Simulator::new(&pre, cfg).unwrap();
        let a = sim.run(&app).unwrap();
        let b = sim.run_oracle(&app).unwrap();
        // The engine and the oracle execute the identical event
        // sequence, so the adaptive decisions land identically.
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.lambda_retunes, b.lambda_retunes);
        assert_eq!(a.pin_epochs, b.pin_epochs);
        assert!(a.lambda_retunes.is_some());
        assert!(a.pin_epochs.is_some());
        // Adaptation shifts timing, never the mined answer.
        let base = Simulator::new(&pre, base_cfg).unwrap().run(&app).unwrap();
        assert!(base.lambda_retunes.is_none() && base.pin_epochs.is_none());
        assert_eq!(a.result.embeddings, base.result.embeddings);
        assert_eq!(
            a.result.candidates_examined,
            base.result.candidates_examined
        );
        assert_eq!(a.result.counts.sorted(), base.result.counts.sorted());
    }

    #[test]
    fn precancelled_token_stops_epoch_run_before_any_event() {
        let g = small_graph();
        let cfg = GramerConfig::default();
        let pre = preprocess(&g, &cfg).unwrap();
        let app = CliqueFinding::new(3).unwrap();
        let tok = ProgressToken::new();
        tok.cancel();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _guard = install(tok.clone());
            Simulator::new(&pre, cfg.clone()).unwrap().run(&app)
        }));
        assert!(caught.is_err());
        // The first epoch-boundary check fires before any event executes.
        assert_eq!(tok.heartbeat(), 0);
    }
}
