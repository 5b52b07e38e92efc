//! On-disk preprocessing cache backed by `.gra` artifacts.
//!
//! GRAMER's preprocessing (ON1 scoring, sort, CSR rebuild) is a pure
//! function of the input graph and two configuration knobs — τ and the
//! memory budget. [`PreprocessCache`] memoizes it on disk: results are
//! stored as `.gra` artifacts (see [`gramer_graph::artifact`]) named by
//! an FNV-1a key over *(source digest, knobs, format version)*, so a
//! warm run loads the reordered graph with one digest-checked mmap
//! instead of re-running the whole pipeline.
//!
//! Cache entries are self-validating: every load goes through the full
//! artifact validation, and a corrupt or stale entry is transparently
//! rebuilt and overwritten rather than surfaced as an error — the cache
//! can only ever cost correctness nothing, only time.
//!
//! Used by `gramer-mine --cache DIR` and the sweep runner's
//! `--artifact-cache DIR` (see `gramer-bench`).

use crate::config::{GramerConfig, MemoryBudget};
use crate::error::SimError;
use crate::preprocess::{preprocess, Preprocessed};
use gramer_graph::{artifact, io, CsrGraph, GraphArtifact};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// A directory of memoized preprocessing results, one `.gra` artifact
/// per *(source, knobs)* key.
///
/// # Example
///
/// ```
/// use gramer::{GramerConfig, PreprocessCache};
/// use gramer_graph::generate;
///
/// # fn main() -> Result<(), gramer::SimError> {
/// let dir = std::env::temp_dir().join(format!("gramer-cache-doc-{}", std::process::id()));
/// let cache = PreprocessCache::new(&dir)?;
/// let g = generate::barabasi_albert(120, 3, 5);
/// let cfg = GramerConfig::default();
/// let (_, hit) = cache.get_or_build(&g, &cfg)?;
/// assert!(!hit, "first run is a miss");
/// let (_, hit) = cache.get_or_build(&g, &cfg)?;
/// assert!(hit, "second run loads the artifact");
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PreprocessCache {
    dir: PathBuf,
}

/// Folds the configuration knobs preprocessing depends on — and nothing
/// else — into a digest seed. Simulator-side knobs (PUs, latencies,
/// scheduler, ...) deliberately do not participate: they cannot change
/// the preprocessing result, so runs that only vary them share entries.
fn knobs_digest(config: &GramerConfig) -> u64 {
    let mut bytes = Vec::with_capacity(32);
    bytes.extend_from_slice(&(artifact::FORMAT_VERSION as u64).to_le_bytes());
    match config.tau {
        Some(t) => {
            bytes.push(1);
            bytes.extend_from_slice(&t.to_bits().to_le_bytes());
        }
        None => bytes.push(0),
    }
    match config.budget {
        MemoryBudget::Items(n) => {
            bytes.push(1);
            bytes.extend_from_slice(&(n as u64).to_le_bytes());
        }
        MemoryBudget::Fraction(f) => {
            bytes.push(2);
            bytes.extend_from_slice(&f.to_bits().to_le_bytes());
        }
    }
    artifact::fnv1a(&bytes)
}

impl PreprocessCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// [`SimError::Graph`] wrapping the I/O error if the directory
    /// cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<PreprocessCache, SimError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SimError::Graph(gramer_graph::GraphError::Io(e)))?;
        Ok(PreprocessCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache key for an in-memory graph: FNV-1a over its canonical
    /// binary CSR encoding, combined with the knob digest.
    pub fn graph_key(graph: &CsrGraph, config: &GramerConfig) -> u64 {
        let mut bytes = Vec::with_capacity(16 + graph.footprint_bytes());
        // write_binary to a Vec cannot fail.
        if io::write_binary(graph, &mut bytes).is_ok() {
            artifact::fnv1a(&bytes) ^ knobs_digest(config)
        } else {
            knobs_digest(config)
        }
    }

    /// Cache key for a graph whose raw source bytes were already
    /// digested (e.g. an edge-list file read from disk) — a warm hit
    /// through this key skips even the parsing step.
    pub fn bytes_key(source_digest: u64, config: &GramerConfig) -> u64 {
        source_digest ^ knobs_digest(config)
    }

    /// Path of the artifact for `key`.
    pub fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.gra"))
    }

    /// Loads the entry for `key` if present and valid; `None` on a miss
    /// *or* on a corrupt/stale entry (which a subsequent
    /// [`store`](PreprocessCache::store) overwrites).
    pub fn load(&self, key: u64, config: &GramerConfig) -> Option<Preprocessed> {
        let path = self.path(key);
        if !path.exists() {
            return None;
        }
        let art = GraphArtifact::open(&path).ok()?;
        Preprocessed::from_artifact(&art, config).ok()
    }

    /// Stores a preprocessing result under `key` (atomic write).
    ///
    /// # Errors
    ///
    /// [`SimError::Graph`] on serialization or I/O failure.
    pub fn store(&self, key: u64, pre: &Preprocessed, source_digest: u64) -> Result<(), SimError> {
        artifact::write_file(&pre.artifact_contents(source_digest), &self.path(key))
            .map_err(SimError::Graph)
    }

    /// Memoized [`preprocess`] of an in-memory graph under
    /// [`graph_key`](PreprocessCache::graph_key); see
    /// [`get_or_build_keyed`](PreprocessCache::get_or_build_keyed).
    ///
    /// # Errors
    ///
    /// The errors of [`preprocess`].
    pub fn get_or_build(
        &self,
        graph: &CsrGraph,
        config: &GramerConfig,
    ) -> Result<(Preprocessed, bool), SimError> {
        let key = Self::graph_key(graph, config);
        self.get_or_build_keyed(key, 0, config, || {
            preprocess(graph, config).map_err(SimError::Config)
        })
    }

    /// The entry for `key` if it loads (`true`), else `build()`'s result
    /// stored under `key` (`false`). Cache trouble only costs time: a
    /// corrupt entry is rebuilt, and a failed store (say, the directory
    /// vanished mid-sweep) warns once per process and still returns the
    /// fresh result.
    ///
    /// # Errors
    ///
    /// Only the errors of `build`.
    pub fn get_or_build_keyed<E>(
        &self,
        key: u64,
        source_digest: u64,
        config: &GramerConfig,
        build: impl FnOnce() -> Result<Preprocessed, E>,
    ) -> Result<(Preprocessed, bool), E> {
        static STORE_WARNED: AtomicBool = AtomicBool::new(false);
        if let Some(pre) = self.load(key, config) {
            return Ok((pre, true));
        }
        let pre = build()?;
        match self.store(key, &pre, source_digest) {
            Err(e) if !STORE_WARNED.swap(true, Ordering::Relaxed) => eprintln!(
                "warning: could not store cache entry at {} ({e}); continuing uncached",
                self.path(key).display()
            ),
            _ => {}
        }
        Ok((pre, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gramer_graph::generate;

    fn temp_cache(tag: &str) -> (PathBuf, PreprocessCache) {
        let dir =
            std::env::temp_dir().join(format!("gramer-cache-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = PreprocessCache::new(&dir).unwrap();
        (dir, cache)
    }

    #[test]
    fn hit_reproduces_miss_exactly() {
        let (dir, cache) = temp_cache("roundtrip");
        let g = generate::rmat(7, 600, generate::RmatParams::default(), 3);
        let cfg = GramerConfig::default();
        let (cold, hit0) = cache.get_or_build(&g, &cfg).unwrap();
        assert!(!hit0);
        let (warm, hit1) = cache.get_or_build(&g, &cfg).unwrap();
        assert!(hit1);
        assert_eq!(warm.graph, cold.graph);
        assert_eq!(warm.reordering.old_id, cold.reordering.old_id);
        assert_eq!(warm.vertex_pin, cold.vertex_pin);
        assert_eq!(warm.edge_pin, cold.edge_pin);
        assert_eq!(warm.tau.to_bits(), cold.tau.to_bits());
        assert_eq!(
            warm.preprocess_seconds.to_bits(),
            cold.preprocess_seconds.to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn different_knobs_use_different_entries() {
        let (dir, cache) = temp_cache("knobs");
        let g = generate::barabasi_albert(100, 3, 1);
        let a = GramerConfig::default();
        let b = GramerConfig {
            tau: Some(0.05),
            ..GramerConfig::default()
        };
        cache.get_or_build(&g, &a).unwrap();
        let (pre_b, hit) = cache.get_or_build(&g, &b).unwrap();
        assert!(!hit, "tau override must not share entries with the formula");
        assert_eq!(pre_b.tau, 0.05);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_is_rebuilt_not_an_error() {
        let (dir, cache) = temp_cache("corrupt");
        let g = generate::barabasi_albert(100, 3, 2);
        let cfg = GramerConfig::default();
        cache.get_or_build(&g, &cfg).unwrap();
        let key = PreprocessCache::graph_key(&g, &cfg);
        let path = cache.path(key);
        // Flip a payload byte: the artifact digest check must reject it
        // and the cache must silently rebuild.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (pre, hit) = cache.get_or_build(&g, &cfg).unwrap();
        assert!(!hit, "corrupt entry must read as a miss");
        assert_eq!(pre.graph.num_vertices(), 100);
        // The rebuilt entry is valid again.
        let (_, hit) = cache.get_or_build(&g, &cfg).unwrap();
        assert!(hit);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_never_produce_a_torn_entry() {
        let (dir, cache) = temp_cache("race");
        let g = generate::barabasi_albert(120, 3, 9);
        let cfg = GramerConfig::default();
        let key = PreprocessCache::graph_key(&g, &cfg);
        let pre = crate::preprocess(&g, &cfg).unwrap();
        let path = cache.path(key);
        // Seed the entry so the reader below always has a file to open,
        // even if the racing writers are scheduled late.
        cache.store(key, &pre, 0).unwrap();

        std::thread::scope(|scope| {
            // Two writers race the same key; each store writes a private
            // (pid, seq)-suffixed temp file and renames it into place.
            for _ in 0..2 {
                let cache = &cache;
                let pre = &pre;
                scope.spawn(move || {
                    for _ in 0..40 {
                        cache.store(key, pre, 0).unwrap();
                    }
                });
            }
            // A reader races both writers: the entry must validate on
            // every observation — rename atomicity means a torn or
            // interleaved write is never observable.
            for _ in 0..400 {
                gramer_graph::GraphArtifact::open(&path)
                    .unwrap_or_else(|e| panic!("torn cache entry observed: {e}"));
                std::hint::spin_loop();
            }
        });

        let (warm, hit) = cache.get_or_build(&g, &cfg).unwrap();
        assert!(hit, "entry must be valid after the write race");
        assert_eq!(warm.graph, pre.graph);
        // No leaked temp files: every writer either renamed or removed its
        // private temp.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bytes_key_mixes_source_and_knobs() {
        let cfg = GramerConfig::default();
        let other = GramerConfig {
            tau: Some(0.1),
            ..GramerConfig::default()
        };
        assert_ne!(
            PreprocessCache::bytes_key(1, &cfg),
            PreprocessCache::bytes_key(2, &cfg)
        );
        assert_ne!(
            PreprocessCache::bytes_key(1, &cfg),
            PreprocessCache::bytes_key(1, &other)
        );
    }
}
