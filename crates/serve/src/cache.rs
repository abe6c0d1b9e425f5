//! The per-kernel static-embedding cache.

use std::collections::HashMap;

use mga_core::model::{FusionModel, PreparedBatch};
use mga_obs::metrics::{self, Counter};

/// Fixed-capacity cache of fused static-embedding rows, keyed by kernel
/// id. Storage is one flat `capacity × dim` slab allocated up front;
/// eviction is least-recently-used under a *logical* clock (bumped per
/// lookup, never wall time), with ties broken by lowest slot index —
/// fully deterministic, so serving runs replay exactly.
///
/// Hits, misses and evictions are counted in the `mga-obs` registry
/// (`serve.cache_hits` / `serve.cache_misses` / `serve.cache_evictions`)
/// through handles interned at construction, so a lookup never takes
/// the registry lock.
pub struct EmbeddingCache {
    dim: usize,
    slots: Vec<f32>,
    /// Kernel occupying each slot (`usize::MAX` = free).
    slot_kernel: Vec<usize>,
    slot_last_use: Vec<u64>,
    map: HashMap<usize, usize>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    m: CacheMetrics,
}

/// Interned `serve.cache_*` registry counters: the process-wide view of
/// [`EmbeddingCache::stats`], summed over every cache in the process.
struct CacheMetrics {
    hits: &'static Counter,
    misses: &'static Counter,
    evictions: &'static Counter,
}

const FREE: usize = usize::MAX;

impl EmbeddingCache {
    /// A cache holding up to `capacity` embeddings of width `dim`.
    /// All storage — including the key map's table — is allocated here;
    /// the steady state allocates nothing.
    pub fn new(capacity: usize, dim: usize) -> EmbeddingCache {
        assert!(capacity > 0, "cache capacity must be positive");
        EmbeddingCache {
            dim,
            slots: vec![0.0; capacity * dim],
            slot_kernel: vec![FREE; capacity],
            slot_last_use: vec![0; capacity],
            map: HashMap::with_capacity(capacity),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            m: CacheMetrics {
                hits: metrics::counter("serve.cache_hits"),
                misses: metrics::counter("serve.cache_misses"),
                evictions: metrics::counter("serve.cache_evictions"),
            },
        }
    }

    /// Lifetime (hits, misses, evictions) of this cache instance — the
    /// per-instance view of the global `serve.cache_*` counters (which
    /// aggregate across engines in a process).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Maximum resident embeddings.
    pub fn capacity(&self) -> usize {
        self.slot_kernel.len()
    }

    /// Currently resident embeddings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counted lookup: on a hit, bumps the kernel's recency and returns
    /// its row; on a miss returns `None`. Both outcomes feed the
    /// hit/miss counters.
    pub fn lookup(&mut self, kernel: usize) -> Option<&[f32]> {
        self.clock += 1;
        match self.map.get(&kernel) {
            Some(&slot) => {
                self.hits += 1;
                self.m.hits.inc();
                self.slot_last_use[slot] = self.clock;
                Some(&self.slots[slot * self.dim..(slot + 1) * self.dim])
            }
            None => {
                self.misses += 1;
                self.m.misses.inc();
                None
            }
        }
    }

    /// Uncounted read — does not touch recency or the hit/miss counters.
    pub fn peek(&self, kernel: usize) -> Option<&[f32]> {
        self.map
            .get(&kernel)
            .map(|&slot| &self.slots[slot * self.dim..(slot + 1) * self.dim])
    }

    /// Insert (or overwrite) `kernel`'s embedding row, evicting the
    /// least-recently-used resident if the cache is full.
    pub fn insert(&mut self, kernel: usize, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "embedding width mismatch");
        self.clock += 1;
        let slot = match self.map.get(&kernel) {
            Some(&slot) => slot,
            None => {
                let slot = self.free_or_evict();
                self.map.insert(kernel, slot);
                self.slot_kernel[slot] = kernel;
                slot
            }
        };
        self.slots[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(row);
        self.slot_last_use[slot] = self.clock;
    }

    fn free_or_evict(&mut self) -> usize {
        if let Some(slot) = self.slot_kernel.iter().position(|&k| k == FREE) {
            return slot;
        }
        // Oldest logical use wins; strict `<` keeps the lowest index on
        // ties, so eviction order is deterministic.
        let mut victim = 0usize;
        for (s, &t) in self.slot_last_use.iter().enumerate() {
            if t < self.slot_last_use[victim] {
                victim = s;
            }
        }
        self.evictions += 1;
        self.m.evictions.inc();
        self.map.remove(&self.slot_kernel[victim]);
        self.slot_kernel[victim] = FREE;
        victim
    }

    /// Drop every resident embedding (hot-swap install: the new model's
    /// GNN/DAE weights make cached rows stale). Keeps all storage and
    /// the lifetime counters; the next lookups repopulate via the slow
    /// path or a fresh [`EmbeddingCache::warm`].
    pub fn clear(&mut self) {
        self.map.clear();
        self.slot_kernel.fill(FREE);
        self.slot_last_use.fill(0);
    }

    /// Warm the cache from preparation work already done: inserts one
    /// row per distinct kernel of `prep`, computed by
    /// [`FusionModel::static_embeddings_prepared`]. Returns the number
    /// of rows inserted — 0 when the batch took the degraded graph path
    /// (those rows are batch-dependent means and must not be cached).
    pub fn warm(&mut self, model: &FusionModel, prep: &PreparedBatch) -> usize {
        let rows = match model.static_embeddings_prepared(prep) {
            Some(t) => t,
            None => return 0,
        };
        assert_eq!(rows.cols(), self.dim, "prepared embedding width mismatch");
        for (r, &kernel) in prep.kernels().iter().enumerate() {
            self.insert(kernel, rows.row_slice(r));
        }
        prep.kernels().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest_with_deterministic_ties() {
        let mut c = EmbeddingCache::new(2, 3);
        c.insert(10, &[1.0, 1.0, 1.0]);
        c.insert(20, &[2.0, 2.0, 2.0]);
        assert_eq!(c.len(), 2);
        // Touch 10 so 20 becomes the LRU victim.
        assert!(c.lookup(10).is_some());
        c.insert(30, &[3.0, 3.0, 3.0]);
        assert_eq!(c.len(), 2);
        assert!(c.peek(20).is_none(), "20 was least recently used");
        assert_eq!(c.peek(10).unwrap(), &[1.0, 1.0, 1.0]);
        assert_eq!(c.peek(30).unwrap(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn reinsert_overwrites_in_place() {
        let mut c = EmbeddingCache::new(2, 2);
        c.insert(7, &[1.0, 2.0]);
        c.insert(7, &[3.0, 4.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(7).unwrap(), &[3.0, 4.0]);
    }

    #[test]
    fn miss_then_insert_round_trips() {
        let mut c = EmbeddingCache::new(4, 2);
        assert!(c.lookup(1).is_none());
        c.insert(1, &[0.5, -0.5]);
        assert_eq!(c.lookup(1).unwrap(), &[0.5, -0.5]);
    }
}
