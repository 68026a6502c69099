//! Local storage tiers: the in-process LRU and the on-disk layer.

use crate::{CacheKey, CacheLayer, CacheTier, Codec, TierStatus};
use msc_ir::util::FxHashMap;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

struct Entry<A> {
    artifact: Arc<A>,
    last_used: u64,
}

struct Inner<A> {
    map: FxHashMap<CacheKey, Entry<A>>,
    tick: u64,
}

/// Bounded in-memory LRU tier. Capacity 0 disables the tier (every
/// fetch misses, every store is dropped).
pub struct MemoryTier<A> {
    capacity: usize,
    inner: Mutex<Inner<A>>,
    evictions: AtomicU64,
}

impl<A> MemoryTier<A> {
    /// A tier holding at most `capacity` artifacts.
    pub fn new(capacity: usize) -> Self {
        MemoryTier {
            capacity,
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                tick: 0,
            }),
            evictions: AtomicU64::new(0),
        }
    }

    /// Artifacts currently resident.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The LRU state; a job that panicked while holding it cannot poison
    /// the cache for everyone else.
    fn lock(&self) -> MutexGuard<'_, Inner<A>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Lifetime eviction count.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Read without touching recency and without counting anything —
    /// used by the export path, where a remote daemon scanning our
    /// artifacts must not reshuffle the local LRU order.
    pub fn peek(&self, key: CacheKey) -> Option<Arc<A>> {
        self.lock().map.get(&key).map(|e| Arc::clone(&e.artifact))
    }
}

impl<A: Send + Sync> CacheTier<A> for MemoryTier<A> {
    fn layer(&self) -> CacheLayer {
        CacheLayer::Memory
    }

    fn fetch(&self, key: CacheKey, _codec: &dyn Codec<A>) -> Option<Arc<A>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(&key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.artifact))
    }

    fn store(&self, key: CacheKey, artifact: &Arc<A>, _codec: &dyn Codec<A>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Entry {
                artifact: Arc::clone(artifact),
                last_used: tick,
            },
        );
        while inner.map.len() > self.capacity {
            // O(n) victim scan; capacities are small (a cache of whole
            // compiled programs, not of cache lines).
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty map has a minimum");
            inner.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            msc_obs::count("cache.evict", 1);
        }
    }

    fn status(&self) -> TierStatus {
        TierStatus::Memory {
            entries: self.len(),
            capacity: self.capacity,
            evictions: self.evictions(),
        }
    }
}

/// On-disk tier: one text file per key under a shared directory. Writes
/// go through a unique temp file + rename — rename is atomic on POSIX,
/// so a concurrent reader (another process sharing the cache dir) sees
/// either the old artifact or the complete new one, never a torn write,
/// and concurrent writers cannot interleave. All I/O failures degrade
/// to misses: a full disk or read-only dir must never fail the compile
/// that produced the artifact.
pub struct DiskTier<A> {
    dir: PathBuf,
    _artifact: PhantomData<fn() -> A>,
}

impl<A> DiskTier<A> {
    /// A tier persisting under `dir` (created on first store).
    pub fn new(dir: PathBuf) -> Self {
        DiskTier {
            dir,
            _artifact: PhantomData,
        }
    }

    /// The file a key persists to.
    pub fn path(&self, key: CacheKey) -> PathBuf {
        disk_path(&self.dir, key)
    }

    /// Cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Raw file text for `key`, for the export path — the bytes on disk
    /// are already in interchange format, so serving them verbatim
    /// skips a decode/encode round-trip. The header magic is checked so
    /// a corrupt file exports as a miss rather than as garbage.
    pub fn read_raw(&self, key: CacheKey) -> Option<String> {
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        text.starts_with("mscache v1\n").then_some(text)
    }
}

impl<A: Send + Sync> CacheTier<A> for DiskTier<A> {
    fn layer(&self) -> CacheLayer {
        CacheLayer::Disk
    }

    fn fetch(&self, key: CacheKey, codec: &dyn Codec<A>) -> Option<Arc<A>> {
        let text = std::fs::read_to_string(self.path(key)).ok()?;
        codec.decode(&text).map(Arc::new)
    }

    fn store(&self, key: CacheKey, artifact: &Arc<A>, codec: &dyn Codec<A>) {
        let _ = std::fs::create_dir_all(&self.dir);
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, codec.encode(key, artifact)).is_ok() {
            if std::fs::rename(&tmp, self.path(key)).is_ok() {
                msc_obs::count("cache.disk_write", 1);
            } else {
                let _ = std::fs::remove_file(&tmp);
            }
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn status(&self) -> TierStatus {
        TierStatus::Disk {
            dir: self.dir.display().to_string(),
        }
    }
}

fn disk_path(dir: &Path, key: CacheKey) -> PathBuf {
    dir.join(format!("{}.mscache", key.hex()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::StrCodec;

    #[test]
    fn memory_tier_is_lru_and_counts_evictions() {
        let tier: MemoryTier<String> = MemoryTier::new(2);
        let keys: Vec<CacheKey> = (0..3)
            .map(|i| crate::content_key("lru", &[&[i as u8]]))
            .collect();
        tier.store(keys[0], &Arc::new("a".into()), &StrCodec);
        tier.store(keys[1], &Arc::new("b".into()), &StrCodec);
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(tier.fetch(keys[0], &StrCodec).is_some());
        tier.store(keys[2], &Arc::new("c".into()), &StrCodec);
        assert_eq!(tier.len(), 2);
        assert!(tier.fetch(keys[0], &StrCodec).is_some());
        assert!(tier.fetch(keys[1], &StrCodec).is_none());
        assert!(tier.fetch(keys[2], &StrCodec).is_some());
        assert_eq!(tier.evictions(), 1);
    }

    #[test]
    fn zero_capacity_disables_the_memory_tier() {
        let tier: MemoryTier<String> = MemoryTier::new(0);
        let key = crate::content_key("zero", &[b"k"]);
        tier.store(key, &Arc::new("a".into()), &StrCodec);
        assert!(tier.fetch(key, &StrCodec).is_none());
        assert_eq!(tier.len(), 0);
    }

    #[test]
    fn disk_tier_round_trips_and_rejects_corrupt_raw_reads() {
        let dir = std::env::temp_dir().join(format!("msc-cache-disk-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier: DiskTier<String> = DiskTier::new(dir.clone());
        let key = crate::content_key("disk", &[b"k"]);
        assert!(tier.fetch(key, &StrCodec).is_none());
        tier.store(key, &Arc::new("payload".into()), &StrCodec);
        assert_eq!(
            tier.fetch(key, &StrCodec).as_deref(),
            Some(&"payload".to_string())
        );
        assert!(tier.read_raw(key).expect("raw").starts_with("mscache v1\n"));
        // A file that lost its magic is not exportable.
        std::fs::write(tier.path(key), "garbage").unwrap();
        assert!(tier.read_raw(key).is_none());
        assert!(tier.fetch(key, &StrCodec).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
