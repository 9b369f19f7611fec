//! The copy-on-write shadow store.

// The store sits on the capture hot path of every destructive operation:
// a panic here poisons nothing (parking_lot) but still kills the
// operation that triggered it, so unwrap/expect are banned outright.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use cryptodrop_telemetry::{JournalKind, Telemetry};
use cryptodrop_vfs::shadow::{MutationKind, PreImage, ShadowSink};
use cryptodrop_vfs::{BlobStore, FileId, ProcessId, VPath};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Shadow-store sizing knobs.
///
/// Validated by the core session builder (`ConfigError::ZeroShadowBudget`
/// for a zero byte budget); bare construction is fine for tests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowConfig {
    /// Maximum bytes of *unique* pre-image content held (deduplicated
    /// blobs count once). Exceeding the budget evicts the oldest
    /// unpinned entries; pinned entries (families with nonzero
    /// reputation) are never evicted, even if the budget is overrun.
    pub byte_budget: u64,
    /// Maximum number of journal entries held, enforced the same way.
    /// `0` means unbounded.
    pub max_entries: usize,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        Self {
            // Far above any simulated corpus (the paper-scale corpus is
            // ~5.3 GB of simulated bytes, but a single attack's working
            // set is bounded by the detection latency — a median of ~10
            // files). 64 MiB comfortably shadows every experiment here.
            byte_budget: 64 * 1024 * 1024,
            max_entries: 1 << 16,
        }
    }
}

impl ShadowConfig {
    /// A store bounded only by `byte_budget`.
    pub fn with_budget(byte_budget: u64) -> Self {
        Self {
            byte_budget,
            ..Self::default()
        }
    }
}

/// `CacheStats`-style counters describing the store's lifetime activity.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShadowStats {
    /// Pre-images captured (after coalescing).
    pub captures: u64,
    /// Captures skipped because the file's most recent entry already
    /// holds identical content for the same family.
    pub coalesced: u64,
    /// Captures whose content was already resident (byte-verified dedup)
    /// — a new journal entry, but no new bytes.
    pub dedup_hits: u64,
    /// Entries evicted to honour the byte/entry budgets.
    pub evictions: u64,
    /// Times eviction wanted to free space but every remaining entry was
    /// pinned (the budget is overrun rather than dropping pinned shadows).
    pub pin_overflows: u64,
    /// Journal entries currently held.
    pub entries: u64,
    /// Unique pre-image bytes currently held.
    pub bytes_held: u64,
    /// Entries currently pinned by nonzero-reputation families.
    pub pinned_entries: u64,
    /// Files restored to pre-attack bytes across all recoveries.
    pub files_restored: u64,
    /// Suspect-created files removed across all recoveries.
    pub files_removed: u64,
    /// Suspect renames moved back across all recoveries.
    pub renames_undone: u64,
    /// Recovery actions that could not be applied (evicted shadow,
    /// occupied path).
    pub restore_conflicts: u64,
    /// Pre-image captures that failed (reported through
    /// [`ShadowSink::capture_failed`]). Each poisons that file's restore
    /// for the responsible family into an explicit conflict, exactly like
    /// an eviction.
    pub capture_failures: u64,
}

/// One journaled pre-image (content lives in a shared blob).
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) seq: u64,
    pub(crate) at_nanos: u64,
    pub(crate) family: ProcessId,
    pub(crate) kind: MutationKind,
    pub(crate) path: VPath,
    pub(crate) file: FileId,
    /// `content_stamp(bytes)`, maintained by the VFS.
    stamp: u64,
    /// The resident blob (one reference on it in the [`BlobStore`]).
    pub(crate) bytes: Arc<Vec<u8>>,
    pub(crate) read_only: bool,
}

impl Entry {
    /// Whether this entry holds exactly the content `(stamp, bytes)`: a
    /// stamp match is only a candidate, confirmed by identity or bytes.
    fn holds(&self, stamp: u64, bytes: &Arc<Vec<u8>>) -> bool {
        self.stamp == stamp && (Arc::ptr_eq(&self.bytes, bytes) || self.bytes == *bytes)
    }
}

/// A suspect rename, remembered so recovery can undo it.
#[derive(Debug, Clone)]
pub(crate) struct RenameNote {
    pub(crate) seq: u64,
    pub(crate) family: ProcessId,
    pub(crate) file: FileId,
    pub(crate) from: VPath,
    pub(crate) to: VPath,
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    /// seq → entry; BTreeMap iteration order *is* capture (LRU) order.
    pub(crate) entries: BTreeMap<u64, Entry>,
    /// file → its entries' seqs, in capture order (all families).
    pub(crate) by_file: HashMap<FileId, Vec<u64>>,
    /// Deduplicated content, in the byte-verified refcounted
    /// [`BlobStore`] shared with fleet corpus staging. Each entry holds
    /// one reference, taken with its seq as the holder id.
    blobs: BlobStore,
    /// Seqs of the entries whose family is unpinned, oldest first: the
    /// eviction candidates.
    unpinned: BTreeSet<u64>,
    /// The subset of `unpinned` holding the only reference to their
    /// blob, oldest first: evicting one of these frees bytes.
    sole: BTreeSet<u64>,
    /// Files created (no pre-image) by each family root.
    pub(crate) created: HashMap<FileId, ProcessId>,
    /// Renames in capture order.
    pub(crate) renames: Vec<RenameNote>,
    /// family root → latest reputation score (pin source).
    reputation: HashMap<ProcessId, u32>,
    /// `(file, family)` pairs that lost an entry to eviction. Once part
    /// of a file's history for a family is gone, the trailing run
    /// computed from the surviving entries may start too late (its
    /// pre-image already corrupted), so recovery flags the file as a
    /// conflict instead of restoring the wrong bytes.
    evicted: HashSet<(FileId, ProcessId)>,
    next_seq: u64,
    stats: ShadowStats,
    /// Every eviction victim's seq, in eviction order.
    #[cfg(test)]
    victims: Vec<u64>,
}

impl Inner {
    fn pinned(&self, family: ProcessId) -> bool {
        self.reputation.get(&family).copied().unwrap_or(0) > 0
    }

    /// Whether eviction has destroyed part of `file`'s history as
    /// authored by `family`.
    pub(crate) fn was_evicted(&self, file: FileId, family: ProcessId) -> bool {
        self.evicted.contains(&(file, family))
    }

    /// Removes one entry from every index, returning it and the bytes the
    /// removal released.
    fn remove_entry(&mut self, seq: u64) -> Option<(Entry, u64)> {
        let entry = self.entries.remove(&seq)?;
        if let Some(seqs) = self.by_file.get_mut(&entry.file) {
            seqs.retain(|s| *s != seq);
            if seqs.is_empty() {
                self.by_file.remove(&entry.file);
            }
        }
        self.unpinned.remove(&seq);
        self.sole.remove(&seq);
        let released = self.blobs.release(entry.stamp, &entry.bytes, seq);
        if let Some(holder) = released.now_sole {
            if self.unpinned.contains(&holder) {
                self.sole.insert(holder);
            }
        }
        Some((entry, released.freed))
    }

    /// Re-files `family`'s entries in the victim indexes after its pin
    /// state flipped. Flips are rare (a family's first score award), so a
    /// pass over the journal is fine here.
    fn repin(&mut self, family: ProcessId) {
        let pinned = self.pinned(family);
        for entry in self.entries.values().filter(|e| e.family == family) {
            if pinned {
                self.unpinned.remove(&entry.seq);
                self.sole.remove(&entry.seq);
            } else {
                self.unpinned.insert(entry.seq);
                if self.blobs.ref_count(entry.stamp, &entry.bytes) == 1 {
                    self.sole.insert(entry.seq);
                }
            }
        }
    }
}

/// The copy-on-write shadow store. See the [crate docs](crate) for the
/// overall design and restore semantics.
///
/// The store is `Sync` and normally shared as an `Arc`: the same instance
/// serves as the VFS's [`ShadowSink`] (capture side), the engine's
/// reputation feed (pin side) and the recovery entry point (restore
/// side).
#[derive(Debug)]
pub struct ShadowStore {
    cfg: ShadowConfig,
    pub(crate) inner: Mutex<Inner>,
    telemetry: Telemetry,
}

impl ShadowStore {
    /// An empty store with the given budgets and disabled telemetry.
    pub fn new(cfg: ShadowConfig) -> Self {
        Self::with_telemetry(cfg, Telemetry::disabled())
    }

    /// An empty store emitting `recovery.*` metrics and `ShadowEvict`
    /// journal events through `telemetry`.
    pub fn with_telemetry(cfg: ShadowConfig, telemetry: Telemetry) -> Self {
        Self {
            cfg,
            inner: Mutex::new(Inner::default()),
            telemetry,
        }
    }

    /// The configured budgets.
    pub fn config(&self) -> &ShadowConfig {
        &self.cfg
    }

    /// The telemetry handle the store reports through.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Updates a process family's reputation score. Entries belonging to
    /// families with nonzero scores are pinned against eviction. The
    /// engine calls this from its scoring path; scores only ever grow.
    pub fn set_reputation(&self, family: ProcessId, score: u32) {
        let mut inner = self.inner.lock();
        let was_pinned = inner.pinned(family);
        inner.reputation.insert(family, score);
        if was_pinned != (score > 0) {
            inner.repin(family);
        }
    }

    /// A consistent snapshot of the store's counters.
    pub fn stats(&self) -> ShadowStats {
        let inner = self.inner.lock();
        let mut stats = inner.stats.clone();
        stats.entries = inner.entries.len() as u64;
        stats.bytes_held = inner.blobs.bytes_held();
        stats.pinned_entries = (inner.entries.len() - inner.unpinned.len()) as u64;
        stats
    }

    /// Unique pre-image bytes currently held.
    pub fn bytes_held(&self) -> u64 {
        self.inner.lock().blobs.bytes_held()
    }

    /// Journal entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evicts oldest-unpinned entries until both budgets are honoured (or
    /// only pinned entries remain). Call with the lock held.
    ///
    /// Under *byte* pressure the victim is the oldest unpinned entry that
    /// would actually release bytes — one holding the last reference to
    /// its dedup'd blob. Evicting a shared-blob entry frees nothing, so
    /// naively walking oldest-first lets one over-budget capture storm
    /// through an unbounded run of zero-release evictions before reaching
    /// an entry that helps; those shared entries are skipped (kept) when
    /// a later unpinned entry can free real bytes. When no unpinned entry
    /// releases anything — or the overage is entry-count only — the
    /// oldest unpinned entry is evicted as before.
    ///
    /// Both candidates are the first element of an ordered index
    /// (`sole`, `unpinned`), so each pick is O(log n) however long the
    /// journal's run of pinned and shared-blob entries grows.
    fn enforce_budget(&self, inner: &mut Inner) {
        loop {
            let over_bytes = inner.blobs.bytes_held() > self.cfg.byte_budget;
            let over_entries =
                self.cfg.max_entries != 0 && inner.entries.len() > self.cfg.max_entries;
            if !over_bytes && !over_entries {
                return;
            }
            let releasing = if over_bytes { inner.sole.first() } else { None };
            let Some(&seq) = releasing.or(inner.unpinned.first()) else {
                inner.stats.pin_overflows += 1;
                if self.telemetry.is_enabled() {
                    self.telemetry.counter("recovery.shadow.pin_overflow").inc();
                }
                return;
            };
            let Some((entry, released)) = inner.remove_entry(seq) else {
                // Unreachable (the indexes hold live seqs only), but
                // eviction must never panic the capture path.
                return;
            };
            #[cfg(test)]
            inner.victims.push(seq);
            inner.evicted.insert((entry.file, entry.family));
            inner.stats.evictions += 1;
            if self.telemetry.is_enabled() {
                self.telemetry.counter("recovery.shadow.evictions").inc();
                self.telemetry
                    .gauge("recovery.shadow.bytes")
                    .set(inner.blobs.bytes_held() as i64);
            }
            self.telemetry
                .journal_event(entry.at_nanos, entry.family.0, || JournalKind::ShadowEvict {
                    path: entry.path.as_str().to_string(),
                    bytes: released,
                });
        }
    }
}

impl ShadowSink for ShadowStore {
    /// O(1) in the file size and the journal length: the store keeps a
    /// clone of the node's `Arc` instead of a copy, keys dedup on the
    /// VFS-maintained stamp, and reads its eviction victim off an index.
    /// The only pass over content is the byte check that confirms a
    /// `(stamp, len)` match against a different buffer.
    fn capture(&self, pre: &PreImage<'_>) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;

        // Coalesce: the file's most recent shadow already journals this
        // exact (operation, content) for this family — a repeat capture
        // adds nothing.
        let last = inner
            .by_file
            .get(&pre.file)
            .and_then(|s| s.last())
            .and_then(|seq| inner.entries.get(seq));
        if let Some(last) = last {
            if last.family == pre.family_root
                && last.kind == pre.kind
                && last.holds(pre.stamp, pre.data)
            {
                inner.stats.coalesced += 1;
                if self.telemetry.is_enabled() {
                    self.telemetry.counter("recovery.shadow.coalesced").inc();
                }
                return;
            }
        }

        let seq = inner.next_seq;
        inner.next_seq += 1;
        let got = inner.blobs.acquire(pre.stamp, pre.data, seq);
        if got.dedup_hit {
            inner.stats.dedup_hits += 1;
            if self.telemetry.is_enabled() {
                self.telemetry.counter("recovery.shadow.dedup_hits").inc();
            }
        }
        if let Some(previous) = got.was_sole {
            // The blob gained a second holder: evicting its first frees
            // nothing any more.
            inner.sole.remove(&previous);
        }
        if !inner.pinned(pre.family_root) {
            inner.unpinned.insert(seq);
            if !got.dedup_hit {
                inner.sole.insert(seq);
            }
        }
        inner.entries.insert(
            seq,
            Entry {
                seq,
                at_nanos: pre.at_nanos,
                family: pre.family_root,
                kind: pre.kind,
                path: pre.path.clone(),
                file: pre.file,
                stamp: pre.stamp,
                bytes: got.blob,
                read_only: pre.read_only,
            },
        );
        inner.by_file.entry(pre.file).or_default().push(seq);
        inner.stats.captures += 1;
        if self.telemetry.is_enabled() {
            self.telemetry.counter("recovery.shadow.captures").inc();
            self.telemetry
                .gauge("recovery.shadow.bytes")
                .set(inner.blobs.bytes_held() as i64);
            self.telemetry
                .gauge("recovery.shadow.entries")
                .set(inner.entries.len() as i64);
        }
        self.enforce_budget(inner);
    }

    fn capture_failed(
        &self,
        _pid: ProcessId,
        family_root: ProcessId,
        file: FileId,
        path: &VPath,
    ) {
        // A lost pre-image leaves this file's journal (for this family)
        // incomplete: restoring from the surviving entries could write
        // back the wrong bytes. Poison the pair exactly like an eviction
        // — recovery will surface an explicit `ShadowEvicted` conflict
        // for the file instead of guessing.
        let mut inner = self.inner.lock();
        inner.evicted.insert((file, family_root));
        inner.stats.capture_failures += 1;
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("recovery.shadow.capture_failures")
                .inc();
            self.telemetry.journal_event(0, family_root.0, || JournalKind::Recovery {
                action: "capture-failed".to_string(),
                path: path.as_str().to_string(),
                bytes: 0,
            });
        }
    }

    fn note_created(&self, _pid: ProcessId, family_root: ProcessId, file: FileId, _path: &VPath) {
        // First creator wins: a file deleted and re-created keeps its
        // original provenance only if the ids differ (they always do —
        // FileIds are never reused).
        self.inner.lock().created.entry(file).or_insert(family_root);
    }

    fn note_rename(
        &self,
        _pid: ProcessId,
        family_root: ProcessId,
        file: FileId,
        from: &VPath,
        to: &VPath,
    ) {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.renames.push(RenameNote {
            seq,
            family: family_root,
            file,
            from: from.clone(),
            to: to.clone(),
        });
    }
}

impl ShadowStore {
    /// Folds a finished recovery's outcome into the lifetime counters and
    /// drops the suspect family's journal state (its shadows are no
    /// longer needed; blob bytes shared with other families survive via
    /// refcounts). Called by [`ShadowStore::restore`].
    pub(crate) fn finish_recovery(
        &self,
        family: ProcessId,
        restored: u64,
        removed: u64,
        renamed: u64,
        conflicts: u64,
    ) {
        let mut inner = self.inner.lock();
        inner.stats.files_restored += restored;
        inner.stats.files_removed += removed;
        inner.stats.renames_undone += renamed;
        inner.stats.restore_conflicts += conflicts;
        let victims: Vec<u64> = inner
            .entries
            .values()
            .filter(|e| e.family == family)
            .map(|e| e.seq)
            .collect();
        for seq in victims {
            inner.remove_entry(seq);
        }
        inner.renames.retain(|r| r.family != family);
        inner.created.retain(|_, fam| *fam != family);
        inner.evicted.retain(|(_, fam)| *fam != family);
        if self.telemetry.is_enabled() {
            self.telemetry
                .gauge("recovery.shadow.bytes")
                .set(inner.blobs.bytes_held() as i64);
            self.telemetry
                .gauge("recovery.shadow.entries")
                .set(inner.entries.len() as i64);
        }
    }
}

// A panic in test code is a failed test, not a killed capture path.
#[cfg(test)]
#[allow(clippy::expect_used)]
mod reference;

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use cryptodrop_vfs::content_stamp;

    /// Captures `data` as `pid`'s pre-image of `file`.
    fn cap(
        store: &ShadowStore,
        pid: u32,
        kind: MutationKind,
        path: &VPath,
        file: u64,
        data: &[u8],
    ) {
        let data = Arc::new(data.to_vec());
        store.capture(&PreImage {
            pid: ProcessId(pid),
            family_root: ProcessId(pid),
            at_nanos: 0,
            kind,
            path,
            file: FileId(file),
            data: &data,
            stamp: content_stamp(&data),
            read_only: false,
        });
    }

    #[test]
    fn capture_dedup_and_coalesce() {
        let store = ShadowStore::new(ShadowConfig::default());
        let a = VPath::new("/a");
        let b = VPath::new("/b");
        cap(&store, 1, MutationKind::Write, &a, 1, b"same");
        // Identical content on a *different* file dedups bytes.
        cap(&store, 1, MutationKind::Write, &b, 2, b"same");
        // Identical content on the *same* file coalesces entirely.
        cap(&store, 1, MutationKind::Write, &a, 1, b"same");
        let stats = store.stats();
        assert_eq!(stats.captures, 2);
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.bytes_held, 4);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn byte_budget_evicts_oldest_unpinned_first() {
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: 10,
            max_entries: 0,
        });
        let p1 = VPath::new("/1");
        let p2 = VPath::new("/2");
        let p3 = VPath::new("/3");
        cap(&store, 1, MutationKind::Write, &p1, 1, b"aaaaa"); // 5 bytes
        cap(&store, 2, MutationKind::Write, &p2, 2, b"bbbbb"); // 10 bytes
        cap(&store, 3, MutationKind::Write, &p3, 3, b"ccccc"); // 15 -> evict oldest
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.bytes_held, 10);
        let inner = store.inner.lock();
        assert!(!inner.by_file.contains_key(&FileId(1)), "oldest evicted");
        assert!(inner.by_file.contains_key(&FileId(3)));
    }

    #[test]
    fn nonzero_reputation_pins_shadows() {
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: 10,
            max_entries: 0,
        });
        store.set_reputation(ProcessId(1), 42);
        let p1 = VPath::new("/1");
        let p2 = VPath::new("/2");
        let p3 = VPath::new("/3");
        cap(&store, 1, MutationKind::Write, &p1, 1, b"aaaaa");
        cap(&store, 2, MutationKind::Write, &p2, 2, b"bbbbb");
        cap(&store, 1, MutationKind::Delete, &p3, 3, b"ccccc");
        // The unpinned family-2 entry goes; family-1 entries survive.
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.pinned_entries, 2);
        let inner = store.inner.lock();
        assert!(inner.by_file.contains_key(&FileId(1)));
        assert!(!inner.by_file.contains_key(&FileId(2)));
        assert!(inner.by_file.contains_key(&FileId(3)));
    }

    #[test]
    fn all_pinned_overruns_budget_and_counts() {
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: 4,
            max_entries: 0,
        });
        store.set_reputation(ProcessId(1), 1);
        let p1 = VPath::new("/1");
        let p2 = VPath::new("/2");
        cap(&store, 1, MutationKind::Write, &p1, 1, b"xxxx");
        cap(&store, 1, MutationKind::Write, &p2, 2, b"yyyy");
        let stats = store.stats();
        assert_eq!(stats.evictions, 0);
        assert!(stats.pin_overflows >= 1);
        assert_eq!(stats.bytes_held, 8, "budget overrun rather than unpinning");
    }

    #[test]
    fn entry_budget_enforced() {
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: u64::MAX,
            max_entries: 2,
        });
        for i in 0..5u64 {
            let p = VPath::new(format!("/{i}"));
            let data = vec![i as u8; 3];
            cap(&store, 9, MutationKind::Write, &p, i + 1, &data);
        }
        let stats = store.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 3);
    }

    #[test]
    fn shared_blob_eviction_prefers_a_releasing_victim() {
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: 6,
            max_entries: 0,
        });
        let p1 = VPath::new("/1");
        let p2 = VPath::new("/2");
        let p3 = VPath::new("/3");
        cap(&store, 1, MutationKind::Write, &p1, 1, b"dup"); // 3
        cap(&store, 2, MutationKind::Write, &p2, 2, b"dup"); // dedup: still 3
        cap(&store, 3, MutationKind::Write, &p3, 3, b"unique"); // 9 > 6
        // Entries 1 and 2 share one blob, so evicting either frees
        // nothing. The victim loop skips them in favour of the one entry
        // whose removal actually releases bytes: one eviction, not a
        // cascade through the whole shared run.
        let stats = store.stats();
        assert_eq!(stats.bytes_held, 3);
        assert_eq!(stats.evictions, 1);
        let inner = store.inner.lock();
        assert!(inner.by_file.contains_key(&FileId(1)));
        assert!(inner.by_file.contains_key(&FileId(2)));
        assert!(!inner.by_file.contains_key(&FileId(3)));
        assert_eq!(inner.entries.len(), 2);
    }

    #[test]
    fn shared_blob_overage_does_not_storm_evict() {
        // Regression: one over-budget capture used to evict an unbounded
        // run of shared-blob entries (each releasing 0 bytes) before
        // reaching an entry that freed anything.
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: 10,
            max_entries: 0,
        });
        let shared = b"aaa"; // 3 bytes, shared across 4 files
        for file in 1..=4u64 {
            let p = VPath::new(format!("/shared/{file}"));
            cap(&store, 1, MutationKind::Write, &p, file, shared);
        }
        let p5 = VPath::new("/unique/5");
        cap(&store, 2, MutationKind::Write, &p5, 5, b"bbbbbb"); // 9 total
        let p6 = VPath::new("/unique/6");
        cap(&store, 3, MutationKind::Write, &p6, 6, b"cccccc"); // 15 > 10
        let stats = store.stats();
        assert_eq!(
            stats.evictions, 1,
            "exactly one releasing victim, no zero-release cascade"
        );
        assert_eq!(stats.bytes_held, 9);
        let inner = store.inner.lock();
        for file in 1..=4u64 {
            assert!(
                inner.by_file.contains_key(&FileId(file)),
                "shared entries survive"
            );
        }
        assert!(!inner.by_file.contains_key(&FileId(5)), "oldest releasing entry evicted");
        assert!(inner.by_file.contains_key(&FileId(6)));
    }

    #[test]
    fn entry_overage_still_evicts_oldest_unpinned() {
        // Entry-count pressure has no byte dimension: the victim stays
        // the oldest unpinned entry even when its blob is shared.
        let store = ShadowStore::new(ShadowConfig {
            byte_budget: u64::MAX,
            max_entries: 2,
        });
        let p1 = VPath::new("/1");
        let p2 = VPath::new("/2");
        let p3 = VPath::new("/3");
        cap(&store, 1, MutationKind::Write, &p1, 1, b"dup");
        cap(&store, 2, MutationKind::Write, &p2, 2, b"dup");
        cap(&store, 3, MutationKind::Write, &p3, 3, b"unique");
        let inner = store.inner.lock();
        assert!(!inner.by_file.contains_key(&FileId(1)), "oldest evicted");
        assert!(inner.by_file.contains_key(&FileId(2)));
        assert!(inner.by_file.contains_key(&FileId(3)));
    }

    #[test]
    fn capture_failed_counts_and_poisons_the_file() {
        let store = ShadowStore::new(ShadowConfig::default());
        let p = VPath::new("/doc");
        store.capture_failed(ProcessId(2), ProcessId(1), FileId(7), &p);
        assert_eq!(store.stats().capture_failures, 1);
        let inner = store.inner.lock();
        assert!(inner.was_evicted(FileId(7), ProcessId(1)));
        assert!(
            !inner.was_evicted(FileId(7), ProcessId(2)),
            "poisoned for the family root, not the child pid"
        );
    }

    /// A 1024-byte Thue–Morse string over `a`/`b` and its complement.
    /// They differ in every byte yet share length and `content_stamp`
    /// (at 512 bytes they do not collide).
    fn thue_morse_pair() -> (Vec<u8>, Vec<u8>) {
        let t: Vec<u8> = (0u32..1024)
            .map(|i| if i.count_ones() % 2 == 0 { b'a' } else { b'b' })
            .collect();
        let u = t.iter().map(|&b| if b == b'a' { b'b' } else { b'a' }).collect();
        (t, u)
    }

    #[test]
    fn stamp_collisions_neither_dedup_nor_coalesce() {
        let (t, u) = thue_morse_pair();
        assert_ne!(t, u);
        assert_eq!(content_stamp(&t), content_stamp(&u));
        assert_ne!(content_stamp(&t[..512]), content_stamp(&u[..512]));

        let store = ShadowStore::new(ShadowConfig::default());
        let a = VPath::new("/a");
        let b = VPath::new("/b");
        cap(&store, 1, MutationKind::Write, &a, 1, &t);
        cap(&store, 1, MutationKind::Write, &b, 2, &u);
        let stats = store.stats();
        assert_eq!(stats.dedup_hits, 0, "colliding contents on two files are two blobs");
        assert_eq!(stats.bytes_held, 2048);

        let store = ShadowStore::new(ShadowConfig::default());
        cap(&store, 1, MutationKind::Write, &a, 1, &t);
        cap(&store, 1, MutationKind::Write, &a, 1, &u);
        let stats = store.stats();
        assert_eq!(stats.coalesced, 0, "colliding contents on one file do not coalesce");
        assert_eq!(stats.captures, 2);
        let inner = store.inner.lock();
        let held: Vec<&[u8]> = inner.entries.values().map(|e| e.bytes.as_slice()).collect();
        assert_eq!(held, vec![&t[..], &u[..]], "each entry keeps its own bytes");
    }

    #[test]
    fn a_capture_keeps_the_node_buffer_without_copying() {
        let store = ShadowStore::new(ShadowConfig::default());
        let data = Arc::new(b"pre-image".to_vec());
        let path = VPath::new("/f");
        store.capture(&PreImage {
            pid: ProcessId(1),
            family_root: ProcessId(1),
            at_nanos: 0,
            kind: MutationKind::Delete,
            path: &path,
            file: FileId(1),
            data: &data,
            stamp: content_stamp(&data),
            read_only: false,
        });
        let inner = store.inner.lock();
        let entry = inner.entries.values().next().expect("one entry");
        assert!(Arc::ptr_eq(&entry.bytes, &data));
    }

    #[test]
    fn held_blobs_carry_no_spare_capacity_after_appends() {
        use cryptodrop_vfs::{OpenOptions, Vfs};

        let store = Arc::new(ShadowStore::new(ShadowConfig::default()));
        let mut fs = Vfs::new();
        fs.set_shadow_sink(store.clone());
        let pid = fs.spawn_process("logger.exe");
        for round in 0..20u32 {
            let header = format!("# log {round:02} {}\n", "#".repeat(56)).into_bytes();
            let a = VPath::new(format!("/logs/{round}/a.log"));
            let b = VPath::new(format!("/logs/{round}/b.log"));
            fs.admin().write_file(&a, &header).expect("stage");
            fs.admin().write_file(&b, &header).expect("stage");
            let line = format!("round {round}\n");
            for (path, extra) in [(&a, None), (&b, Some("trailer\n"))] {
                let h = fs.open(pid, path, OpenOptions::modify()).expect("open");
                fs.seek(pid, h, header.len() as u64).expect("seek");
                // On `b` this capture dedups onto `a`'s pre-image, so the
                // store keeps nothing of `b` and the append grows `b`'s
                // own buffer in place, leaving slack behind its length.
                fs.write(pid, h, line.as_bytes()).expect("append");
                // This capture keeps that grown buffer.
                if let Some(extra) = extra {
                    fs.write(pid, h, extra.as_bytes()).expect("append");
                }
                fs.close(pid, h).expect("close");
            }
        }
        let inner = store.inner.lock();
        assert_eq!(inner.stats.dedup_hits, 20, "every round's `b` capture dedups");
        assert_eq!(inner.entries.len(), 60);
        for entry in inner.entries.values() {
            assert_eq!(
                entry.bytes.capacity(),
                entry.bytes.len(),
                "entry {} holds spare capacity",
                entry.seq
            );
        }
    }

    mod oracle {
        use super::super::reference::Reference;
        use super::*;
        use proptest::prelude::*;

        /// Contents shared across files and families, so blobs gain and
        /// lose holders.
        const POOL: [&[u8]; 4] = [b"", b"aa", b"bbbb", b"cccccc"];

        #[derive(Debug, Clone)]
        enum Op {
            Capture {
                family: u32,
                file: u64,
                kind: MutationKind,
                bytes: Vec<u8>,
            },
            Reputation {
                family: u32,
                score: u32,
            },
            CaptureFailed {
                family: u32,
                file: u64,
            },
            Finish {
                family: u32,
            },
        }

        fn kind(k: u8) -> MutationKind {
            match k {
                0 => MutationKind::Write,
                1 => MutationKind::Truncate,
                2 => MutationKind::Delete,
                _ => MutationKind::RenameOverwrite,
            }
        }

        fn op() -> impl Strategy<Value = Op> {
            let capture = |bytes: BoxedStrategy<Vec<u8>>| {
                (1u32..5, 1u64..7, 0u8..4, bytes).prop_map(|(family, file, k, bytes)| {
                    Op::Capture {
                        family,
                        file,
                        kind: kind(k),
                        bytes,
                    }
                })
            };
            let shared = (0usize..POOL.len()).prop_map(|i| POOL[i].to_vec()).boxed();
            let unique = proptest::collection::vec(any::<u8>(), 1..10).boxed();
            prop_oneof![
                8 => capture(shared),
                6 => capture(unique),
                3 => (1u32..5, 0u32..3)
                    .prop_map(|(family, score)| Op::Reputation { family, score }),
                1 => (1u32..5, 1u64..7)
                    .prop_map(|(family, file)| Op::CaptureFailed { family, file }),
                1 => (1u32..5).prop_map(|family| Op::Finish { family }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            #[test]
            fn indexed_victims_match_the_scan(
                byte_budget in 0u64..24,
                max_entries in 0usize..7,
                ops in proptest::collection::vec(op(), 1..80),
            ) {
                let store = ShadowStore::new(ShadowConfig { byte_budget, max_entries });
                let mut model = Reference::new(byte_budget, max_entries);
                for op in &ops {
                    match op {
                        Op::Capture { family, file, kind, bytes } => {
                            let path = VPath::new(format!("/f{file}"));
                            cap(&store, *family, *kind, &path, *file, bytes);
                            model.capture(ProcessId(*family), *kind, FileId(*file), bytes);
                        }
                        Op::Reputation { family, score } => {
                            store.set_reputation(ProcessId(*family), *score);
                            model.set_reputation(ProcessId(*family), *score);
                        }
                        Op::CaptureFailed { family, file } => {
                            let path = VPath::new(format!("/f{file}"));
                            let family = ProcessId(*family);
                            store.capture_failed(family, family, FileId(*file), &path);
                            model.capture_failed(family, FileId(*file));
                        }
                        Op::Finish { family } => {
                            store.finish_recovery(ProcessId(*family), 0, 0, 0, 0);
                            model.finish_recovery(ProcessId(*family));
                        }
                    }
                    let stats = store.stats();
                    let inner = store.inner.lock();
                    prop_assert!(
                        inner.victims == model.victims,
                        "victims {:?} != oracle {:?} after {:?}", inner.victims, model.victims, op
                    );
                    prop_assert_eq!(&inner.evicted, &model.evicted);
                    prop_assert_eq!(stats.bytes_held, model.bytes_held);
                    prop_assert_eq!(stats.pin_overflows, model.pin_overflows);
                    let seqs: Vec<u64> = inner.entries.keys().copied().collect();
                    prop_assert_eq!(seqs, model.seqs());
                }
            }
        }
    }
}
