//! The shadow store's journal bookkeeping as it was before the victim
//! indexes: owned byte copies, content-keyed refcounts and an O(entries)
//! victim scan from the oldest entry. Kept only as a test oracle: over
//! any op sequence the indexed store must pick the same victims, poison
//! the same `(file, family)` pairs and hold the same bytes.

use std::collections::{BTreeMap, HashMap, HashSet};

use cryptodrop_vfs::shadow::MutationKind;
use cryptodrop_vfs::{FileId, ProcessId};

#[derive(Debug)]
struct RefEntry {
    family: ProcessId,
    kind: MutationKind,
    file: FileId,
    bytes: Vec<u8>,
}

/// The reference model of [`super::ShadowStore`]'s capture, pin and
/// eviction behaviour.
#[derive(Debug)]
pub(crate) struct Reference {
    byte_budget: u64,
    max_entries: usize,
    entries: BTreeMap<u64, RefEntry>,
    by_file: HashMap<FileId, Vec<u64>>,
    /// Content → number of entries holding it.
    refs: HashMap<Vec<u8>, usize>,
    reputation: HashMap<ProcessId, u32>,
    next_seq: u64,
    pub(crate) bytes_held: u64,
    pub(crate) evicted: HashSet<(FileId, ProcessId)>,
    pub(crate) victims: Vec<u64>,
    pub(crate) pin_overflows: u64,
}

impl Reference {
    pub(crate) fn new(byte_budget: u64, max_entries: usize) -> Self {
        Self {
            byte_budget,
            max_entries,
            entries: BTreeMap::new(),
            by_file: HashMap::new(),
            refs: HashMap::new(),
            reputation: HashMap::new(),
            next_seq: 0,
            bytes_held: 0,
            evicted: HashSet::new(),
            victims: Vec::new(),
            pin_overflows: 0,
        }
    }

    fn pinned(&self, family: ProcessId) -> bool {
        self.reputation.get(&family).copied().unwrap_or(0) > 0
    }

    /// Live entry seqs, oldest first.
    pub(crate) fn seqs(&self) -> Vec<u64> {
        self.entries.keys().copied().collect()
    }

    pub(crate) fn set_reputation(&mut self, family: ProcessId, score: u32) {
        self.reputation.insert(family, score);
    }

    pub(crate) fn capture_failed(&mut self, family: ProcessId, file: FileId) {
        self.evicted.insert((file, family));
    }

    pub(crate) fn capture(
        &mut self,
        family: ProcessId,
        kind: MutationKind,
        file: FileId,
        bytes: &[u8],
    ) {
        if let Some(last) = self.by_file.get(&file).and_then(|s| s.last()) {
            let last = &self.entries[last];
            if last.family == family && last.kind == kind && last.bytes == bytes {
                return;
            }
        }
        let count = self.refs.entry(bytes.to_vec()).or_insert(0);
        *count += 1;
        if *count == 1 {
            self.bytes_held += bytes.len() as u64;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            seq,
            RefEntry {
                family,
                kind,
                file,
                bytes: bytes.to_vec(),
            },
        );
        self.by_file.entry(file).or_default().push(seq);
        self.enforce_budget();
    }

    pub(crate) fn finish_recovery(&mut self, family: ProcessId) {
        let victims: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.family == family)
            .map(|(seq, _)| *seq)
            .collect();
        for seq in victims {
            self.remove(seq);
        }
        self.evicted.retain(|(_, fam)| *fam != family);
    }

    fn remove(&mut self, seq: u64) -> RefEntry {
        let entry = self.entries.remove(&seq).expect("live seq");
        let seqs = self.by_file.get_mut(&entry.file).expect("indexed file");
        seqs.retain(|s| *s != seq);
        if seqs.is_empty() {
            self.by_file.remove(&entry.file);
        }
        let count = self.refs.get_mut(&entry.bytes).expect("held content");
        *count -= 1;
        if *count == 0 {
            self.refs.remove(&entry.bytes);
            self.bytes_held -= entry.bytes.len() as u64;
        }
        entry
    }

    /// The O(entries) scan: oldest unpinned entry holding the only
    /// reference to its content under byte pressure, else the oldest
    /// unpinned entry.
    fn enforce_budget(&mut self) {
        loop {
            let over_bytes = self.bytes_held > self.byte_budget;
            let over_entries = self.max_entries != 0 && self.entries.len() > self.max_entries;
            if !over_bytes && !over_entries {
                return;
            }
            let mut oldest_unpinned = None;
            let mut releasing = None;
            for (&seq, e) in &self.entries {
                if self.pinned(e.family) {
                    continue;
                }
                if oldest_unpinned.is_none() {
                    oldest_unpinned = Some(seq);
                    if !over_bytes {
                        break;
                    }
                }
                if over_bytes && self.refs[&e.bytes] == 1 {
                    releasing = Some(seq);
                    break;
                }
            }
            let Some(seq) = releasing.or(oldest_unpinned) else {
                self.pin_overflows += 1;
                return;
            };
            let entry = self.remove(seq);
            self.evicted.insert((entry.file, entry.family));
            self.victims.push(seq);
        }
    }
}
