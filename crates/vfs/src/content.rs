//! Shared, deduplicated file content for multi-namespace deployments.
//!
//! A fleet hosting thousands of monitored namespaces in one process cannot
//! afford a materialized copy of the protected corpus per namespace. This
//! module provides the two pieces that make the corpus copy-on-write:
//!
//! * [`SharedContent`] — one immutable, reference-counted buffer plus its
//!   precomputed [`content_stamp`](crate::content_stamp), stageable into
//!   any number of filesystems through
//!   [`AdminView::stage_shared`](crate::AdminView::stage_shared) at O(1)
//!   cost per mount. A namespace that later writes the file materializes a
//!   private copy on first mutation (see `node::Content`); until then the
//!   bytes exist exactly once.
//! * [`BlobStore`] — a byte-verified, explicitly reference-counted blob
//!   map keyed by content stamp and length. The recovery shadow store's
//!   pre-image journal and fleet corpus staging both dedup through it.

use std::collections::HashMap;
use std::sync::Arc;

use crate::dirty::content_stamp;

/// Immutable file content staged once and mounted into many namespaces.
///
/// Carries the buffer's [`content_stamp`](crate::content_stamp) so each
/// mount is a refcount bump plus a stamp copy — no per-namespace O(n)
/// hashing pass over the corpus.
#[derive(Debug, Clone)]
pub struct SharedContent {
    bytes: Arc<Vec<u8>>,
    stamp: u64,
}

impl SharedContent {
    /// Wraps `data`, computing its content stamp once.
    pub fn new(data: Vec<u8>) -> Self {
        let stamp = content_stamp(&data);
        Self {
            bytes: Arc::new(data),
            stamp,
        }
    }

    /// The content bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Content length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the content is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The precomputed content stamp.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// How many handles currently alias the buffer (this one included).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.bytes)
    }

    /// The underlying shared buffer.
    pub fn buffer(&self) -> &Arc<Vec<u8>> {
        &self.bytes
    }
}

#[derive(Debug)]
struct Blob {
    bytes: Arc<Vec<u8>>,
    refs: usize,
    /// XOR of the holder ids of every live reference: while `refs == 1`
    /// it *is* the one holder's id, so a store can name a blob's sole
    /// holder in O(1) without a holder list.
    holders: u64,
}

/// What one [`BlobStore::acquire`] did.
#[derive(Debug)]
pub struct Acquired {
    /// The resident buffer now referenced: the caller's own when the
    /// content was new, else the byte-equal buffer already held.
    pub blob: Arc<Vec<u8>>,
    /// Whether byte-equal content was already resident (no new bytes).
    pub dedup_hit: bool,
    /// The holder whose reference was, until this call, the blob's only
    /// one.
    pub was_sole: Option<u64>,
}

/// What one [`BlobStore::release`] did.
#[derive(Debug, PartialEq, Eq)]
pub struct Released {
    /// Bytes freed: the blob's length when this was its last reference,
    /// else 0.
    pub freed: u64,
    /// The holder left with the blob's only reference, if exactly one
    /// remains.
    pub now_sole: Option<u64>,
}

/// A byte-verified, explicitly reference-counted blob map.
///
/// Blobs are found by `(content_stamp, len)`, but that pair only names a
/// *candidate*: the stamp is a polynomial hash an adversary can collide
/// (two 1024-byte Thue–Morse strings share one), so a candidate counts as
/// the same content only if it is the very same buffer (`Arc::ptr_eq`) or
/// its bytes compare equal. Byte-distinct contents that collide on the
/// pair sit side by side under consecutive chain indices.
///
/// [`acquire`](Self::acquire) either bumps a resident blob's refcount
/// (dedup hit, no new bytes) or keeps a clone of the caller's `Arc` — no
/// copy and no hashing pass; [`release`](Self::release) drops a reference
/// and frees the blob when the last one goes. `bytes_held` therefore
/// counts every byte exactly once however many holders reference it.
/// Each reference is taken on behalf of a caller-chosen `holder` id (a
/// journal sequence number, a corpus slot), which lets the store report
/// which holder owns a blob alone.
#[derive(Debug, Default)]
pub struct BlobStore {
    blobs: HashMap<(u64, u64, u32), Blob>,
    bytes_held: u64,
}

impl BlobStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// `Ok` with the chain index of the resident blob equal to `bytes`,
    /// else `Err` with the chain's first free index.
    fn find(&self, stamp: u64, bytes: &Arc<Vec<u8>>) -> Result<u32, u32> {
        let len = bytes.len() as u64;
        let mut idx = 0;
        while let Some(blob) = self.blobs.get(&(stamp, len, idx)) {
            if Arc::ptr_eq(&blob.bytes, bytes) || blob.bytes == *bytes {
                return Ok(idx);
            }
            idx += 1;
        }
        Err(idx)
    }

    /// The number of references held on the content equal to `bytes`
    /// (0 if absent). `stamp` must be `content_stamp(bytes)`.
    pub fn ref_count(&self, stamp: u64, bytes: &Arc<Vec<u8>>) -> usize {
        self.find(stamp, bytes)
            .map_or(0, |idx| self.blobs[&(stamp, bytes.len() as u64, idx)].refs)
    }

    /// Acquires one reference on the content of `bytes` for `holder`.
    /// `stamp` must be `content_stamp(bytes)`. A new blob keeps a clone
    /// of `bytes` (the caller's buffer, uncopied); a dedup hit returns the
    /// byte-equal buffer already resident.
    pub fn acquire(&mut self, stamp: u64, bytes: &Arc<Vec<u8>>, holder: u64) -> Acquired {
        let len = bytes.len() as u64;
        let idx = match self.find(stamp, bytes) {
            Ok(idx) => {
                let blob = self
                    .blobs
                    .get_mut(&(stamp, len, idx))
                    .expect("find returned a resident index");
                let was_sole = (blob.refs == 1).then_some(blob.holders);
                blob.refs += 1;
                blob.holders ^= holder;
                return Acquired {
                    blob: Arc::clone(&blob.bytes),
                    dedup_hit: true,
                    was_sole,
                };
            }
            Err(free) => free,
        };
        self.blobs.insert(
            (stamp, len, idx),
            Blob {
                bytes: Arc::clone(bytes),
                refs: 1,
                holders: holder,
            },
        );
        self.bytes_held += len;
        Acquired {
            blob: Arc::clone(bytes),
            dedup_hit: false,
            was_sole: None,
        }
    }

    /// Acquires one reference on `content` for `holder`, returning the
    /// resident copy (byte-equal to `content`) and whether it was a
    /// dedup hit.
    pub fn share(&mut self, content: SharedContent, holder: u64) -> (SharedContent, bool) {
        let got = self.acquire(content.stamp, &content.bytes, holder);
        let resident = SharedContent {
            bytes: got.blob,
            stamp: content.stamp,
        };
        (resident, got.dedup_hit)
    }

    /// Releases `holder`'s reference on the content of `bytes`. `stamp`
    /// must be `content_stamp(bytes)`; releasing absent content is a
    /// no-op.
    pub fn release(&mut self, stamp: u64, bytes: &Arc<Vec<u8>>, holder: u64) -> Released {
        let len = bytes.len() as u64;
        let Ok(idx) = self.find(stamp, bytes) else {
            return Released {
                freed: 0,
                now_sole: None,
            };
        };
        let blob = self
            .blobs
            .get_mut(&(stamp, len, idx))
            .expect("find returned a resident index");
        if blob.refs > 1 {
            blob.refs -= 1;
            blob.holders ^= holder;
            return Released {
                freed: 0,
                now_sole: (blob.refs == 1).then_some(blob.holders),
            };
        }
        self.blobs.remove(&(stamp, len, idx));
        // Keep the chain gap-free: the last collider moves into the hole.
        let mut last = idx;
        while self.blobs.contains_key(&(stamp, len, last + 1)) {
            last += 1;
        }
        if last != idx {
            let moved = self
                .blobs
                .remove(&(stamp, len, last))
                .expect("probed above");
            self.blobs.insert((stamp, len, idx), moved);
        }
        self.bytes_held -= len;
        Released {
            freed: len,
            now_sole: None,
        }
    }

    /// Unique bytes currently resident across all blobs.
    pub fn bytes_held(&self) -> u64 {
        self.bytes_held
    }

    /// Number of distinct blobs resident.
    pub fn blob_count(&self) -> usize {
        self.blobs.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(data: &[u8]) -> Arc<Vec<u8>> {
        Arc::new(data.to_vec())
    }

    /// A 1024-byte Thue–Morse string over `a`/`b` and its complement:
    /// byte-distinct, equal length, equal content stamp.
    fn thue_morse_pair() -> (Vec<u8>, Vec<u8>) {
        let t: Vec<u8> = (0u32..1024)
            .map(|i| if i.count_ones() % 2 == 0 { b'a' } else { b'b' })
            .collect();
        let u = t.iter().map(|&b| if b == b'a' { b'b' } else { b'a' }).collect();
        (t, u)
    }

    #[test]
    fn shared_content_precomputes_the_stamp() {
        let c = SharedContent::new(b"hello world".to_vec());
        assert_eq!(c.stamp(), content_stamp(b"hello world"));
        assert_eq!(c.len(), 11);
        assert!(!c.is_empty());
        assert_eq!(c.as_slice(), b"hello world");
        let d = c.clone();
        assert_eq!(d.ref_count(), 2, "clones alias the buffer");
    }

    #[test]
    fn blob_store_dedups_and_refcounts() {
        let mut store = BlobStore::new();
        let first = arc(b"abc");
        let stamp = content_stamp(b"abc");
        let a = store.acquire(stamp, &first, 1);
        assert!(!a.dedup_hit);
        assert!(Arc::ptr_eq(&a.blob, &first), "a new blob keeps the caller's buffer");
        let b = store.acquire(stamp, &arc(b"abc"), 2);
        assert!(b.dedup_hit);
        assert_eq!(b.was_sole, Some(1));
        assert!(Arc::ptr_eq(&a.blob, &b.blob), "dedup returns the resident buffer");
        assert_eq!(store.bytes_held(), 3, "shared bytes count once");
        assert_eq!(store.ref_count(stamp, &first), 2);
        assert_eq!(
            store.release(stamp, &first, 1),
            Released {
                freed: 0,
                now_sole: Some(2)
            },
            "first release frees nothing and names the remaining holder"
        );
        assert_eq!(store.release(stamp, &first, 2).freed, 3, "last release frees the blob");
        assert_eq!(store.bytes_held(), 0);
        assert!(store.is_empty());
        assert_eq!(store.release(stamp, &first, 2).freed, 0, "absent blob is a no-op");
    }

    #[test]
    fn distinct_blobs_accumulate() {
        let mut store = BlobStore::new();
        store.acquire(content_stamp(b"aaaa"), &arc(b"aaaa"), 0);
        store.acquire(content_stamp(b"bb"), &arc(b"bb"), 1);
        assert_eq!(store.blob_count(), 2);
        assert_eq!(store.bytes_held(), 6);
        assert_eq!(store.ref_count(content_stamp(b"aaaa"), &arc(b"aaaa")), 1);
        assert_eq!(store.ref_count(content_stamp(b"cc"), &arc(b"cc")), 0);
    }

    #[test]
    fn stamp_collisions_stay_distinct_blobs() {
        let (t, u) = thue_morse_pair();
        assert_ne!(t, u);
        let stamp = content_stamp(&t);
        assert_eq!(stamp, content_stamp(&u), "the pair collides under the stamp");
        let (t, u) = (Arc::new(t), Arc::new(u));
        let mut store = BlobStore::new();
        assert!(!store.acquire(stamp, &t, 1).dedup_hit);
        let got = store.acquire(stamp, &u, 2);
        assert!(!got.dedup_hit, "a stamp match alone is not a dedup");
        assert!(Arc::ptr_eq(&got.blob, &u));
        assert_eq!(store.blob_count(), 2);
        assert_eq!(store.bytes_held(), 2048);
        // Releasing the head of the chain keeps the collider findable.
        assert_eq!(store.release(stamp, &t, 1).freed, 1024);
        assert_eq!(store.ref_count(stamp, &u), 1);
        assert!(store.acquire(stamp, &Arc::new(u.to_vec()), 3).dedup_hit);
        assert_eq!(store.bytes_held(), 1024);
    }
}
