//! Shadow-copy recovery: the "Drop It" half of CryptoDrop.
//!
//! The paper's promise is that early detection *bounds data loss* — the
//! engine suspends a ransomware process after a median of ~10 files — but
//! bounding loss only matters if the victim can then get those files back.
//! This crate closes the loop:
//!
//! * [`ShadowStore`] — a copy-on-write pre-image journal wired into the
//!   VFS mutation path (via [`cryptodrop_vfs::ShadowSink`]). Every
//!   destructive operation a monitored process performs — full-content
//!   write, truncate, delete, rename-over — deposits the bytes it is about
//!   to destroy and is bounded by a byte budget with LRU eviction. Capture
//!   is O(1) in the file size and the journal length: the store keeps a
//!   clone of the file node's copy-on-write `Arc` rather than a copy, so
//!   the mutation that follows pays for the file's private copy instead.
//!   Content is deduplicated on the VFS-maintained content stamp plus
//!   length, with every stamp match confirmed by `Arc::ptr_eq` or a byte
//!   comparison (the stamp is a polynomial hash an adversary can collide).
//!   Shadows belonging to process families with nonzero reputation scores
//!   are *pinned*: the store refuses to evict exactly the pre-images a
//!   brewing detection is most likely to need. The eviction victim comes
//!   from ordered indexes of unpinned entries, not a journal scan.
//! * [`RecoveryPlan`] / [`ShadowStore::restore`] — on suspension, the
//!   store enumerates everything the suspect family touched and rolls the
//!   filesystem back byte-for-byte: suspect-created files are removed,
//!   renames are undone, and destroyed content is restored from shadows,
//!   while writes that a *benign* process made last are preserved.
//!
//! # Restore semantics (trailing-run rule)
//!
//! Processes share files, and detection may lag the attack (a deferred
//! analysis pipeline). Per file, the store restores the pre-image of the
//! *earliest operation in the maximal trailing run of suspect-authored
//! destructive ops*:
//!
//! * If the last destructive writer was benign, the file is left alone —
//!   benign data always wins.
//! * Otherwise everything the suspect did after the last benign write is
//!   undone in one step, restoring exactly the bytes that existed when
//!   the suspect's final assault on that file began.
//!
//! The rule makes the post-restore filesystem independent of *when* the
//! suspension landed (inline or reconciled later): any suspect ops that
//! slipped in while a verdict was in flight extend the trailing run and
//! are undone together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod store;

pub use plan::{RecoveryAction, RecoveryConflict, RecoveryPlan, RecoveryReport};
pub use store::{ShadowConfig, ShadowStats, ShadowStore};
