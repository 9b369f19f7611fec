//! Pre-image capture hooks for copy-on-write shadow stores.
//!
//! The recovery layer ("Drop It") needs the bytes a destructive operation
//! is about to destroy, captured *inside* the filter path — after every
//! registered filter has allowed the operation, immediately before the
//! mutation is applied. This module defines the sink interface the VFS
//! calls at those points; the store itself lives in `cryptodrop-recovery`
//! so the VFS stays free of policy (budgets, eviction, pinning).
//!
//! Capture happens only for **process-attributed** operations that pass
//! the filter chain. Administrative mutations (corpus staging, recovery
//! writes themselves) are invisible to the sink, and an operation blocked
//! by `Deny`/`Suspend` — or issued by an already-suspended process — never
//! reaches its capture point, so the shadow journal records exactly the
//! mutations that really happened.

use std::sync::Arc;

use crate::node::FileId;
use crate::path::VPath;
use crate::process::ProcessId;

/// Which destructive operation a [`PreImage`] precedes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// An atomic full-content write is about to replace the file's bytes
    /// (also emitted for an `open` that truncates an existing file).
    Write,
    /// The file is about to be truncated to a shorter length.
    Truncate,
    /// The file is about to be deleted.
    Delete,
    /// The file is about to be clobbered as the destination of a rename
    /// with `overwrite = true`.
    RenameOverwrite,
}

impl MutationKind {
    /// A stable lowercase label (telemetry / journal rendering).
    pub fn label(&self) -> &'static str {
        match self {
            MutationKind::Write => "write",
            MutationKind::Truncate => "truncate",
            MutationKind::Delete => "delete",
            MutationKind::RenameOverwrite => "rename-overwrite",
        }
    }
}

/// A snapshot of a file the VFS is about to destroy or mutate.
///
/// `data` is the node's own copy-on-write buffer, so a sink keeps a
/// pre-image by cloning the `Arc` — O(1), no copy — and the mutation that
/// follows materializes a private copy for the file instead. The VFS trims
/// a uniquely owned buffer's spare capacity before the call, so a kept
/// clone holds exactly `data.len()` bytes. `stamp` is the node's
/// maintained [`content_stamp`](crate::content_stamp): a sink can
/// compare pre-images by `(stamp, len)` without a hashing pass, but the
/// stamp is not collision-resistant, so equal stamps only name a
/// candidate that the bytes (or `Arc::ptr_eq`) must confirm.
#[derive(Debug)]
pub struct PreImage<'a> {
    /// The process issuing the destructive operation.
    pub pid: ProcessId,
    /// That process's top-level ancestor (family root). Stores key
    /// entries by family so a sample fanning work across children is
    /// rolled back as one unit, mirroring the engine's family scoring.
    pub family_root: ProcessId,
    /// Simulated timestamp of the operation.
    pub at_nanos: u64,
    /// Which destructive operation follows.
    pub kind: MutationKind,
    /// The file's current path.
    pub path: &'a VPath,
    /// The file's stable identity.
    pub file: FileId,
    /// The file's full content immediately before the mutation.
    pub data: &'a Arc<Vec<u8>>,
    /// [`content_stamp`](crate::content_stamp) of `data`.
    pub stamp: u64,
    /// Whether the file is currently marked read-only.
    pub read_only: bool,
}

/// A pre-image consumer wired into the VFS mutation path via
/// [`Vfs::set_shadow_sink`](crate::Vfs::set_shadow_sink).
///
/// `capture` is the load-bearing callback; the `note_*` methods default to
/// no-ops so observers that only need pre-images implement one method.
pub trait ShadowSink: Send + Sync {
    /// A destructive operation passed the filter chain and is about to be
    /// applied; `pre` holds the bytes it will destroy.
    fn capture(&self, pre: &PreImage<'_>);

    /// A process created a brand-new file (no pre-image exists). Recovery
    /// uses this to *remove* suspect-created files during rollback.
    fn note_created(&self, pid: ProcessId, family_root: ProcessId, file: FileId, path: &VPath) {
        let _ = (pid, family_root, file, path);
    }

    /// A destructive operation's pre-image could **not** be captured (the
    /// VFS's fault-injection subsystem failed the capture, or a future
    /// real sink hit an I/O error). The operation still proceeds — losing
    /// a pre-image must degrade recovery, never block the filesystem —
    /// but the sink is told which file's history is now incomplete so it
    /// can poison that file's restore into an explicit conflict instead
    /// of silently restoring the wrong bytes. Defaults to a no-op.
    fn capture_failed(
        &self,
        pid: ProcessId,
        family_root: ProcessId,
        file: FileId,
        path: &VPath,
    ) {
        let _ = (pid, family_root, file, path);
    }

    /// A process renamed a file. Recovery uses this to move files back to
    /// their pre-attack paths.
    fn note_rename(
        &self,
        pid: ProcessId,
        family_root: ProcessId,
        file: FileId,
        from: &VPath,
        to: &VPath,
    ) {
        let _ = (pid, family_root, file, from, to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn labels_are_stable() {
        assert_eq!(MutationKind::Write.label(), "write");
        assert_eq!(MutationKind::Truncate.label(), "truncate");
        assert_eq!(MutationKind::Delete.label(), "delete");
        assert_eq!(MutationKind::RenameOverwrite.label(), "rename-overwrite");
    }

    #[test]
    fn default_note_methods_are_noops() {
        struct CaptureOnly(AtomicUsize);
        impl ShadowSink for CaptureOnly {
            fn capture(&self, _pre: &PreImage<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let sink = CaptureOnly(AtomicUsize::new(0));
        sink.note_created(ProcessId(1), ProcessId(1), FileId(9), &VPath::new("/a"));
        sink.capture_failed(ProcessId(1), ProcessId(1), FileId(9), &VPath::new("/a"));
        sink.note_rename(
            ProcessId(1),
            ProcessId(1),
            FileId(9),
            &VPath::new("/a"),
            &VPath::new("/b"),
        );
        assert_eq!(sink.0.load(Ordering::Relaxed), 0);
        let path = VPath::new("/a");
        let data = Arc::new(b"x".to_vec());
        sink.capture(&PreImage {
            pid: ProcessId(1),
            family_root: ProcessId(1),
            at_nanos: 0,
            kind: MutationKind::Write,
            path: &path,
            file: FileId(9),
            data: &data,
            stamp: crate::content_stamp(&data),
            read_only: false,
        });
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
    }
}
