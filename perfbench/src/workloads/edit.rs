//! The benign editor's action mix, shared by `office-edit` and the fleet's
//! editor tenants.
//!
//! The editor works on office containers (docx, xlsx, pptx, odt), which
//! share one entropy profile and are four types, below the funneling gap.
//! Every edit keeps a file's bytes in distribution: patches and appends
//! copy a short run of bytes from elsewhere in the same file, past the
//! leading window the type sniffer reads, so type, entropy and similarity
//! stay where they were and no indicator fires.

use cryptodrop_corpus::{Corpus, CorpusFile};
use cryptodrop_vfs::{OpenOptions, ProcessId, VPath, Vfs, VfsResult};

use crate::stats::{Rng, Zipf};

/// One kind of application-level action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// open(read) → read → close.
    Read,
    /// open(modify) → read → write the same bytes back → close.
    UnchangedSave,
    /// open(modify) → read → overwrite a short mid-file run → close.
    MidEdit,
    /// open(modify) → read → append a short run → close.
    Append,
    /// Read the file, write an edited copy to a temp file, rename it over
    /// the original.
    SafeSave,
}

/// One generated action: what to do, to which hot file, with which
/// per-action randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditOp {
    /// The action.
    pub kind: EditKind,
    /// Index into the hot set.
    pub file: usize,
    /// Offsets and lengths of the edit are derived from these bits.
    pub salt: u64,
}

impl EditKind {
    /// Every kind, in the order the report line lists them.
    pub const ALL: [EditKind; 5] = [
        EditKind::Read,
        EditKind::UnchangedSave,
        EditKind::MidEdit,
        EditKind::Append,
        EditKind::SafeSave,
    ];

    /// The kind's name on the report line.
    pub fn label(self) -> &'static str {
        match self {
            EditKind::Read => "read",
            EditKind::UnchangedSave => "unchanged-save",
            EditKind::MidEdit => "mid-edit",
            EditKind::Append => "append",
            EditKind::SafeSave => "safe-save",
        }
    }
}

/// A seeded, endless stream of editor actions over a hot set, with file
/// choice skewed by Zipf(1) over the hot-set ranks.
#[derive(Debug, Clone)]
pub struct EditGen {
    rng: Rng,
    zipf: Zipf,
}

impl EditGen {
    /// The stream for `seed` over `hot` files.
    pub fn new(seed: u64, hot: usize) -> Self {
        Self {
            rng: Rng::derive(seed, 0xED17),
            zipf: Zipf::new(hot),
        }
    }

    /// The next action.
    pub fn next_op(&mut self) -> EditOp {
        let file = self.zipf.sample(&mut self.rng);
        // The five kinds in equal shares: the mix names them without
        // weights.
        let kind = EditKind::ALL[self.rng.below(EditKind::ALL.len())];
        EditOp {
            kind,
            file,
            salt: self.rng.next_u64(),
        }
    }
}

/// The file types the editor works on.
const OFFICE_TYPES: [&str; 4] = ["docx", "xlsx", "pptx", "odt"];

/// Edits land at or past this offset: the type sniffer identifies an
/// office container from its leading 16 KiB (`CONTAINER_SCAN_LIMIT` in
/// `cryptodrop-sniff`).
const BODY_START: usize = 16 * 1024;

/// Files below this size are never hot: they leave too little body
/// (under 4 KiB) past the sniffer window to edit.
const MIN_HOT_BYTES: usize = 20 * 1024;

/// Files above this size are never hot: the largest office document the
/// benign application models save (`cryptodrop-benign`'s Word, at its
/// fourth save) is 41,000 bytes.
const MAX_HOT_BYTES: usize = 41_000;

/// The hot set: `count` writable office files of 20 KiB–41 KB, the
/// middle file of each of `count` size strata, in a fixed rank order. It
/// is the same for every seed (the seed drives the action stream), so
/// runs with different seeds load the same working set.
pub fn hot_set(corpus: &Corpus, count: usize) -> Vec<VPath> {
    let mut eligible: Vec<&CorpusFile> = corpus
        .files()
        .iter()
        .filter(|f| {
            !f.read_only
                && !f.decoy
                && (MIN_HOT_BYTES..=MAX_HOT_BYTES).contains(&f.data.len())
                && OFFICE_TYPES.contains(&f.extension.as_str())
        })
        .collect();
    eligible.sort_by(|a, b| a.data.len().cmp(&b.data.len()).then(a.path.cmp(&b.path)));
    let count = count.min(eligible.len());
    let mut hot: Vec<VPath> = (0..count)
        .map(|s| {
            eligible[(2 * s + 1) * eligible.len() / (2 * count)]
                .path
                .clone()
        })
        .collect();
    Rng::new(0x5EED).shuffle(&mut hot);
    hot
}

/// The temp file a safe-save writes before renaming it over `path`.
fn temp_path(path: &VPath) -> VPath {
    path.with_file_name(&format!("~{}", path.file_name().unwrap_or("doc")))
}

/// A run of 8–32 bytes copied from elsewhere in `data[start..]`: (write
/// offset, bytes), both at or past `start`. Empty when that region is too
/// short.
pub fn patch(data: &[u8], start: usize, salt: u64) -> (usize, Vec<u8>) {
    let n = 8 + (salt % 25) as usize;
    let Some(span) = data.len().checked_sub(start + n).filter(|&s| s > 0) else {
        return (start.min(data.len()), Vec::new());
    };
    let off = start + ((salt >> 8) as usize) % span;
    let src = start + ((salt >> 32) as usize) % span;
    (off, data[src..src + n].to_vec())
}

fn with_handle(
    fs: &mut Vfs,
    pid: ProcessId,
    path: &VPath,
    options: OpenOptions,
    body: impl FnOnce(&mut Vfs, cryptodrop_vfs::Handle) -> VfsResult<()>,
) -> VfsResult<()> {
    let h = fs.open(pid, path, options)?;
    let result = body(fs, h);
    let closed = fs.close(pid, h);
    result.and(closed)
}

/// Performs one action as `pid` on `path`. Any error is returned after
/// the handle is closed.
pub fn apply(fs: &mut Vfs, pid: ProcessId, path: &VPath, op: EditOp) -> VfsResult<()> {
    match op.kind {
        EditKind::Read => with_handle(fs, pid, path, OpenOptions::read(), |fs, h| {
            fs.read_to_end(pid, h).map(drop)
        }),
        EditKind::UnchangedSave => with_handle(fs, pid, path, OpenOptions::modify(), |fs, h| {
            let data = fs.read_to_end(pid, h)?;
            fs.seek(pid, h, 0)?;
            fs.write(pid, h, &data).map(drop)
        }),
        EditKind::MidEdit => with_handle(fs, pid, path, OpenOptions::modify(), |fs, h| {
            let data = fs.read_to_end(pid, h)?;
            let (off, bytes) = patch(&data, BODY_START, op.salt);
            fs.seek(pid, h, off as u64)?;
            fs.write(pid, h, &bytes).map(drop)
        }),
        EditKind::Append => with_handle(fs, pid, path, OpenOptions::modify(), |fs, h| {
            let data = fs.read_to_end(pid, h)?;
            let (_, bytes) = patch(&data, BODY_START, op.salt);
            fs.seek(pid, h, data.len() as u64)?;
            fs.write(pid, h, &bytes).map(drop)
        }),
        EditKind::SafeSave => {
            let mut data = Vec::new();
            with_handle(fs, pid, path, OpenOptions::read(), |fs, h| {
                data = fs.read_to_end(pid, h)?;
                Ok(())
            })?;
            let (off, bytes) = patch(&data, BODY_START, op.salt);
            data[off..off + bytes.len()].copy_from_slice(&bytes);
            let temp = temp_path(path);
            with_handle(fs, pid, &temp, OpenOptions::create(), |fs, h| {
                fs.write(pid, h, &data).map(drop)
            })?;
            fs.rename(pid, &temp, path, true)
        }
    }
}
