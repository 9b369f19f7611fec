//! Allocation guard: the steady-state filtered modify cycle is heap-
//! allocation-free.
//!
//! The per-operation fast paths — the memcmp save-unchanged short
//! circuit in `Vfs::write`, the stack-fold entropy computation, the
//! stamp-probe open (no snapshot clone when the file shard already
//! holds identical content), and the tier-1 stamp-unchanged close —
//! are supposed to run without touching the allocator once every cache
//! is warm. A counting `#[global_allocator]` proves it: after a
//! warm-up pass, a full open → write-same → close sweep over the
//! working set must perform exactly zero heap allocations. With a
//! shadow store armed, the same sweep's captures all coalesce onto the
//! file's last pre-image, and that path must not allocate either.
//!
//! This lives in its own integration-test binary because a global
//! allocator is per-binary. The count is per thread, so tests running
//! side by side (and the harness thread reporting them) never pollute
//! each other's windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cryptodrop::{CryptoDrop, Session, ShadowConfig};
use cryptodrop_corpus::{Corpus, CorpusSpec};
use cryptodrop_vfs::{OpenOptions, Vfs};

/// Counts the current thread's allocations (not deallocations: freeing
/// warm-up buffers during the armed window is fine) while it is armed.
struct CountingAllocator;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown find no TLS.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Warms `fs` up with three read-modify-write rounds over a working set
/// of the corpus, then counts this thread's allocations across five
/// save-unchanged open → write-same → close sweeps. Returns the count and
/// the number of triples swept.
fn save_unchanged_sweep_allocations(corpus: &Corpus, fs: &mut Vfs) -> (u64, usize) {
    // The trace log retains an event per operation — real allocation,
    // but evaluation-harness bookkeeping, not filter cost.
    fs.event_log_mut().set_enabled(false);
    let pid = fs.spawn_process("editor.exe");

    // Warm-up: three full read-modify-write cycles over the working set
    // fill the snapshot cache, size every scratch buffer, and leave the
    // per-file content in hand for the armed sweep.
    let mut working_set = Vec::new();
    for round in 0..3 {
        working_set.clear();
        for f in corpus.files().iter().take(20) {
            if f.read_only {
                continue;
            }
            let Ok(h) = fs.open(pid, &f.path, OpenOptions::modify()) else {
                continue;
            };
            let data = fs.read_to_end(pid, h).unwrap_or_default();
            let _ = fs.seek(pid, h, 0);
            let _ = fs.write(pid, h, &data);
            let _ = fs.close(pid, h);
            if round == 2 {
                working_set.push((f.path.clone(), data));
            }
        }
    }
    assert!(working_set.len() >= 10, "corpus must yield a working set");

    // The armed sweep: the editor's save-unchanged steady state. Every
    // write carries identical content (memcmp short circuit, stamp
    // untouched), every close takes the tier-1 stamp-unchanged path.
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    for _ in 0..5 {
        for (path, data) in &working_set {
            let h = fs.open(pid, path, OpenOptions::modify()).expect("reopen");
            fs.write(pid, h, data).expect("write");
            fs.close(pid, h).expect("close");
        }
    }
    ARMED.with(|a| a.set(false));
    (ALLOCATIONS.with(Cell::get), 5 * working_set.len())
}

fn staged(corpus: &Corpus) -> Vfs {
    let mut fs = Vfs::new();
    corpus.stage_into(&mut fs).expect("staging succeeds");
    fs
}

#[test]
fn steady_state_filtered_modify_cycle_allocates_nothing() {
    let corpus = Corpus::generate(&CorpusSpec::sized(100, 10));
    let session = CryptoDrop::builder()
        .protecting(corpus.root().as_str())
        .build()
        .expect("valid config");
    let mut fs = staged(&corpus);
    fs.register_filter(Box::new(session.fork()));

    let (allocations, triples) = save_unchanged_sweep_allocations(&corpus, &mut fs);
    assert_eq!(
        allocations, 0,
        "steady-state filtered modify cycle must not allocate \
         ({allocations} allocations across {triples} open/write/close triples)"
    );
}

#[test]
fn coalesced_shadow_capture_allocates_nothing() {
    let corpus = Corpus::generate(&CorpusSpec::sized(100, 10));
    let session: Session = CryptoDrop::builder()
        .protecting(corpus.root().as_str())
        .recovery(ShadowConfig::default())
        .build()
        .expect("valid config");
    let mut fs = staged(&corpus);
    session.attach(&mut fs);

    let (allocations, triples) = save_unchanged_sweep_allocations(&corpus, &mut fs);
    let stats = session.shadow_store().expect("recovery armed").stats();
    assert!(
        stats.coalesced >= triples as u64,
        "every armed-sweep capture coalesces ({} coalesced, {triples} triples)",
        stats.coalesced
    );
    assert_eq!(
        allocations, 0,
        "a coalesced shadow capture must not allocate \
         ({allocations} allocations across {triples} open/write/close triples)"
    );
}
