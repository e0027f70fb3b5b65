//! Pins where a corpus build allocates: per document and per distinct
//! term, never per token.
//!
//! The builder analyses every token in one buffer it reuses, and
//! allocates one row per document plus the dictionary's and the posting
//! lists' growth. So over a fixed vocabulary — where every document holds
//! every term, and the rows, posting lists and dictionary come out the
//! same size — doubling the tokens of every document may only cost the
//! reused buffers a last doubling each, a small constant. A `String` per
//! token (or per stem) would cost one allocation per token.
//!
//! A counting global allocator tallies every `alloc`/`realloc` while the
//! flag is armed. The file holds exactly one test, so nothing else
//! allocates in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use qec_index::{CorpusBuilder, DocumentSpec, Feature};

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Documents per build.
const DOCS: usize = 5_000;
/// Distinct body words; every document holds all of them.
const VOCAB: usize = 40;
/// Allowed growth of the count when the tokens double: one more doubling
/// of each reused buffer.
const SLACK: usize = 10;

/// `DOCS` documents whose bodies repeat the whole vocabulary `reps` times
/// (in a per-document rotation), each with one feature from a fixed set.
fn specs(reps: usize) -> Vec<DocumentSpec> {
    (0..DOCS)
        .map(|d| {
            let mut body = String::new();
            for r in 0..reps * VOCAB {
                body.push_str(&format!("word{} ", (d + r) % VOCAB));
            }
            DocumentSpec {
                title: String::new(),
                body,
                features: vec![Feature::new("paper", "venue", format!("v{}", d % 3))],
                label: Some(0),
            }
        })
        .collect()
}

/// Allocations made while adding `specs` and freezing the corpus.
fn build_allocations(specs: Vec<DocumentSpec>) -> usize {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::SeqCst);
    let mut builder = CorpusBuilder::new();
    for spec in specs {
        builder.add_document(spec);
    }
    let corpus = builder.build();
    ARMED.store(false, Ordering::SeqCst);
    assert_eq!(corpus.num_docs(), DOCS);
    // Body words, three composite tokens, three value words, `venue`.
    assert_eq!(corpus.vocab_size(), VOCAB + 3 + 3 + 1);
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn build_allocations_do_not_grow_with_tokens() {
    let (short, long) = (specs(2), specs(4));
    let base = build_allocations(short);
    let doubled = build_allocations(long);
    println!("{base} allocations at 2 reps, {doubled} at 4");
    assert!(base < 2 * DOCS, "{base} allocations for {DOCS} documents");
    assert!(
        doubled <= base + SLACK,
        "doubling the tokens took the build from {base} to {doubled} allocations"
    );
}
