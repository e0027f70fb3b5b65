//! Pins where a corpus build allocates: per document and per distinct
//! term, never per token and never per posting.
//!
//! The builder analyses every token in one buffer it reuses, and
//! allocates one row per document plus the dictionary's growth; at
//! freeze it transposes the rows into posting lists, each allocated
//! once at its exact length. So over a fixed vocabulary — where every
//! document holds every term, and the rows, posting lists and dictionary
//! come out the same size —
//!
//! * doubling the tokens of every document may only cost the reused
//!   buffers a last doubling each, a small constant (a `String` per token
//!   or per stem would cost one allocation per token);
//! * doubling the documents may only cost one row per added document and
//!   a last doubling of each per-document vector (a posting list grown by
//!   doubling would cost every list one more reallocation).
//!
//! A counting global allocator tallies every `alloc`/`realloc` the armed
//! thread makes. The build runs on the caller's thread, so each test
//! counts exactly its own build; the lower bound of one allocation per
//! document's row catches a build whose work moved to other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qec_index::{CorpusBuilder, DocumentSpec, Feature};

struct CountingAllocator;

thread_local! {
    /// Allocations counted on this thread since it was armed; `None`
    /// while disarmed.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Documents per build (doubled by the document test).
const DOCS: usize = 5_000;
/// Distinct body words; every document holds all of them.
const VOCAB: usize = 40;
/// Allowed growth of the count beyond what a doubling must add: one more
/// doubling of each reused buffer or per-document vector.
const SLACK: usize = 10;

/// `docs` documents whose bodies repeat the whole vocabulary `reps` times
/// (in a per-document rotation), each with one feature from a fixed set.
fn specs(docs: usize, reps: usize) -> Vec<DocumentSpec> {
    (0..docs)
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
    let docs = specs.len();
    ALLOCATIONS.with(|n| n.set(Some(0)));
    let mut builder = CorpusBuilder::new();
    for spec in specs {
        builder.add_document(spec);
    }
    let corpus = builder.build();
    let count = ALLOCATIONS.with(|n| n.take()).expect("armed");
    assert_eq!(corpus.num_docs(), docs);
    // Body words, three composite tokens, three value words, `venue`.
    assert_eq!(corpus.vocab_size(), VOCAB + 3 + 3 + 1);
    assert!(
        count >= docs,
        "{count} allocations for {docs} documents: every row is allocated on the building thread"
    );
    count
}

#[test]
fn build_allocations_do_not_grow_with_tokens() {
    let (short, long) = (specs(DOCS, 2), specs(DOCS, 4));
    let base = build_allocations(short);
    let doubled = build_allocations(long);
    println!("{base} allocations at 2 reps, {doubled} at 4");
    assert!(base < 2 * DOCS, "{base} allocations for {DOCS} documents");
    assert!(
        doubled <= base + SLACK,
        "doubling the tokens took the build from {base} to {doubled} allocations"
    );
}

#[test]
fn build_allocations_grow_per_document_not_per_posting_list() {
    let (few, many) = (specs(DOCS, 2), specs(2 * DOCS, 2));
    let base = build_allocations(few);
    let doubled = build_allocations(many);
    println!(
        "{base} allocations at {DOCS} documents, {doubled} at {}",
        2 * DOCS
    );
    assert!(
        doubled <= base + DOCS + SLACK,
        "doubling the documents took the build from {base} to {doubled} allocations; \
         one row per added document allows {}",
        base + DOCS + SLACK
    );
}
