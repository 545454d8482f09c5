//! The src-embedding matrix clone in `run_batch` is lazy: only
//! `embed_events` consumes it, so train/eval batches must not pay the
//! per-batch `Matrix` clone.
//!
//! Verified with a counting global allocator that tracks allocations of
//! exactly the embedding-matrix byte size: two identically-seeded
//! stateless TGAT models run the same batch through `eval_batch` and
//! `embed_events` — identical work except the gated clone — and only the
//! embed path may allocate an embedding-sized buffer. The batch/dim
//! shapes are chosen so no other buffer in the forward pass shares that
//! size. This file holds exactly one test so no sibling test thread can
//! allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use benchtemp_core::pipeline::{StreamContext, TgnnModel};
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::paged::NeighborBackend;
use benchtemp_graph::NeighborFinder;
use benchtemp_models::common::ModelConfig;
use benchtemp_models::tgat::Tgat;

const EMBED_DIM: usize = 16;
const BATCH: usize = 20;
/// `(BATCH, EMBED_DIM)` f32 matrix — the buffer `g.value(src).clone()`
/// would allocate on every batch if the clone were unconditional.
const CLONE_BYTES: usize = BATCH * EMBED_DIM * 4;

struct CountingAlloc;

static CLONE_SIZED_ALLOCS: AtomicUsize = AtomicUsize::new(0);

#[expect(unsafe_code, reason = "counting allocator: GlobalAlloc is unsafe")]
// SAFETY: pure pass-through to `System`, which upholds every GlobalAlloc
// contract; the only addition is an atomic counter bump, which allocates
// nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's layout preconditions; delegated
    // verbatim to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == CLONE_BYTES {
            CLONE_SIZED_ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a prior alloc on this same allocator
    // (we always delegate to `System`), so forwarding to `System.realloc`
    // preserves its contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size == CLONE_BYTES {
            CLONE_SIZED_ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same delegation argument as `realloc` — every pointer we are
    // handed was produced by `System`, so `System.dealloc` may free it.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn eval_batch_skips_the_embedding_clone() {
    let g = GeneratorConfig::small("lazyclone", 37).generate();
    let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
    let ctx = StreamContext {
        graph: &g,
        neighbors: NeighborBackend::Resident(&nf),
    };
    let cfg = ModelConfig {
        embed_dim: EMBED_DIM,
        time_dim: 8,
        heads: 2,
        neighbors: 3,
        layers: 1,
        ..Default::default()
    };
    // Two fresh, identically-seeded models: TGAT is stateless, so both run
    // the exact same computation on the batch — same sampler draws, same
    // graph shapes — except the `want_embeddings`-gated clone.
    let mut eval_model = Tgat::new(cfg.clone(), &g);
    let mut embed_model = Tgat::new(cfg, &g);
    let batch = &g.events[..BATCH];
    let negs: Vec<usize> = batch.iter().map(|e| e.dst).collect();

    // Warm both models once so tape arenas and buffer pools stop growing
    // (a first pass may allocate embedding-shaped pool buffers).
    let _ = eval_model.eval_batch(&ctx, batch, &negs);
    let _ = embed_model.embed_events(&ctx, batch);

    let c0 = CLONE_SIZED_ALLOCS.load(Ordering::SeqCst);
    let (pos, neg) = eval_model.eval_batch(&ctx, batch, &negs);
    let c1 = CLONE_SIZED_ALLOCS.load(Ordering::SeqCst);
    let emb = embed_model.embed_events(&ctx, batch);
    let c2 = CLONE_SIZED_ALLOCS.load(Ordering::SeqCst);

    assert_eq!(emb.shape(), (BATCH, EMBED_DIM));
    assert!(pos.iter().chain(neg.iter()).all(|s| s.is_finite()));
    assert_eq!(
        c1 - c0,
        0,
        "eval_batch must not allocate any embedding-sized ({CLONE_BYTES}-byte) buffer"
    );
    assert_eq!(
        c2 - c1,
        1,
        "embed_events should allocate exactly one embedding-sized buffer (the clone)"
    );
}
