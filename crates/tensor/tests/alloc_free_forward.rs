//! Zero-allocation contract of the steady-state training forward pass:
//! once the tape recycle cache and its size-classed buffer pool are warm,
//! building a [`Graph`], binding parameters, and running a fused
//! `Linear→ReLU→Linear` forward must perform no heap allocations at all.
//!
//! Verified with a counting global allocator. This file holds exactly one
//! test so no sibling test thread can allocate concurrently and pollute the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use benchtemp_tensor::nn::{Mlp, MultiHeadAttention};
use benchtemp_tensor::{init, Graph, Matrix, ParamStore};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System`, which upholds every GlobalAlloc
// contract; the only addition is an atomic counter bump, which allocates
// nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's layout preconditions; delegated
    // verbatim to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a prior alloc on this same allocator
    // (we always delegate to `System`), so forwarding to `System.realloc`
    // preserves its contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::SeqCst);
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
fn steady_state_forward_is_allocation_free_after_warmup() {
    let mut store = ParamStore::new();
    let mut rng = init::rng(11);
    let mlp = Mlp::new(&mut store, &mut rng, "steady", 8, 16, 4);
    let x = init::uniform(12, 8, -1.0, 1.0, &mut rng);

    // One forward step: graph from the recycle cache, pooled param/input
    // leaves, fused Linear→ReLU→Linear. Returns a checksum so the work
    // cannot be optimized away.
    let step = |store: &ParamStore, x: &Matrix| -> f32 {
        let mut g = Graph::new(store);
        let xv = g.input_from(x);
        let y = mlp.forward(&mut g, xv);
        g.value(y).as_slice().iter().sum()
    };

    // Warm-up passes grow the tape's node arena, the buffer pool's
    // size-class free lists, and the binding scratch to their steady state.
    let mut warm = 0.0f32;
    for _ in 0..5 {
        warm += step(&store, &x);
    }
    assert!(
        warm.is_finite(),
        "warm-up forward produced non-finite output"
    );

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let mut measured = 0.0f32;
    for _ in 0..10 {
        measured += step(&store, &x);
    }
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(measured.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state forward allocated {} times after warm-up",
        after - before
    );

    // TGAT-shaped attention steady state: the fused multi-head node's
    // output and its attention-weight scratch both come from the tape's
    // buffer pool, so a full Q/K/V-projected attention forward is also
    // allocation-free once warm. Shapes stay below the parallel dispatch
    // threshold so the kernel runs inline (no task boxing).
    let mut astore = ParamStore::new();
    let heads = 2;
    let group = 4;
    let n = 12;
    let attn = MultiHeadAttention::new(&mut astore, &mut rng, "att", 8, 8, 8, heads, 8);
    let query = init::uniform(n, 8, -1.0, 1.0, &mut rng);
    let keys = init::uniform(n * group, 8, -1.0, 1.0, &mut rng);
    let mut mask = vec![true; n * group];
    mask[..group].fill(false); // one fully-padded row
    let att_step = |store: &ParamStore, q: &Matrix, k: &Matrix, mask: &[bool]| -> f32 {
        let mut g = Graph::new(store);
        let qv = g.input_from(q);
        let kv = g.input_from(k);
        let y = attn.forward(&mut g, qv, kv, group, mask);
        g.value(y).as_slice().iter().sum()
    };
    let mut warm_att = 0.0f32;
    for _ in 0..5 {
        warm_att += att_step(&astore, &query, &keys, &mask);
    }
    assert!(warm_att.is_finite());

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let mut measured_att = 0.0f32;
    for _ in 0..10 {
        measured_att += att_step(&astore, &query, &keys, &mask);
    }
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(measured_att.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state attention forward allocated {} times after warm-up",
        after - before
    );

    // Coalesced frontier gathers join the same contract: `gather_rows_from`
    // takes pool-granted storage and copies runs straight in, so a
    // gather-then-forward step is allocation-free once warm. The index list
    // is frontier-shaped (repeats, an ascending run, back-jumps) and small
    // enough to run inline below the parallel dispatch threshold.
    let table = init::uniform(40, 8, -1.0, 1.0, &mut rng);
    let mut idx: Vec<usize> = vec![7, 7, 7, 3, 0, 39, 12];
    idx.extend(20..25);
    let gather_step = |store: &ParamStore, table: &Matrix, idx: &[usize]| -> f32 {
        let mut g = Graph::new(store);
        let rows = g.gather_rows_from(table, idx);
        let y = mlp.forward(&mut g, rows);
        g.value(y).as_slice().iter().sum()
    };
    let mut warm_gather = 0.0f32;
    for _ in 0..5 {
        warm_gather += gather_step(&store, &table, &idx);
    }
    assert!(warm_gather.is_finite());

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let mut measured_gather = 0.0f32;
    for _ in 0..10 {
        measured_gather += gather_step(&store, &table, &idx);
    }
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(measured_gather.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state gather+forward allocated {} times after warm-up",
        after - before
    );

    // The gathered projection's distinct-row count differs from batch to
    // batch. Its row buffers come from the size-classed pool, so a count
    // the warm-up never produced must not mint new storage: warm up on 12
    // distinct rows of 12 slots, then measure batches with 2, 5 and 9
    // distinct rows — a shape-keyed pool would miss on every one.
    let warm_list: Vec<usize> = (20..32).collect();
    let lists: [Vec<usize>; 3] = [
        vec![7, 7, 7, 3, 3, 7, 7, 3, 3, 3, 7, 7],
        vec![0, 39, 0, 12, 5, 5, 39, 12, 0, 5, 39, 0],
        vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3],
    ];
    let proj_step = |store: &ParamStore, table: &Matrix, idx: &[usize]| -> f32 {
        let mut g = Graph::new(store);
        let y = mlp.fc1.forward_gathered(&mut g, table, idx);
        g.value(y).as_slice().iter().sum()
    };
    let mut warm_proj = 0.0f32;
    for _ in 0..5 {
        warm_proj += proj_step(&store, &table, &warm_list);
    }
    assert!(warm_proj.is_finite());

    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let mut measured_proj = 0.0f32;
    for _ in 0..10 {
        for idx in &lists {
            measured_proj += proj_step(&store, &table, idx);
        }
    }
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(measured_proj.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state gathered projection allocated {} times after warm-up",
        after - before
    );

    // A batch row count no warm-up produced, inside warm size classes: the
    // 12-row forward above warmed the 128-, 256- and 64-float classes of
    // its 12×8 input, 12×16 hidden and 12×4 output, and 9, 10 and 11 rows
    // fall in the same classes. A ragged last batch must not allocate.
    let ragged: Vec<Matrix> = [9, 10, 11]
        .iter()
        .map(|&rows| init::uniform(rows, 8, -1.0, 1.0, &mut rng))
        .collect();
    let before = ALLOC_CALLS.load(Ordering::SeqCst);
    let mut measured_ragged = 0.0f32;
    for _ in 0..10 {
        for x in &ragged {
            measured_ragged += step(&store, x);
        }
    }
    let after = ALLOC_CALLS.load(Ordering::SeqCst);
    assert!(measured_ragged.is_finite());
    assert_eq!(
        after - before,
        0,
        "a row count inside a warm size class allocated {} times",
        after - before
    );
}
