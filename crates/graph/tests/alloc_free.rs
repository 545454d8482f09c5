//! Zero-allocation contract of the sampling fast paths on both backends:
//! after warm-up (scratch and output buffers grown to the largest history /
//! `k` seen, and every page of the paged store cached), `sample_into` and
//! `sample_one` must perform no heap allocations at all.
//!
//! Verified with a counting global allocator. This file holds exactly one
//! test so no sibling test thread can allocate concurrently and pollute the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::neighbors::{NeighborFinder, SampleScratch, SamplingStrategy};
use benchtemp_graph::paged::{NeighborBackend, PagedNeighborFinder, StoreOptions};
use benchtemp_tensor::init;

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

const STRATEGIES: [SamplingStrategy; 4] = [
    SamplingStrategy::MostRecent,
    SamplingStrategy::Uniform,
    SamplingStrategy::TemporalExp { alpha: 0.1 },
    SamplingStrategy::TemporalSafe,
];

#[test]
fn sample_paths_are_allocation_free_after_warmup() {
    let mut cfg = GeneratorConfig::small("alloc", 7);
    cfg.num_edges = 4000;
    let g = cfg.generate();
    let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
    // A cache budget that holds the whole store, so the measured sweep
    // hits only cached pages.
    let dir = std::env::temp_dir().join(format!("benchtemp-alloc-free-{}", std::process::id()));
    let opts = StoreOptions {
        cache_budget_bytes: Some(16 << 20),
        ..StoreOptions::default()
    };
    let pf = PagedNeighborFinder::bulk_load_graph(&dir, &g, &opts).unwrap();
    let queries: Vec<(usize, f64)> = (0..200)
        .map(|i| (i % g.num_nodes, 10.0 + 7.0 * i as f64))
        .collect();
    let k = 8;

    let sweep = |nb: NeighborBackend<'_>,
                 rng: &mut benchtemp_tensor::init::SeededRng,
                 scratch: &mut SampleScratch,
                 out: &mut Vec<_>| {
        let mut picked = 0usize;
        for &(node, t) in &queries {
            for strategy in STRATEGIES {
                nb.sample_into(node, t, k, strategy, rng, scratch, out);
                picked += out.len();
                if nb.sample_one(node, t, strategy, rng, scratch).is_some() {
                    picked += 1;
                }
            }
        }
        picked
    };

    for (name, nb) in [
        ("resident", NeighborBackend::Resident(&nf)),
        ("paged", NeighborBackend::Paged(&pf)),
    ] {
        let mut rng = init::rng(3);
        let mut scratch = SampleScratch::new();
        let mut out = Vec::new();
        // Warm-up pass grows the scratch/output buffers to their steady
        // state (and pages the store in).
        let warm = sweep(nb, &mut rng, &mut scratch, &mut out);
        assert!(
            warm > 0,
            "{name}: warm-up sampled nothing; workload is degenerate"
        );

        let before = ALLOC_CALLS.load(Ordering::SeqCst);
        let measured = sweep(nb, &mut rng, &mut scratch, &mut out);
        let after = ALLOC_CALLS.load(Ordering::SeqCst);
        assert!(measured > 0);
        assert_eq!(
            after - before,
            0,
            "{name}: sample_into/sample_one allocated {} times after warm-up",
            after - before
        );
    }
    drop(pf);
    std::fs::remove_dir_all(&dir).ok();
}
