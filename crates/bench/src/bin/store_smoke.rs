//! CI smoke check for the paged temporal store (DESIGN.md §15).
//!
//! Bulk-loads a generated benchmark preset whose paged adjacency is
//! several times the configured page-cache budget, trains a real
//! link-prediction job through the paged backend, and fails unless
//!
//! * every eval metric is bit-identical to the same job trained on the
//!   fully resident CSR backend (same seed, same RNG streams),
//! * the page cache actually evicted during training (the budget bound
//!   was exercised, not merely configured),
//! * the cache's resident bytes never exceeded the budget, and
//! * peak RSS was recorded for the paged run (graceful `None` is only
//!   acceptable off Linux).
//!
//! Prints `STORE_SMOKE_OK` on success so `ci.sh` can grep for it.

use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::pipeline::{train_link_prediction, PagedStoreConfig, TrainConfig};
use benchtemp_graph::datasets::{resident_bytes_report, BenchDataset};
use benchtemp_models::common::ModelConfig;
use benchtemp_models::zoo;
use benchtemp_obs::counters::{STORE_CACHE_RESIDENT_BYTES, STORE_PAGE_EVICTIONS};

const CACHE_BUDGET: usize = 32 * 1024;

fn main() {
    // Capacity-planning table: which presets would exceed a given cache
    // budget when run resident (satellite of DESIGN.md §15).
    print!("{}", resident_bytes_report(0.05));

    // Wikipedia at 2% scale: ~3.1k events → ~6.3k adjacency entries × 16 B
    // ≈ 98 KiB of paged columns in the full-graph store — 3× the 32 KiB
    // budget (four 8 KiB frames), so training must stream pages in and out
    // the whole way. Edge features stay resident in the graph.
    let ds = BenchDataset::Wikipedia;
    let graph = ds.config(0.02, 7).generate();
    println!(
        "store_smoke: {} at 0.02 scale, {} events, estimated resident {:.2} MiB, \
         cache budget {:.0} KiB",
        ds.name(),
        graph.num_events(),
        ds.resident_bytes_estimate(0.02) as f64 / (1 << 20) as f64,
        CACHE_BUDGET as f64 / 1024.0
    );
    let split = LinkPredSplit::new(&graph, 11);
    let model_cfg = ModelConfig {
        embed_dim: 16,
        time_dim: 8,
        neighbors: 5,
        layers: 1,
        seed: 11,
        ..Default::default()
    };
    let cfg = TrainConfig {
        max_epochs: 2,
        seed: 11,
        ..TrainConfig::default()
    };

    let mut resident_model = zoo::build("TGN", model_cfg.clone(), &graph);
    let resident = train_link_prediction(resident_model.as_mut(), &graph, &split, &cfg);

    let paged_cfg = TrainConfig {
        paged_store: Some(PagedStoreConfig {
            dir: None,
            cache_budget_bytes: Some(CACHE_BUDGET),
        }),
        ..cfg
    };
    let ev0 = STORE_PAGE_EVICTIONS.get();
    let mut paged_model = zoo::build("TGN", model_cfg, &graph);
    let paged = train_link_prediction(paged_model.as_mut(), &graph, &split, &paged_cfg);
    let evictions = STORE_PAGE_EVICTIONS.get() - ev0;

    for (name, r, p) in [
        ("transductive", &resident.transductive, &paged.transductive),
        ("inductive", &resident.inductive, &paged.inductive),
        ("new_old", &resident.new_old, &paged.new_old),
        ("new_new", &resident.new_new, &paged.new_new),
    ] {
        assert_eq!(
            (r.auc.to_bits(), r.ap.to_bits()),
            (p.auc.to_bits(), p.ap.to_bits()),
            "{name}: paged training must be bit-identical to resident"
        );
    }
    assert!(
        evictions > 0,
        "no evictions: the {CACHE_BUDGET}-byte budget was never exercised"
    );
    let max_cache = STORE_CACHE_RESIDENT_BYTES.get();
    assert!(
        max_cache <= CACHE_BUDGET as u64,
        "cache resident bytes {max_cache} exceeded the {CACHE_BUDGET}-byte budget"
    );
    match paged.efficiency.peak_rss_bytes {
        Some(rss) => println!(
            "paged run: peak RSS {:.1} MiB, {} evictions, cache high-water {} bytes",
            rss as f64 / (1 << 20) as f64,
            evictions,
            max_cache
        ),
        None => {
            if cfg!(target_os = "linux") {
                panic!("peak_rss_bytes must be recorded on Linux");
            }
        }
    }
    println!(
        "paged == resident: transductive auc bits {:016x}",
        paged.transductive.auc.to_bits()
    );
    println!("STORE_SMOKE_OK");
}
