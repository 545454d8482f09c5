//! Cross-process bit-identity of the anonymized-walk features.
//!
//! `position_counts` used to return a `HashMap`, so anything draining it —
//! the CAWN/NeurTW feature assembly — saw a `RandomState`-dependent order
//! that differed *between processes* even with identical seeds. The
//! `no-hashmap-iteration-in-numeric-path` audit rule now bans that, and
//! `position_counts` emits sorted keys via `BTreeMap`. This regression test
//! proves the property the fix restores: separate processes (fresh
//! `RandomState` each, via `benchtemp_util::child`) hash the drained
//! feature stream to the same bits.

use std::collections::BTreeMap;

use benchtemp_core::pipeline::StreamContext;
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_graph::neighbors::{NeighborFinder, SamplingStrategy};
use benchtemp_graph::paged::NeighborBackend;
use benchtemp_models::walks::{anonymize, position_counts, sample_walks};
use benchtemp_tensor::init;
use benchtemp_util::child::{self, Fnv1a};

/// The walk-feature pipeline a CAWN-style model runs per candidate edge,
/// with the count maps drained in their iteration order — exactly the
/// surface the HashMap bug corrupted.
fn walk_feature_digest() -> u64 {
    let g = GeneratorConfig::small("walkdet", 29).generate();
    let nf = NeighborFinder::from_events(g.num_nodes, &g.events);
    let ctx = StreamContext {
        graph: &g,
        neighbors: NeighborBackend::Resident(&nf),
    };
    let mut rng = init::rng(5);
    let mut h = Fnv1a::new();
    for ev in &g.events[g.num_events() - 50..] {
        let wu = sample_walks(
            &ctx,
            ev.src,
            ev.t,
            4,
            2,
            SamplingStrategy::Uniform,
            &mut rng,
        );
        let wv = sample_walks(
            &ctx,
            ev.dst,
            ev.t,
            4,
            2,
            SamplingStrategy::Uniform,
            &mut rng,
        );
        let cu: BTreeMap<usize, Vec<f32>> = position_counts(&wu);
        let cv = position_counts(&wv);
        // Drain in iteration order: sorted by construction after the fix.
        for (node, hits) in cu.iter().chain(cv.iter()) {
            h.write_u64(*node as u64);
            for &hit in hits {
                h.write_f32(hit);
            }
            for f in anonymize(*node, &cu, &cv, 2, 4) {
                h.write_f32(f);
            }
        }
    }
    h.finish()
}

/// Child-process worker; a no-op unless spawned by the driver below.
#[test]
fn walk_child_worker() {
    if child::is_child() {
        child::report(format!("{:016x}", walk_feature_digest()));
    }
}

/// Three fresh processes — three fresh `RandomState`s — one bit pattern.
#[test]
fn walk_features_bit_identical_across_processes() {
    let payload = child::assert_bit_identical(&["walk_child_worker", "--exact", "--nocapture"]);
    // And the in-process digest agrees too: the order is a property of the
    // data, not of the process.
    assert_eq!(payload, format!("{:016x}", walk_feature_digest()));
}
