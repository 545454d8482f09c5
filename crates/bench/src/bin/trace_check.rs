//! CI smoke check for the JSONL trace stream (DESIGN.md §9).
//!
//! Run with `BENCHTEMP_TRACE=/path/to/trace.jsonl`: trains a tiny TGN
//! link-prediction job with the env-driven sink live, then re-reads the
//! stream and fails unless
//!
//! * every line parses as JSON with a known `ev` kind,
//! * every span open has a matching close (paired by `tid`+`sid`),
//! * all protocol stages appear, including the nested model-level
//!   `dense`/`sampling` spans, and
//! * a final counters snapshot was emitted.
//!
//! Exits non-zero with a message on any violation; prints `TRACE_CHECK_OK`
//! on success so `ci.sh` can grep for it.

use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

use benchtemp_core::dataloader::LinkPredSplit;
use benchtemp_core::efficiency::stage;
use benchtemp_core::pipeline::{train_link_prediction, TrainConfig};
use benchtemp_core::NegativeStrategy;
use benchtemp_graph::generators::GeneratorConfig;
use benchtemp_models::common::ModelConfig;
use benchtemp_models::zoo;
use benchtemp_util::env::{self, Knob};
use benchtemp_util::json;

fn main() {
    let path = env::var(Knob::Trace).unwrap_or_else(|| {
        eprintln!("trace_check: set BENCHTEMP_TRACE=<path> before running");
        std::process::exit(2);
    });

    // A tiny but real job: TGN exercises the sampler, the tape, and the
    // pool, so the trace covers every span source in the pipeline.
    let mut gen = GeneratorConfig::small("trace-check", 2024);
    gen.num_edges = 800;
    let graph = gen.generate();
    let split = LinkPredSplit::new(&graph, 13);
    let model_cfg = ModelConfig {
        embed_dim: 16,
        time_dim: 8,
        neighbors: 3,
        layers: 1,
        seed: 13,
        ..Default::default()
    };
    let mut model = zoo::build("TGN", model_cfg, &graph);
    let cfg = TrainConfig {
        batch_size: 200,
        max_epochs: 2,
        patience: 10,
        tolerance: 1e-9,
        timeout: Duration::from_secs(600),
        seed: 13,
        neg_strategy: NegativeStrategy::Random,
        rank_negatives: 0,
        paged_store: None,
    };
    let run = train_link_prediction(model.as_mut(), &graph, &split, &cfg);
    assert!(run.transductive.n_edges > 0, "smoke job scored no edges");
    benchtemp_obs::trace::flush();

    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("trace_check: cannot read {path}: {e}"));
    assert!(!text.is_empty(), "trace file {path} is empty");

    let mut open: BTreeMap<(u64, u64), String> = BTreeMap::new();
    let mut spans_seen: HashSet<String> = HashSet::new();
    let mut counters_seen = false;
    let mut events = 0usize;
    for line in text.lines() {
        let ev =
            json::parse(line).unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e:?}"));
        events += 1;
        let key = || {
            (
                ev.get("tid").and_then(|v| v.as_u64()).expect("tid"),
                ev.get("sid").and_then(|v| v.as_u64()).expect("sid"),
            )
        };
        match ev.get("ev").and_then(|v| v.as_str()) {
            Some("open") => {
                let span = ev.get("span").unwrap().as_str().unwrap().to_string();
                spans_seen.insert(span.clone());
                assert!(
                    open.insert(key(), span).is_none(),
                    "duplicate span open in {line:?}"
                );
            }
            Some("close") => {
                assert!(ev.get("dur_us").and_then(|v| v.as_u64()).is_some());
                assert!(
                    open.remove(&key()).is_some(),
                    "close without matching open in {line:?}"
                );
            }
            Some("counters") => {
                counters_seen = true;
                assert!(
                    ev.get("negatives_sampled")
                        .and_then(|v| v.as_u64())
                        .is_some(),
                    "counters event missing negatives_sampled: {line:?}"
                );
            }
            other => panic!("unknown trace event kind {other:?} in {line:?}"),
        }
    }
    assert!(
        open.is_empty(),
        "unclosed spans in trace: {:?}",
        open.values().collect::<Vec<_>>()
    );
    assert!(counters_seen, "no counters snapshot in trace");
    for required in [
        stage::SETUP,
        stage::TRAIN_EPOCH,
        stage::VAL_SCORING,
        stage::TEST_SCORING,
        stage::FINAL_METRICS,
        stage::DENSE,
        stage::SAMPLING,
    ] {
        assert!(
            spans_seen.contains(required),
            "required stage {required:?} missing from trace (saw {spans_seen:?})"
        );
    }

    println!(
        "TRACE_CHECK_OK: {events} events, {} distinct spans",
        spans_seen.len()
    );
}
