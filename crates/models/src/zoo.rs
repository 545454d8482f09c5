//! Model registry: build any benchmarked model by name — what the table
//! harnesses and the leaderboard iterate over.

use benchtemp_core::pipeline::TgnnModel;
use benchtemp_graph::temporal_graph::TemporalGraph;

use crate::common::ModelConfig;
use crate::edgebank::EdgeBank;
use crate::nat::Nat;
use crate::temp_model::Temp;
use crate::tgat::Tgat;
use crate::tgn_family::TgnFamily;
use crate::walk_models::WalkModel;

/// The seven models of the main-paper comparison, in Table 1 order.
pub const PAPER_MODELS: [&str; 7] = ["JODIE", "DyRep", "TGN", "TGAT", "CAWN", "NeurTW", "NAT"];

/// All constructible models: the paper seven, TeMP, the EdgeBank baseline
/// and the NeurTW NODE-ablation variant.
pub const ALL_MODELS: [&str; 10] = [
    "JODIE",
    "DyRep",
    "TGN",
    "TGAT",
    "CAWN",
    "NeurTW",
    "NAT",
    "TeMP",
    "EdgeBank",
    "NeurTW-noNODE",
];

/// Build a model by its paper name. Panics on unknown names (the harnesses
/// validate against [`ALL_MODELS`] first).
pub fn build(name: &str, cfg: ModelConfig, graph: &TemporalGraph) -> Box<dyn TgnnModel> {
    match name {
        "JODIE" => Box::new(TgnFamily::jodie(cfg, graph)),
        "DyRep" => Box::new(TgnFamily::dyrep(cfg, graph)),
        "TGN" => Box::new(TgnFamily::tgn(cfg, graph)),
        "TGAT" => Box::new(Tgat::new(cfg, graph)),
        "CAWN" => Box::new(WalkModel::cawn(cfg, graph)),
        "NeurTW" => Box::new(WalkModel::neurtw(cfg, graph)),
        "NeurTW-noNODE" => Box::new(WalkModel::neurtw_without_nodes(cfg, graph)),
        "NAT" => Box::new(Nat::new(cfg, graph)),
        "TeMP" => Box::new(Temp::new(cfg, graph)),
        "EdgeBank" => Box::new(EdgeBank::unlimited()),
        other => panic!("unknown model {other:?}; known: {ALL_MODELS:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchtemp_graph::generators::GeneratorConfig;

    #[test]
    fn every_registered_model_constructs_and_reports_name() {
        let g = GeneratorConfig::small("zoo", 111).generate();
        for name in ALL_MODELS {
            let m = build(
                name,
                ModelConfig {
                    embed_dim: 16,
                    ..Default::default()
                },
                &g,
            );
            assert_eq!(m.name(), name);
            let a = m.anatomy();
            // Table 1 spot checks.
            match name {
                "TGN" | "JODIE" | "NAT" | "TeMP" | "EdgeBank" => assert!(a.memory),
                "TGAT" | "CAWN" | "NeurTW" => assert!(!a.memory),
                _ => {}
            }
        }
    }

    #[test]
    fn paper_models_are_a_subset() {
        for m in PAPER_MODELS {
            assert!(ALL_MODELS.contains(&m));
        }
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_name_panics() {
        let g = GeneratorConfig::small("zoo2", 112).generate();
        let _ = build("GPT-TGNN", ModelConfig::default(), &g);
    }

    #[test]
    fn walk_models_flag_temp_walk_in_anatomy() {
        let g = GeneratorConfig::small("zoo3", 113).generate();
        for name in ["CAWN", "NeurTW"] {
            let m = build(name, ModelConfig::default(), &g);
            assert!(m.anatomy().temp_walk, "{name} must flag TempWalk (Table 1)");
        }
        for name in ["TGN", "TGAT", "NAT"] {
            let m = build(name, ModelConfig::default(), &g);
            assert!(!m.anatomy().temp_walk);
        }
    }
}
