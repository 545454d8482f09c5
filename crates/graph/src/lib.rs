//! # benchtemp-graph
//!
//! Temporal-graph substrate for the BenchTemp reproduction: the interaction
//! stream abstraction (§3.1), node reindexing (Fig. 3), node-feature
//! initialization, the time-indexed neighbor finder every sampling-based
//! TGNN queries, synthetic benchmark-dataset generators matched to Table 2 /
//! Table 16 statistics, and dataset statistics/temporal histograms (Fig. 5).

pub mod datasets;
pub mod features;
pub mod generators;
pub mod io;
pub mod neighbors;
pub mod paged;
pub mod reindex;
pub mod stats;
pub mod temporal_graph;

pub use datasets::BenchDataset;
pub use features::FeatureInit;
pub use generators::GeneratorConfig;
pub use neighbors::{
    frontier_stream_seed, Frontier, FrontierHop, NeighborEvent, NeighborFinder, NeighborSlice,
    SampleScratch, SamplingStrategy,
};
pub use paged::{NeighborBackend, OwnedNeighborBackend, PagedNeighborFinder};
pub use stats::DatasetStats;
pub use temporal_graph::{EventLabels, Interaction, TemporalGraph};
