//! # benchtemp-models
//!
//! The TGNN model zoo of the BenchTemp reproduction: JODIE, DyRep, TGN,
//! TGAT, CAWN, NeurTW, NAT, the authors' TeMP, and the EdgeBank baseline —
//! all implementing [`benchtemp_core::TgnnModel`] on the shared autograd
//! substrate.

pub mod common;
pub mod edgebank;
pub mod nat;
pub mod temp_model;
pub mod tgat;
pub mod tgn_family;
pub mod walk_models;
pub mod walks;
pub mod zoo;

pub use common::ModelConfig;
pub use edgebank::{EdgeBank, EdgeBankVariant};
pub use nat::Nat;
pub use temp_model::Temp;
pub use tgat::Tgat;
pub use tgn_family::{TgnFamily, TgnVariant};
pub use walk_models::{WalkKind, WalkModel};
pub use zoo::{build, ALL_MODELS, PAPER_MODELS};
