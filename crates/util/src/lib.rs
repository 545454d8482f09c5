//! # benchtemp-util
//!
//! Dependency-free utilities shared across the workspace:
//!
//! - [`mod@json`]: a small JSON value tree with a pretty writer, a strict
//!   parser, and a [`json!`] construction macro — enough to persist result
//!   artifacts (leaderboards, dataset metadata, bench reports) on a build
//!   host with no crate registry access, where `serde`/`serde_json` cannot
//!   even be resolved.
//! - [`child`]: the cross-process determinism harness (re-exec the current
//!   binary at 1 thread, 4 threads, and 4 threads with the sanitizer armed;
//!   compare the payloads) and the workspace's one FNV-1a digest.
//! - [`mod@env`]: the typed `BENCHTEMP_*` knobs and their one reader.

pub mod child;
pub mod env;
pub mod json;

pub use child::Fnv1a;
pub use json::{parse, Json, JsonError, ToJson};
