//! Synthetic social-graph generators.
//!
//! The paper evaluates on a 2011 Twitter crawl and on DBLP — neither is
//! redistributable, so this crate *plants* the statistical structure the
//! evaluation depends on:
//!
//! * homophilous friendship links (dense within planted communities),
//! * per-community topic profiles generating short documents with
//!   Zipf-distributed words,
//! * diffusion links drawn from a planted `η*` tensor that includes
//!   **strong inter-community pairs** (the "weak ties" effect the paper
//!   argues distinguishes diffusion from friendship),
//! * nonconformity: a fraction of diffusions driven by individual
//!   celebrity preference or by topic trendiness rather than community
//!   structure,
//! * timestamps with per-topic popularity peaks.
//!
//! Because the structure is planted, downstream experiments can check
//! *recovery* (NMI against the true communities, correlation against the
//! true `η*`) — a validation the original paper could not run.

pub mod config;
pub mod generate;
pub mod truth;

pub use config::{GenConfig, Scale};
pub use generate::generate;
pub use truth::GroundTruth;
