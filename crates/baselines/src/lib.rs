//! Baselines of the CPD evaluation (Sect. 6.1).
//!
//! Reimplementations of the four published baselines, scoped to the role
//! they play in the paper's comparisons (the simplifications relative to
//! the original systems are documented in each module's own docs):
//!
//! * [`pmtlm`] — Poisson Mixed-Topic Link Model (Zhu et al., KDD'13):
//!   document topics generate links; adapted to community detection by
//!   aggregating per-user topic mixtures.
//! * [`wtm`] — Whom-To-Mention (Wang et al., WWW'13): feature-based
//!   diffusion prediction from content similarity + social features; no
//!   communities.
//! * [`crm`] — Community Role Model (Han & Tang, KDD'15): communities +
//!   binary roles generate friendship and diffusion links; no topics.
//! * [`cold`] — COmmunity Level Diffusion (Hu et al., SIGMOD'15):
//!   communities generate content and diffusion links; no friendship
//!   modelling, no individual/topic-popularity factors. Realised as the
//!   corresponding restriction of the CPD machinery — COLD's generative
//!   core is exactly that subset.
//! * [`aggregation`] — the "first detect, then aggregate" profilers
//!   `CRM+Agg` / `COLD+Agg` (Eqs. 20–21 of the paper).
//!
//! Every method implements the uniform scoring traits in [`traits`] so
//! the experiment harness can sweep methods generically; [`cpd_adapter`]
//! wraps a fitted CPD model in the same traits.

pub mod aggregation;
pub mod cold;
pub mod cpd_adapter;
pub mod crm;
pub mod logistic;
pub mod pmtlm;
pub mod traits;
pub mod wtm;

pub use aggregation::{aggregate_profiles, AggregatedProfiles};
pub use cold::Cold;
pub use cpd_adapter::CpdMethod;
pub use crm::{Crm, CrmConfig};
pub use pmtlm::{Pmtlm, PmtlmConfig};
pub use traits::{DiffusionScorer, FriendshipScorer, Memberships};
pub use wtm::{Wtm, WtmConfig};
