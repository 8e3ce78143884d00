//! # cpd — *From Community Detection to Community Profiling*
//!
//! Umbrella crate for the full reproduction of Cai, Zheng, Zhu, Chang &
//! Huang (PVLDB 10(6), 2017): the CPD joint model, every substrate it
//! needs, the evaluation baselines and the experiment harness.
//!
//! The sub-crates are re-exported under short names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `cpd-core` | the CPD model, inference, applications |
//! | [`serve`] | `cpd-serve` | online serving: profile index, fold-in, query runtime, wire codec |
//! | [`server`] | `cpd-server` | TCP server + client for the serving runtime, hot-reload over the wire |
//! | [`telemetry`] | `cpd-telemetry` | lock-free metrics registry, latency histograms, Prometheus text |
//! | [`social_graph`] | `social-graph` | users, documents, links (Def. 1) |
//! | [`text_pipeline`] | `text-pipeline` | tokeniser, stemmer, vocabulary |
//! | [`topic_model`] | `topic-model` | collapsed-Gibbs LDA |
//! | [`polya_gamma`] | `polya-gamma` | exact `PG(b, z)` sampling |
//! | [`prob`] | `cpd-prob` | distributions and special functions |
//! | [`datagen`] | `cpd-datagen` | synthetic Twitter-/DBLP-like data |
//! | [`eval`] | `cpd-eval` | conductance, AUC, MAF@K, perplexity, NMI |
//! | [`baselines`] | `cpd-baselines` | PMTLM, WTM, CRM, COLD, +Agg |
//!
//! See `examples/quickstart.rs` for a five-minute tour; the table above
//! is the paper-to-code map, and each crate's module docs cite the
//! equations and sections it implements.

/// Deterministic fault injection (torn streams, chaos proxy, seeded
/// failpoints) — compiled in only with the off-by-default `chaos`
/// feature; the test suites depend on `cpd-chaos` directly.
#[cfg(feature = "chaos")]
pub use cpd_chaos as chaos;

pub use cpd_baselines as baselines;
pub use cpd_core as core;
pub use cpd_datagen as datagen;
pub use cpd_eval as eval;
pub use cpd_prob as prob;
pub use cpd_serve as serve;
pub use cpd_server as server;
pub use cpd_telemetry as telemetry;
pub use polya_gamma;
pub use social_graph;
pub use text_pipeline;
pub use topic_model;

/// The common imports for working with CPD.
pub mod prelude {
    pub use cpd_baselines::{DiffusionScorer, FriendshipScorer, Memberships};
    pub use cpd_core::{
        rank_communities, Cpd, CpdConfig, CpdModel, DiffusionPredictor, Eta, UserFeatures,
    };
    pub use cpd_datagen::{generate, GenConfig, Scale};
    pub use cpd_serve::{
        BatchItem, FaultHook, FoldIn, FoldInConfig, FoldInItem, HealthState, HealthStatus,
        IndexHandle, KeepReason, ProfileIndex, QueryRequest, QueryResponse, Registry,
        ServeDiagnostics, ServeOptions, ServeRuntime, Trace, TraceConfig, TraceContext, Tracer,
    };
    pub use cpd_server::{Client, ClientOptions, RetryPolicy, Server, ServerOptions};
    pub use social_graph::{DocId, Document, SocialGraph, SocialGraphBuilder, UserId, WordId};
    pub use text_pipeline::{Pipeline, PipelineConfig, RawDocument};
}
