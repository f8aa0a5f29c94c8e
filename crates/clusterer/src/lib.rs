//! # qb-clusterer
//!
//! The QB5000 **Clusterer** (§5): groups query templates whose arrival-rate
//! histories follow the same temporal pattern, so the Forecaster trains one
//! model per *cluster* instead of one per template.
//!
//! Components:
//!
//! * [`FeatureSampler`] — turns a template's arrival history into a feature
//!   vector by sampling its counts at randomly chosen timestamps in a
//!   trailing window (§5.1); a [`TemplateFeature`] stores the vector as
//!   its zero lead and the suffix after it, the history the template has;
//! * [`OnlineClusterer`] — the modified-DBSCAN online algorithm: assign new
//!   templates to the closest center, found by one scan over the centers,
//!   if its similarity exceeds the threshold ρ; re-check existing
//!   memberships, merge near-identical clusters, evict silent templates,
//!   and trigger early re-clustering when the share of unseen templates
//!   spikes (§5.2);
//! * cluster pruning — only the top-k highest-volume clusters are handed to
//!   the Forecaster (§5.3).
//!
//! Template identity is an opaque `u64` key so the crate stays independent
//! of the Pre-Processor; `qb5000` wires the two together.

#![forbid(unsafe_code)]

pub mod feature;
mod merge;
pub mod online;

pub use feature::{FeatureSampler, TemplateFeature};
pub use online::{
    Cluster, ClusterId, ClusterRecord, ClustererConfig, ClustererState, OnlineClusterer,
    SimilarityMetric, TemplateKey, TemplateRecord, TemplateSnapshot, UpdateReport, EVICTION_IDLE,
    NEW_TEMPLATE_TRIGGER,
};
