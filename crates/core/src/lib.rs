//! # privpath-core — the mechanisms of Sealfon (PODS 2016)
//!
//! Implements every algorithm, lower bound, and baseline of *Shortest Paths
//! and Distances with Differential Privacy* in the private edge-weight
//! model: the topology `G = (V, E)` is public, the weight function
//! `w : E -> R+` is the database, and two weight functions are neighbors
//! when `||w - w'||_1 <= 1` (see [`model`]).
//!
//! | Paper | Module |
//! |---|---|
//! | Algorithm 3 + Theorem 5.5 / Corollary 5.6 (private shortest paths) | [`shortest_path`] |
//! | Algorithm 1 + Theorems 4.1–4.2 (tree distances) | [`tree_distance`] |
//! | Appendix A (path-graph hub hierarchy) + DNPR10 dyadic mechanism | [`path_graph`] |
//! | Algorithm 2 + Theorems 4.3/4.5/4.6/4.7 (bounded-weight distances) | [`bounded`] |
//! | Appendix B.1 (private almost-minimum spanning tree) | [`mst`] |
//! | Appendix B.2 (private low-weight perfect matching) | [`matching`] |
//! | Section 5.1, Theorems 5.1/B.1/B.4 (reconstruction attacks) | [`attack`] |
//! | Section 4 intro baselines (composition, synthetic graph) | [`baselines`] |
//! | Closed-form theorem bounds | [`bounds`] |
//! | Error statistics for experiments | [`experiment`] |
//! | Extension: heavy-path tree mechanism (ablation of Algorithm 1) | [`tree_hld`] |
//! | Extension: reusable noisy dyadic series | [`series`] |
//! | Extension: CNX-style hierarchical shortcut APSP (related work) | [`shortcut`] |
//! | Extension: public coordinate model for road networks | [`geo`] |
//!
//! Every mechanism comes in two flavours: a `*_with` function generic over
//! [`privpath_dp::NoiseSource`] (so tests can run it with zero or recorded
//! noise) and a convenience wrapper drawing from a [`rand::Rng`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod baselines;
pub mod bounded;
pub mod bounds;
mod error;
pub mod experiment;
pub mod geo;
pub mod matching;
pub mod model;
pub mod mst;
pub mod path_graph;
pub mod series;
pub mod shortcut;
pub mod shortest_path;
pub mod tree_distance;
pub mod tree_hld;

pub use error::CoreError;
