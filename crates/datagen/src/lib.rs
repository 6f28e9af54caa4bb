//! # mrpa-datagen — synthetic workloads for the mrpa family
//!
//! The paper evaluates no proprietary dataset; every experiment in this
//! repository runs on synthetic multi-relational graphs generated here. The
//! crate provides:
//!
//! * [`generators`] — labeled Erdős–Rényi, preferential attachment,
//!   stochastic block model, and deterministic shapes (chains, cycles, grids,
//!   complete graphs, layered DAGs);
//! * [`social`] — property-graph workloads (social/software graph, citation
//!   network) for the traversal engine;
//! * [`io`] — edge-list serialization;
//! * [`ingest`] — bulk loading of generated graphs into the engine's
//!   property store through its WAL fast path;
//! * [`workload`] — benchmark inputs (vertex/label samples, random regexes,
//!   the standard engine query mix);
//! * [`random`] — seeded ChaCha8 RNG helpers so every workload is exactly
//!   reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod error;
pub mod generators;
pub mod ingest;
pub mod io;
pub mod random;
pub mod social;
pub mod workload;

pub use error::DatagenError;
pub use generators::{
    chain, complete, cycle, erdos_renyi, erdos_renyi_with_edges, grid, layered_dag,
    preferential_attachment, stochastic_block_model, BaConfig, ErConfig, SbmConfig,
};
pub use ingest::{ingest_multigraph, ingest_named};
pub use io::{read_edge_list, write_edge_list};
pub use social::{citation_graph, social_graph, CitationConfig, SocialConfig};
pub use workload::{
    engine_query_mix, label_step_workload, random_regex, sample_labels, sample_vertex_fraction,
    sample_vertices, EngineQuerySpec,
};
