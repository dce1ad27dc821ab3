//! The lightweight formal methods validation stack (§3–§6 of the paper).
//!
//! This crate is the paper's contribution rendered as a library:
//!
//! - [`ops`] / [`gen`] — operation alphabets and biased proptest
//!   strategies (§4.1, §4.2);
//! - [`conformance`] — sequential crash-free refinement checking against
//!   the reference model, with the §4.4 failure-injection relaxation;
//!   home of the one `KvOp` interpreter every store-level checker shares;
//! - [`crash`] — crash-consistency checking (persistence + forward
//!   progress, coarse and block-level crash states, §5);
//! - [`fault_sweep`] — deterministic sweeps over enumerated fault
//!   schedules, with acknowledged-durability and trace oracles (§4.4);
//! - [`index_conformance`] — the Fig. 3 `IndexOp` harness: the LSM index
//!   alone against the index model;
//! - [`node_conformance`] — the multi-disk control plane against the KV
//!   model; home of the one `NodeOp` checker;
//! - [`node_rpc`] — linearizability of the node API through the request
//!   engine, under the stateless model checker (§6);
//! - [`simulate`] — the checkers as worlds of the deterministic
//!   simulator (schedules of faults, crashes, ticks, drops and delays);
//! - [`swarm`] — batches of simulator seeds with auto-minimization;
//! - [`lin`] — a linearizability checker for concurrent histories against
//!   a sequential specification (§6);
//! - [`concurrent`] — stateless-model-checking harnesses for the
//!   concurrency issues of Fig. 5 (the Fig. 4 harness among them);
//! - [`minimize`] — standalone test-case minimization (§4.3);
//! - [`detect`] — the Fig. 5 driver: seed a historical bug, run the
//!   matching checker, report detection.

pub mod concurrent;
pub mod conformance;
pub mod crash;
pub mod detect;
pub mod fault_sweep;
pub mod gen;
pub mod index_conformance;
pub mod lin;
pub mod node_conformance;
pub mod node_rpc;
pub mod minimize;
pub mod ops;
pub mod simulate;
pub mod swarm;

pub use conformance::{run_conformance, ConformanceConfig, Divergence, RunReport};
pub use crash::run_crash_consistency;
