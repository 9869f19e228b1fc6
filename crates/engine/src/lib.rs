//! # peertrust-engine
//!
//! Inference engines for PeerTrust distributed logic programs — the Rust
//! replacement for the MINERVA Prolog meta-interpreters of the 2004
//! prototype (paper §6).
//!
//! * [`sld`] — backward-chaining SLD resolution with certified [`Proof`]
//!   trees, termination guards (depth bound, step budget, ancestor variant
//!   loop check), and a [`RemoteHook`] through which the negotiation layer
//!   routes delegated goals (`lit @ OtherPeer`) over the network.
//! * [`forward`] — bottom-up saturation implementing the local part of the
//!   paper's §3.2 forward-chaining fixpoint semantics; used by the eager
//!   negotiation strategy and for differential testing against SLD.
//! * [`builtins`] — the comparison predicates policies use
//!   (`Price < 2000`, `Requester = Self`).
//! * [`table`] — SLD answer tabling for the definite-Horn fragment,
//!   enabled via [`EngineConfig::tabling`]; memoizes answers (with their
//!   proofs) per goal variant in one sharded [`AnswerTable`], which
//!   successive solvers or solver threads may share behind an `Arc`, so
//!   negotiations stop re-deriving the same subgoals.
//! * [`mod@reference`] — the pre-trail clone-per-branch interpreter, kept as a
//!   differential-testing oracle and in-process benchmark baseline for the
//!   trail-based hot path.
//! * [`compile`] — the WAM-lite policy compiler: a one-shot pass from a
//!   [`peertrust_core::KnowledgeBase`] to a flat bytecode KB
//!   (switch-on-constant clause dispatch, get-instruction head matching,
//!   frame-based standardize-apart), consulted by the solver once a
//!   [`CompiledKb`] is attached with [`Solver::with_compiled`], and
//!   guarded by a KB fingerprint so a stale artifact is never consulted.

pub mod builtins;
pub mod compile;
pub mod explain;
pub mod forward;
pub mod reference;
pub mod sld;
pub mod table;

pub use builtins::{eval_builtin, eval_builtin_in, BuiltinOutcome, BuiltinOutcomeIn};
pub use compile::{CompiledFit, CompiledKb, HeadInstr};
pub use explain::{explain, explain_with_rules, proof_summary};
pub use forward::{saturate, ForwardConfig, Saturation};
pub use reference::RefSolver;
pub use sld::{
    canonical_answer_set, canonicalize, is_variant, EngineConfig, NoRemote, Proof, ProofStep,
    RemoteFallback, RemoteHook, Solution, Solver, Stats,
};
pub use table::{AnswerTable, Disposition, Probe, TableStats, TabledAnswer};
