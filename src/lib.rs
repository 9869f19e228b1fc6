//! # PeerTrust
//!
//! A complete Rust implementation of **PeerTrust** — *"Automated Trust
//! Negotiation for Peers on the Semantic Web"* (Nejdl, Olmedilla, Winslett,
//! 2004): a policy language based on distributed logic programs plus a
//! run-time system that negotiates trust between strangers by iterative,
//! bilateral disclosure of digital credentials.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — terms, literals with authority chains, contexts
//!   (release policies), rules, knowledge bases, unification.
//! * [`parser`] — the PeerTrust concrete syntax.
//! * [`crypto`] — simulated PKI (SHA-256/HMAC signatures, key registry,
//!   credentials, revocation).
//! * [`engine`] — SLD resolution and forward-chaining inference.
//! * [`net`] — simulated peer-to-peer message substrate.
//! * [`negotiation`] — the trust-negotiation runtime: strategies, release
//!   policy enforcement, UniPro policy protection, delegation.
//! * [`rdf`] — the Edutella-style RDF metadata substrate (N-Triples,
//!   triple store, KB mapping).
//! * [`scenarios`] — the paper's worked scenarios and synthetic workload
//!   generators.
//! * [`telemetry`] — zero-dependency event stream, per-peer metrics, and
//!   per-negotiation causal traces with Chrome trace export (see README
//!   "Observability").
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for a complete negotiation between Alice and
//! E-Learn, built from the exact policies in the paper's Section 4.1.

pub use peertrust_core as core;
pub use peertrust_crypto as crypto;
pub use peertrust_engine as engine;
pub use peertrust_negotiation as negotiation;
pub use peertrust_net as net;
pub use peertrust_parser as parser;
pub use peertrust_rdf as rdf;
pub use peertrust_scenarios as scenarios;
pub use peertrust_telemetry as telemetry;

/// One-stop prelude for applications.
pub mod prelude {
    pub use peertrust_core::prelude::*;
}
