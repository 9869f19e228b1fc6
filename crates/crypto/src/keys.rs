//! Keys and the trusted key registry — the simulated CA infrastructure.
//!
//! PeerTrust 1.0 used X.509 certificates and the Java Cryptography
//! Architecture (paper §6). We substitute a minimal PKI that preserves the
//! properties the negotiation layer relies on:
//!
//! * an issuer can produce a tag over a rule that nobody else can produce;
//! * any peer can verify a tag *if* it trusts the registry entry for the
//!   issuer (stand-in for a CA-signed certificate chain);
//! * verification fails on any tampering with rule contents or claimed
//!   issuer.
//!
//! Signatures are HMAC-SHA256 with per-issuer secrets. The [`KeyRegistry`]
//! holds issuer secrets and is shared (read-only) by verifying peers,
//! modelling "everyone can check a signature" without implementing
//! asymmetric crypto from scratch; the registry API intentionally only
//! exposes sign/verify, never raw secrets, so the trust boundary matches a
//! real public-key deployment.

use crate::hmac::{verify_tag, HmacKey};
use crate::sha256::Digest;
use parking_lot::RwLock;
use peertrust_core::PeerId;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A signing secret. Deliberately opaque: no `Display`, no getters.
#[derive(Clone)]
pub struct SecretKey(Vec<u8>);

impl SecretKey {
    /// Derive a key from raw bytes (tests) …
    pub fn from_bytes(bytes: &[u8]) -> SecretKey {
        SecretKey(bytes.to_vec())
    }

    /// … or generate one deterministically from an issuer name and a seed
    /// (used by scenario setup so runs are reproducible).
    pub fn derive(issuer: PeerId, seed: u64) -> SecretKey {
        let mut material = issuer.name().as_bytes().to_vec();
        material.extend_from_slice(&seed.to_be_bytes());
        SecretKey(crate::sha256::sha256(&material).to_vec())
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SecretKey(…)")
    }
}

/// Errors from registry operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KeyError {
    /// No key registered for this issuer — the "certificate chain" cannot be
    /// validated.
    UnknownIssuer(PeerId),
    /// The issuer is known but the tag does not verify (tampering or wrong
    /// issuer claim).
    BadSignature(PeerId),
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::UnknownIssuer(p) => write!(f, "unknown issuer {p}"),
            KeyError::BadSignature(p) => write!(f, "signature claimed by {p} does not verify"),
        }
    }
}

impl std::error::Error for KeyError {}

/// The shared trusted key registry (simulated CA).
///
/// Cloning is cheap (`Arc` inside); all clones see the same key set. Each
/// issuer's HMAC key schedule is precomputed once at registration.
#[derive(Clone, Default)]
pub struct KeyRegistry {
    inner: Arc<RwLock<HashMap<PeerId, HmacKey>>>,
}

impl KeyRegistry {
    pub fn new() -> KeyRegistry {
        KeyRegistry::default()
    }

    /// Register (or replace) the key for `issuer`.
    pub fn register(&self, issuer: PeerId, key: SecretKey) {
        self.inner.write().insert(issuer, HmacKey::new(&key.0));
    }

    /// Register a derived key for `issuer`; convenience for scenario setup.
    pub fn register_derived(&self, issuer: PeerId, seed: u64) {
        self.register(issuer, SecretKey::derive(issuer, seed));
    }

    /// Is the issuer known?
    pub fn knows(&self, issuer: PeerId) -> bool {
        self.inner.read().contains_key(&issuer)
    }

    /// Produce the tag `issuer` would attach to `message`.
    pub fn sign(&self, issuer: PeerId, message: &[u8]) -> Result<Digest, KeyError> {
        let guard = self.inner.read();
        let key = guard.get(&issuer).ok_or(KeyError::UnknownIssuer(issuer))?;
        Ok(key.mac(message))
    }

    /// Check that `tag` is `issuer`'s tag over `message`.
    pub fn verify(&self, issuer: PeerId, message: &[u8], tag: &Digest) -> Result<(), KeyError> {
        let expected = self.sign(issuer, message)?;
        if verify_tag(&expected, tag) {
            Ok(())
        } else {
            Err(KeyError::BadSignature(issuer))
        }
    }
}

impl fmt::Debug for KeyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyRegistry({} issuers)", self.inner.read().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hmac::hmac_sha256;

    #[test]
    fn sign_verify_roundtrip() {
        let reg = KeyRegistry::new();
        let uiuc = PeerId::new("UIUC");
        reg.register_derived(uiuc, 42);
        let tag = reg.sign(uiuc, b"student(\"Alice\")").unwrap();
        assert!(reg.verify(uiuc, b"student(\"Alice\")", &tag).is_ok());
    }

    #[test]
    fn tampered_message_rejected() {
        let reg = KeyRegistry::new();
        let uiuc = PeerId::new("UIUC");
        reg.register_derived(uiuc, 42);
        let tag = reg.sign(uiuc, b"student(\"Alice\")").unwrap();
        assert_eq!(
            reg.verify(uiuc, b"student(\"Mallory\")", &tag),
            Err(KeyError::BadSignature(uiuc))
        );
    }

    #[test]
    fn wrong_issuer_rejected() {
        let reg = KeyRegistry::new();
        let uiuc = PeerId::new("UIUC");
        let visa = PeerId::new("VISA");
        reg.register_derived(uiuc, 1);
        reg.register_derived(visa, 2);
        let tag = reg.sign(uiuc, b"m").unwrap();
        assert!(reg.verify(visa, b"m", &tag).is_err());
    }

    #[test]
    fn unknown_issuer_is_distinguished_error() {
        let reg = KeyRegistry::new();
        let ghost = PeerId::new("Ghost CA");
        assert_eq!(
            reg.sign(ghost, b"m").unwrap_err(),
            KeyError::UnknownIssuer(ghost)
        );
        assert_eq!(
            reg.verify(ghost, b"m", &[0u8; 32]).unwrap_err(),
            KeyError::UnknownIssuer(ghost)
        );
    }

    #[test]
    fn reregistering_an_issuer_invalidates_old_tags() {
        let reg = KeyRegistry::new();
        let uiuc = PeerId::new("UIUC");
        reg.register_derived(uiuc, 1);
        let old = reg.sign(uiuc, b"m").unwrap();
        reg.register_derived(uiuc, 2);
        assert_eq!(
            reg.verify(uiuc, b"m", &old),
            Err(KeyError::BadSignature(uiuc))
        );
        let new = reg.sign(uiuc, b"m").unwrap();
        assert_ne!(new, old);
        assert!(reg.verify(uiuc, b"m", &new).is_ok());
        assert_eq!(new, hmac_sha256(&SecretKey::derive(uiuc, 2).0, b"m"));
    }

    #[test]
    fn clones_share_keys() {
        let reg = KeyRegistry::new();
        let reg2 = reg.clone();
        reg.register_derived(PeerId::new("BBB"), 7);
        assert!(reg2.knows(PeerId::new("BBB")));
    }

    #[test]
    fn derived_keys_are_deterministic_and_distinct() {
        let a1 = SecretKey::derive(PeerId::new("A"), 1);
        let a1b = SecretKey::derive(PeerId::new("A"), 1);
        let a2 = SecretKey::derive(PeerId::new("A"), 2);
        let b1 = SecretKey::derive(PeerId::new("B"), 1);
        assert_eq!(hmac_sha256(&a1.0, b"m"), hmac_sha256(&a1b.0, b"m"));
        assert_ne!(hmac_sha256(&a1.0, b"m"), hmac_sha256(&a2.0, b"m"));
        assert_ne!(hmac_sha256(&a1.0, b"m"), hmac_sha256(&b1.0, b"m"));
    }
}
