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
//!
//! # The verified-signature memo
//!
//! A delegation chain is re-pushed at every hop, so the same signed rule
//! reaches many peers, and each must check it before use. The registry
//! therefore remembers every signed rule whose tags all verified: an
//! entry holds the context-free rule and its full signature list, and
//! [`crate::sig::verify_signed_rule`] skips the HMACs only when a rule's
//! context-free form and signature list both equal an entry's. A hit is
//! sound because the canonical bytes an issuer signs are a pure function
//! of the context-free rule ([`crate::sig::canonical_bytes`]), and each
//! tag is a pure function of those bytes and the issuer's key: equal
//! inputs under unchanged keys give the verdict the entry recorded.
//!
//! Keys change only through [`KeyRegistry::register`], which empties the
//! memo and bumps a generation under the same write lock. A verification
//! records the generation before it computes its HMACs and inserts its
//! entry only if the generation is unchanged, so a check that raced a
//! re-registration never leaves an entry for the old key. Only successes
//! are remembered; a rejected rule is re-checked every time it arrives.
//! Every clone of a registry shares one memo, so the check is paid once
//! per process, not once per peer, hop or job.

use crate::hmac::{verify_tag, HmacKey};
use crate::sha256::Digest;
use parking_lot::RwLock;
use peertrust_core::{FxHashMap, PeerId, Rule};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
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
/// Cloning is cheap (`Arc` inside); all clones see the same key set and
/// share one verified-signature memo (see the module docs). Each issuer's
/// HMAC key schedule is precomputed once at registration.
#[derive(Clone, Default)]
pub struct KeyRegistry {
    inner: Arc<Shared>,
}

#[derive(Default)]
struct Shared {
    state: RwLock<State>,
    /// HMAC tags computed by [`KeyRegistry::verify`]. A memo hit computes
    /// none, so hits never touch this counter.
    verify_hmacs: AtomicU64,
}

#[derive(Default)]
struct State {
    keys: HashMap<PeerId, HmacKey>,
    /// Bumped by every [`KeyRegistry::register`].
    generation: u64,
    /// Signed rules whose every tag verified under `keys` as they are now,
    /// bucketed by [`memo_hash`].
    verified: FxHashMap<u64, Vec<VerifiedRule>>,
    verified_len: usize,
}

/// A memo miss: what [`KeyRegistry::memo_insert`] needs to record the
/// check that follows it.
pub(crate) struct MemoMiss {
    /// The registry generation when the memo was probed.
    generation: u64,
    hash: u64,
}

/// A memo entry: a context-free signed rule and its full signature list.
struct VerifiedRule {
    rule: Arc<Rule>,
    signatures: Box<[Digest]>,
}

/// Bound on memo entries. Only rules whose tags verified get in, so the
/// memo holds at most the credentials actually issued; the bound keeps a
/// long-lived process from growing it without limit. On reaching it the
/// memo starts over, which costs re-checks, never a wrong verdict.
const MEMO_CAPACITY: usize = 1 << 16;

/// The memo's bucket hash: the context-free parts of `rule` (head, body,
/// issuers) and the signature list. Contexts are ignored because the
/// signatures do not cover them.
fn memo_hash(rule: &Rule, signatures: &[Digest]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = peertrust_core::hash::FxHasher::default();
    rule.head.hash(&mut h);
    rule.body.hash(&mut h);
    rule.signed_by.hash(&mut h);
    signatures.hash(&mut h);
    h.finish()
}

impl VerifiedRule {
    /// Full equality with the context-free form of `rule` and with
    /// `signatures`. Tags are compared in constant time.
    fn matches(&self, rule: &Rule, signatures: &[Digest]) -> bool {
        self.rule.head == rule.head
            && self.rule.body == rule.body
            && self.rule.signed_by == rule.signed_by
            && self.signatures.len() == signatures.len()
            && self
                .signatures
                .iter()
                .zip(signatures)
                .all(|(a, b)| verify_tag(a, b))
    }
}

impl KeyRegistry {
    pub fn new() -> KeyRegistry {
        KeyRegistry::default()
    }

    /// Register (or replace) the key for `issuer`. Empties the
    /// verified-signature memo: its entries were checked under the old key
    /// set.
    pub fn register(&self, issuer: PeerId, key: SecretKey) {
        let mut state = self.inner.state.write();
        state.keys.insert(issuer, HmacKey::new(&key.0));
        state.generation += 1;
        state.verified.clear();
        state.verified_len = 0;
    }

    /// Register a derived key for `issuer`; convenience for scenario setup.
    pub fn register_derived(&self, issuer: PeerId, seed: u64) {
        self.register(issuer, SecretKey::derive(issuer, seed));
    }

    /// Is the issuer known?
    pub fn knows(&self, issuer: PeerId) -> bool {
        self.inner.state.read().keys.contains_key(&issuer)
    }

    /// Produce the tag `issuer` would attach to `message`.
    pub fn sign(&self, issuer: PeerId, message: &[u8]) -> Result<Digest, KeyError> {
        let guard = self.inner.state.read();
        let key = guard
            .keys
            .get(&issuer)
            .ok_or(KeyError::UnknownIssuer(issuer))?;
        Ok(key.mac(message))
    }

    /// Check that `tag` is `issuer`'s tag over `message`. Always computes
    /// the HMAC; the memo sits one level up, in
    /// [`crate::sig::verify_signed_rule`].
    pub fn verify(&self, issuer: PeerId, message: &[u8], tag: &Digest) -> Result<(), KeyError> {
        let expected = self.sign(issuer, message)?;
        self.inner.verify_hmacs.fetch_add(1, Ordering::Relaxed);
        if verify_tag(&expected, tag) {
            Ok(())
        } else {
            Err(KeyError::BadSignature(issuer))
        }
    }

    /// How many HMAC tags [`KeyRegistry::verify`] has computed on this
    /// registry and its clones. Deterministic for a deterministic run:
    /// with the memo warm, re-checking a known rule adds nothing.
    pub fn verify_hmacs(&self) -> u64 {
        self.inner.verify_hmacs.load(Ordering::Relaxed)
    }

    /// Is (`rule`'s context-free form, `signatures`) a memo entry? On a
    /// miss, returns what to hand [`KeyRegistry::memo_insert`] once every
    /// tag has been checked.
    pub(crate) fn memo_probe(&self, rule: &Rule, signatures: &[Digest]) -> Result<(), MemoMiss> {
        let hash = memo_hash(rule, signatures);
        let state = self.inner.state.read();
        let hit = state
            .verified
            .get(&hash)
            .is_some_and(|bucket| bucket.iter().any(|e| e.matches(rule, signatures)));
        if hit {
            Ok(())
        } else {
            Err(MemoMiss {
                generation: state.generation,
                hash,
            })
        }
    }

    /// Remember that every tag in `signatures` verified over the
    /// context-free `rule`, unless a [`KeyRegistry::register`] happened
    /// since the probe that returned `miss`: then the check may have used
    /// a key that is gone, and nothing is recorded.
    pub(crate) fn memo_insert(&self, miss: MemoMiss, rule: Arc<Rule>, signatures: &[Digest]) {
        debug_assert!(rule.head_context.is_none() && rule.rule_context.is_none());
        let mut state = self.inner.state.write();
        if state.generation != miss.generation {
            return;
        }
        let bucket = state.verified.entry(miss.hash).or_default();
        if bucket.iter().any(|e| e.matches(&rule, signatures)) {
            return;
        }
        bucket.push(VerifiedRule {
            rule,
            signatures: signatures.into(),
        });
        state.verified_len += 1;
        if state.verified_len > MEMO_CAPACITY {
            state.verified.clear();
            state.verified_len = 0;
        }
    }
}

impl fmt::Debug for KeyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KeyRegistry({} issuers)",
            self.inner.state.read().keys.len()
        )
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
    fn a_check_that_raced_a_reregistration_records_nothing() {
        let reg = KeyRegistry::new();
        let uiuc = PeerId::new("UIUC");
        reg.register_derived(uiuc, 1);
        let rule =
            Arc::new(Rule::fact(peertrust_core::Literal::new("p", vec![])).signed_by("UIUC"));
        let tags = [reg.sign(uiuc, b"p() signedBy [\"UIUC\"].").unwrap()];
        let Err(miss) = reg.memo_probe(&rule, &tags) else {
            panic!("fresh memo");
        };
        // The key changes between the check and the insert: the entry,
        // checked under the old key, must not be recorded.
        reg.register_derived(uiuc, 2);
        reg.memo_insert(miss, Arc::clone(&rule), &tags);
        assert!(reg.memo_probe(&rule, &tags).is_err());
        // Without a race the entry is recorded and found.
        let Err(miss) = reg.memo_probe(&rule, &tags) else {
            panic!("still absent");
        };
        reg.memo_insert(miss, Arc::clone(&rule), &tags);
        assert!(reg.memo_probe(&rule, &tags).is_ok());
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
