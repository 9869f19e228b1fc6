//! Credentials with validity and revocation.
//!
//! The paper's §4.2 requires a run-time *revocation check*: "To check if a
//! requester's VISA card has been revoked, E-Learn must make an external
//! function call to a VISA card revocation authority." We model the
//! credential lifecycle pieces that check needs: a [`Credential`] wraps a
//! signed rule with a serial number and a validity interval (in abstract
//! negotiation-clock ticks, since the simulation has no wall clock), and a
//! [`RevocationList`] is the authority-side CRL that peers query.

use crate::keys::KeyRegistry;
use crate::sig::{verify_signed_rule, SigError, SignedRule};
use parking_lot::RwLock;
use peertrust_core::PeerId;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Monotone abstract time used for validity intervals (the simulated
/// network's tick counter).
pub type Tick = u64;

/// A serial-numbered credential: a signed rule plus lifecycle metadata.
#[derive(Clone, Debug)]
pub struct Credential {
    /// Issuer-assigned serial, unique per issuer.
    pub serial: u64,
    /// The signed rule (e.g. Alice's student ID, IBM's VISA card).
    pub signed: SignedRule,
    /// First tick at which the credential is valid.
    pub not_before: Tick,
    /// First tick at which the credential is *no longer* valid.
    pub not_after: Tick,
}

/// Why a credential was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CredentialError {
    /// Underlying signature failure.
    Sig(SigError),
    /// Outside the validity interval.
    Expired {
        at: Tick,
        not_after: Tick,
    },
    NotYetValid {
        at: Tick,
        not_before: Tick,
    },
    /// Present on the issuer's revocation list.
    Revoked {
        issuer: PeerId,
        serial: u64,
    },
}

impl fmt::Display for CredentialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CredentialError::Sig(e) => write!(f, "{e}"),
            CredentialError::Expired { at, not_after } => {
                write!(f, "credential expired (now {at}, not_after {not_after})")
            }
            CredentialError::NotYetValid { at, not_before } => {
                write!(
                    f,
                    "credential not yet valid (now {at}, not_before {not_before})"
                )
            }
            CredentialError::Revoked { issuer, serial } => {
                write!(f, "credential {serial} revoked by {issuer}")
            }
        }
    }
}

impl std::error::Error for CredentialError {}

impl From<SigError> for CredentialError {
    fn from(e: SigError) -> CredentialError {
        CredentialError::Sig(e)
    }
}

impl Credential {
    /// A credential valid for all time (most scenario credentials).
    pub fn perpetual(serial: u64, signed: SignedRule) -> Credential {
        Credential {
            serial,
            signed,
            not_before: 0,
            not_after: Tick::MAX,
        }
    }

    /// Validate signature + validity interval at time `now` (revocation is a
    /// separate, possibly remote, check — see [`RevocationList`]).
    pub fn validate(
        &self,
        registry: &KeyRegistry,
        now: Tick,
    ) -> Result<Vec<PeerId>, CredentialError> {
        if now < self.not_before {
            return Err(CredentialError::NotYetValid {
                at: now,
                not_before: self.not_before,
            });
        }
        if now >= self.not_after {
            return Err(CredentialError::Expired {
                at: now,
                not_after: self.not_after,
            });
        }
        Ok(verify_signed_rule(registry, &self.signed)?)
    }
}

/// An issuer's revocation list (CRL). Shared handle, like [`KeyRegistry`].
#[derive(Clone, Default)]
pub struct RevocationList {
    revoked: Arc<RwLock<HashSet<(PeerId, u64)>>>,
}

impl RevocationList {
    pub fn new() -> RevocationList {
        RevocationList::default()
    }

    /// Revoke `serial` as issued by `issuer`.
    pub fn revoke(&self, issuer: PeerId, serial: u64) {
        self.revoked.write().insert((issuer, serial));
    }

    /// Undo a revocation (e.g. an administrative error).
    pub fn reinstate(&self, issuer: PeerId, serial: u64) {
        self.revoked.write().remove(&(issuer, serial));
    }

    /// Is the credential revoked? This is the "external function call to a
    /// revocation authority" of §4.2.
    pub fn is_revoked(&self, issuer: PeerId, serial: u64) -> bool {
        self.revoked.read().contains(&(issuer, serial))
    }

    /// Full check: signature, validity window, then CRL per issuer.
    pub fn check(
        &self,
        registry: &KeyRegistry,
        cred: &Credential,
        now: Tick,
    ) -> Result<(), CredentialError> {
        let issuers = cred.validate(registry, now)?;
        for issuer in issuers {
            if self.is_revoked(issuer, cred.serial) {
                return Err(CredentialError::Revoked {
                    issuer,
                    serial: cred.serial,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Debug for RevocationList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RevocationList({} entries)", self.revoked.read().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::sign_rule;
    use peertrust_core::{Literal, Rule, Term};

    fn setup() -> (KeyRegistry, Credential) {
        let reg = KeyRegistry::new();
        reg.register_derived(PeerId::new("VISA"), 9);
        let rule = Rule::fact(Literal::new("visaCard", vec![Term::str("IBM")])).signed_by("VISA");
        let signed = sign_rule(&reg, &rule).unwrap();
        (reg, Credential::perpetual(1001, signed))
    }

    #[test]
    fn valid_credential_passes_full_check() {
        let (reg, cred) = setup();
        let crl = RevocationList::new();
        assert!(crl.check(&reg, &cred, 5).is_ok());
    }

    #[test]
    fn revoked_credential_fails() {
        let (reg, cred) = setup();
        let crl = RevocationList::new();
        crl.revoke(PeerId::new("VISA"), 1001);
        assert_eq!(
            crl.check(&reg, &cred, 5).unwrap_err(),
            CredentialError::Revoked {
                issuer: PeerId::new("VISA"),
                serial: 1001
            }
        );
    }

    #[test]
    fn reinstatement_restores_validity() {
        let (reg, cred) = setup();
        let crl = RevocationList::new();
        crl.revoke(PeerId::new("VISA"), 1001);
        crl.reinstate(PeerId::new("VISA"), 1001);
        assert!(crl.check(&reg, &cred, 5).is_ok());
    }

    #[test]
    fn revocation_is_per_serial() {
        let (reg, cred) = setup();
        let crl = RevocationList::new();
        crl.revoke(PeerId::new("VISA"), 9999); // a different card
        assert!(crl.check(&reg, &cred, 5).is_ok());
    }

    #[test]
    fn validity_window_enforced() {
        let (reg, mut cred) = setup();
        cred.not_before = 10;
        cred.not_after = 20;
        assert!(matches!(
            cred.validate(&reg, 5),
            Err(CredentialError::NotYetValid { .. })
        ));
        assert!(cred.validate(&reg, 10).is_ok());
        assert!(cred.validate(&reg, 19).is_ok());
        assert!(matches!(
            cred.validate(&reg, 20),
            Err(CredentialError::Expired { .. })
        ));
    }

    #[test]
    fn tampered_credential_fails_before_crl() {
        let (reg, mut cred) = setup();
        std::sync::Arc::make_mut(&mut cred.signed.rule).head.args[0] = Term::str("Mallory Corp");
        let crl = RevocationList::new();
        assert!(matches!(
            crl.check(&reg, &cred, 5),
            Err(CredentialError::Sig(_))
        ));
    }
}
