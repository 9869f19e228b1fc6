//! Negotiation outcomes, disclosure sequences, and the safety invariant.
//!
//! The goal of a trust negotiation (paper §2) is "a sequence of credentials
//! `(C1, ..., Ck, R)`, where `R` is the resource to which access was
//! originally requested, such that when credential `Ci` is disclosed, its
//! policy has been satisfied by credentials disclosed earlier in the
//! sequence". [`NegotiationOutcome`] records exactly that sequence plus the
//! transport metrics, and [`verify_safe_sequence`] replays it to check the
//! safety invariant — the property the property-based tests assert over
//! random negotiations.

use peertrust_core::{Context, Literal, PeerId, Rule};
use peertrust_crypto::SignedRule;
use std::sync::Arc;

/// What was disclosed in one step.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub enum DisclosedItem {
    /// A signed rule (credential or delegation) pushed to the recipient.
    SignedRule(SignedRule),
    /// A derived literal sent as a query answer.
    Answer(Literal),
    /// The final resource grant (`R` in the paper's sequence).
    Resource(Literal),
    /// A (protected) policy definition disclosed via UniPro.
    Policy(Vec<Rule>),
}

impl DisclosedItem {
    pub fn kind(&self) -> &'static str {
        match self {
            DisclosedItem::SignedRule(_) => "signed-rule",
            DisclosedItem::Answer(_) => "answer",
            DisclosedItem::Resource(_) => "resource",
            DisclosedItem::Policy(_) => "policy",
        }
    }
}

/// Evidence that justified a disclosure's release policy. Rules are
/// shared with the knowledge base that holds them, not copied.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Evidence {
    /// A rule the discloser already held before the negotiation began.
    Initial(Arc<Rule>),
    /// A signed rule received from `from` during the negotiation.
    ReceivedRule { from: PeerId, rule: Arc<Rule> },
    /// A query answer received from `from` during the negotiation.
    ReceivedAnswer { from: PeerId, answer: Literal },
}

/// One step of the disclosure sequence.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Disclosure {
    /// Position in the global sequence (0-based).
    pub seq: usize,
    pub from: PeerId,
    pub to: PeerId,
    pub item: DisclosedItem,
    /// The release context that licensed this disclosure, instantiated
    /// with `Requester`/`Self` bound.
    pub context: Context,
    /// The evidence used to satisfy `context`.
    pub evidence: Vec<Evidence>,
}

/// A release refusal (input to the paper's §6 failure analysis: "If I
/// refuse to answer this query, could it cause the negotiation to fail?").
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Refusal {
    pub peer: PeerId,
    pub requester: PeerId,
    pub goal: Literal,
    pub reason: RefusalReason,
}

#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RefusalReason {
    /// Release context could not be satisfied for this requester.
    ReleaseDenied,
    /// The peer's effort policy rejects the query outright.
    EffortPolicy,
    /// Hop-depth budget exceeded.
    DepthExceeded,
    /// The same query was already in flight (cycle).
    CycleDetected,
    /// Per-negotiation query budget exceeded.
    QueryBudget,
    /// A received answer could not be re-derived from signed material and
    /// was dropped by the requester's verification step.
    VerificationFailed,
    /// Transport-level delivery gave up: the resilience layer exhausted
    /// its retry budget or per-message deadline for this peer (see
    /// `crate::resilience`).
    Unreachable,
    /// GEM fixpoint iteration hit its round bound before the SCC's answer
    /// tables stabilized (see `crate::gem`). The answers computed so far
    /// are sound but possibly incomplete.
    GemRoundLimit,
    /// Admission control shed the negotiation before it started: offered
    /// load exceeded serving capacity (bounded queue full, or the job
    /// could not start within its deadline — see `crate::serve`).
    Overload,
}

impl RefusalReason {
    /// Stable snake_case metric suffix: refusals are counted per reason
    /// under `negotiation.refusal.<suffix>` in the metrics registry, so
    /// experiments output (metrics.json) shows which guard fired without
    /// parsing Debug strings.
    pub fn metric_suffix(&self) -> &'static str {
        match self {
            RefusalReason::ReleaseDenied => "release_denied",
            RefusalReason::EffortPolicy => "effort_policy",
            RefusalReason::DepthExceeded => "depth_exceeded",
            RefusalReason::CycleDetected => "cycle_detected",
            RefusalReason::QueryBudget => "query_budget",
            RefusalReason::VerificationFailed => "verification_failed",
            RefusalReason::Unreachable => "unreachable",
            RefusalReason::GemRoundLimit => "gem_round_limit",
            RefusalReason::Overload => "overload",
        }
    }
}

/// The result of one negotiation.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct NegotiationOutcome {
    /// Did the requester gain access to the resource?
    pub success: bool,
    pub requester: PeerId,
    pub responder: PeerId,
    /// The resource goal as requested.
    pub goal: Literal,
    /// Granted instances of the goal (empty on failure).
    pub granted: Vec<Literal>,
    /// The full disclosure sequence `(C1, ..., Ck, R)`.
    pub disclosures: Vec<Disclosure>,
    /// Release refusals encountered.
    pub refusals: Vec<Refusal>,
    /// Transport metrics for this negotiation.
    pub messages: u64,
    pub bytes: u64,
    pub queries: u64,
    /// Negotiation rounds (eager) or peak query nesting depth
    /// (parsimonious).
    pub rounds: u64,
    /// Network ticks elapsed.
    pub elapsed_ticks: u64,
}

impl NegotiationOutcome {
    /// Credentials disclosed by `peer` during the negotiation.
    pub fn disclosed_by(&self, peer: PeerId) -> Vec<&Disclosure> {
        self.disclosures.iter().filter(|d| d.from == peer).collect()
    }

    /// Number of signed rules disclosed in total.
    pub fn credential_count(&self) -> usize {
        self.disclosures
            .iter()
            .filter(|d| matches!(d.item, DisclosedItem::SignedRule(_)))
            .count()
    }
}

/// Violations found by [`verify_safe_sequence`].
#[derive(Clone, Debug)]
pub struct SafetyViolation {
    pub seq: usize,
    pub description: String,
}

/// Replay the disclosure sequence and check the paper's safety invariant:
/// every disclosure's evidence must consist of items available to the
/// discloser *before* that step — initial knowledge, or rules/answers
/// received in strictly earlier steps.
pub fn verify_safe_sequence(outcome: &NegotiationOutcome) -> Result<(), Vec<SafetyViolation>> {
    let mut violations = Vec::new();

    for d in &outcome.disclosures {
        for ev in &d.evidence {
            match ev {
                Evidence::Initial(_) => {
                    // Initial knowledge is always admissible; faithfulness of
                    // the `Initial` tag is the session's responsibility and
                    // is covered by its own tests.
                }
                Evidence::ReceivedRule { from, rule } => {
                    let available = outcome.disclosures[..d.seq].iter().any(|e| {
                        e.to == d.from
                            && e.from == *from
                            && matches!(&e.item, DisclosedItem::SignedRule(sr)
                                        if sr.rule == *rule
                                           || *sr.rule == rule.strip_contexts()
                                           // The sender-extended fact `head @ from`
                                           // recorded when a credential is received
                                           // is justified by the credential push.
                                           || crate::peer::sender_extended(&sr.rule, e.from)
                                                  .is_some_and(|ext| ext == **rule))
                    });
                    if !available {
                        violations.push(SafetyViolation {
                            seq: d.seq,
                            description: format!(
                                "disclosure {} by {} uses rule `{}` from {} not received earlier",
                                d.seq, d.from, rule, from
                            ),
                        });
                    }
                }
                Evidence::ReceivedAnswer { from, answer } => {
                    let available = outcome.disclosures[..d.seq].iter().any(|e| {
                        e.to == d.from
                            && e.from == *from
                            && matches!(&e.item, DisclosedItem::Answer(a) if a == answer)
                    });
                    if !available {
                        violations.push(SafetyViolation {
                            seq: d.seq,
                            description: format!(
                                "disclosure {} by {} uses answer `{}` from {} not received earlier",
                                d.seq, d.from, answer, from
                            ),
                        });
                    }
                }
            }
        }
    }

    // Sequence numbering must be consistent.
    for (i, d) in outcome.disclosures.iter().enumerate() {
        if d.seq != i {
            violations.push(SafetyViolation {
                seq: i,
                description: format!("sequence index mismatch: position {i} has seq {}", d.seq),
            });
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_core::Term;

    fn peer(n: &str) -> PeerId {
        PeerId::new(n)
    }

    fn cred(pred: &str, arg: &str, issuer: &str) -> SignedRule {
        SignedRule {
            rule: Arc::new(Rule::fact(Literal::new(pred, vec![Term::str(arg)])).signed_by(issuer)),
            signatures: vec![[0u8; 32]],
        }
    }

    fn outcome_with(disclosures: Vec<Disclosure>) -> NegotiationOutcome {
        NegotiationOutcome {
            success: true,
            requester: peer("Alice"),
            responder: peer("E-Learn"),
            goal: Literal::truth(),
            granted: vec![],
            disclosures,
            refusals: vec![],
            messages: 0,
            bytes: 0,
            queries: 0,
            rounds: 0,
            elapsed_ticks: 0,
        }
    }

    #[test]
    fn empty_sequence_is_safe() {
        assert!(verify_safe_sequence(&outcome_with(vec![])).is_ok());
    }

    #[test]
    fn valid_chained_sequence_passes() {
        // E-Learn discloses its BBB membership (unconditional), then Alice
        // discloses her student ID citing it as evidence.
        let bbb = cred("member", "E-Learn", "BBB");
        let sid = cred("student", "Alice", "UIUC");
        let seq = vec![
            Disclosure {
                seq: 0,
                from: peer("E-Learn"),
                to: peer("Alice"),
                item: DisclosedItem::SignedRule(bbb.clone()),
                context: Context::public(),
                evidence: vec![],
            },
            Disclosure {
                seq: 1,
                from: peer("Alice"),
                to: peer("E-Learn"),
                item: DisclosedItem::SignedRule(sid),
                context: Context::public(),
                evidence: vec![Evidence::ReceivedRule {
                    from: peer("E-Learn"),
                    rule: bbb.rule.clone(),
                }],
            },
        ];
        assert!(verify_safe_sequence(&outcome_with(seq)).is_ok());
    }

    #[test]
    fn out_of_order_evidence_is_flagged() {
        let bbb = cred("member", "E-Learn", "BBB");
        let sid = cred("student", "Alice", "UIUC");
        // Alice's disclosure comes FIRST, citing evidence only delivered
        // later — unsafe.
        let seq = vec![
            Disclosure {
                seq: 0,
                from: peer("Alice"),
                to: peer("E-Learn"),
                item: DisclosedItem::SignedRule(sid),
                context: Context::public(),
                evidence: vec![Evidence::ReceivedRule {
                    from: peer("E-Learn"),
                    rule: bbb.rule.clone(),
                }],
            },
            Disclosure {
                seq: 1,
                from: peer("E-Learn"),
                to: peer("Alice"),
                item: DisclosedItem::SignedRule(bbb),
                context: Context::public(),
                evidence: vec![],
            },
        ];
        let violations = verify_safe_sequence(&outcome_with(seq)).unwrap_err();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].description.contains("not received earlier"));
    }

    #[test]
    fn evidence_from_wrong_peer_is_flagged() {
        let bbb = cred("member", "E-Learn", "BBB");
        let sid = cred("student", "Alice", "UIUC");
        let seq = vec![
            Disclosure {
                seq: 0,
                from: peer("E-Learn"),
                to: peer("Alice"),
                item: DisclosedItem::SignedRule(bbb.clone()),
                context: Context::public(),
                evidence: vec![],
            },
            Disclosure {
                seq: 1,
                from: peer("Alice"),
                to: peer("E-Learn"),
                item: DisclosedItem::SignedRule(sid),
                context: Context::public(),
                // Claims the rule came from Mallory, who never sent it.
                evidence: vec![Evidence::ReceivedRule {
                    from: peer("Mallory"),
                    rule: bbb.rule.clone(),
                }],
            },
        ];
        assert!(verify_safe_sequence(&outcome_with(seq)).is_err());
    }

    #[test]
    fn answers_count_as_evidence() {
        let ans = Literal::new("member", vec![Term::str("E-Learn")]).at(Term::str("BBB"));
        let sid = cred("student", "Alice", "UIUC");
        let seq = vec![
            Disclosure {
                seq: 0,
                from: peer("E-Learn"),
                to: peer("Alice"),
                item: DisclosedItem::Answer(ans.clone()),
                context: Context::public(),
                evidence: vec![],
            },
            Disclosure {
                seq: 1,
                from: peer("Alice"),
                to: peer("E-Learn"),
                item: DisclosedItem::SignedRule(sid),
                context: Context::public(),
                evidence: vec![Evidence::ReceivedAnswer {
                    from: peer("E-Learn"),
                    answer: ans,
                }],
            },
        ];
        assert!(verify_safe_sequence(&outcome_with(seq)).is_ok());
    }

    #[test]
    fn seq_mismatch_detected() {
        let bbb = cred("member", "E-Learn", "BBB");
        let seq = vec![Disclosure {
            seq: 5,
            from: peer("E-Learn"),
            to: peer("Alice"),
            item: DisclosedItem::SignedRule(bbb),
            context: Context::public(),
            evidence: vec![],
        }];
        assert!(verify_safe_sequence(&outcome_with(seq)).is_err());
    }

    #[test]
    fn disclosed_by_and_credential_count() {
        let bbb = cred("member", "E-Learn", "BBB");
        let o = outcome_with(vec![Disclosure {
            seq: 0,
            from: peer("E-Learn"),
            to: peer("Alice"),
            item: DisclosedItem::SignedRule(bbb),
            context: Context::public(),
            evidence: vec![],
        }]);
        assert_eq!(o.disclosed_by(peer("E-Learn")).len(), 1);
        assert_eq!(o.disclosed_by(peer("Alice")).len(), 0);
        assert_eq!(o.credential_count(), 1);
    }
}

#[cfg(test)]
mod audit_tests {
    use super::*;
    use peertrust_core::Term;

    #[test]
    fn outcomes_serialize_as_audit_records() {
        let outcome = NegotiationOutcome {
            success: true,
            requester: PeerId::new("Alice"),
            responder: PeerId::new("E-Learn"),
            goal: Literal::new("resource", vec![Term::str("Alice")]),
            granted: vec![Literal::new("resource", vec![Term::str("Alice")])],
            disclosures: vec![Disclosure {
                seq: 0,
                from: PeerId::new("E-Learn"),
                to: PeerId::new("Alice"),
                item: DisclosedItem::Resource(Literal::new("resource", vec![Term::str("Alice")])),
                context: Context::public(),
                evidence: vec![Evidence::Initial(Arc::new(Rule::fact(Literal::truth())))],
            }],
            refusals: vec![Refusal {
                peer: PeerId::new("Alice"),
                requester: PeerId::new("E-Learn"),
                goal: Literal::truth(),
                reason: RefusalReason::ReleaseDenied,
            }],
            messages: 9,
            bytes: 773,
            queries: 3,
            rounds: 3,
            elapsed_ticks: 9,
        };
        let json = serde_json::to_string_pretty(&outcome).unwrap();
        assert!(json.contains("\"success\": true"));
        assert!(json.contains("ReleaseDenied"));
        let back: NegotiationOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back.messages, 9);
        assert_eq!(back.disclosures.len(), 1);
        assert_eq!(back.refusals[0].reason, RefusalReason::ReleaseDenied);
    }
}
