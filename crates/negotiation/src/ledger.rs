//! The per-negotiation record of which signed rules each peer was pushed.
//!
//! A peer that answers from a rule it was pushed must relay that rule's
//! signature bundle onward (delegation chains), and the evidence for its
//! own disclosures must name who pushed it each rule. A [`ReceivedLedger`]
//! keeps both: the pushed bundles in arrival order, and an `Arc<Rule>`-keyed
//! hash map from every recorded rule to its senders. `Arc<Rule>` equality
//! compares pointers before contents, and the rules recorded here are the
//! very allocations the recipient's knowledge base holds, so a lookup from
//! a proof's rule usually ends at the pointer check.

use crate::peer::sender_extended;
use peertrust_core::{FxHashMap, PeerId, Rule};
use peertrust_crypto::SignedRule;
use std::sync::Arc;

/// What one peer was pushed during one negotiation.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReceivedLedger {
    /// Each pushed signed rule (its wire form) with its sender, in arrival
    /// order: what a relaying peer forwards.
    pushed: Vec<(SignedRule, PeerId)>,
    /// Every recorded rule — pushed rules and the sender-extended facts
    /// `head @ sender` their receipt derives — to its senders, in arrival
    /// order.
    senders: FxHashMap<Arc<Rule>, Vec<PeerId>>,
}

impl ReceivedLedger {
    /// Record that `signed` arrived from `from`. Returns `false`, recording
    /// nothing, if this sender already pushed the same rule.
    pub(crate) fn record(&mut self, signed: &SignedRule, from: PeerId) -> bool {
        let senders = self.senders.entry(Arc::clone(&signed.rule)).or_default();
        if senders.contains(&from) {
            return false;
        }
        senders.push(from);
        if let Some(ext) = sender_extended(&signed.rule, from) {
            let senders = self.senders.entry(Arc::new(ext)).or_default();
            if !senders.contains(&from) {
                senders.push(from);
            }
        }
        self.pushed.push((signed.clone(), from));
        true
    }

    /// The first peer that pushed `rule` (or whose push derived it), if any.
    pub(crate) fn first_sender(&self, rule: &Arc<Rule>) -> Option<PeerId> {
        self.senders.get(rule).map(|s| s[0])
    }

    /// The signed rules `sender` pushed, in arrival order.
    pub(crate) fn pushed_by(&self, sender: PeerId) -> impl Iterator<Item = &SignedRule> {
        self.pushed
            .iter()
            .filter(move |(_, from)| *from == sender)
            .map(|(sr, _)| sr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peertrust_core::{Literal, Term};
    use peertrust_crypto::{sign_rule, KeyRegistry};

    fn credential(subject: &str) -> SignedRule {
        let reg = KeyRegistry::new();
        reg.register_derived(PeerId::new("UIUC"), 1);
        let rule =
            Rule::fact(Literal::new("student", vec![Term::str(subject)]).at(Term::str("UIUC")))
                .signed_by("UIUC");
        sign_rule(&reg, &rule).unwrap()
    }

    #[test]
    fn records_each_sender_once_and_keeps_arrival_order() {
        let (a, b) = (PeerId::new("A"), PeerId::new("B"));
        let (alice, bob) = (credential("Alice"), credential("Bob"));
        let mut ledger = ReceivedLedger::default();
        assert!(ledger.record(&alice, a));
        assert!(ledger.record(&bob, a));
        assert!(!ledger.record(&alice, a), "same sender twice");
        assert!(ledger.record(&alice, b), "another sender is recorded");
        let from_a: Vec<_> = ledger.pushed_by(a).map(|sr| sr.rule.clone()).collect();
        assert_eq!(from_a, vec![alice.rule.clone(), bob.rule.clone()]);
        assert_eq!(ledger.pushed_by(b).count(), 1);
        assert_eq!(ledger.first_sender(&alice.rule), Some(a));
    }

    #[test]
    fn lookups_match_by_content_as_well_as_by_pointer() {
        let a = PeerId::new("A");
        let alice = credential("Alice");
        let mut ledger = ReceivedLedger::default();
        ledger.record(&alice, a);
        let copy = Arc::new(alice.rule.as_ref().clone());
        assert!(!Arc::ptr_eq(&copy, &alice.rule));
        assert_eq!(ledger.first_sender(&copy), Some(a));
        // The sender-extended fact `head @ A` is recorded too.
        let ext = sender_extended(&alice.rule, a).unwrap();
        assert_eq!(ledger.first_sender(&Arc::new(ext)), Some(a));
        assert_eq!(ledger.first_sender(&credential("Carol").rule), None);
    }
}
