//! Property test: the registry's verified-signature memo never admits a
//! rule that a full HMAC check would reject.
//!
//! Each case signs a random rule, verifies it once so the memo holds it,
//! checks that a second verification is answered by the memo (no HMAC
//! computed), and then tampers with one part the signatures cover or with
//! the signature list itself. Every tampered copy must be rejected, and
//! the untouched rule must still verify afterwards.

use peertrust_core::prelude::*;
use peertrust_crypto::{sign_rule, verify_signed_rule, KeyRegistry, SignedRule};
use proptest::prelude::*;
use std::sync::Arc;

const ISSUERS: [&str; 3] = ["UIUC", "BBB", "CA"];

fn registry() -> KeyRegistry {
    let reg = KeyRegistry::new();
    for (i, name) in ISSUERS.iter().enumerate() {
        reg.register_derived(PeerId::new(name), 10 + i as u64);
    }
    reg
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[A-Z][a-z]{0,3}".prop_map(|v| Term::var(v.as_str())),
        "[a-z][a-z0-9]{0,4}".prop_map(|a| Term::atom(a.as_str())),
        "[a-zA-Z ]{0,6}".prop_map(|s| Term::str(s.as_str())),
        any::<i32>().prop_map(|i| Term::int(i64::from(i))),
    ]
}

fn arb_literal() -> impl Strategy<Value = Literal> {
    (
        "[a-z][a-z]{0,4}",
        prop::collection::vec(arb_term(), 0..3),
        prop::collection::vec(arb_term(), 0..2),
    )
        .prop_map(|(pred, args, authority)| {
            let mut lit = Literal::new(pred.as_str(), args);
            for a in authority {
                lit = lit.at(a);
            }
            lit
        })
}

/// A rule signed by one to three distinct registered issuers, possibly
/// carrying a head context (which the signatures do not cover).
fn arb_signed_rule() -> impl Strategy<Value = Rule> {
    (
        arb_literal(),
        prop::collection::vec(arb_literal(), 0..3),
        0usize..3,
        1usize..4,
        any::<bool>(),
    )
        .prop_map(|(head, body, first, count, with_context)| {
            let mut rule = Rule::horn(head, body);
            for k in 0..count {
                rule = rule.signed_by(ISSUERS[(first + k) % ISSUERS.len()]);
            }
            if with_context {
                rule.head_context = Some(Context::public());
            }
            rule
        })
}

/// One way to tamper with a signed rule. Returns `None` when the mutation
/// does not apply to this rule (or would leave it unchanged).
fn tamper(signed: &SignedRule, mutation: usize, pick: usize) -> Option<SignedRule> {
    let mut out = signed.clone();
    let rule = Arc::make_mut(&mut out.rule);
    match mutation {
        // A changed head argument (or an added one).
        0 => {
            let changed = Term::str("Mallory");
            let i = pick % rule.head.args.len().max(1);
            match rule.head.args.get_mut(i) {
                Some(arg) if *arg != changed => *arg = changed,
                Some(_) => return None,
                None => rule.head.args.push(changed),
            }
        }
        // A changed (or added) body literal.
        1 => {
            let changed = Literal::new("forged", vec![Term::str("Mallory")]);
            if rule.body.is_empty() {
                rule.body.push(changed);
            } else {
                let i = pick % rule.body.len();
                rule.body[i] = changed;
            }
        }
        // A different issuer claimed in `signedBy`.
        2 => {
            let i = pick % rule.signed_by.len();
            let current = rule.signed_by[i];
            let other = ISSUERS
                .iter()
                .map(|n| Sym::new(n))
                .find(|s| *s != current)
                .expect("three issuers");
            rule.signed_by[i] = other;
        }
        // A flipped signature bit.
        3 => {
            let i = pick % out.signatures.len();
            out.signatures[i][pick % 32] ^= 1 << (pick % 8);
        }
        // A dropped signature.
        4 => {
            let i = pick % out.signatures.len();
            out.signatures.remove(i);
        }
        // Two signatures swapped.
        5 => {
            if out.signatures.len() < 2 {
                return None;
            }
            let i = pick % out.signatures.len();
            let j = (i + 1) % out.signatures.len();
            if out.signatures[i] == out.signatures[j] {
                return None;
            }
            out.signatures.swap(i, j);
        }
        _ => unreachable!("six mutations"),
    }
    Some(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_memo_hit_never_admits_a_tampered_rule(
        rule in arb_signed_rule(),
        mutation in 0usize..6,
        pick in 0usize..64,
    ) {
        let reg = registry();
        let signed = sign_rule(&reg, &rule).unwrap();
        prop_assert!(verify_signed_rule(&reg, &signed).is_ok());
        let after_first = reg.verify_hmacs();
        prop_assert_eq!(after_first, signed.signatures.len() as u64);
        prop_assert!(verify_signed_rule(&reg, &signed).is_ok());
        prop_assert_eq!(reg.verify_hmacs(), after_first, "the second check is a memo hit");

        let Some(bad) = tamper(&signed, mutation, pick) else {
            return Err(proptest::test_runner::TestCaseError::reject("mutation does not apply"));
        };
        prop_assert!(
            verify_signed_rule(&reg, &bad).is_err(),
            "mutation {} of `{}` was admitted",
            mutation,
            signed.rule
        );
        // A rejection is never remembered: the tampered copy fails again.
        prop_assert!(verify_signed_rule(&reg, &bad).is_err());
        prop_assert!(verify_signed_rule(&reg, &signed).is_ok());
    }

    #[test]
    fn reregistering_an_issuer_invalidates_memoized_rules(rule in arb_signed_rule()) {
        let reg = registry();
        let signed = sign_rule(&reg, &rule).unwrap();
        prop_assert!(verify_signed_rule(&reg, &signed).is_ok());
        // Same issuer name, new key: the memoized verdict must not survive.
        let issuer = PeerId(rule.signed_by[0]);
        reg.register_derived(issuer, 99);
        prop_assert!(verify_signed_rule(&reg, &signed).is_err());
        let resigned = sign_rule(&reg, &rule).unwrap();
        prop_assert!(verify_signed_rule(&reg, &resigned).is_ok());
    }

    #[test]
    fn contexts_neither_block_nor_forge_a_memo_hit(rule in arb_signed_rule()) {
        let reg = registry();
        let signed = sign_rule(&reg, &rule).unwrap();
        prop_assert!(verify_signed_rule(&reg, &signed).is_ok());
        let hmacs = reg.verify_hmacs();
        // The same rule with, or without, a head context is the same
        // credential: it verifies from the memo.
        let mut flipped = signed.clone();
        let r = Arc::make_mut(&mut flipped.rule);
        r.head_context = match r.head_context {
            Some(_) => None,
            None => Some(Context::public()),
        };
        prop_assert!(verify_signed_rule(&reg, &flipped).is_ok());
        prop_assert_eq!(reg.verify_hmacs(), hmacs);
    }
}

#[test]
fn a_rule_carrying_a_head_context_verifies_cold_and_warm() {
    let reg = registry();
    let rule = Rule::fact(Literal::new("student", vec![Term::str("Alice")]).at(Term::str("UIUC")))
        .signed_by("UIUC")
        .with_head_context(Context::public());
    let signed = sign_rule(&reg, &rule).unwrap();
    assert!(signed.rule.head_context.is_some());
    assert!(verify_signed_rule(&reg, &signed).is_ok());
    assert_eq!(reg.verify_hmacs(), 1);
    assert!(verify_signed_rule(&reg, &signed).is_ok());
    assert_eq!(reg.verify_hmacs(), 1);
}

#[test]
fn clones_of_a_registry_share_one_memo() {
    let reg = registry();
    let clone = reg.clone();
    let rule = Rule::fact(Literal::new("member", vec![Term::str("E-Learn")]).at(Term::str("BBB")))
        .signed_by("BBB");
    let signed = sign_rule(&reg, &rule).unwrap();
    assert!(verify_signed_rule(&reg, &signed).is_ok());
    assert!(verify_signed_rule(&clone, &signed).is_ok());
    assert_eq!(clone.verify_hmacs(), 1);
}
