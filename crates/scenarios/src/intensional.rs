//! Intensional (content-triggered) access policies — paper §6:
//!
//! *"Semantic Web access control policies must support an intensional
//! specification of the resources and types of access affected by a
//! policy, e.g., as a query over the relevant resource attributes ('the
//! ability to print color documents on all printers on the third floor').
//! This capability ... is supported at run time by the content-triggered
//! variety of trust negotiation."*
//!
//! PeerTrust's rule bodies *are* queries over resource attributes, so
//! intensional policies fall out of the language: one rule covers the
//! whole attribute-defined family of resources, and which release policy
//! applies is *triggered by the content's attributes* rather than by the
//! resource's name. This module builds the paper's own example — a print
//! service where:
//!
//! * printing on any **third-floor color printer** requires a staff
//!   credential (one intensional rule covers every such printer, present
//!   and future);
//! * **monochrome or other-floor** printers are open;
//! * fetching a **classified document** requires a government clearance,
//!   while public documents flow freely — the same `fetch` interface, with
//!   the negotiation triggered (or not) by the document's classification.

use peertrust_core::{Literal, PeerId, Term};
use peertrust_crypto::KeyRegistry;
use peertrust_negotiation::{NegotiationOutcome, NegotiationPeer, PeerMap, Strategy};
use peertrust_net::{NegotiationId, SimNetwork};
use peertrust_telemetry::Telemetry;

pub const SERVICE: &str = "PrintService";
pub const STAFF: &str = "Staffer";
pub const GUEST: &str = "Guest";

/// The built scenario.
pub struct IntensionalScenario {
    pub peers: PeerMap,
    pub registry: KeyRegistry,
}

impl IntensionalScenario {
    pub fn build() -> IntensionalScenario {
        let registry = KeyRegistry::new();
        registry.register_derived(PeerId::new("Org"), 700);
        registry.register_derived(PeerId::new("Gov"), 701);
        let mut peers = PeerMap::new();

        let mut service = NegotiationPeer::new(SERVICE, registry.clone());
        service
            .load_program(
                r#"
                % Printer attribute database.
                printer(lobby1).   location(lobby1, floor1).  mono(lobby1).
                printer(eng3a).    location(eng3a, floor3).   color(eng3a).
                printer(eng3b).    location(eng3b, floor3).   color(eng3b).
                printer(eng3m).    location(eng3m, floor3).   mono(eng3m).

                % Intensional policy: ONE rule for "color printers on the
                % third floor" — guarded; everything else — open.
                print(P, X) $ true <-
                    printer(P), location(P, floor3), color(P),
                    staff(X) @ "Org" @ X.
                print(P, X) $ true <-
                    printer(P), mono(P).
                print(P, X) $ true <-
                    printer(P), location(P, floor1).

                % Content-triggered document fetch: classification decides
                % whether a negotiation is needed at all.
                document(budget2026).   classified(budget2026).
                document(newsletter).   public(newsletter).
                fetch(D, X) $ true <-
                    document(D), classified(D),
                    clearance(X) @ "Gov" @ X.
                fetch(D, X) $ true <-
                    document(D), public(D).
                "#,
            )
            .expect("service program parses");
        peers.insert(service);

        let mut staffer = NegotiationPeer::new(STAFF, registry.clone());
        staffer
            .load_program(
                r#"
                staff("Staffer") @ "Org" signedBy ["Org"].
                staff(X) @ Y $ true <-_true staff(X) @ Y.
                clearance("Staffer") @ "Gov" signedBy ["Gov"].
                clearance(X) @ Y $ true <-_true clearance(X) @ Y.
                "#,
            )
            .expect("staffer program parses");
        peers.insert(staffer);

        peers.insert(NegotiationPeer::new(GUEST, registry.clone()));

        IntensionalScenario { peers, registry }
    }

    pub fn run(&mut self, requester: &str, goal: Literal) -> NegotiationOutcome {
        let mut net = SimNetwork::new(0x1917);
        Strategy::Parsimonious.run_traced(
            &mut self.peers,
            &mut net,
            NegotiationId(7),
            PeerId::new(requester),
            PeerId::new(SERVICE),
            goal,
            &Telemetry::disabled(),
        )
    }

    pub fn print_goal(printer: &str, who: &str) -> Literal {
        Literal::new("print", vec![Term::atom(printer), Term::str(who)])
    }

    pub fn fetch_goal(doc: &str, who: &str) -> Literal {
        Literal::new("fetch", vec![Term::atom(doc), Term::str(who)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn third_floor_color_requires_staff_credential() {
        let mut s = IntensionalScenario::build();
        let out = s.run(STAFF, IntensionalScenario::print_goal("eng3a", STAFF));
        assert!(out.success, "{:#?}", out.refusals);
        assert!(out.credential_count() >= 1, "staff credential disclosed");

        let mut s2 = IntensionalScenario::build();
        let denied = s2.run(GUEST, IntensionalScenario::print_goal("eng3a", GUEST));
        assert!(!denied.success, "guest lacks the staff credential");
    }

    #[test]
    fn monochrome_and_first_floor_are_open() {
        for printer in ["eng3m", "lobby1"] {
            let mut s = IntensionalScenario::build();
            let out = s.run(GUEST, IntensionalScenario::print_goal(printer, GUEST));
            assert!(out.success, "printer {printer}: {:#?}", out.refusals);
            assert_eq!(out.credential_count(), 0, "no negotiation for {printer}");
        }
    }

    #[test]
    fn one_intensional_rule_covers_new_printers() {
        // Adding a printer with the covered attributes extends the guarded
        // family without touching the policy.
        let mut s = IntensionalScenario::build();
        s.peers
            .get_mut(PeerId::new(SERVICE))
            .unwrap()
            .load_program("printer(eng3z). location(eng3z, floor3). color(eng3z).")
            .unwrap();
        let denied = s.run(GUEST, IntensionalScenario::print_goal("eng3z", GUEST));
        assert!(!denied.success);

        let mut s2 = IntensionalScenario::build();
        s2.peers
            .get_mut(PeerId::new(SERVICE))
            .unwrap()
            .load_program("printer(eng3z). location(eng3z, floor3). color(eng3z).")
            .unwrap();
        let ok = s2.run(STAFF, IntensionalScenario::print_goal("eng3z", STAFF));
        assert!(ok.success, "{:#?}", ok.refusals);
    }

    #[test]
    fn content_triggers_negotiation_only_for_classified_documents() {
        // Public document: no credentials requested or disclosed.
        let mut s = IntensionalScenario::build();
        let pub_out = s.run(GUEST, IntensionalScenario::fetch_goal("newsletter", GUEST));
        assert!(pub_out.success);
        assert_eq!(pub_out.credential_count(), 0);
        assert_eq!(pub_out.queries, 1, "only the top-level request");

        // Classified document: the clearance negotiation triggers.
        let mut s2 = IntensionalScenario::build();
        let cls_out = s2.run(STAFF, IntensionalScenario::fetch_goal("budget2026", STAFF));
        assert!(cls_out.success, "{:#?}", cls_out.refusals);
        assert!(cls_out.queries > 1, "content triggered a sub-negotiation");
        assert!(cls_out.credential_count() >= 1);

        // And fails for the uncleared guest.
        let mut s3 = IntensionalScenario::build();
        let denied = s3.run(GUEST, IntensionalScenario::fetch_goal("budget2026", GUEST));
        assert!(!denied.success);
    }

    #[test]
    fn enumerating_accessible_printers() {
        // A variable goal enumerates exactly the printers this requester
        // may use — the intensional family materialized per requester.
        let mut s = IntensionalScenario::build();
        let out = s.run(
            GUEST,
            Literal::new("print", vec![Term::var("P"), Term::str(GUEST)]),
        );
        assert!(out.success);
        let printers: Vec<String> = out.granted.iter().map(|g| g.args[0].to_string()).collect();
        // Guest: monochrome (eng3m, lobby1 via mono) + floor1 (lobby1,
        // deduped) — but NOT the color third-floor machines.
        assert!(printers.contains(&"eng3m".to_string()));
        assert!(printers.contains(&"lobby1".to_string()));
        assert!(!printers.contains(&"eng3a".to_string()));
        assert!(!printers.contains(&"eng3b".to_string()));
    }
}
