//! Differential property test: SLD with answer tabling on and off yields
//! identical answer *sets* for random definite (function-free) programs.
//! Tabling dedups answers reached by several proofs, so the comparison is
//! on canonicalized instance sets, not multisets.

use peertrust_core::prelude::*;
use peertrust_engine::{canonicalize, AnswerTable, EngineConfig, Solver};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A random safe Datalog program over a small universe, mirroring the
/// generator in `prop_agreement.rs`: EDB facts `e{i}(c, c)` plus rules
/// `p{k}(X, Y) <- body...` where every head variable is bound by a
/// non-builtin body literal.
#[derive(Clone, Debug)]
struct Program {
    rules: Vec<Rule>,
}

fn arb_const() -> impl Strategy<Value = Term> {
    (0i64..4).prop_map(Term::int)
}

fn arb_program() -> impl Strategy<Value = Program> {
    let facts = prop::collection::vec(
        (0u32..3, arb_const(), arb_const())
            .prop_map(|(p, a, b)| Rule::fact(Literal::new(format!("e{p}").as_str(), vec![a, b]))),
        1..8,
    );
    let rules = prop::collection::vec(
        (0u32..2, 0u32..3, 0u32..3, any::<bool>(), any::<bool>()).prop_map(
            |(hk, b1, b2, use_idb, chain)| {
                let (x, y, z) = (Term::var("X"), Term::var("Y"), Term::var("Z"));
                let head = Literal::new(format!("p{hk}").as_str(), vec![x.clone(), y.clone()]);
                let first = Literal::new(
                    format!("e{b1}").as_str(),
                    vec![x.clone(), if chain { z.clone() } else { y.clone() }],
                );
                let second_name = if use_idb {
                    format!("p{}", b2 % 2)
                } else {
                    format!("e{b2}")
                };
                let second = Literal::new(second_name.as_str(), vec![if chain { z } else { x }, y]);
                Rule::horn(head, vec![first, second])
            },
        ),
        0..5,
    );
    (facts, rules).prop_map(|(f, r)| Program {
        rules: f.into_iter().chain(r).collect(),
    })
}

/// All answers for `goal`, as a canonical instance set.
fn answer_set(kb: &KnowledgeBase, goal: &Literal, tabling: bool) -> (BTreeSet<String>, bool) {
    let mut solver = Solver::new(kb, PeerId::new("self")).with_config(EngineConfig {
        max_solutions: 512,
        max_steps: 500_000,
        tabling,
        ..EngineConfig::default()
    });
    let sols = solver.solve(std::slice::from_ref(goal));
    let set = sols
        .iter()
        .map(|s| canonicalize(&s.subst.apply_literal(goal)).to_string())
        .collect();
    (set, solver.stats().step_budget_exhausted)
}

/// All answers for `goal` through a shared (warm) answer table.
fn shared_answer_set(
    kb: &KnowledgeBase,
    goal: &Literal,
    table: &Arc<AnswerTable>,
) -> (BTreeSet<String>, bool) {
    let mut solver = Solver::new(kb, PeerId::new("self"))
        .with_config(EngineConfig {
            max_solutions: 512,
            max_steps: 500_000,
            tabling: true,
            ..EngineConfig::default()
        })
        .with_table(Arc::clone(table));
    let sols = solver.solve(std::slice::from_ref(goal));
    let set = sols
        .iter()
        .map(|s| canonicalize(&s.subst.apply_literal(goal)).to_string())
        .collect();
    (set, solver.stats().step_budget_exhausted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// For every queryable predicate pattern, the tabled and untabled
    /// solvers agree on the set of derived instances.
    #[test]
    fn tabling_preserves_answer_sets(prog in arb_program()) {
        let kb: KnowledgeBase = prog.rules.iter().cloned().collect();
        for pred in ["p0", "p1", "e0", "e1", "e2"] {
            let goal = Literal::new(pred, vec![Term::var("A"), Term::var("B")]);
            let (plain, plain_exhausted) = answer_set(&kb, &goal, false);
            let (tabled, tabled_exhausted) = answer_set(&kb, &goal, true);
            // A run that blew the step budget saw a truncated search
            // space; answer sets are only comparable on finished runs.
            prop_assume!(!plain_exhausted && !tabled_exhausted);
            prop_assert_eq!(
                &plain, &tabled,
                "answer sets diverge for {}: plain {:?} vs tabled {:?}",
                pred, plain, tabled
            );
        }
    }

    /// A shared table preserves answer sets too — including when
    /// one warm table is reused across every query of the program (the
    /// sharing pattern of the batch scheduler's solver threads).
    #[test]
    fn concurrent_tabling_preserves_answer_sets(prog in arb_program()) {
        let kb: KnowledgeBase = prog.rules.iter().cloned().collect();
        let table = Arc::new(AnswerTable::new());
        for pred in ["p0", "p1", "e0", "e1", "e2"] {
            let goal = Literal::new(pred, vec![Term::var("A"), Term::var("B")]);
            let (plain, plain_exhausted) = answer_set(&kb, &goal, false);
            let (shared, shared_exhausted) = shared_answer_set(&kb, &goal, &table);
            prop_assume!(!plain_exhausted && !shared_exhausted);
            prop_assert_eq!(
                &plain, &shared,
                "answer sets diverge for {}: plain {:?} vs concurrent-tabled {:?}",
                pred, plain, shared
            );
        }
    }

    /// Ground queries agree too (provability, not just enumeration).
    #[test]
    fn tabling_preserves_ground_provability(prog in arb_program(), a in 0i64..4, b in 0i64..4) {
        let kb: KnowledgeBase = prog.rules.iter().cloned().collect();
        for pred in ["p0", "p1"] {
            let goal = Literal::new(pred, vec![Term::int(a), Term::int(b)]);
            let (plain, pe) = answer_set(&kb, &goal, false);
            let (tabled, te) = answer_set(&kb, &goal, true);
            prop_assume!(!pe && !te);
            prop_assert_eq!(plain.is_empty(), tabled.is_empty(), "{} provability", pred);
        }
    }

    /// A second solve over the same table reuses completed variants: it
    /// never tries more rules than the cold solve, and hits the table for
    /// any variant the cold run completed.
    #[test]
    fn warm_solve_never_works_harder(prog in arb_program()) {
        let kb: KnowledgeBase = prog.rules.iter().cloned().collect();
        let goal = [Literal::new("p0", vec![Term::var("A"), Term::var("B")])];
        let mut solver = Solver::new(&kb, PeerId::new("self")).with_config(EngineConfig {
            max_solutions: 512,
            max_steps: 500_000,
            tabling: true,
            ..EngineConfig::default()
        });
        let cold = solver.solve(&goal);
        prop_assume!(!solver.stats().step_budget_exhausted);
        let cold_tries = solver.stats().rule_tries;
        let cold_answers: BTreeSet<String> = cold
            .iter()
            .map(|s| canonicalize(&s.subst.apply_literal(&goal[0])).to_string())
            .collect();

        let warm = solver.solve(&goal);
        let warm_answers: BTreeSet<String> = warm
            .iter()
            .map(|s| canonicalize(&s.subst.apply_literal(&goal[0])).to_string())
            .collect();
        prop_assert_eq!(cold_answers, warm_answers);
        prop_assert!(
            solver.stats().rule_tries <= cold_tries * 2,
            "warm solve re-derived from scratch: cold {} tries, total {}",
            cold_tries,
            solver.stats().rule_tries
        );
    }
}
