//! Compiled-vs-reference differential property tests: the solver running
//! over a WAM-lite compiled KB ([`peertrust_engine::CompiledKb`]) is
//! observationally identical to both the interpreted solver and the
//! clone-per-branch reference interpreter on random policy graphs — same
//! solution sets, in the same order, with the same proof sketches — clean
//! and with tabling, and whole table contents agree entry by entry.
//!
//! Two compiled artifacts run as independent lanes: the full lowering
//! (head get-instructions *and* body put-instructions,
//! [`CompiledKb::compile`]) and the heads-only artifact
//! ([`CompiledKb::compile_heads_only`]), which falls back to interpreted
//! body instantiation. Divergence between them isolates a bug to the
//! body bytecode; divergence of both from the interpreter isolates it to
//! head matching or dispatch.

use peertrust_core::prelude::*;
use peertrust_engine::{
    canonicalize, AnswerTable, CompiledKb, EngineConfig, Proof, RefSolver, Solution, Solver,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Same random safe-program generator as `prop_differential.rs`: EDB
/// facts over a small constant universe, IDB rules with optional chain
/// variables and builtin guards.
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
        (
            0u32..2,
            0u32..3,
            0u32..3,
            any::<bool>(),
            any::<bool>(),
            prop::option::of(0i64..4),
        )
            .prop_map(|(hk, b1, b2, use_idb, chain, guard)| {
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
                let second = Literal::new(
                    second_name.as_str(),
                    vec![if chain { z } else { x.clone() }, y],
                );
                let mut body = vec![first, second];
                if let Some(bound) = guard {
                    body.push(Literal::cmp("<=", x, Term::int(bound)));
                }
                Rule::horn(head, body)
            }),
        0..5,
    );
    (facts, rules).prop_map(|(f, r)| Program {
        rules: f.into_iter().chain(r).collect(),
    })
}

/// Random delegation programs: ground `d{p}(a,b) @ "auth{k}"` facts, an
/// optional open-authority rule `d{p}(X,Y) @ V <- base(X,Y)` (lands in
/// the index's open bucket), and `q` rules whose bodies delegate to a
/// fixed authority. Exercises the `(pred, arity, authority-length)`
/// dispatch key and the switch-on-authority second-level index.
fn arb_auth_program() -> impl Strategy<Value = Program> {
    let base = prop::collection::vec(
        (arb_const(), arb_const()).prop_map(|(a, b)| Rule::fact(Literal::new("base", vec![a, b]))),
        1..4,
    );
    let delegated = prop::collection::vec(
        (0u32..2, arb_const(), arb_const(), 0u32..2).prop_map(|(p, a, b, k)| {
            Rule::fact(
                Literal::new(format!("d{p}").as_str(), vec![a, b])
                    .at(Term::str(format!("auth{k}").as_str())),
            )
        }),
        1..6,
    );
    let open = prop::collection::vec(
        (0u32..2).prop_map(|p| {
            let (x, y) = (Term::var("X"), Term::var("Y"));
            Rule::horn(
                Literal::new(format!("d{p}").as_str(), vec![x.clone(), y.clone()])
                    .at(Term::var("V")),
                vec![Literal::new("base", vec![x, y])],
            )
        }),
        0..2,
    );
    let deleg_rules = prop::collection::vec(
        (0u32..2, 0u32..2).prop_map(|(p, k)| {
            let (x, y) = (Term::var("X"), Term::var("Y"));
            Rule::horn(
                Literal::new("q", vec![x.clone(), y.clone()]),
                vec![Literal::new(format!("d{p}").as_str(), vec![x, y])
                    .at(Term::str(format!("auth{k}").as_str()))],
            )
        }),
        0..3,
    );
    (base, delegated, open, deleg_rules).prop_map(|(b, d, o, r)| Program {
        rules: b.into_iter().chain(d).chain(o).chain(r).collect(),
    })
}

fn config() -> EngineConfig {
    EngineConfig {
        max_solutions: 512,
        max_steps: 500_000,
        ..EngineConfig::default()
    }
}

/// Render one solution as (answer instances, proof sketch) with
/// variables canonicalized per literal — identical evaluations must
/// render equal.
fn render(goals: &[Literal], sol: &Solution) -> (Vec<String>, Vec<String>) {
    fn sketch(p: &Proof, out: &mut Vec<String>) {
        out.push(format!("{:?} {}", p.step, canonicalize(&p.goal)));
        for c in &p.children {
            sketch(c, out);
        }
    }
    let mut proofs = Vec::new();
    for p in &sol.proofs {
        sketch(p, &mut proofs);
    }
    let instances = goals
        .iter()
        .map(|g| canonicalize(&sol.subst.apply_literal(g)).to_string())
        .collect();
    (instances, proofs)
}

/// The program's KB plus a ternary rule, so probe queries can repeat a
/// variable at non-adjacent positions of one literal.
fn probe_kb(prog: &Program) -> KnowledgeBase {
    let (x, y, z) = (Term::var("X"), Term::var("Y"), Term::var("Z"));
    let t = Rule::horn(
        Literal::new("t", vec![x.clone(), y.clone(), z.clone()]),
        vec![
            Literal::new("p0", vec![x, y.clone()]),
            Literal::new("e0", vec![y, z]),
        ],
    );
    prog.rules.iter().cloned().chain([t]).collect()
}

/// Query conjunctions every lane must agree on: each IDB/EDB predicate
/// with distinct variables, plus a variable repeated at non-adjacent
/// positions inside one literal (`t(A, B, A)`) and across a conjunction
/// (`p0(A, B), e1(A, C)`) — each answer must bind `A` exactly once.
fn probe_goals() -> Vec<Vec<Literal>> {
    let (a, b, c) = (Term::var("A"), Term::var("B"), Term::var("C"));
    let pair = |p: &str| Literal::new(p, vec![a.clone(), b.clone()]);
    vec![
        vec![pair("p0")],
        vec![pair("p1")],
        vec![pair("e0")],
        vec![Literal::new("t", vec![a.clone(), b.clone(), a.clone()])],
        vec![pair("p0"), Literal::new("e1", vec![a.clone(), c])],
    ]
}

/// Canonical snapshot of a whole answer table: variant key -> sorted
/// canonicalized answers (completed entries only).
fn table_snapshot(table: &AnswerTable) -> BTreeMap<String, BTreeSet<String>> {
    table
        .entries()
        .into_iter()
        .filter(|(_, d, _)| *d == peertrust_engine::Disposition::Complete)
        .map(|(k, _, answers)| {
            (
                canonicalize(&k).to_string(),
                answers
                    .iter()
                    .map(|a| canonicalize(&a.answer).to_string())
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Body-compiled, heads-only-compiled, interpreted, and reference
    /// evaluation agree — same instances, same order, same proof sketches.
    #[test]
    fn compiled_matches_interpreter_and_reference(prog in arb_program()) {
        let kb = probe_kb(&prog);
        let compiled = Arc::new(CompiledKb::compile(&kb));
        let heads_only = Arc::new(CompiledKb::compile_heads_only(&kb));
        prop_assert!(compiled.has_bodies());
        prop_assert!(!heads_only.has_bodies());
        for goals in probe_goals() {
            let mut cs = Solver::new(&kb, PeerId::new("self"))
                .with_config(config())
                .with_compiled(compiled.clone());
            let got = cs.solve(&goals);
            prop_assume!(!cs.stats().step_budget_exhausted);
            prop_assert_eq!(cs.stats().compiled_stale, 0, "artifact wrongly stale");

            let mut hs = Solver::new(&kb, PeerId::new("self"))
                .with_config(config())
                .with_compiled(heads_only.clone());
            let want_h = hs.solve(&goals);
            prop_assert_eq!(hs.stats().compiled_body_instrs, 0, "heads-only ran body bytecode");

            let mut interp = Solver::new(&kb, PeerId::new("self")).with_config(config());
            let want_i = interp.solve(&goals);
            let mut reference = RefSolver::new(&kb, PeerId::new("self")).with_config(config());
            let want_r = reference.solve(&goals);

            let got_c: Vec<_> = got.iter().map(|s| render(&goals, s)).collect();
            let want_hr: Vec<_> = want_h.iter().map(|s| render(&goals, s)).collect();
            let want_ir: Vec<_> = want_i.iter().map(|s| render(&goals, s)).collect();
            let want_rr: Vec<_> = want_r.iter().map(|s| render(&goals, s)).collect();
            prop_assert_eq!(
                &got_c, &want_hr,
                "body-compiled diverges from heads-only on {:?}", goals
            );
            prop_assert_eq!(
                &got_c, &want_ir,
                "compiled diverges from interpreter on {:?}", goals
            );
            prop_assert_eq!(
                &got_c, &want_rr,
                "compiled diverges from reference on {:?}", goals
            );
        }
    }

    /// With tabling on, the compiled path fills the answer table with
    /// exactly what the interpreted path does — same variants, same
    /// answer sets — and both solvers return identical solutions.
    #[test]
    fn compiled_tabling_matches_interpreted_tabling(prog in arb_program()) {
        let kb = probe_kb(&prog);
        let compiled = Arc::new(CompiledKb::compile(&kb));
        let heads_only = Arc::new(CompiledKb::compile_heads_only(&kb));
        let tabled = EngineConfig { tabling: true, ..config() };
        for goals in probe_goals() {
            let ct = Arc::new(AnswerTable::new());
            let mut cs = Solver::new(&kb, PeerId::new("self"))
                .with_config(tabled)
                .with_table(ct.clone())
                .with_compiled(compiled.clone());
            let got = cs.solve(&goals);
            prop_assume!(!cs.stats().step_budget_exhausted);

            let ht = Arc::new(AnswerTable::new());
            let mut hs = Solver::new(&kb, PeerId::new("self"))
                .with_config(tabled)
                .with_table(ht.clone())
                .with_compiled(heads_only.clone());
            let want_h = hs.solve(&goals);

            let it = Arc::new(AnswerTable::new());
            let mut is = Solver::new(&kb, PeerId::new("self"))
                .with_config(tabled)
                .with_table(it.clone());
            let want = is.solve(&goals);

            let got_r: Vec<_> = got.iter().map(|s| render(&goals, s)).collect();
            let hdso_r: Vec<_> = want_h.iter().map(|s| render(&goals, s)).collect();
            let want_r: Vec<_> = want.iter().map(|s| render(&goals, s)).collect();
            prop_assert_eq!(&got_r, &hdso_r, "tabled solutions diverge from heads-only on {:?}", goals);
            prop_assert_eq!(&got_r, &want_r, "tabled solutions diverge on {:?}", goals);

            let got_t = table_snapshot(&ct);
            let hdso_t = table_snapshot(&ht);
            let want_t = table_snapshot(&it);
            prop_assert_eq!(&got_t, &hdso_t, "table contents diverge from heads-only on {:?}", goals);
            prop_assert_eq!(&got_t, &want_t, "table contents diverge on {:?}", goals);
        }
    }

    /// Appending rules after compilation (the negotiation pattern:
    /// credentials pushed mid-session) must not lose or corrupt answers:
    /// the prefix-fit compiled solver agrees with a fully interpreted
    /// solver over the grown KB.
    #[test]
    fn prefix_fit_matches_interpreter_after_appends(prog in arb_program(), extra in prop::collection::vec((0u32..3, arb_const(), arb_const()), 1..4)) {
        let mut kb: KnowledgeBase = prog.rules.iter().cloned().collect();
        let compiled = Arc::new(CompiledKb::compile(&kb));
        let heads_only = Arc::new(CompiledKb::compile_heads_only(&kb));
        for (p, a, b) in extra {
            kb.add_local(Rule::fact(Literal::new(format!("e{p}").as_str(), vec![a, b])));
        }
        for pred in ["p0", "e0"] {
            let goal = Literal::new(pred, vec![Term::var("A"), Term::var("B")]);
            let mut cs = Solver::new(&kb, PeerId::new("self"))
                .with_config(config())
                .with_compiled(compiled.clone());
            let got = cs.solve(std::slice::from_ref(&goal));
            prop_assume!(!cs.stats().step_budget_exhausted);
            prop_assert_eq!(cs.stats().compiled_stale, 0, "append must not go stale");

            let mut hs = Solver::new(&kb, PeerId::new("self"))
                .with_config(config())
                .with_compiled(heads_only.clone());
            let want_h = hs.solve(std::slice::from_ref(&goal));

            let mut interp = Solver::new(&kb, PeerId::new("self")).with_config(config());
            let want = interp.solve(std::slice::from_ref(&goal));

            let got_r: Vec<_> = got.iter().map(|s| render(std::slice::from_ref(&goal), s)).collect();
            let hdso_r: Vec<_> = want_h.iter().map(|s| render(std::slice::from_ref(&goal), s)).collect();
            let want_r: Vec<_> = want.iter().map(|s| render(std::slice::from_ref(&goal), s)).collect();
            prop_assert_eq!(&got_r, &hdso_r, "prefix-fit diverges from heads-only on {}", pred);
            prop_assert_eq!(&got_r, &want_r, "prefix-fit diverges on {}", pred);
        }
    }

    /// Delegation literals with `@ Authority` chains dispatch through the
    /// `(pred, arity, authority-length)` key and the switch-on-authority
    /// second-level index. All four lanes must agree on who can prove
    /// what — including rules whose bodies delegate to an authority.
    #[test]
    fn authority_dispatch_matches_interpreter(prog in arb_auth_program()) {
        let kb: KnowledgeBase = prog.rules.iter().cloned().collect();
        let compiled = Arc::new(CompiledKb::compile(&kb));
        let heads_only = Arc::new(CompiledKb::compile_heads_only(&kb));
        for (pred, auth) in [("d0", Some("auth0")), ("d0", Some("auth1")), ("d1", Some("auth0")), ("q", None)] {
            let mut goal = Literal::new(pred, vec![Term::var("A"), Term::var("B")]);
            if let Some(a) = auth {
                goal = goal.at(Term::str(a));
            }

            let mut cs = Solver::new(&kb, PeerId::new("self"))
                .with_config(config())
                .with_compiled(compiled.clone());
            let got = cs.solve(std::slice::from_ref(&goal));
            prop_assume!(!cs.stats().step_budget_exhausted);
            prop_assert_eq!(cs.stats().compiled_stale, 0, "artifact wrongly stale");

            let mut hs = Solver::new(&kb, PeerId::new("self"))
                .with_config(config())
                .with_compiled(heads_only.clone());
            let want_h = hs.solve(std::slice::from_ref(&goal));

            let mut interp = Solver::new(&kb, PeerId::new("self")).with_config(config());
            let want_i = interp.solve(std::slice::from_ref(&goal));
            let mut reference = RefSolver::new(&kb, PeerId::new("self")).with_config(config());
            let want_r = reference.solve(std::slice::from_ref(&goal));

            let got_c: Vec<_> = got.iter().map(|s| render(std::slice::from_ref(&goal), s)).collect();
            let want_hr: Vec<_> = want_h.iter().map(|s| render(std::slice::from_ref(&goal), s)).collect();
            let want_ir: Vec<_> = want_i.iter().map(|s| render(std::slice::from_ref(&goal), s)).collect();
            let want_rr: Vec<_> = want_r.iter().map(|s| render(std::slice::from_ref(&goal), s)).collect();
            prop_assert_eq!(
                &got_c, &want_hr,
                "auth dispatch diverges from heads-only on {}@{:?}", pred, auth
            );
            prop_assert_eq!(
                &got_c, &want_ir,
                "auth dispatch diverges from interpreter on {}@{:?}", pred, auth
            );
            prop_assert_eq!(
                &got_c, &want_rr,
                "auth dispatch diverges from reference on {}@{:?}", pred, auth
            );
        }
    }
}
