//! Multi-thread stress test for one shared [`AnswerTable`]: 8 threads
//! hammer one table on overlapping goal variants and every thread's
//! answer sets must equal a single-threaded reference run.
//!
//! This extends the `prop_tabling.rs` differential into the concurrent
//! regime: the single-threaded differential shows tabling preserves
//! answer sets; this one shows *sharing the table between racing
//! threads* preserves them too (racing `begin`s, interleaved
//! `complete`s, inline fallbacks through other threads' in-progress
//! marks).

use peertrust_core::prelude::*;
use peertrust_engine::{canonicalize, AnswerTable, EngineConfig, Solver};
use std::collections::BTreeSet;
use std::sync::Arc;

const THREADS: usize = 8;
const ROUNDS: usize = 4;

/// A transitive-closure program with several entry points, so every
/// thread's query DAG overlaps every other's: `path` recursion funnels
/// all threads through the same `edge`/`path` variants.
fn reachability_kb(n: i64) -> KnowledgeBase {
    let mut rules: Vec<Rule> = Vec::new();
    for i in 0..n {
        rules.push(Rule::fact(Literal::new(
            "edge",
            vec![Term::int(i), Term::int(i + 1)],
        )));
    }
    // Branching edges so variants carry more than one answer.
    for i in 0..n / 2 {
        rules.push(Rule::fact(Literal::new(
            "edge",
            vec![Term::int(i), Term::int(i + 2)],
        )));
    }
    let (x, y, z) = (Term::var("X"), Term::var("Y"), Term::var("Z"));
    rules.push(Rule::horn(
        Literal::new("path", vec![x.clone(), y.clone()]),
        vec![Literal::new("edge", vec![x.clone(), y.clone()])],
    ));
    rules.push(Rule::horn(
        Literal::new("path", vec![x.clone(), y.clone()]),
        vec![
            Literal::new("edge", vec![x, z.clone()]),
            Literal::new("path", vec![z, y]),
        ],
    ));
    rules.into_iter().collect()
}

fn goals(n: i64) -> Vec<Literal> {
    let mut gs = vec![Literal::new("path", vec![Term::var("A"), Term::var("B")])];
    for i in 0..n {
        gs.push(Literal::new("path", vec![Term::int(i), Term::var("B")]));
        gs.push(Literal::new("path", vec![Term::var("A"), Term::int(i)]));
    }
    gs
}

fn config() -> EngineConfig {
    EngineConfig {
        max_solutions: 4096,
        max_steps: 10_000_000,
        table_max_answers: 4096,
        tabling: true,
        ..EngineConfig::default()
    }
}

fn answer_set(goal: &Literal, solver: &mut Solver) -> BTreeSet<String> {
    solver
        .solve(std::slice::from_ref(goal))
        .iter()
        .map(|s| canonicalize(&s.subst.apply_literal(goal)).to_string())
        .collect()
}

#[test]
fn eight_threads_sharing_one_table_agree_with_single_threaded_run() {
    let n = 8i64;
    let kb = reachability_kb(n);
    let goal_list = goals(n);

    // Reference: single-threaded, untabled (ground truth semantics).
    let reference: Vec<BTreeSet<String>> = goal_list
        .iter()
        .map(|g| {
            let mut solver = Solver::new(&kb, PeerId::new("self")).with_config(EngineConfig {
                tabling: false,
                ..config()
            });
            answer_set(g, &mut solver)
        })
        .collect();

    let table = Arc::new(AnswerTable::new());
    let results: Vec<Vec<Vec<BTreeSet<String>>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let kb = &kb;
                let goal_list = &goal_list;
                let table = Arc::clone(&table);
                scope.spawn(move || {
                    let mut per_round = Vec::new();
                    for round in 0..ROUNDS {
                        // Each thread starts at a different offset so the
                        // first probes race on different variants, then
                        // overlap as the round progresses.
                        let mut sets = vec![BTreeSet::new(); goal_list.len()];
                        for k in 0..goal_list.len() {
                            let idx = (k + t * 3 + round) % goal_list.len();
                            let mut solver = Solver::new(kb, PeerId::new("self"))
                                .with_config(config())
                                .with_table(Arc::clone(&table));
                            sets[idx] = answer_set(&goal_list[idx], &mut solver);
                        }
                        per_round.push(sets);
                    }
                    per_round
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (t, per_round) in results.iter().enumerate() {
        for (round, sets) in per_round.iter().enumerate() {
            for (i, set) in sets.iter().enumerate() {
                assert_eq!(
                    set, &reference[i],
                    "thread {t} round {round} diverged on goal {}",
                    goal_list[i]
                );
            }
        }
    }

    // The shared table actually absorbed the cross-thread traffic: far
    // more probes hit than variants were evaluated.
    let stats = table.stats();
    assert!(stats.hits > stats.misses, "expected warm reuse: {stats:?}");
    assert!(!table.is_empty());
}

#[test]
fn concurrent_table_stats_add_up_under_contention() {
    let kb = reachability_kb(6);
    let goal = Literal::new("path", vec![Term::var("A"), Term::var("B")]);
    let table = Arc::new(AnswerTable::new());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let kb = &kb;
            let goal = &goal;
            let table = Arc::clone(&table);
            scope.spawn(move || {
                let mut solver = Solver::new(kb, PeerId::new("self"))
                    .with_config(config())
                    .with_table(table);
                let _ = solver.solve(std::slice::from_ref(goal));
            });
        }
    });
    let stats = table.stats();
    // Every miss became exactly one completed entry (no lost updates):
    // racing threads may both begin the same variant, so misses ≥ len,
    // and every recorded answer was counted by an insert.
    assert!(stats.misses >= table.len() as u64);
    assert!(stats.inserts >= table.answer_count() as u64);
}
