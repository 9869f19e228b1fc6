//! WAM-lite policy compilation: a one-shot compiler from a peer's
//! [`KnowledgeBase`] to a flat bytecode KB the solver resolves against
//! without per-use clause renaming.
//!
//! ## What is compiled away
//!
//! The interpreted hot path pays, per candidate clause per goal:
//!
//! 1. **Standardize-apart renaming** — `Rule::rename_apart_indexed`
//!    rebuilds the whole rule (head, contexts, body) with fresh variable
//!    versions *before* knowing whether the head even matches.
//! 2. **Head materialization** — the renamed head literal is allocated
//!    just to be torn apart again by `unify_literals_in`.
//! 3. **Candidate collection** — `KnowledgeBase::candidates` may merge
//!    two index buckets into a fresh `Vec` per goal selection.
//!
//! Compilation does each of these once, at compile time:
//!
//! * Every clause gets a **register frame**: its variables are renumbered
//!   `1..=nvars` by the same monotone-counter scheme the interpreter
//!   uses, but frozen into the clause. At run time, "renaming" is adding
//!   the solver's counter to a version — no term is rebuilt
//!   ([`peertrust_core::offset_term`] instantiates the body lazily, and
//!   head unification never materializes the renamed head at all).
//! * Head unification is lowered to **get instructions**
//!   ([`HeadInstr`]), matched argument-by-argument against the goal over
//!   the existing [`Bindings`] trail: ground arguments compare
//!   structurally with zero allocation, first-occurrence variables bind
//!   infallibly without an occurs check, and only genuinely compound
//!   patterns fall back to full (offset) unification.
//! * Body goals are lowered to **put instructions** ([`BodyInstr`]):
//!   when a clause is selected, each body literal is built directly
//!   against the binding store by [`CompiledGoal::materialize`] — ground
//!   subterms are shared (`Arc` bump), first-occurrence variables emit a
//!   renamed var with *no* store lookup (they are provably unbound at
//!   selection time), and bound variables resolve through
//!   [`Bindings::apply_offset`], a fused rename+resolve. The agenda holds
//!   `(clause goals, index, base)` triples instead of instantiated
//!   literals, so unexplored alternatives cost nothing. Arguments and
//!   authority cells are staged on the bindings' bump
//!   [`TermHeap`](peertrust_core::heap::TermHeap) and split into the literal's
//!   `args`/`authority` vectors in one drain.
//! * Clause selection is a **switch-on-constant dispatch**
//!   ([`CompiledKb::dispatch`]): per `(predicate, arity,
//!   authority-length)` key, a table from first-argument [`IndexKey`] to
//!   a *pre-merged* candidate list (exact-key clauses ∪ variable-headed
//!   clauses, in clause order), so goal selection is one hash lookup
//!   returning a borrowed slice. Keying on authority-chain *length* is
//!   sound because unification requires equal-length authority chains;
//!   it makes the §3.2 self-closure probe (`goal @ Self`, one extra
//!   authority) a guaranteed miss instead of a scan. When the first
//!   argument is open, a **switch-on-authority** second level
//!   discriminates on the outermost authority's [`IndexKey`] (delegation
//!   literals `p(X) @ "Authority"`), with clauses whose authority is a
//!   variable merged into every bucket; per-clause `auth_key` fast-
//!   rejects mismatched ground authorities before head instructions run.
//!
//! ## Invalidation (the PR 2 fingerprint mechanism)
//!
//! A compiled KB captures [`KnowledgeBase::fingerprint`] at compile time.
//! Before consulting it, the solver checks [`CompiledKb::fit`]:
//!
//! * **`Full`** — the KB is exactly the compiled snapshot.
//! * **`Prefix`** — the KB *starts with* the snapshot (credentials pushed
//!   during a negotiation append rules; KBs are append-only). Compiled
//!   clauses cover rule ids `0..prefix_len`; the solver resolves the
//!   uncompiled suffix interpretively, preserving global clause order.
//! * **`Stale`** — the KB diverged from the snapshot (a different KB was
//!   handed to the solver). The compiled KB is *never consulted*; the
//!   solver falls back to full interpretation and counts
//!   `engine.compiled.stale`.
//!
//! Differential oracles: the interpreter itself (compiled off), the
//! heads-only artifact ([`CompiledKb::compile_heads_only`], which keeps
//! PR 7's interpreted body instantiation), and
//! [`crate::reference::RefSolver`]; see `tests/prop_compiled.rs`.

use peertrust_core::{
    offset_term, unify_ground_in, unify_offset_in, Bindings, IndexKey, KbFingerprint,
    KnowledgeBase, Literal, Rule, RuleId, Sym, Term, UnifyOptions, Var,
};
use std::sync::Arc;

/// One head-argument matching instruction. The clause's variables are
/// frame-relative: version `v` stands for the runtime variable
/// `Var { name, version: v + base }` where `base` is the solver's rename
/// counter at match entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeadInstr {
    /// A ground argument: structural comparison against the goal term
    /// (binds the goal side if it is an unbound variable). No renaming,
    /// no occurs check, no allocation on the match path.
    GetConst(Term),
    /// First occurrence of a whole-argument clause variable: bind the
    /// fresh frame slot to the (walked) goal term. Infallible — the slot
    /// is fresh, so neither a rebind nor an occurs violation is possible.
    GetVar(Var),
    /// A later occurrence of a clause variable: full unification of the
    /// slot's current value against the goal term.
    GetVal(Var),
    /// A non-ground compound argument: offset unification
    /// ([`unify_offset_in`]), which renames clause variables lazily one
    /// at a time instead of instantiating the pattern.
    GetTerm(Term),
}

/// One body-argument construction instruction — the put side of the
/// WAM split. Where get instructions *match* a goal that already exists,
/// put instructions *build* the body goal the solver is about to select,
/// directly against the binding store, with the same frame-offset
/// renaming convention as [`HeadInstr`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BodyInstr {
    /// A ground argument: emitted by reference (compound payloads are
    /// `Arc`-shared with the compiled clause, never rebuilt).
    PutConst(Term),
    /// First clause-wide occurrence of a variable, and that occurrence is
    /// in this literal: nothing selected earlier (head, prior body goals)
    /// can mention it, so it is provably unbound here — emit the offset
    /// variable without consulting the store.
    PutVar(Var),
    /// A variable already introduced by the head or an earlier body
    /// literal: it may be bound by now, so resolve it through the store
    /// ([`Bindings::apply_offset`] on the lone variable).
    PutVal(Var),
    /// A non-ground compound argument: fused rename-and-resolve
    /// ([`Bindings::apply_offset`]) in one structure-sharing pass —
    /// equivalent to `bs.apply(&offset_term(t, base))` without the
    /// intermediate renamed tree.
    PutTerm(Term),
}

/// One compiled body goal: the literal's shape plus its put program.
/// Executing the program against a binding store *materializes* the goal
/// exactly as the interpreter's `bs.apply_literal(offset body literal)`
/// selection step would — the argument cells are assembled on the
/// [`Bindings`] term heap and frozen into the boundary `Literal` in one
/// exact-size allocation per block.
#[derive(Clone, Debug)]
pub struct CompiledGoal {
    pred: Sym,
    args_len: usize,
    instrs: Box<[BodyInstr]>,
}

impl CompiledGoal {
    /// Build this goal at frame `base`, resolved under `bs`. Equivalent
    /// to `bs.apply_literal(&offset body literal)` but allocation-minimal:
    /// cells go through the store's bump heap, ground arguments are
    /// shared, and unbound variables are emitted without a lookup.
    pub fn materialize(&self, base: u32, bs: &mut Bindings) -> Literal {
        let mark = bs.heap_mark();
        for ins in self.instrs.iter() {
            let t = match ins {
                BodyInstr::PutConst(t) => t.clone(),
                BodyInstr::PutVar(v) => Term::Var(Var::versioned(v.name, v.version + base)),
                BodyInstr::PutVal(v) => bs.apply_offset(&Term::Var(*v), base),
                BodyInstr::PutTerm(t) => bs.apply_offset(t, base),
            };
            bs.heap_push(t);
        }
        let (args, authority) = bs.heap_take_split(mark, self.args_len);
        Literal {
            pred: self.pred,
            args,
            authority,
        }
    }

    /// Number of put instructions (the `engine.compiled.body_instrs`
    /// telemetry increment per execution).
    pub fn instr_count(&self) -> usize {
        self.instrs.len()
    }
}

/// One compiled clause: a register-frame layout plus head instructions
/// and a frame-relative body.
#[derive(Clone, Debug)]
pub struct CompiledClause {
    /// Id of the source rule in the KB this was compiled from.
    pub id: RuleId,
    /// Frame size: distinct variables in the source rule. A successful
    /// head match reserves this many versions off the solver's counter.
    pub nvars: u32,
    args_len: usize,
    auth_len: usize,
    /// Index key of the last head-authority term, when it has one: a
    /// goal whose own last authority term carries a *different* key can
    /// never unify (the keys discriminate exactly like first-argument
    /// indexing), so the head match rejects before touching the store.
    auth_key: Option<IndexKey>,
    /// Head instructions, one per argument then one per authority term.
    head: Vec<HeadInstr>,
    /// Body literals with frame-relative variable versions — the
    /// heads-only execution mode ([`CompiledKb::compile_heads_only`])
    /// still instantiates these via [`CompiledClause::body_instance`].
    body: Vec<Literal>,
    /// The body lowered to put programs, `Arc`-shared so agenda items can
    /// reference a goal without instantiating (or even copying) it.
    goals: Arc<[CompiledGoal]>,
}

impl CompiledClause {
    /// Match this clause's head against `goal`, writing bindings for
    /// frame `base` into `bs`. On failure the store is rolled back to
    /// entry state. Equivalent to renaming the source rule apart at
    /// `base` and calling `unify_literals_in(&renamed.head, goal, bs)`.
    pub fn match_head(&self, base: u32, goal: &Literal, bs: &mut Bindings) -> bool {
        if goal.args.len() != self.args_len || goal.authority.len() != self.auth_len {
            return false;
        }
        // Switch-on-term authority discriminator: reject on mismatched
        // last-authority keys without a checkpoint or a store access.
        if let (Some(ck), Some(gk)) = (
            self.auth_key,
            goal.authority.last().and_then(Term::index_key),
        ) {
            if ck != gk {
                return false;
            }
        }
        let opts = UnifyOptions::default();
        let cp = bs.checkpoint();
        for (i, ins) in self.head.iter().enumerate() {
            let gt = if i < self.args_len {
                &goal.args[i]
            } else {
                &goal.authority[i - self.args_len]
            };
            let ok = match ins {
                HeadInstr::GetVar(v) => {
                    let rv = Var::versioned(v.name, v.version + base);
                    let t = bs.walk(gt).clone();
                    // `rv` is fresh: nothing in `bs` or the goal can
                    // mention it yet, so this bind cannot cycle.
                    bs.bind(rv, t);
                    true
                }
                HeadInstr::GetVal(v) => unify_offset_in(&Term::Var(*v), base, gt, bs, opts),
                // Ground argument: in-place structural comparison — no
                // renaming is possible and no term is ever cloned.
                HeadInstr::GetConst(t) => unify_ground_in(t, gt, bs),
                HeadInstr::GetTerm(t) => unify_offset_in(t, base, gt, bs, opts),
            };
            if !ok {
                bs.rollback(cp);
                return false;
            }
        }
        true
    }

    /// The body as put programs, `Arc`-shared with this clause.
    pub fn goals(&self) -> Arc<[CompiledGoal]> {
        Arc::clone(&self.goals)
    }

    /// Instantiate the body at frame `base`: shift every variable version
    /// up by `base`, sharing ground subterms with the compiled clause.
    pub fn body_instance(&self, base: u32) -> Vec<Literal> {
        self.body
            .iter()
            .map(|l| Literal {
                pred: l.pred,
                args: l.args.iter().map(|t| offset_term(t, base)).collect(),
                authority: l.authority.iter().map(|t| offset_term(t, base)).collect(),
            })
            .collect()
    }
}

/// Per-predicate dispatch tables. The index key already discriminates on
/// authority-chain *length* (heads with a different chain length can
/// never match), so every clause in one `PredIndex` shares an arity and
/// an authority arity.
#[derive(Clone, Debug, Default)]
struct PredIndex {
    /// Every clause for this predicate, in clause order.
    all: Vec<u32>,
    /// Clauses whose first head argument is a variable (or arity 0).
    var_headed: Vec<u32>,
    /// Switch-on-constant: first-argument key -> pre-merged candidate
    /// list (exact-key ∪ var-headed, in clause order). Merging at compile
    /// time is what makes run-time dispatch a borrowed slice.
    by_const: peertrust_core::FxHashMap<IndexKey, Vec<u32>>,
    /// Second-level switch-on-term for goals whose first argument gives
    /// no narrowing: last-authority key -> pre-merged candidate list
    /// (exact-key ∪ open-authority, in clause order). `@ Authority`
    /// delegation literals are ubiquitous in PeerTrust policies and
    /// almost always carry a ground peer at the chain's end.
    by_auth: peertrust_core::FxHashMap<IndexKey, Vec<u32>>,
    /// Clauses whose last head-authority term has no index key (a
    /// variable authority, or no chain at all).
    auth_open: Vec<u32>,
}

/// How a compiled KB relates to the KB a solver is about to consult.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompiledFit {
    /// The KB is exactly the compiled snapshot.
    Full,
    /// The KB starts with the compiled snapshot; rules past
    /// [`CompiledKb::prefix_len`] are uncompiled.
    Prefix,
    /// The KB diverged from the snapshot — never consult this artifact.
    Stale,
}

/// A knowledge base compiled to dispatch tables and get/put-instruction
/// clauses. Immutable once built; share across solvers/threads via `Arc`.
#[derive(Clone, Debug)]
pub struct CompiledKb {
    clauses: Vec<CompiledClause>,
    /// Dispatch key: predicate, arity, authority-chain length. Folding
    /// the chain length into the key makes the §3.2 self-closure pass
    /// (which re-dispatches every goal with one extra authority term)
    /// free whenever no clause head carries a matching chain.
    index: peertrust_core::FxHashMap<(Sym, usize, usize), PredIndex>,
    prefix: KbFingerprint,
    /// Whether the solver should execute compiled bodies (put programs).
    /// `false` (heads-only, the PR 7 behaviour) instantiates bodies via
    /// [`CompiledClause::body_instance`] — kept as a differential oracle.
    bodies: bool,
}

impl CompiledKb {
    /// Compile every clause of `kb`, heads and bodies. Release-pattern
    /// self-rules (`p $ ctx <- p`) are derivationally inert disclosure
    /// licenses and are not compiled (the interpreter skips them
    /// identically).
    pub fn compile(kb: &KnowledgeBase) -> CompiledKb {
        CompiledKb::build(kb, true)
    }

    /// Compile with body execution disabled: heads are matched by get
    /// instructions, but bodies are instantiated copy-on-write as in
    /// PR 7. Exists as a mid-point oracle for the differential suite
    /// (interpreter vs heads-only vs body-compiled).
    pub fn compile_heads_only(kb: &KnowledgeBase) -> CompiledKb {
        CompiledKb::build(kb, false)
    }

    fn build(kb: &KnowledgeBase, bodies: bool) -> CompiledKb {
        let mut clauses = Vec::with_capacity(kb.len());
        let mut index: peertrust_core::FxHashMap<(Sym, usize, usize), PredIndex> =
            peertrust_core::FxHashMap::default();
        for sr in kb.iter() {
            if sr.rule.body.len() == 1 && sr.rule.body[0] == sr.rule.head {
                continue;
            }
            let ci = clauses.len() as u32;
            let clause = compile_clause(sr.id, &sr.rule);
            let head = &sr.rule.head;
            let entry = index
                .entry((head.pred, head.args.len(), head.authority.len()))
                .or_default();
            entry.all.push(ci);
            match head.args.first().and_then(Term::index_key) {
                Some(k) => entry.by_const.entry(k).or_default().push(ci),
                None => entry.var_headed.push(ci),
            }
            match head.authority.last().and_then(Term::index_key) {
                Some(k) => entry.by_auth.entry(k).or_default().push(ci),
                None => entry.auth_open.push(ci),
            }
            clauses.push(clause);
        }
        // Pre-merge the open chains into every keyed bucket, preserving
        // clause order (all lists are ascending).
        for p in index.values_mut() {
            for bucket in p.by_const.values_mut() {
                merge_into(bucket, &p.var_headed);
            }
            for bucket in p.by_auth.values_mut() {
                merge_into(bucket, &p.auth_open);
            }
        }
        CompiledKb {
            clauses,
            index,
            prefix: kb.fingerprint(),
            bodies,
        }
    }

    /// Does the solver execute compiled bodies against this artifact?
    pub fn has_bodies(&self) -> bool {
        self.bodies
    }

    /// Number of KB rules this artifact covers (rule ids `0..prefix_len`).
    pub fn prefix_len(&self) -> usize {
        self.prefix.rules
    }

    /// Number of compiled clauses (release-pattern self-rules excluded).
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// The fingerprint of the KB snapshot this was compiled from.
    pub fn fingerprint(&self) -> KbFingerprint {
        self.prefix
    }

    /// Does this artifact still describe (a prefix of) `kb`?
    pub fn fit(&self, kb: &KnowledgeBase) -> CompiledFit {
        match kb.prefix_fingerprint(self.prefix.rules) {
            Some(fp) if fp == self.prefix => {
                if kb.len() == self.prefix.rules {
                    CompiledFit::Full
                } else {
                    CompiledFit::Prefix
                }
            }
            _ => CompiledFit::Stale,
        }
    }

    /// Switch-on-constant clause selection: candidate compiled-clause
    /// indices for `goal`, in clause order. One hash lookup, borrowed
    /// slice, no allocation. Same over-approximation as the interpreted
    /// `KnowledgeBase::candidates` (compound keys match on functor;
    /// authority chains are left to head matching).
    pub fn dispatch(&self, goal: &Literal) -> &[u32] {
        let Some(p) = self
            .index
            .get(&(goal.pred, goal.args.len(), goal.authority.len()))
        else {
            return &[];
        };
        match goal.args.first().and_then(Term::index_key) {
            Some(k) => p
                .by_const
                .get(&k)
                .map(Vec::as_slice)
                .unwrap_or(&p.var_headed),
            // Open first argument: fall back to the second-level switch
            // on the goal's last authority term before giving up and
            // scanning the whole predicate.
            None => match goal.authority.last().and_then(Term::index_key) {
                Some(k) => p.by_auth.get(&k).map(Vec::as_slice).unwrap_or(&p.auth_open),
                None => &p.all,
            },
        }
    }

    /// Fetch a compiled clause by dispatch index.
    pub fn clause(&self, idx: u32) -> &CompiledClause {
        &self.clauses[idx as usize]
    }
}

/// Merge the ascending id list `open` into the ascending `bucket`,
/// preserving clause (insertion) order.
fn merge_into(bucket: &mut Vec<u32>, open: &[u32]) {
    if open.is_empty() {
        return;
    }
    let exact = std::mem::take(bucket);
    let mut merged = Vec::with_capacity(exact.len() + open.len());
    let (mut i, mut j) = (0, 0);
    while i < exact.len() || j < open.len() {
        match (exact.get(i), open.get(j)) {
            (Some(&a), Some(&b)) => {
                if a < b {
                    merged.push(a);
                    i += 1;
                } else {
                    merged.push(b);
                    j += 1;
                }
            }
            (Some(&a), None) => {
                merged.push(a);
                i += 1;
            }
            (None, Some(&b)) => {
                merged.push(b);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    *bucket = merged;
}

/// Lower one rule: renumber its variables into a fresh 1-based frame,
/// lower each head argument to the cheapest get instruction that
/// preserves unification semantics, then lower each body literal to a
/// put program. The `seen` set threads through head and body in
/// execution order, so "first occurrence" below means first in the whole
/// clause — the invariant [`BodyInstr::PutVar`]'s soundness rests on.
fn compile_clause(id: RuleId, rule: &Rule) -> CompiledClause {
    let mut ctr = 0u32;
    let renamed = rule.rename_apart_indexed(&mut ctr);
    let args_len = renamed.head.args.len();
    let auth_len = renamed.head.authority.len();
    let auth_key = renamed.head.authority.last().and_then(Term::index_key);
    let mut head = Vec::with_capacity(args_len + auth_len);
    let mut seen: Vec<Var> = Vec::new();
    for t in renamed
        .head
        .args
        .iter()
        .chain(renamed.head.authority.iter())
    {
        head.push(lower(t, &mut seen));
    }
    let goals: Arc<[CompiledGoal]> = renamed
        .body
        .iter()
        .map(|l| lower_goal(l, &mut seen))
        .collect();
    CompiledClause {
        id,
        nvars: ctr,
        args_len,
        auth_len,
        auth_key,
        head,
        body: renamed.body,
        goals,
    }
}

/// Lower one body literal to its put program.
fn lower_goal(l: &Literal, seen: &mut Vec<Var>) -> CompiledGoal {
    let instrs = l
        .args
        .iter()
        .chain(l.authority.iter())
        .map(|t| match lower(t, seen) {
            HeadInstr::GetConst(t) => BodyInstr::PutConst(t),
            HeadInstr::GetVar(v) => BodyInstr::PutVar(v),
            HeadInstr::GetVal(v) => BodyInstr::PutVal(v),
            HeadInstr::GetTerm(t) => BodyInstr::PutTerm(t),
        })
        .collect();
    CompiledGoal {
        pred: l.pred,
        args_len: l.args.len(),
        instrs,
    }
}

fn lower(t: &Term, seen: &mut Vec<Var>) -> HeadInstr {
    match t {
        Term::Var(v) => {
            if seen.contains(v) {
                HeadInstr::GetVal(*v)
            } else {
                seen.push(*v);
                HeadInstr::GetVar(*v)
            }
        }
        _ if t.is_ground() => HeadInstr::GetConst(t.clone()),
        _ => {
            // Every variable inside the pattern counts as seen: a later
            // whole-argument occurrence must re-unify, not re-bind.
            let mut vs = Vec::new();
            t.collect_vars(&mut vs);
            for v in vs {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
            HeadInstr::GetTerm(t.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Solver;
    use peertrust_core::{unify_literals_in, PeerId};

    fn kb_from(rules: Vec<Rule>) -> KnowledgeBase {
        rules.into_iter().collect()
    }

    fn lit(pred: &str, args: Vec<Term>) -> Literal {
        Literal::new(pred, args)
    }

    #[test]
    fn lowering_picks_cheapest_instruction() {
        let rule = Rule::horn(
            lit(
                "p",
                vec![
                    Term::atom("a"),
                    Term::var("X"),
                    Term::var("X"),
                    Term::compound("f", vec![Term::var("Y"), Term::int(1)]),
                    Term::compound("g", vec![Term::int(2)]),
                ],
            ),
            vec![],
        );
        let c = compile_clause(RuleId(0), &rule);
        assert_eq!(c.nvars, 2);
        assert!(matches!(c.head[0], HeadInstr::GetConst(_)));
        assert!(matches!(c.head[1], HeadInstr::GetVar(_)));
        assert!(matches!(c.head[2], HeadInstr::GetVal(_)));
        assert!(matches!(c.head[3], HeadInstr::GetTerm(_)));
        assert!(matches!(c.head[4], HeadInstr::GetConst(_)));
    }

    #[test]
    fn pattern_vars_block_later_getvar() {
        // p(f(X), X): the second X must be GetVal — X was introduced
        // inside the pattern, binding it blindly would skip the unify.
        let rule = Rule::horn(
            lit(
                "p",
                vec![Term::compound("f", vec![Term::var("X")]), Term::var("X")],
            ),
            vec![],
        );
        let c = compile_clause(RuleId(0), &rule);
        assert!(matches!(c.head[0], HeadInstr::GetTerm(_)));
        assert!(matches!(c.head[1], HeadInstr::GetVal(_)));
    }

    #[test]
    fn match_head_agrees_with_interpreted_unification() {
        let heads = [
            lit("p", vec![Term::atom("a"), Term::var("X")]),
            lit("p", vec![Term::var("X"), Term::var("X")]),
            lit(
                "p",
                vec![Term::compound("f", vec![Term::var("X")]), Term::var("X")],
            ),
            lit("p", vec![Term::int(1), Term::int(2)]),
            lit(
                "p",
                vec![Term::var("X"), Term::compound("f", vec![Term::var("X")])],
            ),
        ];
        let goals = [
            lit("p", vec![Term::atom("a"), Term::int(3)]),
            lit("p", vec![Term::var("G"), Term::var("G")]),
            lit("p", vec![Term::var("G"), Term::var("H")]),
            lit(
                "p",
                vec![Term::compound("f", vec![Term::int(1)]), Term::int(1)],
            ),
            lit("p", vec![Term::int(1), Term::int(2)]),
        ];
        for h in &heads {
            let rule = Rule::horn(h.clone(), vec![]);
            let c = compile_clause(RuleId(0), &rule);
            for g in &goals {
                let base = 100u32;
                let mut bs_c = Bindings::new(0);
                let ok_c = c.match_head(base, g, &mut bs_c);

                let mut ctr = base;
                let renamed = rule.rename_apart_indexed(&mut ctr);
                let mut bs_i = Bindings::new(0);
                let ok_i = unify_literals_in(&renamed.head, g, &mut bs_i);

                assert_eq!(ok_c, ok_i, "verdict for head {h} vs goal {g}");
                if ok_c {
                    for name in ["G", "H"] {
                        let t = Term::var(name);
                        assert_eq!(
                            bs_c.apply(&t),
                            bs_i.apply(&t),
                            "goal binding {name} for {h} vs {g}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dispatch_narrows_and_preserves_clause_order() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(Rule::fact(lit("p", vec![Term::var("X")]))); // 0
        kb.add_local(Rule::fact(lit("p", vec![Term::atom("a")]))); // 1
        kb.add_local(Rule::fact(lit("p", vec![Term::var("Y")]))); // 2
        kb.add_local(Rule::fact(lit("p", vec![Term::atom("a")]))); // 3
        kb.add_local(Rule::fact(lit("p", vec![Term::atom("b")]))); // 4
        let c = CompiledKb::compile(&kb);
        let ids = |goal: &Literal| -> Vec<u32> {
            c.dispatch(goal).iter().map(|&i| c.clause(i).id.0).collect()
        };
        assert_eq!(ids(&lit("p", vec![Term::atom("a")])), vec![0, 1, 2, 3]);
        assert_eq!(ids(&lit("p", vec![Term::atom("b")])), vec![0, 2, 4]);
        // Unknown constant: only the var-headed chain.
        assert_eq!(ids(&lit("p", vec![Term::atom("z")])), vec![0, 2]);
        // Open goal: everything.
        assert_eq!(ids(&lit("p", vec![Term::var("Q")])), vec![0, 1, 2, 3, 4]);
        // Unknown predicate: nothing.
        assert_eq!(ids(&lit("q", vec![Term::var("Q")])), Vec::<u32>::new());
    }

    #[test]
    fn release_pattern_self_rules_are_not_compiled() {
        let head = lit("cred", vec![Term::var("X")]);
        let mut kb = KnowledgeBase::new();
        kb.add_local(Rule::horn(head.clone(), vec![head.clone()]));
        kb.add_local(Rule::fact(lit("cred", vec![Term::atom("a")])));
        let c = CompiledKb::compile(&kb);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.clause(c.dispatch(&lit("cred", vec![Term::atom("a")]))[0])
                .id,
            RuleId(1)
        );
    }

    #[test]
    fn fit_full_prefix_stale() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(Rule::fact(lit("p", vec![Term::atom("a")])));
        let c = CompiledKb::compile(&kb);
        assert_eq!(c.fit(&kb), CompiledFit::Full);

        kb.add_local(Rule::fact(lit("p", vec![Term::atom("b")])));
        assert_eq!(c.fit(&kb), CompiledFit::Prefix);
        assert_eq!(c.prefix_len(), 1);

        let mut other = KnowledgeBase::new();
        other.add_local(Rule::fact(lit("q", vec![Term::atom("a")])));
        assert_eq!(c.fit(&other), CompiledFit::Stale);
    }

    #[test]
    fn compiled_solver_answers_match_interpreter() {
        let mut kb = KnowledgeBase::new();
        for i in 0..5 {
            kb.add_local(Rule::fact(lit(
                "edge",
                vec![Term::int(i), Term::int(i + 1)],
            )));
        }
        kb.add_local(Rule::horn(
            lit("reach", vec![Term::var("X"), Term::var("Y")]),
            vec![lit("edge", vec![Term::var("X"), Term::var("Y")])],
        ));
        kb.add_local(Rule::horn(
            lit("reach", vec![Term::var("X"), Term::var("Z")]),
            vec![
                lit("edge", vec![Term::var("X"), Term::var("Y")]),
                lit("reach", vec![Term::var("Y"), Term::var("Z")]),
            ],
        ));
        let me = PeerId::new("me");
        let goal = lit("reach", vec![Term::int(0), Term::var("T")]);

        let mut interp = Solver::new(&kb, me);
        let expected: Vec<String> = interp
            .solve(std::slice::from_ref(&goal))
            .iter()
            .map(|s| s.subst.apply_literal(&goal).to_string())
            .collect();

        let compiled = Arc::new(CompiledKb::compile(&kb));
        let mut cs = Solver::new(&kb, me).with_compiled(compiled);
        let got: Vec<String> = cs
            .solve(std::slice::from_ref(&goal))
            .iter()
            .map(|s| s.subst.apply_literal(&goal).to_string())
            .collect();
        assert_eq!(got, expected);
        assert!(cs.stats().compiled_dispatches > 0, "compiled path ran");
        assert_eq!(cs.stats().compiled_stale, 0);
    }

    #[test]
    fn stale_compiled_kb_is_never_consulted() {
        // Compile one KB, then hand the solver a *different* KB with the
        // same predicates: answers must come from the real KB via the
        // interpreter, and the compiled artifact must never be touched.
        let mut kb1 = KnowledgeBase::new();
        kb1.add_local(Rule::fact(lit("p", vec![Term::atom("old")])));
        let compiled = Arc::new(CompiledKb::compile(&kb1));

        let mut kb2 = KnowledgeBase::new();
        kb2.add_local(Rule::fact(lit("p", vec![Term::atom("new")])));
        kb2.add_local(Rule::fact(lit("p", vec![Term::atom("newer")])));

        let me = PeerId::new("me");
        let goal = lit("p", vec![Term::var("X")]);
        let mut s = Solver::new(&kb2, me).with_compiled(compiled);
        let answers: Vec<String> = s
            .solve(std::slice::from_ref(&goal))
            .iter()
            .map(|sol| sol.subst.apply_literal(&goal).to_string())
            .collect();
        assert_eq!(answers, vec!["p(new)", "p(newer)"]);
        assert_eq!(s.stats().compiled_dispatches, 0, "stale KB consulted");
        assert!(s.stats().compiled_stale > 0, "staleness not recorded");
    }

    #[test]
    fn prefix_fit_resolves_appended_rules_interpretively() {
        let mut kb = KnowledgeBase::new();
        kb.add_local(Rule::fact(lit("p", vec![Term::atom("compiled")])));
        let compiled = Arc::new(CompiledKb::compile(&kb));
        // Appends after compilation — e.g. credentials pushed mid-negotiation.
        kb.add_local(Rule::fact(lit("p", vec![Term::atom("appended")])));

        let me = PeerId::new("me");
        let goal = lit("p", vec![Term::var("X")]);
        let mut s = Solver::new(&kb, me).with_compiled(compiled);
        let answers: Vec<String> = s
            .solve(std::slice::from_ref(&goal))
            .iter()
            .map(|sol| sol.subst.apply_literal(&goal).to_string())
            .collect();
        // Clause order preserved: compiled prefix first, then the suffix.
        assert_eq!(answers, vec!["p(compiled)", "p(appended)"]);
        assert!(s.stats().compiled_dispatches > 0);
        assert_eq!(s.stats().compiled_stale, 0);
    }

    #[test]
    fn body_lowering_picks_cheapest_put_instruction() {
        // p(X) <- q(a, X, Y, f(Y)), r(Y, Z, Z).
        // X is seen in the head -> PutVal. Y first occurs in body[0]
        // (PutVar), is repeated inside a pattern there (PutTerm), and is
        // old by body[1] (PutVal). Z first occurs in body[1] (PutVar)
        // and repeats *within the same literal* — still lowered as
        // PutVal, which degenerates to the same emitted var while
        // unbound.
        let (x, y, z) = (Term::var("X"), Term::var("Y"), Term::var("Z"));
        let rule = Rule::horn(
            lit("p", vec![x.clone()]),
            vec![
                lit(
                    "q",
                    vec![
                        Term::atom("a"),
                        x,
                        y.clone(),
                        Term::compound("f", vec![y.clone()]),
                    ],
                ),
                lit("r", vec![y, z.clone(), z]),
            ],
        );
        let c = compile_clause(RuleId(0), &rule);
        let q = &c.goals[0];
        assert!(matches!(q.instrs[0], BodyInstr::PutConst(_)));
        assert!(matches!(q.instrs[1], BodyInstr::PutVal(_)));
        assert!(matches!(q.instrs[2], BodyInstr::PutVar(_)));
        assert!(matches!(q.instrs[3], BodyInstr::PutTerm(_)));
        let r = &c.goals[1];
        assert!(matches!(r.instrs[0], BodyInstr::PutVal(_)));
        assert!(matches!(r.instrs[1], BodyInstr::PutVar(_)));
        assert!(matches!(r.instrs[2], BodyInstr::PutVal(_)));
    }

    #[test]
    fn materialize_matches_interpreted_body_instantiation() {
        // After a successful head match, every compiled body goal must
        // materialize to exactly what the interpreter produces by
        // renaming the body literal and applying the store at selection
        // time — including authority chains and nested patterns.
        let (x, y, z) = (Term::var("X"), Term::var("Y"), Term::var("Z"));
        let rule = Rule::horn(
            lit("p", vec![x.clone(), Term::compound("f", vec![y.clone()])]),
            vec![
                lit(
                    "q",
                    vec![y.clone(), Term::compound("g", vec![x.clone(), z.clone()])],
                )
                .at(x.clone()),
                lit("r", vec![z, Term::atom("k")]).at(Term::str("UIUC")),
            ],
        );
        let c = compile_clause(RuleId(0), &rule);
        let goal = lit(
            "p",
            vec![Term::str("alice"), Term::compound("f", vec![Term::int(7)])],
        );
        let base = 40u32;
        let mut bs = Bindings::new(0);
        assert!(c.match_head(base, &goal, &mut bs));

        let want: Vec<Literal> = c
            .body_instance(base)
            .iter()
            .map(|l| bs.apply_literal(l))
            .collect();
        let got: Vec<Literal> = c
            .goals
            .iter()
            .map(|g| g.materialize(base, &mut bs))
            .collect();
        assert_eq!(got, want);
        // Ground compound payloads are shared with the goal, not rebuilt.
        let Term::Compound(_, got_args) = &got[0].args[1] else {
            panic!("expected compound");
        };
        assert!(matches!(&**got_args, [Term::Str(_), Term::Var(_)]));
    }

    #[test]
    fn authority_dispatch_narrows_on_outer_authority() {
        let du = |c: &str, a: &str| Rule::fact(lit("d", vec![Term::atom(c)]).at(Term::str(a)));
        let mut kb = KnowledgeBase::new();
        kb.add_local(du("a", "u1")); // 0
        kb.add_local(Rule::fact(
            lit("d", vec![Term::var("X")]).at(Term::str("u1")),
        )); // 1
        kb.add_local(du("b", "u2")); // 2
        kb.add_local(Rule::fact(
            lit("d", vec![Term::var("X")]).at(Term::var("V")),
        )); // 3
        let c = CompiledKb::compile(&kb);
        let ids = |goal: &Literal| -> Vec<u32> {
            c.dispatch(goal).iter().map(|&i| c.clause(i).id.0).collect()
        };
        let open = |a: Term| lit("d", vec![Term::var("A")]).at(a);
        // Open first argument: the authority key discriminates.
        assert_eq!(ids(&open(Term::str("u1"))), vec![0, 1, 3]);
        assert_eq!(ids(&open(Term::str("u2"))), vec![2, 3]);
        assert_eq!(ids(&open(Term::str("u9"))), vec![3]);
        // Variable authority: everything with this (pred, arity, auth-len).
        assert_eq!(ids(&open(Term::var("W"))), vec![0, 1, 2, 3]);
        // Ground first argument takes precedence over the authority level.
        assert_eq!(
            ids(&lit("d", vec![Term::atom("a")]).at(Term::str("u1"))),
            vec![0, 1, 3]
        );
        // Different authority-chain length: guaranteed miss (the §3.2
        // self-closure probe adds one authority and must cost nothing).
        assert_eq!(ids(&lit("d", vec![Term::var("A")])), Vec::<u32>::new());
        assert_eq!(
            ids(&open(Term::str("u1")).at(Term::str("me"))),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn auth_key_fast_rejects_before_head_instructions() {
        // Clause d(a) @ "u1"; goal d(a) @ "u2" arrives via the ground
        // first-argument bucket (which does not discriminate on
        // authority) — the per-clause authority key must reject it
        // without touching the store.
        let rule = Rule::fact(lit("d", vec![Term::atom("a")]).at(Term::str("u1")));
        let c = compile_clause(RuleId(0), &rule);
        assert!(c.auth_key.is_some());
        let mut bs = Bindings::new(0);
        let miss = lit("d", vec![Term::atom("a")]).at(Term::str("u2"));
        assert!(!c.match_head(7, &miss, &mut bs));
        let hit = lit("d", vec![Term::atom("a")]).at(Term::str("u1"));
        assert!(c.match_head(7, &hit, &mut bs));
    }

    #[test]
    fn heads_only_artifact_keeps_interpreted_bodies() {
        let kb = kb_from(vec![Rule::horn(
            lit("p", vec![Term::var("X")]),
            vec![lit("q", vec![Term::var("X")])],
        )]);
        let full = CompiledKb::compile(&kb);
        let heads = CompiledKb::compile_heads_only(&kb);
        assert!(full.has_bodies());
        assert!(!heads.has_bodies());
        // The flag gates execution, not lowering: both artifacts carry
        // the interpreted body (the prefix-fit suffix path needs it) and
        // the put program; `has_bodies` selects which one the solver runs.
        assert_eq!(full.clause(0).goals.len(), 1);
        assert_eq!(heads.clause(0).goals.len(), 1);
        assert_eq!(heads.clause(0).body_instance(3).len(), 1);
    }
}
