//! A budgeted SPARQL evaluator over [`sapphire_rdf::Graph`].
//!
//! The evaluator charges one *work unit* per scanned candidate triple and per
//! produced row. A [`WorkBudget`] caps total work, which is how the endpoint
//! layer simulates remote-endpoint timeouts **deterministically**: the paper's
//! initialization algorithm (§5.1) is driven by which queries time out, so the
//! reproduction needs timeouts that do not depend on wall-clock noise.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::Hash;

use sapphire_rdf::{vocab, Graph, Interner, Literal, Term, TermId};

use crate::ast::*;
use crate::solutions::{QueryResult, Solutions};

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The work budget was exhausted — the simulated analogue of a remote
    /// endpoint timing a query out.
    WorkLimitExceeded {
        /// Work units consumed before giving up.
        used: u64,
    },
    /// The query uses a feature outside the supported subset.
    Unsupported(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::WorkLimitExceeded { used } => {
                write!(
                    f,
                    "work limit exceeded after {used} units (simulated timeout)"
                )
            }
            EvalError::Unsupported(what) => write!(f, "unsupported query feature: {what}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A consumable work budget.
#[derive(Debug, Clone)]
pub struct WorkBudget {
    limit: Option<u64>,
    used: u64,
}

impl WorkBudget {
    /// A budget capped at `limit` units.
    pub fn limited(limit: u64) -> Self {
        WorkBudget {
            limit: Some(limit),
            used: 0,
        }
    }

    /// An unbounded budget (the paper's "warehousing architecture", where no
    /// resource constraints or timeouts apply).
    pub fn unlimited() -> Self {
        WorkBudget {
            limit: None,
            used: 0,
        }
    }

    /// Work consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Consume `units`. Work is done a unit at a time and stops at the first
    /// unit past the limit, so an exhausted budget has used exactly
    /// `limit + 1` however large the charge that exhausted it.
    #[inline]
    fn charge(&mut self, units: u64) -> Result<(), EvalError> {
        self.used += units;
        match self.limit {
            Some(l) if self.used > l => {
                self.used = l + 1;
                Err(EvalError::WorkLimitExceeded { used: self.used })
            }
            _ => Ok(()),
        }
    }
}

/// Evaluate a query against a graph within a budget. An ASK reads one
/// solution of its pattern.
pub fn evaluate(
    graph: &Graph,
    query: &Query,
    budget: &mut WorkBudget,
) -> Result<QueryResult, EvalError> {
    match query {
        Query::Select(s) => evaluate_select(graph, s, budget).map(QueryResult::Solutions),
        Query::Ask(gp) => {
            let rows = match_bgp(&plan(graph, gp, Walk::Rows(1))?, budget)?;
            Ok(QueryResult::Boolean(rows.len() > 0))
        }
    }
}

/// Evaluate a SELECT query.
///
/// Everything between the graph and the result is done on interned ids: the
/// BGP fills one flat binding table, and DISTINCT, GROUP BY, ORDER BY,
/// OFFSET and LIMIT pick and arrange *row numbers* of it. [`Term`]s are
/// cloned out of the interner only for the rows that survive the slice.
pub fn evaluate_select(
    graph: &Graph,
    query: &SelectQuery,
    budget: &mut WorkBudget,
) -> Result<Solutions, EvalError> {
    let plan = plan(graph, &query.pattern, Walk::of(query))?;
    let table = match_bgp(&plan, budget)?;
    select_table(graph.interner(), query, &plan.bgp.vars, &table)
}

/// The query's GROUP BY, aggregates, modifiers and projection over binding
/// rows whose ids `terms` resolves — the one place a SELECT is applied to
/// rows.
fn select_table(
    terms: &Interner,
    query: &SelectQuery,
    vars: &VarTable,
    table: &BindingTable,
) -> Result<Solutions, EvalError> {
    let reach = slice_reach(query);
    if aggregated(query) {
        select_aggregated(terms, query, vars, table, reach)
    } else {
        Ok(select_bindings(terms, query, vars, table, reach))
    }
}

/// The evaluator's SELECT over rows that are already terms — *full
/// bindings* (one column per entry of `vars`) wherever they were joined: a
/// federated plan, a scatter over shards. The rows are interned into a
/// throwaway term table and take the id path, aggregates included, so given
/// the rows [`evaluate_select`] matched, in its order, the answer is
/// `evaluate_select`'s byte for byte.
pub fn select_rows(
    query: &SelectQuery,
    vars: &[String],
    rows: Vec<Vec<Option<Term>>>,
) -> Result<Solutions, EvalError> {
    let mut terms = Interner::new();
    let mut table = BindingTable::new(vars.len());
    let mut ids = Vec::with_capacity(vars.len());
    for row in rows {
        ids.clear();
        ids.extend(row.into_iter().map(|cell| cell.map(|t| terms.intern(t))));
        table.push(&ids);
    }
    let vars = VarTable {
        names: vars.to_vec(),
    };
    select_table(&terms, query, &vars, &table)
}

/// Whether the query groups its rows: GROUP BY, or an aggregate projected.
fn aggregated(query: &SelectQuery) -> bool {
    query.has_aggregates() || !query.group_by.is_empty()
}

/// `SELECT DISTINCT ?v WHERE { … VALUES ?v { … } }` with no grouping and no
/// order: the answer is the set of values with at least one solution, in
/// list order, so solutions past a value's first change nothing.
fn asks_only_for_its_values(query: &SelectQuery) -> bool {
    let Some(data) = &query.pattern.values else {
        return false;
    };
    query.distinct
        && query.order_by.is_empty()
        && query.group_by.is_empty()
        && matches!(&query.projection, Projection::Items(items)
            if matches!(items.as_slice(), [SelectItem::Var(v)] if *v == data.var))
}

// ---------------------------------------------------------------------------
// Variable table, compiled patterns and binding rows
// ---------------------------------------------------------------------------

/// Maps variable names to dense indices for the binding rows. Patterns name
/// a handful of variables, so lookup is a scan, not a hash.
struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    fn get(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

/// The BGP's solutions: one id (or unbound) per variable per row, row-major
/// in a single allocation, columns indexed by [`VarTable`].
struct BindingTable {
    width: usize,
    rows: usize,
    cells: Vec<Option<TermId>>,
}

impl BindingTable {
    fn new(width: usize) -> Self {
        BindingTable {
            width,
            rows: 0,
            cells: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn row(&self, row: usize) -> &[Option<TermId>] {
        &self.cells[row * self.width..(row + 1) * self.width]
    }

    fn push(&mut self, row: &[Option<TermId>]) {
        self.cells.extend_from_slice(row);
        self.rows += 1;
    }
}

/// One position of a compiled pattern.
#[derive(Clone, Copy)]
enum Slot {
    /// Ground term, by its id in the graph.
    Ground(TermId),
    /// Variable index.
    Var(usize),
}

struct CompiledPattern {
    slots: [Slot; 3],
}

impl CompiledPattern {
    /// `tp` over `graph`, its variables numbered by `vars`: ground terms
    /// become their ids, so a walk and a price read ranges without looking a
    /// term up again. `None` when a ground term does not occur in the graph
    /// at all — the pattern, and any BGP it is in, matches nothing.
    fn compile(tp: &TriplePattern, graph: &Graph, vars: &VarTable) -> Option<Self> {
        let compile_pos = |p: &TermPattern| match p {
            TermPattern::Var(v) => Some(Slot::Var(vars.get(v).expect("var registered"))),
            TermPattern::Term(t) => graph.term_id(t).map(Slot::Ground),
        };
        Some(CompiledPattern {
            slots: [
                compile_pos(&tp.subject)?,
                compile_pos(&tp.predicate)?,
                compile_pos(&tp.object)?,
            ],
        })
    }

    /// The variable of each variable position, in s/p/o order.
    fn vars(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().filter_map(|slot| match slot {
            Slot::Var(v) => Some(*v),
            Slot::Ground(_) => None,
        })
    }

    /// The range the pattern matches with only its ground positions bound —
    /// and, for the inline-data variable, the value `seed` stands in with.
    fn range(&self, graph: &Graph, seed: Option<(usize, TermId)>) -> usize {
        let [s, p, o] = self.slots.map(|slot| match slot {
            Slot::Ground(id) => Some(id),
            Slot::Var(v) => seed.filter(|(var, _)| *var == v).map(|(_, id)| id),
        });
        graph.triples_matching(s, p, o).len()
    }
}

/// A BGP compiled against a graph: the step [`plan`] and [`estimate_cost`]
/// share.
struct Bgp<'a> {
    gp: &'a GraphPattern,
    vars: VarTable,
    /// The patterns whose ground terms the graph all holds, in written order.
    patterns: Vec<CompiledPattern>,
    /// Whether some pattern has a ground term the graph lacks: that pattern,
    /// and the BGP, match nothing.
    absent: bool,
    /// The inline-data variable and its listed values.
    values: Option<(usize, &'a [Term])>,
}

impl<'a> Bgp<'a> {
    fn compile(graph: &Graph, gp: &'a GraphPattern) -> Self {
        let vars = VarTable {
            names: gp.variables(),
        };
        let compiled: Vec<Option<CompiledPattern>> = gp
            .triples
            .iter()
            .map(|tp| CompiledPattern::compile(tp, graph, &vars))
            .collect();
        let var = |data: &InlineData| vars.get(&data.var).expect("var registered");
        let values = gp.values.as_ref().map(|data| (var(data), &data.terms[..]));
        Bgp {
            gp,
            absent: compiled.iter().any(Option::is_none),
            patterns: compiled.into_iter().flatten().collect(),
            vars,
            values,
        }
    }

    /// The greedy join order, connected first, and the step that fires each
    /// filter. `seed` is the inline-data variable — bound before the walk
    /// starts — and the value that sizes the patterns it occurs in. Each
    /// pattern's range is read once; each step takes, of the patterns left,
    /// the one that ranks first on:
    ///
    /// 1. whether it *joins* — it is the first step, has no variable, or
    ///    shares one an earlier step or the `seed` variable bound — so a
    ///    connected BGP is never walked as a cross product;
    /// 2. more positions ground or bound;
    /// 3. a smaller range;
    /// 4. written order.
    ///
    /// A filter fires at the step that binds the last of its variables.
    /// Filters that never get there — no variables at all, or a variable no
    /// pattern binds (an unbound reference is a SPARQL error, which makes
    /// the filter false) — are evaluated on complete rows, in the extra last
    /// slot.
    fn order(
        &self,
        graph: &Graph,
        seed: Option<(usize, TermId)>,
    ) -> (Vec<Step>, Vec<Vec<Filter<'a>>>) {
        let ranges: Vec<usize> = self.patterns.iter().map(|c| c.range(graph, seed)).collect();
        // The step at which each variable binds.
        let mut binds_at: Vec<Option<usize>> = vec![None; self.vars.names.len()];
        if let Some((var, _)) = seed {
            binds_at[var] = Some(0);
        }
        let mut remaining: Vec<usize> = (0..self.patterns.len()).collect();
        let mut steps: Vec<Step> = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let (pos, (crosses, _, _)) = remaining
                .iter()
                .map(|&i| {
                    let c = &self.patterns[i];
                    let vars = c.vars().count();
                    let unbound = c.vars().filter(|&v| binds_at[v].is_none()).count();
                    // Not the first step, a variable, and none bound yet.
                    let crosses = !steps.is_empty() && vars > 0 && unbound == vars;
                    (crosses, unbound, ranges[i])
                })
                .enumerate()
                .min_by_key(|&(_, key)| key)
                .expect("non-empty remaining");
            let pattern = remaining.remove(pos);
            for v in self.patterns[pattern].vars() {
                binds_at[v].get_or_insert(steps.len());
            }
            steps.push(Step {
                pattern,
                range: ranges[pattern],
                crosses,
            });
        }
        let mut filters_at: Vec<Vec<Filter<'a>>> = (0..=steps.len()).map(|_| Vec::new()).collect();
        for expr in &self.gp.filters {
            let fires = expr.variables().iter().try_fold(None, |last, v| {
                Some(last.max(Some(binds_at[self.vars.get(v).expect("var registered")]?)))
            });
            filters_at[fires.flatten().unwrap_or(steps.len())].push(Filter::new(expr));
        }
        (steps, filters_at)
    }
}

/// The up-front price of matching `gp` over `graph` — the crude planner
/// estimate public endpoints gate admission on (§5.1): the sum, over its
/// triple patterns, of the range each matches with only its ground positions
/// bound. It prices the BGP as the evaluator's planner compiles it — the
/// same variable table, compiled patterns and absent-term check — so a
/// pattern with a ground term the graph lacks matches nothing and prices at
/// 0. The `VALUES` variable counts as bound: a pattern it occurs in prices
/// at the sum of its ranges over the listed values the graph holds, so a
/// batched look-up costs the look-ups it replaces, not a scan.
pub fn estimate_cost(graph: &Graph, gp: &GraphPattern) -> u64 {
    let bgp = Bgp::compile(graph, gp);
    let listed = bgp.values.map_or(&[][..], |(_, terms)| terms);
    let ids: Vec<TermId> = listed.iter().filter_map(|t| graph.term_id(t)).collect();
    bgp.patterns
        .iter()
        .map(|c| match bgp.values {
            Some((var, _)) if c.vars().any(|v| v == var) => ids
                .iter()
                .map(|&id| c.range(graph, Some((var, id))) as u64)
                .sum(),
            _ => c.range(graph, None) as u64,
        })
        .sum()
}

// ---------------------------------------------------------------------------
// The plan, and the walk that executes it
// ---------------------------------------------------------------------------

/// How much of the BGP's solutions the caller reads.
#[derive(Clone, Copy)]
enum Walk {
    /// Every solution.
    All,
    /// The first `n`, in walk order.
    Rows(usize),
    /// The first of each inline-data value.
    OncePerValue,
}

impl Walk {
    /// What a SELECT reads of its BGP. LIMIT can be pushed into the walk
    /// only when no operator above the BGP can change row multiplicity or
    /// order. And when all that is asked of inline data is which of its
    /// values have a solution, one solution per value answers it.
    fn of(query: &SelectQuery) -> Self {
        if !query.distinct && query.order_by.is_empty() && !aggregated(query) {
            slice_reach(query).map_or(Walk::All, Walk::Rows)
        } else if asks_only_for_its_values(query) {
            Walk::OncePerValue
        } else {
            Walk::All
        }
    }

    /// The row count at which a walk entered with `rows` rows out stops.
    fn stop(self, rows: usize) -> usize {
        match self {
            Walk::All => usize::MAX,
            Walk::Rows(n) => n,
            Walk::OncePerValue => rows + 1,
        }
    }
}

/// Where a BGP's inline data enters its walk.
enum Side<'a> {
    /// Nothing is walked: a ground term the graph lacks.
    Empty,
    /// No inline data: the order is walked once.
    Whole,
    /// Value by value: the order, planned with the variable bound to the
    /// first listed value, is walked once per listed value the graph holds
    /// (none, when it holds none) — the variable, and those values' ids in
    /// list order.
    Values(usize, Vec<TermId>),
    /// From the pattern's side: the order, planned without the list, is
    /// walked once, and each listed value the walk bound to the variable
    /// answers one row — the variable, and the listed values.
    Pattern(usize, &'a [Term]),
}

/// One step of a plan's join order.
struct Step {
    /// The pattern walked, by its position among the compiled patterns.
    pattern: usize,
    /// The range the step was sized by: the pattern's with its ground
    /// positions bound — and, planned value by value, the first value.
    range: usize,
    /// Whether the step crosses the steps before it: it is not the first,
    /// has a variable, and shares none with them or the inline data.
    crosses: bool,
}

/// How one BGP is walked, decided before any work is done: [`plan`] builds
/// it, [`match_bgp`] executes it, and nothing else decides.
struct Plan<'a> {
    graph: &'a Graph,
    bgp: Bgp<'a>,
    /// How far the walk goes.
    walk: Walk,
    side: Side<'a>,
    /// The patterns in join order.
    steps: Vec<Step>,
    /// Filters by the step that fires them; complete-row filters last.
    filters_at: Vec<Vec<Filter<'a>>>,
}

/// Plan the walk of `gp` over `graph` for a caller that reads `walk` of its
/// solutions: compile the BGP, then fix its join order ([`Bgp::order`]),
/// the step each filter fires at and the side its inline data enters from.
///
/// A ground term the graph lacks empties the BGP before any work is done.
/// Inline data enters value by value: the order is planned with the
/// variable bound to the first listed value the graph holds, which sizes
/// the patterns it occurs in (`(p, ?v)` is a range look-up, not a scan of
/// `p`), so the work is that of the same pattern with each value written in
/// its place, value after value.
///
/// Asked only which values have a solution ([`Walk::OncePerValue`]), the
/// plan takes the pattern's side instead when the order planned without the
/// list has a step whose range holds fewer rows than the list has values,
/// and crosses at no step. A connected BGP is never crossed, and a probe of
/// a hundred names joined to a predicate of three triples walks the three,
/// not the names. A cross product walked whole would cost the product, so a
/// disconnected probe stays value by value. The rule reads only the query
/// and the graph.
///
/// Each pattern's range is read at most twice: without the list and with
/// its first value.
fn plan<'a>(graph: &'a Graph, gp: &'a GraphPattern, walk: Walk) -> Result<Plan<'a>, EvalError> {
    if let Some(data) = gp.values.as_ref().filter(|data| !gp.binds(&data.var)) {
        return Err(EvalError::Unsupported(format!(
            "VALUES ?{} without a triple pattern that binds it",
            data.var
        )));
    }
    let bgp = Bgp::compile(graph, gp);
    let (side, (steps, filters_at)) = match bgp.values {
        _ if bgp.absent => (Side::Empty, Default::default()),
        None => (Side::Whole, bgp.order(graph, None)),
        Some((var, terms)) => {
            let pattern_side = matches!(walk, Walk::OncePerValue)
                .then(|| bgp.order(graph, None))
                .filter(|(steps, _)| {
                    steps.iter().all(|step| !step.crosses)
                        && steps.iter().any(|step| step.range < terms.len())
                });
            match pattern_side {
                Some(order) => (Side::Pattern(var, terms), order),
                None => {
                    let ids: Vec<TermId> = terms.iter().filter_map(|t| graph.term_id(t)).collect();
                    let order = bgp.order(graph, ids.first().map(|&first| (var, first)));
                    (Side::Values(var, ids), order)
                }
            }
        }
    };
    Ok(Plan {
        graph,
        bgp,
        walk,
        side,
        steps,
        filters_at,
    })
}

/// Execute `plan` and return the BGP's binding rows (columns per
/// [`VarTable`]). Every walk charges one unit per candidate in each range it
/// scans and one per row it produces:
///
/// - [`Side::Whole`]: the order is walked once, as far as the plan's
///   [`Walk`] reads.
/// - [`Side::Values`]: the order is walked once per listed value the graph
///   holds, in list order, the variable bound to it; asked
///   [`Walk::OncePerValue`], each value's walk stops at its first row.
/// - [`Side::Pattern`]: the order is walked once, for every solution; then
///   each listed value the walk bound to the variable answers one row, in
///   list order. Only the walk is charged.
fn match_bgp(plan: &Plan<'_>, budget: &mut WorkBudget) -> Result<BindingTable, EvalError> {
    let width = plan.bgp.vars.names.len();
    let mut out = BindingTable::new(width);
    let mut bindings: Vec<Option<TermId>> = vec![None; width];
    match &plan.side {
        Side::Empty => {}
        Side::Whole => plan.recurse(0, &mut bindings, &mut out, budget, plan.walk.stop(0))?,
        Side::Values(var, ids) => {
            for &id in ids {
                let stop = plan.walk.stop(out.len());
                bindings[*var] = Some(id);
                plan.recurse(0, &mut bindings, &mut out, budget, stop)?;
            }
        }
        Side::Pattern(var, terms) => {
            let mut every = BindingTable::new(width);
            plan.recurse(0, &mut bindings, &mut every, budget, usize::MAX)?;
            // The distinct ids the walk bound, in the order of their terms.
            // Terms and ids are in bijection in the graph's interner, so a
            // listed term is found by comparison with these, not by a
            // look-up in the term table.
            let mut found: Vec<TermId> =
                every.cells.chunks(width).filter_map(|r| r[*var]).collect();
            found.sort_unstable();
            found.dedup();
            found.sort_unstable_by_key(|&id| plan.graph.term(id));
            for term in terms.iter() {
                if let Ok(at) = found.binary_search_by(|&id| plan.graph.term(id).cmp(term)) {
                    bindings[*var] = Some(found[at]);
                    out.push(&bindings);
                }
            }
        }
    }
    Ok(out)
}

impl Plan<'_> {
    fn filters_pass(&self, step: usize, bindings: &[Option<TermId>]) -> bool {
        self.filters_at[step].iter().all(|filter| {
            filter.passes(&|name: &str| {
                let id = bindings[self.bgp.vars.get(name)?]?;
                Some(self.graph.term(id))
            })
        })
    }

    /// Walk the steps from `depth` on, stopping once `out` holds `stop`
    /// rows.
    fn recurse(
        &self,
        depth: usize,
        bindings: &mut [Option<TermId>],
        out: &mut BindingTable,
        budget: &mut WorkBudget,
        stop: usize,
    ) -> Result<(), EvalError> {
        if out.len() >= stop {
            return Ok(());
        }
        if depth == self.steps.len() {
            // All patterns matched; one unit per produced row.
            if self.filters_pass(depth, bindings) {
                budget.charge(1)?;
                out.push(bindings);
            }
            return Ok(());
        }

        let slots = &self.bgp.patterns[self.steps[depth].pattern].slots;
        let [s, p, o] = slots.map(|slot| match slot {
            Slot::Ground(id) => Some(id),
            Slot::Var(v) => bindings[v],
        });
        // One unit per candidate scanned, charged for the whole range before
        // walking it (a LIMIT that stops the walk early has still paid for
        // the scan).
        let candidates = self.graph.triples_matching(s, p, o);
        budget.charge(candidates.len() as u64)?;

        for triple in candidates {
            // Bind the variable slots, checking consistency for repeated vars.
            let mut newly_bound = [0usize; 3];
            let mut n_new = 0;
            let mut consistent = true;
            for (slot, id) in slots.iter().zip(triple) {
                if let Slot::Var(v) = slot {
                    match bindings[*v] {
                        Some(existing) if existing != id => {
                            consistent = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            bindings[*v] = Some(id);
                            newly_bound[n_new] = *v;
                            n_new += 1;
                        }
                    }
                }
            }
            if consistent && self.filters_pass(depth, bindings) {
                self.recurse(depth + 1, bindings, out, budget, stop)?;
            }
            for &v in &newly_bound[..n_new] {
                bindings[v] = None;
            }
            if out.len() >= stop {
                return Ok(());
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

/// A computed expression value. Terms and strings are borrowed from the
/// bindings and the expression wherever the operation does not build a new
/// string.
#[derive(Debug, Clone, PartialEq)]
enum Value<'a> {
    Term(&'a Term),
    Num(f64),
    Str(Cow<'a, str>),
    Bool(bool),
    /// Evaluation error (unbound variable, type error). SPARQL treats these
    /// as errors that make the enclosing FILTER false.
    Error,
}

impl<'a> Value<'a> {
    fn effective_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Term(Term::Literal(l)) => {
                if let Some(n) = l.as_f64() {
                    n != 0.0
                } else {
                    match l.value.as_str() {
                        "false" => false,
                        _ => !l.value.is_empty(),
                    }
                }
            }
            Value::Term(_) => false,
            Value::Error => false,
        }
    }

    fn into_string(self) -> Option<Cow<'a, str>> {
        match self {
            Value::Str(s) => Some(s),
            Value::Term(t) => Some(Cow::Borrowed(t.lexical())),
            Value::Num(n) => Some(Cow::Owned(format_num(n))),
            Value::Bool(b) => Some(Cow::Borrowed(if b { "true" } else { "false" })),
            Value::Error => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Str(s) => s.trim().parse().ok(),
            Value::Term(Term::Literal(l)) => l.as_f64(),
            _ => None,
        }
    }
}

fn format_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// A FILTER expression prepared for evaluation against many rows: what does
/// not depend on the row — the case-folded pattern of each `REGEX(…, "i")` —
/// is computed here, once.
///
/// Bindings come from a resolver closure handing out *borrowed* terms, so
/// the evaluator (interned ids) and the federated query processor (owned
/// terms in a map) share it without cloning a term per variable reference.
pub struct Filter<'a> {
    expr: &'a Expr,
    /// `(REGEX node, its pattern lowercased)`, for the case-insensitive ones.
    folded: Vec<(&'a Expr, String)>,
}

impl<'a> Filter<'a> {
    /// Prepare `expr`.
    pub fn new(expr: &'a Expr) -> Self {
        fn fold<'a>(expr: &'a Expr, out: &mut Vec<(&'a Expr, String)>) {
            match expr {
                Expr::Var(_) | Expr::Const(_) | Expr::Bound(_) => {}
                Expr::And(a, b)
                | Expr::Or(a, b)
                | Expr::Cmp(_, a, b)
                | Expr::Contains(a, b)
                | Expr::StrStarts(a, b) => {
                    fold(a, out);
                    fold(b, out);
                }
                Expr::Not(e)
                | Expr::IsLiteral(e)
                | Expr::IsIri(e)
                | Expr::Lang(e)
                | Expr::Str(e)
                | Expr::StrLen(e)
                | Expr::LCase(e)
                | Expr::UCase(e)
                | Expr::Year(e) => fold(e, out),
                Expr::Regex(e, pattern, case_insensitive) => {
                    if *case_insensitive {
                        out.push((expr, pattern.to_lowercase()));
                    }
                    fold(e, out);
                }
            }
        }
        let mut folded = Vec::new();
        fold(expr, &mut folded);
        Filter { expr, folded }
    }

    /// True if the row `resolve` describes passes the filter. Unbound
    /// variables are SPARQL errors, which make the filter false.
    pub fn passes(&self, resolve: &dyn Fn(&str) -> Option<&'a Term>) -> bool {
        self.eval(self.expr, resolve).effective_bool()
    }

    fn eval(&self, expr: &'a Expr, resolve: &dyn Fn(&str) -> Option<&'a Term>) -> Value<'a> {
        let string = |e: &'a Expr| self.eval(e, resolve).into_string();
        let string_pair =
            |a: &'a Expr, b: &'a Expr, test: fn(&str, &str) -> bool| match (string(a), string(b)) {
                (Some(x), Some(y)) => Value::Bool(test(&x, &y)),
                _ => Value::Error,
            };
        match expr {
            Expr::Var(name) => match resolve(name) {
                Some(t) => Value::Term(t),
                None => Value::Error,
            },
            Expr::Const(t) => Value::Term(t),
            Expr::And(a, b) => Value::Bool(
                self.eval(a, resolve).effective_bool() && self.eval(b, resolve).effective_bool(),
            ),
            Expr::Or(a, b) => Value::Bool(
                self.eval(a, resolve).effective_bool() || self.eval(b, resolve).effective_bool(),
            ),
            Expr::Not(e) => Value::Bool(!self.eval(e, resolve).effective_bool()),
            Expr::Cmp(op, a, b) => compare(*op, self.eval(a, resolve), self.eval(b, resolve)),
            Expr::IsLiteral(e) => match self.eval(e, resolve) {
                Value::Term(t) => Value::Bool(t.is_literal()),
                Value::Str(_) | Value::Num(_) | Value::Bool(_) => Value::Bool(true),
                Value::Error => Value::Error,
            },
            Expr::IsIri(e) => match self.eval(e, resolve) {
                Value::Term(t) => Value::Bool(t.is_iri()),
                Value::Error => Value::Error,
                _ => Value::Bool(false),
            },
            Expr::Lang(e) => match self.eval(e, resolve) {
                Value::Term(Term::Literal(l)) => {
                    Value::Str(Cow::Borrowed(l.lang.as_deref().unwrap_or_default()))
                }
                Value::Str(_) => Value::Str(Cow::Borrowed("")),
                _ => Value::Error,
            },
            Expr::Str(e) => match string(e) {
                Some(s) => Value::Str(s),
                None => Value::Error,
            },
            Expr::StrLen(e) => match string(e) {
                Some(s) => Value::Num(s.chars().count() as f64),
                None => Value::Error,
            },
            Expr::Contains(a, b) => string_pair(a, b, |x, y| x.contains(y)),
            Expr::StrStarts(a, b) => string_pair(a, b, |x, y| x.starts_with(y)),
            Expr::Regex(e, pattern, case_insensitive) => {
                let Some(text) = string(e) else {
                    return Value::Error;
                };
                Value::Bool(if *case_insensitive {
                    let (_, pattern) = self
                        .folded
                        .iter()
                        .find(|(node, _)| std::ptr::eq(*node, expr))
                        .expect("every case-insensitive REGEX was folded in new()");
                    regex_lite_match(&text.to_lowercase(), pattern)
                } else {
                    regex_lite_match(&text, pattern)
                })
            }
            Expr::LCase(e) => match string(e) {
                Some(s) => Value::Str(Cow::Owned(s.to_lowercase())),
                None => Value::Error,
            },
            Expr::UCase(e) => match string(e) {
                Some(s) => Value::Str(Cow::Owned(s.to_uppercase())),
                None => Value::Error,
            },
            Expr::Year(e) => {
                let year = match self.eval(e, resolve) {
                    Value::Term(Term::Literal(l)) => l.year(),
                    Value::Str(s) => sapphire_rdf::Literal::simple(s).year(),
                    _ => None,
                };
                match year {
                    Some(y) => Value::Num(f64::from(y)),
                    None => Value::Error,
                }
            }
            Expr::Bound(v) => Value::Bool(resolve(v).is_some()),
        }
    }
}

/// A deliberately small regex engine: supports `^`/`$` anchors around a
/// literal pattern. The `i` flag is the caller's: it passes text and pattern
/// already case-folded. This covers every REGEX use in the paper's workload
/// (keyword containment tests).
fn regex_lite_match(text: &str, pattern: &str) -> bool {
    let anchored_start = pattern.starts_with('^');
    let anchored_end = pattern.ends_with('$') && !pattern.ends_with("\\$");
    let body = pattern.trim_start_matches('^').trim_end_matches('$');
    match (anchored_start, anchored_end) {
        (true, true) => text == body,
        (true, false) => text.starts_with(body),
        (false, true) => text.ends_with(body),
        (false, false) => text.contains(body),
    }
}

fn compare(op: CmpOp, a: Value<'_>, b: Value<'_>) -> Value<'static> {
    // Equality/inequality on two ground terms is term equality, per SPARQL.
    if matches!(op, CmpOp::Eq | CmpOp::Ne) {
        if let (Value::Term(ta), Value::Term(tb)) = (&a, &b) {
            // Numeric literals compare by value ("8.0E7" = "80000000").
            let eq = match (
                ta.as_literal().and_then(|l| l.as_f64()),
                tb.as_literal().and_then(|l| l.as_f64()),
            ) {
                (Some(x), Some(y)) => x == y,
                _ => term_eq_relaxed(ta, tb),
            };
            return Value::Bool(if op == CmpOp::Eq { eq } else { !eq });
        }
    }
    // Numeric comparison if both sides are numbers.
    if let Some((x, y)) = a.as_num().and_then(|x| Some((x, b.as_num()?))) {
        return Value::Bool(apply_cmp(op, x.partial_cmp(&y)));
    }
    // Fall back to string comparison.
    match (a.into_string(), b.into_string()) {
        (Some(x), Some(y)) => Value::Bool(apply_cmp(op, Some(x.cmp(&y)))),
        _ => Value::Error,
    }
}

/// Term equality that ignores the `@lang`/plain distinction when the lexical
/// forms agree — users type `"Kennedy"` but the data holds `"Kennedy"@en`,
/// and public endpoints are routinely queried with `STR()` shims for this.
fn term_eq_relaxed(a: &Term, b: &Term) -> bool {
    if a == b {
        return true;
    }
    match (a, b) {
        (Term::Literal(la), Term::Literal(lb)) => {
            la.value == lb.value
                && (la.lang.is_none() || lb.lang.is_none())
                && la.datatype.is_none()
                && lb.datatype.is_none()
        }
        _ => false,
    }
}

fn apply_cmp(op: CmpOp, ord: Option<Ordering>) -> bool {
    let Some(ord) = ord else { return false };
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

// ---------------------------------------------------------------------------
// Solution modifiers, on row numbers
// ---------------------------------------------------------------------------
//
// A modifier never moves a row: DISTINCT, ORDER BY, OFFSET and LIMIT edit a
// list of row numbers (of the binding table, or of the groups), and only the
// numbers left at the end are turned into terms.

/// Numbers distinct keys — rows of hashable cells — in first-seen order.
/// Lookups borrow the caller's scratch row; a key is boxed only the first
/// time it is seen.
struct KeyIndex<K> {
    numbers: HashMap<Box<[K]>, usize>,
}

impl<K: Hash + Eq + Clone> KeyIndex<K> {
    fn new() -> Self {
        KeyIndex {
            numbers: HashMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.numbers.len()
    }

    /// The key's number, and whether this call assigned it.
    fn number(&mut self, key: &[K]) -> (usize, bool) {
        if let Some(&n) = self.numbers.get(key) {
            return (n, false);
        }
        let n = self.len();
        self.numbers.insert(key.into(), n);
        (n, true)
    }
}

/// DISTINCT: keep the first row of each distinct key (`key_of` writes a row's
/// key into the scratch vector), in order. Rows past the `reach`-th distinct
/// one cannot survive the slice and are dropped unexamined.
fn retain_distinct<K: Hash + Eq + Clone>(
    rows: &mut Vec<usize>,
    reach: Option<usize>,
    mut key_of: impl FnMut(usize, &mut Vec<K>),
) {
    let mut seen = KeyIndex::new();
    let mut key = Vec::new();
    rows.retain(|&row| {
        if reach.is_some_and(|reach| seen.len() >= reach) {
            return false;
        }
        key.clear();
        key_of(row, &mut key);
        seen.number(&key).1
    });
}

/// One ORDER BY key of one row: the two views [`term_order`] takes of a
/// term — its numeric reading and its lexical form — taken once, before the
/// sort, instead of once per comparison.
#[derive(Clone, Copy)]
enum SortKey<'a> {
    Unbound,
    Value { num: Option<f64>, lexical: &'a str },
}

impl<'a> SortKey<'a> {
    fn of(term: &'a Term) -> Self {
        SortKey::Value {
            num: term.as_literal().and_then(|l| l.as_f64()),
            lexical: term.lexical(),
        }
    }

    fn of_cell(cell: Option<&'a Term>) -> Self {
        cell.map_or(SortKey::Unbound, SortKey::of)
    }

    /// Total order on terms for MIN/MAX/ORDER BY: numeric-aware for
    /// literals, lexical otherwise, with unbound values first.
    fn cmp(&self, other: &Self) -> Ordering {
        use SortKey::{Unbound, Value};
        match (self, other) {
            (Unbound, Unbound) => Ordering::Equal,
            (Unbound, Value { .. }) => Ordering::Less,
            (Value { .. }, Unbound) => Ordering::Greater,
            (Value { num: a, lexical: x }, Value { num: b, lexical: y }) => match (a, b) {
                (Some(a), Some(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
                _ => x.cmp(y),
            },
        }
    }
}

/// The one order on (possibly unbound) terms: what ORDER BY, MIN and MAX
/// compare by here, and what every tier that sorts terms outside the
/// evaluator (federation, cluster merge, the answer table) calls.
pub fn term_order(a: Option<&Term>, b: Option<&Term>) -> Ordering {
    SortKey::of_cell(a).cmp(&SortKey::of_cell(b))
}

/// ORDER BY: arrange `rows` (row numbers, ascending on entry) by `order`, a
/// `(descending, column)` pair per sort key; `key_of(row, column)` reads one
/// key.
///
/// With no `reach` this is the stable sort. With one, only the first `reach`
/// rows of that stable order are wanted: they are selected (rows enter in
/// ascending number, so "stable" is "ties by row number" and the order is
/// total) and the rest dropped, without sorting what the slice will cut.
fn order_rows<'a>(
    rows: &mut Vec<usize>,
    reach: Option<usize>,
    order: &[(bool, usize)],
    key_of: impl Fn(usize, usize) -> SortKey<'a>,
) {
    // Keys are read (and their numbers parsed) once per row, not once per
    // comparison: `keys[row * width + k]` is row's k-th key.
    let width = order.len();
    let mut keys = vec![SortKey::Unbound; rows.last().map_or(0, |last| last + 1) * width];
    for &row in rows.iter() {
        for (k, &(_, column)) in order.iter().enumerate() {
            keys[row * width + k] = key_of(row, column);
        }
    }
    let by_keys = |a: &usize, b: &usize| {
        for (k, &(descending, _)) in order.iter().enumerate() {
            let ord = keys[a * width + k].cmp(&keys[b * width + k]);
            let ord = if descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    };
    match reach {
        Some(0) => rows.clear(),
        Some(reach) if reach < rows.len() => {
            let total = |a: &usize, b: &usize| by_keys(a, b).then(a.cmp(b));
            rows.select_nth_unstable_by(reach - 1, total);
            rows.truncate(reach);
            rows.sort_unstable_by(total);
        }
        _ => rows.sort_by(by_keys),
    }
}

/// How many leading rows of the final order the slice can reach.
fn slice_reach(query: &SelectQuery) -> Option<usize> {
    query
        .limit
        .map(|l| l.saturating_add(query.offset.unwrap_or(0)))
}

/// OFFSET then LIMIT.
fn slice_rows(rows: &mut Vec<usize>, query: &SelectQuery) {
    if let Some(offset) = query.offset {
        rows.drain(..offset.min(rows.len()));
    }
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }
}

/// `(descending, column)` for each ORDER BY key that names a column
/// (`column` resolves a variable name). Other keys order nothing.
fn order_columns(keys: &[OrderKey], column: impl Fn(&str) -> Option<usize>) -> Vec<(bool, usize)> {
    keys.iter()
        .filter_map(|k| match &k.expr {
            Expr::Var(v) => Some((k.descending, column(v)?)),
            _ => None,
        })
        .collect()
}

/// Modifiers and projection of a query without aggregates, over the BGP's
/// binding rows.
fn select_bindings(
    terms: &Interner,
    query: &SelectQuery,
    vars: &VarTable,
    table: &BindingTable,
    reach: Option<usize>,
) -> Solutions {
    let names: Vec<String> = match &query.projection {
        Projection::Star => vars.names.clone(),
        Projection::Items(items) => items.iter().map(|i| i.name().to_string()).collect(),
    };
    let cols: Vec<Option<usize>> = names.iter().map(|n| vars.get(n)).collect();
    let mut rows: Vec<usize> = (0..table.len()).collect();

    // SPARQL orders solutions *before* projection, so sort keys may refer to
    // variables that are not projected (SELECT ?city … ORDER BY DESC(?pop)).
    if !query.order_by.is_empty() {
        let order = order_columns(&query.order_by, |v| vars.get(v));
        // DISTINCT may drop rows from the head of the order, so under it the
        // slice's reach into the *sorted* rows is unknown.
        let reach = reach.filter(|_| !query.distinct);
        order_rows(&mut rows, reach, &order, |row, col| {
            match table.row(row)[col] {
                Some(id) => SortKey::of(terms.resolve(id)),
                None => SortKey::Unbound,
            }
        });
    }
    if query.distinct {
        retain_distinct(&mut rows, reach, |row, key| {
            let row = table.row(row);
            key.extend(cols.iter().map(|c| c.and_then(|c| row[c])));
        });
    }
    slice_rows(&mut rows, query);

    let rows = rows
        .into_iter()
        .map(|row| {
            let row = table.row(row);
            cols.iter()
                .map(|c| c.and_then(|c| row[c]).map(|id| terms.resolve(id).clone()))
                .collect()
        })
        .collect();
    Solutions { vars: names, rows }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// The binding rows partitioned by GROUP BY key: groups are numbered in
/// first-seen order. With no GROUP BY all rows form one group (even when
/// there are none: aggregates over the empty input still yield one row,
/// e.g. COUNT() = 0).
struct Groups {
    /// Group number of each binding row.
    of_row: Vec<usize>,
    /// The groups' keys, `width` ids per group, row-major.
    keys: Vec<Option<TermId>>,
    width: usize,
    len: usize,
}

impl Groups {
    fn partition(table: &BindingTable, group_cols: &[usize]) -> Self {
        let width = group_cols.len();
        if width == 0 {
            return Groups {
                of_row: vec![0; table.len()],
                keys: Vec::new(),
                width,
                len: 1,
            };
        }
        let mut index = KeyIndex::new();
        let mut keys = Vec::new();
        let mut key = Vec::with_capacity(width);
        let of_row = (0..table.len())
            .map(|row| {
                let row = table.row(row);
                key.clear();
                key.extend(group_cols.iter().map(|&c| row[c]));
                let (group, new) = index.number(&key);
                if new {
                    keys.extend_from_slice(&key);
                }
                group
            })
            .collect();
        Groups {
            of_row,
            keys,
            width,
            len: index.len(),
        }
    }

    fn key(&self, group: usize) -> &[Option<TermId>] {
        &self.keys[group * self.width..(group + 1) * self.width]
    }
}

/// One output column of an aggregate query, one entry per group.
enum Column {
    /// A grouping variable: its position in the group key.
    Key(usize),
    /// COUNT, kept as integers until the surviving rows are materialized.
    Counts(Vec<usize>),
    /// SUM / AVG: computed literals.
    Computed(Vec<Term>),
    /// MIN / MAX: an interned term, or `None` for a group with no bound
    /// value (an error, raised if the column is reached).
    Extremes(Vec<Option<TermId>>),
    /// The item cannot be evaluated (raised if there is a group to evaluate
    /// it for).
    Invalid(EvalError),
}

/// One output value of an aggregate query. Within a column every cell is of
/// the same kind, so cell equality is equality of the terms they stand for.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Cell<'a> {
    Id(Option<TermId>),
    Count(usize),
    Computed(&'a Term),
}

impl Column {
    /// The column's value for `group`. Callers have ruled errors out.
    fn cell<'a>(&'a self, group: usize, groups: &Groups) -> Cell<'a> {
        match self {
            Column::Key(at) => Cell::Id(groups.key(group)[*at]),
            Column::Counts(n) => Cell::Count(n[group]),
            Column::Computed(terms) => Cell::Computed(&terms[group]),
            Column::Extremes(ids) => Cell::Id(ids[group]),
            Column::Invalid(_) => unreachable!("invalid columns are raised before any is read"),
        }
    }

    /// The error evaluating this column for `group` raises, if any.
    fn error(&self, group: usize) -> Option<EvalError> {
        match self {
            Column::Invalid(e) => Some(e.clone()),
            Column::Extremes(ids) if ids[group].is_none() => {
                Some(EvalError::Unsupported("MIN/MAX over empty group".into()))
            }
            _ => None,
        }
    }
}

impl<'a> Cell<'a> {
    fn sort_key(self, terms: &'a Interner) -> SortKey<'a> {
        match self {
            Cell::Id(None) => SortKey::Unbound,
            Cell::Id(Some(id)) => SortKey::of(terms.resolve(id)),
            // Counts only ever meet counts, which compare as numbers.
            Cell::Count(n) => SortKey::Value {
                num: Some(n as f64),
                lexical: "",
            },
            Cell::Computed(term) => SortKey::of(term),
        }
    }

    fn into_term(self, terms: &Interner) -> Option<Term> {
        match self {
            Cell::Id(id) => id.map(|id| terms.resolve(id).clone()),
            Cell::Count(n) => Some(Term::Literal(Literal::integer(n as i64))),
            Cell::Computed(term) => Some(term.clone()),
        }
    }
}

/// GROUP BY, aggregates, modifiers and projection of an aggregate query.
fn select_aggregated(
    terms: &Interner,
    query: &SelectQuery,
    vars: &VarTable,
    table: &BindingTable,
    reach: Option<usize>,
) -> Result<Solutions, EvalError> {
    let Projection::Items(items) = &query.projection else {
        return Err(EvalError::Unsupported("SELECT * with GROUP BY".into()));
    };
    let group_cols: Vec<usize> = query
        .group_by
        .iter()
        .map(|g| {
            vars.get(g)
                .ok_or_else(|| EvalError::Unsupported(format!("GROUP BY unknown variable ?{g}")))
        })
        .collect::<Result<_, _>>()?;
    let groups = Groups::partition(table, &group_cols);

    let names: Vec<String> = items.iter().map(|i| i.name().to_string()).collect();
    let columns: Vec<Column> = items
        .iter()
        .map(|item| match item {
            // Must be a grouping variable; read it from the key.
            SelectItem::Var(v) => match query.group_by.iter().position(|g| g == v) {
                Some(at) => Column::Key(at),
                None => Column::Invalid(EvalError::Unsupported(format!(
                    "projected variable ?{v} is neither aggregated nor grouped"
                ))),
            },
            SelectItem::Agg { agg, .. } => {
                aggregate_column(terms, agg, vars, table, &groups).unwrap_or_else(Column::Invalid)
            }
        })
        .collect();
    // Errors surface in (group, item) order, and only if there is a group.
    if let Some(error) =
        (0..groups.len).find_map(|group| columns.iter().find_map(|c| c.error(group)))
    {
        return Err(error);
    }

    let mut rows: Vec<usize> = (0..groups.len).collect();
    // Rows that carry their whole group key are distinct as they stand.
    let keyed = (0..groups.width).all(|at| {
        columns
            .iter()
            .any(|c| matches!(c, Column::Key(k) if *k == at))
    });
    if query.distinct && !keyed {
        retain_distinct(&mut rows, None, |group, key| {
            key.extend(columns.iter().map(|c| c.cell(group, &groups)));
        });
    }
    // The sort keys of an aggregate query refer to output columns.
    if !query.order_by.is_empty() {
        let order = order_columns(&query.order_by, |v| names.iter().position(|n| n == v));
        order_rows(&mut rows, reach, &order, |group, col| {
            columns[col].cell(group, &groups).sort_key(terms)
        });
    }
    slice_rows(&mut rows, query);

    let rows = rows
        .into_iter()
        .map(|group| {
            columns
                .iter()
                .map(|c| c.cell(group, &groups).into_term(terms))
                .collect()
        })
        .collect();
    Ok(Solutions { vars: names, rows })
}

/// Evaluate one aggregate for every group, in one pass over the binding rows
/// (in row order, so order-sensitive folds see each group's rows in order).
fn aggregate_column(
    terms: &Interner,
    agg: &Aggregate,
    vars: &VarTable,
    table: &BindingTable,
    groups: &Groups,
) -> Result<Column, EvalError> {
    let col = |v: &String| -> Result<usize, EvalError> {
        vars.get(v)
            .ok_or_else(|| EvalError::Unsupported(format!("aggregate over unknown variable ?{v}")))
    };
    // `(group, bound id)` of column `c`, per binding row that binds it.
    let bound = |c: usize| {
        (0..table.len()).filter_map(move |row| Some((groups.of_row[row], table.row(row)[c]?)))
    };
    // Numeric readings of column `c`, per group.
    let numbers = |c: usize| {
        let mut nums: Vec<Vec<f64>> = vec![Vec::new(); groups.len];
        for (group, id) in bound(c) {
            if let Some(n) = terms.resolve(id).as_literal().and_then(|l| l.as_f64()) {
                nums[group].push(n);
            }
        }
        nums
    };
    let mut counts = vec![0usize; groups.len];
    Ok(match agg {
        Aggregate::Count {
            distinct: false,
            var: None,
        } => {
            for &group in &groups.of_row {
                counts[group] += 1;
            }
            Column::Counts(counts)
        }
        Aggregate::Count {
            distinct: false,
            var: Some(v),
        } => {
            for (group, _) in bound(col(v)?) {
                counts[group] += 1;
            }
            Column::Counts(counts)
        }
        Aggregate::Count {
            distinct: true,
            var: Some(v),
        } => {
            let mut values: Vec<(usize, TermId)> = bound(col(v)?).collect();
            values.sort_unstable();
            values.dedup();
            for (group, _) in values {
                counts[group] += 1;
            }
            Column::Counts(counts)
        }
        Aggregate::Count {
            distinct: true,
            var: None,
        } => {
            let keyed = |row: &usize| (groups.of_row[*row], table.row(*row));
            let mut rows: Vec<usize> = (0..table.len()).collect();
            rows.sort_unstable_by_key(keyed);
            rows.dedup_by_key(|row| keyed(row));
            for row in rows {
                counts[groups.of_row[row]] += 1;
            }
            Column::Counts(counts)
        }
        Aggregate::Sum(v) => Column::Computed(
            numbers(col(v)?)
                .iter()
                .map(|nums| {
                    let sum: f64 = nums.iter().sum();
                    Term::Literal(Literal::typed(format_num(sum), vocab::xsd::DECIMAL))
                })
                .collect(),
        ),
        Aggregate::Avg(v) => Column::Computed(
            numbers(col(v)?)
                .iter()
                .map(|nums| {
                    let avg = if nums.is_empty() {
                        0.0
                    } else {
                        nums.iter().sum::<f64>() / nums.len() as f64
                    };
                    Term::Literal(Literal::typed(format!("{avg}"), vocab::xsd::DECIMAL))
                })
                .collect(),
        ),
        Aggregate::Min(v) | Aggregate::Max(v) => {
            let replaces = if matches!(agg, Aggregate::Max(_)) {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let mut best: Vec<Option<TermId>> = vec![None; groups.len];
            for (group, id) in bound(col(v)?) {
                let replace = best[group].is_none_or(|b| {
                    term_order(Some(terms.resolve(b)), Some(terms.resolve(id))) == replaces
                });
                if replace {
                    best[group] = Some(id);
                }
            }
            Column::Extremes(best)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_select};

    fn city_graph() -> Graph {
        let ttl = r#"
@prefix dbo: <http://dbpedia.org/ontology/> .
@prefix res: <http://dbpedia.org/resource/> .
res:New_York a dbo:City ; dbo:name "New York"@en ; dbo:population 8400000 ; dbo:country res:USA .
res:Sydney a dbo:City ; dbo:name "Sydney"@en ; dbo:population 5300000 ; dbo:country res:Australia .
res:Canberra a dbo:City ; dbo:name "Canberra"@en ; dbo:population 430000 ; dbo:country res:Australia .
res:USA a dbo:Country ; dbo:name "United States"@en .
res:Australia a dbo:Country ; dbo:name "Australia"@en ; dbo:capital res:Canberra .
"#;
        crate::turtle::parse(ttl).unwrap()
    }

    fn run(graph: &Graph, q: &str) -> Solutions {
        let query = parse_select(q).unwrap();
        evaluate_select(graph, &query, &mut WorkBudget::unlimited()).unwrap()
    }

    #[test]
    fn simple_bgp() {
        let g = city_graph();
        let s = run(&g, "SELECT ?c WHERE { ?c a dbo:City }");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn join_across_patterns() {
        let g = city_graph();
        let s = run(
            &g,
            r#"SELECT ?name WHERE { ?c a dbo:City ; dbo:country res:Australia ; dbo:name ?name }"#,
        );
        let mut names: Vec<String> = s.values("name").map(|t| t.lexical().to_string()).collect();
        names.sort();
        assert_eq!(names, vec!["Canberra", "Sydney"]);
    }

    #[test]
    fn filter_numeric() {
        let g = city_graph();
        let s = run(
            &g,
            "SELECT ?c WHERE { ?c dbo:population ?p . FILTER(?p > 1000000) }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn filter_lang_and_strlen() {
        let g = city_graph();
        let s = run(
            &g,
            "SELECT ?o WHERE { ?s dbo:name ?o . FILTER(isliteral(?o) && lang(?o) = 'en' && strlen(str(?o)) < 8) }",
        );
        // "Sydney" (6) qualifies; "New York" is 8; "Canberra" is 8; "Australia" 9; "United States" 13.
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0][0].as_ref().unwrap().lexical(), "Sydney");
    }

    #[test]
    fn count_aggregate() {
        let g = city_graph();
        let s = run(&g, "SELECT (COUNT(?c) AS ?n) WHERE { ?c a dbo:City }");
        assert_eq!(s.sole_value().unwrap().lexical(), "3");
    }

    #[test]
    fn count_empty_is_zero() {
        let g = city_graph();
        let s = run(&g, "SELECT (COUNT(?c) AS ?n) WHERE { ?c a dbo:Person }");
        assert_eq!(s.sole_value().unwrap().lexical(), "0");
    }

    #[test]
    fn group_by_with_order() {
        let g = city_graph();
        let s = run(
            &g,
            "SELECT ?country (COUNT(?c) AS ?n) WHERE { ?c a dbo:City ; dbo:country ?country } GROUP BY ?country ORDER BY DESC(?n)",
        );
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.rows[0][0].as_ref().unwrap().lexical(),
            "http://dbpedia.org/resource/Australia"
        );
        assert_eq!(s.rows[0][1].as_ref().unwrap().lexical(), "2");
    }

    #[test]
    fn order_limit_offset() {
        let g = city_graph();
        let s = run(
            &g,
            "SELECT ?c ?p WHERE { ?c dbo:population ?p } ORDER BY DESC(?p) LIMIT 1",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.get(0, "c").unwrap().lexical(),
            "http://dbpedia.org/resource/New_York"
        );

        let s = run(
            &g,
            "SELECT ?c ?p WHERE { ?c dbo:population ?p } ORDER BY DESC(?p) LIMIT 1 OFFSET 1",
        );
        assert_eq!(
            s.get(0, "c").unwrap().lexical(),
            "http://dbpedia.org/resource/Sydney"
        );
    }

    #[test]
    fn distinct() {
        let g = city_graph();
        let s = run(
            &g,
            "SELECT DISTINCT ?country WHERE { ?c a dbo:City ; dbo:country ?country }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ask_queries() {
        let g = city_graph();
        let q = parse_query("ASK { res:Sydney a dbo:City }").unwrap();
        assert_eq!(
            evaluate(&g, &q, &mut WorkBudget::unlimited())
                .unwrap()
                .boolean(),
            Some(true)
        );
        let q = parse_query("ASK { res:Sydney a dbo:Country }").unwrap();
        assert_eq!(
            evaluate(&g, &q, &mut WorkBudget::unlimited())
                .unwrap()
                .boolean(),
            Some(false)
        );
    }

    #[test]
    fn work_budget_triggers_timeout() {
        let g = city_graph();
        let query = parse_select("SELECT ?s ?p ?o WHERE { ?s ?p ?o }").unwrap();
        let mut tight = WorkBudget::limited(3);
        let err = evaluate_select(&g, &query, &mut tight).unwrap_err();
        assert!(matches!(err, EvalError::WorkLimitExceeded { .. }));
        // The same query under a generous budget succeeds.
        let mut roomy = WorkBudget::limited(1_000_000);
        assert!(evaluate_select(&g, &query, &mut roomy).is_ok());
    }

    #[test]
    fn an_exhausted_budget_has_used_one_unit_past_its_limit() {
        // Whether a scan or a row runs it out, and however long the scan.
        let g = city_graph();
        for (q, limit) in [
            ("SELECT ?s WHERE { ?s ?p ?o }", 3),
            ("SELECT ?s WHERE { ?s ?p ?o }", g.len() as u64 + 2),
            ("SELECT ?c WHERE { ?c a dbo:City . ?c dbo:name ?n }", 4),
        ] {
            let mut budget = WorkBudget::limited(limit);
            let err = evaluate_select(&g, &parse_select(q).unwrap(), &mut budget).unwrap_err();
            assert_eq!(err, EvalError::WorkLimitExceeded { used: limit + 1 });
            assert_eq!(budget.used(), limit + 1);
        }
    }

    #[test]
    fn sliced_order_by_is_the_head_of_the_stable_sort() {
        // Three cities in two countries: ordering by country ties Sydney and
        // Canberra, and every slice must cut the same stable order.
        let g = city_graph();
        let q = "SELECT ?c WHERE { ?c a dbo:City ; dbo:country ?k } ORDER BY ?k";
        let full = run(&g, q);
        assert_eq!(full.len(), 3);
        for limit in 0..4 {
            for offset in 0..4 {
                let page = run(&g, &format!("{q} LIMIT {limit} OFFSET {offset}"));
                let expected: Vec<_> = full.rows.iter().skip(offset).take(limit).collect();
                assert_eq!(page.rows.iter().collect::<Vec<_>>(), expected);
            }
        }
    }

    #[test]
    fn distinct_under_order_by_keeps_the_first_row_in_sorted_order() {
        // DISTINCT ?k sorted by an unprojected key: Australia's first row in
        // population order is Canberra's, so it sorts before the USA.
        let g = city_graph();
        let s = run(
            &g,
            "SELECT DISTINCT ?k WHERE { ?c dbo:country ?k ; dbo:population ?p } ORDER BY ?p LIMIT 1",
        );
        assert_eq!(
            s.rows[0][0].as_ref().unwrap().lexical(),
            "http://dbpedia.org/resource/Australia"
        );
        let s = run(
            &g,
            "SELECT DISTINCT ?k WHERE { ?c dbo:country ?k ; dbo:population ?p } ORDER BY DESC(?p)",
        );
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.rows[0][0].as_ref().unwrap().lexical(),
            "http://dbpedia.org/resource/USA"
        );
    }

    #[test]
    fn distinct_merges_aggregate_rows_that_drop_their_key() {
        let g = city_graph();
        // One name per city: three groups, all of count 1.
        let s = run(
            &g,
            "SELECT DISTINCT (COUNT(?n) AS ?names) WHERE { ?c a dbo:City ; dbo:name ?n } GROUP BY ?c",
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.sole_value().unwrap().lexical(), "1");
        // With the key projected the rows are distinct as they stand.
        let s = run(
            &g,
            "SELECT DISTINCT ?c (COUNT(?n) AS ?names) WHERE { ?c a dbo:City ; dbo:name ?n } GROUP BY ?c",
        );
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn count_distinct_counts_values_not_rows() {
        let g = city_graph();
        let s = run(
            &g,
            "SELECT (COUNT(DISTINCT ?k) AS ?n) (COUNT(?k) AS ?m) WHERE { ?c a dbo:City ; dbo:country ?k }",
        );
        assert_eq!(s.rows[0][0].as_ref().unwrap().lexical(), "2");
        assert_eq!(s.rows[0][1].as_ref().unwrap().lexical(), "3");
    }

    #[test]
    fn aggregate_errors_need_a_group_to_surface() {
        let g = city_graph();
        let eval =
            |q: &str| evaluate_select(&g, &parse_select(q).unwrap(), &mut WorkBudget::unlimited());
        let bad =
            "SELECT ?c (COUNT(?n) AS ?names) WHERE { ?c a dbo:Person ; dbo:name ?n } GROUP BY ?n";
        assert_eq!(eval(bad).unwrap().len(), 0);
        let bad =
            "SELECT ?c (COUNT(?n) AS ?names) WHERE { ?c a dbo:City ; dbo:name ?n } GROUP BY ?n";
        assert!(matches!(eval(bad), Err(EvalError::Unsupported(_))));
        let empty = "SELECT (MIN(?p) AS ?m) WHERE { ?c a dbo:Person ; dbo:population ?p }";
        assert!(matches!(eval(empty), Err(EvalError::Unsupported(_))));
    }

    #[test]
    fn case_insensitive_regex_folds_text_and_pattern() {
        let g = city_graph();
        let s = run(
            &g,
            r#"SELECT ?c WHERE { ?c dbo:name ?n . FILTER(regex(str(?n), "^NEW y", "i")) }"#,
        );
        assert_eq!(s.len(), 1);
        // Without the flag the same pattern matches nothing.
        let s = run(
            &g,
            r#"SELECT ?c WHERE { ?c dbo:name ?n . FILTER(regex(str(?n), "^NEW y")) }"#,
        );
        assert!(s.is_empty());
        // Two folded patterns in one filter are kept apart.
        let s = run(
            &g,
            r#"SELECT ?c WHERE { ?c dbo:name ?n . FILTER(regex(str(?n), "SYD", "i") || regex(str(?n), "BERRA$", "i")) }"#,
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn limit_pushdown_reduces_work() {
        let g = city_graph();
        let q_all = parse_select("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
        let q_lim = parse_select("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1").unwrap();
        let mut b_all = WorkBudget::unlimited();
        let mut b_lim = WorkBudget::unlimited();
        evaluate_select(&g, &q_all, &mut b_all).unwrap();
        evaluate_select(&g, &q_lim, &mut b_lim).unwrap();
        assert!(b_lim.used() < b_all.used());
    }

    #[test]
    fn ground_term_absent_from_graph_yields_empty() {
        let g = city_graph();
        let s = run(&g, "SELECT ?o WHERE { res:Atlantis dbo:name ?o }");
        assert!(s.is_empty());
    }

    #[test]
    fn repeated_variable_in_pattern() {
        let this = Term::iri("http://x/self");
        let g = Graph::from_term_triples([
            (
                Term::iri("http://x/loop"),
                this.clone(),
                Term::iri("http://x/loop"),
            ),
            (
                Term::iri("http://x/loop"),
                this,
                Term::iri("http://x/other"),
            ),
        ]);
        let s = run(&g, "SELECT ?x WHERE { ?x <http://x/self> ?x }");
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows[0][0].as_ref().unwrap().lexical(), "http://x/loop");
    }

    #[test]
    fn relaxed_literal_equality_matches_lang_tagged() {
        let g = city_graph();
        let s = run(
            &g,
            r#"SELECT ?c WHERE { ?c dbo:name ?n . FILTER(?n = "Sydney") }"#,
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn regex_lite() {
        let g = city_graph();
        let s = run(
            &g,
            r#"SELECT ?c WHERE { ?c dbo:name ?n . FILTER(regex(str(?n), "york", "i")) }"#,
        );
        assert_eq!(s.len(), 1);
        let s = run(
            &g,
            r#"SELECT ?c WHERE { ?c dbo:name ?n . FILTER(regex(str(?n), "^Syd")) }"#,
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn projection_of_unbound_var_is_none() {
        let g = city_graph();
        let s = run(&g, "SELECT ?ghost WHERE { ?c a dbo:City }");
        assert_eq!(s.len(), 3);
        assert!(s.rows.iter().all(|r| r[0].is_none()));
    }

    #[test]
    fn bare_count_gets_auto_alias() {
        let g = city_graph();
        let s = run(&g, "SELECT count(?c) WHERE { ?c a dbo:City }");
        assert_eq!(s.vars.len(), 1);
        assert_eq!(s.rows[0][0].as_ref().unwrap().lexical(), "3");
    }

    #[test]
    fn min_max_aggregates() {
        let g = city_graph();
        let s = run(&g, "SELECT (MAX(?p) AS ?m) WHERE { ?c dbo:population ?p }");
        assert_eq!(s.sole_value().unwrap().lexical(), "8400000");
        let s = run(&g, "SELECT (MIN(?p) AS ?m) WHERE { ?c dbo:population ?p }");
        assert_eq!(s.sole_value().unwrap().lexical(), "430000");
    }

    #[test]
    fn order_by_unprojected_variable() {
        // Regression: SPARQL sorts before projecting, so ORDER BY may use a
        // variable that SELECT drops.
        let g = city_graph();
        let s = run(
            &g,
            "SELECT ?c WHERE { ?c a dbo:City ; dbo:population ?p } ORDER BY DESC(?p) LIMIT 1",
        );
        assert_eq!(s.vars, vec!["c"]);
        assert_eq!(
            s.get(0, "c").unwrap().lexical(),
            "http://dbpedia.org/resource/New_York"
        );
    }

    #[test]
    fn sum_and_avg() {
        let g = city_graph();
        let s = run(
            &g,
            "SELECT (SUM(?p) AS ?total) WHERE { ?c dbo:population ?p }",
        );
        assert_eq!(s.sole_value().unwrap().lexical(), "14130000");
        let s = run(
            &g,
            "SELECT (AVG(?p) AS ?mean) WHERE { ?c dbo:population ?p }",
        );
        assert_eq!(s.sole_value().unwrap().lexical(), "4710000");
    }

    // --- inline data ------------------------------------------------------

    /// Work units a SELECT uses under an unlimited budget.
    fn work(graph: &Graph, q: &str) -> u64 {
        let mut budget = WorkBudget::unlimited();
        evaluate_select(graph, &parse_select(q).unwrap(), &mut budget).unwrap();
        budget.used()
    }

    fn lexicals(s: &Solutions, var: &str) -> Vec<String> {
        s.values(var).map(|t| t.lexical().to_string()).collect()
    }

    #[test]
    fn values_join_in_list_order_and_skip_terms_the_graph_lacks() {
        let g = city_graph();
        let s = run(
            &g,
            r#"SELECT ?n ?c WHERE { ?c dbo:name ?n VALUES ?n { "Sydney"@en "Atlantis"@en "Canberra"@en } }"#,
        );
        assert_eq!(lexicals(&s, "n"), ["Sydney", "Canberra"]);
        assert_eq!(s.vars, ["n", "c"]);
        // No value present at all: no solutions, no work.
        let none = r#"SELECT ?c WHERE { ?c dbo:name ?n VALUES ?n { "Atlantis"@en } }"#;
        assert!(run(&g, none).is_empty());
        assert_eq!(work(&g, none), 0);
        assert!(run(&g, "SELECT ?c WHERE { ?c dbo:name ?n VALUES ?n { } }").is_empty());
    }

    #[test]
    fn duplicate_values_yield_duplicate_solutions() {
        let g = city_graph();
        let q = r#"?c WHERE { ?c dbo:country ?k VALUES ?k { res:USA res:Australia res:USA } }"#;
        let s = run(&g, &format!("SELECT {q}"));
        assert_eq!(s.len(), 4, "USA's city twice, Australia's two once");
        assert_eq!(run(&g, &format!("SELECT DISTINCT {q}")).len(), 3);
    }

    #[test]
    fn a_values_variable_repeated_in_a_pattern_must_agree_with_itself() {
        let this = Term::iri("http://x/self");
        let node = |n: &str| Term::iri(format!("http://x/{n}"));
        let g = Graph::from_term_triples([
            (node("loop"), this.clone(), node("loop")),
            (node("loop"), this.clone(), node("other")),
            (node("other"), this, node("loop")),
        ]);
        let s = run(
            &g,
            "SELECT ?x WHERE { ?x <http://x/self> ?x VALUES ?x { <http://x/other> <http://x/loop> } }",
        );
        assert_eq!(lexicals(&s, "x"), ["http://x/loop"]);
    }

    #[test]
    fn filters_see_the_values_variable() {
        let g = city_graph();
        let s = run(
            &g,
            r#"SELECT ?c WHERE { ?c dbo:name ?n . FILTER(strlen(str(?n)) < 8)
               VALUES ?n { "Sydney"@en "Canberra"@en } }"#,
        );
        assert_eq!(lexicals(&s, "c"), ["http://dbpedia.org/resource/Sydney"]);
        // A filter on the values variable and one the pattern binds later.
        let s = run(
            &g,
            r#"SELECT ?n WHERE { ?c dbo:name ?n ; dbo:population ?p . FILTER(?p > 1000000 && lang(?n) = "en")
               VALUES ?n { "Canberra"@en "New York"@en } }"#,
        );
        assert_eq!(lexicals(&s, "n"), ["New York"]);
    }

    #[test]
    fn ask_with_values_stops_at_the_first_solution() {
        let g = city_graph();
        let ask = |q: &str| {
            let mut budget = WorkBudget::unlimited();
            let answer = evaluate(&g, &parse_query(q).unwrap(), &mut budget).unwrap();
            (answer.boolean().unwrap(), budget.used())
        };
        let (yes, used) =
            ask("ASK { ?c dbo:country ?k VALUES ?k { res:Mars res:Australia res:USA } }");
        assert!(yes);
        // Australia's two cities scanned, one row produced; the USA not entered.
        assert_eq!(used, 3);
        assert!(!ask("ASK { ?c dbo:country ?k VALUES ?k { res:Mars } }").0);
    }

    #[test]
    fn limit_is_pushed_down_across_values() {
        let g = city_graph();
        let q = "SELECT ?c WHERE { ?c dbo:country ?k VALUES ?k { res:Australia res:USA } }";
        assert_eq!(run(&g, q).len(), 3);
        let limited = format!("{q} LIMIT 2");
        assert_eq!(run(&g, &limited).rows, run(&g, q).rows[..2]);
        assert!(work(&g, &limited) < work(&g, q), "the USA is never entered");
        let page = run(&g, &format!("{q} LIMIT 1 OFFSET 2"));
        assert_eq!(page.rows, run(&g, q).rows[2..]);
    }

    #[test]
    fn aggregates_run_over_the_joined_values() {
        let g = city_graph();
        let s = run(
            &g,
            "SELECT ?k (COUNT(?c) AS ?n) WHERE { ?c dbo:country ?k VALUES ?k { res:USA res:Australia res:Mars } } GROUP BY ?k",
        );
        assert_eq!(lexicals(&s, "n"), ["1", "2"]);
        let s = run(
            &g,
            "SELECT (COUNT(?c) AS ?n) WHERE { ?c dbo:country ?k VALUES ?k { res:Mars } }",
        );
        assert_eq!(s.sole_value().unwrap().lexical(), "0");
    }

    #[test]
    fn values_work_is_the_sum_of_the_per_value_queries() {
        let g = city_graph();
        let rest = "?n WHERE { ?c a dbo:City ; dbo:country ?k ; dbo:name ?n";
        let batched = work(
            &g,
            &format!(
                "SELECT {rest} VALUES ?k {{ res:Australia res:Mars res:USA res:Australia }} }}"
            ),
        );
        let one = |k: &str| work(&g, &format!("SELECT {} }}", rest.replace("?k", k)));
        assert_eq!(
            batched,
            2 * one("res:Australia") + one("res:USA") + one("res:Mars")
        );
        assert_eq!(one("res:Mars"), 0);
        // The values variable counts as bound when the join is ordered: the
        // pattern it is in leads, as a look-up, not as a scan of the predicate.
        let unbound = work(&g, &format!("SELECT {rest} }}"));
        assert!(one("res:USA") < unbound);
    }

    #[test]
    fn asking_only_for_the_values_takes_one_solution_each() {
        let g = city_graph();
        let pattern = "WHERE { ?c dbo:country ?k ; dbo:name ?n VALUES ?k { res:Australia res:Mars res:USA res:Australia } }";
        let which = run(&g, &format!("SELECT DISTINCT ?k {pattern}"));
        assert_eq!(
            lexicals(&which, "k"),
            [
                "http://dbpedia.org/resource/Australia",
                "http://dbpedia.org/resource/USA"
            ]
        );
        // Same answer as walking every solution, for less work.
        let every = run(&g, &format!("SELECT ?k {pattern}"));
        let mut all = lexicals(&every, "k");
        all.dedup();
        assert_eq!(all[..2], lexicals(&which, "k")[..]);
        // The list's four values outnumber the three country triples, so the
        // pattern is walked once from its side: the country range, then
        // each city's name triple and row — against 2 * 4 + 3 value by
        // value (Australia, twice: its range of two, the first city's name
        // triple, one row; the USA: one of each). Every solution, value by
        // value: the second Australian city's name and row as well.
        assert_eq!(
            work(&g, &format!("SELECT DISTINCT ?k {pattern}")),
            3 + 3 * 2
        );
        assert_eq!(work(&g, &format!("SELECT ?k {pattern}")), 2 * 6 + 3);
        // Another projected variable, or an order, and every solution counts.
        assert_eq!(
            work(&g, &format!("SELECT DISTINCT ?k ?n {pattern}")),
            work(&g, &format!("SELECT ?k ?n {pattern}"))
        );
        assert_eq!(
            run(&g, &format!("SELECT DISTINCT ?k {pattern} ORDER BY ?n")).len(),
            2
        );
    }

    #[test]
    fn fewer_values_than_the_smallest_range_are_walked_one_by_one() {
        let g = city_graph();
        let pattern =
            "WHERE { ?c dbo:country ?k ; dbo:name ?n VALUES ?k { res:USA res:Australia } }";
        let which = run(&g, &format!("SELECT DISTINCT ?k {pattern}"));
        assert_eq!(
            lexicals(&which, "k"),
            [
                "http://dbpedia.org/resource/USA",
                "http://dbpedia.org/resource/Australia"
            ]
        );
        // Two values against three country triples: the USA's range of one,
        // its city's name triple, one row; Australia's range of two, the
        // first city's name triple, one row.
        assert_eq!(work(&g, &format!("SELECT DISTINCT ?k {pattern}")), 3 + 4);
    }

    #[test]
    fn values_on_a_variable_no_pattern_binds_is_unsupported() {
        let g = city_graph();
        let q = parse_select("SELECT ?c WHERE { ?c a dbo:City VALUES ?x { res:USA } }").unwrap();
        assert!(matches!(
            evaluate_select(&g, &q, &mut WorkBudget::unlimited()),
            Err(EvalError::Unsupported(_))
        ));
    }

    // --- join order --------------------------------------------------------

    /// A graph term by number: `0..6` are nodes (subjects and objects, so
    /// patterns chain), `6..8` literals.
    fn join_term(k: usize) -> Term {
        if k < 6 {
            Term::iri(format!("http://x/n{k}"))
        } else {
            Term::en(format!("v{k}"))
        }
    }

    /// Connected BGPs: four patterns a shape, any prefix of which is
    /// connected, and a lone pattern without variables. Ground terms come
    /// from `pick`, a triple of the graph as `[s, p, o]`.
    fn connected_shapes(mut pick: impl FnMut() -> [String; 3]) -> Vec<(&'static str, Vec<String>)> {
        let [_, p0, _] = pick();
        let [_, p1, _] = pick();
        let [_, p2, _] = pick();
        let [s, p, o] = pick();
        let f = |text: &str| text.to_string();
        vec![
            (
                "star",
                vec![
                    format!("?a {p0} ?b"),
                    format!("?a {p1} ?c"),
                    f("?a ?v ?d"),
                    format!("?a {p} {o}"),
                ],
            ),
            (
                "chain",
                vec![
                    format!("?a {p0} ?b"),
                    format!("?b {p1} ?c"),
                    format!("?c {p2} ?d"),
                    f("?d ?v ?e"),
                ],
            ),
            (
                "anchored predicate-variable chain",
                vec![
                    format!("?a {p} {o}"),
                    f("?a ?v ?b"),
                    format!("?b {p1} ?c"),
                    format!("?c {p2} ?d"),
                ],
            ),
            (
                "triangle",
                vec![
                    format!("?a {p0} ?b"),
                    format!("?b {p1} ?c"),
                    format!("?c {p2} ?a"),
                    f("?a ?v ?d"),
                ],
            ),
            (
                "variable predicates",
                vec![
                    f("?a ?v ?b"),
                    f("?b ?w ?c"),
                    format!("?c {p} {o}"),
                    format!("?a {p0} ?d"),
                ],
            ),
            ("all-ground", vec![format!("{s} {p} {o}")]),
        ]
    }

    /// `?x <p0> ?v . ?y <p1> ?z` over a graph of `p0` and `p1` triples:
    /// the BGP is a cross product.
    fn disconnected_shape([p0, p1]: [String; 2]) -> String {
        format!("?x {p0} ?v . ?y {p1} ?z")
    }

    /// The steps, in join order, of the plan of `SELECT * WHERE { bgp }`
    /// walked whole. `seed` is a pick among the BGP's variables and a value:
    /// `VALUES` lists the value for the picked variable, so the BGP is
    /// planned value by value with that variable bound. Each step's
    /// `crosses` flag is checked against the order: a step past the first
    /// crosses when it has variables and none is the seed's or an earlier
    /// step's.
    fn plan_steps(g: &Graph, bgp: &str, seed: Option<(usize, TermId)>) -> Vec<Step> {
        let text = format!("SELECT * WHERE {{ {bgp} }}");
        let names = parse_select(&text).unwrap().pattern.variables();
        let seed = seed.filter(|_| !names.is_empty());
        let seed = seed.map(|(pick, value)| (names[pick % names.len()].as_str(), value));
        let values = match seed {
            Some((var, value)) => format!("VALUES ?{var} {{ {} }}", g.term(value)),
            None => String::new(),
        };
        let query = parse_select(&format!("SELECT * WHERE {{ {bgp} {values} }}")).unwrap();
        let plan = plan(g, &query.pattern, Walk::All).unwrap();
        let triples = &query.pattern.triples;
        let planned = match plan.side {
            Side::Values(..) => seed.is_some(),
            Side::Whole => seed.is_none(),
            _ => false,
        };
        assert!(
            planned && plan.steps.len() == triples.len(),
            "{bgp} {values}"
        );
        let mut bound: Vec<&str> = seed.map(|(var, _)| var).into_iter().collect();
        for (at, step) in plan.steps.iter().enumerate() {
            let own: Vec<&str> = triples[step.pattern].variables().collect();
            let crosses = at > 0 && !own.is_empty() && !own.iter().any(|v| bound.contains(v));
            assert_eq!(step.crosses, crosses, "step {at}: {bgp} {values}");
            bound.extend(own);
        }
        plan.steps
    }

    /// The first step past step 0 of the plan of `bgp` (as [`plan_steps`]
    /// makes it) that crosses the steps before it — it has a variable and
    /// shares none with an earlier step or the seed — described, if any.
    fn crossing_step(g: &Graph, bgp: &str, seed: Option<(usize, TermId)>) -> Option<String> {
        let steps = plan_steps(g, bgp, seed);
        let order: Vec<usize> = steps.iter().map(|step| step.pattern).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..steps.len()).collect::<Vec<_>>(), "{bgp}");
        let step = steps.iter().position(|step| step.crosses)?;
        Some(format!(
            "seed {seed:?}: step {step} of {order:?} crosses: {bgp}"
        ))
    }

    /// Forty `p0` triples on twenty objects, two subjects each, and thirty
    /// `p1` triples: [`disconnected_shape`] over it is a 30 × 40 product.
    fn disconnected_graph() -> Graph {
        let node = |kind: &str, k: usize| Term::iri(format!("http://x/{kind}{k}"));
        let p0 = (0..40).map(|k| (node("s", k), node("p", 0), node("o", k % 20)));
        let p1 = (0..30).map(|k| (node("t", k), node("p", 1), node("u", k)));
        Graph::from_term_triples(p0.chain(p1))
    }

    #[test]
    fn a_disconnected_probe_is_answered_value_by_value() {
        let g = disconnected_graph();
        let bgp = disconnected_shape(["<http://x/p0>".into(), "<http://x/p1>".into()]);
        // Fifty values: the twenty objects, last first, at every other one
        // of the first forty places, and thirty terms the graph lacks.
        let listed: Vec<String> = (0..50)
            .map(|k| match k {
                k if k % 2 == 0 && k < 40 => format!("<http://x/o{}>", 19 - k / 2),
                k => format!("<http://x/none{k}>"),
            })
            .collect();
        let q = format!(
            "SELECT DISTINCT ?v WHERE {{ {bgp} VALUES ?v {{ {} }} }}",
            listed.join(" ")
        );
        let want: Vec<String> = (0..20).rev().map(|k| format!("http://x/o{k}")).collect();
        assert_eq!(lexicals(&run(&g, &q), "v"), want);
        // The fifty values outnumber `p1`'s thirty triples, but the BGP
        // crosses: walked from its side it would read `p1`'s range, `p0`'s
        // for each of its rows and the 1,200 rows (2,430). Value by value
        // each object reads its two `p0` triples, `p1`'s thirty for the
        // first of them, and one row.
        assert_eq!(work(&g, &q), 20 * (2 + 30 + 1));
    }

    proptest::proptest! {
        /// Every join order of a connected BGP is connected, with and
        /// without a `VALUES` seed. Among the shapes is `?a <p> "x" . ?a ?v
        /// ?b . ?b <q> ?c`, which a planner ranking bound positions before
        /// joins orders (0, 2, 1): `?b <q> ?c` is as bound as `?a ?v ?b`,
        /// and its range is smaller.
        #[test]
        fn a_connected_bgp_is_planned_without_a_cross_product(
            triples in proptest::collection::vec((0usize..6, 0usize..3, 0usize..8), 4..30),
            picks in proptest::collection::vec(0usize..1024, 16..17),
        ) {
            let g = Graph::from_term_triples(triples.iter().map(|&(s, p, o)| {
                (join_term(s), Term::iri(format!("http://x/p{p}")), join_term(o))
            }));
            let rows: Vec<[&Term; 3]> = g.iter_terms().map(|(s, p, o)| [s, p, o]).collect();
            let mut picks = picks.iter().copied().cycle();
            let mut next = || picks.next().expect("cycled");
            let shapes = connected_shapes(|| rows[next() % rows.len()].map(Term::to_string));
            for (name, patterns) in shapes {
                for len in 1..=patterns.len() {
                    let bgp = patterns[..len].join(" . ");
                    let value = g.term_id(rows[next() % rows.len()][next() % 3]).unwrap();
                    for seed in [None, Some((next(), value))] {
                        let crossed = crossing_step(&g, &bgp, seed);
                        proptest::prop_assert!(crossed.is_none(), "{name}, {crossed:?}");
                    }
                }
            }
        }

        /// A BGP of two patterns that share no variable crosses at exactly
        /// one step, with and without a `VALUES` seed on any of its
        /// variables.
        #[test]
        fn a_disconnected_bgp_is_planned_with_one_cross_product(
            triples in proptest::collection::vec((0usize..6, 0usize..3, 0usize..8), 4..30),
            picks in proptest::collection::vec(0usize..1024, 4..5),
        ) {
            let g = Graph::from_term_triples(triples.iter().map(|&(s, p, o)| {
                (join_term(s), Term::iri(format!("http://x/p{p}")), join_term(o))
            }));
            let rows: Vec<[&Term; 3]> = g.iter_terms().map(|(s, p, o)| [s, p, o]).collect();
            let row = |pick: usize| rows[pick % rows.len()];
            let bgp = disconnected_shape([picks[0], picks[1]].map(|pick| row(pick)[1].to_string()));
            let value = g.term_id(row(picks[2])[picks[3] % 3]).unwrap();
            for seed in [None, Some((picks[3], value))] {
                let steps = plan_steps(&g, &bgp, seed);
                let crossings = steps.iter().filter(|step| step.crosses).count();
                proptest::prop_assert!(crossings == 1, "{bgp} {seed:?}: {crossings} crossings");
            }
        }
    }
}
