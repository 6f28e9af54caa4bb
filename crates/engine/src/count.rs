//! Counting by algebra: `count()` as a layered vector × CSR product.
//!
//! The paper's path join over a label sequence is a product of per-label
//! adjacency matrices: the walks `x · A_ℓ₁ · A_ℓ₂ · … · A_ℓₖ` ending at each
//! vertex are one sparse vector–matrix product per hop. A `count()` only asks
//! how many rows a plan yields, and every counted op's output depends on a
//! row's head alone, so `count` carries a sparse vector of row
//! multiplicities per head through the optimized plan instead of the rows:
//!
//! * the start vector is `plan.start` with multiplicity (a duplicated start
//!   name counts twice);
//! * `Expand` multiplies the vector by the CSR segments of its labels and
//!   direction (`Both` = Out + In), honouring its `from`/`to` masks;
//! * `ExpandAutomaton` is one layered product over `(vertex, DFA state)`
//!   pairs up to `max_hops` that sums the accepting pairs, stepping each
//!   pair through the walkers' move step and its hop-budget pruning. Under
//!   [`Semantics::Walks`] it carries walk multiplicities; its R7 emission
//!   cap is `min(·, cap)`, reached early, and the `Limit(n ≥ cap)` that R7
//!   leaves after it ends the plan. Under reachability, which qualifies only
//!   with a `DedupByVertex` directly after it, it is the Boolean product: a
//!   seen-set lets each pair into the frontier only at its least depth over
//!   all sources, which is within `max_hops` iff some source reaches it
//!   within `max_hops` — exactly the union of the per-row walks the dedup
//!   collapses. A [`Semantics::GlobalReachable`] one qualifies only without
//!   a hop bound, because its shared seen-set makes a bounded walk depend
//!   on row order;
//! * `RestrictVertices`/`RestrictProperty` mask the vector, and
//!   `DedupByVertex` clamps it to its support.
//!
//! [`by_product`] is the one decision: everything else — weighted and
//! repeat ops, per-row reachability without a dedup after it, and a `Limit`
//! that a lazy cursor would stop early at — drains the cursor.
//!
//! The vectors are sparse hash maps, so a point count costs the CSR entries
//! it visits, not `O(|V| · |Q|)`. `ExecStats::expansions` reports those
//! entries; no arena node is pushed. Each new vector's entries are charged
//! to the memory budget, liveness is checked between layers, and a walk
//! count that overflows `u64` is an error, never a wrapped number.

use std::collections::HashSet;

use mrpa_core::fxhash::{FxHashMap, FxHashSet};
use mrpa_core::{LabelId, VertexId};

use crate::cursor::{expand_segments, move_step};
use crate::error::EngineError;
use crate::exec::{in_set, ExecCtx};
use crate::plan::{
    AutoMove, AutomatonSpec, Direction, LogicalPlan, PlanOp, Semantics, UNBOUNDED_MATCH_HOPS,
};

/// Row multiplicity per head vertex.
type Weights = FxHashMap<VertexId, u64>;

/// Bytes charged per vector or frontier entry: the widest entry, a
/// `(vertex, state)` key with its multiplicity.
const ENTRY_BYTES: u64 = std::mem::size_of::<((VertexId, usize), u64)>() as u64;

/// Whether `count()` evaluates `plan` as a product rather than by draining
/// a cursor. Pure over the plan, and the same under every execution
/// strategy.
pub fn by_product(plan: &LogicalPlan) -> bool {
    let ops = plan.ops();
    ops.iter().enumerate().all(|(i, op)| {
        let rest = &ops[i + 1..];
        match op {
            PlanOp::Expand { .. }
            | PlanOp::RestrictVertices(_)
            | PlanOp::RestrictProperty { .. }
            | PlanOp::DedupByVertex => true,
            PlanOp::ExpandAutomaton { spec, limit, .. } => match spec.semantics() {
                Semantics::Walks => limit.is_none() || matches!(rest, [PlanOp::Limit(_)]),
                Semantics::Reachable => {
                    limit.is_none() && matches!(rest.first(), Some(PlanOp::DedupByVertex))
                }
                Semantics::GlobalReachable => {
                    limit.is_none()
                        && spec.max_hops() == UNBOUNDED_MATCH_HOPS
                        && matches!(rest.first(), Some(PlanOp::DedupByVertex))
                }
            },
            // only the Limit behind an R7 emission cap: the capped walk stops
            // early under every strategy, and a lazy cursor would stop early
            // at any other Limit where the product finishes every level
            PlanOp::Limit(_) => {
                rest.is_empty()
                    && matches!(
                        ops[..i].last(),
                        Some(PlanOp::ExpandAutomaton { limit: Some(_), .. })
                    )
            }
            PlanOp::ExpandWeighted { .. } | PlanOp::Repeat { .. } => false,
        }
    })
}

/// Counts the rows of a plan [`by_product`] accepts.
pub(crate) fn count(ctx: &ExecCtx<'_>, plan: &LogicalPlan) -> Result<usize, EngineError> {
    usize::try_from(product(ctx, plan)?).map_err(|_| overflow())
}

fn product(ctx: &ExecCtx<'_>, plan: &LogicalPlan) -> Result<u64, EngineError> {
    ctx.ensure_alive()?;
    let mut rows = Weights::default();
    for &v in plan.start() {
        add(&mut rows, v, 1)?;
    }
    ctx.charge_bytes(rows.len() as u64 * ENTRY_BYTES)?;
    for op in plan.ops() {
        ctx.ensure_alive()?;
        rows = match op {
            PlanOp::Expand {
                direction,
                labels,
                from,
                to,
            } => expand(ctx, &rows, *direction, labels.as_deref(), from, to)?,
            PlanOp::ExpandAutomaton {
                spec,
                from,
                to,
                limit,
            } => {
                let cap = limit.map(|n| n as u64);
                let emitted = walks(ctx, spec, &rows, from, to, cap)?;
                match cap {
                    // R7 set the cap because a Limit(n ≥ cap) ends the plan
                    Some(cap) => return Ok(total(&emitted)?.min(cap)),
                    None => emitted,
                }
            }
            PlanOp::RestrictVertices(vs) => {
                rows.retain(|v, _| vs.contains(v));
                rows
            }
            PlanOp::RestrictProperty { key, predicate } => {
                rows.retain(|&v, _| predicate.eval(ctx.snapshot.vertex_property(v, key)));
                rows
            }
            PlanOp::DedupByVertex => {
                rows.values_mut().for_each(|m| *m = 1);
                rows
            }
            PlanOp::Limit(_) | PlanOp::ExpandWeighted { .. } | PlanOp::Repeat { .. } => {
                unreachable!("by_product accepts only the Limit a capped automaton returns at")
            }
        };
    }
    total(&rows)
}

/// The error for a walk count past `u64::MAX`.
fn overflow() -> EngineError {
    EngineError::BoundExceeded {
        bound: usize::MAX,
        what: "walk count",
    }
}

fn add<K: std::hash::Hash + Eq>(
    vector: &mut FxHashMap<K, u64>,
    key: K,
    m: u64,
) -> Result<(), EngineError> {
    let slot = vector.entry(key).or_insert(0);
    *slot = slot.checked_add(m).ok_or_else(overflow)?;
    Ok(())
}

fn total(rows: &Weights) -> Result<u64, EngineError> {
    rows.values()
        .try_fold(0u64, |sum, &m| sum.checked_add(m))
        .ok_or_else(overflow)
}

/// One `Expand`: the vector times the CSR segments of `labels` (every label
/// for a wildcard) in `direction`, restricted to tails in `from` and heads
/// in `to`.
fn expand(
    ctx: &ExecCtx<'_>,
    rows: &Weights,
    direction: Direction,
    labels: Option<&[LabelId]>,
    from: &Option<HashSet<VertexId>>,
    to: &Option<HashSet<VertexId>>,
) -> Result<Weights, EngineError> {
    let mut next = Weights::default();
    for (&v, &m) in rows.iter().filter(|(v, _)| in_set(from, **v)) {
        expand_segments(ctx, direction, labels, v, |_, heads| {
            for &h in heads.iter().filter(|&&h| in_set(to, h)) {
                add(&mut next, h, m)?;
            }
            Ok::<_, EngineError>(())
        })?;
    }
    ctx.charge_bytes(next.len() as u64 * ENTRY_BYTES)?;
    Ok(next)
}

/// An automaton: per hop, the `(vertex, state)` frontier times each state's
/// label moves, summing multiplicities into the accepting heads in `to`.
/// With `cap`, stops at the CSR entry where the emitted total reaches it.
/// Under reachability every start counts once and the seen-set admits each
/// pair once, so a head reached in several accepting states is emitted once
/// per state; the `DedupByVertex` after it clamps that.
fn walks(
    ctx: &ExecCtx<'_>,
    spec: &AutomatonSpec,
    rows: &Weights,
    from: &Option<HashSet<VertexId>>,
    to: &Option<HashSet<VertexId>>,
    cap: Option<u64>,
) -> Result<Weights, EngineError> {
    let start = spec.start_state();
    let mut seen = (spec.semantics() != Semantics::Walks).then(FxHashSet::default);
    let mut emitted = Weights::default();
    let mut sum = 0u64;
    let mut frontier: FxHashMap<(VertexId, usize), u64> = FxHashMap::default();
    for (&v, &m) in rows.iter().filter(|(v, _)| in_set(from, **v)) {
        let m = if let Some(seen) = &mut seen {
            seen.insert((v, start));
            1
        } else {
            m
        };
        if spec.is_accept(start) && in_set(to, v) {
            add(&mut emitted, v, m)?;
            sum = sum.checked_add(m).ok_or_else(overflow)?;
        }
        if spec.max_hops() > 0 {
            frontier.insert((v, start), m);
        }
    }
    let capped = |sum: u64| cap.is_some_and(|c| sum >= c);
    let adj = ctx.adjacency(spec.direction());
    let mut hop = 1usize;
    while !frontier.is_empty() && !capped(sum) {
        ctx.charge_bytes(frontier.len() as u64 * ENTRY_BYTES)?;
        ctx.ensure_alive()?;
        let mut next = FxHashMap::default();
        for (&pair, &m) in &frontier {
            let visit = |mv: &AutoMove, survives: bool, h: VertexId| {
                if seen
                    .as_mut()
                    .is_some_and(|seen| !seen.insert((h, mv.target)))
                {
                    return Ok(true);
                }
                if mv.accepts && in_set(to, h) {
                    add(&mut emitted, h, m)?;
                    sum = sum.checked_add(m).ok_or_else(overflow)?;
                }
                if survives {
                    add(&mut next, (h, mv.target), m)?;
                }
                Ok(!capped(sum))
            };
            if !move_step(ctx, adj, spec, pair, hop, true, visit)? {
                break;
            }
        }
        frontier = next;
        hop += 1;
    }
    ctx.charge_bytes(emitted.len() as u64 * ENTRY_BYTES)?;
    Ok(emitted)
}
