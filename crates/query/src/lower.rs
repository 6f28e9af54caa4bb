//! Lowering: MRPA-QL AST → the engine's [`StartSpec`] + [`Step`] IR.
//!
//! There is deliberately **no second execution path**: every clause lowers to
//! the exact [`Step`] the fluent [`mrpa_engine::Traversal`] verbs would have
//! pushed, and the lowered steps re-enter the engine through
//! [`mrpa_engine::Traversal::with_steps`]. The one structural rewrite is
//! `CHEAPEST`/`WIDEST`, which — like `.cheapest_(…)` replacing `.match_(…)`
//! in the DSL — folds the nearest preceding `MATCH` into a
//! [`Step::Weighted`] best-first search, preserving an explicit `WITHIN`
//! bound and defaulting to unbounded search (best-first settling terminates
//! by itself) exactly as [`mrpa_engine::Traversal::cheapest_`] does.

use mrpa_engine::plan::{Semantics, DEFAULT_MATCH_MAX_HOPS, UNBOUNDED_MATCH_HOPS};
use mrpa_engine::{Predicate, StartSpec, Step, Value};

use crate::ast::{Clause, MatchMode, Query, StartAst, Terminal};
use crate::error::QueryError;

/// A query lowered to the engine's IR, ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredQuery {
    /// Whether the query asked for `EXPLAIN` (plan report, no execution).
    pub explain: bool,
    /// Whether the query asked for `PROFILE` (execute with per-stage traces).
    pub profile: bool,
    /// The start set.
    pub start: StartSpec,
    /// The pipeline steps, byte-for-byte what the fluent DSL would build.
    pub steps: Vec<Step>,
    /// How the rows are consumed.
    pub terminal: Terminal,
}

impl LoweredQuery {
    /// Binds the lowered query to a graph as a ready-to-run
    /// [`mrpa_engine::Traversal`]. The caller applies the terminal
    /// (`execute`/`count`/`exists`/`first`/`explain`) and any runtime bounds
    /// (strategy, timeout, memory budget).
    pub fn traversal(&self, graph: &mrpa_engine::PropertyGraph) -> mrpa_engine::Traversal {
        mrpa_engine::Traversal::over(graph)
            .start_at(self.start.clone())
            .with_steps(self.steps.clone())
    }
}

/// Lowers a parsed [`Query`].
pub fn lower(query: &Query) -> Result<LoweredQuery, QueryError> {
    let mut steps = Vec::new();
    let start = match &query.start {
        StartAst::All => StartSpec::AllVertices,
        StartAst::Where { key, pred } => StartSpec::Where(key.clone(), pred.clone()),
        StartAst::Named { kind, names } => {
            if let Some(kind) = kind {
                // `person:marko` asserts the kind of the named starts
                steps.push(Step::Has(
                    "kind".to_owned(),
                    Predicate::Eq(Value::Text(kind.clone())),
                ));
            }
            StartSpec::Named(names.clone())
        }
    };
    steps.extend(lower_clauses(&query.clauses)?);
    Ok(LoweredQuery {
        explain: query.explain,
        profile: query.profile,
        start,
        steps,
        terminal: query.terminal,
    })
}

/// Per lowered step: is it a `MATCH` that a later `CHEAPEST`/`WIDEST` may
/// still fold, and did the source spell an explicit `WITHIN`?
struct MatchOrigin {
    explicit_within: bool,
    mode: MatchMode,
}

fn lower_clauses(clauses: &[Clause]) -> Result<Vec<Step>, QueryError> {
    let mut lowered: Vec<(Step, Option<MatchOrigin>)> = Vec::new();
    for clause in clauses {
        match clause {
            Clause::Match {
                pattern,
                direction,
                mode,
                within,
                ..
            } => {
                let (semantics, default_hops) = match mode {
                    MatchMode::Walks => (Semantics::Walks, DEFAULT_MATCH_MAX_HOPS),
                    MatchMode::Reachable => (Semantics::Reachable, UNBOUNDED_MATCH_HOPS),
                    MatchMode::Global => (Semantics::GlobalReachable, UNBOUNDED_MATCH_HOPS),
                };
                lowered.push((
                    Step::Match {
                        pattern: pattern.clone(),
                        max_hops: within.unwrap_or(default_hops),
                        direction: *direction,
                        semantics,
                    },
                    Some(MatchOrigin {
                        explicit_within: within.is_some(),
                        mode: *mode,
                    }),
                ));
            }
            Clause::Weighted {
                semiring,
                weight,
                span,
            } => {
                let target = lowered
                    .iter()
                    .rposition(|(_, origin)| origin.is_some())
                    .ok_or_else(|| {
                        QueryError::new(
                            *span,
                            format!(
                                "CHEAPEST/WIDEST needs a preceding MATCH to weight at byte {}",
                                span.start
                            ),
                        )
                    })?;
                let (step, origin) = &mut lowered[target];
                let origin = origin.take().expect("rposition found Some");
                if origin.mode != MatchMode::Walks {
                    return Err(QueryError::new(
                        *span,
                        format!(
                            "CHEAPEST/WIDEST cannot weight a REACHABLE/GLOBAL match at byte {}",
                            span.start
                        ),
                    ));
                }
                let Step::Match {
                    pattern,
                    max_hops,
                    direction,
                    ..
                } = step
                else {
                    unreachable!("only Step::Match carries a MatchOrigin")
                };
                *step = Step::Weighted {
                    pattern: std::mem::take(pattern),
                    // the DSL's cheapest_/widest_ default is unbounded —
                    // best-first settling terminates without a hop cap
                    max_hops: if origin.explicit_within {
                        *max_hops
                    } else {
                        UNBOUNDED_MATCH_HOPS
                    },
                    direction: *direction,
                    semiring: *semiring,
                    weight: weight.clone(),
                };
            }
            Clause::Out(labels) => lowered.push((Step::Out(labels.clone()), None)),
            Clause::In(labels) => lowered.push((Step::In(labels.clone()), None)),
            Clause::Both(labels) => lowered.push((Step::Both(labels.clone()), None)),
            Clause::Where { key, pred } => {
                lowered.push((Step::Has(key.clone(), pred.clone()), None))
            }
            Clause::Is(names) => lowered.push((Step::Is(names.clone()), None)),
            Clause::Dedup => lowered.push((Step::DedupByVertex, None)),
            Clause::Limit(n) => lowered.push((Step::Limit(*n), None)),
            Clause::Repeat {
                min,
                max,
                body,
                until,
                ..
            } => {
                lowered.push((
                    Step::Repeat {
                        body: lower_clauses(body)?,
                        min: *min,
                        max: *max,
                        until: until.clone(),
                    },
                    None,
                ));
            }
        }
    }
    Ok(lowered.into_iter().map(|(step, _)| step).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use mrpa_engine::plan::{Direction, SemiringKind};
    use mrpa_engine::WeightSpec;

    fn steps(input: &str) -> Vec<Step> {
        lower(&parse(input).unwrap()).unwrap().steps
    }

    #[test]
    fn the_headline_query_lowers_to_the_dsl_steps() {
        let q = lower(
            &parse(
                r#"FROM person:marko MATCH -[knows+·created]-> WHERE dst.lang = "java" CHEAPEST BY weight TOP 3"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(q.start, StartSpec::Named(vec!["marko".into()]));
        assert_eq!(
            q.steps,
            vec![
                Step::Has("kind".into(), Predicate::Eq(Value::Text("person".into()))),
                Step::Weighted {
                    pattern: "knows+·created".into(),
                    max_hops: UNBOUNDED_MATCH_HOPS,
                    direction: Direction::Out,
                    semiring: SemiringKind::Shortest,
                    weight: WeightSpec::Property("weight".into()),
                },
                Step::Has("lang".into(), Predicate::Eq(Value::Text("java".into()))),
                Step::Limit(3),
            ]
        );
    }

    #[test]
    fn match_defaults_mirror_the_dsl() {
        assert_eq!(
            steps("FROM * MATCH -[knows+]->"),
            vec![Step::Match {
                pattern: "knows+".into(),
                max_hops: DEFAULT_MATCH_MAX_HOPS,
                direction: Direction::Out,
                semantics: Semantics::Walks,
            }]
        );
        assert_eq!(
            steps("FROM * MATCH REACHABLE -[_+]->"),
            vec![Step::Match {
                pattern: "_+".into(),
                max_hops: UNBOUNDED_MATCH_HOPS,
                direction: Direction::Out,
                semantics: Semantics::Reachable,
            }]
        );
        assert_eq!(
            steps("FROM * MATCH GLOBAL -[_+]-> WITHIN 5"),
            vec![Step::Match {
                pattern: "_+".into(),
                max_hops: 5,
                direction: Direction::Out,
                semantics: Semantics::GlobalReachable,
            }]
        );
        assert_eq!(
            steps("FROM * MATCH <-[created]-"),
            vec![Step::Match {
                pattern: "created".into(),
                max_hops: DEFAULT_MATCH_MAX_HOPS,
                direction: Direction::In,
                semantics: Semantics::Walks,
            }]
        );
    }

    #[test]
    fn weighted_folds_keep_explicit_bounds() {
        assert_eq!(
            steps("FROM * MATCH -[a+]-> WITHIN 7 WIDEST"),
            vec![Step::Weighted {
                pattern: "a+".into(),
                max_hops: 7,
                direction: Direction::Out,
                semiring: SemiringKind::Widest,
                weight: WeightSpec::Unit,
            }]
        );
    }

    #[test]
    fn weighted_folds_skip_intervening_filters() {
        // WHERE between MATCH and CHEAPEST: fold still lands on the MATCH,
        // and the filter stays after the weighted step — exactly
        // `.cheapest_(p).weight_by(w).has(k, pred)` in the DSL
        assert_eq!(
            steps("FROM * MATCH -[a]-> WHERE age > 30 CHEAPEST BY w"),
            vec![
                Step::Weighted {
                    pattern: "a".into(),
                    max_hops: UNBOUNDED_MATCH_HOPS,
                    direction: Direction::Out,
                    semiring: SemiringKind::Shortest,
                    weight: WeightSpec::Property("w".into()),
                },
                Step::Has("age".into(), Predicate::Gt(30.0)),
            ]
        );
    }

    #[test]
    fn weighted_without_match_is_an_error() {
        let err = lower(&parse("FROM * CHEAPEST BY w").unwrap()).unwrap_err();
        assert!(err.message.contains("preceding MATCH"), "{}", err.message);
        // a second fold of the same MATCH is also an error
        let err = lower(&parse("FROM * MATCH -[a]-> CHEAPEST WIDEST").unwrap()).unwrap_err();
        assert!(err.message.contains("preceding MATCH"), "{}", err.message);
        // reachability matches cannot be weighted
        let err = lower(&parse("FROM * MATCH REACHABLE -[a]-> CHEAPEST").unwrap()).unwrap_err();
        assert!(err.message.contains("REACHABLE"), "{}", err.message);
    }

    #[test]
    fn repeat_bodies_lower_recursively() {
        assert_eq!(
            steps(r#"FROM * REPEAT {1,3} ( OUT knows DEDUP ) UNTIL lang = "java""#),
            vec![Step::Repeat {
                body: vec![Step::Out(Some(vec!["knows".into()])), Step::DedupByVertex,],
                min: 1,
                max: 3,
                until: Some(("lang".into(), Predicate::Eq(Value::Text("java".into())))),
            }]
        );
    }

    #[test]
    fn star_labels_lower_to_none() {
        assert_eq!(
            steps("FROM * OUT * IN knows BOTH a, b"),
            vec![
                Step::Out(None),
                Step::In(Some(vec!["knows".into()])),
                Step::Both(Some(vec!["a".into(), "b".into()])),
            ]
        );
    }
}
