//! The paper reproduction's claims, asserted at fixed seeds. The
//! `mrpa-bench` `exp_*` binaries time the same evaluations; these tests fail
//! where a binary would only print a wrong answer.

use mrpa::datagen::engine_query_mix;
use mrpa::engine::ExecutionStrategy;
use mrpa_bench::e8;

/// E8 (§I, §V): the engine answers each query of the mix exactly as the
/// hand-written algebra does, under every strategy — the same head set for
/// a `dedup` query (the algebra defines no dedup on sets), the same path
/// set for any other.
#[test]
fn e8_every_strategy_gives_the_hand_written_algebras_answer() {
    let g = e8::graph();
    let snapshot = g.snapshot();
    let mut paths = 0;
    for spec in engine_query_mix() {
        let reference = e8::algebra(&snapshot, &spec);
        assert!(
            !reference.is_empty(),
            "{}: a vacuous query",
            spec.description
        );
        paths += usize::from(!spec.dedup);
        let want = e8::algebra_answer(&reference, spec.dedup);
        for strategy in [
            ExecutionStrategy::Materialized,
            ExecutionStrategy::Streaming,
            ExecutionStrategy::Parallel,
        ] {
            let result = e8::traversal(&g, &spec, strategy).execute().unwrap();
            assert!(
                e8::engine_answer(&result, spec.dedup) == want,
                "{} under {strategy:?}",
                spec.description
            );
        }
    }
    assert!(paths > 0, "no query of the mix compares path sets");
}
