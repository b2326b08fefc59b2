//! End-to-end behaviour of the public `PathDb` API on larger synthetic data:
//! strategies, baselines, error handling, statistics and plan inspection.

use pathix::datagen::{
    advogato_like, advogato_queries, social_network, AdvogatoConfig, SocialConfig,
};
use pathix::{EstimationMode, PathDb, PathDbConfig, QueryError, QueryOptions, Strategy};

fn social_db(k: usize) -> PathDb {
    let graph = social_network(SocialConfig {
        people: 400,
        companies: 12,
        knows_per_person: 6,
        supervisor_fraction: 0.35,
        seed: 99,
    });
    PathDb::build(graph, PathDbConfig::with_k(k))
}

#[test]
fn strategies_agree_on_a_social_graph() {
    let db = social_db(2);
    let queries = [
        "worksFor/worksFor-",
        "knows/worksFor",
        "supervisor{1,2}",
        "knows/(supervisor|supervisor-)",
        "knows-/knows/worksFor",
    ];
    for query in queries {
        let baseline = db.query_automaton(query).unwrap();
        for strategy in Strategy::all() {
            let result = db
                .run(query, QueryOptions::with_strategy(strategy))
                .unwrap();
            assert_eq!(result.pairs(), &baseline[..], "{strategy} on {query}");
        }
    }
}

#[test]
fn advogato_queries_run_on_all_k() {
    let graph = advogato_like(AdvogatoConfig::scaled(0.02));
    for k in 1..=3 {
        let db = PathDb::build(graph.clone(), PathDbConfig::with_k(k));
        for q in advogato_queries() {
            let result = db.query(&q.text).unwrap_or_else(|e| {
                panic!("query {} failed on k={k}: {e}", q.name);
            });
            // Cross-check one strategy against the automaton baseline.
            let reference = db.query_automaton(&q.text).unwrap();
            assert_eq!(result.pairs(), &reference[..], "{} with k={k}", q.name);
        }
    }
}

#[test]
fn histogram_modes_produce_identical_answers() {
    let graph = social_network(SocialConfig {
        people: 200,
        companies: 8,
        ..Default::default()
    });
    let exact = PathDb::build(
        graph.clone(),
        PathDbConfig {
            estimation: EstimationMode::Exact,
            ..PathDbConfig::with_k(2)
        },
    );
    let equi = PathDb::build(
        graph,
        PathDbConfig {
            estimation: EstimationMode::EquiDepth { buckets: 8 },
            ..PathDbConfig::with_k(2)
        },
    );
    for query in [
        "knows/worksFor",
        "supervisor/knows-",
        "(knows|supervisor){1,2}",
    ] {
        let a = exact.query(query).unwrap();
        let b = equi.query(query).unwrap();
        assert_eq!(
            a.pairs(),
            b.pairs(),
            "histogram mode changed answers for {query}"
        );
    }
}

#[test]
fn error_paths_are_typed() {
    let db = social_db(1);
    assert!(matches!(db.query("knows/("), Err(QueryError::Parse(_))));
    assert!(matches!(db.query("dislikes"), Err(QueryError::Bind(_))));
    assert!(matches!(
        db.query("knows{9,2}"),
        Err(QueryError::Rewrite(_))
    ));
    // Errors are also surfaced through plan() and explain().
    assert!(db.plan("noSuchLabel", Strategy::Naive).is_err());
    assert!(db.explain("x(", Strategy::Naive).is_err());
}

#[test]
fn stats_reflect_configuration() {
    let db2 = social_db(2);
    let db1 = social_db(1);
    let s1 = db1.stats();
    let s2 = db2.stats();
    assert_eq!(s1.nodes, s2.nodes);
    assert_eq!(s1.index.k, 1);
    assert_eq!(s2.index.k, 2);
    assert!(s2.index.entries > s1.index.entries);
    assert!(s2.histogram_paths > s1.histogram_paths);
    assert!(s2.index.approx_bytes > s1.index.approx_bytes);
}

#[test]
fn plans_differ_between_strategies_but_not_answers() {
    let db = social_db(2);
    let query = "knows/knows/worksFor/worksFor-";
    let naive_plan = db.plan(query, Strategy::Naive).unwrap();
    let semi_plan = db.plan(query, Strategy::SemiNaive).unwrap();
    let min_join_plan = db.plan(query, Strategy::MinJoin).unwrap();
    // naive uses one scan per label, the others use fewer, longer scans.
    assert_eq!(naive_plan.scan_count(), 4);
    assert_eq!(semi_plan.scan_count(), 2);
    assert_eq!(min_join_plan.scan_count(), 2);
    assert!(naive_plan.join_count() > min_join_plan.join_count());
    // Explain output shows the join.
    let text = db.explain(query, Strategy::SemiNaive).unwrap();
    assert!(text.contains("Join ("));
}

#[test]
fn query_results_expose_navigation_helpers() {
    let db = social_db(2);
    let result = db.query("worksFor").unwrap();
    assert!(!result.is_empty());
    let sources = result.sources();
    let targets = result.targets();
    assert!(!sources.is_empty() && !targets.is_empty());
    let first = sources[0];
    let reachable = result.targets_of(first);
    assert!(!reachable.is_empty());
    assert!(result.contains(first, reachable[0]));
}
