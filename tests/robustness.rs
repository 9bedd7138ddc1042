//! Budget semantics end to end.
//!
//! The robustness contract: a budgeted query may stop early, but whatever
//! it returns is valid — every match is a true answer an unbudgeted run
//! would also find, truncation is always marked, generous budgets change
//! nothing bit-for-bit, and truncated outcomes never poison the query
//! cache.

use lotusx::{Algorithm, Budget, CancelToken, LotusX, QueryRequest, TruncationReason};
use lotusx_datagen::{generate, Dataset};
use std::collections::HashSet;
use std::time::{Duration, Instant};

fn binding_keys(response: &lotusx::QueryResponse) -> Vec<Vec<u32>> {
    response
        .matches
        .iter()
        .map(|r| r.bindings.iter().map(|n| n.index() as u32).collect())
        .collect()
}

#[test]
fn exhausted_budgets_truncate_immediately_on_every_dataset() {
    for dataset in Dataset::ALL {
        let system = LotusX::load_document(generate(dataset, 1, 42));
        let starved = system
            .query(&QueryRequest::twig("//*").budget(Budget::default().with_node_quota(0)))
            .unwrap();
        assert_eq!(
            starved.completeness.truncation_reason(),
            Some(TruncationReason::NodeQuotaExceeded),
            "{dataset}"
        );
        assert!(starved.matches.is_empty(), "{dataset}");

        let token = CancelToken::new();
        token.cancel();
        let cancelled = system
            .query(&QueryRequest::twig("//*").budget(Budget::default().with_cancel(token)))
            .unwrap();
        assert_eq!(
            cancelled.completeness.truncation_reason(),
            Some(TruncationReason::Cancelled),
            "{dataset}"
        );

        let expired = system
            .query(&QueryRequest::twig("//*").deadline_ms(0))
            .unwrap();
        assert_eq!(
            expired.completeness.truncation_reason(),
            Some(TruncationReason::DeadlineExceeded),
            "{dataset}"
        );
    }
}

#[test]
fn node_quota_partials_are_valid_subsets_of_the_full_answer() {
    let doc = generate(Dataset::DblpLike, 1, 7);
    let full_system = LotusX::load_document(doc.clone());
    let full = full_system
        .query(&QueryRequest::twig("//*//*//*").top_k(1_000_000))
        .unwrap();
    assert!(full.completeness.is_complete());
    assert!(full.total_matches > 100, "query must be non-trivial");
    let full_set: HashSet<Vec<u32>> = binding_keys(&full).into_iter().collect();

    for quota in [1u64, 100, 10_000, 10_000_000] {
        let system = LotusX::load_document(doc.clone());
        let budget = Budget::default().with_node_quota(quota);
        let response = system
            .query(
                &QueryRequest::twig("//*//*//*")
                    .top_k(1_000_000)
                    .budget(budget),
            )
            .unwrap();
        for bindings in binding_keys(&response) {
            assert!(
                full_set.contains(&bindings),
                "quota {quota}: partial result {bindings:?} is not a true answer"
            );
        }
        if response.completeness.is_complete() {
            assert_eq!(
                response.total_matches, full.total_matches,
                "quota {quota}: a complete response must be the whole answer"
            );
        } else {
            assert_eq!(
                response.completeness.truncation_reason(),
                Some(TruncationReason::NodeQuotaExceeded),
                "quota {quota}"
            );
        }
    }
}

#[test]
fn generous_budgets_change_nothing() {
    let generous = || {
        Budget::default()
            .with_deadline(Duration::from_secs(600))
            .with_node_quota(1 << 40)
            .with_candidate_quota(1 << 40)
            .with_cancel(CancelToken::new())
    };
    for dataset in Dataset::ALL {
        let doc = generate(dataset, 1, 11);
        let plain_system = LotusX::load_document(doc.clone());
        let budgeted_system = LotusX::load_document(doc);
        for q in ["//*", "//title", "//*[*]"] {
            let plain = plain_system.query(&QueryRequest::twig(q)).unwrap();
            let budgeted = budgeted_system
                .query(&QueryRequest::twig(q).budget(generous()))
                .unwrap();
            assert!(budgeted.completeness.is_complete(), "{dataset}: {q}");
            assert_eq!(
                plain.total_matches, budgeted.total_matches,
                "{dataset}: {q}"
            );
            assert_eq!(
                binding_keys(&plain),
                binding_keys(&budgeted),
                "{dataset}: {q}"
            );
            for (a, b) in plain.matches.iter().zip(&budgeted.matches) {
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{dataset}: {q}");
                assert_eq!(a.snippet, b.snippet, "{dataset}: {q}");
            }
        }
    }
}

/// A node quota charges the same work on every host: each request runs
/// on one thread and charges its budget through one ticker, so where it
/// truncates cannot depend on the CPU count. Runs on the default
/// configuration, which is what a server uses.
#[test]
fn node_quotas_truncate_identically_on_any_host() {
    let system = LotusX::load_document(generate(Dataset::DblpLike, 4, 7));
    for q in ["//article[title][author]", "//*[title]"] {
        let request = QueryRequest::twig(q).algorithm(Algorithm::Naive);
        let budgeted = request
            .clone()
            .budget(Budget::default().with_node_quota(3_000));
        // Budgeted runs first: a cached complete outcome would answer them.
        let first = system.query(&budgeted).unwrap();
        assert_eq!(
            first.completeness.truncation_reason(),
            Some(TruncationReason::NodeQuotaExceeded),
            "{q}: 3,000 nodes cannot cover the whole answer"
        );
        let scores = |r: &lotusx::QueryResponse| -> Vec<u64> {
            r.matches.iter().map(|m| m.score.to_bits()).collect()
        };
        for _ in 0..20 {
            let again = system.query(&budgeted).unwrap();
            assert_eq!(again.completeness, first.completeness, "{q}");
            assert_eq!(again.total_matches, first.total_matches, "{q}");
            assert_eq!(binding_keys(&again), binding_keys(&first), "{q}");
            assert_eq!(scores(&again), scores(&first), "{q}");
        }
        let full = system.query(&request).unwrap();
        assert!(full.completeness.is_complete(), "{q}");
        assert!(first.total_matches < full.total_matches, "{q}");
    }
}

#[test]
fn one_ms_deadline_on_a_large_corpus_returns_partial_results_in_bounded_time() {
    // The acceptance scenario: an explosive all-wildcard twig over the
    // largest synthetic corpus, capped at 1 ms. Unbudgeted this would
    // enumerate millions of chains; budgeted it must come back promptly
    // with valid, marked-partial results.
    let system = LotusX::load_document(generate(Dataset::TreebankLike, 4, 42));
    let t0 = Instant::now();
    let response = system
        .query(
            &QueryRequest::twig("//*//*//*//*//*")
                .top_k(50)
                .deadline_ms(1),
        )
        .unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "budgeted query took {elapsed:?}"
    );
    assert_eq!(
        response.completeness.truncation_reason(),
        Some(TruncationReason::DeadlineExceeded)
    );
    for m in &response.matches {
        assert_eq!(m.bindings.len(), 5, "every partial hit binds all 5 steps");
        assert!(!m.snippet.is_empty());
    }
}

#[test]
fn truncated_outcomes_never_poison_the_query_cache() {
    let system = LotusX::load_document(generate(Dataset::XmarkLike, 1, 3));
    let starved = Budget::default().with_node_quota(1);
    let first = system
        .query(&QueryRequest::twig("//item/name").budget(starved))
        .unwrap();
    assert!(!first.completeness.is_complete());

    let full = system.query(&QueryRequest::twig("//item/name")).unwrap();
    assert!(full.completeness.is_complete());
    assert!(
        full.total_matches > 0,
        "the truncated run must not be reused"
    );

    // A starved rerun is now served the cached complete answer.
    let starved = Budget::default().with_node_quota(1);
    let again = system
        .query(&QueryRequest::twig("//item/name").budget(starved))
        .unwrap();
    assert!(again.completeness.is_complete());
    assert_eq!(again.total_matches, full.total_matches);
}

#[test]
fn keyword_queries_respect_budgets() {
    let system = LotusX::load_document(generate(Dataset::DblpLike, 1, 5));
    let expired = system
        .query(&QueryRequest::keyword("the data").deadline_ms(0))
        .unwrap();
    assert!(!expired.completeness.is_complete());
    assert!(expired.matches.is_empty());

    let plain = system.query(&QueryRequest::keyword("the data")).unwrap();
    assert!(plain.completeness.is_complete());
}
