//! The keyword-search facade.

use crate::{bitmask, indexed, score};
use lotusx_index::IndexedDocument;
use lotusx_xml::NodeId;

/// One ranked keyword-search answer.
#[derive(Clone, Debug)]
pub struct KeywordHit {
    /// The answer subtree's root element.
    pub node: NodeId,
    /// Its score (higher = better).
    pub score: f64,
}

/// Keyword search over one indexed document.
pub struct KeywordEngine<'a> {
    idx: &'a IndexedDocument,
}

impl<'a> KeywordEngine<'a> {
    /// Creates an engine over `idx`.
    pub fn new(idx: &'a IndexedDocument) -> Self {
        KeywordEngine { idx }
    }

    /// SLCA answers via the indexed-lookup algorithm, unranked, in
    /// document order.
    pub fn slca(&self, keywords: &[&str]) -> Vec<NodeId> {
        indexed::slca_indexed(self.idx, keywords)
    }

    /// SLCA answers via the full-tree bitmask pass (the baseline the
    /// scalability experiment compares against).
    pub fn slca_bitmask(&self, keywords: &[&str]) -> Vec<NodeId> {
        bitmask::slca(self.idx, keywords)
    }

    /// ELCA answers (bitmask pass), in document order.
    pub fn elca(&self, keywords: &[&str]) -> Vec<NodeId> {
        bitmask::elca(self.idx, keywords)
    }

    /// Parses a free-text query into lowercase terms and returns every
    /// SLCA answer, ranked best-first (score descending, then node id).
    pub fn search(&self, query: &str) -> Vec<KeywordHit> {
        let mut hits = Vec::new();
        self.search_each(
            query,
            |_| false,
            |node, score| hits.push(KeywordHit { node, score }),
        );
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.node.cmp(&b.node))
        });
        hits
    }

    /// The unranked core of [`search`](Self::search): finds the SLCA
    /// answers of `query` and scores them in one sweep, handing each
    /// `(node, score)` to `visit` in document order. Returns the number of
    /// answers found. A caller keeping only the best `k` ranks them in a
    /// bounded heap instead of sorting them all.
    ///
    /// `charge` is called with the work steps taken (postings indexed,
    /// occurrences scanned, postings walked while scoring) and returns
    /// true to stop. A stop during the SLCA scan keeps only answers proven
    /// final and scores none; a stop while scoring leaves the answers
    /// visited so far. Either way every visited answer is a true SLCA with
    /// its exact score.
    pub fn search_each(
        &self,
        query: &str,
        mut charge: impl FnMut(u64) -> bool,
        visit: impl FnMut(NodeId, f64),
    ) -> usize {
        let terms = lotusx_index::tokenize(query);
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        let mut stopped = false;
        let hits = indexed::slca_budgeted(self.idx, &refs, &mut |n| {
            stopped = charge(n);
            stopped
        });
        if !stopped {
            score::score_hits(self.idx, &hits, &refs, &mut charge, visit);
        }
        hits.len()
    }
}

/// The original search: per-hit scoring over every posting, then a
/// full sort. Kept as the oracle the sweep and the top-k path must
/// reproduce bit for bit.
#[cfg(test)]
impl KeywordEngine<'_> {
    fn search_oracle(&self, query: &str) -> Vec<KeywordHit> {
        let terms = lotusx_index::tokenize(query);
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        if refs.is_empty() {
            return Vec::new();
        }
        let mut hits: Vec<KeywordHit> = self
            .slca(&refs)
            .into_iter()
            .map(|node| KeywordHit {
                node,
                score: score::score_hit(self.idx, node, &refs),
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.node.cmp(&b.node))
        });
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_guard::QueryGuard;
    use lotusx_rank::OrderedTopK;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>xml twig search</title><author>lu ling</author></book>\
               <book><title>relational databases</title><author>codd</author></book>\
               <article><title>xml keyword search</title><author>xu</author></article>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn search_ranks_compact_relevant_answers_first() {
        let idx = idx();
        let engine = KeywordEngine::new(&idx);
        let hits = engine.search("xml search");
        assert_eq!(
            hits.len(),
            2,
            "both xml publications' titles cover the terms"
        );
        for h in &hits {
            assert_eq!(idx.document().tag_name(h.node), Some("title"));
            assert!(h.score > 0.0);
        }
    }

    #[test]
    fn search_crossing_element_boundaries() {
        let idx = idx();
        let engine = KeywordEngine::new(&idx);
        // "twig" is in a title, "lu" in the sibling author → SLCA = book.
        let hits = engine.search("twig lu");
        assert_eq!(hits.len(), 1);
        assert_eq!(idx.document().tag_name(hits[0].node), Some("book"));
    }

    #[test]
    fn empty_and_unknown_queries() {
        let idx = idx();
        let engine = KeywordEngine::new(&idx);
        assert!(engine.search("").is_empty());
        assert!(engine.search("zzz qqq").is_empty());
    }

    #[test]
    fn indexed_and_bitmask_slca_agree_here() {
        let idx = idx();
        let engine = KeywordEngine::new(&idx);
        for q in [
            vec!["xml"],
            vec!["xml", "search"],
            vec!["lu", "twig"],
            vec!["codd"],
        ] {
            let mut a = engine.slca(&q);
            let mut b = engine.slca_bitmask(&q);
            a.sort();
            b.sort();
            assert_eq!(a, b, "{q:?}");
        }
    }

    #[test]
    fn elca_superset_relation() {
        let idx = idx();
        let engine = KeywordEngine::new(&idx);
        let s = engine.slca(&["xml", "search"]);
        let e = engine.elca(&["xml", "search"]);
        for n in &s {
            assert!(e.contains(n));
        }
    }

    /// The `n` most frequent terms of `idx`, ties broken by term.
    fn head_terms(idx: &IndexedDocument, n: usize) -> Vec<String> {
        let mut vocab: Vec<(&str, usize)> = idx.values().terms().collect();
        vocab.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        vocab
            .into_iter()
            .take(n)
            .map(|(t, _)| t.to_string())
            .collect()
    }

    /// The best `k` answers through the bounded heap the engine ranks
    /// with, plus the answer count.
    fn top_k(
        engine: &KeywordEngine<'_>,
        query: &str,
        k: usize,
        guard: &QueryGuard,
    ) -> (Vec<KeywordHit>, usize) {
        let mut top = OrderedTopK::new(k);
        let mut ticker = guard.ticker();
        let total = engine.search_each(
            query,
            |n| ticker.tick(n),
            |node, score| top.push(score, node),
        );
        let hits = top
            .into_sorted()
            .into_iter()
            .map(|(score, node)| KeywordHit { node, score })
            .collect();
        (hits, total)
    }

    fn assert_same_ranking(got: &[KeywordHit], want: &[KeywordHit], query: &str) {
        assert_eq!(got.len(), want.len(), "{query:?}: hit count");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.node, w.node, "{query:?}: order");
            assert_eq!(
                g.score.to_bits(),
                w.score.to_bits(),
                "{query:?}: score bits"
            );
        }
    }

    #[test]
    fn sweep_and_top_k_match_the_per_hit_oracle_bit_for_bit() {
        use lotusx_datagen::{generate, Dataset};
        for (dataset, scale) in [
            (Dataset::DblpLike, 1),
            (Dataset::DblpLike, 4),
            (Dataset::TreebankLike, 1),
        ] {
            let idx = IndexedDocument::build(generate(dataset, scale, 42));
            let engine = KeywordEngine::new(&idx);
            let head = head_terms(&idx, 200);
            let mut queries: Vec<String> = vec![
                String::new(),
                "zzzunknown".into(),
                "xml xml".into(),
                format!("{} zzzunknown", head[0]),
                format!("{0} {0}", head[0]),
                format!("{0} {1} {0}", head[1], head[2]),
            ];
            for (i, term) in head.iter().enumerate() {
                queries.push(term.clone());
                queries.push(format!("{term} {}", head[(i + 1) % head.len()]));
                queries.push(format!("{term} {}", head[(i * 7 + 3) % head.len()]));
            }
            for q in &queries {
                let want = engine.search_oracle(q);
                assert_same_ranking(&engine.search(q), &want, q);
                for k in [0, 1, 10] {
                    let (hits, total) = top_k(&engine, q, k, &QueryGuard::unlimited());
                    assert_eq!(total, want.len(), "{q:?}: total_matches");
                    assert_same_ranking(&hits, &want[..k.min(want.len())], q);
                }
            }
        }
    }

    #[test]
    fn a_node_quota_truncates_to_exactly_scored_true_answers() {
        use lotusx_guard::Budget;
        let idx = IndexedDocument::build(lotusx_datagen::generate(
            lotusx_datagen::Dataset::DblpLike,
            1,
            42,
        ));
        let engine = KeywordEngine::new(&idx);
        let query = head_terms(&idx, 1).remove(0);
        let full = engine.search(&query);
        assert!(full.len() > 50, "a head term has many answers");
        let df = idx.values().df(&query) as u64;
        let mut partial = 0;
        for quota in (df / 4..4 * df).step_by(df as usize / 8) {
            let run = || {
                let guard = QueryGuard::new(&Budget::default().with_node_quota(quota));
                let (hits, total) = top_k(&engine, &query, 10, &guard);
                (hits, total, guard.is_tripped())
            };
            let (hits, total, tripped) = run();
            assert!(total <= full.len());
            if !tripped {
                assert_same_ranking(&hits, &full[..10], &query);
                continue;
            }
            for hit in &hits {
                let exact = full
                    .iter()
                    .find(|h| h.node == hit.node)
                    .expect("a true SLCA");
                assert_eq!(hit.score.to_bits(), exact.score.to_bits());
            }
            if !hits.is_empty() {
                partial += 1;
            }
            // A node quota trips at the same step every time.
            let (again, again_total, _) = run();
            assert_eq!(again_total, total);
            assert_same_ranking(&again, &hits, &query);
        }
        assert!(partial > 0, "some quota cuts the sweep mid-way");
    }
}
