//! Match scoring: the reconstructed LotusScore.

use crate::topk::OrderedTopK;
use lotusx_index::IndexedDocument;
use lotusx_twig::matcher::TwigMatch;
use lotusx_twig::pattern::{Axis, TwigPattern, ValuePredicate};

/// Weights of the three score components. Defaults follow the intuition of
/// the demo: structure first, content second, specificity as a tiebreak.
#[derive(Clone, Copy, Debug)]
pub struct RankWeights {
    /// Weight of structural tightness.
    pub structure: f64,
    /// Weight of content (TF-IDF) relevance.
    pub content: f64,
    /// Weight of position specificity.
    pub specificity: f64,
}

impl Default for RankWeights {
    fn default() -> Self {
        RankWeights {
            structure: 0.5,
            content: 0.35,
            specificity: 0.15,
        }
    }
}

/// A match together with its score.
#[derive(Clone, Debug)]
pub struct ScoredMatch {
    /// The match.
    pub m: TwigMatch,
    /// Its LotusScore (higher is better).
    pub score: f64,
}

/// Scores matches of one pattern over one document.
pub struct Ranker<'a> {
    idx: &'a IndexedDocument,
    weights: RankWeights,
}

impl<'a> Ranker<'a> {
    /// Creates a ranker with default weights.
    pub fn new(idx: &'a IndexedDocument) -> Self {
        Self::with_weights(idx, RankWeights::default())
    }

    /// Creates a ranker with explicit weights.
    pub fn with_weights(idx: &'a IndexedDocument, weights: RankWeights) -> Self {
        Ranker { idx, weights }
    }

    /// The full LotusScore of one match.
    pub fn score(&self, pattern: &TwigPattern, m: &TwigMatch) -> f64 {
        let w = self.weights;
        w.structure * self.structure_score(pattern, m)
            + w.content * self.content_score(pattern, m)
            + w.specificity * self.specificity_score(pattern, m)
    }

    /// Structural tightness in `(0, 1]`: 1 when every A-D edge binds at
    /// minimal distance, decaying with the total extra depth (slack).
    pub fn structure_score(&self, pattern: &TwigPattern, m: &TwigMatch) -> f64 {
        let doc = self.idx.document();
        let mut slack = 0u32;
        for q in pattern.node_ids() {
            let node = pattern.node(q);
            let Some(parent) = node.parent else { continue };
            if node.axis == Axis::Descendant {
                let d_child = doc.depth(m.binding(q));
                let d_parent = doc.depth(m.binding(parent));
                slack += d_child.saturating_sub(d_parent + 1);
            }
        }
        1.0 / (1.0 + slack as f64)
    }

    /// TF-IDF sum over the `contains` terms of every predicate, squashed
    /// into `[0, 1)`. Matches without content predicates score 0 here.
    pub fn content_score(&self, pattern: &TwigPattern, m: &TwigMatch) -> f64 {
        let values = self.idx.values();
        let n = values.content_element_count().max(1) as f64;
        let mut sum = 0.0;
        for q in pattern.node_ids() {
            let text = match &pattern.node(q).predicate {
                Some(ValuePredicate::Contains(text)) => text,
                Some(ValuePredicate::AttrContains { value, .. }) => value,
                _ => continue,
            };
            let bound = m.binding(q);
            for term in lotusx_index::tokenize(text) {
                let postings = values.postings(&term);
                let Some(p) = postings.iter().find(|p| p.node == bound) else {
                    continue;
                };
                let df = postings.len().max(1) as f64;
                let idf = (1.0 + n / df).ln();
                sum += (1.0 + f64::from(p.tf).ln_1p()) * idf;
            }
        }
        sum / (1.0 + sum)
    }

    /// Position specificity in `(0, 1]`: the rarer the bindings' DataGuide
    /// paths, the higher. Averaged over all bound query nodes.
    pub fn specificity_score(&self, pattern: &TwigPattern, m: &TwigMatch) -> f64 {
        let guide = self.idx.guide();
        let mut sum = 0.0;
        let mut n = 0usize;
        for q in pattern.node_ids() {
            let g = self.idx.guide_node(m.binding(q));
            sum += 1.0 / (1.0 + (guide.count(g) as f64).ln_1p());
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Scores and sorts matches, best first; ties broken by document order
    /// of the bindings (stable, deterministic output).
    pub fn rank(&self, pattern: &TwigPattern, matches: Vec<TwigMatch>) -> Vec<ScoredMatch> {
        let mut scored: Vec<ScoredMatch> = matches
            .into_iter()
            .map(|m| ScoredMatch {
                score: self.score(pattern, &m),
                m,
            })
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.m.cmp(&b.m))
        });
        scored
    }

    /// Scores every match and returns the best `k`.
    ///
    /// Exactly equal to `self.rank(pattern, matches)` truncated to `k`:
    /// the (score descending, document-order ascending) tie-break is a
    /// total order, so a bounded [`OrderedTopK`] keeps the exact top-k.
    ///
    /// `_threads` is ignored: ranking runs on the calling thread. The
    /// parameter is kept only for the end-to-end benchmark harness, which
    /// passes it.
    pub fn rank_top_k(
        &self,
        pattern: &TwigPattern,
        matches: Vec<TwigMatch>,
        k: usize,
        _threads: usize,
    ) -> Vec<ScoredMatch> {
        self.rank_top_k_budgeted(
            pattern,
            matches,
            k,
            None,
            &lotusx_guard::QueryGuard::unlimited(),
        )
    }

    /// Like [`Self::rank_top_k`], under a budget, recording the
    /// score/select and sort phases as timed children of `span` when one
    /// is supplied (the span never changes the ranking). One node visit
    /// is charged per match scored, and scoring stops once the guard
    /// trips. The matches handed in are already verified, so the
    /// truncated top-k is an exact top-k over the scored prefix — every
    /// returned hit is a true hit.
    pub fn rank_top_k_budgeted(
        &self,
        pattern: &TwigPattern,
        matches: Vec<TwigMatch>,
        k: usize,
        span: Option<&lotusx_obs::Span>,
        qguard: &lotusx_guard::QueryGuard,
    ) -> Vec<ScoredMatch> {
        let guard = span.map(|p| {
            let g = p.child("score-select");
            g.annotate("candidates", matches.len());
            g.annotate("k", k);
            g
        });
        let mut collector = OrderedTopK::new(k);
        let mut ticker = qguard.ticker();
        for m in matches {
            if ticker.tick(1) {
                break;
            }
            collector.push(self.score(pattern, &m), m);
        }
        drop(guard);
        let _sort = span.map(|p| p.child("sort"));
        collector
            .into_sorted()
            .into_iter()
            .map(|(score, m)| ScoredMatch { m, score })
            .collect()
    }
}

/// Baseline: document order (the first match in the document first).
pub fn rank_by_document_order(matches: Vec<TwigMatch>) -> Vec<TwigMatch> {
    let mut m = matches;
    m.sort();
    m
}

/// Baseline: frequency-only — matches whose root binding sits on a COMMON
/// DataGuide path first (what a naive popularity ranking would do).
pub fn rank_by_frequency(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    matches: Vec<TwigMatch>,
) -> Vec<TwigMatch> {
    let mut m = matches;
    m.sort_by_key(|x| {
        let g = idx.guide_node(x.binding(pattern.root()));
        std::cmp::Reverse(idx.guide().count(g))
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_twig::exec::{execute, Algorithm};
    use lotusx_twig::xpath::parse_query;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>xml twig joins</title><info><author>lu</author></info></book>\
               <book><title>relational systems</title><author>codd</author></book>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn tighter_structure_scores_higher() {
        let idx = idx();
        let pattern = parse_query("//book//author").unwrap();
        let matches = execute(&idx, &pattern, Algorithm::TwigStack);
        assert_eq!(matches.len(), 2);
        let ranker = Ranker::new(&idx);
        let ranked = ranker.rank(&pattern, matches);
        // codd is a direct child (slack 0); lu sits under info (slack 1).
        let top_author = ranked[0].m.bindings[1];
        assert_eq!(idx.document().direct_text(top_author), "codd");
        assert!(ranked[0].score > ranked[1].score);
    }

    #[test]
    fn content_relevance_boosts_term_matches() {
        let idx = idx();
        let pattern = parse_query(r#"//book[title ~ "twig"]"#).unwrap();
        let matches = execute(&idx, &pattern, Algorithm::TwigStack);
        assert_eq!(matches.len(), 1);
        let ranker = Ranker::new(&idx);
        let with_term = ranker.content_score(&pattern, &matches[0]);
        assert!(with_term > 0.0);

        // A pattern without content predicates has zero content score.
        let plain = parse_query("//book").unwrap();
        let m = execute(&idx, &plain, Algorithm::TwigStack);
        assert_eq!(ranker.content_score(&plain, &m[0]), 0.0);
    }

    #[test]
    fn scores_are_in_unit_range() {
        let idx = idx();
        let ranker = Ranker::new(&idx);
        for q in [
            "//book//author",
            "//book/title",
            r#"//book[title ~ "xml twig"]"#,
        ] {
            let pattern = parse_query(q).unwrap();
            for sm in ranker.rank(&pattern, execute(&idx, &pattern, Algorithm::TwigStack)) {
                assert!(sm.score > 0.0 && sm.score <= 1.0, "{q}: {}", sm.score);
            }
        }
    }

    #[test]
    fn specificity_prefers_rare_paths() {
        let idx = IndexedDocument::from_str("<r><common/><common/><common/><common/><rare/></r>")
            .unwrap();
        let ranker = Ranker::new(&idx);
        let p_common = parse_query("//common").unwrap();
        let p_rare = parse_query("//rare").unwrap();
        let m_common = execute(&idx, &p_common, Algorithm::Naive);
        let m_rare = execute(&idx, &p_rare, Algorithm::Naive);
        assert!(
            ranker.specificity_score(&p_rare, &m_rare[0])
                > ranker.specificity_score(&p_common, &m_common[0])
        );
    }

    #[test]
    fn ranking_is_deterministic() {
        let idx = idx();
        let pattern = parse_query("//book//author").unwrap();
        let matches = execute(&idx, &pattern, Algorithm::TwigStack);
        let ranker = Ranker::new(&idx);
        let a: Vec<f64> = ranker
            .rank(&pattern, matches.clone())
            .iter()
            .map(|s| s.score)
            .collect();
        let b: Vec<f64> = ranker
            .rank(&pattern, matches)
            .iter()
            .map(|s| s.score)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn rank_top_k_equals_full_rank_truncated() {
        let idx = idx();
        let ranker = Ranker::new(&idx);
        for q in ["//book//author", "//book/title", "//book", "//bib//title"] {
            let pattern = parse_query(q).unwrap();
            let matches = execute(&idx, &pattern, Algorithm::TwigStack);
            let full = ranker.rank(&pattern, matches.clone());
            for k in [0, 1, 2, 100] {
                let mut expect = full.clone();
                expect.truncate(k);
                let got = ranker.rank_top_k(&pattern, matches.clone(), k, 1);
                assert_eq!(got.len(), expect.len(), "{q} k={k}");
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(g.m, e.m, "{q} k={k}");
                    assert_eq!(g.score, e.score, "{q} k={k}");
                }
            }
        }
    }

    #[test]
    fn baselines_order_matches() {
        let idx = idx();
        let pattern = parse_query("//book//author").unwrap();
        let matches = execute(&idx, &pattern, Algorithm::TwigStack);
        let doc_order = rank_by_document_order(matches.clone());
        assert!(doc_order[0] <= doc_order[1]);
        let by_freq = rank_by_frequency(&idx, &pattern, matches);
        assert_eq!(by_freq.len(), 2);
    }
}
