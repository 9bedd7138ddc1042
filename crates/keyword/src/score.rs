//! Scoring of keyword hits: smaller, term-rich subtrees first.
//!
//! A hit's score combines (a) keyword weight — the TF-IDF mass of the
//! query keywords inside the answer subtree — and (b) compactness —
//! smaller answers are more specific and rank higher (the intuition
//! behind preferring SLCAs over arbitrary LCAs in the first place).
//!
//! `score_hits` scores a whole SLCA answer set in one sweep. SLCA
//! answers are disjoint subtrees and postings are in document order, so
//! visiting the hits by region start lets one cursor per query term
//! walk that term's postings exactly once: the cost is
//! `O(Σ postings + hits · terms)`, per occurrence rather than per node.
//! Subtree sizes come from region labels, whose counter ticks twice per
//! node of every kind, so `(end - start + 1) / 2` is the node count a
//! `descendants_or_self` walk would return.

use lotusx_index::value_index::Posting;
use lotusx_index::IndexedDocument;
use lotusx_xml::NodeId;

/// One query term's postings and the cursor walking them.
struct TermCursor<'a> {
    postings: &'a [Posting],
    idf: f64,
    next: usize,
}

/// Scores the SLCA answers `hits` for `keywords`, handing each
/// `(node, score)` to `visit` in document order. `hits` must be
/// pairwise disjoint subtrees (any SLCA or other antichain) sorted by
/// region start. Every visited score is bit-identical to a per-hit
/// evaluation of the same formula: the floating-point operations run in
/// the same order.
///
/// `charge` is called after each hit with the steps it took (one per
/// posting walked, plus one); when it returns true the sweep stops, so
/// the hits visited so far are exactly scored and the rest are skipped.
pub(crate) fn score_hits(
    idx: &IndexedDocument,
    hits: &[NodeId],
    keywords: &[&str],
    charge: &mut impl FnMut(u64) -> bool,
    mut visit: impl FnMut(NodeId, f64),
) {
    let labels = idx.labels();
    let values = idx.values();
    let n = values.content_element_count().max(1) as f64;
    let mut terms: Vec<TermCursor<'_>> = keywords
        .iter()
        .map(|kw| {
            let postings = values.postings(kw);
            TermCursor {
                postings,
                idf: (1.0 + n / postings.len() as f64).ln(),
                next: 0,
            }
        })
        .collect();

    for &hit in hits {
        let region = labels.region(hit);
        let mut steps = 1u64;
        let mut weight = 0.0;
        for term in &mut terms {
            let postings = term.postings;
            let mut i = term.next;
            while i < postings.len() && labels.region(postings[i].node).start < region.start {
                i += 1;
            }
            let mut tf: u32 = 0;
            while i < postings.len() && labels.region(postings[i].node).start < region.end {
                tf += postings[i].tf;
                i += 1;
            }
            steps += (i - term.next) as u64;
            term.next = i;
            if tf > 0 {
                weight += (1.0 + f64::from(tf).ln_1p()) * term.idf;
            }
        }
        // end - start = 2 · size - 1: the counter ticks twice per node.
        let subtree_size = f64::from((region.end - region.start).div_ceil(2));
        let compactness = 1.0 / (1.0 + subtree_size.ln_1p());
        visit(hit, weight * compactness);
        if charge(steps) {
            return;
        }
    }
}

/// Scores one answer subtree by filtering every posting of every
/// keyword against it and walking the subtree for its size: the
/// original per-hit scorer, kept as the oracle `score_hits` must
/// match bit for bit.
#[cfg(test)]
pub(crate) fn score_hit(idx: &IndexedDocument, node: NodeId, keywords: &[&str]) -> f64 {
    let doc = idx.document();
    let values = idx.values();
    let n = values.content_element_count().max(1) as f64;

    let mut weight = 0.0;
    for kw in keywords {
        let postings = values.postings(kw);
        if postings.is_empty() {
            continue;
        }
        let idf = (1.0 + n / postings.len() as f64).ln();
        // Occurrences inside the answer subtree.
        let labels = idx.labels();
        let region = labels.region(node);
        let tf: u32 = postings
            .iter()
            .filter(|p| p.node == node || region.is_ancestor_of(&labels.region(p.node)))
            .map(|p| p.tf)
            .sum();
        if tf > 0 {
            weight += (1.0 + f64::from(tf).ln_1p()) * idf;
        }
    }

    let subtree_size = doc.descendants_or_self(node).count() as f64;
    let compactness = 1.0 / (1.0 + subtree_size.ln_1p());
    weight * compactness
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotusx_guard::QueryGuard;

    /// Sweep-scores a single hit.
    fn score_one(idx: &IndexedDocument, node: NodeId, keywords: &[&str]) -> f64 {
        let mut score = None;
        score_hits(idx, &[node], keywords, &mut |_| false, |_, s| {
            score = Some(s)
        });
        let score = score.expect("one hit, one score");
        assert_eq!(score.to_bits(), score_hit(idx, node, keywords).to_bits());
        score
    }

    fn find(idx: &IndexedDocument, tag: &str) -> NodeId {
        let doc = idx.document();
        doc.all_nodes()
            .find(|&n| doc.tag_name(n) == Some(tag))
            .unwrap()
    }

    #[test]
    fn smaller_subtrees_with_same_terms_score_higher() {
        let idx = IndexedDocument::from_str(
            "<r><small>alpha beta</small>\
             <big>alpha beta<p1>x</p1><p2>y</p2><p3>z</p3><p4>w</p4></big></r>",
        )
        .unwrap();
        let kws = ["alpha", "beta"];
        let small = score_one(&idx, find(&idx, "small"), &kws);
        assert!(small > score_one(&idx, find(&idx, "big"), &kws));
    }

    #[test]
    fn more_keyword_mass_scores_higher_at_same_size() {
        let idx = IndexedDocument::from_str(
            "<r><one>alpha beta</one><two>alpha alpha alpha beta</two></r>",
        )
        .unwrap();
        let kws = ["alpha", "beta"];
        let two = score_one(&idx, find(&idx, "two"), &kws);
        assert!(two > score_one(&idx, find(&idx, "one"), &kws));
    }

    #[test]
    fn missing_keywords_contribute_nothing() {
        let idx = IndexedDocument::from_str("<r><a>alpha</a></r>").unwrap();
        let a = find(&idx, "a");
        assert_eq!(score_one(&idx, a, &["missing"]), 0.0);
        assert!(score_one(&idx, a, &["alpha", "missing"]) > 0.0);
    }

    #[test]
    fn subtree_size_counts_text_comment_and_pi_nodes() {
        let opts = lotusx_xml::ParseOptions {
            keep_comments: true,
            keep_pis: true,
            ..lotusx_xml::ParseOptions::default()
        };
        let doc = lotusx_xml::Document::parse_with_options(
            "<r><a>alpha<!--c--><?p d?><b>beta</b>tail</a><c>alpha</c></r>",
            opts,
        )
        .unwrap();
        let idx = IndexedDocument::build(doc);
        for tag in ["r", "a", "b", "c"] {
            score_one(&idx, find(&idx, tag), &["alpha", "beta", "tail"]);
        }
    }

    #[test]
    fn a_tripped_guard_stops_after_the_current_hit() {
        let idx = IndexedDocument::from_str("<r><a>k</a><a>k</a><a>k</a><a>k</a></r>").unwrap();
        let hits: Vec<NodeId> = idx
            .document()
            .all_nodes()
            .filter(|&n| idx.document().tag_name(n) == Some("a"))
            .collect();
        let guard = QueryGuard::new(&lotusx_guard::Budget::default().with_node_quota(3));
        let mut ticker = guard.ticker();
        let mut seen = Vec::new();
        score_hits(&idx, &hits, &["k"], &mut |n| ticker.tick(n), |n, _| {
            seen.push(n)
        });
        assert!(guard.is_tripped());
        assert!(!seen.is_empty() && seen.len() < hits.len());
        assert_eq!(seen, hits[..seen.len()]);
    }
}
