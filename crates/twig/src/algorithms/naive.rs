//! Navigational baseline: top-down recursive matching over the tree.
//!
//! For every candidate binding of the query root, recursively enumerate
//! bindings of each child query node among the element's children (child
//! axis) or descendants (descendant axis), taking the cross product of the
//! per-child binding sets. Exponential in the worst case — exactly the
//! baseline the structural/holistic join literature improves on.

use crate::matcher::{filtered_stream, predicate_matches, TwigMatch};
use crate::pattern::{Axis, NodeTest, QNodeId, TwigPattern};
use lotusx_guard::{QueryGuard, Ticker};
use lotusx_index::IndexedDocument;
use lotusx_xml::NodeId;

/// Evaluates `pattern` navigationally, returning all full matches.
pub fn evaluate(idx: &IndexedDocument, pattern: &TwigPattern) -> Vec<TwigMatch> {
    evaluate_guarded(idx, pattern, &QueryGuard::unlimited())
}

/// [`evaluate`] under a budget. One node visit is charged per candidate
/// binding examined (amortized through a [`Ticker`]); on trip the walk
/// finishes its in-flight recursion step and stops expanding new root
/// candidates. Only fully bound assignments are ever emitted, so partial
/// output is valid.
pub fn evaluate_guarded(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    guard: &QueryGuard,
) -> Vec<TwigMatch> {
    let mut out = Vec::new();
    let mut bindings = vec![NodeId::DOCUMENT; pattern.len()];
    let mut ticker = guard.ticker();
    for entry in filtered_stream(idx, pattern, pattern.root()) {
        if ticker.tick(1) {
            break;
        }
        bindings[pattern.root().index()] = entry.node;
        extend(
            idx,
            pattern,
            pattern.root(),
            entry.node,
            &mut bindings,
            &mut out,
            &mut ticker,
        );
    }
    out.sort();
    out.dedup();
    out
}

/// Recursively binds the children of query node `q` (already bound to
/// `element`), appending every completed assignment to `out`.
#[allow(clippy::too_many_arguments)]
fn extend(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    q: QNodeId,
    element: NodeId,
    bindings: &mut Vec<NodeId>,
    out: &mut Vec<TwigMatch>,
    ticker: &mut Ticker,
) {
    let children = &pattern.node(q).children;
    bind_children(idx, pattern, element, children, 0, bindings, out, ticker);
}

#[allow(clippy::too_many_arguments)]
fn bind_children(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    element: NodeId,
    children: &[QNodeId],
    at: usize,
    bindings: &mut Vec<NodeId>,
    out: &mut Vec<TwigMatch>,
    ticker: &mut Ticker,
) {
    if at == children.len() {
        // All children of this level bound; if no unresolved nodes remain
        // this is only called from a fully-recursive chain, so record.
        out.push(TwigMatch {
            bindings: bindings.clone(),
        });
        return;
    }
    let qchild = children[at];
    for candidate in candidates(idx, pattern, qchild, element) {
        // Budget checkpoint: one visit per candidate binding examined.
        if ticker.tick(1) {
            return;
        }
        bindings[qchild.index()] = candidate;
        // Recurse into the subtree of qchild first; for each completion of
        // that subtree, continue with the next sibling.
        let mut sub = Vec::new();
        extend(idx, pattern, qchild, candidate, bindings, &mut sub, ticker);
        for m in sub {
            *bindings = m.bindings;
            bind_children(
                idx,
                pattern,
                element,
                children,
                at + 1,
                bindings,
                out,
                ticker,
            );
        }
    }
}

/// Document elements that can bind query node `q` under the already-bound
/// `parent_element`.
fn candidates(
    idx: &IndexedDocument,
    pattern: &TwigPattern,
    q: QNodeId,
    parent_element: NodeId,
) -> Vec<NodeId> {
    let doc = idx.document();
    let node = pattern.node(q);
    let iter: Vec<NodeId> = match node.axis {
        Axis::Child => doc.element_children(parent_element).collect(),
        Axis::Descendant => doc
            .descendants_or_self(parent_element)
            .skip(1)
            .filter(|&n| doc.is_element(n))
            .collect(),
    };
    iter.into_iter()
        .filter(|&n| match &node.test {
            NodeTest::Tag(name) => doc.tag_name(n) == Some(name.as_str()),
            NodeTest::Wildcard => true,
        })
        .filter(|&n| {
            node.predicate
                .as_ref()
                .map(|p| predicate_matches(idx, n, p))
                .unwrap_or(true)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{TwigBuilder, ValuePredicate};
    use crate::xpath::parse_query;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book><title>Data on the Web</title><author>Abiteboul</author>\
                     <author>Buneman</author><year>1999</year></book>\
               <book><title>XML Handbook</title><author>Goldfarb</author><year>2003</year></book>\
               <article><title>TwigStack</title><author>Bruno</author></article>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn single_node_query_matches_all_occurrences() {
        let idx = idx();
        let q = parse_query("//author").unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 4);
    }

    #[test]
    fn path_query_respects_axes() {
        let idx = idx();
        assert_eq!(
            evaluate(&idx, &parse_query("//book/title").unwrap()).len(),
            2
        );
        assert_eq!(
            evaluate(&idx, &parse_query("//bib//title").unwrap()).len(),
            3
        );
        assert_eq!(
            evaluate(&idx, &parse_query("/bib/book/title").unwrap()).len(),
            2
        );
        assert_eq!(
            evaluate(&idx, &parse_query("/book").unwrap()).len(),
            0,
            "book is not the root"
        );
    }

    #[test]
    fn branching_twig_takes_cross_products() {
        let idx = idx();
        // First book has 2 authors × 1 title → 2 matches; second book 1.
        let q = parse_query("//book[title][author]").unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 3);
    }

    #[test]
    fn predicates_filter_matches() {
        let idx = idx();
        let q = parse_query("//book[year >= 2000]/title").unwrap();
        let matches = evaluate(&idx, &q);
        assert_eq!(matches.len(), 1);
        let q = parse_query(r#"//book[author = "Goldfarb"]"#).unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 1);
        let q = parse_query(r#"//book[author ~ "nosuchperson"]"#).unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 0);
    }

    #[test]
    fn wildcard_nodes() {
        let idx = idx();
        let q = parse_query("//*[title][author]").unwrap();
        // book, book, article all have title+author children.
        assert_eq!(
            evaluate(&idx, &q)
                .iter()
                .map(|m| m.binding(q.root()))
                .collect::<std::collections::HashSet<_>>()
                .len(),
            3
        );
    }

    #[test]
    fn deep_descendant_axis() {
        let idx = IndexedDocument::from_str("<a><b><c><b><c>x</c></b></c></b></a>").unwrap();
        let q = parse_query("//b//c").unwrap();
        // b1 pairs with c1, c2; b2 pairs with c2 → 3.
        assert_eq!(evaluate(&idx, &q).len(), 3);
    }

    #[test]
    fn recursive_same_tag_nesting() {
        let idx = IndexedDocument::from_str("<s><s><s/></s></s>").unwrap();
        let q = parse_query("//s//s").unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 3);
        let q = parse_query("//s/s").unwrap();
        assert_eq!(evaluate(&idx, &q).len(), 2);
    }

    #[test]
    fn builder_and_parser_agree() {
        let idx = idx();
        let mut b = TwigBuilder::root("book");
        let root = b.root_id();
        let year = b.child(root, "year");
        b.predicate(
            year,
            ValuePredicate::Range {
                low: 2000.0,
                high: f64::INFINITY,
            },
        );
        let built = b.build();
        let parsed = parse_query("//book[year >= 2000]").unwrap();
        assert_eq!(evaluate(&idx, &built), evaluate(&idx, &parsed));
    }
}
