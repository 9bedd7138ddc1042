//! One-pass construction of every index over a document.

use crate::columns::TagColumns;
use crate::dataguide::{DataGuide, GuideNodeId};
use crate::stats::{JoinStats, Stats};
use crate::tag_index::{ElementEntry, TagIndex};
use crate::trie::Trie;
use crate::value_index::ValueIndex;
use lotusx_labeling::DocumentLabels;
use lotusx_xml::{Document, NodeId, NodeKind, Symbol};

/// Options controlling index construction. There are none: the build is
/// one serial pipeline on the caller's thread. The type and
/// [`IndexedDocument::build_with`] remain only because the end-to-end
/// benchmark harness calls them.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildOptions;

/// A document together with its labels and all indexes — the unit LotusX
/// loads and queries.
///
/// ```
/// use lotusx_index::IndexedDocument;
///
/// let idx = IndexedDocument::from_str("<bib><book><title>XML</title></book></bib>").unwrap();
/// let title = idx.document().symbols().get("title").unwrap();
/// assert_eq!(idx.tags().frequency(title), 1);
/// assert_eq!(idx.values().df("xml"), 1);
/// ```
#[derive(Clone, Debug)]
pub struct IndexedDocument {
    doc: Document,
    labels: DocumentLabels,
    tags: TagIndex,
    columns: TagColumns,
    values: ValueIndex,
    tag_trie: Trie,
    term_trie: Trie,
    terms: Vec<String>,
    guide: DataGuide,
    guide_of: Vec<GuideNodeId>,
    stats: Stats,
    join_stats: JoinStats,
    all_elements: Vec<ElementEntry>,
}

/// The full field set of an [`IndexedDocument`], used by the snapshot
/// decoder to reassemble one without running the build pipeline.
pub(crate) struct IndexParts {
    pub(crate) doc: Document,
    pub(crate) labels: DocumentLabels,
    pub(crate) tags: TagIndex,
    pub(crate) columns: TagColumns,
    pub(crate) values: ValueIndex,
    pub(crate) tag_trie: Trie,
    pub(crate) term_trie: Trie,
    pub(crate) terms: Vec<String>,
    pub(crate) guide: DataGuide,
    pub(crate) guide_of: Vec<GuideNodeId>,
    pub(crate) stats: Stats,
    pub(crate) join_stats: JoinStats,
    pub(crate) all_elements: Vec<ElementEntry>,
}

impl IndexedDocument {
    /// Parses `xml` and builds all indexes.
    ///
    /// Named like (but deliberately not implementing) `FromStr`: the
    /// error type is crate-specific and callers always use it directly.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(xml: &str) -> lotusx_xml::Result<Self> {
        Ok(Self::build(Document::parse_str(xml)?))
    }

    /// Builds all indexes over an already-parsed document.
    ///
    /// The pipeline has three phases, all on the calling thread:
    ///
    /// 1. labels, DataGuide and stats — three whole-document passes;
    /// 2. one preorder walk building the element→guide-node map and every
    ///    posting list, in document order;
    /// 3. the two completion tries, which only read the finished indexes.
    pub fn build(doc: Document) -> Self {
        // Phase 1: independent whole-document passes.
        let labels = DocumentLabels::compute(&doc);
        let guide = DataGuide::from_document(&doc);
        let stats = Stats::compute(&doc);

        // Phase 2: one preorder walk builds the element→guide-node map
        // (each entry depends on its parent's — O(1) per node) and the
        // postings: tag streams, value index and the all-elements stream,
        // each appended in document order.
        let tag_count = doc.symbols().len();
        let mut guide_of = vec![GuideNodeId::ROOT; doc.node_count()];
        let mut tags = TagIndex::with_tag_count(tag_count);
        let mut values = ValueIndex::new();
        let mut all_elements = Vec::with_capacity(stats.element_count);
        for node in doc.all_nodes() {
            if node == NodeId::DOCUMENT || !doc.is_element(node) {
                continue;
            }
            let tag = doc.tag(node).expect("element");
            let parent_guide = doc
                .parent(node)
                .map(|p| guide_of[p.index()])
                .unwrap_or(GuideNodeId::ROOT);
            guide_of[node.index()] = guide
                .child_by_tag(parent_guide, tag)
                .expect("guide derived from the same document");
            let entry = ElementEntry {
                node,
                region: labels.region(node),
            };
            tags.push(tag, entry);
            all_elements.push(entry);
            let direct_text = doc.direct_text(node);
            let attrs: Vec<&str> = match doc.kind(node) {
                NodeKind::Element { attributes, .. } => {
                    attributes.iter().map(|(_, v)| v.as_str()).collect()
                }
                _ => unreachable!(),
            };
            values.index_element(node, &direct_text, &attrs);
        }
        values.finish();

        // Columnar (struct-of-arrays) mirror of the tag streams — the
        // layout the join engine scans.
        let columns = TagColumns::build(&tags, &all_elements, tag_count);
        let join_stats = JoinStats::compute(&tags, &guide, tag_count);

        // Phase 3: the completion tries. Tag trie: element tags only,
        // weighted by occurrence count.
        let mut tag_trie = Trie::new();
        for (sym, name) in doc.symbols().iter() {
            let freq = tags.frequency(sym);
            if freq > 0 {
                tag_trie.insert(name, sym.index() as u32, freq as u64);
            }
        }
        // Term trie: payload is an id into `terms`, weighted by document
        // frequency.
        let mut terms: Vec<String> = values.terms().map(|(t, _)| t.to_string()).collect();
        terms.sort();
        let mut term_trie = Trie::new();
        for (i, term) in terms.iter().enumerate() {
            term_trie.insert(term, i as u32, values.df(term) as u64);
        }

        IndexedDocument {
            doc,
            labels,
            tags,
            columns,
            values,
            tag_trie,
            term_trie,
            terms,
            guide,
            guide_of,
            stats,
            join_stats,
            all_elements,
        }
    }

    /// [`Self::build`]; `_opts` is ignored. Kept only for the end-to-end
    /// benchmark harness, which calls it.
    pub fn build_with(doc: Document, _opts: &BuildOptions) -> Self {
        Self::build(doc)
    }

    /// Reassembles an `IndexedDocument` from deserialized parts (the
    /// snapshot load path). The parts must be mutually consistent — the
    /// snapshot decoder validates each structure against the document
    /// before calling this.
    pub(crate) fn from_parts(parts: IndexParts) -> Self {
        IndexedDocument {
            doc: parts.doc,
            labels: parts.labels,
            tags: parts.tags,
            columns: parts.columns,
            values: parts.values,
            tag_trie: parts.tag_trie,
            term_trie: parts.term_trie,
            terms: parts.terms,
            guide: parts.guide,
            guide_of: parts.guide_of,
            stats: parts.stats,
            join_stats: parts.join_stats,
            all_elements: parts.all_elements,
        }
    }

    /// The underlying document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// All positional labels.
    pub fn labels(&self) -> &DocumentLabels {
        &self.labels
    }

    /// The per-tag element streams.
    pub fn tags(&self) -> &TagIndex {
        &self.tags
    }

    /// The columnar (struct-of-arrays) mirror of the tag streams.
    pub fn columns(&self) -> &TagColumns {
        &self.columns
    }

    /// The content index.
    pub fn values(&self) -> &ValueIndex {
        &self.values
    }

    /// The tag-name completion trie (payload = `Symbol` index).
    pub fn tag_trie(&self) -> &Trie {
        &self.tag_trie
    }

    /// The content-term completion trie (payload = index into [`Self::term`]).
    pub fn term_trie(&self) -> &Trie {
        &self.term_trie
    }

    /// Resolves a term-trie payload to the term string.
    pub fn term(&self, id: u32) -> &str {
        &self.terms[id as usize]
    }

    /// The DataGuide structural summary.
    pub fn guide(&self) -> &DataGuide {
        &self.guide
    }

    /// The guide node of a document element.
    pub fn guide_node(&self, id: NodeId) -> GuideNodeId {
        self.guide_of[id.index()]
    }

    /// Corpus statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Join-selectivity statistics (chooser inputs).
    pub fn join_stats(&self) -> &JoinStats {
        &self.join_stats
    }

    /// Document-ordered stream of ALL elements (the stream a wildcard
    /// query node scans).
    pub fn all_elements(&self) -> &[ElementEntry] {
        &self.all_elements
    }

    /// Resolves a tag symbol to its name.
    pub fn tag_name(&self, sym: Symbol) -> &str {
        self.doc.symbols().resolve(sym)
    }

    /// Approximate total index size in bytes (labels + all indexes),
    /// excluding the document tree itself. Reported by experiment E1.
    pub fn index_size_bytes(&self) -> usize {
        self.labels.size_bytes()
            + self.tags.size_bytes()
            + self.columns.size_bytes()
            + self.values.size_bytes()
            + self.tag_trie.size_bytes()
            + self.term_trie.size_bytes()
            + self.guide.size_bytes()
            + self.guide_of.len() * std::mem::size_of::<GuideNodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> IndexedDocument {
        IndexedDocument::from_str(
            "<bib>\
               <book year=\"1999\"><title>Data on the Web</title><author>Abiteboul</author></book>\
               <book year=\"2003\"><title>XML Handbook</title><author>Goldfarb</author></book>\
               <article><title>TwigStack</title></article>\
             </bib>",
        )
        .unwrap()
    }

    #[test]
    fn tag_streams_are_document_ordered() {
        let idx = idx();
        let title = idx.document().symbols().get("title").unwrap();
        let stream = idx.tags().stream(title);
        assert_eq!(stream.len(), 3);
        for w in stream.windows(2) {
            assert!(w[0].region.start < w[1].region.start);
        }
    }

    #[test]
    fn value_index_sees_text_and_attributes() {
        let idx = idx();
        assert_eq!(idx.values().df("xml"), 1);
        assert_eq!(idx.values().df("1999"), 1, "attribute value indexed");
        assert_eq!(idx.values().exact_matches("twigstack").len(), 1);
    }

    #[test]
    fn tag_trie_completes_by_frequency() {
        let idx = idx();
        let completions = idx.tag_trie().complete("", 10);
        // book and title appear; heaviest first.
        assert_eq!(completions[0].weight, 3); // title ×3
        let keys: Vec<&str> = completions.iter().map(|c| c.key.as_str()).collect();
        assert!(keys.contains(&"book"));
        assert!(keys.contains(&"article"));
        assert!(!keys.contains(&"year"), "attribute names are not tags");
    }

    #[test]
    fn term_trie_payloads_resolve() {
        let idx = idx();
        let completions = idx.term_trie().complete("twig", 5);
        assert_eq!(completions.len(), 1);
        assert_eq!(idx.term(completions[0].payload), "twigstack");
    }

    #[test]
    fn guide_node_mapping_matches_paths() {
        let idx = idx();
        let doc = idx.document();
        for node in doc.all_nodes() {
            if !doc.is_element(node) {
                continue;
            }
            let gnode = idx.guide_node(node);
            let expected = idx.guide().lookup_path(&doc.tag_path(node)).unwrap();
            assert_eq!(gnode, expected);
        }
    }

    #[test]
    fn stats_and_sizes_are_consistent() {
        let idx = idx();
        assert_eq!(idx.stats().element_count, idx.tags().total_entries());
        assert!(idx.index_size_bytes() > 0);
    }
}
