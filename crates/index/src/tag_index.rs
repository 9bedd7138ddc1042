//! Per-tag, document-ordered element streams.

use lotusx_labeling::RegionLabel;
use lotusx_xml::{NodeId, Symbol};

/// One element occurrence in a tag stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElementEntry {
    /// The element node.
    pub node: NodeId,
    /// Its region label (carried inline so joins never touch the tree).
    pub region: RegionLabel,
}

/// Inverted index from tag symbol to its document-ordered element stream.
#[derive(Clone, Debug, Default)]
pub struct TagIndex {
    postings: Vec<Vec<ElementEntry>>,
}

impl TagIndex {
    /// Creates an empty index sized for `tag_count` symbols.
    pub fn with_tag_count(tag_count: usize) -> Self {
        TagIndex {
            postings: vec![Vec::new(); tag_count],
        }
    }

    /// Appends an occurrence. Entries MUST be pushed in document order;
    /// this is checked in debug builds.
    pub fn push(&mut self, tag: Symbol, entry: ElementEntry) {
        if tag.index() >= self.postings.len() {
            self.postings.resize(tag.index() + 1, Vec::new());
        }
        let list = &mut self.postings[tag.index()];
        debug_assert!(
            list.last()
                .map(|prev| prev.region.start < entry.region.start)
                .unwrap_or(true),
            "tag stream must be built in document order"
        );
        list.push(entry);
    }

    /// The document-ordered stream for `tag` (empty if never seen).
    pub fn stream(&self, tag: Symbol) -> &[ElementEntry] {
        self.postings
            .get(tag.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// A cursor over the stream for `tag`.
    pub fn cursor(&self, tag: Symbol) -> TagStream<'_> {
        TagStream {
            entries: self.stream(tag),
            pos: 0,
        }
    }

    /// Number of occurrences of `tag`.
    pub fn frequency(&self, tag: Symbol) -> usize {
        self.stream(tag).len()
    }

    /// Total number of indexed occurrences.
    pub fn total_entries(&self) -> usize {
        self.postings.iter().map(Vec::len).sum()
    }

    /// Approximate heap size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.postings
            .iter()
            .map(|p| p.capacity() * std::mem::size_of::<ElementEntry>())
            .sum::<usize>()
            + self.postings.capacity() * std::mem::size_of::<Vec<ElementEntry>>()
    }
}

/// A forward-only cursor over one tag stream, in the style holistic twig
/// joins expect: `head`, `advance`, and order-based skipping.
#[derive(Clone, Copy, Debug)]
pub struct TagStream<'a> {
    entries: &'a [ElementEntry],
    pos: usize,
}

impl<'a> TagStream<'a> {
    /// Creates a cursor over a pre-sorted slice.
    pub fn new(entries: &'a [ElementEntry]) -> Self {
        TagStream { entries, pos: 0 }
    }

    /// True when the stream is exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.entries.len()
    }

    /// The current head entry, if any.
    pub fn head(&self) -> Option<ElementEntry> {
        self.entries.get(self.pos).copied()
    }

    /// Advances past the head.
    pub fn advance(&mut self) {
        self.pos += 1;
    }

    /// Skips (binary search) to the first entry with `region.start >= start`.
    pub fn seek_start_at_least(&mut self, start: u32) {
        let rest = &self.entries[self.pos..];
        let offset = rest.partition_point(|e| e.region.start < start);
        self.pos += offset;
    }

    /// Remaining entries from the cursor position.
    pub fn remaining(&self) -> &'a [ElementEntry] {
        &self.entries[self.pos..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(node: u32, start: u32, end: u32, level: u16) -> ElementEntry {
        ElementEntry {
            node: NodeId::from_index(node as usize),
            region: RegionLabel::new(start, end, level),
        }
    }

    fn sample_index() -> (TagIndex, Symbol, Symbol) {
        let a = Symbol::from_index(0);
        let b = Symbol::from_index(1);
        let mut idx = TagIndex::with_tag_count(2);
        idx.push(a, entry(1, 1, 20, 1));
        idx.push(a, entry(5, 8, 15, 2));
        idx.push(b, entry(3, 3, 6, 2));
        idx.push(b, entry(7, 10, 11, 3));
        idx.push(b, entry(9, 16, 17, 3));
        (idx, a, b)
    }

    #[test]
    fn streams_are_per_tag_and_ordered() {
        let (idx, a, b) = sample_index();
        assert_eq!(idx.frequency(a), 2);
        assert_eq!(idx.frequency(b), 3);
        assert_eq!(idx.total_entries(), 5);
        let starts: Vec<u32> = idx.stream(b).iter().map(|e| e.region.start).collect();
        assert_eq!(starts, vec![3, 10, 16]);
    }

    #[test]
    fn unknown_tag_yields_empty_stream() {
        let (idx, ..) = sample_index();
        assert!(idx.stream(Symbol::from_index(42)).is_empty());
        assert!(idx.cursor(Symbol::from_index(42)).is_exhausted());
    }

    #[test]
    fn cursor_advances_and_exhausts() {
        let (idx, _, b) = sample_index();
        let mut cur = idx.cursor(b);
        assert_eq!(cur.head().unwrap().region.start, 3);
        cur.advance();
        assert_eq!(cur.head().unwrap().region.start, 10);
        cur.advance();
        cur.advance();
        assert!(cur.is_exhausted());
        assert_eq!(cur.head(), None);
    }

    #[test]
    fn seek_skips_by_start() {
        let (idx, _, b) = sample_index();
        let mut cur = idx.cursor(b);
        cur.seek_start_at_least(9);
        assert_eq!(cur.head().unwrap().region.start, 10);
        cur.seek_start_at_least(17);
        assert!(cur.is_exhausted());
    }

    #[test]
    fn seek_to_present_value_lands_on_it() {
        let (idx, _, b) = sample_index();
        let mut cur = idx.cursor(b);
        cur.seek_start_at_least(10);
        assert_eq!(cur.head().unwrap().region.start, 10);
    }

    #[test]
    fn push_resizes_for_unseen_symbols() {
        let mut idx = TagIndex::default();
        let s = Symbol::from_index(7);
        idx.push(s, entry(1, 1, 2, 1));
        assert_eq!(idx.frequency(s), 1);
    }

    #[test]
    #[should_panic(expected = "document order")]
    #[cfg(debug_assertions)]
    fn out_of_order_push_is_caught_in_debug() {
        let mut idx = TagIndex::default();
        let s = Symbol::from_index(0);
        idx.push(s, entry(1, 10, 11, 1));
        idx.push(s, entry(2, 5, 6, 1));
    }
}
