//! Serialization of a [`Document`] (or subtree) back to XML text.

use crate::escape::{escape_attr_into, escape_text_into};
use crate::tree::{Document, NodeId, NodeKind};

/// Options controlling serialization.
#[derive(Clone, Copy, Debug)]
pub struct SerializeOptions {
    /// Pretty-print with indentation (one element per line). When false,
    /// output is compact with no added whitespace.
    pub pretty: bool,
    /// Spaces per indent level when pretty-printing.
    pub indent: usize,
}

impl Default for SerializeOptions {
    fn default() -> Self {
        SerializeOptions {
            pretty: false,
            indent: 2,
        }
    }
}

impl Document {
    /// Serializes the whole document compactly.
    pub fn to_xml(&self) -> String {
        self.serialize(NodeId::DOCUMENT, SerializeOptions::default())
    }

    /// Serializes the whole document with pretty-printing.
    pub fn to_xml_pretty(&self) -> String {
        self.serialize(
            NodeId::DOCUMENT,
            SerializeOptions {
                pretty: true,
                ..SerializeOptions::default()
            },
        )
    }

    /// Serializes the subtree rooted at `id` (the node itself included;
    /// passing [`NodeId::DOCUMENT`] serializes every top-level node).
    pub fn serialize(&self, id: NodeId, options: SerializeOptions) -> String {
        let mut out = String::new();
        if id == NodeId::DOCUMENT {
            for child in self.children(id) {
                self.serialize_node(child, &options, 0, &mut out);
                if options.pretty {
                    out.push('\n');
                }
            }
            if options.pretty && out.ends_with('\n') {
                out.pop();
            }
        } else {
            self.serialize_node(id, &options, 0, &mut out);
        }
        out
    }

    fn serialize_node(&self, id: NodeId, opts: &SerializeOptions, depth: usize, out: &mut String) {
        match self.kind(id) {
            NodeKind::Document => {}
            NodeKind::Element { name, attributes } => {
                out.push('<');
                out.push_str(self.symbols().resolve(*name));
                for (attr, value) in attributes {
                    out.push(' ');
                    out.push_str(self.symbols().resolve(*attr));
                    out.push_str("=\"");
                    escape_attr_into(value, out);
                    out.push('"');
                }
                // Empty text nodes (left behind by text coalescing) are
                // invisible to serialization.
                let visible =
                    |&c: &NodeId| !matches!(self.kind(c), NodeKind::Text(t) if t.is_empty());
                if !self.children(id).any(|c| visible(&c)) {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                // Invisible children are text nodes too, so they do not
                // change whether every child is text.
                let indented = opts.pretty
                    && !self
                        .children(id)
                        .all(|c| matches!(self.kind(c), NodeKind::Text(_)));
                if indented {
                    for child in self.children(id).filter(visible) {
                        out.push('\n');
                        push_indent(out, opts.indent * (depth + 1));
                        self.serialize_node(child, opts, depth + 1, out);
                    }
                    out.push('\n');
                    push_indent(out, opts.indent * depth);
                } else {
                    for child in self.children(id).filter(visible) {
                        self.serialize_node(child, opts, depth + 1, out);
                    }
                }
                out.push_str("</");
                out.push_str(self.symbols().resolve(*name));
                out.push('>');
            }
            NodeKind::Text(text) => escape_text_into(text, out),
            NodeKind::Comment(text) => {
                out.push_str("<!--");
                out.push_str(text);
                out.push_str("-->");
            }
            NodeKind::Pi { target, data } => {
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    out.extend(std::iter::repeat_n(' ', n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Document;

    /// The original serializer, which collected each element's visible
    /// children into a `Vec`: the oracle the allocation-free one must
    /// match byte for byte.
    fn serialize_oracle(doc: &Document, id: NodeId, opts: &SerializeOptions) -> String {
        fn node(
            doc: &Document,
            id: NodeId,
            opts: &SerializeOptions,
            depth: usize,
            out: &mut String,
        ) {
            match doc.kind(id) {
                NodeKind::Document => {}
                NodeKind::Element { name, attributes } => {
                    out.push('<');
                    out.push_str(doc.symbols().resolve(*name));
                    for (attr, value) in attributes {
                        out.push(' ');
                        out.push_str(doc.symbols().resolve(*attr));
                        out.push_str("=\"");
                        escape_attr_into(value, out);
                        out.push('"');
                    }
                    let children: Vec<NodeId> = doc
                        .children(id)
                        .filter(|&c| !matches!(doc.kind(c), NodeKind::Text(t) if t.is_empty()))
                        .collect();
                    if children.is_empty() {
                        out.push_str("/>");
                        return;
                    }
                    out.push('>');
                    let only_text = children
                        .iter()
                        .all(|&c| matches!(doc.kind(c), NodeKind::Text(_)));
                    if opts.pretty && !only_text {
                        for child in &children {
                            out.push('\n');
                            out.push_str(&" ".repeat(opts.indent * (depth + 1)));
                            node(doc, *child, opts, depth + 1, out);
                        }
                        out.push('\n');
                        out.push_str(&" ".repeat(opts.indent * depth));
                    } else {
                        for child in &children {
                            node(doc, *child, opts, depth + 1, out);
                        }
                    }
                    out.push_str("</");
                    out.push_str(doc.symbols().resolve(*name));
                    out.push('>');
                }
                NodeKind::Text(text) => escape_text_into(text, out),
                NodeKind::Comment(text) => {
                    out.push_str("<!--");
                    out.push_str(text);
                    out.push_str("-->");
                }
                NodeKind::Pi { target, data } => {
                    out.push_str("<?");
                    out.push_str(target);
                    if !data.is_empty() {
                        out.push(' ');
                        out.push_str(data);
                    }
                    out.push_str("?>");
                }
            }
        }
        let mut out = String::new();
        if id == NodeId::DOCUMENT {
            for child in doc.children(id) {
                node(doc, child, opts, 0, &mut out);
                if opts.pretty {
                    out.push('\n');
                }
            }
            if opts.pretty && out.ends_with('\n') {
                out.pop();
            }
        } else {
            node(doc, id, opts, 0, &mut out);
        }
        out
    }

    fn assert_matches_oracle(doc: &Document) {
        for pretty in [false, true] {
            let opts = SerializeOptions {
                pretty,
                ..SerializeOptions::default()
            };
            for id in doc.all_nodes() {
                assert_eq!(
                    doc.serialize(id, opts),
                    serialize_oracle(doc, id, &opts),
                    "node {id:?}, pretty {pretty}"
                );
            }
        }
    }

    #[test]
    fn empty_text_nodes_comments_and_pis_match_the_oracle() {
        let mut doc = Document::new();
        let root = doc.append_element(NodeId::DOCUMENT, "r");
        // An element whose only child is an empty text node is empty.
        let hollow = doc.append_element(root, "hollow");
        doc.append_text(hollow, "");
        // Empty text between elements must not add pretty-print lines.
        let mixed = doc.append_element(root, "mixed");
        doc.append_text(mixed, "");
        doc.append_element(mixed, "a");
        doc.append_text(mixed, "");
        doc.append_text(mixed, "t & <u>");
        let only_text = doc.append_element(root, "texts");
        doc.append_text(only_text, "");
        doc.append_text(only_text, "x");
        let comment = doc.new_comment("note");
        doc.append_child(mixed, comment);
        let pi = doc.new_pi("target", "data");
        doc.append_child(root, pi);
        let bare_pi = doc.new_pi("bare", "");
        doc.append_child(hollow, bare_pi);
        let top_comment = doc.new_comment("top");
        doc.append_child(NodeId::DOCUMENT, top_comment);
        doc.set_attribute(root, "k", "a\"b\n\t<&>");
        assert_matches_oracle(&doc);
        assert!(doc.to_xml().contains("<texts>x</texts>"));
    }

    #[test]
    fn random_text_and_attributes_match_the_oracle() {
        let strings = crate::escape::tests::random_strings(0xC0FFEE, 300);
        let mut doc = Document::new();
        let root = doc.append_element(NodeId::DOCUMENT, "r");
        let mut parent = root;
        for (i, s) in strings.iter().enumerate() {
            let e = doc.append_element(parent, "e");
            doc.set_attribute(e, "v", s.as_str());
            doc.append_text(e, s.as_str());
            // Nest every third element to vary the depth.
            if i % 3 == 0 {
                parent = e;
            }
        }
        assert_matches_oracle(&doc);
    }

    #[test]
    fn compact_roundtrip() {
        let src = r#"<bib><book year="1999"><title>XML &amp; more</title></book><note/></bib>"#;
        let doc = Document::parse_str(src).unwrap();
        assert_eq!(doc.to_xml(), src);
    }

    #[test]
    fn escapes_attribute_quotes() {
        let mut doc = Document::new();
        let e = doc.append_element(NodeId::DOCUMENT, "a");
        doc.set_attribute(e, "k", "say \"hi\"");
        assert_eq!(doc.to_xml(), r#"<a k="say &quot;hi&quot;"/>"#);
    }

    #[test]
    fn pretty_print_indents_elements_but_not_text_leaves() {
        let doc = Document::parse_str("<a><b>t</b><c><d/></c></a>").unwrap();
        let pretty = doc.to_xml_pretty();
        assert_eq!(pretty, "<a>\n  <b>t</b>\n  <c>\n    <d/>\n  </c>\n</a>");
    }

    #[test]
    fn subtree_serialization() {
        let doc = Document::parse_str("<a><b><c>x</c></b></a>").unwrap();
        let a = doc.root_element().unwrap();
        let b = doc.element_children(a).next().unwrap();
        assert_eq!(
            doc.serialize(b, SerializeOptions::default()),
            "<b><c>x</c></b>"
        );
    }

    #[test]
    fn comments_and_pis_serialize() {
        let opts = crate::ParseOptions {
            keep_comments: true,
            keep_pis: true,
            ..crate::ParseOptions::default()
        };
        let src = "<a><!--note--><?target data?></a>";
        let doc = Document::parse_with_options(src, opts).unwrap();
        assert_eq!(doc.to_xml(), src);
    }

    #[test]
    fn parse_serialize_parse_is_stable() {
        let src = "<r><x i=\"1\">a&lt;b</x><y><z/></y></r>";
        let doc = Document::parse_str(src).unwrap();
        let once = doc.to_xml();
        let doc2 = Document::parse_str(&once).unwrap();
        assert_eq!(doc2.to_xml(), once);
    }
}
