//! Arena-backed DOM tree.
//!
//! Nodes live in a flat `Vec` owned by the [`Document`]; [`NodeId`]s are
//! indices into that arena. The tree is threaded with first/last-child
//! and next-sibling links (no per-node `Vec` of children), every text
//! payload is a `Span` into one shared byte arena, and element and
//! attribute names are interned [`Atom`]s — so a parsed document makes
//! O(distinct names) allocations for names, one arena `String` for all
//! character data, and one `Vec` each for nodes and attributes.
//!
//! Node payloads are exposed through [`Document::value`], which returns
//! a borrowed [`NodeValue`] view; the arena representation itself is
//! private so it can keep evolving.

use crate::error::{Position, XmlError, XmlResult};
use crate::intern::{Atom, NameInterner};
use crate::name::{qname_matches, QName};
use crate::reader::{ReaderConfig, XmlEvent, XmlReader};
use crate::writer::XmlWriter;

/// Index of a node within its owning [`Document`]. Ids are assigned in
/// creation order and never reused, so for parsed documents ascending id
/// order *is* document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// A half-open range into the document's byte arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn get(self, bytes: &str) -> &str {
        &bytes[self.start as usize..(self.start + self.len) as usize]
    }
}

/// Internal node payload: atoms and spans, no owned strings.
#[derive(Debug, Clone, Copy)]
enum Payload {
    Element { name: Atom, attrs_start: u32, attrs_len: u32 },
    Text(Span),
    CData(Span),
    Comment(Span),
    Pi { target: Span, data: Span },
}

/// A node in the arena: payload plus sibling-threaded tree links.
#[derive(Debug, Clone, Copy)]
struct Node {
    payload: Payload,
    parent: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    next_sibling: Option<NodeId>,
}

/// One attribute in the document-wide flat attribute table.
#[derive(Debug, Clone, Copy)]
struct AttrEntry {
    name: Atom,
    value: Span,
}

/// Borrowed view of a node's payload, as returned by [`Document::value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeValue<'d> {
    /// An element (attributes via [`Document::attributes`]).
    Element(&'d QName),
    /// Character data.
    Text(&'d str),
    /// A CDATA section (serialized back as CDATA).
    CData(&'d str),
    /// A comment.
    Comment(&'d str),
    /// A processing instruction.
    Pi {
        /// PI target.
        target: &'d str,
        /// PI data.
        data: &'d str,
    },
}

/// An XML document: an arena of nodes with a distinguished root element.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    attrs: Vec<AttrEntry>,
    names: NameInterner,
    bytes: String,
    root: NodeId,
}

impl Document {
    /// Create a document whose root element has the given name.
    pub fn new(root_name: impl Into<QName>) -> Self {
        let mut doc = Document {
            nodes: Vec::new(),
            attrs: Vec::new(),
            names: NameInterner::new(),
            bytes: String::new(),
            root: NodeId(0),
        };
        let atom = doc.names.intern_qname(&root_name.into());
        doc.alloc(None, Payload::Element { name: atom, attrs_start: 0, attrs_len: 0 });
        doc
    }

    /// Parse a document from a string, dropping whitespace-only text
    /// (use [`Document::parse_str_keep_whitespace`] to keep it).
    pub fn parse_str(input: &str) -> XmlResult<Self> {
        Self::parse_with(input, ReaderConfig { trim_whitespace_text: true, skip_comments: false })
    }

    /// Parse preserving whitespace-only text nodes.
    pub fn parse_str_keep_whitespace(input: &str) -> XmlResult<Self> {
        Self::parse_with(input, ReaderConfig::default())
    }

    fn parse_with(input: &str, config: ReaderConfig) -> XmlResult<Self> {
        let mut reader = XmlReader::with_config(input, config);
        let mut doc = Document {
            nodes: Vec::new(),
            attrs: Vec::new(),
            names: NameInterner::new(),
            // Character data is at most the input; reserve a fraction so
            // text-heavy documents don't regrow the arena repeatedly.
            bytes: String::with_capacity(input.len() / 2),
            root: NodeId(0),
        };
        let mut stack: Vec<NodeId> = Vec::new();
        let mut root: Option<NodeId> = None;

        loop {
            let ev = reader.next_event()?;
            match ev {
                XmlEvent::StartDocument { .. } | XmlEvent::Doctype(_) => {}
                XmlEvent::StartElement { name } => {
                    let atom = doc.names.intern(name.as_str());
                    let attrs_start = doc.attrs.len() as u32;
                    let mut attrs_len = 0u32;
                    for a in reader.attributes() {
                        let name = doc.names.intern(a.name.as_str());
                        let value = doc.span_of(&a.value);
                        doc.attrs.push(AttrEntry { name, value });
                        attrs_len += 1;
                    }
                    let parent = stack.last().copied();
                    let id =
                        doc.alloc(parent, Payload::Element { name: atom, attrs_start, attrs_len });
                    if parent.is_none() {
                        root = Some(id);
                    }
                    stack.push(id);
                }
                XmlEvent::EndElement { .. } => {
                    stack.pop();
                }
                XmlEvent::Text(t) => {
                    let span = doc.span_of(&t);
                    Self::push_leaf(&mut doc, &stack, Payload::Text(span))?;
                }
                XmlEvent::CData(t) => {
                    let span = doc.span_of(t);
                    Self::push_leaf(&mut doc, &stack, Payload::CData(span))?;
                }
                XmlEvent::Comment(t) => {
                    // Comments outside the root are legal; we drop them to
                    // keep the arena rooted at a single element.
                    if !stack.is_empty() {
                        let span = doc.span_of(t);
                        Self::push_leaf(&mut doc, &stack, Payload::Comment(span))?;
                    }
                }
                XmlEvent::ProcessingInstruction { target, data } => {
                    if !stack.is_empty() {
                        let target = doc.span_of(target);
                        let data = doc.span_of(data);
                        Self::push_leaf(&mut doc, &stack, Payload::Pi { target, data })?;
                    }
                }
                XmlEvent::EndDocument => break,
            }
        }

        doc.root = root.ok_or_else(|| XmlError::NotWellFormed {
            pos: Position::start(),
            detail: "no root element".into(),
        })?;
        Ok(doc)
    }

    fn push_leaf(doc: &mut Document, stack: &[NodeId], payload: Payload) -> XmlResult<()> {
        let &parent = stack.last().ok_or_else(|| XmlError::NotWellFormed {
            pos: Position::start(),
            detail: "content outside root".into(),
        })?;
        doc.alloc(Some(parent), payload);
        Ok(())
    }

    /// Copy `s` into the byte arena and return its span.
    fn span_of(&mut self, s: &str) -> Span {
        let start = u32::try_from(self.bytes.len()).expect("document text exceeds 4 GiB");
        self.bytes.push_str(s);
        Span { start, len: s.len() as u32 }
    }

    /// Push a node and link it as the last child of `parent`.
    fn alloc(&mut self, parent: Option<NodeId>, payload: Payload) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            payload,
            parent,
            first_child: None,
            last_child: None,
            next_sibling: None,
        });
        if let Some(p) = parent {
            match self.nodes[p.0].last_child {
                Some(last) => self.nodes[last.0].next_sibling = Some(id),
                None => self.nodes[p.0].first_child = Some(id),
            }
            self.nodes[p.0].last_child = Some(id);
        }
        id
    }

    /// The root element.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrowed view of a node's payload. Panics on an id from a
    /// *different* document (ids are never reused within one).
    pub fn value(&self, id: NodeId) -> NodeValue<'_> {
        match self.nodes[id.0].payload {
            Payload::Element { name, .. } => NodeValue::Element(self.names.resolve(name)),
            Payload::Text(s) => NodeValue::Text(s.get(&self.bytes)),
            Payload::CData(s) => NodeValue::CData(s.get(&self.bytes)),
            Payload::Comment(s) => NodeValue::Comment(s.get(&self.bytes)),
            Payload::Pi { target, data } => {
                NodeValue::Pi { target: target.get(&self.bytes), data: data.get(&self.bytes) }
            }
        }
    }

    /// True if `id` is an element node.
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.0].payload, Payload::Element { .. })
    }

    /// Total number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document holds only the root element.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Element name, if `id` is an element.
    pub fn name(&self, id: NodeId) -> Option<&QName> {
        match self.nodes[id.0].payload {
            Payload::Element { name, .. } => Some(self.names.resolve(name)),
            _ => None,
        }
    }

    fn attr_range(&self, id: NodeId) -> &[AttrEntry] {
        match self.nodes[id.0].payload {
            Payload::Element { attrs_start, attrs_len, .. } => {
                &self.attrs[attrs_start as usize..(attrs_start + attrs_len) as usize]
            }
            _ => &[],
        }
    }

    /// Attribute value by name — matches either the full `prefix:local`
    /// form or the bare local part. No allocation.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attr_range(id)
            .iter()
            .find(|a| {
                let q = self.names.resolve(a.name);
                qname_matches(q, name) || q.local == name
            })
            .map(|a| a.value.get(&self.bytes))
    }

    /// All attributes of an element as `(name, value)` pairs in document
    /// order (empty for non-elements).
    pub fn attributes(&self, id: NodeId) -> impl Iterator<Item = (&QName, &str)> + '_ {
        self.attr_range(id).iter().map(|a| (self.names.resolve(a.name), a.value.get(&self.bytes)))
    }

    /// Children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children { doc: self, next: self.nodes[id.0].first_child }
    }

    /// Parent of `id`.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.0].parent
    }

    /// Child *elements* of `id` in document order.
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(|&c| self.is_element(c))
    }

    /// First child element with the given local name.
    pub fn find_child(&self, id: NodeId, local: &str) -> Option<NodeId> {
        self.child_elements(id).find(|&c| self.name(c).is_some_and(|n| n.local == local))
    }

    /// All child elements with the given local name.
    pub fn find_children<'a>(
        &'a self,
        id: NodeId,
        local: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.child_elements(id).filter(move |&c| self.name(c).is_some_and(|n| n.local == local))
    }

    /// Concatenated text of all descendant text/CDATA nodes of `id`.
    pub fn text(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants_iter(id) {
            match self.nodes[n.0].payload {
                Payload::Text(s) | Payload::CData(s) => out.push_str(s.get(&self.bytes)),
                _ => {}
            }
        }
        out
    }

    /// Text of the first child element named `local`, if present.
    /// The workhorse accessor for protocol decoding.
    pub fn child_text(&self, id: NodeId, local: &str) -> Option<String> {
        self.find_child(id, local).map(|c| self.text(c))
    }

    /// Depth-first pre-order traversal starting at `id` (inclusive),
    /// with no allocation: the iterator follows first-child links down
    /// and next-sibling/parent links back up.
    pub fn descendants_iter(&self, id: NodeId) -> Descendants<'_> {
        Descendants { doc: self, start: id, next: Some(id) }
    }

    /// Depth-first pre-order traversal starting at `id` (inclusive),
    /// materialized. Prefer [`Document::descendants_iter`] on hot paths.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        self.descendants_iter(id).collect()
    }

    /// Resolve a namespace prefix at `id` by walking `xmlns` declarations
    /// up the ancestor chain. An empty prefix resolves the default
    /// namespace.
    pub fn resolve_prefix(&self, id: NodeId, prefix: &str) -> Option<&str> {
        let mut cur = Some(id);
        while let Some(n) = cur {
            for a in self.attr_range(n) {
                if self.names.resolve(a.name).declared_prefix() == Some(prefix) {
                    return Some(a.value.get(&self.bytes));
                }
            }
            cur = self.nodes[n.0].parent;
        }
        match prefix {
            "xml" => Some("http://www.w3.org/XML/1998/namespace"),
            _ => None,
        }
    }

    /// Namespace URI of the element's own name.
    pub fn namespace(&self, id: NodeId) -> Option<&str> {
        let name = self.name(id)?;
        self.resolve_prefix(id, &name.prefix)
    }

    // ---- mutation -------------------------------------------------------

    /// Append a new child element to `parent`, returning its id.
    pub fn add_element(&mut self, parent: NodeId, name: impl Into<QName>) -> NodeId {
        let atom = self.names.intern_qname(&name.into());
        let attrs_start = self.attrs.len() as u32;
        self.alloc(Some(parent), Payload::Element { name: atom, attrs_start, attrs_len: 0 })
    }

    /// Append a text node to `parent`.
    pub fn add_text(&mut self, parent: NodeId, text: impl AsRef<str>) -> NodeId {
        let span = self.span_of(text.as_ref());
        self.alloc(Some(parent), Payload::Text(span))
    }

    /// Append a CDATA node to `parent`.
    pub fn add_cdata(&mut self, parent: NodeId, text: impl AsRef<str>) -> NodeId {
        let span = self.span_of(text.as_ref());
        self.alloc(Some(parent), Payload::CData(span))
    }

    /// Append a comment node to `parent`.
    pub fn add_comment(&mut self, parent: NodeId, text: impl AsRef<str>) -> NodeId {
        let span = self.span_of(text.as_ref());
        self.alloc(Some(parent), Payload::Comment(span))
    }

    /// Append a processing-instruction node to `parent`.
    pub fn add_pi(
        &mut self,
        parent: NodeId,
        target: impl AsRef<str>,
        data: impl AsRef<str>,
    ) -> NodeId {
        let target = self.span_of(target.as_ref());
        let data = self.span_of(data.as_ref());
        self.alloc(Some(parent), Payload::Pi { target, data })
    }

    /// Set (or replace) an attribute on an element. Panics if `id` is not
    /// an element.
    pub fn set_attr(&mut self, id: NodeId, name: impl Into<QName>, value: impl AsRef<str>) {
        let atom = self.names.intern_qname(&name.into());
        let value = self.span_of(value.as_ref());
        let (start, len) = match self.nodes[id.0].payload {
            Payload::Element { attrs_start, attrs_len, .. } => {
                (attrs_start as usize, attrs_len as usize)
            }
            _ => panic!("set_attr on a non-element node"),
        };
        if let Some(entry) = self.attrs[start..start + len].iter_mut().find(|a| a.name == atom) {
            entry.value = value;
            return;
        }
        let new_start = if start + len == self.attrs.len() {
            // This element owns the tail of the attribute table (the
            // common case: attributes are set right after add_element) —
            // extend in place.
            start
        } else {
            // Relocate the element's attributes to the tail. The old
            // entries stay behind as dead table rows; acceptable for the
            // build-then-serialize lifecycle these documents have.
            let new_start = self.attrs.len();
            self.attrs.extend_from_within(start..start + len);
            new_start
        };
        self.attrs.push(AttrEntry { name: atom, value });
        match &mut self.nodes[id.0].payload {
            Payload::Element { attrs_start, attrs_len, .. } => {
                *attrs_start = new_start as u32;
                *attrs_len = (len + 1) as u32;
            }
            _ => unreachable!(),
        }
    }

    /// Convenience: append `<name>text</name>` under `parent` and return
    /// the new element id.
    pub fn add_text_element(
        &mut self,
        parent: NodeId,
        name: impl Into<QName>,
        text: impl AsRef<str>,
    ) -> NodeId {
        let el = self.add_element(parent, name);
        self.add_text(el, text);
        el
    }

    /// Detach `id` from its parent. The node stays in the arena (ids are
    /// stable) but no longer appears in traversals.
    pub fn detach(&mut self, id: NodeId) {
        let Some(parent) = self.nodes[id.0].parent.take() else { return };
        let next = self.nodes[id.0].next_sibling.take();
        let mut prev: Option<NodeId> = None;
        let mut cur = self.nodes[parent.0].first_child;
        while let Some(c) = cur {
            if c == id {
                break;
            }
            prev = Some(c);
            cur = self.nodes[c.0].next_sibling;
        }
        match prev {
            Some(p) => self.nodes[p.0].next_sibling = next,
            None => self.nodes[parent.0].first_child = next,
        }
        if self.nodes[parent.0].last_child == Some(id) {
            self.nodes[parent.0].last_child = prev;
        }
    }

    /// Deep-copy the subtree rooted at `src_id` in `src` as a new child of
    /// `parent` in `self`. Returns the id of the copied root.
    pub fn graft(&mut self, parent: NodeId, src: &Document, src_id: NodeId) -> NodeId {
        let new_id = match src.value(src_id) {
            NodeValue::Element(name) => {
                let el = self.add_element(parent, name.clone());
                // Attributes go in immediately after add_element, so
                // set_attr stays on its in-place fast path.
                for (n, v) in src.attributes(src_id) {
                    self.set_attr(el, n.clone(), v);
                }
                el
            }
            NodeValue::Text(t) => self.add_text(parent, t),
            NodeValue::CData(t) => self.add_cdata(parent, t),
            NodeValue::Comment(t) => self.add_comment(parent, t),
            NodeValue::Pi { target, data } => self.add_pi(parent, target, data),
        };
        let mut child = src.nodes[src_id.0].first_child;
        while let Some(c) = child {
            self.graft(new_id, src, c);
            child = src.nodes[c.0].next_sibling;
        }
        new_id
    }

    // ---- serialization ---------------------------------------------------

    /// Serialize compactly (no added whitespace).
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.bytes.len() + self.nodes.len() * 8 + 16);
        self.write_xml_into(&mut out);
        out
    }

    /// Serialize compactly, appending to a caller-provided buffer (the
    /// reuse-friendly twin of [`Document::to_xml`]).
    pub fn write_xml_into(&self, out: &mut String) {
        let mut w = XmlWriter::compact_into(out);
        w.write_document(self);
        w.finish();
    }

    /// Serialize with two-space indentation.
    pub fn to_pretty_xml(&self) -> String {
        let mut out = String::with_capacity(self.bytes.len() + self.nodes.len() * 12 + 16);
        self.write_pretty_into(&mut out);
        out
    }

    /// Pretty-serialize, appending to a caller-provided buffer.
    pub fn write_pretty_into(&self, out: &mut String) {
        let mut w = XmlWriter::pretty_into(out);
        w.write_document(self);
        w.finish();
    }
}

/// Semantic tree equality: same element structure, names, attributes,
/// and character data, regardless of arena layout or interning order.
impl PartialEq for Document {
    fn eq(&self, other: &Self) -> bool {
        fn node_eq(a: &Document, an: NodeId, b: &Document, bn: NodeId) -> bool {
            if a.value(an) != b.value(bn) {
                return false;
            }
            if !a.attributes(an).eq(b.attributes(bn)) {
                return false;
            }
            let mut ca = a.children(an);
            let mut cb = b.children(bn);
            loop {
                match (ca.next(), cb.next()) {
                    (None, None) => return true,
                    (Some(x), Some(y)) => {
                        if !node_eq(a, x, b, y) {
                            return false;
                        }
                    }
                    _ => return false,
                }
            }
        }
        node_eq(self, self.root, other, other.root)
    }
}

impl std::fmt::Display for Document {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_xml())
    }
}

/// Iterator over a node's children (see [`Document::children`]).
#[derive(Clone)]
pub struct Children<'d> {
    doc: &'d Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next?;
        self.next = self.doc.nodes[id.0].next_sibling;
        Some(id)
    }
}

/// Allocation-free pre-order traversal (see [`Document::descendants_iter`]).
#[derive(Clone)]
pub struct Descendants<'d> {
    doc: &'d Document,
    start: NodeId,
    next: Option<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        let node = &self.doc.nodes[cur.0];
        self.next = match node.first_child {
            Some(c) => Some(c),
            None => {
                // Climb until a next sibling exists, stopping at the
                // traversal root.
                let mut n = cur;
                loop {
                    if n == self.start {
                        break None;
                    }
                    if let Some(s) = self.doc.nodes[n.0].next_sibling {
                        break Some(s);
                    }
                    match self.doc.nodes[n.0].parent {
                        Some(p) => n = p,
                        None => break None,
                    }
                }
            }
        };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_navigate() {
        let doc = Document::parse_str(
            "<catalog><service id='s1'><name>echo</name><cost>0</cost></service></catalog>",
        )
        .unwrap();
        let root = doc.root();
        assert_eq!(doc.name(root).unwrap().local, "catalog");
        let svc = doc.find_child(root, "service").unwrap();
        assert_eq!(doc.attr(svc, "id"), Some("s1"));
        assert_eq!(doc.child_text(svc, "name").as_deref(), Some("echo"));
        assert_eq!(doc.child_text(svc, "cost").as_deref(), Some("0"));
        assert_eq!(doc.child_text(svc, "missing"), None);
    }

    #[test]
    fn build_and_serialize() {
        let mut doc = Document::new("order");
        doc.set_attr(doc.root(), "id", "42");
        let item = doc.add_element(doc.root(), "item");
        doc.add_text(item, "book");
        assert_eq!(doc.to_xml(), r#"<order id="42"><item>book</item></order>"#);
    }

    #[test]
    fn round_trip_parse_serialize_parse() {
        let src = r#"<a x="1"><b>t &amp; u</b><c/><![CDATA[raw <stuff>]]></a>"#;
        let doc = Document::parse_str(src).unwrap();
        let ser = doc.to_xml();
        let doc2 = Document::parse_str(&ser).unwrap();
        assert_eq!(doc.text(doc.root()), doc2.text(doc2.root()));
        assert_eq!(ser, doc2.to_xml());
        assert_eq!(doc, doc2);
    }

    #[test]
    fn text_concatenates_descendants() {
        let doc = Document::parse_str("<p>Hello <b>brave</b> world</p>").unwrap();
        assert_eq!(doc.text(doc.root()), "Hello brave world");
    }

    #[test]
    fn descendants_in_document_order() {
        let doc = Document::parse_str("<a><b><c/></b><d/></a>").unwrap();
        let names: Vec<_> = doc
            .descendants(doc.root())
            .into_iter()
            .filter_map(|n| doc.name(n).map(|q| q.local.clone()))
            .collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn descendants_iter_stays_inside_subtree() {
        let doc = Document::parse_str("<a><b><c/><d/></b><e/></a>").unwrap();
        let b = doc.find_child(doc.root(), "b").unwrap();
        let names: Vec<_> =
            doc.descendants_iter(b).filter_map(|n| doc.name(n).map(|q| q.local.clone())).collect();
        assert_eq!(names, vec!["b", "c", "d"]);
    }

    #[test]
    fn namespace_resolution_walks_ancestors() {
        let doc = Document::parse_str(
            "<s:Envelope xmlns:s='http://schemas.xmlsoap.org/soap/envelope/' xmlns='urn:default'>\
             <s:Body><op/></s:Body></s:Envelope>",
        )
        .unwrap();
        let body = doc.find_child(doc.root(), "Body").unwrap();
        let op = doc.find_child(body, "op").unwrap();
        assert_eq!(doc.namespace(body), Some("http://schemas.xmlsoap.org/soap/envelope/"));
        assert_eq!(doc.namespace(op), Some("urn:default"));
        assert_eq!(doc.resolve_prefix(op, "nope"), None);
    }

    #[test]
    fn detach_removes_from_traversal() {
        let mut doc = Document::parse_str("<a><b/><c/></a>").unwrap();
        let b = doc.find_child(doc.root(), "b").unwrap();
        doc.detach(b);
        assert!(doc.find_child(doc.root(), "b").is_none());
        assert!(doc.find_child(doc.root(), "c").is_some());
    }

    #[test]
    fn detach_last_child_updates_links() {
        let mut doc = Document::parse_str("<a><b/><c/></a>").unwrap();
        let c = doc.find_child(doc.root(), "c").unwrap();
        doc.detach(c);
        assert_eq!(doc.children(doc.root()).count(), 1);
        let d = doc.add_element(doc.root(), "d");
        assert_eq!(doc.children(doc.root()).last(), Some(d));
        assert_eq!(doc.to_xml(), "<a><b/><d/></a>");
    }

    #[test]
    fn graft_copies_subtree_between_documents() {
        let src = Document::parse_str("<x><item id='1'><v>9</v></item></x>").unwrap();
        let item = src.find_child(src.root(), "item").unwrap();
        let mut dst = Document::new("basket");
        dst.graft(dst.root(), &src, item);
        assert_eq!(dst.to_xml(), r#"<basket><item id="1"><v>9</v></item></basket>"#);
    }

    #[test]
    fn set_attr_replaces_existing() {
        let mut doc = Document::new("a");
        doc.set_attr(doc.root(), "k", "1");
        doc.set_attr(doc.root(), "k", "2");
        assert_eq!(doc.attr(doc.root(), "k"), Some("2"));
        assert_eq!(doc.attributes(doc.root()).count(), 1);
    }

    #[test]
    fn set_attr_relocates_when_not_at_tail() {
        let mut doc = Document::new("a");
        doc.set_attr(doc.root(), "k", "1");
        let b = doc.add_element(doc.root(), "b");
        doc.set_attr(b, "x", "2");
        // Root's attribute range is no longer the table tail; adding a
        // second root attribute must relocate, not corrupt b's range.
        doc.set_attr(doc.root(), "m", "3");
        assert_eq!(doc.attr(doc.root(), "k"), Some("1"));
        assert_eq!(doc.attr(doc.root(), "m"), Some("3"));
        assert_eq!(doc.attr(b, "x"), Some("2"));
        assert_eq!(doc.to_xml(), r#"<a k="1" m="3"><b x="2"/></a>"#);
    }

    #[test]
    fn whitespace_dropped_by_default_kept_on_request() {
        let src = "<a>\n  <b/>\n</a>";
        let trimmed = Document::parse_str(src).unwrap();
        assert_eq!(trimmed.children(trimmed.root()).count(), 1);
        let kept = Document::parse_str_keep_whitespace(src).unwrap();
        assert_eq!(kept.children(kept.root()).count(), 3);
    }

    #[test]
    fn pretty_print_indents() {
        let doc = Document::parse_str("<a><b>t</b></a>").unwrap();
        let pretty = doc.to_pretty_xml();
        assert!(pretty.contains("\n  <b>"));
    }

    #[test]
    fn find_children_filters_by_name() {
        let doc = Document::parse_str("<a><i/><j/><i/></a>").unwrap();
        assert_eq!(doc.find_children(doc.root(), "i").count(), 2);
    }

    #[test]
    fn names_are_interned_once() {
        let doc = Document::parse_str("<r><x a='1'/><x a='2'/><x a='3'/></r>").unwrap();
        // r, x, a — three distinct names regardless of node count.
        assert_eq!(doc.names.len(), 3);
    }

    #[test]
    fn write_into_appends_after_existing_content() {
        let doc = Document::parse_str("<a><b>t</b></a>").unwrap();
        let mut buf = String::from("<?xml version=\"1.0\"?>");
        doc.write_xml_into(&mut buf);
        assert_eq!(buf, "<?xml version=\"1.0\"?><a><b>t</b></a>");
    }

    #[test]
    fn semantic_equality_ignores_arena_layout() {
        let a = Document::parse_str("<r><s k='1'>t</s></r>").unwrap();
        let mut b = Document::new("r");
        let s = b.add_element(b.root(), "s");
        b.set_attr(s, "k", "1");
        b.add_text(s, "t");
        assert_eq!(a, b);
        let c = Document::parse_str("<r><s k='2'>t</s></r>").unwrap();
        assert_ne!(a, c);
    }
}
