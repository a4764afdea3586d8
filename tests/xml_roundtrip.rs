//! Tier-1 properties of the zero-copy XML data plane: round-trip
//! fidelity. `parse(serialize(doc))` reproduces the document (semantic
//! tree equality), across entity-hostile text, CDATA sections,
//! attribute values, and deep nesting.

use proptest::prelude::*;
use soc_xml::{Document, NodeId};

/// Document content with XML-hostile characters: `& < > ' "` all force
/// entity escapes on the way out and expansion on the way back in.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~é\\n\\t]{1,20}").unwrap()
}

#[derive(Debug, Clone)]
enum Tree {
    Text(String),
    CData(String),
    Element { name: String, attrs: Vec<(String, String)>, children: Vec<Tree> },
}

fn tree_strategy() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        text_strategy().prop_map(Tree::Text),
        // A CDATA section cannot contain its own terminator; the writer
        // would split it into two sections, which reparse as two nodes.
        text_strategy().prop_map(|s| Tree::CData(s.replace("]]>", "]) >"))),
    ];
    // Depth 6 comfortably exceeds the "deep nesting" bar while keeping
    // shrunk counterexamples readable.
    leaf.prop_recursive(6, 48, 4, |inner| {
        (
            "[a-f]{1,4}",
            proptest::collection::vec(("[g-k]{1,3}", text_strategy()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| Tree::Element { name, attrs, children })
    })
}

fn build(doc: &mut Document, parent: NodeId, tree: &Tree) {
    match tree {
        // Adjacent text siblings merge on reparse and empty text
        // disappears, so the builder normalizes both away: a document
        // that can't be expressed in XML isn't a round-trip failure.
        Tree::Text(t) => {
            doc.add_text(parent, t.clone());
        }
        Tree::CData(t) => {
            doc.add_cdata(parent, t.clone());
        }
        Tree::Element { name, attrs, children } => {
            let el = doc.add_element(parent, name.as_str());
            let mut seen = std::collections::HashSet::new();
            for (k, v) in attrs {
                if seen.insert(k.clone()) {
                    doc.set_attr(el, k.as_str(), v.clone());
                }
            }
            let mut prev_was_text = false;
            for c in children {
                if matches!(c, Tree::Text(_)) {
                    if prev_was_text {
                        continue;
                    }
                    prev_was_text = true;
                } else {
                    prev_was_text = false;
                }
                build(doc, el, c);
            }
        }
    }
}

proptest! {
    /// The flagship property: serialize to XML text, reparse, and the
    /// two documents are semantically equal (names, attributes, node
    /// kinds, text — arena layout and interner state excluded).
    #[test]
    fn parse_of_serialize_is_identity(trees in proptest::collection::vec(tree_strategy(), 0..4)) {
        let mut doc = Document::new("root");
        let root = doc.root();
        let mut prev_was_text = false;
        for t in &trees {
            if matches!(t, Tree::Text(_)) {
                if prev_was_text {
                    continue;
                }
                prev_was_text = true;
            } else {
                prev_was_text = false;
            }
            build(&mut doc, root, t);
        }
        let xml = doc.to_xml();
        let reparsed = Document::parse_str_keep_whitespace(&xml).unwrap();
        prop_assert_eq!(&reparsed, &doc);
        // And the reparse is a serialization fixpoint.
        prop_assert_eq!(reparsed.to_xml(), xml);
    }

    /// Attribute round-trip under every escape-worthy character.
    #[test]
    fn attributes_round_trip(k in "[a-z]{1,6}", v in text_strategy()) {
        let mut doc = Document::new("r");
        doc.set_attr(doc.root(), k.as_str(), v.clone());
        let reparsed = Document::parse_str(&doc.to_xml()).unwrap();
        prop_assert_eq!(&reparsed, &doc);
    }
}

#[test]
fn deep_nesting_round_trips() {
    let mut doc = Document::new("d0");
    let mut cur = doc.root();
    for depth in 1..=64 {
        cur = doc.add_element(cur, format!("d{depth}").as_str());
        doc.set_attr(cur, "depth", depth.to_string());
    }
    doc.add_text(cur, "bottom & <deep>");
    let xml = doc.to_xml();
    let reparsed = Document::parse_str_keep_whitespace(&xml).unwrap();
    assert_eq!(reparsed, doc);
}

#[test]
fn entities_and_cdata_round_trip() {
    let mut doc = Document::new("mix");
    let root = doc.root();
    doc.add_text(root, "a < b && c > 'd' \"e\"");
    doc.add_cdata(root, "<raw & unescaped>");
    let el = doc.add_element(root, "item");
    doc.set_attr(el, "q", "\"quoted\" & <angled>");
    let reparsed = Document::parse_str_keep_whitespace(&doc.to_xml()).unwrap();
    assert_eq!(reparsed, doc);
}
