//! # soc-xml — XML data representation and processing
//!
//! A from-scratch XML 1.0 (subset) processing stack covering the models
//! taught in CSE445 unit 4 of the paper: **SAX** (both pull and push
//! styles), **DOM**, an **XPath** subset, **schema validation**, and
//! serialization.
//!
//! The paper's course unit reads: *"This unit discusses XML and related
//! technologies ... XML data processing in SAX, DOM, and XPath models, XML
//! type definition and schema, XML validation, and XML Stylesheet
//! language."* Every one of those pieces has a module here.
//!
//! ## Quick tour
//!
//! ```
//! use soc_xml::{Document, xpath};
//!
//! let doc = Document::parse_str(
//!     "<catalog><service id='s1'><name>echo</name></service></catalog>").unwrap();
//! let names = xpath::eval("/catalog/service/name", &doc).unwrap();
//! assert_eq!(names.first_text(&doc).as_deref(), Some("echo"));
//! ```
//!
//! - [`reader`] — pull parser producing a stream of [`reader::XmlEvent`]s
//!   (the SAX data model).
//! - [`sax`] — push-style SAX driver over a user-supplied handler.
//! - [`dom`] — arena-backed DOM tree ([`Document`], [`NodeId`]).
//! - [`xpath`] — location-path subset with predicates.
//! - [`schema`] — element/attribute/occurrence validation.
//! - [`writer`] — streaming writer with optional pretty-printing.
//! - [`xslt`] — a tiny template-rule transformation engine in the spirit
//!   of XSL stylesheets.

pub mod dom;
pub mod error;
pub mod escape;
pub mod intern;
pub mod name;
pub mod reader;
pub mod sax;
pub mod scan;
pub mod schema;
pub mod writer;
pub mod xpath;
pub mod xslt;

pub use dom::{Document, NodeId, NodeValue};
pub use error::{XmlError, XmlResult};
pub use intern::{Atom, NameInterner};
pub use name::{QName, RawName};
pub use reader::{Attribute, XmlEvent, XmlReader};
pub use schema::{Schema, SchemaError};
pub use writer::XmlWriter;
pub use xpath::NodeSet;
