//! # lotusx-twig
//!
//! The twig (tree-pattern) query model of LotusX and the algorithms that
//! evaluate it:
//!
//! * [`pattern`] — twig patterns: tag/wildcard node tests, value predicates,
//!   parent-child and ancestor-descendant edges, output flags, and
//!   order-sensitive semantics.
//! * [`xpath`] — a parser for an XPath-like textual subset so queries can be
//!   written as strings (`//book[year >= 2000]/title`).
//! * [`algorithms`] — five evaluators producing identical match sets:
//!   a navigational baseline, binary structural joins, the holistic
//!   PathStack and TwigStack, and TJFast over extended Dewey labels.
//! * [`ordered`] — order-sensitive twig semantics (LotusX supports
//!   "complex twig queries (including order sensitive queries)").
//! * [`exec`] — algorithm selection facade.
//!
//! ```
//! use lotusx_index::IndexedDocument;
//! use lotusx_twig::{exec::{execute, Algorithm}, xpath::parse_query};
//!
//! let idx = IndexedDocument::from_str(
//!     "<bib><book><title>XML</title><year>2003</year></book></bib>").unwrap();
//! let q = parse_query("//book[year >= 2000]/title").unwrap();
//! let matches = execute(&idx, &q, Algorithm::TwigStack);
//! assert_eq!(matches.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod exec;
pub mod matcher;
pub mod ordered;
pub mod pattern;
pub mod xpath;

pub use exec::{choose_algorithm, execute, execute_budgeted, select_algorithm, Algorithm, Choice};
pub use matcher::TwigMatch;
pub use pattern::{Axis, NodeTest, QNodeId, TwigPattern, ValuePredicate};
pub use xpath::parse_query;
