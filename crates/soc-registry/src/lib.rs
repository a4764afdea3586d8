//! # soc-registry — service repository, directory, search, QoS
//!
//! Section V of the paper describes the ASU Repository of Services and
//! Applications: a self-hosted repository ("we develop services
//! according to the need of the course"), a *service directory* listing
//! services from other directories, a *service crawler* "that discovers
//! available services online", a registration page, and an availability
//! story motivated by flaky free public services. This crate implements
//! the repository, the directory, and the search core; the crawler is
//! `soc_discover::crawler`, which walks directories' `/directory/peers`
//! referrals through a gateway:
//!
//! - [`descriptor`] — [`ServiceDescriptor`]: what a published service
//!   says about itself; XML and JSON codecs (registry documents).
//! - [`repository`] — [`Repository`]: publish / unpublish / lookup /
//!   category listing, with XML persistence (the repository document).
//! - [`search`] — the one tokenizer and tf·idf scoring loop (the
//!   "service search engine" at `…/sse/`), shared by the directory's
//!   `/search` and `soc_discover`'s QoS-fused index.
//! - [`directory`] — the directory's REST binding
//!   ([`directory::DirectoryService`]) and typed client
//!   ([`directory::DirectoryClient`]): register, list, get, search,
//!   leases, and the federation referral other directories are
//!   crawled through.
//! - [`monitor`] — [`monitor::QosMonitor`]: availability/latency
//!   probing and lease-based liveness, reproducing the paper's
//!   availability complaints measurably.
//! - [`ontology`] — [`ontology::Ontology`]: a triple store with
//!   `subClassOf` subsumption, giving the directory semantic category
//!   matching (CSE446 unit 6, "Ontology and Semantic Web").

pub mod descriptor;
pub mod directory;
pub mod monitor;
pub mod ontology;
pub mod repository;
pub mod search;

pub use descriptor::{Binding, ServiceDescriptor};
pub use repository::Repository;
