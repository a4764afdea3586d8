//! The service search engine's core: one tokenizer and one tf·idf
//! scoring loop.
//!
//! The paper hosts a "service engine" at `venus.eas.asu.edu/sse/` that
//! searches services discovered by the crawler. Two callers rank with
//! this module: the directory's `GET /search` (via [`search`], over the
//! descriptors it holds) and `soc_discover`'s `SearchIndex`, which adds
//! typed-operation fields and fuses the relevance with live QoS. Both
//! weigh descriptors through [`descriptor_fields`], so a query ranks the
//! same descriptor-only catalog identically in either place.

use std::collections::HashMap;

use crate::descriptor::ServiceDescriptor;

/// Lowercase word tokens of length ≥ 2: each alphanumeric run, plus its
/// camelCase parts when it has several (`AssessRisk` → `assessrisk`,
/// `assess`, `risk`).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for run in text.split(|c: char| !c.is_alphanumeric()).filter(|r| !r.is_empty()) {
        let whole = run.to_lowercase();
        let mut parts = Vec::new();
        let mut part = String::new();
        for c in run.chars() {
            if c.is_uppercase() && !part.is_empty() {
                parts.push(std::mem::take(&mut part));
            }
            part.extend(c.to_lowercase());
        }
        parts.push(part);
        if whole.len() >= 2 {
            out.push(whole);
        }
        if parts.len() > 1 {
            out.extend(parts.into_iter().filter(|p| p.len() >= 2));
        }
    }
    out
}

/// The weighted text fields of a descriptor: id and name ×2, each
/// keyword ×1.5, description and category ×1.
pub fn descriptor_fields(d: &ServiceDescriptor) -> Vec<(&str, f64)> {
    let mut fields = vec![
        (d.id.as_str(), 2.0),
        (d.name.as_str(), 2.0),
        (d.description.as_str(), 1.0),
        (d.category.as_str(), 1.0),
    ];
    fields.extend(d.keywords.iter().map(|k| (k.as_str(), 1.5)));
    fields
}

/// An inverted index of weighted term frequencies over numbered
/// documents.
#[derive(Debug, Default)]
pub struct TfIdf {
    docs: usize,
    /// term → `(doc, summed field weight of the term in that doc)`.
    postings: HashMap<String, Vec<(usize, f64)>>,
}

impl TfIdf {
    /// Index the next document from its weighted text fields.
    /// Documents are numbered from 0 in insertion order.
    pub fn add<'a>(&mut self, fields: impl IntoIterator<Item = (&'a str, f64)>) {
        let doc = self.docs;
        self.docs += 1;
        let mut tf: HashMap<String, f64> = HashMap::new();
        for (text, weight) in fields {
            for tok in tokenize(text) {
                *tf.entry(tok).or_insert(0.0) += weight;
            }
        }
        for (tok, weight) in tf {
            self.postings.entry(tok).or_default().push((doc, weight));
        }
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.docs == 0
    }

    /// Relevance of every document sharing a token with `query`:
    /// the sum over query tokens of `(1 + ln w) · ln(1 + n/df)`. Unordered.
    pub fn scores(&self, query: &str) -> HashMap<usize, f64> {
        let n = self.docs as f64;
        let mut scores: HashMap<usize, f64> = HashMap::new();
        for tok in tokenize(query) {
            let Some(posting) = self.postings.get(&tok) else { continue };
            let idf = (1.0 + n / posting.len() as f64).ln();
            for &(doc, weight) in posting {
                *scores.entry(doc).or_insert(0.0) += (1.0 + weight.ln()) * idf;
            }
        }
        scores
    }
}

/// A ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// The matching service.
    pub service: ServiceDescriptor,
    /// tf·idf relevance score (higher = better).
    pub score: f64,
}

/// Rank `services` against `query`: up to `limit` hits, best first,
/// ties broken by id for determinism.
pub fn search(services: &[ServiceDescriptor], query: &str, limit: usize) -> Vec<Hit> {
    let mut index = TfIdf::default();
    for d in services {
        index.add(descriptor_fields(d));
    }
    let mut hits: Vec<Hit> = index
        .scores(query)
        .into_iter()
        .map(|(doc, score)| Hit { service: services[doc].clone(), score })
        .collect();
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.service.id.cmp(&b.service.id)));
    hits.truncate(limit);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Binding;

    fn corpus() -> Vec<ServiceDescriptor> {
        vec![
            ServiceDescriptor::new("enc", "Encryption Service", "mem://s/enc", Binding::Rest)
                .describe("encrypts and decrypts text with a shared secret key")
                .category("security")
                .keywords(&["cipher", "crypto"]),
            ServiceDescriptor::new("cart", "Shopping Cart", "mem://s/cart", Binding::Rest)
                .describe("add items, remove items, compute totals for a shopping session")
                .category("commerce"),
            ServiceDescriptor::new("img", "Image Verifier", "mem://s/img", Binding::Rest)
                .describe("generates a random string image for human verification (captcha)")
                .category("security")
                .keywords(&["captcha", "image"]),
            ServiceDescriptor::new(
                "mortgage",
                "Mortgage Approval",
                "mem://s/mortgage",
                Binding::Soap,
            )
            .describe("mortgage application approval using a credit score service")
            .category("finance"),
        ]
    }

    #[test]
    fn tokenizer_basics() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize("TF-IDF 2.0"), vec!["tf", "idf"]);
        assert!(tokenize("a ! ?").is_empty()); // 1-char tokens dropped
        assert_eq!(tokenize("AssessRisk"), vec!["assessrisk", "assess", "risk"]);
    }

    #[test]
    fn finds_by_description_terms() {
        let hits = search(&corpus(), "encrypt secret", 10);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].service.id, "enc");
    }

    #[test]
    fn name_terms_outrank_description_terms() {
        // "image" appears in img's name-ish keywords and description.
        let hits = search(&corpus(), "image", 10);
        assert_eq!(hits[0].service.id, "img");
    }

    #[test]
    fn multi_term_queries_accumulate() {
        let hits = search(&corpus(), "mortgage credit score", 10);
        assert_eq!(hits[0].service.id, "mortgage");
    }

    #[test]
    fn rare_terms_weigh_more_than_common() {
        // "service" appears everywhere → low idf; "captcha" only in img.
        let hits = search(&corpus(), "service captcha", 10);
        assert_eq!(hits[0].service.id, "img");
    }

    #[test]
    fn no_match_is_empty() {
        assert!(search(&corpus(), "blockchain", 10).is_empty());
        assert!(search(&corpus(), "", 10).is_empty());
    }

    #[test]
    fn substrings_do_not_match() {
        // Ranking tokenizes, so "crypt" misses encrypts/decrypts/crypto.
        assert!(search(&corpus(), "crypt", 10).is_empty());
    }

    #[test]
    fn limit_respected_and_deterministic() {
        let hits = search(&corpus(), "security", 1);
        assert_eq!(hits.len(), 1);
        let again = search(&corpus(), "security", 1);
        assert_eq!(hits[0].service.id, again[0].service.id);
    }

    #[test]
    fn empty_engine() {
        let index = TfIdf::default();
        assert!(index.scores("anything").is_empty());
        assert!(index.is_empty());
        assert!(search(&[], "anything", 5).is_empty());
    }
}
