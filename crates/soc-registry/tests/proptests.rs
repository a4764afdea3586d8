//! Property tests for the registry: descriptor codec round-trips,
//! repository persistence identity, search-core ranking invariants, and
//! tokenizer invariants.

use proptest::prelude::*;
use soc_registry::descriptor::{Binding, ServiceDescriptor};
use soc_registry::search::{descriptor_fields, search, tokenize};
use soc_registry::Repository;

fn binding_strategy() -> impl Strategy<Value = Binding> {
    prop_oneof![
        Just(Binding::Rest),
        Just(Binding::Soap),
        Just(Binding::Workflow),
        Just(Binding::InProcess),
    ]
}

fn descriptor_strategy() -> impl Strategy<Value = ServiceDescriptor> {
    (
        "[a-z][a-z0-9-]{0,12}",
        "[ -~é]{1,24}",
        "[ -~é]{0,48}",
        "[a-z]{1,10}",
        proptest::collection::vec("[a-z]{2,8}", 0..4),
        binding_strategy(),
    )
        .prop_map(|(id, name, desc, cat, keywords, binding)| {
            let kw: Vec<&str> = keywords.iter().map(String::as_str).collect();
            ServiceDescriptor::new(&id, name.trim(), &format!("mem://{id}/api"), binding)
                .describe(desc.trim())
                .category(&cat)
                .keywords(&kw)
                .provider("prop")
        })
}

fn catalog_strategy() -> impl Strategy<Value = Vec<ServiceDescriptor>> {
    proptest::collection::vec(descriptor_strategy(), 0..20).prop_map(|ds| {
        let mut seen = std::collections::HashSet::new();
        ds.into_iter().filter(|d| seen.insert(d.id.clone())).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn descriptor_json_round_trip(d in descriptor_strategy()) {
        let j = d.to_json();
        prop_assert_eq!(ServiceDescriptor::from_json(&j).unwrap(), d);
    }

    #[test]
    fn repository_xml_round_trip(catalog in catalog_strategy()) {
        let repo = Repository::new();
        for d in &catalog {
            repo.publish(d.clone()).unwrap();
        }
        let xml = repo.to_xml();
        let restored = Repository::from_xml(&xml).unwrap();
        prop_assert_eq!(restored.list(), catalog);
    }

    #[test]
    fn search_results_are_sorted_and_bounded(
        catalog in catalog_strategy(),
        query in "[a-z ]{0,24}",
        limit in 0usize..12,
    ) {
        let hits = search(&catalog, &query, limit);
        prop_assert!(hits.len() <= limit);
        for w in hits.windows(2) {
            prop_assert!(
                w[0].score > w[1].score
                    || (w[0].score == w[1].score && w[0].service.id <= w[1].service.id),
                "ranking not sorted/deterministic"
            );
        }
        // Every hit actually shares a token with the query.
        let q_tokens: std::collections::HashSet<String> =
            tokenize(&query).into_iter().collect();
        for h in &hits {
            let doc_tokens: std::collections::HashSet<String> = descriptor_fields(&h.service)
                .into_iter()
                .flat_map(|(text, _weight)| tokenize(text))
                .collect();
            prop_assert!(
                q_tokens.iter().any(|t| doc_tokens.contains(t)),
                "hit shares no token with the query"
            );
        }
    }

    #[test]
    fn searching_for_a_unique_keyword_finds_its_service(catalog in catalog_strategy()) {
        // Plant one descriptor with a guaranteed-unique token.
        let mut catalog = catalog;
        let needle = "zzyzxunique";
        catalog.push(
            ServiceDescriptor::new("planted", "Planted Service", "mem://p/x", Binding::Rest)
                .describe(&format!("the {needle} sentinel value")),
        );
        let hits = search(&catalog, needle, 5);
        prop_assert_eq!(hits.len(), 1);
        prop_assert_eq!(hits[0].service.id.as_str(), "planted");
    }

    #[test]
    fn tokenizer_is_idempotent_and_lowercase(text in "[ -~é中]{0,64}") {
        let once = tokenize(&text);
        let joined = once.join(" ");
        prop_assert_eq!(tokenize(&joined), once.clone());
        for t in &once {
            prop_assert!(t.len() >= 2);
            prop_assert_eq!(t.to_lowercase(), t.clone());
        }
    }

    #[test]
    fn tokenizer_on_mixed_case_keeps_every_lowercased_run(text in "[ -~é中A-Z]{0,64}") {
        let tokens = tokenize(&text);
        prop_assert_eq!(tokenize(&tokens.join(" ")), tokens.clone());
        for t in &tokens {
            prop_assert!(t.len() >= 2);
            prop_assert_eq!(t.to_lowercase(), t.clone());
        }
        // Lowercasing only drops the camelCase parts: every whole run
        // is still emitted.
        for t in tokenize(&text.to_lowercase()) {
            prop_assert!(tokens.contains(&t), "{t:?} missing from {tokens:?}");
        }
    }

    #[test]
    fn publish_then_unpublish_is_identity(catalog in catalog_strategy(), extra in descriptor_strategy()) {
        prop_assume!(!catalog.iter().any(|d| d.id == extra.id));
        let repo = Repository::new();
        for d in &catalog {
            repo.publish(d.clone()).unwrap();
        }
        let before = repo.list();
        repo.publish(extra.clone()).unwrap();
        prop_assert!(repo.unpublish(&extra.id));
        prop_assert_eq!(repo.list(), before);
    }
}
