//! Tables 1–3: the ACM CS curriculum topics the courses cover, with
//! Bloom's-taxonomy levels — and, for this reproduction, the workspace
//! module that *implements* each topic, making the coverage matrix an
//! executable claim.

/// Bloom's taxonomy levels used in the paper ("Knowledge (K),
/// Comprehension (C), and Application (A)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bloom {
    /// Knowledge.
    K,
    /// Comprehension.
    C,
    /// Application.
    A,
}

impl std::fmt::Display for Bloom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bloom::K => write!(f, "K"),
            Bloom::C => write!(f, "C"),
            Bloom::A => write!(f, "A"),
        }
    }
}

/// Which of the paper's tables a topic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopicTable {
    /// Table 1: programming topics.
    Programming,
    /// Table 2: algorithms topics.
    Algorithms,
    /// Table 3: cross-cutting and advanced topics.
    CrossCutting,
}

/// One row of Tables 1–3, extended with the implementing module(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topic {
    /// Which table the row is from.
    pub table: TopicTable,
    /// Topic name as printed.
    pub name: &'static str,
    /// Bloom levels listed.
    pub bloom: &'static [Bloom],
    /// Learning outcome (abridged).
    pub outcome: &'static str,
    /// Workspace modules implementing/demonstrating the topic.
    pub modules: &'static [&'static str],
}

/// The complete coverage matrix.
pub const TOPICS: &[Topic] = &[
    // ---- Table 1: programming topics --------------------------------
    Topic {
        table: TopicTable::Programming,
        name: "Client Server",
        bloom: &[Bloom::C],
        outcome: "notions of invoking and providing services (RPC, web services) as concurrent processes",
        modules: &["soc_http::server", "soc_http::client", "soc_soap::service", "soc_rest::router"],
    },
    Topic {
        table: TopicTable::Programming,
        name: "Task/thread spawning",
        bloom: &[Bloom::A],
        outcome: "write correct programs with threads, synchronize (fork-join, producer/consumer), dynamic threads",
        modules: &["soc_parallel::pool", "soc_parallel::sync"],
    },
    Topic {
        table: TopicTable::Programming,
        name: "Libraries",
        bloom: &[Bloom::A],
        outcome: "know one task-parallel library in detail (TBB/TPL-shaped)",
        modules: &["soc_parallel::par_iter", "soc_parallel::pipeline"],
    },
    Topic {
        table: TopicTable::Programming,
        name: "Tasks and threads",
        bloom: &[Bloom::K],
        outcome: "relationship between tasks/threads and cores; context-switch impact",
        modules: &["soc_parallel::pool", "soc_parallel::simcore"],
    },
    Topic {
        table: TopicTable::Programming,
        name: "Synchronization",
        bloom: &[Bloom::A],
        outcome: "shared-memory programs with critical regions, producer-consumer; monitors, semaphores",
        modules: &["soc_parallel::sync"],
    },
    Topic {
        table: TopicTable::Programming,
        name: "Performance metrics",
        bloom: &[Bloom::C],
        outcome: "speedup, efficiency, work, cost, Amdahl's law, scalability",
        modules: &["soc_parallel::metrics"],
    },
    // ---- Table 2: algorithms topics -----------------------------------
    Topic {
        table: TopicTable::Algorithms,
        name: "Speedup",
        bloom: &[Bloom::C],
        outcome: "use parallelism to solve the same problem faster or a larger problem in the same time",
        modules: &["soc_parallel::workloads", "soc_parallel::metrics"],
    },
    Topic {
        table: TopicTable::Algorithms,
        name: "Scalability in algorithms and architectures",
        bloom: &[Bloom::K],
        outcome: "more processors does not always mean faster: inherent sequentiality, DAG with a sequential spine",
        modules: &["soc_parallel::simcore"],
    },
    Topic {
        table: TopicTable::Algorithms,
        name: "Dependencies",
        bloom: &[Bloom::K, Bloom::A],
        outcome: "impact of dependencies; data dependencies in Web caching applications",
        modules: &["soc_parallel::simcore", "soc_services::cache"],
    },
    // ---- Table 3: cross-cutting and advanced topics ---------------------
    Topic {
        table: TopicTable::CrossCutting,
        name: "Cloud",
        bloom: &[Bloom::K],
        outcome: "shared distributed resources, on-demand, virtualized, service-oriented software and hardware",
        modules: &["soc_registry::directory", "soc_services::bindings"],
    },
    Topic {
        table: TopicTable::CrossCutting,
        name: "P2P",
        bloom: &[Bloom::K],
        outcome: "server and client roles of nodes with distributed data",
        modules: &["soc_discover::crawler"],
    },
    Topic {
        table: TopicTable::CrossCutting,
        name: "Security in Distributed Systems",
        bloom: &[Bloom::K],
        outcome: "distributed systems are more vulnerable to privacy/security threats; attack modes",
        modules: &["soc_services::access", "soc_services::crypto", "soc_rest::middleware"],
    },
    Topic {
        table: TopicTable::CrossCutting,
        name: "Web services",
        bloom: &[Bloom::A],
        outcome: "develop Web services and service clients to invoke services",
        modules: &["soc_soap::service", "soc_soap::client", "soc_rest::client", "soc_rest::resource"],
    },
];

/// Topics from one table.
pub fn topics_in(table: TopicTable) -> Vec<&'static Topic> {
    TOPICS.iter().filter(|t| t.table == table).collect()
}

/// The distinct module list referenced by the matrix (sorted).
pub fn referenced_modules() -> Vec<&'static str> {
    let mut mods: Vec<&'static str> =
        TOPICS.iter().flat_map(|t| t.modules.iter().copied()).collect();
    mods.sort();
    mods.dedup();
    mods
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_row_counts_match_paper() {
        assert_eq!(topics_in(TopicTable::Programming).len(), 6);
        assert_eq!(topics_in(TopicTable::Algorithms).len(), 3);
        assert_eq!(topics_in(TopicTable::CrossCutting).len(), 4);
    }

    #[test]
    fn every_topic_names_an_implementing_module() {
        for t in TOPICS {
            assert!(!t.modules.is_empty(), "{} has no implementation", t.name);
            assert!(!t.bloom.is_empty(), "{} has no Bloom level", t.name);
            assert!(!t.outcome.is_empty());
        }
    }

    #[test]
    fn module_references_point_into_this_workspace() {
        for m in referenced_modules() {
            let crate_name = m.split("::").next().unwrap();
            assert!(
                matches!(
                    crate_name,
                    "soc_http"
                        | "soc_rest"
                        | "soc_soap"
                        | "soc_parallel"
                        | "soc_registry"
                        | "soc_discover"
                        | "soc_services"
                        | "soc_workflow"
                        | "soc_robotics"
                        | "soc_webapp"
                        | "soc_xml"
                        | "soc_json"
                ),
                "unknown crate in matrix: {m}"
            );
        }
    }

    #[test]
    fn bloom_display() {
        assert_eq!(Bloom::K.to_string(), "K");
        assert_eq!(Bloom::A.to_string(), "A");
    }

    #[test]
    fn dependencies_topic_is_dual_level_as_printed() {
        let dep = TOPICS.iter().find(|t| t.name == "Dependencies").unwrap();
        assert_eq!(dep.bloom, &[Bloom::K, Bloom::A]);
    }
}
