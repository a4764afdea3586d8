//! # soc-bench — the benchmark and reproduction harness
//!
//! One binary per paper table/figure (see `src/bin/`) and one Criterion
//! bench per performance question (see `benches/`). DESIGN.md carries
//! the full experiment index; EXPERIMENTS.md records paper-vs-measured.
//!
//! This library holds the workload generators the binaries and benches
//! share.

/// Deterministic pseudo-random u64 stream (SplitMix64) — benches avoid
/// pulling `rand` into hot loops.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value below `n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

const WORDS: &[&str] = &[
    "service",
    "cloud",
    "robot",
    "maze",
    "cart",
    "cipher",
    "image",
    "captcha",
    "credit",
    "mortgage",
    "queue",
    "cache",
    "password",
    "workflow",
    "soap",
    "rest",
    "xml",
    "registry",
    "broker",
    "client",
    "provider",
    "discovery",
    "composition",
    "integration",
    "distributed",
    "parallel",
    "thread",
    "lock",
    "event",
    "semaphore",
];

/// Generate a synthetic XML document with `breadth` children per node
/// and `depth` levels (the XML bench corpus).
///
/// The shape mirrors the messages the rest of the workspace actually
/// moves: dense element structure with short attributes, leaf elements
/// carrying sentence-length description text, and occasional endpoint
/// URIs — the mix found in SOAP envelopes and registry catalogs, where
/// payload text (not markup) is most of the bytes on the wire.
pub fn synthetic_xml(breadth: usize, depth: usize) -> String {
    fn emit(out: &mut String, breadth: usize, depth: usize, rng: &mut SplitMix) {
        if depth == 0 {
            // Leaf payload: a word-salad description plus a version
            // token, like a descriptor's `describe(..)` text.
            let n = 3 + rng.below(9);
            for k in 0..n {
                if k > 0 {
                    out.push(' ');
                }
                out.push_str(WORDS[rng.below(WORDS.len() as u64) as usize]);
            }
            out.push_str(&format!(" v{}", rng.below(1000)));
            return;
        }
        for i in 0..breadth {
            out.push_str(&format!("<n{} id=\"{}\"", i % 4, rng.below(100)));
            if rng.below(4) == 0 {
                out.push_str(&format!(
                    " uri=\"mem://host-{}/svc-{}\"",
                    rng.below(16),
                    rng.below(1000)
                ));
            }
            out.push('>');
            emit(out, breadth, depth - 1, rng);
            out.push_str(&format!("</n{}>", i % 4));
        }
    }
    let mut out = String::from("<root>");
    let mut rng = SplitMix(7);
    emit(&mut out, breadth, depth, &mut rng);
    out.push_str("</root>");
    out
}

/// Generate a synthetic JSON document with `items` array entries (the
/// JSON bench corpus).
///
/// The shape mirrors what the REST side of the stack actually serves:
/// a service-listing response whose entries carry short ids, word-salad
/// description strings (mostly escape-free — the borrowed-string fast
/// path's common case), numeric QoS fields, nested endpoint objects,
/// and an occasional string needing escapes (a quoted phrase or an
/// embedded newline) so the slow path stays exercised.
pub fn synthetic_json(items: usize) -> String {
    let mut rng = SplitMix(11);
    let word = |rng: &mut SplitMix| WORDS[rng.below(WORDS.len() as u64) as usize];
    let mut out = String::from("{\"services\":[");
    for i in 0..items {
        if i > 0 {
            out.push(',');
        }
        let desc: Vec<&str> = (0..4 + rng.below(8)).map(|_| word(&mut rng)).collect();
        out.push_str(&format!(
            "{{\"id\":\"svc-{i}\",\"name\":\"{} {}\",\"description\":\"{}\"",
            word(&mut rng),
            word(&mut rng),
            desc.join(" ")
        ));
        if rng.below(8) == 0 {
            out.push_str(&format!(
                ",\"note\":\"a \\\"quoted\\\" phrase\\nline {}\"",
                rng.below(100)
            ));
        }
        out.push_str(&format!(
            ",\"cost\":{}.{:02},\"latency_us\":{},\"available\":{}",
            rng.below(100),
            rng.below(100),
            rng.below(100_000),
            rng.below(2) == 0
        ));
        out.push_str(&format!(
            ",\"endpoint\":{{\"uri\":\"mem://host-{}/svc-{i}\",\"binding\":\"{}\",\"port\":{}}}",
            rng.below(16),
            if i % 3 == 0 { "soap" } else { "rest" },
            8000 + rng.below(1000)
        ));
        out.push_str(&format!(",\"tags\":[\"{}\",\"{}\"]}}", word(&mut rng), word(&mut rng)));
    }
    out.push_str("],\"total\":");
    out.push_str(&items.to_string());
    out.push('}');
    out
}

/// Standard table-printing helper for the figure binaries.
pub fn print_rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix(1);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix(1);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn synthetic_json_parses_and_round_trips() {
        let text = synthetic_json(50);
        let v = soc_json::Value::parse(&text).unwrap();
        assert_eq!(v.pointer("/total").and_then(soc_json::Value::as_i64), Some(50));
        assert_eq!(
            v.pointer("/services").and_then(soc_json::Value::as_array).map(<[_]>::len),
            Some(50)
        );
        assert_eq!(soc_json::Value::parse(&v.to_compact()).unwrap(), v);
        assert_eq!(synthetic_json(50), text, "generator must be deterministic");
    }

    #[test]
    fn synthetic_xml_parses() {
        let xml = synthetic_xml(3, 3);
        let doc = soc_xml::Document::parse_str(&xml).unwrap();
        assert!(doc.len() > 20);
    }
}
