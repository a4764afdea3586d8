//! # soc-bench — the benchmark and reproduction harness
//!
//! One binary per paper table/figure (see `src/bin/`) and one bench per
//! performance question (see `benches/`). DESIGN.md carries the full
//! experiment index; EXPERIMENTS.md records paper-vs-measured.
//!
//! This library holds the workload generators the binaries and benches
//! share, and [`Record`], the one harness every bench measures,
//! reports and checks its budgets through.

use std::collections::BTreeMap;
use std::fmt;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use soc_json::Value;

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

/// Nearest-rank `q`-quantile (`q` in [0, 1]) of an ascending slice:
/// the smallest sample with at least a `q` share of the samples at or
/// below it.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Version of the `BENCH_<name>.json` layout [`Record`] writes.
const SCHEMA_VERSION: i64 = 2;
/// Wall time a timed body runs before its samples are sized.
const WARM_UP: Duration = Duration::from_millis(100);
/// Timed samples per row; the row reports their median, which a burst
/// of interference from a neighbour on a shared host cannot move.
const SAMPLES: usize = 10;
/// Wall time one sample aims to fill.
const SAMPLE: Duration = Duration::from_millis(50);

/// A row's acceptance bound. Every bench uses the same rule: the value
/// must lie strictly inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Budget {
    /// Floor: the value must be above it.
    Min(f64),
    /// Ceiling: the value must be below it.
    Max(f64),
}

impl Budget {
    fn holds(self, value: f64) -> bool {
        match self {
            Budget::Min(floor) => value > floor,
            Budget::Max(ceiling) => value < ceiling,
        }
    }

    /// The record's key for this budget, and its bound.
    fn parts(self) -> (&'static str, f64) {
        match self {
            Budget::Min(floor) => ("min", floor),
            Budget::Max(ceiling) => ("max", ceiling),
        }
    }
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (kind, bound) = self.parts();
        write!(f, "{kind} {bound}")
    }
}

/// One named result of a bench: a value, its unit, and the budget it
/// must meet, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The measured or computed value.
    pub value: f64,
    /// Its unit, e.g. `ns/op`, `MiB/s`, `rps`, `us`, `ratio`.
    unit: String,
    /// The bound the value must meet.
    budget: Option<Budget>,
}

impl Row {
    /// Require the value to stay above `floor`.
    pub fn min(&mut self, floor: f64) -> &mut Row {
        self.budget = Some(Budget::Min(floor));
        self
    }

    /// Require the value to stay below `ceiling`.
    pub fn max(&mut self, ceiling: f64) -> &mut Row {
        self.budget = Some(Budget::Max(ceiling));
        self
    }

    /// Unit and budget: what a committed row must agree on with the
    /// bench that produces it.
    fn contract(&self) -> String {
        match self.budget {
            Some(budget) => format!("{} with budget {budget}", self.unit),
            None => format!("{} with no budget", self.unit),
        }
    }

    fn violation(&self, name: &str) -> Option<String> {
        if !self.value.is_finite() {
            return Some(format!("{name} = {} is not a finite value", self.value));
        }
        let budget = self.budget?;
        (!budget.holds(self.value))
            .then(|| format!("{name} = {} {} breaks its budget ({budget})", self.value, self.unit))
    }
}

/// The rows one bench produces, and the committed `BENCH_<name>.json`
/// they are checked against.
///
/// A bench creates one `Record`, adds rows with [`Record::time`],
/// [`Record::throughput`] or [`Record::value`], declares budgets on
/// them with [`Row::min`]/[`Row::max`], and ends with
/// [`Record::finish`]. A full `cargo bench --bench <name>` asserts every
/// budget on the live values and rewrites the record. Under
/// `cargo bench -- --test` every timed body runs once, no live value is
/// asserted, and the committed record is checked instead: it must hold
/// exactly the rows this run produced, with the units and budgets the
/// source declares, and every committed value must meet its budget.
#[derive(Debug)]
pub struct Record {
    bench: String,
    smoke: bool,
    rows: BTreeMap<String, Row>,
}

impl Record {
    /// The record of bench `bench`, in smoke mode when the process was
    /// started with `--test`.
    pub fn new(bench: &str) -> Record {
        Record::with_mode(bench, std::env::args().any(|arg| arg == "--test"))
    }

    fn with_mode(bench: &str, smoke: bool) -> Record {
        Record { bench: bench.to_string(), smoke, rows: BTreeMap::new() }
    }

    /// Nanoseconds per call of `f`: calls for 100 ms, then the median
    /// of 10 timed loops, each sized to fill 50 ms. In smoke mode, one
    /// call.
    pub fn measure<R>(&self, mut f: impl FnMut() -> R) -> f64 {
        let start = Instant::now();
        black_box(f());
        if self.smoke {
            return start.elapsed().as_secs_f64() * 1e9;
        }
        let mut calls = 1u32;
        while start.elapsed() < WARM_UP {
            black_box(f());
            calls += 1;
        }
        let per_call = start.elapsed().as_secs_f64() / f64::from(calls);
        let n = (SAMPLE.as_secs_f64() / per_call).ceil().clamp(1.0, 1e9) as u64;
        let mut samples: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..n {
                    black_box(f());
                }
                start.elapsed().as_secs_f64() * 1e9 / n as f64
            })
            .collect();
        samples.sort_unstable_by(f64::total_cmp);
        percentile(&samples, 0.5)
    }

    /// A row of [`Record::measure`]'s ns per call of `f`.
    pub fn time<R>(&mut self, name: &str, f: impl FnMut() -> R) -> &mut Row {
        let ns = self.measure(f);
        self.value(name, ns, "ns/op")
    }

    /// A row of MiB/s for `f` processing `bytes` per call.
    pub fn throughput<R>(&mut self, name: &str, bytes: usize, f: impl FnMut() -> R) -> &mut Row {
        let ns = self.measure(f);
        self.value(name, bytes as f64 / ns * 1e9 / (1024.0 * 1024.0), "MiB/s")
    }

    /// A row holding a value the bench computed itself (rounded to three
    /// decimals, well below any bench's resolution).
    ///
    /// # Panics
    /// If the bench already produced a row called `name`.
    pub fn value(&mut self, name: &str, value: f64, unit: &str) -> &mut Row {
        println!("{name:<40} {value:>16.3} {unit}");
        assert!(!self.rows.contains_key(name), "row {name} produced twice");
        let row = Row { value: (value * 1e3).round() / 1e3, unit: unit.to_string(), budget: None };
        self.rows.entry(name.to_string()).or_insert(row)
    }

    /// Check and write (full run) or check the committed record (smoke
    /// run), as the type docs describe.
    ///
    /// # Panics
    /// On any budget broken, or any drift between the rows and the
    /// committed record, naming every row at fault.
    pub fn finish(self) {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
        let path = root.expect("soc-bench sits two levels below the repository root");
        let path = path.join(format!("BENCH_{}.json", self.bench));
        match self.finish_at(&path) {
            Ok(summary) => println!("{summary}"),
            Err(failure) => panic!("{failure}"),
        }
    }

    fn finish_at(&self, path: &Path) -> Result<String, String> {
        let file = path.display();
        let errors: Vec<String> = if self.smoke {
            let text = std::fs::read_to_string(path).map_err(|e| {
                format!(
                    "{file}: {e}; record it with `cargo bench -p soc-bench --bench {}`",
                    self.bench
                )
            })?;
            self.drift_from(&Record::parse(&text).map_err(|e| format!("{file}: {e}"))?)
        } else {
            self.rows.iter().filter_map(|(name, row)| row.violation(name)).collect()
        };
        if !errors.is_empty() {
            return Err(format!("{file}: {}", errors.join("; ")));
        }
        if !self.smoke {
            std::fs::write(path, self.render()).map_err(|e| format!("{file}: {e}"))?;
        }
        let budgets = self.rows.values().filter(|row| row.budget.is_some()).count();
        let verb = if self.smoke { "match" } else { "held; wrote" };
        Ok(format!("PASS: {} rows and {budgets} budgets {verb} {file}", self.rows.len()))
    }

    /// Everything in which `committed` differs from what this run
    /// produced and declares.
    fn drift_from(&self, committed: &Record) -> Vec<String> {
        let mut errors = Vec::new();
        if committed.bench != self.bench {
            errors.push(format!("records bench {}, not {}", committed.bench, self.bench));
        }
        for (name, row) in &self.rows {
            match committed.rows.get(name) {
                None => errors.push(format!("row {name} is missing")),
                Some(old) if old.unit != row.unit || old.budget != row.budget => {
                    errors.push(format!(
                        "row {name} is recorded as {}, but the bench declares {}",
                        old.contract(),
                        row.contract()
                    ))
                }
                Some(old) => errors.extend(old.violation(name)),
            }
        }
        for name in committed.rows.keys().filter(|name| !self.rows.contains_key(*name)) {
            errors.push(format!("row {name} is recorded but the bench no longer produces it"));
        }
        errors
    }

    /// The record as `BENCH_<name>.json` text, one row per line.
    fn render(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(name, row)| {
                let mut fields = vec![
                    ("value".to_string(), Value::from(row.value)),
                    ("unit".to_string(), Value::from(row.unit.as_str())),
                ];
                if let Some(budget) = row.budget {
                    let (kind, bound) = budget.parts();
                    let bound = Value::Object(vec![(kind.to_string(), Value::from(bound))]);
                    fields.push(("budget".to_string(), bound));
                }
                format!(
                    "    {}: {}",
                    Value::from(name.as_str()).to_compact(),
                    Value::Object(fields).to_compact()
                )
            })
            .collect();
        format!(
            "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"bench\": {},\n  \"rows\": {{\n{}\n  }}\n}}\n",
            Value::from(self.bench.as_str()).to_compact(),
            rows.join(",\n")
        )
    }

    /// Read a record back from `BENCH_<name>.json` text.
    fn parse(text: &str) -> Result<Record, String> {
        let doc = Value::parse(text).map_err(|e| e.to_string())?;
        let version = doc.get("schema_version").and_then(Value::as_i64);
        if version != Some(SCHEMA_VERSION) {
            return Err(format!("schema_version is {version:?}, expected {SCHEMA_VERSION}"));
        }
        let bench = doc.get("bench").and_then(Value::as_str).ok_or("no bench name")?;
        let mut record = Record::with_mode(bench, false);
        for (name, row) in doc.get("rows").and_then(Value::as_object).ok_or("no rows object")? {
            let field = |key| row.get(key).ok_or_else(|| format!("row {name} has no {key}"));
            let value = field("value")?
                .as_f64()
                .ok_or_else(|| format!("row {name}: value is not a number"))?;
            let unit = field("unit")?
                .as_str()
                .ok_or_else(|| format!("row {name}: unit is not a string"))?;
            let budget = match row.get("budget") {
                None => None,
                Some(b) => match (
                    b.get("min").and_then(Value::as_f64),
                    b.get("max").and_then(Value::as_f64),
                ) {
                    (Some(floor), None) => Some(Budget::Min(floor)),
                    (None, Some(ceiling)) => Some(Budget::Max(ceiling)),
                    _ => {
                        return Err(format!(
                            "row {name}: budget must be {{\"min\": x}} or {{\"max\": x}}"
                        ))
                    }
                },
            };
            record.rows.insert(name.clone(), Row { value, unit: unit.to_string(), budget });
        }
        Ok(record)
    }
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
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[7], 0.0), 7);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2], 0.5), 1);
        assert_eq!(percentile(&[1, 2], 0.51), 2);
        assert_eq!(percentile(&[1, 2], 0.99), 2);
        let five = [15, 20, 35, 40, 50];
        let got: Vec<i32> = [0.05, 0.3, 0.4, 0.5, 1.0].map(|q| percentile(&five, q)).to_vec();
        assert_eq!(got, [15, 20, 20, 35, 50]);
        let hundred: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.99), 99);
    }

    /// One run of a bench `t`: a plain row, a ceiling and a floor.
    fn run(smoke: bool, cost_ns: f64) -> Record {
        let mut rec = Record::with_mode("t", smoke);
        rec.value("plain", 3.0, "rps");
        rec.value("cost", cost_ns, "ns/op").max(100.0);
        rec.value("speedup", 4.0, "ratio").min(2.0);
        rec
    }

    fn record_path(dir: &soc_store::TempDir) -> std::path::PathBuf {
        dir.path().join("BENCH_t.json")
    }

    #[test]
    fn full_run_fails_on_a_broken_budget_and_names_the_row() {
        let dir = soc_store::TempDir::new("record-budget");
        let err = run(false, 150.0).finish_at(&record_path(&dir)).unwrap_err();
        assert!(err.contains("cost = 150 ns/op breaks its budget (max 100)"), "{err}");
        assert!(!record_path(&dir).exists(), "a failed run must not write the record");
        for floor_value in [1.5, 2.0] {
            let mut rec = Record::with_mode("t", false);
            rec.value("speedup", floor_value, "ratio").min(2.0);
            let err = rec.finish_at(&record_path(&dir)).unwrap_err();
            assert!(err.contains("speedup"), "{err}");
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let dir = soc_store::TempDir::new("record-roundtrip");
        let rec = run(false, 42.125);
        rec.finish_at(&record_path(&dir)).unwrap();
        let back = Record::parse(&std::fs::read_to_string(record_path(&dir)).unwrap()).unwrap();
        assert_eq!((back.bench.as_str(), &back.rows), ("t", &rec.rows));
    }

    #[test]
    fn smoke_run_checks_the_committed_record() {
        let dir = soc_store::TempDir::new("record-smoke");
        let path = record_path(&dir);
        run(false, 42.0).finish_at(&path).unwrap();
        let committed = std::fs::read_to_string(&path).unwrap();
        // Live values are not asserted in smoke mode.
        run(true, 1e9).finish_at(&path).unwrap();

        let mut extra = run(true, 42.0);
        extra.value("added", 1.0, "rps");
        let mut dropped = run(true, 42.0);
        dropped.rows.remove("plain");
        for (rec, fault) in [
            (extra, "row added is missing"),
            (dropped, "row plain is recorded but the bench no longer produces it"),
        ] {
            let err = rec.finish_at(&path).unwrap_err();
            assert!(err.contains(fault), "{err}");
        }

        for (from, to) in [(r#"{"max":100.0}"#, r#"{"max":200.0}"#), (r#"42.0"#, r#"142.0"#)] {
            std::fs::write(&path, committed.replace(from, to)).unwrap();
            let err = run(true, 42.0).finish_at(&path).unwrap_err();
            assert!(err.contains("cost"), "{to}: {err}");
        }
    }

    #[test]
    fn synthetic_xml_parses() {
        let xml = synthetic_xml(3, 3);
        let doc = soc_xml::Document::parse_str(&xml).unwrap();
        assert!(doc.len() > 20);
    }
}
