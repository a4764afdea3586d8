//! JSON data-plane throughput (the REST side's wire format): owned
//! parse vs borrowed parse (`parse_ref`, escape-free strings stay
//! slices of the input), allocating serialization vs the
//! buffer-reusing `write_into` path, as MiB/s of input text.

use std::hint::black_box;

use soc_bench::Record;
use soc_json::{parse_ref, Value};

fn main() {
    let mut rec = Record::new("json");
    for (label, items) in [("small", 20usize), ("medium", 400), ("large", 8000)] {
        let text = soc_bench::synthetic_json(items);
        let bytes = text.len();
        let row = |kind: &str| format!("{kind}/{label}");
        let large = label == "large";

        // Owned parse: the `Value` tree every consumer works with.
        let owned =
            rec.throughput(&row("parse_owned"), bytes, || Value::parse(black_box(&text)).unwrap());
        let owned = owned.value;
        // Borrowed parse: escape-free strings are `Cow::Borrowed`
        // slices of the input — the parse-from-socket fast path.
        let borrowed =
            rec.throughput(&row("parse_borrowed"), bytes, || parse_ref(black_box(&text)).unwrap());
        if large {
            borrowed.min(150.0);
        }
        let borrowed = borrowed.value;

        let value = Value::parse(&text).unwrap();
        rec.throughput(&row("serialize"), bytes, || black_box(&value).to_compact());
        // Serialization into one reused buffer: amortizes the
        // allocation away entirely after the first iteration.
        let mut buf = String::new();
        let reuse = rec.throughput(&row("serialize_reuse"), bytes, || {
            buf.clear();
            black_box(&value).write_into(&mut buf);
            buf.len()
        });
        if large {
            reuse.min(250.0);
            // The borrowed parser must beat the owned one where it
            // matters, on the large corpus.
            rec.value("parse_borrowed_over_owned/large", borrowed / owned, "ratio").min(1.0);
        }
    }
    rec.finish();
}
