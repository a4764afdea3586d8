//! Binding and transport overhead: the same logical call as REST-JSON
//! vs SOAP-XML, over the in-memory network vs real TCP sockets, plus
//! raw codec costs.

use std::hint::black_box;
use std::sync::Arc;

use soc_bench::Record;
use soc_http::mem::Transport;
use soc_http::{HttpClient, HttpServer, MemNetwork, Request};
use soc_json::json;
use soc_rest::RestClient;
use soc_soap::client::SoapClient;

fn main() {
    let mut rec = Record::new("transport");

    // Shared provider on the virtual network.
    let net = MemNetwork::new();
    soc_services::bindings::host_all(&net, 3);
    let mem_transport: Arc<dyn Transport> = Arc::new(net);

    // REST vs SOAP for the same operation (credit score).
    let rest = RestClient::new(mem_transport.clone());
    rec.time("mem/rest_credit_score", || {
        rest.get("mem://services.asu/credit/score?ssn=123-45-6789").unwrap()
    });
    let soap = SoapClient::new(mem_transport.clone());
    let contract = soc_services::bindings::credit_score_contract();
    rec.time("mem/soap_credit_score", || {
        soap.call("mem://soap.asu/credit", &contract, "GetScore", &[("ssn", "123-45-6789")])
            .unwrap()
    });

    // Raw envelope codec costs (the overhead source).
    rec.time("codec/soap_envelope_roundtrip", || {
        let xml = soc_soap::envelope::encode(
            "urn:x",
            "Op",
            &[("a".to_string(), "1".to_string()), ("b".to_string(), "two".to_string())],
        );
        soc_soap::envelope::decode(black_box(&xml)).unwrap()
    });
    let v = json!({ "a": 1, "b": "two", "nested": { "xs": [1, 2, 3] } });
    rec.time("codec/json_roundtrip", || {
        soc_json::Value::parse(&black_box(&v).to_compact()).unwrap()
    });

    // In-memory vs TCP for the same REST call. The pooled client over
    // loopback is the headline: a 1 ms ceiling catches a lost
    // keep-alive or a Nagle stall on the wire path.
    let server =
        HttpServer::bind("127.0.0.1:0", 2, soc_services::bindings::ServiceHost::new(3)).unwrap();
    let url = format!("{}/credit/score?ssn=123-45-6789", server.url());
    let tcp = HttpClient::new();
    rec.time("tcp/rest_credit_score", || tcp.send(Request::get(url.clone())).unwrap())
        .max(1_000_000.0);
    rec.time("mem/raw_request", || {
        mem_transport.send(Request::get("mem://services.asu/credit/score?ssn=123-45-6789")).unwrap()
    });

    rec.finish();
}
