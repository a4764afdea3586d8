//! The SOAP service host: envelope dispatch plus `?wsdl` self-description.

use std::collections::HashMap;
use std::sync::Arc;

use soc_http::{Handler, Method, Request, Response, Status};

use crate::contract::Contract;
use crate::envelope::{self, Decoded, SoapFault};
use crate::wsdl;

/// Operation implementations receive the request parameters and return
/// output parameters or a fault.
pub type OperationFn =
    dyn Fn(&HashMap<String, String>) -> Result<Vec<(String, String)>, SoapFault> + Send + Sync;

/// A hosted SOAP service: implements [`Handler`], so it can be bound to
/// a TCP server or a `mem://` host directly.
pub struct SoapService {
    contract: Contract,
    endpoint: String,
    implementations: HashMap<String, Arc<OperationFn>>,
}

impl SoapService {
    /// Create a service for `contract`, advertising `endpoint` in its
    /// WSDL.
    pub fn new(contract: Contract, endpoint: &str) -> Self {
        SoapService { contract, endpoint: endpoint.to_string(), implementations: HashMap::new() }
    }

    /// Provide the implementation of an operation. Panics if the
    /// contract does not declare it (an implementation bug worth failing
    /// fast on).
    pub fn implement(
        &mut self,
        operation: &str,
        f: impl Fn(&HashMap<String, String>) -> Result<Vec<(String, String)>, SoapFault>
            + Send
            + Sync
            + 'static,
    ) -> &mut Self {
        assert!(
            self.contract.find(operation).is_some(),
            "contract {} has no operation {operation:?}",
            self.contract.name
        );
        self.implementations.insert(operation.to_string(), Arc::new(f));
        self
    }

    /// The service's contract.
    pub fn contract(&self) -> &Contract {
        &self.contract
    }

    /// The WSDL document served at `?wsdl`.
    pub fn wsdl(&self) -> String {
        wsdl::generate(&self.contract, &self.endpoint)
    }

    fn dispatch(&self, req: &Request) -> Result<String, SoapFault> {
        let body = req.text().map_err(|_| SoapFault::client("request body is not UTF-8"))?;
        let decoded = envelope::decode(body)
            .map_err(|e| SoapFault::client(format!("malformed envelope: {e}")))?;
        let payload = match decoded {
            Decoded::Body(b) => b,
            Decoded::Fault(f) => {
                return Err(SoapFault::client(format!("request contained a fault: {f}")))
            }
        };
        if let Some(ns) = &payload.namespace {
            if ns != &self.contract.namespace {
                return Err(SoapFault::client(format!(
                    "operation namespace {ns:?} does not match contract {:?}",
                    self.contract.namespace
                )));
            }
        }
        self.contract
            .validate_inputs(&payload.element, &payload.params)
            .map_err(SoapFault::client)?;

        let implementation = self.implementations.get(&payload.element).ok_or_else(|| {
            SoapFault::server(format!("operation {} not implemented", payload.element))
        })?;

        let args: HashMap<String, String> = payload.params.into_iter().collect();
        let outputs = implementation(&args)?;

        // Validate outputs against the contract too — a service must not
        // break its own interface.
        let op = self.contract.find(&payload.element).expect("validated above");
        for p in &op.outputs {
            let Some((_, v)) = outputs.iter().find(|(n, _)| *n == p.name) else {
                return Err(SoapFault::server(format!(
                    "implementation omitted output {:?}",
                    p.name
                )));
            };
            if !p.ty.accepts(v) {
                return Err(SoapFault::server(format!(
                    "implementation returned {:?}={v:?}, not a valid {}",
                    p.name, p.ty
                )));
            }
        }
        Ok(envelope::encode(
            &self.contract.namespace,
            &format!("{}Response", payload.element),
            &outputs,
        ))
    }
}

impl Handler for SoapService {
    fn handle(&self, req: Request) -> Response {
        // `GET …?wsdl` serves the contract.
        if req.method == Method::Get {
            if req.target.ends_with("?wsdl") || req.query_pairs().iter().any(|(k, _)| k == "wsdl") {
                return Response::xml_owned(self.wsdl());
            }
            return Response::error(
                Status::METHOD_NOT_ALLOWED,
                "POST SOAP envelopes here (GET ?wsdl for the contract)",
            );
        }
        if req.method != Method::Post {
            return Response::error(Status::METHOD_NOT_ALLOWED, "POST required");
        }
        let mut span = soc_observe::span("soap.dispatch", soc_observe::SpanKind::Internal);
        span.set_text("soap.service", &self.contract.name);
        let result = {
            let _active = span.activate();
            self.dispatch(&req)
        };
        match result {
            Ok(xml) => Response::xml_owned(xml),
            Err(fault) => {
                span.set_error(format!("{}: {}", fault.code, fault.message));
                // SOAP 1.1: faults ride on HTTP 500.
                let mut resp = Response::xml_owned(envelope::encode_fault(&fault));
                resp.status = Status::INTERNAL_SERVER_ERROR;
                resp.headers.set("X-Soap-Fault", &fault.code);
                resp
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{Operation, XsdType};

    fn service() -> SoapService {
        let contract = Contract::new("Calc", "urn:soc:calc").operation(
            Operation::new("Add")
                .input("a", XsdType::Int)
                .input("b", XsdType::Int)
                .output("sum", XsdType::Int),
        );
        let mut svc = SoapService::new(contract, "mem://calc/soap");
        svc.implement("Add", |params| {
            let a: i64 = params["a"].parse().unwrap();
            let b: i64 = params["b"].parse().unwrap();
            Ok(vec![("sum".to_string(), (a + b).to_string())])
        });
        svc
    }

    fn call(svc: &SoapService, xml: &str) -> Response {
        svc.handle(Request::post("/soap", Vec::new()).with_text("text/xml", xml))
    }

    #[test]
    fn dispatches_valid_call() {
        let svc = service();
        let req = envelope::encode(
            "urn:soc:calc",
            "Add",
            &[("a".into(), "2".into()), ("b".into(), "40".into())],
        );
        let resp = call(&svc, &req);
        assert_eq!(resp.status, Status::OK);
        match envelope::decode(resp.text_body().unwrap()).unwrap() {
            Decoded::Body(b) => {
                assert_eq!(b.element, "AddResponse");
                assert_eq!(b.params, vec![("sum".to_string(), "42".to_string())]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn type_errors_become_client_faults() {
        let svc = service();
        let req = envelope::encode(
            "urn:soc:calc",
            "Add",
            &[("a".into(), "two".into()), ("b".into(), "40".into())],
        );
        let resp = call(&svc, &req);
        assert_eq!(resp.status, Status::INTERNAL_SERVER_ERROR);
        match envelope::decode(resp.text_body().unwrap()).unwrap() {
            Decoded::Fault(f) => assert_eq!(f.code, "soap:Client"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_operation_faults() {
        let svc = service();
        let req = envelope::encode("urn:soc:calc", "Sub", &[]);
        let resp = call(&svc, &req);
        match envelope::decode(resp.text_body().unwrap()).unwrap() {
            Decoded::Fault(f) => assert!(f.message.contains("unknown operation")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_namespace_faults() {
        let svc = service();
        let req = envelope::encode(
            "urn:someone:else",
            "Add",
            &[("a".into(), "1".into()), ("b".into(), "2".into())],
        );
        let resp = call(&svc, &req);
        match envelope::decode(resp.text_body().unwrap()).unwrap() {
            Decoded::Fault(f) => assert!(f.message.contains("namespace")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn implementation_fault_propagates() {
        let contract = Contract::new("F", "urn:f")
            .operation(Operation::new("Boom").output("x", XsdType::String));
        let mut svc = SoapService::new(contract, "mem://f");
        svc.implement("Boom", |_| Err(SoapFault::server("kaboom").with_detail("d")));
        let resp = call(&svc, &envelope::encode("urn:f", "Boom", &[]));
        match envelope::decode(resp.text_body().unwrap()).unwrap() {
            Decoded::Fault(f) => {
                assert_eq!(f.code, "soap:Server");
                assert_eq!(f.detail.as_deref(), Some("d"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_output_is_server_fault() {
        let contract =
            Contract::new("B", "urn:b").operation(Operation::new("N").output("n", XsdType::Int));
        let mut svc = SoapService::new(contract, "mem://b");
        svc.implement("N", |_| Ok(vec![("n".to_string(), "not-a-number".to_string())]));
        let resp = call(&svc, &envelope::encode("urn:b", "N", &[]));
        match envelope::decode(resp.text_body().unwrap()).unwrap() {
            Decoded::Fault(f) => assert_eq!(f.code, "soap:Server"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serves_wsdl_on_get() {
        let svc = service();
        let resp = svc.handle(Request::get("/soap?wsdl"));
        assert_eq!(resp.status, Status::OK);
        let parsed = wsdl::parse(resp.text_body().unwrap()).unwrap();
        assert_eq!(parsed.contract.name, "Calc");
        assert_eq!(parsed.endpoint, "mem://calc/soap");
    }

    #[test]
    fn get_without_wsdl_is_405() {
        let svc = service();
        assert_eq!(svc.handle(Request::get("/soap")).status, Status::METHOD_NOT_ALLOWED);
    }

    #[test]
    #[should_panic(expected = "no operation")]
    fn implementing_undeclared_operation_panics() {
        let mut svc = service();
        svc.implement("Nope", |_| Ok(vec![]));
    }

    #[test]
    fn malformed_xml_is_client_fault() {
        let svc = service();
        let resp = call(&svc, "<<<not xml");
        assert_eq!(resp.headers.get("X-Soap-Fault"), Some("soap:Client"));
    }
}
