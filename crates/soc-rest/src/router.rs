//! Method + path-template routing.

use std::collections::BTreeSet;

use soc_http::{Handler, Method, Request, Response, Status};

/// Decoded path parameters captured from `{name}` template segments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathParams {
    params: Vec<(String, String)>,
}

impl PathParams {
    /// Value of a named parameter.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Parse a parameter into any `FromStr` type.
    pub fn parse<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get(name)?.parse().ok()
    }

    /// Number of captured parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// No parameters captured?
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Segment {
    Literal(String),
    Param(String),
    /// `{rest...}`: captures the remainder of the path (may contain `/`).
    Tail(String),
}

fn parse_pattern(pattern: &str) -> Vec<Segment> {
    pattern
        .trim_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .map(|seg| {
            if let Some(inner) = seg.strip_prefix('{').and_then(|s| s.strip_suffix("...}")) {
                Segment::Tail(inner.to_string())
            } else if let Some(inner) = seg.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
                Segment::Param(inner.to_string())
            } else {
                Segment::Literal(seg.to_string())
            }
        })
        .collect()
}

fn match_pattern(segments: &[Segment], path: &str) -> Option<PathParams> {
    let parts: Vec<&str> = path.trim_matches('/').split('/').filter(|s| !s.is_empty()).collect();
    let mut params = PathParams::default();
    let mut i = 0;
    for seg in segments {
        match seg {
            Segment::Literal(lit) => {
                if parts.get(i) != Some(&lit.as_str()) {
                    return None;
                }
                i += 1;
            }
            Segment::Param(name) => {
                let part = parts.get(i)?;
                params.params.push((name.clone(), soc_http::url::percent_decode(part)));
                i += 1;
            }
            Segment::Tail(name) => {
                let rest = parts[i..].join("/");
                params.params.push((name.clone(), rest));
                i = parts.len();
            }
        }
    }
    if i == parts.len() {
        Some(params)
    } else {
        None
    }
}

type RouteHandler = Box<dyn Fn(Request, PathParams) -> Response + Send + Sync>;

struct Route {
    method: Method,
    segments: Vec<Segment>,
    pattern: String,
    handler: RouteHandler,
}

/// A REST router. Routes are matched in registration order; the first
/// method+pattern match wins. A path that matches some route with a
/// different method yields `405` with an `Allow` header; otherwise `404`.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
    middleware: Vec<crate::middleware::Middleware>,
}

impl Router {
    /// Empty router.
    pub fn new() -> Self {
        Router::default()
    }

    /// Register a route for an explicit method.
    pub fn route(
        &mut self,
        method: Method,
        pattern: &str,
        handler: impl Fn(Request, PathParams) -> Response + Send + Sync + 'static,
    ) -> &mut Self {
        self.routes.push(Route {
            method,
            segments: parse_pattern(pattern),
            pattern: pattern.to_string(),
            handler: Box::new(handler),
        });
        self
    }

    /// GET route.
    pub fn get(
        &mut self,
        pattern: &str,
        handler: impl Fn(Request, PathParams) -> Response + Send + Sync + 'static,
    ) -> &mut Self {
        self.route(Method::Get, pattern, handler)
    }

    /// POST route.
    pub fn post(
        &mut self,
        pattern: &str,
        handler: impl Fn(Request, PathParams) -> Response + Send + Sync + 'static,
    ) -> &mut Self {
        self.route(Method::Post, pattern, handler)
    }

    /// PUT route.
    pub fn put(
        &mut self,
        pattern: &str,
        handler: impl Fn(Request, PathParams) -> Response + Send + Sync + 'static,
    ) -> &mut Self {
        self.route(Method::Put, pattern, handler)
    }

    /// DELETE route.
    pub fn delete(
        &mut self,
        pattern: &str,
        handler: impl Fn(Request, PathParams) -> Response + Send + Sync + 'static,
    ) -> &mut Self {
        self.route(Method::Delete, pattern, handler)
    }

    /// Append a middleware; middlewares run outermost-first in the order
    /// they were added.
    pub fn wrap(&mut self, mw: crate::middleware::Middleware) -> &mut Self {
        self.middleware.push(mw);
        self
    }

    /// Registered route patterns (for directory self-description).
    pub fn patterns(&self) -> Vec<(Method, String)> {
        self.routes.iter().map(|r| (r.method, r.pattern.clone())).collect()
    }

    fn dispatch(&self, req: Request) -> Response {
        let path = req.path().to_string();
        let mut allowed: BTreeSet<&'static str> = BTreeSet::new();
        for route in &self.routes {
            if let Some(params) = match_pattern(&route.segments, &path) {
                if route.method == req.method {
                    return (route.handler)(req, params);
                }
                allowed.insert(route.method.as_str());
            }
        }
        if !allowed.is_empty() {
            let allow = allowed.into_iter().collect::<Vec<_>>().join(", ");
            return Response::error(Status::METHOD_NOT_ALLOWED, "method not allowed")
                .with_header("Allow", &allow);
        }
        Response::error(Status::NOT_FOUND, &format!("no route for {path}"))
    }
}

impl Handler for Router {
    fn handle(&self, req: Request) -> Response {
        let mut span = soc_observe::span("rest.dispatch", soc_observe::SpanKind::Internal);
        span.set_attr("http.method", req.method.as_str());
        span.set_text("http.path", req.path());
        let resp = {
            let _active = span.activate();
            // Build the middleware chain inside-out around dispatch.
            let mut next: Box<dyn Fn(Request) -> Response + '_> =
                Box::new(move |req| self.dispatch(req));
            for mw in self.middleware.iter().rev() {
                let inner = next;
                let mw = mw.clone();
                next = Box::new(move |req| mw.call(req, &*inner));
            }
            next(req)
        };
        span.set_attr("http.status", resp.status.0);
        if resp.status.0 >= 500 {
            span.set_error(format!("handler answered {}", resp.status));
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> Router {
        let mut r = Router::new();
        r.get("/services", |_req, _p| Response::text("list"));
        r.get("/services/{id}", |_req, p| Response::text(format!("get {}", p.get("id").unwrap())));
        r.post("/services", |req, _p| {
            Response::new(Status::CREATED).with_text("text/plain", req.text().unwrap_or(""))
        });
        r.delete("/services/{id}", |_req, p| {
            Response::text(format!("del {}", p.get("id").unwrap()))
        });
        r.get("/files/{path...}", |_req, p| {
            Response::text(format!("file {}", p.get("path").unwrap()))
        });
        r
    }

    fn send(r: &Router, req: Request) -> Response {
        r.handle(req)
    }

    #[test]
    fn literal_and_param_routes() {
        let r = router();
        assert_eq!(send(&r, Request::get("/services")).text_body().unwrap(), "list");
        assert_eq!(send(&r, Request::get("/services/s1")).text_body().unwrap(), "get s1");
        assert_eq!(send(&r, Request::delete("/services/s2")).text_body().unwrap(), "del s2");
    }

    #[test]
    fn params_are_percent_decoded() {
        let r = router();
        assert_eq!(send(&r, Request::get("/services/a%20b")).text_body().unwrap(), "get a b");
    }

    #[test]
    fn tail_captures_subpaths() {
        let r = router();
        assert_eq!(
            send(&r, Request::get("/files/a/b/c.txt")).text_body().unwrap(),
            "file a/b/c.txt"
        );
    }

    #[test]
    fn not_found_vs_method_not_allowed() {
        let r = router();
        assert_eq!(send(&r, Request::get("/nope")).status, Status::NOT_FOUND);
        let resp = send(&r, Request::put("/services/s1", Vec::new()));
        assert_eq!(resp.status, Status::METHOD_NOT_ALLOWED);
        assert_eq!(resp.headers.get("Allow"), Some("DELETE, GET"));
    }

    #[test]
    fn query_strings_do_not_affect_matching() {
        let r = router();
        assert_eq!(send(&r, Request::get("/services?verbose=1")).text_body().unwrap(), "list");
    }

    #[test]
    fn trailing_slashes_normalized() {
        let r = router();
        assert_eq!(send(&r, Request::get("/services/")).text_body().unwrap(), "list");
    }

    #[test]
    fn params_typed_parse() {
        let mut r = Router::new();
        r.get("/n/{num}", |_req, p| match p.parse::<u32>("num") {
            Some(n) => Response::text(format!("{}", n * 2)),
            None => Response::error(Status::BAD_REQUEST, "not a number"),
        });
        assert_eq!(send(&r, Request::get("/n/21")).text_body().unwrap(), "42");
        assert_eq!(send(&r, Request::get("/n/x")).status, Status::BAD_REQUEST);
    }

    #[test]
    fn registration_order_wins() {
        let mut r = Router::new();
        r.get("/a/{x}", |_rq, _p| Response::text("param"));
        r.get("/a/literal", |_rq, _p| Response::text("literal"));
        // First registered matches first.
        assert_eq!(send(&r, Request::get("/a/literal")).text_body().unwrap(), "param");
    }

    #[test]
    fn post_body_reaches_handler() {
        let r = router();
        let resp = send(&r, Request::post("/services", b"payload".to_vec()));
        assert_eq!(resp.status, Status::CREATED);
        assert_eq!(resp.text_body().unwrap(), "payload");
    }

    #[test]
    fn patterns_reflect_registrations() {
        let r = router();
        assert_eq!(r.patterns().len(), 5);
    }
}
