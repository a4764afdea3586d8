//! Web application state-management costs (CSE445 unit 5): session
//! store operations, view-state round-trips, template rendering, cache
//! hit vs miss vs read-through, and a whole Figure 4 login round trip.

use std::hint::black_box;
use std::sync::Arc;

use soc_bench::Record;
use soc_http::url::encode_form;
use soc_http::{MemNetwork, Request};
use soc_services::cache::CacheService;
use soc_webapp::account_app::AccountApp;
use soc_webapp::session::SessionStore;
use soc_webapp::templates::{render, vars};
use soc_webapp::viewstate;

fn main() {
    let mut rec = Record::new("webapp");

    // Session store ops.
    let store = SessionStore::new(10_000, 0xBEEF);
    let sid = store.create(0);
    rec.time("session/set_get", || {
        store.set(&sid, "k", "value", 1);
        store.get(&sid, "k", 1)
    });

    // View state encode+decode (server-stateless alternative).
    let fields: Vec<(String, String)> =
        (0..8).map(|i| (format!("field{i}"), format!("value-{i}"))).collect();
    rec.time("viewstate/roundtrip", || {
        let token = viewstate::encode(42, black_box(&fields));
        viewstate::decode(42, &token).unwrap()
    });

    // Template rendering.
    let template = "<html>{{#if user}}Hi {{user}}, {{n}} new messages{{else}}log in{{/if}}</html>";
    let v = vars(&[("user", "ann"), ("n", "42")]);
    rec.time("template/render", || render(black_box(template), &v));

    // Cache hit vs miss vs read-through.
    let cache = CacheService::new(1024, 1_000_000);
    cache.put("hot", "cached-value", 0);
    rec.time("cache/hit", || cache.get("hot", 1));
    rec.time("cache/miss", || cache.get("cold", 1));
    rec.time("cache/read_through_hit", || {
        cache.get_or_compute("hot", 1, || "recomputed".to_string())
    });

    // Whole Figure 4 login round trip over the virtual network: the
    // headline row, since it crosses every layer the app has.
    let net = MemNetwork::new();
    soc_services::bindings::host_all(&net, 4);
    let app = AccountApp::new(Arc::new(net.clone()), "mem://services.asu/credit/score");
    let app_store = app.store();
    net.host("bank", app);
    let user = app_store.create("Bench User", "111-11-1111", "addr", "dob", 800);
    app_store.set_password(&user, "Str0ngPass");
    let body = encode_form(&[
        ("user".to_string(), user.clone()),
        ("password".to_string(), "Str0ngPass".to_string()),
    ]);
    rec.time("figure4/login_roundtrip", || {
        soc_http::mem::Transport::send(
            &net,
            Request::post("mem://bank/login", Vec::new())
                .with_text("application/x-www-form-urlencoded", &body),
        )
        .unwrap()
    })
    .max(250_000.0);

    rec.finish();
}
