//! Splitting a blocking send at a point in time: [`send_until`].
//!
//! A blocking [`Transport::send`](crate::Transport::send) holds its
//! caller until the response arrives, so a caller that wants to act at
//! some instant — launch a hedge, give up at a deadline — cannot run
//! the send on its own thread and still be there at that instant.
//! `send_until(at, || transport.send(req))` lets it: the send runs
//! inline on the caller's thread, and if no response has begun by
//! `at` — whether the connect, the request write or the wait for the
//! reply is still pending — the transport stops waiting and hands back
//! the rest of the exchange as a [`Rest`] that any thread can finish.
//!
//! The yield point is scoped to the calling thread, like the active
//! trace context. A blocking transport takes it when `send` is entered,
//! so exactly one send of the call honours it: the first one a wrapper
//! reaches, never a nested send a mem handler makes on the same thread.
//! A transport that parks returns [`HttpError::Parked`]; a wrapper
//! forwarding `send` on the same thread must pass that error straight
//! back (not retry it, not map it to a response), and then needs no
//! change. A transport that never takes the yield point simply runs to
//! completion and the call reports [`Sent::Done`].

use std::cell::RefCell;
use std::fmt;
use std::time::Instant;

use crate::types::{HttpError, HttpResult, Response};

/// The remainder of an exchange parked at its yield point: finishing it
/// blocks until the response arrives, exactly as the uninterrupted send
/// would have, and does the same connection-pool and retry bookkeeping.
pub struct Rest(Box<dyn FnOnce() -> HttpResult<Response> + Send>);

impl Rest {
    /// Block until the parked exchange completes.
    pub fn finish(self) -> HttpResult<Response> {
        (self.0)()
    }
}

impl fmt::Debug for Rest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Rest(..)")
    }
}

/// What [`send_until`] produced.
#[derive(Debug)]
pub enum Sent {
    /// The send completed (or failed) before the yield point.
    Done(HttpResult<Response>),
    /// Nothing had arrived by the yield point; `Rest` finishes the
    /// exchange.
    Parked(Rest),
}

#[derive(Default)]
struct YieldPoint {
    /// The instant the first transport entered stops waiting at; taken
    /// (so `None`) once a transport claimed it.
    at: Option<Instant>,
    /// The rest of the exchange, once the claiming transport parked.
    parked: Option<Rest>,
}

thread_local! {
    static YIELD: RefCell<YieldPoint> = RefCell::new(YieldPoint::default());
}

/// Restores the enclosing call's yield point, also on unwind, so a
/// `send_until` nested on the same thread (a gateway hosted on a mem
/// network behind another gateway) leaves the outer one intact.
struct Restore(YieldPoint);

impl Drop for Restore {
    fn drop(&mut self) {
        let outer = std::mem::take(&mut self.0);
        YIELD.with(|y| *y.borrow_mut() = outer);
    }
}

/// Run `send` on this thread with a yield point at `at`: the blocking
/// transport it enters blocks in no step of the exchange past `at`,
/// and parks the exchange there instead of blocking on.
pub fn send_until(at: Instant, send: impl FnOnce() -> HttpResult<Response>) -> Sent {
    let _restore = Restore(YIELD.with(|y| y.replace(YieldPoint { at: Some(at), parked: None })));
    let result = send();
    match YIELD.with(|y| y.borrow_mut().parked.take()) {
        Some(rest) => Sent::Parked(rest),
        None => Sent::Done(result),
    }
}

/// Claim this thread's yield point: called by a blocking transport when
/// `send` is entered. `None` outside [`send_until`] or once claimed.
pub(crate) fn take() -> Option<Instant> {
    YIELD.with(|y| y.borrow_mut().at.take())
}

/// Park the rest of the exchange whose transport claimed the yield
/// point; the transport returns the error this gives back.
pub(crate) fn park(rest: impl FnOnce() -> HttpResult<Response> + Send + 'static) -> HttpError {
    YIELD.with(|y| y.borrow_mut().parked = Some(Rest(Box::new(rest))));
    HttpError::Parked
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn the_first_taker_claims_the_point_and_it_ends_with_the_call() {
        let at = Instant::now() + Duration::from_millis(5);
        let sent = send_until(at, || {
            assert_eq!(take(), Some(at));
            assert_eq!(take(), None, "a nested send must not see the point");
            Ok(Response::text("ok"))
        });
        assert!(matches!(sent, Sent::Done(Ok(_))));
        assert_eq!(take(), None, "no point outside send_until");
    }

    #[test]
    fn a_nested_call_restores_the_outer_point() {
        let outer = Instant::now() + Duration::from_secs(1);
        let sent = send_until(outer, || {
            let inner = send_until(Instant::now(), || Err(park(|| Ok(Response::text("late")))));
            assert!(matches!(inner, Sent::Parked(_)));
            assert_eq!(take(), Some(outer));
            Ok(Response::text("outer"))
        });
        assert!(matches!(sent, Sent::Done(Ok(_))));
    }

    #[test]
    fn a_parked_rest_finishes_the_exchange() {
        let sent = send_until(Instant::now(), || {
            take();
            Err(park(|| Ok(Response::text("rest"))))
        });
        let Sent::Parked(rest) = sent else { panic!("expected a parked exchange") };
        assert_eq!(rest.finish().unwrap().text_body().unwrap(), "rest");
    }
}
