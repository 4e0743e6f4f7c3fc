//! In-memory span recorder and the timing wrapper around the quantizer hook.
//!
//! Spans are recorded from the benchmark's own files around calls into each
//! layer's public functions. They stay in memory until the run ends; the
//! traced run then writes them out as a Chrome `trace_event` file.

use ln_ppm::taps::{ActivationHook, ActivationSite, Tap};
use ln_tensor::Tensor2;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the span recorded around each quantizer-hook call.
pub const HOOK_SPAN: &str = "quant.hook";

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `ppm.tri_mul_out`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The fold this span belongs to.
    pub fold: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// A single-threaded span recorder. Shared by reference between the fold
/// composition and the hook wrapper, so both can open spans under the same
/// parent stack.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    fold: Cell<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            fold: Cell::new(0),
        }
    }
}

impl Tracer {
    /// Sets the fold id stamped on spans opened from now on.
    pub fn set_fold(&self, fold: u32) {
        self.fold.set(fold);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&self, name: &'static str) -> usize {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.borrow().last().copied(),
            fold: self.fold.get(),
        });
        self.stack.borrow_mut().push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&self, id: usize) {
        let end = self.now_ns();
        let popped = self.stack.borrow_mut().pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans.borrow_mut()[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// The spans as a Chrome `trace_event` JSON document (complete events,
    /// microseconds; the fold id is the thread lane).
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.fold,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Delegating wrapper that times every `on_activation` call of the wrapped
/// hook as a [`HOOK_SPAN`] span, and forwards `observes` and
/// `quantized_matmul` unchanged so the trunk picks the same execution path
/// as with the bare hook.
pub struct TimedHook<'a, H> {
    inner: H,
    tracer: &'a Tracer,
    calls: u64,
}

impl<'a, H: ActivationHook> TimedHook<'a, H> {
    /// Wraps `inner`, recording spans on `tracer`.
    pub fn new(inner: H, tracer: &'a Tracer) -> Self {
        TimedHook {
            inner,
            tracer,
            calls: 0,
        }
    }

    /// The wrapped hook.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// `on_activation` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl<H: ActivationHook> ActivationHook for TimedHook<'_, H> {
    fn on_activation(&mut self, tap: Tap, activation: &mut Tensor2) {
        self.calls += 1;
        let inner = &mut self.inner;
        self.tracer
            .span(HOOK_SPAN, || inner.on_activation(tap, activation));
    }

    fn observes(&self, site: ActivationSite) -> bool {
        self.inner.observes(site)
    }

    fn quantized_matmul(&self, tap: Tap) -> Option<ln_quant::scheme::QuantScheme> {
        self.inner.quantized_matmul(tap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_parent() {
        let t = Tracer::default();
        t.set_fold(3);
        let outer = t.enter("outer");
        t.span("inner", || ());
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.fold == 3 && s.end_ns >= s.start_ns));
        assert!(t.chrome_json().contains("\"parent\":0"));
    }
}
