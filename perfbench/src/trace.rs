//! In-memory span recorder for the traced run.
//!
//! The benchmark's shims (see `shims.rs`) and its own step loop open a
//! span at every layer boundary they cross. Spans nest on one stack per
//! thread, so a layer's *self* time is its span's duration minus the
//! part of that interval its child spans cover. Aggregates (calls, total
//! and self nanoseconds per layer) are always exact; the span timeline
//! itself is capped, and spans past the cap are counted, never silently
//! lost. Nothing here runs in the untraced measurement: untraced worlds
//! carry no shims and the untraced loop opens no spans.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// A layer boundary the benchmark can time from outside the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own drive loop around `Sim::step` (the root span).
    Loop,
    /// One `Sim::peek_next` + `Sim::step`: event pop, dispatch, and the
    /// netsim handler the event runs (deliver, kick, transmit, link model,
    /// hosts).
    Step,
    /// `SwitchHarness::receive`: parse, tables or flow cache, TM enqueue,
    /// event merger.
    SwitchReceive,
    /// `SwitchHarness::transmit`: TM dequeue and egress.
    SwitchTransmit,
    /// `SwitchHarness::fire_due_timers`.
    SwitchTimer,
    /// `SwitchHarness::control_plane`.
    SwitchControl,
    /// `SwitchHarness::set_link_status`.
    SwitchLink,
    /// `PisaProgram::ingress` (runs on flow-cache misses only).
    PisaIngress,
    /// `PisaProgram::egress`.
    PisaEgress,
    /// `PisaProgram::control_update` (table writes).
    PisaControl,
    /// `EventProgram::on_ingress` (and recirculated/generated passes).
    AppIngress,
    /// `EventProgram::on_egress`.
    AppEgress,
    /// `EventProgram::on_enqueue`.
    AppEnqueue,
    /// `EventProgram::on_dequeue`.
    AppDequeue,
    /// `EventProgram::on_overflow`.
    AppOverflow,
    /// `EventProgram::on_underflow`.
    AppUnderflow,
    /// `EventProgram::on_timer`.
    AppTimer,
    /// Any other event handler (control plane, link status, user,
    /// transmit).
    AppOther,
}

/// Number of [`Layer`] variants.
pub const NLAYERS: usize = 18;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; NLAYERS] = [
        Layer::Loop,
        Layer::Step,
        Layer::SwitchReceive,
        Layer::SwitchTransmit,
        Layer::SwitchTimer,
        Layer::SwitchControl,
        Layer::SwitchLink,
        Layer::PisaIngress,
        Layer::PisaEgress,
        Layer::PisaControl,
        Layer::AppIngress,
        Layer::AppEgress,
        Layer::AppEnqueue,
        Layer::AppDequeue,
        Layer::AppOverflow,
        Layer::AppUnderflow,
        Layer::AppTimer,
        Layer::AppOther,
    ];

    /// Index into the per-layer aggregate arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Span name in the trace export.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Loop => "bench.loop",
            Layer::Step => "evsim.step",
            Layer::SwitchReceive => "switch.receive",
            Layer::SwitchTransmit => "switch.transmit",
            Layer::SwitchTimer => "switch.timer",
            Layer::SwitchControl => "switch.control_plane",
            Layer::SwitchLink => "switch.link_status",
            Layer::PisaIngress => "pisa.ingress",
            Layer::PisaEgress => "pisa.egress",
            Layer::PisaControl => "pisa.control_update",
            Layer::AppIngress => "apps.ingress",
            Layer::AppEgress => "apps.egress",
            Layer::AppEnqueue => "apps.enqueue",
            Layer::AppDequeue => "apps.dequeue",
            Layer::AppOverflow => "apps.overflow",
            Layer::AppUnderflow => "apps.underflow",
            Layer::AppTimer => "apps.timer",
            Layer::AppOther => "apps.other",
        }
    }

    /// The module whose self time this layer's self time is: the
    /// grouping the per-layer breakdown adds up by.
    pub fn module(self) -> &'static str {
        match self {
            Layer::Loop => "bench",
            Layer::Step => "evsim+netsim",
            Layer::SwitchReceive
            | Layer::SwitchTransmit
            | Layer::SwitchTimer
            | Layer::SwitchControl
            | Layer::SwitchLink => "core",
            Layer::PisaIngress | Layer::PisaEgress | Layer::PisaControl => "pisa",
            _ => "apps",
        }
    }
}

/// One recorded span: `[start_ns, end_ns)` since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary the span covers.
    pub layer: Layer,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the timeline (`None` for a root, or
    /// when the parent fell past the timeline cap).
    pub parent: Option<u32>,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    span: Option<u32>,
}

/// Everything one traced thread recorded.
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    cap: usize,
    /// Spans closed per layer.
    pub calls: [u64; NLAYERS],
    /// Wall nanoseconds inside each layer's spans (children included).
    pub total_ns: [u64; NLAYERS],
    /// Wall nanoseconds inside each layer's spans minus child spans.
    pub self_ns: [u64; NLAYERS],
    /// The span timeline, oldest first, capped at the recorder's cap.
    pub spans: Vec<Span>,
    /// Spans past the cap (aggregates still count them).
    pub spans_dropped: u64,
}

impl Recorder {
    fn new(epoch: Instant, cap: usize) -> Self {
        Recorder {
            epoch,
            stack: Vec::with_capacity(8),
            cap,
            calls: [0; NLAYERS],
            total_ns: [0; NLAYERS],
            self_ns: [0; NLAYERS],
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, layer: Layer) {
        let start_ns = self.now_ns();
        let span = if self.spans.len() < self.cap {
            let parent = self.stack.last().and_then(|o| o.span);
            self.spans.push(Span {
                layer,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            Some(self.spans.len() as u32 - 1)
        } else {
            self.spans_dropped += 1;
            None
        };
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            span,
        });
    }

    fn end(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span end without a begin");
        let dur = end_ns - open.start_ns;
        let i = open.layer.index();
        self.calls[i] += 1;
        self.total_ns[i] += dur;
        self.self_ns[i] += dur.saturating_sub(open.child_ns);
        if let Some(s) = open.span {
            self.spans[s as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Adds another recorder's aggregates into this one (the timeline is
    /// not merged).
    pub fn absorb(&mut self, other: &Recorder) {
        for i in 0..NLAYERS {
            self.calls[i] += other.calls[i];
            self.total_ns[i] += other.total_ns[i];
            self.self_ns[i] += other.self_ns[i];
        }
        self.spans_dropped += other.spans_dropped;
    }

    /// An empty recorder to fold others into.
    pub fn empty() -> Self {
        Recorder::new(Instant::now(), 0)
    }
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread; spans are timed from `epoch` and at
/// most `cap` are kept in the timeline.
pub fn start(epoch: Instant, cap: usize) {
    REC.with(|r| *r.borrow_mut() = Some(Recorder::new(epoch, cap)));
}

/// Stops recording on this thread and returns what was recorded.
pub fn finish() -> Option<Recorder> {
    let rec = REC.with(|r| r.borrow_mut().take());
    if let Some(r) = &rec {
        assert!(r.stack.is_empty(), "trace finished with open spans");
    }
    rec
}

/// An open span; closing it (by drop) records the span.
pub struct Guard(());

/// Opens a span for `layer` on this thread's recorder (a no-op when the
/// thread is not recording).
pub fn span(layer: Layer) -> Guard {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.begin(layer);
        }
    });
    Guard(())
}

impl Drop for Guard {
    fn drop(&mut self) {
        REC.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.end();
            }
        });
    }
}

fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

/// Renders recorded timelines as Chrome trace-event JSON in the shape
/// `edp_telemetry::prof::to_trace_json` exports: one process named
/// `label`, one thread track per recorder, spans as complete (`"X"`)
/// events in nondecreasing `ts` order per track. Each span's `args` carry
/// its own index and its parent's; `meta` is attached to the process.
pub fn to_chrome_json(label: &str, recs: &[Recorder], meta: &str) -> String {
    let mut events = vec![format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"{label}\",\"meta\":{meta}}}}}"
    )];
    for (tid, rec) in recs.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"thread {tid}\"}}}}"
        ));
        // Spans are pushed at begin time, so the timeline is already in
        // nondecreasing start order.
        for (i, s) in rec.spans.iter().enumerate() {
            let mut ev = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"id\":{i}",
                s.layer.label(),
                s.layer.module(),
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
            );
            if let Some(p) = s.parent {
                let _ = write!(ev, ",\"parent\":{p}");
            }
            ev.push_str("}}");
            events.push(ev);
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}
