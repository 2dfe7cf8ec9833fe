//! In-memory spans taken around calls into the library's public API.
//!
//! The main thread opens and closes spans on a [`Trace`]; device and
//! producer threads record into their own [`ThreadLog`] and hand it back at
//! join time. Spans are coarse — one per thread per round per layer, never
//! one per report — and cost nothing when tracing is off: `open` returns
//! `None` without reading the clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Thread index of the main thread; device/producer threads are numbered from 1.
pub const MAIN: u16 = 0;

/// One timed interval around a library call (or a main-thread phase).
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub thread: u16,
    /// Index of the main-thread span that caused this one.
    pub parent: Option<usize>,
    pub session: u64,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the span covered (reports, frames or users).
    pub work: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The span log of one sample.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    main: Vec<Span>,
    workers: Vec<Span>,
}

/// Handle to an open main-thread span; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Trace {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            main: Vec::new(),
            workers: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a main-thread span.
    pub fn open(
        &mut self,
        layer: &'static str,
        parent: SpanId,
        session: u64,
        round: u32,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.main.push(Span {
            layer,
            thread: MAIN,
            parent,
            session,
            round,
            start_ns: now,
            end_ns: now,
            work: 0,
        });
        Some(self.main.len() - 1)
    }

    /// Closes a main-thread span, crediting it with `work` units.
    pub fn close(&mut self, id: SpanId, work: u64) {
        if let Some(i) = id {
            let now = self.now_ns();
            let span = &mut self.main[i];
            span.end_ns = now;
            span.work = work;
        }
    }

    /// Renames a main-thread span once its outcome is known.
    pub fn set_layer(&mut self, id: SpanId, layer: &'static str) {
        if let Some(i) = id {
            self.main[i].layer = layer;
        }
    }

    /// Times `f` as one main-thread span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        parent: SpanId,
        session: u64,
        round: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, parent, session, round);
        let out = f();
        self.close(id, 0);
        out
    }

    /// A log for a device or producer thread (numbered from 1).
    pub fn thread_log(&self, thread: u16) -> ThreadLog {
        ThreadLog {
            on: self.on,
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
        }
    }

    /// Takes a joined thread's spans.
    pub fn absorb(&mut self, log: ThreadLog) {
        self.workers.extend(log.spans);
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.main.iter().chain(&self.workers)
    }

    /// Self time per span: its duration minus the main-thread spans it caused
    /// (only main-thread spans nest; thread spans run beside the main thread).
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.main.iter().map(Span::dur_s).collect();
        for span in &self.main {
            if let Some(p) = span.parent {
                own[p] -= span.dur_s();
            }
        }
        own
    }

    /// Per-layer totals: `(self seconds, work units, spans)`, summed over
    /// every thread.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        let own = self.self_times();
        for (span, self_s) in self.main.iter().zip(own) {
            out.entry(span.layer).or_default().add(self_s, span.work);
        }
        for span in &self.workers {
            out.entry(span.layer)
                .or_default()
                .add(span.dur_s(), span.work);
        }
        out
    }

    /// Durations of every span of `layer`, in seconds.
    pub fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans()
            .filter(|s| s.layer == layer)
            .map(Span::dur_s)
            .collect()
    }

    /// The blocking path of the span `root`: `(root duration, sum of the
    /// self times of the main-thread spans it directly caused)`. The difference
    /// is the main thread's own time between library calls — the residual.
    pub fn blocking_path(&self, root: SpanId) -> Option<(f64, f64)> {
        let root = root?;
        let own = self.self_times();
        let blocking = self
            .main
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.parent == Some(root))
            .map(|(_, t)| t)
            .sum();
        Some((self.main[root].dur_s(), blocking))
    }

    /// Appends every span as a tab-separated row.
    pub fn write_rows(&self, sample: usize, out: &mut String) {
        for (i, s) in self.main.iter().enumerate() {
            row(out, sample, &format!("d{i}"), s);
        }
        for s in &self.workers {
            row(out, sample, "-", s);
        }
    }
}

fn row(out: &mut String, sample: usize, id: &str, s: &Span) {
    let parent = s.parent.map_or("-".to_string(), |p| format!("d{p}"));
    let _ = writeln!(
        out,
        "{sample}\t{id}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        s.thread, s.layer, s.session, s.round, s.start_ns, s.end_ns, s.work
    );
}

/// Header of the rows [`Trace::write_rows`] emits.
pub const ROW_HEADER: &str =
    "sample\tspan\tparent\tthread\tlayer\tsession\tround\tstart_ns\tend_ns\twork\n";

/// Totals for one layer in one sample.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    pub self_s: f64,
    pub work: u64,
    pub spans: u64,
}

impl LayerTotal {
    fn add(&mut self, self_s: f64, work: u64) {
        self.self_s += self_s;
        self.work += work;
        self.spans += 1;
    }
}

/// Span log of one device or producer thread.
#[derive(Debug)]
pub struct ThreadLog {
    on: bool,
    epoch: Instant,
    thread: u16,
    spans: Vec<Span>,
}

impl ThreadLog {
    /// Times `f` as one span; `f` returns its result and its work units.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        parent: SpanId,
        session: u64,
        round: u32,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        if !self.on {
            return f().0;
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let (out, work) = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            thread: self.thread,
            parent,
            session,
            round,
            start_ns: start,
            end_ns: end,
            work,
        });
        out
    }
}
