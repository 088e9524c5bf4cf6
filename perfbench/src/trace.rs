//! The traced run's instruments, all outside the system: a span recorder
//! that writes a Perfetto-loadable trace, a [`Transport`] wrapper that
//! times every call into the transport, and a [`SubmissionSource`] over
//! pre-built submissions that times every intake pull.
//!
//! Untraced runs use [`Prebuilt`] with timing off and hand the engine the
//! bare transport, so nothing here runs on their timed path.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use atom_core::config::Defense;
use atom_core::error::{AtomError, AtomResult};
use atom_core::{NizkSubmission, TrapSubmission};
use atom_net::{DeliveryHook, Envelope, NodeId, TrafficStats, Transport};
use atom_runtime::{SubmissionBlock, SubmissionSource, MIX_LABEL};

use crate::util::{json_str, status_field};

/// Spans kept at most; later spans are counted but dropped.
const MAX_SPANS: usize = 400_000;

struct SpanRow {
    name: Cow<'static, str>,
    id: u64,
    parent: u64,
    start: Duration,
    end: Duration,
    tid: u64,
}

struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    dropped: AtomicU64,
    rows: Mutex<Vec<SpanRow>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        on: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        dropped: AtomicU64::new(0),
        rows: Mutex::new(Vec::new()),
    })
}

/// Switches span recording on or off (off by default).
pub fn set_tracing(on: bool) {
    recorder().on.store(on, Ordering::SeqCst);
}

/// A fresh span id (0 means "no parent").
pub fn new_id() -> u64 {
    recorder().next_id.fetch_add(1, Ordering::Relaxed)
}

fn thread_tag() -> u64 {
    thread_local!(static TAG: u64 = new_id());
    TAG.with(|tag| *tag)
}

/// Records a finished span `[start, end)` named `name` under `parent`.
pub fn record(
    name: impl Into<Cow<'static, str>>,
    id: u64,
    parent: u64,
    start: Instant,
    end: Instant,
) {
    let rec = recorder();
    if !rec.on.load(Ordering::Relaxed) {
        return;
    }
    let mut rows = rec.rows.lock().expect("span recorder lock");
    if rows.len() >= MAX_SPANS {
        rec.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    rows.push(SpanRow {
        name: name.into(),
        id,
        parent,
        start: start.saturating_duration_since(rec.epoch),
        end: end.saturating_duration_since(rec.epoch),
        tid: thread_tag(),
    });
}

/// Times `f` as a span named `name` under `parent`, returning its result
/// and duration.
pub fn timed<T>(name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    record(name, new_id(), parent, start, end);
    (value, end - start)
}

/// Writes every recorded span as a Chrome/Perfetto JSON trace
/// (`ph: "X"` complete events; `args` carry the span id and its parent).
pub fn write_trace(path: &std::path::Path) -> std::io::Result<usize> {
    let rec = recorder();
    let rows = rec.rows.lock().expect("span recorder lock");
    let mut out = String::with_capacity(rows.len() * 120 + 64);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\": {}, \"ph\": \"X\", \"pid\": {}, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
            json_str(&row.name),
            std::process::id(),
            row.tid,
            row.start.as_secs_f64() * 1e6,
            row.end.saturating_sub(row.start).as_secs_f64() * 1e6,
            row.id,
            row.parent
        );
    }
    let _ = write!(
        out,
        "\n], \"otherData\": {{\"dropped_spans\": {}}}}}\n",
        rec.dropped.load(Ordering::Relaxed)
    );
    std::fs::write(path, out)?;
    Ok(rows.len())
}

/// Submissions built before the clock starts, served to the engine's
/// streaming intake. With `timed` set, every pull is recorded (span plus
/// first/last pull instants); otherwise `generate` only copies the slice.
pub struct Prebuilt {
    pub subs: PrebuiltSubs,
    timed: bool,
    parent: AtomicU64,
    pulls: Mutex<Option<(Instant, Instant)>>,
}

pub enum PrebuiltSubs {
    Nizk(Vec<NizkSubmission>),
    Trap(Vec<TrapSubmission>),
}

impl Prebuilt {
    pub fn new(subs: PrebuiltSubs, timed: bool) -> Self {
        Self {
            subs,
            timed,
            parent: AtomicU64::new(0),
            pulls: Mutex::new(None),
        }
    }

    /// Parents later pull spans under `parent` and forgets earlier pulls.
    pub fn arm(&self, parent: u64) {
        self.parent.store(parent, Ordering::Relaxed);
        *self.pulls.lock().expect("pull timing lock") = None;
    }

    /// Time from the first pull's start to the last pull's end since the
    /// last [`arm`](Self::arm).
    pub fn intake_span(&self) -> Option<Duration> {
        self.pulls
            .lock()
            .expect("pull timing lock")
            .map(|(first, last)| last - first)
    }
}

impl SubmissionSource for Prebuilt {
    fn total(&self) -> usize {
        match &self.subs {
            PrebuiltSubs::Nizk(v) => v.len(),
            PrebuiltSubs::Trap(v) => v.len(),
        }
    }

    fn defense(&self) -> Defense {
        match &self.subs {
            PrebuiltSubs::Nizk(_) => Defense::Nizk,
            PrebuiltSubs::Trap(_) => Defense::Trap,
        }
    }

    fn generate(&self, (start, end): (usize, usize)) -> AtomResult<SubmissionBlock> {
        let began = self.timed.then(Instant::now);
        let out_of_range = || AtomError::Config(format!("pull {start}..{end} out of range"));
        let block = match &self.subs {
            PrebuiltSubs::Nizk(v) => {
                SubmissionBlock::Nizk(v.get(start..end).ok_or_else(out_of_range)?.to_vec())
            }
            PrebuiltSubs::Trap(v) => {
                SubmissionBlock::Trap(v.get(start..end).ok_or_else(out_of_range)?.to_vec())
            }
        };
        if let Some(began) = began {
            let now = Instant::now();
            record(
                "engine.intake_pull",
                new_id(),
                self.parent.load(Ordering::Relaxed),
                began,
                now,
            );
            let mut pulls = self.pulls.lock().expect("pull timing lock");
            *pulls = Some(match *pulls {
                Some((first, last)) => (first.min(began), last.max(now)),
                None => (began, now),
            });
        }
        Ok(block)
    }
}

/// Per-call accounting of a [`Metered`] transport.
#[derive(Default)]
pub struct NetStats {
    pub send_calls: AtomicU64,
    pub send_busy_ns: AtomicU64,
    pub drain_calls: AtomicU64,
    pub useful_drains: AtomicU64,
    pub pending_max: AtomicUsize,
    pub threads_max: AtomicUsize,
    /// Send durations in ns (bounded sample) and mix payloads sampled for
    /// the wire rung's "median frame shape".
    pub send_ns: Mutex<Vec<u64>>,
    pub mix_frames: Mutex<Vec<Vec<u8>>>,
}

/// A [`Transport`] that forwards to `inner` and times every call; the
/// traced run hands it to `Engine::run_rounds_on`. `peer` is a member
/// process whose thread count is sampled with ours.
pub struct Metered<'a> {
    pub inner: &'a dyn Transport,
    pub stats: &'a NetStats,
    pub parent: u64,
    pub peer: Option<u32>,
}

impl Metered<'_> {
    fn sample_threads(&self) {
        let mut threads = status_field(std::process::id(), "Threads");
        if let Some(pid) = self.peer {
            threads += status_field(pid, "Threads");
        }
        if threads.is_finite() {
            self.stats
                .threads_max
                .fetch_max(threads as usize, Ordering::Relaxed);
        }
    }
}

impl Transport for Metered<'_> {
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn is_local(&self, node: NodeId) -> bool {
        self.inner.is_local(node)
    }

    fn send(
        &self,
        from: NodeId,
        to: NodeId,
        label: Cow<'static, str>,
        payload: Vec<u8>,
    ) -> Duration {
        let calls = self.stats.send_calls.fetch_add(1, Ordering::Relaxed);
        if calls.is_multiple_of(256) {
            self.sample_threads();
        }
        if label == MIX_LABEL && calls.is_multiple_of(8) {
            let mut frames = self.stats.mix_frames.lock().expect("frame sample lock");
            if frames.len() < 512 {
                frames.push(payload.clone());
            }
        }
        let start = Instant::now();
        let delay = self.inner.send(from, to, label, payload);
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        self.stats.send_busy_ns.fetch_add(ns, Ordering::Relaxed);
        {
            let mut samples = self.stats.send_ns.lock().expect("send sample lock");
            if samples.len() < 1 << 20 {
                samples.push(ns);
            }
        }
        record("net.send", new_id(), self.parent, start, end);
        delay
    }

    fn try_receive(&self, node: NodeId) -> Option<Envelope> {
        self.inner.try_receive(node)
    }

    fn drain(&self, node: NodeId) -> Vec<Envelope> {
        let start = Instant::now();
        let envelopes = self.inner.drain(node);
        let end = Instant::now();
        self.stats.drain_calls.fetch_add(1, Ordering::Relaxed);
        if !envelopes.is_empty() {
            self.stats.useful_drains.fetch_add(1, Ordering::Relaxed);
            self.stats
                .pending_max
                .fetch_max(envelopes.len(), Ordering::Relaxed);
        }
        record("net.drain", new_id(), self.parent, start, end);
        envelopes
    }

    fn pending(&self, node: NodeId) -> usize {
        let pending = self.inner.pending(node);
        self.stats.pending_max.fetch_max(pending, Ordering::Relaxed);
        pending
    }

    fn sent_stats(&self, node: NodeId) -> TrafficStats {
        self.inner.sent_stats(node)
    }

    fn received_stats(&self, node: NodeId) -> TrafficStats {
        self.inner.received_stats(node)
    }

    fn set_delivery_hook(&self, hook: Option<DeliveryHook>) {
        self.inner.set_delivery_hook(hook)
    }
}
