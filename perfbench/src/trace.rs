//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark itself, around calls into the
//! program's public API — never inside the program. A span is a
//! [`Kind`], a start and an end on one monotonic clock, and the index of
//! the span that caused it. Trials record into a private [`TrialLog`]
//! (no locking on the hot path) whose spans are appended to the
//! campaign-wide [`SpanTree`] when the trial ends; every span of a trial
//! carries that trial's index as its parent, so they share one id.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Parent value of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span measures: one boundary of the layer stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Kind {
    /// The whole traced workload (root).
    Workload,
    /// One campaign fan-out over the worker pool (main thread).
    Fanout,
    /// One artifact checkpoint write (main thread).
    Checkpoint,
    /// `CacheStore::load_or_empty`.
    CacheLoad,
    /// `cache_prior`.
    CachePrior,
    /// `fold_run_into_cache`, with the before/after change test.
    CacheFold,
    /// `CacheStore::save_atomic`.
    CacheSave,
    /// One trial, from problem build to its `TrialRecord`.
    Trial,
    /// Building the trial's problem instance (in-process trials).
    ProblemBuild,
    /// `StepTuner::ask`.
    Ask,
    /// `StepTuner::tell`.
    Tell,
    /// In-process `EvalBackend::evaluate_batch`.
    EvaluateBatch,
    /// Remote `evaluate_batch`: one `eval` round trip over the wire.
    Rpc,
    /// `RemoteBackend::open`: the `open` round trip plus the client-side
    /// space build.
    Open,
    /// `RemoteBackend::close`: the `close` round trip.
    Close,
}

impl Kind {
    /// Every kind, in declaration order.
    pub const ALL: [Kind; 15] = [
        Kind::Workload,
        Kind::Fanout,
        Kind::Checkpoint,
        Kind::CacheLoad,
        Kind::CachePrior,
        Kind::CacheFold,
        Kind::CacheSave,
        Kind::Trial,
        Kind::ProblemBuild,
        Kind::Ask,
        Kind::Tell,
        Kind::EvaluateBatch,
        Kind::Rpc,
        Kind::Open,
        Kind::Close,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Workload => "workload",
            Kind::Fanout => "harness.fanout",
            Kind::Checkpoint => "harness.checkpoint",
            Kind::CacheLoad => "cache.load",
            Kind::CachePrior => "cache.prior",
            Kind::CacheFold => "cache.fold",
            Kind::CacheSave => "cache.save",
            Kind::Trial => "trial",
            Kind::ProblemBuild => "core.problem_build",
            Kind::Ask => "tuners.ask",
            Kind::Tell => "tuners.tell",
            Kind::EvaluateBatch => "core.evaluate_batch",
            Kind::Rpc => "server.rpc",
            Kind::Open => "server.open",
            Kind::Close => "server.close",
        }
    }

    /// Spans at trial level and above are written to the trace file one
    /// line each; per-call spans below a trial are folded into their
    /// trial's line (see [`SpanTree::to_jsonl`]).
    pub fn written_per_span(self) -> bool {
        self <= Kind::Trial
    }
}

/// One recorded span. `tag` carries the tuner index for trial-level
/// spans and the leg index for fan-outs and remote calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Boundary measured.
    pub kind: Kind,
    /// Tuner or leg index (see the type docs).
    pub tag: u8,
    /// Leg (fan-out) the span belongs to.
    pub leg: u8,
    /// Index of the causing span in the tree, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, nanoseconds on the process clock ([`now_ns`]).
    pub start_ns: u64,
    /// End, nanoseconds on the process clock.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may overlap one another (trials run
/// in parallel under one fan-out); overlapping coverage counts once, and
/// child time outside the parent's interval does not count.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<u32> = (0..spans.len() as u32)
        .filter(|&i| spans[i as usize].parent != NO_PARENT)
        .collect();
    order.sort_unstable_by_key(|&i| {
        let s = &spans[i as usize];
        (s.parent, s.start_ns)
    });
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    let mut group = 0;
    while group < order.len() {
        let parent = spans[order[group] as usize].parent;
        let p = spans[parent as usize];
        let mut covered = 0u64;
        let mut cursor = p.start_ns;
        let mut i = group;
        while i < order.len() && spans[order[i] as usize].parent == parent {
            let c = &spans[order[i] as usize];
            let lo = c.start_ns.max(cursor);
            let hi = c.end_ns.min(p.end_ns);
            if hi > lo {
                covered += hi - lo;
                cursor = hi;
            }
            i += 1;
        }
        out[parent as usize] = p.dur_ns().saturating_sub(covered);
        group = i;
    }
    out
}

/// The spans one trial records on its own thread. Parent `0` means the
/// trial span itself, which is always the log's first entry.
pub struct TrialLog {
    spans: RefCell<Vec<Span>>,
}

impl TrialLog {
    /// Open a trial span of tuner `tag` on leg `leg`, starting now.
    pub fn open(tag: u8, leg: u8) -> TrialLog {
        let t = now_ns();
        TrialLog {
            spans: RefCell::new(vec![Span {
                kind: Kind::Trial,
                tag,
                leg,
                parent: NO_PARENT,
                start_ns: t,
                end_ns: t,
            }]),
        }
    }

    /// Run `f` inside a child span of the trial.
    pub fn time<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let start_ns = now_ns();
        let out = f();
        let end_ns = now_ns();
        let mut spans = self.spans.borrow_mut();
        let (tag, leg) = (spans[0].tag, spans[0].leg);
        spans.push(Span {
            kind,
            tag,
            leg,
            parent: 0,
            start_ns,
            end_ns,
        });
        out
    }

    /// Close the trial span now and hand back every span.
    pub fn close(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner();
        spans[0].end_ns = now_ns();
        spans
    }
}

/// Every span of one traced workload, parents by index.
#[derive(Default)]
pub struct SpanTree {
    /// The spans; index = id − 1 in the written trace.
    pub spans: Vec<Span>,
}

impl SpanTree {
    /// Open a span now under `parent`; returns its index for [`Self::end`].
    pub fn begin(&mut self, kind: Kind, leg: u8, parent: u32) -> u32 {
        let t = now_ns();
        self.spans.push(Span {
            kind,
            tag: leg,
            leg,
            parent,
            start_ns: t,
            end_ns: t,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close span `id` now.
    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = now_ns();
    }

    /// Run `f` inside a new span under `parent`.
    pub fn time<R>(&mut self, kind: Kind, leg: u8, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.begin(kind, leg, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Append a finished trial's spans under `parent` (a fan-out span).
    pub fn adopt(&mut self, parent: u32, mut trial: Vec<Span>) {
        let base = self.spans.len() as u32;
        trial[0].parent = parent;
        for s in &mut trial[1..] {
            s.parent += base;
        }
        self.spans.extend(trial);
    }

    /// The trace as `bat/trace/v1` JSONL. Spans at trial level and above
    /// get one line each (`id` = index + 1, `parent` 0 for the root);
    /// the per-call spans under a trial are folded into that trial's line
    /// as `<kind>_us` totals and `<kind>_n` counts, plus its `self_us`,
    /// which keeps a two-million-call campaign's trace to one line per
    /// trial.
    pub fn to_jsonl(&self, tuners: &[String], self_ns: &[u64]) -> String {
        let mut folded: Vec<[(u64, u64); Kind::ALL.len()]> = Vec::new();
        let mut slot: Vec<u32> = vec![u32::MAX; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.kind == Kind::Trial {
                slot[i] = folded.len() as u32;
                folded.push([(0, 0); Kind::ALL.len()]);
            } else if !s.kind.written_per_span() {
                let f = &mut folded[slot[s.parent as usize] as usize][s.kind as usize];
                f.0 += s.dur_ns();
                f.1 += 1;
            }
        }
        let epoch_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let mut out =
            format!("{{\"v\":\"bat/trace/v1\",\"meta\":{{\"epoch_unix_ms\":{epoch_unix_ms}}}}}\n");
        for (i, s) in self.spans.iter().enumerate() {
            if !s.kind.written_per_span() {
                continue;
            }
            let parent = if s.parent == NO_PARENT {
                0
            } else {
                s.parent + 1
            };
            let _ = write!(
                out,
                "{{\"v\":\"bat/trace/v1\",\"span\":\"{}\",\"id\":{},\"parent\":{},\"t_us\":{},\"dur_us\":{},\"leg\":{},\"self_us\":{}",
                s.kind.name(),
                i + 1,
                parent,
                s.start_ns / 1000,
                s.dur_ns() / 1000,
                s.leg,
                self_ns[i] / 1000
            );
            if s.kind == Kind::Trial {
                let _ = write!(out, ",\"tuner\":\"{}\"", tuners[s.tag as usize]);
                for (k, (ns, n)) in Kind::ALL.iter().zip(folded[slot[i] as usize]) {
                    if n > 0 {
                        let name = k.name().replace('.', "_");
                        let _ = write!(out, ",\"{name}_us\":{},\"{name}_n\":{n}", ns / 1000);
                    }
                }
            }
            out.push_str("}\n");
        }
        out
    }
}
