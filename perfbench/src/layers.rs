//! Wrappers that time the program's layers from outside.
//!
//! Each wrapper implements one public trait of the program by delegating
//! to the real implementation and recording a span around the call, so
//! the traced run drives exactly the code the untraced run drives.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bat_core::{Error, EvalBackend, EvalOutcome, Protocol};
use bat_space::ConfigSpace;
use bat_tuners::{StepCtx, StepTuner, Told};

use crate::trace::{Kind, TrialLog};

/// A [`StepTuner`] whose `ask` and `tell` are timed.
pub struct TracedStep<'a> {
    inner: Box<dyn StepTuner + 'a>,
    log: &'a TrialLog,
}

impl<'a> TracedStep<'a> {
    /// Wrap a session opened by `Tuner::start`.
    pub fn new(inner: Box<dyn StepTuner + 'a>, log: &'a TrialLog) -> Self {
        TracedStep { inner, log }
    }
}

impl StepTuner for TracedStep<'_> {
    fn ask(&mut self, ctx: &StepCtx) -> Vec<u64> {
        let inner = &mut self.inner;
        self.log.time(Kind::Ask, || inner.ask(ctx))
    }

    fn tell(&mut self, results: &[Told]) {
        let inner = &mut self.inner;
        self.log.time(Kind::Tell, || inner.tell(results))
    }
}

/// An [`EvalBackend`] whose `evaluate_batch` is timed as `kind`
/// ([`Kind::EvaluateBatch`] in-process, [`Kind::Rpc`] over the wire).
pub struct TracedBackend<'a> {
    inner: &'a dyn EvalBackend,
    log: &'a TrialLog,
    kind: Kind,
}

impl<'a> TracedBackend<'a> {
    /// Wrap `inner`, recording each batch as a `kind` span in `log`.
    pub fn new(inner: &'a dyn EvalBackend, log: &'a TrialLog, kind: Kind) -> Self {
        TracedBackend { inner, log, kind }
    }
}

impl EvalBackend for TracedBackend<'_> {
    fn space(&self) -> &ConfigSpace {
        self.inner.space()
    }

    fn problem_name(&self) -> &str {
        self.inner.problem_name()
    }

    fn platform(&self) -> &str {
        self.inner.platform()
    }

    fn protocol(&self) -> Protocol {
        self.inner.protocol()
    }

    fn evaluate_batch(&self, indices: &[u64]) -> Result<Vec<EvalOutcome>, Error> {
        self.log
            .time(self.kind, || self.inner.evaluate_batch(indices))
    }

    fn has_budget(&self) -> bool {
        self.inner.has_budget()
    }

    fn budget_left(&self) -> Option<u64> {
        self.inner.budget_left()
    }

    fn evals_used(&self) -> u64 {
        self.inner.evals_used()
    }

    fn distinct_evals(&self) -> u64 {
        self.inner.distinct_evals()
    }

    fn retries_used(&self) -> u64 {
        self.inner.retries_used()
    }

    fn quarantined_configs(&self) -> u64 {
        self.inner.quarantined_configs()
    }
}

/// Byte and call counts of every [`CountingStream`] sharing them.
#[derive(Debug, Default)]
pub struct WireCounts {
    /// Bytes the client wrote (requests).
    pub bytes_written: AtomicU64,
    /// Bytes the client read (responses).
    pub bytes_read: AtomicU64,
    /// `write` calls.
    pub writes: AtomicU64,
    /// `flush` calls.
    pub flushes: AtomicU64,
}

impl WireCounts {
    /// Read one counter.
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

/// A client connection that counts what crosses it.
pub struct CountingStream<S> {
    inner: S,
    counts: Arc<WireCounts>,
}

impl<S> CountingStream<S> {
    /// Count `inner`'s traffic into `counts`.
    pub fn new(inner: S, counts: Arc<WireCounts>) -> Self {
        CountingStream { inner, counts }
    }
}

impl<S: Read> Read for CountingStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counts
            .bytes_read
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl<S: Write> Write for CountingStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.counts.flushes.fetch_add(1, Ordering::Relaxed);
        self.inner.flush()
    }
}
