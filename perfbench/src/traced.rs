//! The outside-in tracer: a benchmark-owned [`Backend`] that forwards
//! every call to the real backend and times it.
//!
//! One span per `execute` call records when it started, how long it
//! took, how much of that the operation bodies (`TxOperation::run`, the
//! `core` and `data` code) took, how much body time belonged to attempts
//! the backend threw away, and how many attempts `begin_attempt` saw.
//! Everything between two `execute` calls of one thread is the caller's
//! own time (the engine loop, or an idle service worker). Spans stay in
//! per-thread buffers in memory and are aggregated and written out after
//! the run.

use std::cell::Cell;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use stmbench7_backend::{Backend, TxOperation};
use stmbench7_data::{AccessSpec, Sb7Tx, TxR, Workspace};
use stmbench7_obs::ContentionSnapshot;
use stmbench7_stm::StatsSnapshot;

/// More threads than any workload calls `execute` from.
const MAX_THREADS: usize = 8;
/// Spans each thread buffer reserves up front, so the buffer rarely
/// reallocates while the clock runs.
const RESERVE: usize = 1 << 18;

static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(tracer id, buffer index)` of the tracer this thread last used.
    static SLOT: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// One `execute` call, seen from outside the backend.
#[derive(Clone, Copy)]
pub struct Span {
    /// Start, in nanoseconds after the tracer was created.
    pub start_ns: u64,
    /// The whole `execute` call.
    pub exec_ns: u64,
    /// Time inside `TxOperation::run`, over all attempts.
    pub body_ns: u64,
    /// Body time of attempts before the last one (aborted work).
    pub wasted_ns: u64,
    /// `begin_attempt` calls.
    pub attempts: u64,
}

/// A backend wrapper recording one [`Span`] per `execute` call.
pub struct Traced<'b, B> {
    inner: &'b B,
    id: u64,
    epoch: Instant,
    next_slot: AtomicUsize,
    buffers: Vec<Mutex<Vec<Span>>>,
}

impl<'b, B: Backend> Traced<'b, B> {
    pub fn new(inner: &'b B) -> Self {
        Traced {
            inner,
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            next_slot: AtomicUsize::new(0),
            buffers: (0..MAX_THREADS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The calling thread's buffer index, claimed on its first call.
    fn slot(&self) -> usize {
        SLOT.with(|cell| {
            let (tracer, slot) = cell.get();
            if tracer == self.id {
                return slot;
            }
            let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
            assert!(slot < MAX_THREADS, "more than {MAX_THREADS} traced threads");
            self.buffers[slot]
                .lock()
                .expect("span buffer poisoned")
                .reserve(RESERVE);
            cell.set((self.id, slot));
            slot
        })
    }

    /// The recorded spans, one vector per calling thread.
    pub fn into_spans(self) -> Vec<Vec<Span>> {
        let used = self.next_slot.load(Ordering::Relaxed);
        self.buffers
            .into_iter()
            .take(used)
            .map(|b| b.into_inner().expect("span buffer poisoned"))
            .collect()
    }
}

/// The operation as the real backend sees it: the caller's operation
/// with a clock around each attempt.
struct Timed<'o, O> {
    op: &'o mut O,
    body_ns: u64,
    last_attempt_ns: u64,
    attempts: u64,
}

impl<R, O: TxOperation<R>> TxOperation<R> for Timed<'_, O> {
    fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<R> {
        let t0 = Instant::now();
        let result = self.op.run(tx);
        let ns = t0.elapsed().as_nanos() as u64;
        self.body_ns += ns;
        self.last_attempt_ns += ns;
        result
    }

    fn begin_attempt(&mut self) {
        self.attempts += 1;
        self.last_attempt_ns = 0;
        self.op.begin_attempt();
    }
}

impl<B: Backend> Backend for Traced<'_, B> {
    fn execute<R: Send, O: TxOperation<R> + Send>(&self, spec: &AccessSpec, op: &mut O) -> R {
        let slot = self.slot();
        let mut timed = Timed {
            op,
            body_ns: 0,
            last_attempt_ns: 0,
            attempts: 0,
        };
        let t0 = Instant::now();
        let result = self.inner.execute(spec, &mut timed);
        let t1 = Instant::now();
        let span = Span {
            start_ns: (t0 - self.epoch).as_nanos() as u64,
            exec_ns: (t1 - t0).as_nanos() as u64,
            body_ns: timed.body_ns,
            wasted_ns: timed.body_ns - timed.last_attempt_ns,
            attempts: timed.attempts,
        };
        self.buffers[slot]
            .lock()
            .expect("span buffer poisoned")
            .push(span);
        result
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn export(&self) -> Workspace {
        self.inner.export()
    }

    fn stm_stats(&self) -> Option<StatsSnapshot> {
        self.inner.stm_stats()
    }

    fn contention(&self) -> Option<ContentionSnapshot> {
        self.inner.contention()
    }
}

/// Span sums over every thread.
#[derive(Default)]
pub struct Totals {
    pub spans: u64,
    pub exec_ns: u64,
    pub body_ns: u64,
    pub wasted_ns: u64,
    pub attempts: u64,
    /// Time between consecutive `execute` calls of one thread.
    pub gap_ns: u64,
    /// Per thread, first span start to last span end, summed.
    pub covered_ns: u64,
}

impl Totals {
    pub fn of(threads: &[Vec<Span>]) -> Totals {
        let mut t = Totals::default();
        for spans in threads {
            let mut prev_end: Option<u64> = None;
            for s in spans {
                t.spans += 1;
                t.exec_ns += s.exec_ns;
                t.body_ns += s.body_ns;
                t.wasted_ns += s.wasted_ns;
                t.attempts += s.attempts;
                if let Some(end) = prev_end {
                    t.gap_ns += s.start_ns.saturating_sub(end);
                }
                prev_end = Some(s.start_ns + s.exec_ns);
            }
            if let (Some(first), Some(end)) = (spans.first(), prev_end) {
                t.covered_ns += end - first.start_ns;
            }
        }
        t
    }
}

/// The `execute` call-to-return time of every span, in nanoseconds.
pub fn exec_ns(threads: &[Vec<Span>]) -> Vec<u64> {
    threads.iter().flatten().map(|s| s.exec_ns).collect()
}

/// Writes the spans as CSV to `dir/<name>.csv`. Failing to write them
/// loses the raw trace, not the result, so it only warns.
pub fn write_spans(dir: &Path, name: &str, threads: &[Vec<Span>]) {
    let path = dir.join(format!("{name}.csv"));
    let written = fs::create_dir_all(dir).and_then(|()| {
        let mut out = BufWriter::new(fs::File::create(&path)?);
        writeln!(out, "thread,start_ns,exec_ns,body_ns,wasted_ns,attempts")?;
        for (thread, spans) in threads.iter().enumerate() {
            for s in spans {
                writeln!(
                    out,
                    "{thread},{},{},{},{},{}",
                    s.start_ns, s.exec_ns, s.body_ns, s.wasted_ns, s.attempts
                )?;
            }
        }
        out.flush()
    });
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
}
