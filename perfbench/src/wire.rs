//! The pipelined wire workload: `stmbench7_net::serve_net` on a loopback
//! listener, driven by this benchmark's own single-thread client over
//! one connection with a fixed window of requests in flight.
//!
//! The server runs the medium-grained locks with one worker, index
//! shards, group-commit batching and shard affinity; the client sends
//! `rw` requests without long traversals. Those op bodies are short, so
//! the wire codec, the event loop and the service queue carry most of
//! each round trip.
//!
//! The client keeps constant memory: per-request samples live only until
//! their slice's percentiles are taken, and received outcomes are folded
//! into a digest in stream order. Requests are regenerated from the seed
//! for the sequential replay, so `peak_rss_mb` is the program's.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stmbench7_backend::{AnyBackend, Backend, BackendChoice, SequentialBackend, TxOperation};
use stmbench7_core::{access_spec, run_op, OpCtx, OpKind, Report, WorkloadMix, WorkloadType};
use stmbench7_data::{validate, OpOutcome, Sb7Tx, StructureParams, TxR, Workspace};
use stmbench7_net::wire::{read_frame, write_frame};
use stmbench7_net::{serve_net, Frame, NetRequest, WireOutcome};
use stmbench7_service::{Affinity, Schedule, ServeConfig};

use crate::report::{
    median, percentile, quietest_half, rate_estimate, ratio, LayerSheet, Metric, Outcome,
};
use crate::traced::{write_spans, Totals, Traced};
use crate::{host, Args, SLICE};

/// Requests the client keeps in flight.
const WINDOW: usize = 4;
/// Index shards of the served structure (shard affinity routes by them).
const SHARDS: usize = 8;
/// Largest group-commit batch the worker may form.
const BATCH: usize = 8;
/// Launches per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// A response later than this means the server is stuck.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

fn params() -> StructureParams {
    StructureParams::small().with_shards(SHARDS)
}

fn serve_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(
        Schedule::Closed { clients: 1 },
        WorkloadType::ReadWrite,
        seed,
    );
    cfg.workers = 1;
    cfg.batch_max = BATCH;
    cfg.affinity = Affinity::Shard;
    cfg.long_traversals = false;
    cfg
}

/// FNV-1a over a canonical encoding of one outcome, chained.
fn fold(digest: u64, outcome: &WireOutcome) -> u64 {
    let fnv = |h: u64, bytes: &[u8]| {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    match outcome {
        WireOutcome::Done(v) => fnv(fnv(digest, &[0]), &v.to_be_bytes()),
        WireOutcome::Fail(reason) => fnv(fnv(fnv(digest, &[1]), reason.as_bytes()), &[0xff]),
        WireOutcome::Rejected => fnv(digest, &[2]),
    }
}

const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One structure's request stream as the client sees it: generated from
/// the seed, with the digest of every outcome received so far (in
/// stream order), the server's own record of each outcome, and the
/// requests that got no valid answer.
struct History {
    mix: WorkloadMix,
    rng: SmallRng,
    sent: u64,
    digest: u64,
    record: Vec<Option<OpOutcome>>,
    faults: u64,
}

impl History {
    fn new(seed: u64) -> History {
        History {
            mix: serve_config(seed).mix(),
            rng: SmallRng::seed_from_u64(seed ^ 0xc11e),
            sent: 0,
            digest: DIGEST_SEED,
            record: Vec::new(),
            faults: 0,
        }
    }

    fn next(&mut self) -> NetRequest {
        let req = NetRequest {
            id: self.sent,
            op: self.mix.pick(&mut self.rng),
            rng_seed: self.rng.gen(),
        };
        self.sent += 1;
        req
    }
}

/// Counts the bytes that cross the socket.
struct Counted<S> {
    inner: S,
    bytes: u64,
}

impl<S: Read> Read for Counted<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for Counted<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// One answered request, in nanoseconds.
#[derive(Clone, Copy)]
struct Sample {
    rtt_ns: u64,
    queue_ns: u64,
    service_ns: u64,
}

impl Sample {
    /// Round trip minus server-side queue wait and service: codec,
    /// syscalls, loopback, event loop and routing on both sides.
    fn transport_ns(&self) -> u64 {
        self.rtt_ns - self.queue_ns - self.service_ns
    }
}

/// Exact statistics of one slice of the measured window.
struct Slice {
    steal_s: f64,
    rate: f64,
    /// `(p50, p99)` in microseconds of rtt, queue wait, service, transport.
    pct: [(f64, f64); 4],
}

impl Slice {
    fn of(samples: &[Sample], steal_s: f64) -> Slice {
        let rate = host::corrected_rate(samples.len() as u64, SLICE, steal_s);
        let fields: [fn(&Sample) -> u64; 4] = [
            |s| s.rtt_ns,
            |s| s.queue_ns,
            |s| s.service_ns,
            Sample::transport_ns,
        ];
        let pct = fields.map(|field| {
            let mut v: Vec<u64> = samples.iter().map(field).collect();
            v.sort_unstable();
            if v.is_empty() {
                return (0.0, 0.0);
            }
            (
                percentile(&v, 50.0) as f64 / 1e3,
                percentile(&v, 99.0) as f64 / 1e3,
            )
        });
        Slice { steal_s, rate, pct }
    }
}

/// What the client saw during one server's life.
struct Drive {
    /// When the first response arrived: the server is serving.
    ready: Instant,
    /// The measured window, slice by slice.
    slices: Vec<Slice>,
    /// Measured requests and the sums of their rtt, queue wait and
    /// service, for the mean budget.
    measured: u64,
    sums: [u64; 3],
    /// Requests sent and bytes both ways over the whole phase.
    requests: u64,
    bytes: u64,
}

impl Drive {
    fn per_slice<T>(&self, f: impl Fn(&Slice) -> T) -> Vec<T> {
        self.slices.iter().map(f).collect()
    }

    fn median_of(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.per_slice(f))
    }

    /// The median over the least-stolen half of the slices.
    fn quiet_median_of(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        let slices = self.slices.iter().map(|s| (s.steal_s, f(s))).collect();
        median(&quietest_half(slices))
    }
}

struct InFlight {
    id: u64,
    sent: Instant,
    outcome: Option<WireOutcome>,
}

/// The client: one probe request alone, then `warmup` and `measure` of
/// closed-loop traffic with [`WINDOW`] requests in flight, then the
/// graceful shutdown frame. Responses received in the measured window
/// are sampled, by slice.
fn drive(
    addr: SocketAddr,
    history: &mut History,
    warmup: Duration,
    measure: Duration,
) -> io::Result<Drive> {
    let socket = TcpStream::connect(addr)?;
    socket.set_nodelay(true)?;
    socket.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(Counted {
        inner: socket.try_clone()?,
        bytes: 0,
    });
    let mut writer = BufWriter::new(Counted {
        inner: socket,
        bytes: 0,
    });
    let first = history.sent;
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
    let mut send = |history: &mut History, inflight: &mut VecDeque<InFlight>| {
        let req = history.next();
        inflight.push_back(InFlight {
            id: req.id,
            sent: Instant::now(),
            outcome: None,
        });
        write_frame(&mut writer, &Frame::Request(req))
    };

    let mut ready = None;
    let mut start = None;
    let mut end = Instant::now();
    // The open slice: when it ends, and the steal counter when it began.
    let mut slice: Option<(Instant, f64)> = None;
    let mut samples: Vec<Sample> = Vec::with_capacity(1 << 16);
    let mut slices = Vec::new();
    let slice_count = (measure.as_nanos() / SLICE.as_nanos()) as usize;
    let mut measured = 0u64;
    let mut sums = [0u64; 3];

    send(history, &mut inflight)?;
    while !inflight.is_empty() {
        let resp = match read_frame(&mut reader)? {
            Some(Frame::Response(resp)) => resp,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected a response, got {other:?}"),
                ))
            }
        };
        let now = Instant::now();
        let Some(entry) = inflight
            .iter_mut()
            .find(|f| f.id == resp.id && f.outcome.is_none())
        else {
            history.faults += 1; // answered twice, or never asked
            continue;
        };
        if resp.outcome == WireOutcome::Rejected {
            history.faults += 1;
        }
        let sent = entry.sent;
        entry.outcome = Some(resp.outcome);
        while inflight.front().is_some_and(|f| f.outcome.is_some()) {
            let done = inflight.pop_front().expect("front exists");
            history.digest = fold(history.digest, &done.outcome.expect("answered"));
        }

        if ready.is_none() {
            ready = Some(now);
            end = now + warmup + measure;
            start = (slice_count > 0).then_some(now + warmup);
        } else if let Some(start) = start.filter(|&s| now >= s) {
            let (slice_end, steal0) = slice.get_or_insert_with(|| (start + SLICE, host::steal_s()));
            while now >= *slice_end && slices.len() < slice_count {
                let steal = host::steal_s();
                slices.push(Slice::of(&samples, steal - *steal0));
                samples.clear();
                *slice_end += SLICE;
                *steal0 = steal;
            }
            if now < end {
                let s = Sample {
                    rtt_ns: (now - sent).as_nanos() as u64,
                    queue_ns: resp.queue_ns,
                    service_ns: resp.service_ns,
                };
                measured += 1;
                sums[0] += s.rtt_ns;
                sums[1] += s.queue_ns;
                sums[2] += s.service_ns;
                samples.push(s);
            }
        }
        while now < end && inflight.len() < WINDOW {
            send(history, &mut inflight)?;
        }
    }

    write_frame(&mut writer, &Frame::Shutdown)?;
    loop {
        match read_frame(&mut reader)? {
            Some(Frame::ShutdownAck) => break,
            Some(Frame::Response(_)) => history.faults += 1,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected the shutdown ack, got {other:?}"),
                ))
            }
        }
    }
    Ok(Drive {
        ready: ready.expect("the probe was answered"),
        slices,
        measured,
        sums,
        requests: history.sent - first,
        bytes: reader.get_ref().bytes + writer.get_ref().bytes,
    })
}

/// Serves one phase: starts `serve_net` over `backend` on a fresh
/// loopback listener, drives it, and appends the server's outcome
/// record to the history. Returns what the client saw and the server's
/// report.
fn serve_phase<B: Backend>(
    backend: &B,
    cfg: &ServeConfig,
    history: &mut History,
    warmup: Duration,
    measure: Duration,
) -> Result<(Drive, Report), String> {
    let params = params();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
    std::thread::scope(|s| {
        let server = s.spawn(|| serve_net(backend, &params, cfg, listener, None));
        let drive = drive(addr, history, warmup, measure);
        if drive.is_err() {
            // Release the server so the scope can join it.
            let _ = stmbench7_net::shutdown(addr);
        }
        let served = server.join().expect("server thread panicked");
        let drive = drive.map_err(|e| format!("client: {e}"))?;
        let served = served.map_err(|e| format!("server: {e}"))?;
        // Moving the first record in, not copying it, keeps a second
        // copy of every outcome out of `peak_rss_mb`.
        if history.record.is_empty() {
            history.record = served.outcomes;
        } else {
            history.record.extend(served.outcomes);
        }
        Ok((drive, served.report))
    })
}

/// One request replayed in-process: reseeds the operation's generator
/// from the request, exactly as the service worker does.
struct Replay<'c> {
    req: NetRequest,
    ctx: &'c mut OpCtx,
}

impl TxOperation<OpOutcome> for Replay<'_> {
    fn run<T: Sb7Tx>(&mut self, tx: &mut T) -> TxR<OpOutcome> {
        self.ctx.rng = SmallRng::seed_from_u64(self.req.rng_seed);
        run_op(self.req.op, tx, self.ctx)
    }
}

/// The correctness gate of one structure's history: every request
/// answered exactly once, the server's record equal to what the client
/// received (by digest), and every recorded outcome equal to a
/// sequential in-process replay of the same stream on a fresh structure
/// (one worker and one in-order connection make the stream order the
/// serialization order). Returns the requests with no valid outcome.
fn verify(seed: u64, history: &History) -> Result<u64, String> {
    let mut failed = history.faults;
    if history.record.len() as u64 != history.sent {
        eprintln!(
            "server recorded {} requests, client sent {}",
            history.record.len(),
            history.sent
        );
        failed += history.sent.abs_diff(history.record.len() as u64);
    }
    let params = params();
    let backend = SequentialBackend::new(Workspace::build(params.clone(), seed));
    let specs: Vec<_> = OpKind::ALL
        .iter()
        .map(|&op| access_spec(op, params.assembly_levels))
        .collect();
    let mut ctx = OpCtx::new(params, seed);
    let mut regenerated = History::new(seed);
    let mut server_digest = DIGEST_SEED;
    for recorded in &history.record {
        let req = regenerated.next();
        let replayed = backend.execute(&specs[req.op.index()], &mut Replay { req, ctx: &mut ctx });
        match recorded {
            Some(outcome) => {
                server_digest = fold(server_digest, &WireOutcome::from(*outcome));
                if *outcome != replayed {
                    failed += 1;
                }
            }
            None => failed += 1,
        }
    }
    if server_digest != history.digest {
        eprintln!("the server's record differs from the outcomes the client received");
        failed = failed.max(1);
    }
    validate(&backend.export()).map_err(|e| format!("replayed structure invalid: {e}"))?;
    Ok(failed)
}

/// One launch: build the structure, serve it and drive it for
/// `warmup + measure`. Setup runs from the start of the build to the
/// first response.
struct Launch {
    backend: AnyBackend,
    history: History,
    drive: Drive,
    setup_s: f64,
    build_s: f64,
}

fn launch(
    args: &Args,
    cfg: &ServeConfig,
    warmup: Duration,
    measure: Duration,
) -> Result<Launch, String> {
    let choice = BackendChoice::parse("medium").expect("strategy is in the catalog");
    let t0 = Instant::now();
    let ws = Workspace::build(params(), args.seed);
    let build_s = t0.elapsed().as_secs_f64();
    let backend = AnyBackend::build(choice, ws);
    let mut history = History::new(args.seed);
    let (drive, _) = serve_phase(&backend, cfg, &mut history, warmup, measure)?;
    Ok(Launch {
        setup_s: (drive.ready - t0).as_secs_f64(),
        build_s,
        backend,
        history,
        drive,
    })
}

pub fn run(args: &Args) -> Outcome {
    match run_checked(args) {
        Ok(outcome) => outcome,
        Err(msg) => Outcome {
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            error: Some(msg),
        },
    }
}

fn run_checked(args: &Args) -> Result<Outcome, String> {
    let cfg = serve_config(args.seed);
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut failed = 0;
    // Throwaway launches answer only the probe. Half of them run before
    // the measured launch and half after it, so the setup median samples
    // the host at both ends of the run.
    let mut throwaway = || -> Result<u64, String> {
        let l = launch(args, &cfg, Duration::ZERO, Duration::ZERO)?;
        setups.push(l.setup_s);
        builds.push(l.build_s);
        verify(args.seed, &l.history)
    };
    for _ in 0..SETUP_REPS / 2 {
        failed += throwaway()?;
    }
    let Launch {
        backend,
        mut history,
        drive,
        setup_s,
        build_s,
    } = launch(args, &cfg, args.warmup(), args.measure())?;
    let peak_rss_mb = host::peak_rss_mb();
    for _ in 0..SETUP_REPS / 2 {
        failed += throwaway()?;
    }
    setups.push(setup_s);
    builds.push(build_s);
    if drive.measured == 0 {
        return Err("no request completed in the measured window".into());
    }
    let ops_per_s = rate_estimate(&drive.per_slice(|s| (s.steal_s, s.rate)));
    eprintln!(
        "wire_pipelined: median of {} setups {:.6} s; {} requests measured; op/s@steal per slice {:.2?}",
        setups.len(),
        median(&setups),
        drive.measured,
        drive.per_slice(|s| (s.rate, s.steal_s))
    );
    eprintln!(
        "rtt: exact percentiles per {} ms slice of ~{} samples, median over the least-stolen half of {} slices",
        SLICE.as_millis(),
        drive.measured / drive.slices.len().max(1) as u64,
        drive.slices.len()
    );

    let metrics = if args.trace {
        let tracer = Traced::new(&backend);
        let (traced, report) =
            serve_phase(&tracer, &cfg, &mut history, args.warmup(), args.measure())?;
        let spans = tracer.into_spans();
        if let Some(dir) = &args.spans_dir {
            write_spans(dir, "wire_pipelined", &spans);
        }
        layers(
            &traced,
            &report,
            &Totals::of(&spans),
            median(&builds),
            ops_per_s,
        )
        .into_metrics()
    } else {
        vec![
            Metric {
                name: "ops_per_s",
                value: ops_per_s,
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: median(&setups),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb,
                unit: "MiB",
            },
            Metric {
                name: "rtt_p50_us",
                value: drive.quiet_median_of(|s| s.pct[0].0),
                unit: "us",
            },
            Metric {
                name: "rtt_p99_us",
                value: drive.quiet_median_of(|s| s.pct[0].1),
                unit: "us",
            },
        ]
    };

    let fails = history
        .record
        .iter()
        .filter(|o| matches!(o, Some(OpOutcome::Fail(_))))
        .count();
    eprintln!(
        "{} requests served, {fails} designed Fail outcomes ({:.1}%)",
        history.sent,
        100.0 * ratio(fails as f64, history.sent as f64)
    );
    failed += verify(args.seed, &history)?;
    eprintln!("replay: {failed} requests without a valid outcome");
    validate(&backend.export()).map_err(|e| format!("served structure invalid: {e}"))?;
    Ok(Outcome {
        attempted: history.sent,
        failed,
        metrics,
        error: (failed > 0).then(|| format!("{failed} requests without a valid outcome")),
    })
}

/// The per-layer sheet of the traced phase, with the mean round-trip
/// budget printed: transport + queue wait + service = RTT.
fn layers(
    drive: &Drive,
    report: &Report,
    t: &Totals,
    build_s: f64,
    untraced_ops_per_s: f64,
) -> LayerSheet {
    let n = drive.measured as f64;
    let [rtt, queue, service] = drive.sums.map(|ns| ns as f64 / 1e3 / n);
    let transport = rtt - queue - service;
    eprintln!(
        "budget (us/request, mean of {}): rtt {rtt:.3} = transport {transport:.3} + queue wait {queue:.3} + service {service:.3}",
        drive.measured
    );
    let traced_ops_per_s = rate_estimate(&drive.per_slice(|s| (s.steal_s, s.rate)));
    eprintln!(
        "tracing overhead: {traced_ops_per_s:.1} op/s traced vs {untraced_ops_per_s:.1} untraced"
    );

    // Server-side layers over every request of the traced phase; the
    // worker is the only thread calling `execute`.
    let ops = drive.requests as f64;
    let per_op = |ns: u64| ns as f64 / 1e3 / ops;
    let mut sheet = LayerSheet::new();
    sheet.set("core.body_us_per_op", per_op(t.body_ns));
    sheet.set("core.driver_us_per_op", per_op(t.gap_ns));
    sheet.set(
        "core.attempts_per_op",
        ratio(t.attempts as f64, t.spans as f64),
    );
    let worker_ns = report.elapsed.as_nanos() as f64;
    sheet.set(
        "core.budget_residual_us_per_op",
        (worker_ns - t.covered_ns as f64) / 1e3 / ops,
    );
    sheet.set("backend.sync_us_per_op", per_op(t.exec_ns - t.body_ns));
    if let Some(c) = &report.contention {
        sheet.set("backend.lock_wait_us_per_op", per_op(c.lock_wait_ns));
        sheet.set(
            "backend.lock_acquires_per_op",
            ratio(c.lock_acquires as f64, ops),
        );
        sheet.set(
            "backend.lock_contended_ratio",
            ratio(c.lock_contended as f64, c.lock_acquires as f64),
        );
    }
    sheet.set("data.build_s", build_s);
    sheet.set("service.queue_wait_p50_us", drive.median_of(|s| s.pct[1].0));
    sheet.set("service.queue_wait_p99_us", drive.median_of(|s| s.pct[1].1));
    sheet.set("service.service_p50_us", drive.median_of(|s| s.pct[2].0));
    sheet.set("service.service_p99_us", drive.median_of(|s| s.pct[2].1));
    if let Some(svc) = &report.service {
        sheet.set(
            "service.batch_mean",
            ratio(svc.offered as f64, svc.batches as f64),
        );
        sheet.set(
            "service.worker_busy_share",
            ratio(svc.busy_ns as f64, (svc.busy_ns + svc.idle_ns) as f64),
        );
    }
    sheet.set("net.transport_p50_us", drive.median_of(|s| s.pct[3].0));
    sheet.set("net.transport_p99_us", drive.median_of(|s| s.pct[3].1));
    sheet.set("net.bytes_per_op", ratio(drive.bytes as f64, ops));
    sheet.set(
        "trace.overhead_share",
        1.0 - ratio(traced_ops_per_s, untraced_ops_per_s),
    );
    sheet
}
