//! The `bat serve` daemon: many concurrent tuning sessions, one machine.
//!
//! ## Lifecycle
//!
//! A [`Daemon`] owns the process-wide evaluation resources: the fair
//! scheduler gating the measurement worker pool, the session id source and
//! the shutdown flag. Connections arrive either over TCP ([`Daemon::serve`])
//! or in-process over the loopback transport ([`Daemon::connect_loopback`]).
//! Each connection gets one thread, which reads a request, answers it and
//! reads the next; the session opened on the connection — its problem and
//! [`Evaluator`] — lives on that same thread.
//!
//! ## Session model
//!
//! A connection holds at most one session at a time: `open` allocates a
//! daemon-unique id, `eval` batches are evaluated in arrival order on the
//! connection thread, and `close` returns the final statistics, after which
//! the connection may open a new session. A second `open` while a session
//! is live is refused with a `session` error. When a connection drops, its
//! session is torn down with it — resumability lives a layer up, in the
//! campaign checkpoint artifacts, which a reconnecting client replays to
//! skip already-completed trials.
//!
//! ## Fairness
//!
//! At most [`ServerConfig::max_concurrent_batches`] batches evaluate at
//! once, granted in round-robin arrival order across sessions (see
//! [`FairScheduler`]). The daemon keeps no request queue of its own: a
//! client that pipelines batches without reading the answers stalls only
//! its own connection, bounded by the transport's flow control.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bat_cache::CacheIndex;
use bat_core::{Error, EvalBackend, Evaluator, TuningProblem};

use crate::codec;
use crate::duplex::{duplex, DuplexStream};
use crate::scheduler::FairScheduler;
use crate::wire::{
    CacheResult, Closed, ErrorResponse, EvalBatch, Evaluated, OpenSession, Opened, Request,
    Response,
};

/// Tunable limits of one daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Batches evaluating concurrently across all sessions (fair
    /// round-robin beyond that).
    pub max_concurrent_batches: usize,
    /// Seconds between heartbeat lines on stderr (sessions open, evals/s
    /// since the last beat). `0` disables the heartbeat — the default, so
    /// embedded daemons (tests, loopback) stay silent.
    pub heartbeat_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_concurrent_batches: 4,
            heartbeat_secs: 0,
        }
    }
}

/// Observability handles for the daemon. Telemetry only — scheduling
/// behaviour is driven by the config, never by these.
struct ServeMetrics {
    sessions_open: &'static bat_obs::metrics::Gauge,
    sessions_total: &'static bat_obs::metrics::Counter,
    requests: &'static bat_obs::metrics::Counter,
}

fn obs() -> &'static ServeMetrics {
    use bat_obs::metrics::{counter, gauge};
    static M: std::sync::OnceLock<ServeMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| ServeMetrics {
        sessions_open: gauge("bat_serve_sessions_open", "Sessions currently open."),
        sessions_total: counter("bat_serve_sessions_total", "Sessions opened since start."),
        requests: counter("bat_serve_requests_total", "Wire requests decoded."),
    })
}

/// Daemon-wide shared state.
struct Shared {
    scheduler: FairScheduler,
    next_session: AtomicU64,
    shutdown: AtomicBool,
    /// Loaded `bat/cache/v1` index answering `cache_lookup` requests.
    /// Lock-free reads: every connection thread shares one immutable
    /// snapshot, so lookups never contend with evaluation.
    cache: Option<Arc<CacheIndex>>,
}

/// A tuning daemon hosting concurrent evaluation sessions.
pub struct Daemon {
    shared: Arc<Shared>,
}

impl Daemon {
    /// A daemon with the given limits. A nonzero
    /// [`ServerConfig::heartbeat_secs`] starts the heartbeat thread, which
    /// lives until the daemon is dropped or shut down.
    pub fn new(config: ServerConfig) -> Daemon {
        Daemon::build(config, None)
    }

    /// A daemon that additionally serves `cache_lookup` requests from the
    /// given pre-built lock-free index (a cache loaded at startup by
    /// `bat serve --cache`). Without one, lookups answer a miss.
    pub fn with_cache(config: ServerConfig, cache: Arc<CacheIndex>) -> Daemon {
        Daemon::build(config, Some(cache))
    }

    fn build(config: ServerConfig, cache: Option<Arc<CacheIndex>>) -> Daemon {
        let daemon = Daemon {
            shared: Arc::new(Shared {
                scheduler: FairScheduler::new(config.max_concurrent_batches),
                next_session: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                cache,
            }),
        };
        if config.heartbeat_secs > 0 {
            let weak = Arc::downgrade(&daemon.shared);
            let period = std::time::Duration::from_secs(config.heartbeat_secs);
            std::thread::spawn(move || heartbeat_loop(weak, period));
        }
        daemon
    }

    /// True once a client sent `shutdown`.
    pub fn shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Open an in-process (loopback) connection to this daemon: the
    /// returned stream speaks the real `bat/wire/v1` codec to a connection
    /// thread, exercising every serialization boundary of the remote path
    /// without a socket.
    pub fn connect_loopback(&self) -> DuplexStream {
        let (client, mut server) = duplex();
        let shared = Arc::clone(&self.shared);
        std::thread::spawn(move || serve_connection(&shared, &mut server, None));
        client
    }

    /// Accept TCP connections until a client sends `shutdown`.
    pub fn serve(&self, listener: TcpListener) -> Result<(), Error> {
        listener.set_nonblocking(true).map_err(Error::io)?;
        loop {
            if self.shutting_down() {
                return Ok(());
            }
            match listener.accept() {
                Ok((mut stream, _peer)) => {
                    stream.set_nonblocking(false).map_err(Error::io)?;
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || serve_connection(&shared, &mut stream, None));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(e) => return Err(Error::transport(e)),
            }
        }
    }
}

/// One heartbeat line from the current registry readings and the previous
/// beat's evaluation total. Factored out of the thread so the format is
/// testable.
fn heartbeat_line(prev_evals: u64, secs: f64) -> (String, u64) {
    let sessions = bat_obs::metrics::gauge_value("bat_serve_sessions_open").unwrap_or(0);
    let evals = bat_obs::metrics::counter_value("bat_eval_evals_total").unwrap_or(0);
    let rate = if secs > 0.0 {
        (evals.saturating_sub(prev_evals)) as f64 / secs
    } else {
        0.0
    };
    let line = format!("bat serve: heartbeat sessions={sessions} evals/s={rate:.1}");
    (line, evals)
}

/// Heartbeat thread body: one line per period on stderr, exiting when the
/// daemon is dropped or shut down. Sleeps in short steps so exit latency
/// stays bounded regardless of the period.
fn heartbeat_loop(shared: std::sync::Weak<Shared>, period: std::time::Duration) {
    let step = std::time::Duration::from_millis(200);
    let mut prev_evals = bat_obs::metrics::counter_value("bat_eval_evals_total").unwrap_or(0);
    loop {
        let beat_started = std::time::Instant::now();
        while beat_started.elapsed() < period {
            std::thread::sleep(step.min(period));
            match shared.upgrade() {
                None => return,
                Some(s) if s.shutdown.load(Ordering::SeqCst) => return,
                Some(_) => {}
            }
        }
        let (line, evals) = heartbeat_line(prev_evals, beat_started.elapsed().as_secs_f64());
        eprintln!("{line}");
        prev_evals = evals;
    }
}

/// Serialize one response onto the connection. Write failures mean the
/// client hung up; the next read notices, so they are ignored here.
fn respond<W: Write>(conn: &mut W, resp: Response) {
    let _ = codec::write_response(conn, resp);
}

fn session_error(session: Option<u64>, error: Error) -> Response {
    Response::Error(ErrorResponse { session, error })
}

/// One connection's request loop: read a request, answer it, read the next.
/// `live` is the session open on the connection, if any — `open` recurses
/// into this loop with it, so every message is dispatched here.
///
/// Returns `true` when the live session was closed and the connection is
/// still up, `false` once the connection is gone.
fn serve_connection<S: Read + Write>(
    shared: &Shared,
    conn: &mut S,
    live: Option<(u64, &Evaluator<'_>)>,
) -> bool {
    loop {
        let req = match codec::read_request(conn) {
            Ok(req) => req,
            // Disconnect or an undecodable frame: report what we can and
            // stop; returning tears the live session down.
            Err(Error::Transport(_)) => return false,
            Err(e) => {
                respond(conn, session_error(None, e));
                return false;
            }
        };
        obs().requests.inc();
        let resp = match req {
            Request::Ping => Response::Pong,
            Request::Metrics => Response::Metrics(crate::wire::MetricsReport {
                text: bat_obs::metrics::render_prometheus(),
            }),
            Request::CacheLookup(q) => {
                // The index records its own lookup counters; a daemon
                // without a cache still records the (necessarily missed)
                // lookup so hit rates stay honest.
                let cell = match shared.cache.as_ref() {
                    Some(ix) => ix
                        .lookup(&q.benchmark, &q.architecture, &q.scenario)
                        .cloned(),
                    None => {
                        bat_cache::record_lookup(false);
                        None
                    }
                };
                Response::CacheResult(CacheResult { cell })
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                Response::ShuttingDown
            }
            Request::Open(open) => match live {
                Some((id, _)) => session_error(
                    Some(id),
                    Error::session(format!(
                        "this connection already holds session {id}; close it first"
                    )),
                ),
                None => {
                    if open_session(shared, conn, &open) {
                        continue;
                    }
                    return false;
                }
            },
            Request::Eval(EvalBatch { session, indices }) => match live {
                Some((id, eval)) if id == session => {
                    // The fair scheduler grants this batch its turn; the
                    // budget itself is charged inside `evaluate_batch`'s
                    // single CAS claim, so per-session budgets hold exactly
                    // no matter how turns interleave.
                    let outcomes = shared.scheduler.run(|| eval.evaluate_batch(&indices));
                    Response::Evaluated(Evaluated {
                        session,
                        outcomes,
                        stats: EvalBackend::stats(eval),
                        budget_left: eval.budget_left(),
                    })
                }
                _ => session_error(Some(session), Error::session("unknown session id")),
            },
            Request::Close(close) => match live {
                Some((id, eval)) if id == close.session => {
                    respond(
                        conn,
                        Response::Closed(Closed {
                            session: id,
                            stats: EvalBackend::stats(eval),
                        }),
                    );
                    return true;
                }
                _ => session_error(Some(close.session), Error::session("unknown session id")),
            },
        };
        respond(conn, resp);
    }
}

/// Open the session `open` describes and serve the connection with it live
/// until `close` (returns `true`) or disconnect (`false`). A session that
/// cannot be built is answered with its error and leaves the connection up.
fn open_session<S: Read + Write>(shared: &Shared, conn: &mut S, open: &OpenSession) -> bool {
    let id = shared.next_session.fetch_add(1, Ordering::SeqCst) + 1;
    let base = match open.problem() {
        Ok(base) => base,
        Err(e) => {
            respond(conn, session_error(Some(id), e));
            return true;
        }
    };
    // Blended objectives wrap the problem exactly as the in-process
    // campaign path does, so names, noise salts and therefore artifacts
    // agree byte for byte.
    match open.scalarization {
        None => run_session(&base, shared, conn, id, open),
        Some(s) => {
            let blended = bat_moo::Scalarized::new(base, s.into());
            run_session(&blended, shared, conn, id, open)
        }
    }
}

/// Validate the session's protocol (the same check campaign specs pass),
/// build its evaluator, answer `opened`, then serve the connection with
/// the session live.
fn run_session<S: Read + Write>(
    problem: &dyn TuningProblem,
    shared: &Shared,
    conn: &mut S,
    id: u64,
    open: &OpenSession,
) -> bool {
    let protocol = open.protocol();
    if let Err(e) = protocol.validate() {
        respond(conn, session_error(Some(id), e));
        return true;
    }
    let mut eval = Evaluator::with_protocol(problem, protocol);
    if let Some(budget) = open.budget {
        eval = eval.with_budget(budget);
    }
    if open.energy {
        eval = eval.with_energy();
    }
    if let Some(wf) = open.faults {
        let (model, policy) = wf.into();
        eval = eval.with_faults(model, policy);
    }
    // Open-session gauge, decremented however the session ends (close,
    // connection drop, panic unwind).
    struct OpenGuard;
    impl Drop for OpenGuard {
        fn drop(&mut self) {
            obs().sessions_open.sub(1);
        }
    }
    obs().sessions_open.add(1);
    obs().sessions_total.inc();
    let _open = OpenGuard;
    respond(
        conn,
        Response::Opened(Opened {
            session: id,
            problem: problem.name().to_string(),
            platform: problem.platform().to_string(),
            budget_left: eval.budget_left(),
        }),
    );
    serve_connection(shared, conn, Some((id, &eval)))
}
