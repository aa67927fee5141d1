//! # bat-server
//!
//! Tuning-as-a-service for the suite: a long-running daemon that hosts
//! many concurrent tuning sessions behind the `bat/wire/v1` protocol —
//! length-prefixed JSON frames carrying session open/close, evaluation
//! batches and budget/statistics accounting — plus the client-side
//! [`RemoteBackend`] implementing [`bat_core::EvalBackend`] over that
//! wire.
//!
//! Three deployment shapes share one contract:
//!
//! * **in-process** — `bat_core::Evaluator` used directly (no server);
//! * **loopback** — [`Daemon::connect_loopback`]: client and server in one
//!   process over the real codec (an in-memory [`duplex`] stream);
//! * **remote** — [`RemoteBackend::connect`] over TCP to a
//!   [`Daemon::serve`] instance.
//!
//! Because every shape runs the same shared ask/tell driver against the
//! same evaluator semantics (single-claim budgets, memoization, retry and
//! quarantine), campaign artifacts are byte-identical across all three —
//! which CI verifies.

#![warn(missing_docs)]

mod client;
pub mod codec;
mod daemon;
mod duplex;
mod metrics_http;
mod scheduler;
pub mod wire;

pub use client::RemoteBackend;
pub use daemon::{Daemon, ServerConfig};
pub use duplex::{duplex, DuplexStream};
pub use metrics_http::spawn_metrics_endpoint;
pub use scheduler::FairScheduler;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{CloseSession, EvalBatch, OpenSession, Request, Response};
    use bat_core::{EvalBackend, Evaluator, Protocol, TuningProblem};
    use bat_gpusim::GpuArch;
    use bat_tuners::Tuner;
    use std::io::Write;

    fn open_spec(budget: u64) -> OpenSession {
        let mut open = OpenSession::new("gemm", "RTX 3090", Protocol::default());
        open.budget = Some(budget);
        open
    }

    #[test]
    fn loopback_session_matches_in_process_byte_for_byte() {
        let daemon = Daemon::new(ServerConfig::default());
        let backend = RemoteBackend::open(daemon.connect_loopback(), open_spec(10)).unwrap();

        let problem = bat_kernels::benchmark("gemm", GpuArch::rtx_3090()).unwrap();
        let native = Evaluator::with_protocol(&problem, Protocol::default()).with_budget(10);

        assert_eq!(backend.problem_name(), problem.name());
        assert_eq!(backend.platform(), problem.platform());
        assert_eq!(backend.space().cardinality(), problem.space().cardinality());

        let indices = [0u64, 17, 17, 4242, 9];
        let remote = backend.evaluate_batch(&indices).unwrap();
        let local = Evaluator::evaluate_batch(&native, &indices);
        assert_eq!(remote, local);
        // Serialized forms agree byte for byte (the artifact argument).
        for (r, l) in remote.iter().zip(&local) {
            assert_eq!(
                serde_json::to_string(r).unwrap(),
                serde_json::to_string(l).unwrap()
            );
        }
        assert_eq!(backend.evals_used(), native.evals_used());
        assert_eq!(backend.distinct_evals(), native.distinct_evals());
        assert_eq!(backend.budget_left(), native.budget_left());

        let stats = backend.close().unwrap();
        assert_eq!(stats.evals, 5);
    }

    #[test]
    fn budget_truncates_mid_batch_like_in_process() {
        let daemon = Daemon::new(ServerConfig::default());
        let backend = RemoteBackend::open(daemon.connect_loopback(), open_spec(3)).unwrap();
        let out = backend.evaluate_batch(&[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(out.len(), 3, "budget of 3 affords exactly 3 of 5");
        assert!(!backend.has_budget());
        assert_eq!(backend.budget_left(), Some(0));
        let out = backend.evaluate_batch(&[6]).unwrap();
        assert!(out.is_empty(), "exhausted budget evaluates nothing");
    }

    #[test]
    fn tuner_over_loopback_matches_in_process_run() {
        let daemon = Daemon::new(ServerConfig::default());
        let mut open = OpenSession::new("pnpoly", "RTX 3090", Protocol::default().with_batch(4));
        open.budget = Some(24);
        let backend = RemoteBackend::open(daemon.connect_loopback(), open).unwrap();

        let tuner = bat_tuners::RandomSearch;
        let remote_run = tuner.try_tune(&backend, 7).unwrap();

        let problem = bat_kernels::benchmark("pnpoly", GpuArch::rtx_3090()).unwrap();
        let eval =
            Evaluator::with_protocol(&problem, Protocol::default().with_batch(4)).with_budget(24);
        let local_run = tuner.tune(&eval, 7);

        assert_eq!(
            serde_json::to_string(&remote_run).unwrap(),
            serde_json::to_string(&local_run).unwrap()
        );
    }

    #[test]
    fn concurrent_sessions_respect_their_own_budgets() {
        let daemon = Daemon::new(ServerConfig {
            max_concurrent_batches: 2,
            heartbeat_secs: 0,
        });
        let budgets = [5u64, 9, 13, 17, 21];
        let threads: Vec<_> = budgets
            .into_iter()
            .map(|budget| {
                let conn = daemon.connect_loopback();
                std::thread::spawn(move || {
                    let backend = RemoteBackend::open(conn, open_spec(budget)).unwrap();
                    let mut total = 0u64;
                    while backend.has_budget() {
                        total += backend.evaluate_batch(&[total, total + 1]).unwrap().len() as u64;
                    }
                    let stats = backend.close().unwrap();
                    (budget, total, stats.evals)
                })
            })
            .collect();
        for t in threads {
            let (budget, evaluated, reported) = t.join().unwrap();
            assert_eq!(evaluated, budget, "session spent exactly its budget");
            assert_eq!(reported, budget);
        }
    }

    /// Open a session on a raw connection, returning its id.
    fn open_raw(conn: &mut DuplexStream, open: OpenSession) -> u64 {
        codec::write_request(conn, Request::Open(open)).unwrap();
        match codec::read_response(conn).unwrap() {
            Response::Opened(opened) => opened.session,
            other => panic!("expected opened, got {other:?}"),
        }
    }

    #[test]
    fn pipelined_batches_are_answered_in_order() {
        let daemon = Daemon::new(ServerConfig {
            max_concurrent_batches: 1,
            heartbeat_secs: 0,
        });
        let mut conn = daemon.connect_loopback();
        let session = open_raw(&mut conn, open_spec(1_000));
        // Write every batch before reading any answer: the daemon keeps no
        // queue of its own, so each must still be answered, in order.
        let batches: Vec<Vec<u64>> = (0..12u64)
            .map(|b| (0..64).map(|i| (b * 37 + i * 11) % 4096).collect())
            .collect();
        for indices in &batches {
            let eval = EvalBatch {
                session,
                indices: indices.clone(),
            };
            codec::write_request(&mut conn, Request::Eval(eval)).unwrap();
        }
        let problem = bat_kernels::benchmark("gemm", GpuArch::rtx_3090()).unwrap();
        let native = Evaluator::with_protocol(&problem, Protocol::default()).with_budget(1_000);
        for indices in &batches {
            let Response::Evaluated(ev) = codec::read_response(&mut conn).unwrap() else {
                panic!("expected evaluated");
            };
            assert_eq!(ev.session, session);
            assert_eq!(ev.outcomes, Evaluator::evaluate_batch(&native, indices));
            assert_eq!(ev.budget_left, native.budget_left());
        }
    }

    #[test]
    fn a_connection_holds_one_session_at_a_time() {
        let daemon = Daemon::new(ServerConfig::default());
        let mut conn = daemon.connect_loopback();
        let first = open_raw(&mut conn, open_spec(5));
        codec::write_request(&mut conn, Request::Open(open_spec(5))).unwrap();
        let Response::Error(e) = codec::read_response(&mut conn).unwrap() else {
            panic!("expected error");
        };
        assert!(
            matches!(e.error, bat_core::Error::Session(_)),
            "{:?}",
            e.error
        );
        // The refused open left the first session live.
        let eval = EvalBatch {
            session: first,
            indices: vec![0],
        };
        codec::write_request(&mut conn, Request::Eval(eval)).unwrap();
        assert!(matches!(
            codec::read_response(&mut conn).unwrap(),
            Response::Evaluated(_)
        ));
        codec::write_request(&mut conn, Request::Close(CloseSession { session: first })).unwrap();
        assert!(matches!(
            codec::read_response(&mut conn).unwrap(),
            Response::Closed(_)
        ));
        // After close, the same connection opens a fresh session.
        let second = open_raw(&mut conn, open_spec(5));
        assert_ne!(second, first);
    }

    #[test]
    fn a_deeply_nested_frame_does_not_take_the_daemon_down() {
        let daemon = Daemon::new(ServerConfig::default());
        let mut hostile = daemon.connect_loopback();
        let payload = "[".repeat(400_000);
        hostile
            .write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        hostile.write_all(payload.as_bytes()).unwrap();
        let Response::Error(e) = codec::read_response(&mut hostile).unwrap() else {
            panic!("expected error");
        };
        assert!(matches!(e.error, bat_core::Error::Wire(_)), "{:?}", e.error);
        let mut conn = daemon.connect_loopback();
        codec::write_request(&mut conn, Request::Ping).unwrap();
        assert_eq!(codec::read_response(&mut conn).unwrap(), Response::Pong);
    }

    #[test]
    fn a_huge_string_frame_does_not_take_the_daemon_down() {
        // A 4 MiB JSON string is a well-formed document but no request. The
        // parser is linear in the frame, so the refusal comes back quickly.
        let daemon = Daemon::new(ServerConfig::default());
        let mut hostile = daemon.connect_loopback();
        let payload = format!("\"{}\"", "x".repeat(4 << 20));
        let start = std::time::Instant::now();
        hostile
            .write_all(&(payload.len() as u32).to_be_bytes())
            .unwrap();
        hostile.write_all(payload.as_bytes()).unwrap();
        let Response::Error(e) = codec::read_response(&mut hostile).unwrap() else {
            panic!("expected error");
        };
        let elapsed = start.elapsed();
        assert!(matches!(e.error, bat_core::Error::Wire(_)), "{:?}", e.error);
        assert!(elapsed.as_secs() < 20, "took {elapsed:?}");
        let mut conn = daemon.connect_loopback();
        codec::write_request(&mut conn, Request::Ping).unwrap();
        assert_eq!(codec::read_response(&mut conn).unwrap(), Response::Pong);
    }

    #[test]
    fn an_announced_max_frame_that_never_arrives_does_not_take_the_daemon_down() {
        // The peer announces the largest legal frame, sends 1 KiB and hangs
        // up. The connection thread sees a truncated frame (a transport
        // error, so it just ends the connection) and the daemon serves on.
        let daemon = Daemon::new(ServerConfig::default());
        let mut hostile = daemon.connect_loopback();
        hostile
            .write_all(&(codec::MAX_FRAME as u32).to_be_bytes())
            .unwrap();
        hostile.write_all(&[b' '; 1024]).unwrap();
        drop(hostile);
        let mut conn = daemon.connect_loopback();
        codec::write_request(&mut conn, Request::Ping).unwrap();
        assert_eq!(codec::read_response(&mut conn).unwrap(), Response::Pong);
    }

    #[test]
    fn unknown_session_and_benchmark_are_typed_errors() {
        let daemon = Daemon::new(ServerConfig::default());
        let mut conn = daemon.connect_loopback();
        codec::write_request(
            &mut conn,
            Request::Eval(EvalBatch {
                session: 999,
                indices: vec![0],
            }),
        )
        .unwrap();
        let Response::Error(e) = codec::read_response(&mut conn).unwrap() else {
            panic!("expected error");
        };
        assert!(matches!(e.error, bat_core::Error::Session(_)));

        let mut open = open_spec(1);
        open.benchmark = "no-such-kernel".into();
        codec::write_request(&mut conn, Request::Open(open)).unwrap();
        let Response::Error(e) = codec::read_response(&mut conn).unwrap() else {
            panic!("expected error");
        };
        assert!(matches!(e.error, bat_core::Error::Spec(_)));
    }

    #[test]
    fn invalid_protocols_are_refused_at_open() {
        // The daemon checks protocols with the same `Protocol::validate`
        // as campaign specs; a refused open leaves the connection usable.
        let daemon = Daemon::new(ServerConfig::default());
        let mut conn = daemon.connect_loopback();
        let mut zero_runs = open_spec(5);
        zero_runs.runs = 0;
        let mut negative_sigma = open_spec(5);
        negative_sigma.sigma = -0.5;
        for (field, bad) in [("runs", zero_runs), ("sigma", negative_sigma)] {
            codec::write_request(&mut conn, Request::Open(bad)).unwrap();
            let Response::Error(e) = codec::read_response(&mut conn).unwrap() else {
                panic!("expected error");
            };
            match e.error {
                bat_core::Error::Spec(msg) => assert!(msg.contains(field), "{msg}"),
                other => panic!("expected a spec error, got {other:?}"),
            }
        }
        open_raw(&mut conn, open_spec(5));
    }

    #[test]
    fn cache_lookup_serves_loaded_cells_and_misses_cleanly() {
        let scenario = "objective=time;budget=40;runs=3;sigma=0.01;noise_seed=0;batch=1";
        let mut store = bat_cache::CacheStore::new();
        store.observe(
            "gemm",
            "RTX 3090",
            scenario,
            &std::collections::BTreeMap::from([("block_size_x".to_string(), 128)]),
            0.75,
            None,
        );
        let index = std::sync::Arc::new(bat_cache::CacheIndex::build(&store));
        let daemon = Daemon::with_cache(ServerConfig::default(), index);
        let mut conn = daemon.connect_loopback();

        let lookup = |conn: &mut DuplexStream, benchmark: &str| {
            codec::write_request(
                conn,
                Request::CacheLookup(wire::CacheLookup {
                    benchmark: benchmark.into(),
                    architecture: "RTX 3090".into(),
                    scenario: scenario.into(),
                }),
            )
            .unwrap();
            let Response::CacheResult(res) = codec::read_response(conn).unwrap() else {
                panic!("expected cache_result");
            };
            res.cell
        };

        let hit = lookup(&mut conn, "gemm").expect("loaded cell must hit");
        assert_eq!(hit.best().unwrap().ms, 0.75);
        assert_eq!(hit.best().unwrap().config["block_size_x"], 128);
        assert!(lookup(&mut conn, "nbody").is_none(), "unknown key misses");

        // A daemon without a cache answers every lookup with a miss.
        let bare = Daemon::new(ServerConfig::default());
        let mut conn = bare.connect_loopback();
        assert!(lookup(&mut conn, "gemm").is_none());
    }

    #[test]
    fn ping_and_shutdown_round_trip() {
        let daemon = Daemon::new(ServerConfig::default());
        let mut conn = daemon.connect_loopback();
        codec::write_request(&mut conn, Request::Ping).unwrap();
        assert_eq!(codec::read_response(&mut conn).unwrap(), Response::Pong);
        assert!(!daemon.shutting_down());
        codec::write_request(&mut conn, Request::Shutdown).unwrap();
        assert_eq!(
            codec::read_response(&mut conn).unwrap(),
            Response::ShuttingDown
        );
        assert!(daemon.shutting_down());
    }

    #[test]
    fn tcp_session_matches_loopback() {
        let daemon = std::sync::Arc::new(Daemon::new(ServerConfig::default()));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        {
            let daemon = std::sync::Arc::clone(&daemon);
            std::thread::spawn(move || daemon.serve(listener).unwrap());
        }
        let tcp = RemoteBackend::connect(&addr, open_spec(6)).unwrap();
        let loopback = RemoteBackend::open(daemon.connect_loopback(), open_spec(6)).unwrap();
        let indices = [3u64, 1, 4, 1, 5, 9];
        assert_eq!(
            tcp.evaluate_batch(&indices).unwrap(),
            loopback.evaluate_batch(&indices).unwrap()
        );
        assert_eq!(tcp.close().unwrap(), loopback.close().unwrap());
        // Ask the daemon to stop so the serve thread exits.
        let mut conn = daemon.connect_loopback();
        codec::write_request(&mut conn, Request::Shutdown).unwrap();
        let _ = codec::read_response(&mut conn);
    }
}
