//! Integration test of the timing-query daemon: a real TCP server on an
//! ephemeral port, concurrent clients, and bit-for-bit parity between
//! remote answers and an in-process timer built from the same
//! configuration.

use nsigma_cells::CellLibrary;
use nsigma_core::sta::TimerConfig;
use nsigma_core::{MergeRule, NsigmaTimer, TimingSession, YieldCurve};
use nsigma_mc::design::Design;
use nsigma_netlist::generators::random_dag::Iscas85;
use nsigma_netlist::mapping::map_to_cells;
use nsigma_netlist::{k_longest_paths_by, Path};
use nsigma_process::Technology;
use nsigma_server::protocol::MAX_RANKED_PATHS;
use nsigma_server::{
    Client, Request, Server, ServerConfig, ServerHandle, Value, MAX_REQUEST_BYTES,
};
use nsigma_stats::quantile::{QuantileSet, SigmaLevel};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SEED: u64 = 11;
const PARASITIC_SEED: u64 = 7;

/// The shared timer configuration: small enough for a test, and built
/// identically on both sides so answers must agree to the last bit.
fn timer_config() -> TimerConfig {
    let mut cfg = TimerConfig::standard(SEED);
    cfg.char_samples = 300;
    cfg.wire.nets = 1;
    cfg.wire.samples = 200;
    cfg
}

/// The same design the server generates for
/// `{"iscas":"c432","seed":PARASITIC_SEED}`.
fn local_design(tech: &Technology, lib: &CellLibrary) -> Design {
    let netlist = map_to_cells(&Iscas85::C432.generate(), lib).expect("mapping");
    Design::with_generated_parasitics(tech.clone(), lib.clone(), netlist, PARASITIC_SEED)
}

/// The server's worst-path ranking (same as `report_worst_paths`).
fn ranked_paths(design: &Design, k: usize) -> Vec<Path> {
    let weights: Vec<f64> = design
        .netlist
        .gate_ids()
        .map(|g| {
            let gate = design.netlist.gate(g);
            let cell = design.lib.cell(gate.cell);
            nsigma_cells::timing::nominal_arc(
                &design.tech,
                cell,
                20e-12,
                design.stage_effective_load(gate.output),
            )
            .delay
        })
        .collect();
    k_longest_paths_by(&design.netlist, |g| weights[g.index()], k)
}

fn quantile_array(v: &Value) -> [f64; 7] {
    let arr = v.as_arr().expect("quantiles must be an array");
    assert_eq!(arr.len(), 7);
    let mut out = [0.0; 7];
    for (o, v) in out.iter_mut().zip(arr) {
        *o = v.as_f64().expect("quantile must be a number");
    }
    out
}

#[test]
fn concurrent_clients_get_bit_exact_answers() {
    // One timer build shared by the server and the local reference.
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let local_timer = NsigmaTimer::build(&tech, &lib, &timer_config()).expect("local timer");
    let reference = local_design(&tech, &lib);
    let local_session = TimingSession::new(&local_timer, reference.clone(), MergeRule::Pessimistic)
        .expect("local session");
    let ref_paths = ranked_paths(&reference, 2);
    let ref_quantiles: Vec<[f64; 7]> = ref_paths
        .iter()
        .map(|p| {
            local_session
                .analyze_path(p)
                .expect("local path")
                .quantiles
                .as_array()
        })
        .collect();

    // Per-client ECO reference: each client registers its own copy of the
    // design and resizes one distinct gate to strength 8.
    let n_clients = 4;
    let eco_gates: Vec<String> = (0..n_clients)
        .map(|i| {
            let gid = reference.netlist.gate_ids().nth(i * 7).expect("gate");
            reference.netlist.gate(gid).name.clone()
        })
        .collect();
    let eco_reference: Vec<[f64; 7]> = eco_gates
        .iter()
        .map(|name| {
            let mut session =
                TimingSession::new(&local_timer, reference.clone(), MergeRule::Pessimistic)
                    .expect("eco session");
            let gid = session.find_gate(name).expect("gate by name");
            session.resize_gate(gid, 8).expect("resize").as_array()
        })
        .collect();

    let handle = Server::start(ServerConfig {
        threads: 4,
        timer: timer_config(),
        ..ServerConfig::default()
    })
    .expect("server start");
    let port = handle.port();

    std::thread::scope(|scope| {
        for (i, gate) in eco_gates.iter().enumerate() {
            let ref_quantiles = &ref_quantiles;
            let eco_reference = &eco_reference;
            scope.spawn(move || {
                let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
                let name = format!("c432-{i}");
                let reg = client
                    .request_ok(&format!(
                        r#"{{"cmd":"register_design","name":"{name}","iscas":"c432","seed":{PARASITIC_SEED}}}"#
                    ))
                    .expect("register");
                assert!(reg.get("gates").unwrap().as_u64().unwrap() > 0);

                // worst_paths must match the local analysis bit for bit.
                let wp = client
                    .request_ok(&format!(r#"{{"cmd":"worst_paths","design":"{name}","k":2}}"#))
                    .expect("worst_paths");
                let paths = wp.get("paths").unwrap().as_arr().unwrap();
                assert_eq!(paths.len(), ref_quantiles.len());
                for (remote, local) in paths.iter().zip(ref_quantiles.iter()) {
                    let remote_q = quantile_array(remote.get("quantiles").unwrap());
                    for (r, l) in remote_q.iter().zip(local) {
                        assert_eq!(r.to_bits(), l.to_bits(), "worst_paths drifted");
                    }
                }

                // eco_resize through the incremental timer, same parity.
                let eco = client
                    .request_ok(&format!(
                        r#"{{"cmd":"eco_resize","design":"{name}","gate":"{gate}","strength":8}}"#
                    ))
                    .expect("eco_resize");
                let remote_q = quantile_array(eco.get("worst_quantiles").unwrap());
                for (r, l) in remote_q.iter().zip(&eco_reference[i]) {
                    assert_eq!(r.to_bits(), l.to_bits(), "eco_resize drifted");
                }
            });
        }
    });

    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");

    // A sequence of remote ECOs on one design: every answer must equal a
    // fresh local session on the identically resized design, bit for bit,
    // so a stale incremental state cannot hide behind another incremental
    // one.
    let mut twin = reference.clone();
    let resize_twin = |twin: &mut Design, name: &str, strength: u32| {
        let g = twin
            .netlist
            .gate_ids()
            .find(|&g| twin.netlist.gate(g).name == name)
            .expect("eco gate");
        let kind = twin.lib.cell(twin.netlist.gate(g).cell).kind();
        let cell = twin
            .lib
            .find_kind(kind, strength)
            .expect("library strength");
        twin.replace_gate_cell(g, cell);
    };
    resize_twin(&mut twin, &eco_gates[1], 8);
    let gates = twin.netlist.num_gates();
    for step in 0..8usize {
        let g = nsigma_netlist::GateId::from_index((step * 97 + 13) % gates);
        let name = twin.netlist.gate(g).name.clone();
        let strength = [1u32, 4, 2, 8][step % 4];
        let eco = client
            .request_ok(&format!(
                r#"{{"cmd":"eco_resize","design":"c432-1","gate":"{name}","strength":{strength}}}"#
            ))
            .expect("eco_resize");
        resize_twin(&mut twin, &name, strength);
        let fresh = TimingSession::new(&local_timer, twin.clone(), MergeRule::Pessimistic)
            .expect("fresh session")
            .analyze_design();
        let remote_q = quantile_array(eco.get("worst_quantiles").unwrap());
        for (r, l) in remote_q.iter().zip(&fresh.as_array()) {
            assert_eq!(r.to_bits(), l.to_bits(), "eco_resize step {step} is stale");
        }
    }

    // Fractional and integer sigma through the quantile endpoint.
    let q3 = client
        .request_ok(r#"{"cmd":"quantile","design":"c432-0","path":0,"sigma":3}"#)
        .expect("quantile sigma=3");
    assert_eq!(
        q3.get("delay").unwrap().as_f64().unwrap().to_bits(),
        ref_quantiles[0][6].to_bits(),
        "integer sigma must be the exact Table I quantile"
    );
    let q45 = client
        .request_ok(r#"{"cmd":"quantile","design":"c432-0","path":0,"sigma":4.5}"#)
        .expect("quantile sigma=4.5");
    let q = QuantileSet::from_values(ref_quantiles[0]);
    let local_45 = q[SigmaLevel::Zero] + YieldCurve::new(&q).margin(0.0, 4.5);
    assert_eq!(
        q45.get("delay").unwrap().as_f64().unwrap().to_bits(),
        local_45.to_bits(),
        "fractional sigma must match the local yield curve"
    );

    // analyze_path after c432-0's ECO: the daemon's critical path must be
    // the string-keyed oracle's on the same resized design, bit for bit.
    let mut resized = reference.clone();
    let eco_gate = resized
        .netlist
        .gate_ids()
        .find(|&g| resized.netlist.gate(g).name == eco_gates[0])
        .expect("eco gate");
    let kind = resized.lib.cell(resized.netlist.gate(eco_gate).cell).kind();
    let x8 = resized.lib.find_kind(kind, 8).expect("x8 cell");
    resized.replace_gate_cell(eco_gate, x8);
    let (oracle_path, oracle) =
        nsigma_core::reference::analyze_critical_path(&local_timer, &resized)
            .expect("critical path");
    let ap = client
        .request_ok(r#"{"cmd":"analyze_path","design":"c432-0"}"#)
        .expect("analyze_path");
    let remote_gates: Vec<&str> = ap
        .get("gates")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    let oracle_gates: Vec<&str> = oracle_path
        .gates
        .iter()
        .map(|&g| resized.netlist.gate(g).name.as_str())
        .collect();
    assert_eq!(
        remote_gates, oracle_gates,
        "analyze_path picked another path"
    );
    let remote_q = quantile_array(ap.get("quantiles").unwrap());
    for (r, l) in remote_q.iter().zip(&oracle.quantiles.as_array()) {
        assert_eq!(r.to_bits(), l.to_bits(), "analyze_path drifted");
    }

    // Errors carry typed codes.
    let missing = client
        .request(r#"{"cmd":"worst_paths","design":"ghost"}"#)
        .expect("response");
    assert_eq!(missing.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(missing.get("code").unwrap().as_str(), Some("not_found"));
    let bad = client.request("{broken").expect("response");
    assert_eq!(bad.get("code").unwrap().as_str(), Some("bad_request"));

    // Monte-Carlo yield through the yield engine: response schema, seed
    // determinism, and a typed rejection for a bad configuration.
    let yield_req = r#"{"cmd":"yield_design","design":"c432-0","ci":0.02,"samples":512,"seed":5,"importance":true}"#;
    let y = client.request_ok(yield_req).expect("yield_design");
    let yield_v = y.get("yield").unwrap().as_f64().unwrap();
    let lo = y.get("ci_lo").unwrap().as_f64().unwrap();
    let hi = y.get("ci_hi").unwrap().as_f64().unwrap();
    assert!(
        lo <= yield_v && yield_v <= hi,
        "CI must bracket the estimate"
    );
    assert!(y.get("ci_half_width").unwrap().as_f64().unwrap() > 0.0);
    assert!(y.get("target_period").unwrap().as_f64().unwrap() > 0.0);
    assert!(y.get("samples").unwrap().as_u64().unwrap() >= 1);
    assert!(y.get("ess").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(y.get("importance").unwrap().as_bool(), Some(true));
    assert_eq!(y.get("curve").unwrap().as_arr().unwrap().len(), 7);
    quantile_array(y.get("analytic_quantiles").unwrap());
    quantile_array(y.get("mc_quantiles").unwrap());
    let y2 = client.request_ok(yield_req).expect("yield repeat");
    assert_eq!(
        y2.get("yield").unwrap().as_f64().unwrap().to_bits(),
        yield_v.to_bits(),
        "yield must be deterministic in the seed"
    );
    let bad_yield = client
        .request(r#"{"cmd":"yield_design","design":"c432-0","samples":0}"#)
        .expect("response");
    assert_eq!(bad_yield.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(bad_yield.get("code").unwrap().as_str(), Some("bad_request"));

    // Observability: the design count and latency counters are sane.
    let stats = client.request_ok(r#"{"cmd":"stats"}"#).expect("stats");
    assert_eq!(stats.get("designs").unwrap().as_u64(), Some(4));
    // The yield engine's cumulative trial counter reflects the two runs.
    let drawn = stats.get("yield_samples_drawn").unwrap().as_u64().unwrap();
    assert!(
        drawn >= 2 * y.get("samples").unwrap().as_u64().unwrap(),
        "yield_samples_drawn = {drawn}"
    );
    let metrics = stats.get("metrics").unwrap();
    assert_eq!(metrics.get("bad_requests").unwrap().as_u64(), Some(1));
    let wp = metrics
        .get("endpoints")
        .unwrap()
        .get("worst_paths")
        .unwrap();
    assert_eq!(wp.get("ok").unwrap().as_u64(), Some(4));
    assert_eq!(
        wp.get("requests").unwrap().as_u64(),
        Some(5),
        "requests must equal ok + errors, matching the bench report field"
    );
    let p50 = wp.get("p50_us").unwrap().as_f64().unwrap();
    let p99 = wp.get("p99_us").unwrap().as_f64().unwrap();
    assert!(
        p50 >= 0.0 && p99 >= p50,
        "latency histogram must be ordered"
    );
    assert!(wp.get("mean_us").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(wp.get("errors").unwrap().as_u64(), Some(1)); // the ghost lookup
    let yd = metrics
        .get("endpoints")
        .unwrap()
        .get("yield_design")
        .unwrap();
    assert_eq!(yd.get("ok").unwrap().as_u64(), Some(2));
    assert_eq!(yd.get("errors").unwrap().as_u64(), Some(1)); // samples: 0

    // Clean shutdown via the protocol: the server drains and the accept
    // loop exits, so wait() returns.
    let bye = client
        .request_ok(r#"{"cmd":"shutdown"}"#)
        .expect("shutdown");
    assert_eq!(bye.get("stopping").unwrap().as_bool(), Some(true));
    handle.wait();
}

#[test]
fn over_long_request_line_is_rejected_and_the_server_keeps_answering() {
    let handle = Server::start(ServerConfig {
        threads: 2,
        timer: timer_config(),
        ..ServerConfig::default()
    })
    .expect("server start");
    let port = handle.port();

    // One byte past the cap and no newline: the reader must stop at the cap,
    // answer once and close instead of buffering the rest.
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("send over-long line");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("one reply");
    let reply = nsigma_server::json::parse(reply.trim_end()).expect("JSON reply");
    assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(reply.get("code").unwrap().as_str(), Some("bad_request"));
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).unwrap_or(0),
        0,
        "the connection must close after the reply, got {rest:?}"
    );

    // A fresh connection still gets answers. A line that is not UTF-8 is a
    // bad request too, but leaves the connection open; both were counted.
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("reconnect");
    stream
        .write_all(b"\xff\xfe\n{\"cmd\":\"stats\"}\n")
        .expect("send");
    let mut replies = BufReader::new(stream)
        .lines()
        .map(|line| nsigma_server::json::parse(&line.expect("reply line")).expect("JSON reply"));
    let not_utf8 = replies.next().expect("reply to the non-UTF-8 line");
    assert_eq!(not_utf8.get("code").unwrap().as_str(), Some("bad_request"));
    let stats = replies.next().expect("stats reply");
    assert_eq!(stats.get("ok").unwrap().as_bool(), Some(true));
    let metrics = stats.get("metrics").unwrap();
    assert_eq!(metrics.get("bad_requests").unwrap().as_u64(), Some(2));
    handle.shutdown();
}

#[test]
fn ranked_path_requests_past_the_cap_are_refused_and_the_connection_keeps_answering() {
    let handle = Server::start(ServerConfig {
        threads: 1,
        timer: timer_config(),
        ..ServerConfig::default()
    })
    .expect("server start");
    let mut client = Client::connect(("127.0.0.1", handle.port())).expect("connect");
    register_c432(&mut client);

    // Refused at parse time, before any ranking runs.
    let over_k = client
        .request(r#"{"cmd":"worst_paths","design":"c432","k":1000000}"#)
        .expect("response");
    assert_eq!(code(&over_k), Some("bad_request"));
    let over_path = client
        .request(&format!(
            r#"{{"cmd":"quantile","design":"c432","path":{MAX_RANKED_PATHS},"sigma":3}}"#
        ))
        .expect("response");
    assert_eq!(code(&over_path), Some("bad_request"));

    // The same connection still answers, at the cap itself too.
    let at_cap = client
        .request_ok(&format!(
            r#"{{"cmd":"worst_paths","design":"c432","k":{MAX_RANKED_PATHS}}}"#
        ))
        .expect("worst_paths at the cap");
    let paths = at_cap.get("paths").unwrap().as_arr().unwrap();
    assert!(!paths.is_empty() && paths.len() <= MAX_RANKED_PATHS);
    let stats = client.request_ok(r#"{"cmd":"stats"}"#).expect("stats");
    assert_eq!(counter(&stats, "bad_requests"), Some(2));
    handle.shutdown();
}

/// A server with one execution slot and one waiting place, so it admits
/// at most two connections.
fn one_slot_server(deadline: Duration) -> ServerHandle {
    Server::start(ServerConfig {
        threads: 1,
        queue_capacity: 1,
        deadline,
        timer: timer_config(),
        ..ServerConfig::default()
    })
    .expect("server start")
}

/// A `yield_design` on c432 that runs all its trials: the half-width is
/// out of reach, so it holds its slot for the whole fixed-count run.
fn long_yield(seed: u64) -> String {
    format!(
        r#"{{"cmd":"yield_design","design":"c432","samples":{},"ci":1e-9,"seed":{seed}}}"#,
        long_yield_samples()
    )
}

/// Trials of [`long_yield`]: 512 per yield worker thread, so the run takes
/// about as long on any host (over half a second on an optimized build),
/// well past a 200 ms deadline.
fn long_yield_samples() -> u64 {
    512 * nsigma_stats::par::host_threads() as u64
}

fn register_c432(client: &mut Client) {
    client
        .request_ok(&format!(
            r#"{{"cmd":"register_design","name":"c432","iscas":"c432","seed":{PARASITIC_SEED}}}"#
        ))
        .expect("register c432");
}

fn code(v: &Value) -> Option<&str> {
    v.get("code").and_then(Value::as_str)
}

fn counter(stats: &Value, name: &str) -> Option<u64> {
    stats.get("metrics")?.get(name)?.as_u64()
}

#[test]
fn backpressure_answers_deadline_and_overloaded_over_the_wire() {
    let handle = one_slot_server(Duration::from_millis(200));
    let port = handle.port();
    let mut holder = Client::connect(("127.0.0.1", port)).expect("connect");
    register_c432(&mut holder);

    std::thread::scope(|scope| {
        let long = scope.spawn(move || holder.request_ok(&long_yield(1)));
        // Until the yield holds the slot an `analyze_path` runs at once;
        // once it does, `analyze_path` waits out the deadline.
        let mut waiter = Client::connect(("127.0.0.1", port)).expect("connect");
        let refused = (0..500).find_map(|_| {
            let reply = waiter
                .request(r#"{"cmd":"analyze_path","design":"c432"}"#)
                .expect("reply");
            if code(&reply) == Some("deadline") {
                return Some(reply);
            }
            std::thread::sleep(Duration::from_millis(10));
            None
        });
        assert!(
            refused.is_some(),
            "a request behind the yield must time out"
        );

        // With the yield running and a second request waiting for the slot,
        // `stats` skips the gate: it answers at once and shows the waiter.
        let engine = handle.engine();
        let queued = scope.spawn(move || {
            engine.process(Request::AnalyzePath {
                design: "c432".into(),
            })
        });
        let until = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = waiter
                .request_ok(r#"{"cmd":"stats"}"#)
                .expect("stats answers while the slot is taken");
            if stats.get("queue_depth").and_then(Value::as_u64) == Some(1) {
                break;
            }
            assert!(
                Instant::now() < until && !queued.is_finished(),
                "the second request never waited"
            );
        }
        let queued = queued.join().expect("queued request thread");
        let queued = nsigma_server::json::parse(&queued).expect("a JSON reply");
        // It waits out the deadline unless the yield finishes first.
        let queued_timed_out = code(&queued) == Some("deadline");
        assert!(
            queued_timed_out || queued.get("ok").and_then(Value::as_bool) == Some(true),
            "{queued:?}"
        );

        // A third connection while the other two are open is past the cap
        // of threads + queue_capacity: one `overloaded` line, then EOF.
        let mut third = Client::connect(("127.0.0.1", port)).expect("connect");
        let reply = third.request(r#"{"cmd":"stats"}"#).expect("reply");
        assert_eq!(code(&reply), Some("overloaded"), "{reply:?}");
        assert!(
            third.request(r#"{"cmd":"stats"}"#).is_err(),
            "the refused connection is closed"
        );

        let y = long
            .join()
            .expect("client thread")
            .expect("the yield answers");
        assert_eq!(
            y.get("samples").and_then(Value::as_u64),
            Some(long_yield_samples())
        );
        let stats = waiter.request_ok(r#"{"cmd":"stats"}"#).expect("stats");
        assert_eq!(
            counter(&stats, "rejected_deadline"),
            Some(1 + u64::from(queued_timed_out))
        );
        assert_eq!(counter(&stats, "rejected_overload"), Some(1));
        assert_eq!(stats.get("queue_capacity").and_then(Value::as_u64), Some(1));
        assert_eq!(stats.get("queue_depth").and_then(Value::as_u64), Some(0));
    });
    handle.shutdown();
}

#[test]
fn connection_past_the_cap_is_refused_until_one_closes() {
    let handle = one_slot_server(Duration::from_secs(5));
    let port = handle.port();
    let mut open: Vec<Client> = (0..2)
        .map(|_| {
            let mut c = Client::connect(("127.0.0.1", port)).expect("connect");
            c.request_ok(r#"{"cmd":"stats"}"#).expect("served");
            c
        })
        .collect();
    let mut third = Client::connect(("127.0.0.1", port)).expect("connect");
    let reply = third.request(r#"{"cmd":"stats"}"#).expect("reply");
    assert_eq!(code(&reply), Some("overloaded"), "{reply:?}");

    // Once a connection closes, its thread ends and a new one is served.
    open.pop();
    let until = Instant::now() + Duration::from_secs(10);
    let served = loop {
        let mut next = Client::connect(("127.0.0.1", port)).expect("connect");
        let reply = next.request(r#"{"cmd":"stats"}"#).expect("reply");
        if code(&reply) != Some("overloaded") || Instant::now() > until {
            break reply;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        served.get("ok").and_then(Value::as_bool),
        Some(true),
        "{served:?}"
    );
    assert!(counter(&served, "rejected_overload") >= Some(1));
    handle.shutdown();
}

#[test]
fn shutdown_answers_requests_in_flight_and_waiting() {
    let handle = one_slot_server(Duration::from_secs(120));
    let port = handle.port();
    let mut first = Client::connect(("127.0.0.1", port)).expect("connect");
    register_c432(&mut first);
    let second = Client::connect(("127.0.0.1", port)).expect("connect");

    std::thread::scope(|scope| {
        let answers: Vec<_> = [(first, 1), (second, 2)]
            .into_iter()
            .map(|(mut client, seed)| scope.spawn(move || client.request(&long_yield(seed))))
            .collect();
        // One yield runs and the other waits for its slot.
        let waiting = || {
            handle
                .engine()
                .execute(Request::Stats)
                .ok()
                .and_then(|fields| {
                    fields
                        .into_iter()
                        .find(|(k, _)| *k == "queue_depth")
                        .and_then(|(_, v)| v.as_u64())
                })
                == Some(1)
        };
        let until = Instant::now() + Duration::from_secs(60);
        while !waiting() {
            assert!(Instant::now() < until, "the second yield never waited");
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.engine().trigger_shutdown();
        for answer in answers {
            let reply = answer.join().expect("client thread").expect("an answer");
            assert_eq!(
                reply.get("ok").and_then(Value::as_bool),
                Some(true),
                "{reply:?}"
            );
        }
    });
    handle.wait();
}
