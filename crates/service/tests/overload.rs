//! Admission-control and graceful-degradation coverage for the reactor
//! transport: `ERR overloaded` framing at both shedding points, drain-aware
//! shutdown, stalled-reader cutoffs, and a randomized connection-churn run
//! asserting the STATS transport counters balance
//! (`requests_received` = `requests_served` + `queries_shed` +
//! `requests_failed`) and that shed load never corrupts served state.
//!
//! Every test holds `failpoints::exclusive()`: the injected ones stall the
//! process-global `reactor.job` site, which the others' servers run too.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use vadalog_model::parser::parse_rules;
use vadalog_service::{failpoints, DurableEngine, IncrementalEngine, LiveServer, ServerConfig};

const CLOSURE: &str = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).";

fn engine() -> IncrementalEngine {
    IncrementalEngine::new(parse_rules(CLOSURE).unwrap()).unwrap()
}

fn send_line(stream: &mut TcpStream, line: &str) -> String {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    read_line(stream)
}

fn read_line(stream: &mut TcpStream) -> String {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

/// Reads one full counted response (header + `answers=<n>` body lines +
/// `END`), returning all lines.
fn read_counted(reader: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let mut lines = vec![line.trim_end().to_string()];
    if let Some(rest) = lines[0].strip_prefix("OK answers=") {
        let count: usize = rest.split_whitespace().next().unwrap().parse().unwrap();
        for _ in 0..=count {
            let mut body = String::new();
            reader.read_line(&mut body).unwrap();
            lines.push(body.trim_end().to_string());
        }
    }
    lines
}

/// Extracts an integer field from the STATS JSON (flat, unambiguous keys).
fn stat(stats: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = stats
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in {stats}"));
    stats[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn connection_cap_rejects_with_structured_overload_error() {
    let _guard = failpoints::exclusive();
    let config = ServerConfig {
        max_connections: 2,
        overload_retry_ms: 7,
        ..ServerConfig::default()
    };
    let server =
        LiveServer::start_with(DurableEngine::volatile(engine()), "127.0.0.1:0", config).unwrap();
    let addr = server.addr();

    // Two admitted connections, held open and proven live.
    let mut first = TcpStream::connect(addr).unwrap();
    let mut second = TcpStream::connect(addr).unwrap();
    assert!(send_line(&mut first, "FACT edge(a, b).").starts_with("OK inserted=1"));
    assert!(send_line(&mut second, "QUERY ?(X, Y) :- t(X, Y).").starts_with("OK answers=1"));

    // The third is told exactly why and with what backoff, then closed.
    let rejected = TcpStream::connect(addr).unwrap();
    rejected
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut response = String::new();
    let mut reader = BufReader::new(rejected.try_clone().unwrap());
    reader.read_line(&mut response).unwrap();
    assert_eq!(response.trim_end(), "ERR overloaded retry_ms=7");
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).unwrap(),
        0,
        "rejected connection must be closed after the error"
    );

    // Admitted connections were untouched by the rejection, and the slot
    // freed by a close is reusable.
    drop(second);
    std::thread::sleep(Duration::from_millis(200));
    let mut third = TcpStream::connect(addr).unwrap();
    assert!(send_line(&mut third, "QUERY ?(X, Y) :- t(X, Y).").starts_with("OK answers=1"));

    let stats = send_line(&mut first, "STATS");
    assert_eq!(stat(&stats, "connections_rejected"), 1, "{stats}");
    assert!(
        stats.contains("\"transport\":{\"connections_accepted\":"),
        "{stats}"
    );
    assert!(stats.contains("\"p99_micros\":"), "{stats}");

    send_line(&mut first, "SHUTDOWN");
    server.join();
}

#[cfg(debug_assertions)]
mod injected {
    //! Scenarios that need the fail-point registry (debug builds only):
    //! deterministic queue exhaustion and drain timing via a stalled
    //! worker.

    use super::*;
    use vadalog_service::failpoints::Action;

    #[test]
    fn queue_exhaustion_sheds_but_never_kills_admitted_requests() {
        let _guard = failpoints::exclusive();
        failpoints::clear_all();
        let config = ServerConfig {
            worker_threads: 1,
            max_queue_depth: 1,
            overload_retry_ms: 9,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server =
            LiveServer::start_with(DurableEngine::volatile(engine()), "127.0.0.1:0", config)
                .unwrap();
        let addr = server.addr();
        let mut seed = TcpStream::connect(addr).unwrap();
        assert!(send_line(&mut seed, "FACT edge(a, b).").starts_with("OK inserted=1"));
        // The unloaded reference: what an admitted query must answer, to
        // the byte, however overloaded the server is when it runs.
        seed.write_all(b"QUERY ?(X, Y) :- t(X, Y).\n").unwrap();
        let reference = read_counted(&mut BufReader::new(seed.try_clone().unwrap()));
        assert_eq!(reference[0], "OK answers=1 epoch=1", "{reference:?}");

        // Stall the lone worker: the first query occupies it, the second
        // fills the queue, the third finds the queue at its cap.
        failpoints::fail_always("reactor.job", Action::Stall(Duration::from_millis(400)));
        let mut first = TcpStream::connect(addr).unwrap();
        first.write_all(b"QUERY ?(X, Y) :- t(X, Y).\n").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let mut second = TcpStream::connect(addr).unwrap();
        second.write_all(b"QUERY ?(X, Y) :- t(X, Y).\n").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let mut third = TcpStream::connect(addr).unwrap();
        third
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();

        // The shed response is immediate — no waiting behind the stall —
        // and the connection survives to be told again.
        let shed = send_line(&mut third, "QUERY ?(X, Y) :- t(X, Y).");
        assert_eq!(shed, "ERR overloaded retry_ms=9");
        failpoints::clear_all();

        // Both admitted queries complete with the reference answer:
        // shedding is all-or-nothing, never a truncated answer set.
        for stream in [&mut first, &mut second] {
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            assert_eq!(read_counted(&mut reader), reference);
        }
        // The shed connection still gets service once pressure is gone.
        let retry = send_line(&mut third, "QUERY ?(X, Y) :- t(X, Y).");
        assert!(retry.starts_with("OK answers=1"), "{retry}");

        let stats = send_line(&mut seed, "STATS");
        assert_eq!(stat(&stats, "queries_shed"), 1, "{stats}");
        assert!(stat(&stats, "queue_depth_max") >= 1, "{stats}");
        assert!(stats.contains("\"degraded\":false"), "{stats}");

        send_line(&mut seed, "SHUTDOWN");
        server.join();
        failpoints::clear_all();
    }

    #[test]
    fn drain_on_shutdown_completes_in_flight_and_rejects_queued() {
        let _guard = failpoints::exclusive();
        failpoints::clear_all();
        let config = ServerConfig {
            worker_threads: 1,
            poll_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let server =
            LiveServer::start_with(DurableEngine::volatile(engine()), "127.0.0.1:0", config)
                .unwrap();
        let addr = server.addr();
        let mut seed = TcpStream::connect(addr).unwrap();
        assert!(send_line(&mut seed, "FACT edge(a, b).").starts_with("OK inserted=1"));

        // One connection pipelines two queries; the first goes in flight
        // (and stalls), the second waits its turn.
        failpoints::fail_always("reactor.job", Action::Stall(Duration::from_millis(400)));
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.write_all(b"QUERY ?(X, Y) :- t(X, Y).\nQUERY ?(X) :- t(a, X).\n")
            .unwrap();
        std::thread::sleep(Duration::from_millis(100));

        // SHUTDOWN is handled inline by the reactor: prompt even though
        // the only worker is mid-stall.
        let bye = send_line(&mut seed, "SHUTDOWN");
        assert_eq!(bye, "OK bye");

        // Drain semantics on the busy connection, in order: the in-flight
        // query completes with its real answer, the queued one is
        // rejected, then the connection closes.
        busy.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(busy.try_clone().unwrap());
        let inflight = read_counted(&mut reader);
        assert_eq!(inflight[0], "OK answers=1 epoch=1", "{inflight:?}");
        let mut queued = String::new();
        reader.read_line(&mut queued).unwrap();
        assert_eq!(queued.trim_end(), "ERR shutting-down");
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "then EOF");

        server.join();
        failpoints::clear_all();
    }
}

#[test]
fn stalled_reader_is_cut_off_instead_of_pinning_buffers() {
    let _guard = failpoints::exclusive();
    let config = ServerConfig {
        line_timeout: Duration::from_millis(500),
        poll_interval: Duration::from_millis(20),
        // Bound kernel absorption so the stalled reader backs up into the
        // reactor's user-space write buffer, where the stall is visible.
        send_buffer_bytes: Some(4096),
        ..ServerConfig::default()
    };
    let server =
        LiveServer::start_with(DurableEngine::volatile(engine()), "127.0.0.1:0", config).unwrap();
    let addr = server.addr();

    // A chain whose transitive closure's full dump (5050 tuples, ~45 KiB
    // per query) is far larger than the shrunken socket buffers.
    let mut loader = TcpStream::connect(addr).unwrap();
    let chain: String = (0..100)
        .map(|i| format!("edge(n{i}, n{}). ", i + 1))
        .collect();
    assert!(send_line(&mut loader, &format!("BATCH {chain}")).starts_with("OK inserted=100"));

    // This client asks for everything — four times over — and then never
    // reads: once the clamped buffers fill, the reactor sees no write
    // progress for `line_timeout` and cuts the connection.
    let stalled = TcpStream::connect(addr).unwrap();
    epoll::set_recv_buffer(std::os::fd::AsRawFd::as_raw_fd(&stalled), 4096).unwrap();
    let mut stalled = stalled;
    stalled
        .write_all("QUERY ?(X, Y) :- t(X, Y).\n".repeat(4).as_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(3000));

    // Reading now drains what the kernel buffers held, then hits the cut
    // — EOF or a reset, far short of the four full 5k-answer dumps. A
    // read *timeout* here would mean the server never cut the connection.
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut drained = Vec::new();
    let result = stalled.read_to_end(&mut drained);
    // Four dumps of 5050 answer lines, at least "nX nY\n" = 6 bytes each.
    let full_dump_floor = 4 * 5050 * 6;
    match result {
        Ok(n) => assert!(
            n < full_dump_floor,
            "connection must be cut before the full dump ({n} bytes arrived)"
        ),
        Err(error) => assert!(
            matches!(error.kind(), ErrorKind::ConnectionReset),
            "expected a cut connection, got: {error}"
        ),
    }

    // The stalled reader cost only itself: full service continues, and
    // the server's books show exactly one connection reaped.
    let probe = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(probe.try_clone().unwrap());
    let mut probe = probe;
    probe.write_all(b"QUERY ?(X) :- t(X, n1).\n").unwrap();
    let frame = read_counted(&mut reader);
    assert_eq!(frame[0], "OK answers=1 epoch=1", "{frame:?}");
    probe.write_all(b"STATS\n").unwrap();
    let mut stats = String::new();
    reader.read_line(&mut stats).unwrap();
    assert_eq!(stat(&stats, "connections_accepted"), 3, "{stats}");
    assert_eq!(stat(&stats, "connections_closed"), 1, "{stats}");

    probe.write_all(b"SHUTDOWN\n").unwrap();
    server.join();
}

#[test]
fn connection_churn_counters_balance_and_durable_state_survives() {
    let _guard = failpoints::exclusive();
    let dir = std::env::temp_dir().join(format!("vadalog-overload-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = vadalog_service::DurabilityConfig::new(&dir);
    let durable = DurableEngine::create(engine(), durability.clone()).unwrap();
    let config = ServerConfig {
        worker_threads: 2,
        max_queue_depth: 2,
        poll_interval: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let server = LiveServer::start_with(durable, "127.0.0.1:0", config).unwrap();
    let addr = server.addr();

    // Churn: short-lived connections racing facts, queries, garbage, and
    // abrupt disconnects. Sheds and parse failures are expected; crashes
    // and corruption are not.
    let churners: Vec<_> = (0..6)
        .map(|worker: usize| {
            std::thread::spawn(move || {
                for round in 0..5 {
                    let Ok(mut stream) = TcpStream::connect(addr) else {
                        continue;
                    };
                    stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    let fact = format!("FACT edge(w{worker}, r{round}).\n");
                    stream.write_all(fact.as_bytes()).unwrap();
                    if (worker + round).is_multiple_of(3) {
                        // Fire-and-forget: drop without reading anything.
                        continue;
                    }
                    let _ = read_line(&mut stream);
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    stream
                        .write_all(b"QUERY ?(X) :- t(X, r0).\nGIBBERISH\n")
                        .unwrap();
                    let answers = read_counted(&mut reader);
                    assert!(
                        answers[0].starts_with("OK answers=")
                            || answers[0].starts_with("ERR overloaded retry_ms="),
                        "query must be answered or shed, got {answers:?}"
                    );
                    let mut garbage = String::new();
                    reader.read_line(&mut garbage).unwrap();
                    assert!(garbage.starts_with("ERR "), "{garbage}");
                }
            })
        })
        .collect();
    for churner in churners {
        churner.join().unwrap();
    }
    // Quiescence: in-flight completions and abrupt-disconnect cleanup all
    // settle within a few poll intervals.
    std::thread::sleep(Duration::from_millis(500));

    let mut client = TcpStream::connect(addr).unwrap();
    let stats = send_line(&mut client, "STATS");
    let received = stat(&stats, "requests_received");
    let served = stat(&stats, "requests_served");
    let shed = stat(&stats, "queries_shed");
    let failed = stat(&stats, "requests_failed");
    // This STATS request itself is received but not yet terminal when the
    // payload is rendered — hence the +1.
    assert_eq!(
        received,
        served + shed + failed + 1,
        "counters must balance: {stats}"
    );
    let accepted = stat(&stats, "connections_accepted");
    let closed = stat(&stats, "connections_closed");
    assert_eq!(
        accepted,
        closed + 1,
        "only this connection is open: {stats}"
    );
    assert!(stats.contains("\"degraded\":false"), "{stats}");

    // Shed load never corrupted durable state: the recovered server
    // answers bit-identically to the live one.
    let mut live_reader = BufReader::new(client.try_clone().unwrap());
    client.write_all(b"QUERY ?(X, Y) :- t(X, Y).\n").unwrap();
    let live = read_counted(&mut live_reader);
    assert!(live[0].starts_with("OK answers="), "{live:?}");
    send_line(&mut client, "SHUTDOWN");
    server.join();

    let (recovered, report) =
        LiveServer::recover(engine(), durability, "127.0.0.1:0", ServerConfig::default()).unwrap();
    assert!(report.clean_shutdown, "drain must certify the WAL clean");
    let mut verify = TcpStream::connect(recovered.addr()).unwrap();
    let mut verify_reader = BufReader::new(verify.try_clone().unwrap());
    verify.write_all(b"QUERY ?(X, Y) :- t(X, Y).\n").unwrap();
    let replayed = read_counted(&mut verify_reader);
    assert_eq!(
        replayed[1..],
        live[1..],
        "recovered answers must be bit-identical to the live server's"
    );
    send_line(&mut verify, "SHUTDOWN");
    recovered.join();
    let _ = std::fs::remove_dir_all(&dir);
}
