//! Fault-injection harness: kill the durable engine at randomized and
//! adversarially chosen points, recover, and require the recovered state to
//! be **bit-identical** to a reference engine that never crashed (modulo
//! the documented at-least-once window for unacknowledged batches).
//!
//! The failpoint registry only exists in debug builds, so every test that
//! arms a site is `#[cfg(debug_assertions)]`; the randomized kill/recover
//! property needs no failpoints and runs in every profile. It and the
//! clean-shutdown test still take `failpoints::exclusive()`: they run the
//! same WAL sites their siblings arm, on parallel libtest threads.

use std::path::PathBuf;
use vadalog_model::parser::{parse_fact_list, parse_rules};
use vadalog_model::Atom;
use vadalog_service::{failpoints, DurabilityConfig, DurableEngine, IncrementalEngine, SyncPolicy};

const TWO_CLOSURES: &str = "t(X, Y) :- edge(X, Y).\n t(X, Z) :- edge(X, Y), t(Y, Z).\n\
                            s(X, Y) :- link(X, Y).\n s(X, Z) :- link(X, Y), s(Y, Z).";

fn fresh_engine() -> IncrementalEngine {
    IncrementalEngine::new(parse_rules(TWO_CLOSURES).unwrap()).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vadalog-fault-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny deterministic generator (xorshift64*) so the "randomized" kill
/// points are reproducible run to run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A pseudo-random batch over a small node universe, mixing both input
/// relations so both strata keep deriving.
fn random_batch(rng: &mut Rng) -> Vec<Atom> {
    let mut src = String::new();
    for _ in 0..=rng.below(4) {
        let (a, b) = (rng.below(12), rng.below(12));
        let relation = if rng.below(3) == 0 { "link" } else { "edge" };
        src.push_str(&format!("{relation}(n{a}, n{b}). "));
    }
    parse_fact_list(&src).unwrap()
}

fn assert_same_state(recovered: &IncrementalEngine, reference: &IncrementalEngine) {
    assert_eq!(
        recovered.instance().row_layout(),
        reference.instance().row_layout()
    );
    assert_eq!(recovered.stats(), reference.stats());
    assert_eq!(recovered.epoch(), reference.epoch());
}

/// The core property: ingest a random stream, kill the process (drop, no
/// clean shutdown) at random points, recover, keep ingesting — the surviving
/// engine must stay bit-identical to a never-crashed reference. Exercised
/// across sync policies and snapshot cadences.
#[test]
fn randomized_kill_and_recover_is_bit_identical_to_an_uncrashed_engine() {
    let _guard = failpoints::exclusive();
    for (trial, seed) in [0x9e3779b97f4a7c15u64, 42, 7_777_777]
        .into_iter()
        .enumerate()
    {
        let mut rng = Rng(seed);
        let dir = temp_dir(&format!("randomized-{trial}"));
        let cadence = 1 + rng.below(3);
        let sync = if rng.below(2) == 0 {
            SyncPolicy::Always
        } else {
            SyncPolicy::EveryN(2)
        };
        let config = DurabilityConfig::new(&dir)
            .snapshot_every(cadence)
            .sync(sync);

        let mut reference = fresh_engine();
        let mut durable = Some(DurableEngine::create(fresh_engine(), config.clone()).unwrap());
        for step in 0..24 {
            let batch = random_batch(&mut rng);
            durable.as_mut().unwrap().ingest(&batch).unwrap();
            reference.ingest(&batch).unwrap();
            // Kill roughly every third step: drop without clean shutdown,
            // then recover from disk into a brand-new engine.
            if rng.below(3) == 0 || step == 23 {
                drop(durable.take());
                let (recovered, report) =
                    DurableEngine::recover(fresh_engine(), config.clone()).unwrap();
                assert!(
                    !report.clean_shutdown,
                    "no clean-shutdown marker was written"
                );
                assert_eq!(report.tail_dropped_bytes, 0, "no write was torn");
                assert_same_state(recovered.engine(), &reference);
                durable = Some(recovered);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Recovery after a *clean* shutdown reports it and replays to the same
/// state.
#[test]
fn clean_shutdown_marker_round_trips_through_recovery() {
    let _guard = failpoints::exclusive();
    let dir = temp_dir("clean-marker");
    let config = DurabilityConfig::new(&dir);
    let mut durable = DurableEngine::create(fresh_engine(), config.clone()).unwrap();
    let mut reference = fresh_engine();
    let batch = parse_fact_list("edge(a, b). edge(b, c).").unwrap();
    durable.ingest(&batch).unwrap();
    reference.ingest(&batch).unwrap();
    durable.clean_shutdown().unwrap();
    drop(durable);

    let (recovered, report) = DurableEngine::recover(fresh_engine(), config).unwrap();
    assert!(report.clean_shutdown);
    assert_same_state(recovered.engine(), &reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(debug_assertions)]
mod injected {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use vadalog_service::failpoints::Action;
    use vadalog_service::wal::{replay, Wal};
    use vadalog_service::{LiveServer, ServerConfig, ServiceError};

    /// A WAL append failure must roll back cleanly: the engine is untouched,
    /// the caller sees an I/O error, and the log stays appendable.
    #[test]
    fn wal_append_failure_rolls_back_and_ingestion_continues() {
        let _guard = failpoints::exclusive();
        failpoints::clear_all();
        let dir = temp_dir("append-fail");
        let config = DurabilityConfig::new(&dir);
        let mut durable = DurableEngine::create(fresh_engine(), config.clone()).unwrap();
        let mut reference = fresh_engine();

        let first = parse_fact_list("edge(a, b).").unwrap();
        durable.ingest(&first).unwrap();
        reference.ingest(&first).unwrap();

        failpoints::fail_once("wal.append", Action::Error, 0);
        let doomed = parse_fact_list("edge(b, c).").unwrap();
        assert!(matches!(durable.ingest(&doomed), Err(ServiceError::Io(_))));
        assert_same_state(durable.engine(), &reference);

        // The failed append rolled the file back: the next ingest works and
        // recovery sees a consistent log.
        durable.ingest(&doomed).unwrap();
        reference.ingest(&doomed).unwrap();
        drop(durable);
        let (recovered, report) = DurableEngine::recover(fresh_engine(), config).unwrap();
        assert_eq!(report.tail_dropped_bytes, 0);
        assert_same_state(recovered.engine(), &reference);
        failpoints::clear_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A write torn halfway through (crash mid-`write(2)`) leaves garbage on
    /// disk; recovery must drop exactly the torn suffix and keep everything
    /// acknowledged before it.
    #[test]
    fn torn_write_drops_only_the_unacknowledged_tail() {
        let _guard = failpoints::exclusive();
        failpoints::clear_all();
        let dir = temp_dir("torn");
        let config = DurabilityConfig::new(&dir);
        let mut durable = DurableEngine::create(fresh_engine(), config.clone()).unwrap();
        let mut reference = fresh_engine();

        let acked = parse_fact_list("edge(a, b). edge(b, c).").unwrap();
        durable.ingest(&acked).unwrap();
        reference.ingest(&acked).unwrap();

        failpoints::fail_once("wal.append", Action::TornWrite, 0);
        let torn = parse_fact_list("edge(c, d).").unwrap();
        assert!(
            durable.ingest(&torn).is_err(),
            "the torn append must not ack"
        );
        drop(durable);

        let (recovered, report) = DurableEngine::recover(fresh_engine(), config).unwrap();
        assert!(
            report.tail_dropped_bytes > 0,
            "the torn frame is on disk and gets dropped"
        );
        // The torn batch was never acknowledged, so losing it is correct;
        // everything acknowledged survives.
        assert_same_state(recovered.engine(), &reference);
        failpoints::clear_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same two faults seen at the log itself: the sequence number, the
    /// file length and the wedged handle.
    #[test]
    fn failed_appends_roll_back_cleanly() {
        let _guard = failpoints::exclusive();
        failpoints::clear_all();
        let dir = temp_dir("wal-rollback");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        let facts = parse_fact_list("edge(a, b).").unwrap();
        wal.append_batch(&facts).unwrap();

        failpoints::fail_once("wal.append", Action::Error, 0);
        assert!(wal.append_batch(&facts).is_err());
        // The failed record is rolled back: sequence and length unchanged.
        assert_eq!(wal.last_seq(), 1);
        let scanned = replay(&path).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.dropped_bytes, 0);

        // A torn write leaves garbage on disk; the handle wedges (a real
        // crash would not keep appending) and replay drops the torn tail.
        failpoints::fail_once("wal.append", Action::TornWrite, 0);
        assert!(wal.append_batch(&facts).is_err());
        assert!(wal.append_batch(&facts).is_err(), "wedged after torn write");
        let scanned = replay(&path).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert!(scanned.dropped_bytes > 0, "torn bytes dropped at replay");
        failpoints::clear_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Dying *after* the WAL append but *before* the engine applies the
    /// batch (the at-least-once window): recovery replays the logged batch,
    /// converging to the state an uncrashed server would have acked.
    #[test]
    fn panic_between_append_and_apply_replays_the_logged_batch() {
        let _guard = failpoints::exclusive();
        failpoints::clear_all();
        let dir = temp_dir("mid-ingest");
        let config = DurabilityConfig::new(&dir);
        let mut durable = DurableEngine::create(fresh_engine(), config.clone()).unwrap();
        let mut reference = fresh_engine();

        let batch = parse_fact_list("edge(a, b). edge(b, c).").unwrap();
        failpoints::fail_once("durable.mid_ingest", Action::Panic, 0);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = durable.ingest(&batch);
        }));
        assert!(panicked.is_err(), "the armed failpoint must panic");
        drop(durable);

        // The uncrashed server would have gone on to apply and ack it.
        reference.ingest(&batch).unwrap();
        let (recovered, report) = DurableEngine::recover(fresh_engine(), config).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_same_state(recovered.engine(), &reference);
        failpoints::clear_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failing automatic snapshot must not fail the (already durable)
    /// ingest; the WAL keeps growing and a later snapshot catches up.
    #[test]
    fn snapshot_failure_degrades_gracefully_without_losing_ingests() {
        let _guard = failpoints::exclusive();
        failpoints::clear_all();
        let dir = temp_dir("snap-fail");
        let config = DurabilityConfig::new(&dir).snapshot_every(1);
        let mut durable = DurableEngine::create(fresh_engine(), config.clone()).unwrap();
        let mut reference = fresh_engine();

        failpoints::fail_once("snapshot.write", Action::Error, 0);
        let batch = parse_fact_list("edge(a, b).").unwrap();
        durable.ingest(&batch).unwrap();
        reference.ingest(&batch).unwrap();
        let (_, _, snapshots, failures) = durable.wal_stats();
        assert_eq!(
            (snapshots, failures),
            (1, 1),
            "initial snapshot, then one failure"
        );

        // The next ingest's automatic snapshot succeeds and truncates.
        let second = parse_fact_list("edge(b, c).").unwrap();
        durable.ingest(&second).unwrap();
        reference.ingest(&second).unwrap();
        let (_, _, snapshots, failures) = durable.wal_stats();
        assert_eq!((snapshots, failures), (2, 1));
        drop(durable);

        let (recovered, _) = DurableEngine::recover(fresh_engine(), config).unwrap();
        assert_same_state(recovered.engine(), &reference);
        failpoints::clear_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn send_line(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    /// A handler that dies mid-ingest poisons the engine mutex. The server
    /// must contain the damage: writes answer `ERR engine-unavailable`,
    /// queries keep serving the last published snapshot, and restarting the
    /// process recovers every acknowledged batch from the WAL.
    #[test]
    fn poisoned_engine_lock_degrades_writes_but_not_reads() {
        let _guard = failpoints::exclusive();
        failpoints::clear_all();
        let dir = temp_dir("poison");
        let config = DurabilityConfig::new(&dir);
        let durable = DurableEngine::create(fresh_engine(), config.clone()).unwrap();
        let server =
            LiveServer::start_with(durable, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.addr();

        let mut healthy = TcpStream::connect(addr).unwrap();
        assert!(send_line(&mut healthy, "FACT edge(a, b).").starts_with("OK inserted=1"));

        // This handler panics while holding the engine lock; its connection
        // dies without a response.
        failpoints::fail_once("durable.mid_ingest", Action::Panic, 0);
        let mut doomed = TcpStream::connect(addr).unwrap();
        doomed.write_all(b"FACT edge(b, c).\n").unwrap();
        let mut eof = String::new();
        let read = BufReader::new(doomed.try_clone().unwrap()).read_line(&mut eof);
        assert!(
            matches!(read, Ok(0)),
            "the panicked handler closes without replying: {eof:?}"
        );

        // Writes are now refused with a structured error…
        let err = send_line(&mut healthy, "FACT edge(c, d).");
        assert!(err.starts_with("ERR engine-unavailable"), "{err}");
        // …but reads still serve the last published snapshot.
        let answers = send_line(&mut healthy, "QUERY ?(X, Y) :- t(X, Y).");
        assert_eq!(answers, "OK answers=1 epoch=1");

        assert_eq!(send_line(&mut healthy, "SHUTDOWN"), "OK bye");
        drop(healthy);
        server.join();

        // Restart: the acked batch survives, the poisoned one (never acked,
        // but WAL'd) replays — at-least-once, exactly as documented.
        let mut reference = fresh_engine();
        reference
            .ingest(&parse_fact_list("edge(a, b).").unwrap())
            .unwrap();
        reference
            .ingest(&parse_fact_list("edge(b, c).").unwrap())
            .unwrap();
        let (recovered, report) = DurableEngine::recover(fresh_engine(), config).unwrap();
        assert!(
            !report.clean_shutdown,
            "a poisoned engine must not certify a clean shutdown"
        );
        assert_same_state(recovered.engine(), &reference);
        failpoints::clear_all();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
