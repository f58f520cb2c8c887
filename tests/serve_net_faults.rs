//! Faults on the TCP front end. A frame nested past the JSON reader's
//! depth cap gets a typed error, never a stack overflow that takes the
//! server down. Driven by the `serve.net.*` fail points: a server killed
//! mid-response leaves the client with a clean truncated-frame error
//! (never a corrupt-but-complete frame), a refused accept is contained,
//! and the engine ledger closes exactly either way.
//!
//! The fail-point tests need the feature: run them with
//! `cargo test --features fault-injection --test serve_net_faults`.

use lorentz::core::{LorentzConfig, LorentzPipeline, TrainedLorentz};
#[cfg(feature = "fault-injection")]
use lorentz::fault::{registry, FailAction, Trigger};
#[cfg(feature = "fault-injection")]
use lorentz::serve::wire::WireError;
use lorentz::serve::wire::{read_frame, write_frame};
use lorentz::serve::{serve_net, NetConfig, NetReport, ServeConfig, ServingEngine};
use lorentz::simdata::fleet::FleetConfig;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
#[cfg(feature = "fault-injection")]
use std::time::Duration;

/// The fail-point registry is process-wide, so a fault armed by one test
/// would fire on another test's server: the tests here run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn deployment() -> Arc<TrainedLorentz> {
    static DEPLOYMENT: OnceLock<Arc<TrainedLorentz>> = OnceLock::new();
    DEPLOYMENT
        .get_or_init(|| {
            let fleet = FleetConfig {
                n_servers: 80,
                seed: 20240807,
                ..FleetConfig::default()
            }
            .generate()
            .unwrap()
            .fleet;
            Arc::new(
                LorentzPipeline::new(LorentzConfig::paper_defaults())
                    .unwrap()
                    .train(&fleet)
                    .unwrap(),
            )
        })
        .clone()
}

fn start_server() -> (SocketAddr, JoinHandle<NetReport>) {
    let deployment = deployment();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (engine, responses) =
        ServingEngine::start(Arc::clone(&deployment), ServeConfig::default()).unwrap();
    let handle = std::thread::spawn(move || {
        serve_net(
            deployment,
            engine,
            responses,
            listener,
            NetConfig::default(),
        )
        .unwrap()
    });
    (addr, handle)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

fn drain(addr: SocketAddr, server: JoinHandle<NetReport>) -> NetReport {
    let mut stream = connect(addr);
    write_frame(&mut stream, b"{\"op\": \"drain\"}").unwrap();
    let _ = read_frame(&mut stream, 1 << 20).unwrap();
    server.join().unwrap()
}

/// A 100 KB frame of `[` is well under the 1 MiB frame cap. Read without a
/// depth cap, it overflows the reader thread's stack and aborts the whole
/// process.
#[test]
fn a_frame_nested_past_the_depth_cap_is_malformed_and_the_server_survives() {
    let _serial = serial();
    let (addr, server) = start_server();
    let mut stream = connect(addr);
    write_frame(&mut stream, "[".repeat(100_000).as_bytes()).unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap();
    let error = serde_json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert_eq!(
        error.get_field("kind").and_then(|v| v.as_str()),
        Some("malformed"),
        "{error:?}"
    );
    // The same connection, on the same server, still serves.
    write_frame(
        &mut stream,
        b"{\"id\": 1, \"profile\": {}, \"customer\": 1}",
    )
    .unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(String::from_utf8(payload).unwrap().contains("\"ok\""));
    let report = drain(addr, server);
    assert_eq!(report.frame_errors, 1);
    assert_eq!(report.engine.answered, 1);
}

#[cfg(feature = "fault-injection")]
#[test]
fn kill_mid_response_leaves_client_a_clean_error_and_ledger_exact() {
    let _serial = serial();
    let (addr, server) = start_server();
    // The first response write is torn at 50% and the connection killed —
    // the server falling over mid-response, as the client sees it.
    registry().configure("serve.net.write", Trigger::Once, FailAction::Partial(0.5));
    let mut stream = connect(addr);
    write_frame(
        &mut stream,
        b"{\"id\": 1, \"profile\": {}, \"customer\": 1}",
    )
    .unwrap();
    // The client never sees a corrupt-but-complete frame: the length
    // prefix promises more bytes than arrive, so the read fails with the
    // typed truncation error, not garbage JSON.
    match read_frame(&mut stream, 1 << 20) {
        Err(WireError::Truncated | WireError::Io(_)) => {}
        other => panic!("expected a truncated frame, got {other:?}"),
    }
    // The server survives: a fresh connection serves normally.
    let mut healthy = connect(addr);
    write_frame(
        &mut healthy,
        b"{\"id\": 2, \"profile\": {}, \"customer\": 2}",
    )
    .unwrap();
    let payload = read_frame(&mut healthy, 1 << 20).unwrap();
    assert!(String::from_utf8(payload).unwrap().contains("\"ok\""));
    let report = drain(addr, server);
    // The torn response was still ANSWERED by the engine — the wire loss
    // is accounted on the net side, never smudged into the ledger.
    assert_eq!(
        report.engine.submitted,
        report.engine.accepted + report.engine.rejected
    );
    assert_eq!(report.engine.accepted, report.engine.answered);
    assert_eq!(report.engine.answered, 2);
    assert_eq!(report.disconnects, 1);
}

#[cfg(feature = "fault-injection")]
#[test]
fn refused_accept_is_contained_and_later_connections_serve() {
    let _serial = serial();
    let (addr, server) = start_server();
    registry().configure("serve.net.accept", Trigger::Once, FailAction::Error);
    // The refused connection is simply dropped by the server; the client
    // observes EOF (or a reset) on its first read.
    {
        let mut refused = connect(addr);
        let _ = write_frame(&mut refused, b"{\"op\": \"ping\"}");
        assert!(
            read_frame(&mut refused, 1 << 20).is_err(),
            "the refused connection must never be served"
        );
    }
    std::thread::sleep(Duration::from_millis(20));
    let mut healthy = connect(addr);
    write_frame(&mut healthy, b"{\"op\": \"ping\"}").unwrap();
    let payload = read_frame(&mut healthy, 1 << 20).unwrap();
    assert!(String::from_utf8(payload).unwrap().contains("pong"));
    let report = drain(addr, server);
    assert_eq!(report.engine.submitted, 0);
    assert_eq!(report.disconnects, 1);
}
