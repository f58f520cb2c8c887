//! The TCP load generator: an open-loop phase on a fixed schedule and a
//! closed-loop saturation phase, both speaking the server's
//! length-prefixed JSON frames.
//!
//! Open loop: frame `i` is due at `i / rate` and goes out on connection
//! `i mod C`. Each connection has a writer that sends on the schedule
//! without waiting for answers (so requests pile up in flight when the
//! server slows down) and a reader that timestamps every reply. Latency is
//! taken from the frame's due time, not from when it was sent, so a stall
//! anywhere — server or generator — is charged to every request that was
//! due during it. How late the sends themselves ran is kept separately as
//! the schedule lag.
//!
//! Closed loop: each connection keeps a fixed window of frames in flight
//! and sends the next one as each reply lands; completed frames per second
//! inside the measurement window is the saturation throughput.
//!
//! Replies are stored raw with their arrival time and classified after the
//! phase, so the hot loops do no JSON work.

use crate::host::tight_timer_slack;
use crate::spans::Tracer;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A reader gives up after this long without a reply: the server is
/// stalled or gone, and whatever is still outstanding counts as unanswered.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Writes one `u32`-big-endian length-prefixed frame in a single write.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(std::io::Error::other)?;
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(payload);
    stream.write_all(&buf)
}

/// Reads one length-prefixed frame.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

/// One reply as it came off the socket.
pub struct Reply {
    /// Arrival, in ns since the phase's start.
    pub at_ns: u64,
    pub bytes: Vec<u8>,
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// What one open-loop phase observed.
pub struct OpenLoopRun {
    /// Per frame: when its send began (ns since start), `None` if never
    /// sent.
    pub sent_ns: Vec<Option<u64>>,
    /// Per connection: the frame indices it carried, in send order, its
    /// replies in arrival order, and (traced phases) its `client.write` /
    /// `client.read` spans.
    pub conns: Vec<(Vec<usize>, Vec<Reply>, Tracer)>,
}

/// Sends `payloads[i]` at `start + due_ns[i]` over `conns` connections
/// (frame `i` on connection `i mod conns`) and collects every reply. With
/// `trace` set (the spans' clock epoch), every socket write and read is
/// also recorded as a span.
///
/// # Errors
/// Only connection set-up failures; a connection that breaks mid-phase
/// leaves its remaining frames unsent or unanswered.
pub fn open_loop(
    addr: &str,
    payloads: &[Vec<u8>],
    due_ns: &[u64],
    conns: usize,
    trace: Option<Instant>,
) -> std::io::Result<OpenLoopRun> {
    assert_eq!(payloads.len(), due_ns.len());
    let epoch = trace.unwrap_or_else(Instant::now);
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<_, _>>()?;
    let start = Instant::now() + Duration::from_millis(5);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<usize> = (c..payloads.len()).step_by(conns).collect();
                let mut read_half = stream.try_clone().expect("socket clone");
                let expected = mine.len();
                let reader = scope.spawn(move || {
                    let mut spans = Tracer::new(epoch);
                    let mut replies = Vec::with_capacity(expected);
                    while replies.len() < expected {
                        let began = spans.now();
                        match read_frame(&mut read_half) {
                            Ok(bytes) => {
                                if trace.is_some() {
                                    let end = spans.now();
                                    spans.record("client.read", began, end, None, None);
                                }
                                replies.push(Reply {
                                    at_ns: start.elapsed().as_nanos() as u64,
                                    bytes,
                                });
                            }
                            Err(_) => break,
                        }
                    }
                    (replies, spans)
                });
                let mut write_half = stream;
                let writer = scope.spawn(move || {
                    tight_timer_slack();
                    let mut spans = Tracer::new(epoch);
                    let mut sent = Vec::with_capacity(mine.len());
                    for &i in &mine {
                        let due = start + Duration::from_nanos(due_ns[i]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let began = spans.now();
                        let sent_at = start.elapsed().as_nanos() as u64;
                        if write_frame(&mut write_half, &payloads[i]).is_err() {
                            break;
                        }
                        sent.push((i, sent_at));
                        if trace.is_some() {
                            let end = spans.now();
                            spans.record("client.write", began, end, None, Some(i as u64));
                        }
                    }
                    (mine, sent, spans)
                });
                (writer, reader)
            })
            .collect();
        handles
            .into_iter()
            .map(|(w, r)| {
                (
                    w.join().expect("writer panicked"),
                    r.join().expect("reader panicked"),
                )
            })
            .collect::<Vec<_>>()
    });
    let mut sent_ns = vec![None; payloads.len()];
    let conns = results
        .into_iter()
        .map(|((mine, sent, mut spans), (replies, read_spans))| {
            for (i, at) in sent {
                sent_ns[i] = Some(at);
            }
            spans.absorb(read_spans);
            (mine, replies, spans)
        })
        .collect();
    Ok(OpenLoopRun { sent_ns, conns })
}

/// What one closed-loop phase observed.
pub struct ClosedLoopRun {
    /// Replies that arrived inside the measurement window.
    pub completed: u64,
    /// The measurement window, in ns since the phase's start.
    pub from_ns: u64,
    pub to_ns: u64,
    /// Per connection: pool indices in send order, and replies.
    pub conns: Vec<(Vec<usize>, Vec<Reply>)>,
}

impl ClosedLoopRun {
    /// Completions per second in each of `slices` equal slices of the
    /// measurement window.
    pub fn slice_rates(&self, slices: usize) -> Vec<f64> {
        let span = (self.to_ns - self.from_ns).max(1);
        let mut counts = vec![0u64; slices];
        for (_, replies) in &self.conns {
            for r in replies {
                if r.at_ns >= self.from_ns && r.at_ns < self.to_ns {
                    counts[((r.at_ns - self.from_ns) * slices as u64 / span) as usize] += 1;
                }
            }
        }
        let secs = span as f64 / 1e9 / slices as f64;
        counts.iter().map(|&c| c as f64 / secs).collect()
    }
}

/// Keeps `window` frames in flight on each of `conns` connections for
/// `warmup + measure`, cycling through `pool` (connection `c` sends pool
/// entries `c, c + conns, ...`), then collects the stragglers.
///
/// # Errors
/// Only connection set-up failures.
pub fn closed_loop(
    addr: &str,
    pool: &[Vec<u8>],
    conns: usize,
    window: usize,
    warmup: Duration,
    measure: Duration,
) -> std::io::Result<ClosedLoopRun> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<_, _>>()?;
    let start = Instant::now();
    let (from, to) = (warmup, warmup + measure);
    let per_conn = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, mut stream)| {
                scope.spawn(move || {
                    let mine: Vec<usize> = (c..pool.len()).step_by(conns).collect();
                    let mut sent = Vec::new();
                    let mut replies = Vec::new();
                    let mut in_flight = 0usize;
                    let mut completed = 0u64;
                    let send = |stream: &mut TcpStream, sent: &mut Vec<usize>| {
                        let i = mine[sent.len() % mine.len()];
                        write_frame(stream, &pool[i]).map(|()| sent.push(i))
                    };
                    for _ in 0..window {
                        if send(&mut stream, &mut sent).is_err() {
                            break;
                        }
                        in_flight += 1;
                    }
                    while in_flight > 0 {
                        let Ok(bytes) = read_frame(&mut stream) else {
                            break;
                        };
                        in_flight -= 1;
                        let at = start.elapsed();
                        if at >= from && at < to {
                            completed += 1;
                        }
                        replies.push(Reply {
                            at_ns: at.as_nanos() as u64,
                            bytes,
                        });
                        if at < to && send(&mut stream, &mut sent).is_ok() {
                            in_flight += 1;
                        }
                    }
                    (completed, sent, replies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection panicked"))
            .collect::<Vec<_>>()
    });
    let completed = per_conn.iter().map(|(n, _, _)| n).sum();
    Ok(ClosedLoopRun {
        completed,
        from_ns: from.as_nanos() as u64,
        to_ns: to.as_nanos() as u64,
        conns: per_conn
            .into_iter()
            .map(|(_, sent, replies)| (sent, replies))
            .collect(),
    })
}

/// The open loop's validity condition: the p99 of the schedule lag (how
/// late sends ran) may be at most this share of the p99 latency measured
/// from due time. Beyond it the tail is the generator's own lateness
/// rather than the server's, and the run fails.
pub const MAX_LAG_SHARE: f64 = 0.5;

/// Checks the open loop's validity condition ([`MAX_LAG_SHARE`]) on the
/// phase's lag and latency p99s, both in ns.
pub fn check_lag(lag_p99_ns: f64, p99_ns: f64) -> Result<(), String> {
    if lag_p99_ns <= MAX_LAG_SHARE * p99_ns {
        Ok(())
    } else {
        Err(format!(
            "load generator fell behind: schedule lag p99 {:.1} us is over {MAX_LAG_SHARE} of \
             latency p99 {:.1} us",
            lag_p99_ns / 1e3,
            p99_ns / 1e3
        ))
    }
}

/// Sends one control frame on a fresh connection and returns the reply.
pub fn control(addr: &str, payload: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, payload)?;
    read_frame(&mut stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection echo server that answers `{"id": N}` for every
    /// frame, but stops reading for `stall` once it reaches `stall_at`.
    fn stalling_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut n = 0usize;
            while let Ok(frame) = read_frame(&mut stream) {
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                n += 1;
                let text = String::from_utf8(frame).unwrap();
                let id: u64 = text
                    .trim_start_matches("{\"id\": ")
                    .split(['}', ','])
                    .next()
                    .unwrap()
                    .trim()
                    .parse()
                    .unwrap();
                write_frame(&mut stream, format!("{{\"id\": {id}}}").as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    fn reply_id(bytes: &[u8]) -> usize {
        let text = std::str::from_utf8(bytes).unwrap();
        text.trim_start_matches("{\"id\": ")
            .trim_end_matches('}')
            .parse()
            .unwrap()
    }

    #[test]
    fn a_stalled_server_is_charged_to_every_request_due_during_the_stall() {
        // 1 kHz for 300 ms; the server freezes for 150 ms at frame 50.
        let n = 300;
        let payloads: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("{{\"id\": {i}}}").into_bytes())
            .collect();
        let due: Vec<u64> = (0..n as u64).map(|i| i * 1_000_000).collect();
        let (addr, server) = stalling_server(50, Duration::from_millis(150));
        let run = open_loop(&addr, &payloads, &due, 1, None).unwrap();
        server.join().unwrap();
        let (_, replies, _) = &run.conns[0];
        assert_eq!(replies.len(), n, "every frame answered");
        let latency_ms = |frame: usize| {
            let reply = replies
                .iter()
                .find(|r| reply_id(&r.bytes) == frame)
                .unwrap();
            (reply.at_ns - due[frame]) as f64 / 1e6
        };
        // Frame 100 was due 50 ms into the 150 ms freeze: it waited at
        // least the remaining ~100 ms, although it was sent on time.
        assert!(latency_ms(100) > 90.0, "frame 100: {} ms", latency_ms(100));
        assert!(latency_ms(150) > 40.0, "frame 150: {} ms", latency_ms(150));
        let sent_late = run.sent_ns[100].unwrap() - due[100];
        assert!(sent_late < 20_000_000, "sends kept to the schedule");
        // Long after the stall the server keeps up again.
        assert!(latency_ms(290) < 20.0, "frame 290: {} ms", latency_ms(290));
    }

    #[test]
    fn a_stalled_server_passes_the_lag_check_and_a_late_generator_fails_it() {
        // The stalled server delays answers, not sends: its tail is the
        // server's, and the run stays valid.
        let n = 300;
        let payloads: Vec<Vec<u8>> = (0..n)
            .map(|i| format!("{{\"id\": {i}}}").into_bytes())
            .collect();
        let due: Vec<u64> = (0..n as u64).map(|i| i * 1_000_000).collect();
        let (addr, server) = stalling_server(50, Duration::from_millis(150));
        let run = open_loop(&addr, &payloads, &due, 1, None).unwrap();
        server.join().unwrap();
        let (_, replies, _) = &run.conns[0];
        let latency: Vec<f64> = replies
            .iter()
            .map(|r| (r.at_ns - due[reply_id(&r.bytes)]) as f64)
            .collect();
        let lag: Vec<f64> = run
            .sent_ns
            .iter()
            .zip(&due)
            .map(|(sent, due)| (sent.unwrap() - due) as f64)
            .collect();
        // 300 samples back a p95 (15 beyond), not a p99.
        let p95 = |v: &[f64]| crate::stats::percentile_of(v, 95.0).unwrap();
        assert!(p95(&latency) > 40e6, "the stall shows in the tail");
        check_lag(p95(&lag), p95(&latency)).unwrap();

        // A generator that sent every frame late by most of its latency
        // measured its own lateness: the run fails.
        let late: Vec<f64> = latency.iter().map(|l| l * 0.9).collect();
        assert!(check_lag(p95(&late), p95(&latency)).is_err());
    }

    #[test]
    fn closed_loop_keeps_its_window_and_counts_completions() {
        let pool: Vec<Vec<u8>> = (0..16)
            .map(|i| format!("{{\"id\": {i}}}").into_bytes())
            .collect();
        let (addr, server) = stalling_server(usize::MAX, Duration::ZERO);
        let run = closed_loop(
            &addr,
            &pool,
            1,
            4,
            Duration::from_millis(20),
            Duration::from_millis(100),
        )
        .unwrap();
        server.join().unwrap();
        let (sent, replies) = &run.conns[0];
        assert_eq!(sent.len(), replies.len(), "every sent frame answered");
        assert!(run.completed > 0 && run.completed as usize <= replies.len());
        for (s, r) in sent.iter().zip(replies) {
            assert_eq!(*s, reply_id(&r.bytes), "in-order echo");
        }
    }
}
