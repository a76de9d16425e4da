//! Bench: `locapd` request round-trip and a deterministic concurrent
//! load scenario (8 clients × 25 pipelined census requests per
//! iteration, every response matched to its request id exactly once).
//!
//! The load scenario is the bench_gate face of the conformance suite's
//! load test: the gate tracks its latency, the test asserts its
//! correctness properties.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use locap_serve::daemon::{Daemon, DaemonConfig};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 25;

fn census_request(id: usize) -> String {
    format!(
        "{{\"id\":{id},\"pipeline\":\"census\",\"params\":{{\"family\":\"directed-cycle\",\"n\":12}}}}\n"
    )
}

fn run_client(addr: SocketAddr, client: usize) {
    let stream = TcpStream::connect(addr).expect("connect to in-process daemon");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut stream = stream;
    let mut batch = String::new();
    for i in 0..REQUESTS_PER_CLIENT {
        batch.push_str(&census_request(client * REQUESTS_PER_CLIENT + i));
    }
    stream.write_all(batch.as_bytes()).expect("write batch");
    let mut seen = [false; REQUESTS_PER_CLIENT];
    let mut line = String::new();
    for _ in 0..REQUESTS_PER_CLIENT {
        line.clear();
        reader.read_line(&mut line).expect("read response");
        assert!(line.contains("\"ok\":true"), "unexpected response: {line}");
        let id: usize = line
            .split("\"id\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|tok| tok.trim().parse().ok())
            .expect("response carries a numeric id");
        let slot = id - client * REQUESTS_PER_CLIENT;
        assert!(!seen[slot], "duplicate response for id {id}");
        seen[slot] = true;
    }
    assert!(seen.iter().all(|&s| s), "lost responses for client {client}");
}

fn bench_serve(c: &mut Criterion) {
    let config = DaemonConfig {
        workers: 2,
        queue_depth: CLIENTS * REQUESTS_PER_CLIENT,
        default_deadline: Some(Duration::from_secs(30)),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = daemon.local_addr();
    let handle = daemon.handle();
    let server = std::thread::spawn(move || daemon.run());

    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.bench_function("census_roundtrip", |b| {
        let stream = TcpStream::connect(addr).expect("connect to in-process daemon");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut stream = stream;
        let mut line = String::new();
        b.iter(|| {
            stream.write_all(census_request(0).as_bytes()).expect("write request");
            line.clear();
            reader.read_line(&mut line).expect("read response");
            assert!(line.contains("\"ok\":true"), "unexpected response: {line}");
        })
    });
    group.bench_function("load_8x25", |b| {
        b.iter(|| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| std::thread::spawn(move || run_client(addr, client)))
                .collect();
            for h in clients {
                h.join().expect("client thread");
            }
        })
    });
    group.finish();

    handle.shutdown();
    server.join().expect("daemon thread").expect("daemon run");
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
