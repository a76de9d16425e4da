//! Bench: warm (store-served) vs cold (recomputed) `locapd` round-trips
//! for an identical census request.
//!
//! Two in-process daemons serve the same deliberately compute-heavy
//! census (directed cycle, n = 4096, radius = 8 — milliseconds of
//! refinement, so the round-trip is compute-bound rather than
//! network-bound). The `cold_census` daemon has no store and recomputes
//! every iteration; the `warm_census` daemon runs with `store_dir`
//! primed by one initial request, so every measured iteration answers
//! from disk. The final stats probe asserts the warm daemon really
//! served from the store. `bench_gate` does not gate these rows: warm is
//! a loopback round trip whose thread wake-ups slow down more under
//! load than cold's compute, so their ratio moves with the host's load.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use locap_serve::daemon::{Daemon, DaemonConfig};

/// Large enough that a census recompute is milliseconds of work — the
/// warm/cold contrast must dominate TCP round-trip noise.
const CENSUS_N: usize = 4096;
const CENSUS_RADIUS: usize = 8;

fn census_request(id: &str) -> String {
    format!(
        "{{\"id\":\"{id}\",\"pipeline\":\"census\",\"params\":{{\"family\":\"directed-cycle\",\
         \"n\":{CENSUS_N},\"radius\":{CENSUS_RADIUS}}}}}\n"
    )
}

struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to in-process daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { reader, stream, line: String::new() }
    }

    fn roundtrip(&mut self, request: &str) -> &str {
        self.stream.write_all(request.as_bytes()).expect("write request");
        self.line.clear();
        self.reader.read_line(&mut self.line).expect("read response");
        assert!(self.line.contains("\"ok\":true"), "unexpected response: {}", self.line);
        &self.line
    }
}

fn spawn_daemon(store_dir: Option<std::path::PathBuf>) -> (SocketAddr, impl FnOnce()) {
    let config = DaemonConfig {
        workers: 1,
        default_deadline: Some(Duration::from_secs(60)),
        store_dir,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = daemon.local_addr();
    let handle = daemon.handle();
    let server = std::thread::spawn(move || daemon.run());
    (addr, move || {
        handle.shutdown();
        server.join().expect("daemon thread").expect("daemon run");
    })
}

fn bench_store_warm(c: &mut Criterion) {
    let store_root = std::env::temp_dir().join(format!("locap-bench-store-{}", std::process::id()));
    std::fs::remove_dir_all(&store_root).ok();

    let (cold_addr, stop_cold) = spawn_daemon(None);
    let (warm_addr, stop_warm) = spawn_daemon(Some(store_root.clone()));

    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    group.bench_function("cold_census", |b| {
        let mut client = Client::connect(cold_addr);
        let request = census_request("cold");
        b.iter(|| {
            client.roundtrip(&request);
        })
    });
    group.bench_function("warm_census", |b| {
        let mut client = Client::connect(warm_addr);
        let request = census_request("warm");
        // prime the store: the first request computes and writes back
        client.roundtrip(&request);
        b.iter(|| {
            client.roundtrip(&request);
        })
    });
    group.finish();

    // the warm daemon must actually have served from the store
    let mut client = Client::connect(warm_addr);
    let stats = client.roundtrip("{\"id\":\"stats\",\"op\":\"stats\"}\n").to_string();
    let warm_hits: u64 = stats
        .split("\"store/warm_hit\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|tok| tok.parse().ok())
        .expect("stats response carries store/warm_hit");
    assert!(warm_hits > 0, "warm daemon never hit the store: {stats}");

    stop_cold();
    stop_warm();
    std::fs::remove_dir_all(&store_root).ok();
}

criterion_group!(benches, bench_store_warm);
criterion_main!(benches);
