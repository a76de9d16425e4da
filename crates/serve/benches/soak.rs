//! Bench: a short deterministic soak against an in-process `locapd`.
//!
//! One iteration = one complete open-loop soak run (fixed QPS, fixed
//! duration, census workload) through `locap_bench::soak` — the same
//! engine the `soak` binary and the CI smoke job use. The gate tracks
//! its wall time so regressions in the telemetry/soak path (request
//! phases, response matching, histogram recording) show up in
//! `BENCH_views.json` like any other scenario; the run must also come
//! back clean, so the bench doubles as an end-to-end sanity check.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use locap_bench::soak::{run_soak, SoakConfig};
use locap_serve::daemon::{Daemon, DaemonConfig};

/// Offered rate: modest enough that the run is schedule-bound (the
/// iteration time is dominated by the fixed duration, not daemon
/// throughput), so the median is stable across hosts.
const QPS: f64 = 400.0;
const DURATION: Duration = Duration::from_millis(250);
const CONNECTIONS: usize = 2;

fn bench_soak(c: &mut Criterion) {
    let config = DaemonConfig {
        workers: 2,
        queue_depth: 256,
        default_deadline: Some(Duration::from_secs(30)),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = daemon.local_addr();
    let handle = daemon.handle();
    let server = std::thread::spawn(move || daemon.run());

    let cfg = SoakConfig {
        addr: addr.to_string(),
        qps: QPS,
        duration: DURATION,
        connections: CONNECTIONS,
        ..SoakConfig::default()
    };
    let mut group = c.benchmark_group("soak");
    group.sample_size(10);
    group.bench_function("census_qps400_250ms", |b| {
        b.iter(|| {
            let report = run_soak(&cfg).expect("soak config is valid");
            assert!(
                report.passed(),
                "soak against the in-process daemon must be clean: {report:?}"
            );
            assert_eq!(report.sent, (QPS * DURATION.as_secs_f64()) as u64);
            report
        })
    });
    group.finish();

    handle.shutdown();
    server.join().expect("daemon thread").expect("daemon run");
}

criterion_group!(benches, bench_soak);
criterion_main!(benches);
