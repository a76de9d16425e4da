//! The `locap watch` binary end to end: it polls a live daemon's `stats`
//! op and renders each poll's registry as TSV rows.
//!
//! This is the only test in its binary, so nothing else moves the
//! process-global registry between two polls, and the second poll's
//! counter rates are exact.

mod common;

use common::{expect_ok, Client, TestDaemon, VALID_REQUESTS};
use locap_serve::daemon::DaemonConfig;

#[test]
fn watch_binary_renders_tsv_frames_end_to_end() {
    let daemon = TestDaemon::start(DaemonConfig::default());
    // give the watcher something non-trivial to render
    let mut client = Client::connect(daemon.addr());
    expect_ok(&client.roundtrip(VALID_REQUESTS[6].1));

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_locap"))
        .args(["watch", "--addr", &daemon.addr().to_string(), "--frames", "2", "--tsv"])
        .output()
        .expect("spawn locap watch");
    assert!(
        output.status.success(),
        "locap watch failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.lines().any(|l| l.contains("\tcounter\tserve/requests\t")),
        "watch rendered counter rows:\n{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.contains("\tlatency\tserve/request/")),
        "watch rendered per-phase latency rows:\n{stdout}"
    );
    // between the two polls the daemon parsed one request: the second
    // `stats` that watch sent, one per 1 s interval
    let second = stdout
        .lines()
        .find(|l| l.starts_with("1\tcounter\tserve/requests\t"))
        .unwrap_or_else(|| panic!("no second-poll serve/requests row:\n{stdout}"));
    assert!(second.ends_with("\t1.0"), "serve/requests rate over one poll: {second}");
    daemon.stop();
}
