//! A daemon whose stdout reader goes away still shuts down cleanly: its
//! status lines are written fallibly, so the `shut down cleanly` line
//! that meets a closed pipe cannot turn exit status 0 into a panic.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use stride_server::{Client, Request};

/// Starts `bin serve --addr 127.0.0.1:0 args...` with stdout piped.
fn spawn(bin: &str, args: &[&str]) -> Child {
    Command::new(bin)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon")
}

/// Reads the daemon's stdout up to its `listening on` line and returns
/// the reader (the caller closes it) and the address.
fn listening(child: &mut Child) -> (BufReader<std::process::ChildStdout>, String) {
    let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    loop {
        line.clear();
        assert!(
            out.read_line(&mut line).expect("read stdout") > 0,
            "daemon exited before `listening on`"
        );
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            return (out, addr.to_string());
        }
    }
}

/// Closes the daemon's stdout, asks it to shut down, and returns its exit
/// status.
fn shut_down_with_stdout_closed(
    mut child: Child,
    out: BufReader<std::process::ChildStdout>,
    addr: &str,
) -> std::process::ExitStatus {
    drop(out);
    let mut client = Client::connect(addr).expect("connect");
    let _ = client.call(&Request::Shutdown);
    child.wait().expect("wait for daemon")
}

#[test]
fn daemons_exit_zero_when_stdout_is_closed_before_shutdown() {
    let db = std::env::temp_dir().join(format!("stride-stdout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&db);
    let db_arg = db.to_string_lossy().into_owned();

    let mut strided = spawn(env!("CARGO_BIN_EXE_strided"), &["--db", &db_arg]);
    let (strided_out, strided_addr) = listening(&mut strided);
    let mut router = spawn(
        env!("CARGO_BIN_EXE_strided-router"),
        &["--shard", &strided_addr],
    );
    let (router_out, router_addr) = listening(&mut router);

    // The replica goes first: a router's shutdown also stops its replicas.
    // Both are stopped before either status is judged, so a failure
    // leaves no daemon running.
    let strided = shut_down_with_stdout_closed(strided, strided_out, &strided_addr);
    let router = shut_down_with_stdout_closed(router, router_out, &router_addr);
    assert!(strided.success(), "strided exited with {strided}");
    assert!(router.success(), "strided-router exited with {router}");
    let _ = std::fs::remove_dir_all(&db);
}
