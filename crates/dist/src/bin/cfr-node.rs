//! cfr-node — a FREERIDE cluster node agent.
//!
//! Listens for a coordinator, then runs local reductions over the work
//! units the coordinator sends it from a shared dataset file via the
//! shared-memory engine. One process serves one coordinator session by
//! default; `--sessions N` serves N (0 = forever), each on its own
//! thread, so several coordinators — e.g. a cfr-serve daemon
//! multiplexing jobs — can hold sessions at once.
//!
//! Every failure exits nonzero with a single `cfr-node: error: ...`
//! line carrying the typed error, so scripts and supervisors can grep
//! one predictable shape.
//!
//! ```text
//! cfr-node [--listen ADDR] [--port-file PATH] [--sessions N]
//!          [--chaos-kill-after-rounds N] [--slow-ms N]
//!          [--join ADDR] [--leave-after-rounds N]
//!   --listen ADDR     bind address (default 127.0.0.1:0)
//!   --port-file PATH  write the bound address to PATH once listening
//!                     (atomic temp+rename, so pollers never read a
//!                     partial address; lets scripts use an ephemeral port)
//!   --sessions N      coordinator sessions to serve, each on its own
//!                     thread (default 1, 0 = forever)
//!   --chaos-kill-after-rounds N
//!                     fault-injection: answer N rounds, then abort the
//!                     whole process mid-round (deterministic stand-in
//!                     for SIGKILL in recovery smoke tests)
//!   --slow-ms N       fault-injection: sleep N ms before every work
//!                     unit, turning this node into a deterministic
//!                     straggler for the coordinator's latency
//!                     detection and the steal path
//!   --join ADDR       instead of listening, dial a running coordinator's
//!                     membership hub (ClusterConfig::elastic.join_listen)
//!                     and serve that one job as a mid-job joiner; exits 0
//!                     when the job ends (or when the hub has gone away)
//!   --leave-after-rounds N
//!                     announce a voluntary Leave after handling N rounds
//!                     and exit cleanly — the coordinator reassigns this
//!                     node's work without burning an FT retry
//! ```

use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

use freeride_dist::{node, NodeOpts};

const USAGE: &str = "usage: cfr-node [--listen ADDR] [--port-file PATH] [--sessions N] \
                     [--chaos-kill-after-rounds N] [--slow-ms N] \
                     [--join ADDR] [--leave-after-rounds N]";

fn main() -> ExitCode {
    // Register the native codegen backend so jobs requesting
    // `KernelBackend::Compiled` run natively on this node (without it
    // they'd still run correctly, via the recorded interpreter
    // fallback).
    cfr_codegen::install();

    let mut listen = String::from("127.0.0.1:0");
    let mut port_file: Option<String> = None;
    let mut opts = NodeOpts::default();
    let mut join: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(a) => listen = a,
                None => return usage_error("--listen requires an address"),
            },
            "--port-file" => match args.next() {
                Some(p) => port_file = Some(p),
                None => return usage_error("--port-file requires a path"),
            },
            "--sessions" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.sessions = n,
                None => return usage_error("--sessions requires a count"),
            },
            "--chaos-kill-after-rounds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.die_after_rounds = Some(n),
                None => return usage_error("--chaos-kill-after-rounds requires a count"),
            },
            "--slow-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.slow = Duration::from_millis(n),
                None => return usage_error("--slow-ms requires a count"),
            },
            "--join" => match args.next() {
                Some(a) => join = Some(a),
                None => return usage_error("--join requires a coordinator hub address"),
            },
            "--leave-after-rounds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.leave_after_rounds = Some(n),
                None => return usage_error("--leave-after-rounds requires a count"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unexpected argument `{other}`")),
        }
    }

    if let Some(hub) = join {
        // Joiner mode: no listener of our own — dial the coordinator's
        // membership hub and serve that one job from the inside.
        let addr = match hub.parse() {
            Ok(a) => a,
            Err(e) => return usage_error(&format!("--join: bad address `{hub}`: {e}")),
        };
        eprintln!("cfr-node: joining coordinator hub at {addr}");
        return match node::join(&addr, &opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(&e.to_string()),
        };
    }

    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => return fail(&format!("cannot bind {listen}: cluster I/O error: {e}")),
    };
    let bound = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            return fail(&format!(
                "cannot read bound address: cluster I/O error: {e}"
            ))
        }
    };
    if let Some(path) = &port_file {
        if let Err(e) = write_port_file(path, &bound.to_string()) {
            return fail(&format!("cannot write port file {path}: {e}"));
        }
    }
    eprintln!("cfr-node: listening on {bound}");

    if let Err(e) = node::serve(&listener, &opts) {
        return fail(&e.to_string());
    }
    if let Some(rounds) = opts.die_after_rounds {
        // Fault injection: the session severed its socket mid-round;
        // now take the whole process down too, exactly like a SIGKILL.
        eprintln!("cfr-node: chaos kill after {rounds} rounds");
        std::process::abort();
    }
    ExitCode::SUCCESS
}

/// Write the bound address atomically: temp file in the same directory,
/// `sync_all`, rename into place (the `crates/ft` checkpoint pattern).
/// A plain `fs::write` lets a poller doing `[ -s "$f" ] && cat "$f"`
/// read a partially written address.
fn write_port_file(path: &str, addr: &str) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = format!("{path}.{}.tmp", std::process::id());
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(addr.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("cfr-node: error: {msg}");
    ExitCode::FAILURE
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("cfr-node: {msg}\n{USAGE}");
    ExitCode::FAILURE
}
