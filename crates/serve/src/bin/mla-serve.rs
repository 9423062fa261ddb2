//! The serving daemon: length-prefixed JSON frames on stdin/stdout (the
//! default) or a TCP listener, over a multi-tenant [`Server`].
//!
//! ```text
//! mla-serve [--tcp ADDR] [--restore PATH] [--checkpoint PATH]
//! ```
//!
//! `--restore PATH` loads a server checkpoint before serving (the
//! crash-recovery path). `--checkpoint PATH` sets the file `checkpoint`
//! and `shutdown` ops write; each write replaces the file atomically.
//! Without it, `checkpoint` answers the bytes inline. These two flags
//! are the only files the daemon reads or writes: no request names one.
//! Every tenant serves its reveals on the sequential loop, one at a
//! time. On TCP, connections are served one at a time — tenants persist
//! across connections; a `shutdown` op ends the process, unless its
//! checkpoint write fails: then it answers `io` and the daemon keeps
//! serving.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpListener;
use std::process::ExitCode;

use mla_serve::{serve_loop, Server};

const USAGE: &str = "usage: mla-serve [--tcp ADDR] [--restore PATH] [--checkpoint PATH]";

/// Parsed command line.
struct Args {
    tcp: Option<String>,
    restore: Option<String>,
    checkpoint: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tcp: None,
        restore: None,
        checkpoint: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} requires a {what} argument"))
        };
        match flag.as_str() {
            "--tcp" => args.tcp = Some(value("host:port")?),
            "--restore" => args.restore = Some(value("path")?),
            "--checkpoint" => args.checkpoint = Some(value("path")?),
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut server = Server::new(1, 0);
    if let Some(path) = &args.checkpoint {
        server = server.checkpoint_path(path);
    }
    if let Some(path) = &args.restore {
        let bytes = std::fs::read(path).map_err(|err| format!("reading {path}: {err}"))?;
        let tenants = server
            .restore_bytes(&bytes)
            .map_err(|err| format!("restoring {path}: {err}"))?;
        eprintln!("mla-serve: restored {tenants} tenant(s) from {path}");
    }
    match &args.tcp {
        None => {
            let mut reader = BufReader::new(std::io::stdin().lock());
            let mut writer = BufWriter::new(std::io::stdout().lock());
            serve_loop(&mut server, &mut reader, &mut writer).map_err(|err| err.to_string())?;
            writer.flush().map_err(|err| err.to_string())
        }
        Some(addr) => serve_tcp(&mut server, addr),
    }
}

/// Accepts connections one at a time; the server (and its tenants)
/// outlives each connection. A `shutdown` op — or a listener failure —
/// ends the process; per-connection wire errors only end that
/// connection.
fn serve_tcp(server: &mut Server, addr: &str) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|err| format!("binding {addr}: {err}"))?;
    let local = listener
        .local_addr()
        .map_err(|err| format!("local addr: {err}"))?;
    // The kernel may have picked the port (`:0`): announce the bound
    // address on stderr so test harnesses can connect.
    eprintln!("mla-serve: listening on {local}");
    for stream in listener.incoming() {
        let stream = stream.map_err(|err| format!("accepting on {local}: {err}"))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|err| format!("cloning stream: {err}"))?,
        );
        let mut writer = BufWriter::new(stream);
        match serve_loop(server, &mut reader, &mut writer) {
            Ok(shut_down) => {
                let _ = writer.flush();
                if shut_down {
                    return Ok(());
                }
                // Peer disconnected; tenants persist, keep accepting.
            }
            Err(err) => eprintln!("mla-serve: connection error: {err}"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mla-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
