//! The multi-tenant session server and its request dispatcher.
//!
//! One [`Server`] owns a name → session table. Requests are JSON
//! objects with an `"op"` field; [`Server::handle`] maps each to a
//! response object that always carries `"ok"`. Failures are data, not
//! panics: `{"ok": false, "code": "...", "error": "..."}` with a stable
//! machine-readable code, so a misbehaving client can never tear down
//! the other tenants.
//!
//! ## Operations
//!
//! | op           | required fields                          | effect |
//! |--------------|------------------------------------------|--------|
//! | `open`       | `tenant`, `topology`, `n`, `policy`      | create a session (`backend`, `seed`, `record`, `check_feasibility`, `target` optional) |
//! | `reveal`     | `tenant`, `a`, `b`                       | serve one reveal; a compact frame (see `compact_reveal`) is read without a `Json` tree and answered with the same bytes |
//! | `reveals`    | `tenant`, `events` (`[[a,b],…]`)         | serve a frame of reveals in order, one at a time; if one fails, the error also carries `applied` (this frame's reveals served before it, which stay served) and the totals |
//! | `position`   | `tenant`, `node`                         | arrangement position mid-stream |
//! | `cost`       | `tenant`                                 | exact cost totals so far |
//! | `outcome`    | `tenant`                                 | totals plus the current permutation |
//! | `tenants`    | —                                        | list tenants |
//! | `close`      | `tenant`                                 | drop the session |
//! | `checkpoint` | —                                        | serialize **all** tenants; to the `--checkpoint` file (atomically replaced), or inline as hex |
//! | `restore`    | `bytes` (hex)                            | adopt the checkpoint's tenants, replacing live ones of the same name; every other tenant stays |
//! | `shutdown`   | —                                        | checkpoint to the `--checkpoint` file (if any) and stop; a failed write answers `io` and keeps serving |
//!
//! The wire names no files: checkpoints go only to the operator's
//! [`Server::checkpoint_path`] and restores from a file happen only at
//! start-up (`mla-serve --restore`), so a client cannot make the daemon
//! write or read a path of its choosing.
//!
//! ## Durable checkpoints
//!
//! A checkpoint file is replaced atomically: the bytes go to the sibling
//! `<path>.tmp`, which is fsynced and renamed over `<path>`, and then the
//! directory is fsynced. A crash at any point leaves either the previous
//! checkpoint or the new one at `<path>`; a torn `<path>.tmp` is never
//! read and is overwritten by the next write.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use mla_graph::{RevealEvent, Topology};
use mla_permutation::codec::{put_len, ByteReader};
use mla_permutation::{Node, Permutation};
use mla_runner::{
    buffered_frame, parse_payload, put_frame, read_frame_with, write_frame, Json, WireError,
};
use mla_sim::checkpoint;
use mla_sim::{
    decode_session, encode_session, open_session, BackendKind, CheckpointError, PolicyKind,
    RecordMode, SessionSpec, SimError, TenantSession,
};

use crate::hex::{decode_hex, encode_hex};

/// The multi-tenant session server. See the crate docs for the
/// operation table.
pub struct Server {
    tenants: BTreeMap<String, Box<dyn TenantSession>>,
    /// Target of `checkpoint`/`shutdown` checkpoints.
    checkpoint_path: Option<PathBuf>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("tenants", &self.tenants.len())
            .finish_non_exhaustive()
    }
}

/// What the serve loop should do after a response.
#[derive(Debug)]
pub enum Reply {
    /// Send the response and keep serving.
    Continue(Json),
    /// Send the response, then stop the loop.
    Shutdown(Json),
}

/// The `{"ok": true}` response seed.
fn ok_response() -> Json {
    Json::object().field("ok", true)
}

/// A structured failure response.
fn err_response(code: &str, error: impl Into<String>) -> Json {
    Json::object()
        .field("ok", false)
        .field("code", code)
        .field("error", error.into())
}

/// The stable error code of a session-layer failure.
fn sim_code(err: &SimError) -> &'static str {
    match err {
        SimError::Graph(_) => "graph",
        SimError::FeasibilityViolation { .. } => "feasibility",
        _ => "bad-request",
    }
}

/// A required string field, or the `bad-request` response.
fn want_str<'a>(request: &'a Json, key: &str) -> Result<&'a str, Json> {
    request
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| err_response("bad-request", format!("missing string field {key:?}")))
}

/// A required unsigned-integer field, or the `bad-request` response.
fn want_usize(request: &Json, key: &str) -> Result<usize, Json> {
    request
        .get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| err_response("bad-request", format!("missing integer field {key:?}")))
}

impl Server {
    /// An empty server. Both arguments are kept for API compatibility
    /// and have no effect: sessions serve every frame on the sequential
    /// loop, wherever they run.
    #[must_use]
    pub fn new(_shards: usize, _threads: usize) -> Self {
        Server {
            tenants: BTreeMap::new(),
            checkpoint_path: None,
        }
    }

    /// Sets the file `checkpoint` and `shutdown` write to.
    #[must_use]
    pub fn checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Live tenant count.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Serializes every tenant (name, session state) into one
    /// sealed server checkpoint. Sessions are nested as their own sealed
    /// blobs, so a tenant extracted from a server checkpoint is itself a
    /// valid [`decode_session`] input.
    #[must_use]
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_len(&mut body, self.tenants.len());
        for (name, session) in &self.tenants {
            put_len(&mut body, name.len());
            body.extend_from_slice(name.as_bytes());
            let blob = encode_session(session.as_ref());
            put_len(&mut body, blob.len());
            body.extend_from_slice(&blob);
        }
        checkpoint::seal(&body)
    }

    /// Adopts the tenants of [`Server::checkpoint_bytes`] output, of this
    /// format version or an older one: each replaces the live tenant of
    /// the same name, and tenants the checkpoint does not name stay as
    /// they are. Returns how many tenants the checkpoint held.
    ///
    /// All or nothing: on any error the table is left untouched.
    ///
    /// # Errors
    ///
    /// A structured [`CheckpointError`] for malformed input — container
    /// damage, duplicate or non-UTF-8 tenant names, or a corrupt nested
    /// session.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<usize, CheckpointError> {
        let (version, body) = checkpoint::open(bytes)?;
        let mut r = ByteReader::new(body);
        let count = r.count(body.len(), "tenant")?;
        let mut tenants = BTreeMap::new();
        for _ in 0..count {
            let name_len = r.count(body.len(), "tenant-name byte")?;
            let name = std::str::from_utf8(r.bytes(name_len)?)
                .map_err(|_| CheckpointError::malformed("tenant name is not UTF-8".to_string()))?
                .to_owned();
            if version == 1 {
                // Version 1 stores the tenant's shard label here: a
                // placement name that never placed anything.
                r.u64()?;
            }
            let blob_len = r.count(body.len(), "session-checkpoint byte")?;
            let session = decode_session(r.bytes(blob_len)?)?;
            if tenants.insert(name.clone(), session).is_some() {
                return Err(CheckpointError::malformed(format!(
                    "duplicate tenant \"{name}\" in checkpoint"
                )));
            }
        }
        r.finish()?;
        self.tenants.extend(tenants);
        Ok(count)
    }

    /// Handles one request; the returned [`Reply`] tells the serve loop
    /// whether to keep going.
    pub fn handle(&mut self, request: &Json) -> Reply {
        let Some(op) = request.get("op").and_then(Json::as_str) else {
            return Reply::Continue(err_response("bad-request", "missing string field \"op\""));
        };
        if op == "shutdown" {
            let mut response = ok_response().field("shutdown", true);
            if let Some(path) = self.checkpoint_path.clone() {
                match self.write_checkpoint(&path) {
                    Ok(()) => response = response.field("path", path.display().to_string()),
                    // Stopping now would lose every reveal since the last
                    // good checkpoint: keep serving instead.
                    Err(error) => return Reply::Continue(err_response("io", error)),
                }
            }
            return Reply::Shutdown(response);
        }
        let response = match self.dispatch(op, request) {
            Ok(response) | Err(response) => response,
        };
        Reply::Continue(response)
    }

    fn dispatch(&mut self, op: &str, request: &Json) -> Result<Json, Json> {
        match op {
            "open" => self.op_open(request),
            "reveal" => self.op_reveal(request),
            "reveals" => self.op_reveals(request),
            "position" => self.op_position(request),
            "cost" => self.op_cost(request),
            "outcome" => self.op_outcome(request),
            "tenants" => Ok(self.op_tenants()),
            "close" => self.op_close(request),
            "checkpoint" => self.op_checkpoint(request),
            "restore" => self.op_restore(request),
            other => Err(err_response(
                "unknown-op",
                format!("unknown op \"{other}\""),
            )),
        }
    }

    fn session_mut(&mut self, request: &Json) -> Result<&mut dyn TenantSession, Json> {
        self.tenant_mut(want_str(request, "tenant")?)
    }

    fn tenant_mut(&mut self, name: &str) -> Result<&mut dyn TenantSession, Json> {
        match self.tenants.get_mut(name) {
            Some(session) => Ok(session.as_mut()),
            None => Err(err_response(
                "unknown-tenant",
                format!("no tenant \"{name}\""),
            )),
        }
    }

    fn op_open(&mut self, request: &Json) -> Result<Json, Json> {
        let name = want_str(request, "tenant")?.to_owned();
        if self.tenants.contains_key(&name) {
            return Err(err_response(
                "duplicate-tenant",
                format!("tenant \"{name}\" is already open"),
            ));
        }
        let spec = parse_spec(request)?;
        let session =
            open_session(spec).map_err(|err| err_response("bad-request", err.to_string()))?;
        let response = ok_response()
            .field("tenant", name.as_str())
            .field("algorithm", session.algorithm_name());
        self.tenants.insert(name, session);
        Ok(response)
    }

    fn op_reveal(&mut self, request: &Json) -> Result<Json, Json> {
        let a = want_usize(request, "a")?;
        let b = want_usize(request, "b")?;
        let session = self.apply_reveal(want_str(request, "tenant")?, a, b)?;
        Ok(cost_fields(ok_response(), session))
    }

    /// The `reveal` op once its fields are read: serves the reveal
    /// `(a, b)` on tenant `name` and returns the session.
    fn apply_reveal(
        &mut self,
        name: &str,
        a: usize,
        b: usize,
    ) -> Result<&mut dyn TenantSession, Json> {
        let session = self.tenant_mut(name)?;
        let event = parse_event(a, b, session.spec().n)?;
        session
            .apply_events(&[event])
            .map_err(|err| err_response(sim_code(&err), err.to_string()))?;
        Ok(session)
    }

    /// Serves a `reveal` request read without a `Json` tree and writes
    /// its response frame to `writer` without flushing. The bytes are
    /// those [`Server::handle`] and [`put_frame`] give for the same
    /// request; a successful response is rendered straight into `writer`.
    fn reveal(
        &mut self,
        name: &str,
        a: usize,
        b: usize,
        writer: &mut impl Write,
    ) -> Result<(), WireError> {
        match self.apply_reveal(name, a, b) {
            Ok(session) => Ok(put_cost_frame(writer, session)?),
            Err(response) => put_frame(writer, &response),
        }
    }

    fn op_reveals(&mut self, request: &Json) -> Result<Json, Json> {
        let entries = request
            .get("events")
            .and_then(Json::as_array)
            .ok_or_else(|| err_response("bad-request", "missing array field \"events\""))?;
        let session = self.session_mut(request)?;
        let n = session.spec().n;
        let mut events = Vec::with_capacity(entries.len());
        for entry in entries {
            let pair = entry.as_array().unwrap_or(&[]);
            let (a, b) = match (pair.first(), pair.get(1), pair.len()) {
                (Some(a), Some(b), 2) => (a.as_usize(), b.as_usize()),
                _ => (None, None),
            };
            let (Some(a), Some(b)) = (a, b) else {
                return Err(err_response(
                    "bad-request",
                    "each event must be a two-integer array [a, b]",
                ));
            };
            events.push(parse_event(a, b, n)?);
        }
        let before = session.steps();
        match session.apply_events(&events) {
            Ok(applied) => Ok(cost_fields(
                ok_response().field("applied", applied),
                session,
            )),
            // The reveals before the failing one stay served; saying how
            // many lets a pipelining client resynchronize without asking.
            Err(err) => Err(cost_fields(
                err_response(sim_code(&err), err.to_string())
                    .field("applied", session.steps() - before),
                session,
            )),
        }
    }

    fn op_position(&mut self, request: &Json) -> Result<Json, Json> {
        let node = want_usize(request, "node")?;
        let position = self
            .session_mut(request)?
            .position_of(node)
            .map_err(|err| err_response(sim_code(&err), err.to_string()))?;
        Ok(ok_response()
            .field("node", node)
            .field("position", position))
    }

    fn op_cost(&mut self, request: &Json) -> Result<Json, Json> {
        let session = self.session_mut(request)?;
        Ok(cost_fields(ok_response(), session).field("algorithm", session.algorithm_name()))
    }

    fn op_outcome(&mut self, request: &Json) -> Result<Json, Json> {
        let session = self.session_mut(request)?;
        let outcome = session.outcome();
        let perm: Vec<Json> = outcome
            .final_perm
            .iter()
            .map(|node| Json::from(node.index()))
            .collect();
        Ok(cost_fields(ok_response(), session)
            .field("total_cost", outcome.total_cost)
            .field("perm", Json::Array(perm)))
    }

    fn op_tenants(&self) -> Json {
        let list: Vec<Json> = self
            .tenants
            .iter()
            .map(|(name, session)| {
                Json::object()
                    .field("tenant", name.as_str())
                    .field("algorithm", session.algorithm_name())
                    .field("steps", session.steps())
                    .field("n", session.spec().n)
            })
            .collect();
        ok_response().field("tenants", Json::Array(list))
    }

    fn op_close(&mut self, request: &Json) -> Result<Json, Json> {
        let name = want_str(request, "tenant")?;
        match self.tenants.remove(name) {
            Some(_) => Ok(ok_response().field("tenant", name)),
            None => Err(err_response(
                "unknown-tenant",
                format!("no tenant \"{name}\""),
            )),
        }
    }

    fn op_checkpoint(&self, request: &Json) -> Result<Json, Json> {
        if request.get("path").is_some() {
            return Err(err_response(
                "bad-request",
                "checkpoint takes no \"path\": it writes only to the daemon's \
                 --checkpoint file, or answers inline hex without one",
            ));
        }
        let response = ok_response().field("tenants", self.tenants.len());
        match &self.checkpoint_path {
            Some(path) => {
                self.write_checkpoint(path)
                    .map_err(|error| err_response("io", error))?;
                Ok(response.field("path", path.display().to_string()))
            }
            None => Ok(response.field("bytes", encode_hex(&self.checkpoint_bytes()))),
        }
    }

    fn write_checkpoint(&self, path: &Path) -> Result<(), String> {
        replace_file(path, &self.checkpoint_bytes())
            .map_err(|err| format!("writing checkpoint {}: {err}", path.display()))
    }

    fn op_restore(&mut self, request: &Json) -> Result<Json, Json> {
        let bytes = decode_hex(want_str(request, "bytes")?)
            .map_err(|error| err_response("bad-request", error))?;
        let count = self
            .restore_bytes(&bytes)
            .map_err(|err| err_response("checkpoint", err.to_string()))?;
        Ok(ok_response().field("tenants", count))
    }
}

/// Atomically replaces `path` with `bytes` (see the module docs): write
/// `<path>.tmp`, fsync it, rename it over `path`, fsync the directory.
fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path names no file"))?
        .to_owned();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let written = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written?;
    // The rename is durable only once the directory entry is.
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Appends the exact cost totals of a session to a response.
fn cost_fields(response: Json, session: &dyn TenantSession) -> Json {
    response
        .field("steps", session.steps())
        .field("moving_cost", session.moving_cost())
        .field("rearranging_cost", session.rearranging_cost())
}

/// The payload of [`put_cost_frame`] without its three numbers.
const COST_FRAME_BYTES: usize = r#"{"ok":true,"steps":,"moving_cost":,"rearranging_cost":}"#.len();

/// Writes the frame `put_frame(writer, &cost_fields(ok_response(),
/// session))` writes, without building the `Json` object or rendering
/// it into a `String` first.
fn put_cost_frame(writer: &mut impl Write, session: &dyn TenantSession) -> io::Result<()> {
    let steps = session.steps();
    let moving = session.moving_cost();
    let rearranging = session.rearranging_cost();
    let len = COST_FRAME_BYTES
        + decimal_len(steps as u128)
        + decimal_len(moving)
        + decimal_len(rearranging);
    write!(
        writer,
        "{len}\n{{\"ok\":true,\"steps\":{steps},\"moving_cost\":{moving},\
         \"rearranging_cost\":{rearranging}}}\n"
    )
}

/// The number of decimal digits of `x`.
fn decimal_len(x: u128) -> usize {
    x.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// A bounds-checked reveal event (the check keeps [`Node::new`]'s
/// capacity panic unreachable from wire input).
fn parse_event(a: usize, b: usize, n: usize) -> Result<RevealEvent, Json> {
    if a >= n || b >= n {
        return Err(err_response(
            "bad-request",
            format!("reveal ({a}, {b}) out of range for n = {n}"),
        ));
    }
    Ok(RevealEvent::new(Node::new(a), Node::new(b)))
}

/// Builds the [`SessionSpec`] of an `open` request.
fn parse_spec(request: &Json) -> Result<SessionSpec, Json> {
    let topology = match want_str(request, "topology")? {
        "cliques" => Topology::Cliques,
        "lines" => Topology::Lines,
        other => {
            return Err(err_response(
                "bad-request",
                format!("unknown topology \"{other}\" (want \"cliques\" or \"lines\")"),
            ))
        }
    };
    let n = want_usize(request, "n")?;
    let policy = match want_str(request, "policy")? {
        "rand" => PolicyKind::Rand,
        "fair" => PolicyKind::Fair,
        "smaller-moves" => PolicyKind::SmallerMoves,
        "det" => PolicyKind::Det,
        "opt" => PolicyKind::Opt,
        other => {
            return Err(err_response(
                "bad-request",
                format!(
                    "unknown policy \"{other}\" (want \"rand\", \"fair\", \"smaller-moves\", \
                     \"det\" or \"opt\")"
                ),
            ))
        }
    };
    let backend = match request.get("backend").and_then(Json::as_str) {
        None | Some("segment") => BackendKind::Segment,
        Some("dense") => BackendKind::Dense,
        Some(other) => {
            return Err(err_response(
                "bad-request",
                format!("unknown backend \"{other}\" (want \"dense\" or \"segment\")"),
            ))
        }
    };
    let seed = match request.get("seed") {
        None => 0,
        Some(value) => value
            .as_u64()
            .ok_or_else(|| err_response("bad-request", "seed must be an unsigned integer"))?,
    };
    let mut spec = SessionSpec::new(topology, n, policy, backend, seed);
    match request.get("record") {
        None => {}
        Some(value) => {
            let mode = match (value.as_str(), value.as_usize()) {
                (Some("full"), _) => RecordMode::Full,
                (Some("off"), _) => RecordMode::Off,
                (None, Some(window)) => RecordMode::Window(window),
                _ => {
                    return Err(err_response(
                        "bad-request",
                        "record must be \"full\", \"off\" or a window size",
                    ))
                }
            };
            spec = spec.record(mode);
        }
    }
    match request.get("check_feasibility") {
        None => {}
        Some(value) => {
            let on = value.as_bool().ok_or_else(|| {
                err_response("bad-request", "check_feasibility must be a boolean")
            })?;
            spec = spec.check_feasibility(on);
        }
    }
    if let Some(value) = request.get("target") {
        let entries = value
            .as_array()
            .ok_or_else(|| err_response("bad-request", "target must be an array of nodes"))?;
        let mut nodes = Vec::with_capacity(entries.len());
        for entry in entries {
            let index = entry.as_usize().ok_or_else(|| {
                err_response("bad-request", "target entries must be unsigned integers")
            })?;
            if index >= n {
                return Err(err_response(
                    "bad-request",
                    format!("target node {index} out of range for n = {n}"),
                ));
            }
            nodes.push(Node::new(index));
        }
        let target = Permutation::from_nodes(nodes)
            .map_err(|err| err_response("bad-request", err.to_string()))?;
        spec = spec.target(target);
    }
    Ok(spec)
}

/// A `reveal` request in the one shape [`serve_loop`] reads in place.
#[derive(Debug, PartialEq, Eq)]
struct CompactReveal<'a> {
    tenant: &'a str,
    a: usize,
    b: usize,
}

/// Reads `payload` as a compact `reveal` request, the one shape
/// [`serve_loop`] serves without a `Json` tree. A compact frame's payload
/// is an object with exactly the members `op` (`"reveal"`), `tenant` (a
/// string with no escape or control byte), `a` and `b` (plain decimal
/// digits with no sign, fraction, exponent or leading zero that fit
/// `usize`), each once and in any order, with no whitespace anywhere.
/// `None` for every other payload, which [`parse_payload`] and
/// [`Server::handle`] then serve.
///
/// A payload this accepts means to `Json::parse` exactly what it says
/// here: the keys and values carry no escapes, and the rest of the
/// payload is ASCII, so it is UTF-8 iff the tenant name is.
fn compact_reveal(payload: &[u8]) -> Option<CompactReveal<'_>> {
    let mut rest = payload.strip_prefix(b"{")?;
    let (mut op, mut tenant, mut a, mut b) = (false, None, None, None);
    loop {
        let key = quoted(&mut rest)?;
        rest = rest.strip_prefix(b":")?;
        match key {
            b"op" if !op => {
                rest = rest.strip_prefix(b"\"reveal\"")?;
                op = true;
            }
            b"tenant" if tenant.is_none() => {
                let name = quoted(&mut rest)?;
                if name.iter().any(|&byte| byte == b'\\' || byte < 0x20) {
                    return None;
                }
                tenant = Some(std::str::from_utf8(name).ok()?);
            }
            b"a" if a.is_none() => a = Some(plain_usize(&mut rest)?),
            b"b" if b.is_none() => b = Some(plain_usize(&mut rest)?),
            _ => return None,
        }
        match rest {
            [b',', more @ ..] => rest = more,
            [b'}'] => break,
            _ => return None,
        }
    }
    if !op {
        return None;
    }
    Some(CompactReveal {
        tenant: tenant?,
        a: a?,
        b: b?,
    })
}

/// Takes the string at the start of `rest`: the bytes between its quote
/// and the next one, escapes left as they are.
fn quoted<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let body = rest.strip_prefix(b"\"")?;
    let close = body.iter().position(|&byte| byte == b'"')?;
    *rest = &body[close + 1..];
    Some(&body[..close])
}

/// Takes the plain decimal `usize` at the start of `rest`: at least one
/// digit, and no leading zero.
fn plain_usize(rest: &mut &[u8]) -> Option<usize> {
    let digits = rest.iter().take_while(|byte| byte.is_ascii_digit()).count();
    let (number, after) = rest.split_at(digits);
    if matches!(number, [] | [b'0', _, ..]) {
        return None;
    }
    let value = number.iter().try_fold(0usize, |value, &digit| {
        value
            .checked_mul(10)?
            .checked_add(usize::from(digit - b'0'))
    })?;
    *rest = after;
    Some(value)
}

/// Sends the best-effort `wire` error response to a failure that ends
/// [`serve_loop`], and returns the failure.
fn wire_failure(writer: &mut impl Write, err: WireError) -> WireError {
    let _ = write_frame(writer, &err_response("wire", err.to_string()));
    err
}

/// Serves frames from `reader` until end of stream, a `shutdown` op, or
/// a wire-level failure. Returns `true` iff a `shutdown` op stopped the
/// loop — on a TCP daemon, end-of-stream means "peer disconnected, keep
/// accepting" while shutdown means "exit the process".
///
/// Responses go out in request order, and the loop writes them at
/// drain boundaries. The response to a `reveal` frame stays in `writer`
/// while another whole frame is already in `reader`'s buffer. Everything
/// held is flushed before the loop would wait for input and before it
/// serves any other frame, whose own response is flushed at once. A
/// client that waits for each response before sending the next request
/// therefore never waits on a held one, and a pipelining client gets one
/// write per buffered batch of reveals instead of one per reveal.
///
/// Each frame is read once, by [`read_frame_with`]. A compact `reveal`
/// payload (the one shape `compact_reveal` accepts) is served where it
/// lies, and a successful response is rendered straight into `writer`.
/// Any other payload is parsed into a `Json` tree, which
/// [`Server::handle`] serves once the payload's bytes are gone. Every
/// response byte, an error's included, is the same on both paths.
///
/// Malformed JSON in a well-framed payload gets a `bad-json` error
/// response and the loop continues (the frame boundary is intact). A
/// broken frame header, truncation or an I/O failure desyncs the byte
/// stream: the loop sends a best-effort `wire` error and returns the
/// failure.
///
/// # Errors
///
/// [`WireError`] when the stream desyncs or the transport fails.
pub fn serve_loop<R: Read>(
    server: &mut Server,
    reader: &mut BufReader<R>,
    writer: &mut impl Write,
) -> Result<bool, WireError> {
    // Whether `writer` holds `reveal` responses it has not flushed.
    let mut held = false;
    loop {
        if held && buffered_frame(reader.buffer()).is_none() {
            writer.flush()?;
            held = false;
        }
        // `Ok(None)` once a compact `reveal` is served.
        let frame = read_frame_with(reader, |payload| match compact_reveal(payload) {
            Some(reveal) => server
                .reveal(reveal.tenant, reveal.a, reveal.b, writer)
                .map(|()| None),
            None => parse_payload(payload).map(Some),
        });
        let request = match frame {
            Ok(Some(Ok(Some(request)))) => request,
            Ok(Some(Ok(None))) => {
                held = true;
                continue;
            }
            Ok(Some(Err(WireError::Json(err)))) => {
                write_frame(writer, &err_response("bad-json", err.to_string()))?;
                held = false;
                continue;
            }
            // Writing the compact path's response failed.
            Ok(Some(Err(err))) => return Err(err),
            Ok(None) => return Ok(false),
            Err(err) => return Err(wire_failure(writer, err)),
        };
        let reveal = request.get("op").and_then(Json::as_str) == Some("reveal");
        if held && !reveal {
            writer.flush()?;
            held = false;
        }
        match server.handle(&request) {
            Reply::Continue(response) if reveal => {
                put_frame(writer, &response)?;
                held = true;
            }
            Reply::Continue(response) => write_frame(writer, &response)?,
            Reply::Shutdown(response) => {
                write_frame(writer, &response)?;
                return Ok(true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_permutation::SegmentArrangement;
    use mla_runner::read_frame;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn ok(response: &Json) -> bool {
        response.get("ok").and_then(Json::as_bool) == Some(true)
    }

    fn code(response: &Json) -> &str {
        response.get("code").and_then(Json::as_str).unwrap_or("")
    }

    fn continue_response(reply: Reply) -> Json {
        match reply {
            Reply::Continue(response) => response,
            Reply::Shutdown(response) => panic!("unexpected shutdown: {response:?}"),
        }
    }

    fn request(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    fn open_tenant(server: &mut Server, name: &str, n: usize) -> Json {
        continue_response(server.handle(&request(&format!(
            "{{\"op\":\"open\",\"tenant\":\"{name}\",\"topology\":\"cliques\",\
             \"n\":{n},\"policy\":\"rand\",\"seed\":7}}"
        ))))
    }

    #[test]
    fn open_reveal_query_close_lifecycle() {
        let mut server = Server::new(4, 1);
        let opened = open_tenant(&mut server, "t0", 8);
        assert!(ok(&opened), "{opened:?}");
        assert_eq!(opened.get("shard"), None);
        // A client that still sends a shard label is served; the field is
        // ignored like any other unknown key.
        let labelled = continue_response(server.handle(&request(
            "{\"op\":\"open\",\"tenant\":\"t1\",\"topology\":\"lines\",\"n\":4,\
             \"policy\":\"det\",\"shard\":3}",
        )));
        assert!(ok(&labelled), "{labelled:?}");
        assert_eq!(labelled.get("shard"), None);

        let served = continue_response(server.handle(&request(
            "{\"op\":\"reveals\",\"tenant\":\"t0\",\"events\":[[0,1],[2,3],[0,2]]}",
        )));
        assert!(ok(&served), "{served:?}");
        assert_eq!(served.get("steps").and_then(Json::as_usize), Some(3));
        assert_eq!(served.get("applied").and_then(Json::as_usize), Some(3));

        let position = continue_response(server.handle(&request(
            "{\"op\":\"position\",\"tenant\":\"t0\",\"node\":5}",
        )));
        assert!(ok(&position), "{position:?}");
        assert!(position.get("position").and_then(Json::as_usize).is_some());

        let outcome =
            continue_response(server.handle(&request("{\"op\":\"outcome\",\"tenant\":\"t0\"}")));
        assert_eq!(
            outcome
                .get("perm")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(8)
        );

        let closed =
            continue_response(server.handle(&request("{\"op\":\"close\",\"tenant\":\"t0\"}")));
        assert!(ok(&closed), "{closed:?}");
        let gone =
            continue_response(server.handle(&request("{\"op\":\"cost\",\"tenant\":\"t0\"}")));
        assert_eq!(code(&gone), "unknown-tenant");
    }

    #[test]
    fn position_past_the_last_node_is_a_bad_request() {
        let mut server = Server::new(1, 1);
        assert!(ok(&open_tenant(&mut server, "t0", 8)));
        // Node n, nodes far past it, and indices that no `u32` node id
        // can hold: each is answered, never a panic.
        for node in ["8", "1000", "4294967296", "18446744073709551615"] {
            let response = continue_response(server.handle(&request(&format!(
                "{{\"op\":\"position\",\"tenant\":\"t0\",\"node\":{node}}}"
            ))));
            let mut frame = Vec::new();
            put_frame(&mut frame, &response).unwrap();
            let payload = format!(
                "{{\"ok\":false,\"code\":\"bad-request\",\
                 \"error\":\"node {node} out of range for n = 8\"}}"
            );
            let want = format!("{}\n{payload}\n", payload.len());
            assert_eq!(String::from_utf8(frame).unwrap(), want, "node {node}");
        }
        let last = continue_response(server.handle(&request(
            "{\"op\":\"position\",\"tenant\":\"t0\",\"node\":7}",
        )));
        assert_eq!(
            last.render_compact(),
            "{\"ok\":true,\"node\":7,\"position\":7}"
        );
    }

    #[test]
    fn malformed_requests_get_stable_error_codes() {
        let mut server = Server::new(2, 1);
        let opened = open_tenant(&mut server, "t0", 4);
        assert!(ok(&opened), "{opened:?}");
        let named = std::env::temp_dir().join(format!(
            "mla-serve-{}-client-named.ckpt",
            std::process::id()
        ));
        let with_path = |op: &str| {
            Json::object()
                .field("op", op)
                .field("path", named.display().to_string())
                .render_compact()
        };
        let (checkpoint_to_path, restore_from_path) =
            (with_path("checkpoint"), with_path("restore"));
        let cases = [
            ("{\"n\":4}", "bad-request"),
            ("{\"op\":\"frobnicate\"}", "unknown-op"),
            ("{\"op\":\"cost\",\"tenant\":\"nope\"}", "unknown-tenant"),
            (
                "{\"op\":\"open\",\"tenant\":\"t0\",\"topology\":\"cliques\",\"n\":4,\
                 \"policy\":\"rand\"}",
                "duplicate-tenant",
            ),
            (
                "{\"op\":\"open\",\"tenant\":\"t1\",\"topology\":\"rings\",\"n\":4,\
                 \"policy\":\"rand\"}",
                "bad-request",
            ),
            (
                "{\"op\":\"open\",\"tenant\":\"t1\",\"topology\":\"cliques\",\"n\":4,\
                 \"policy\":\"opt\"}",
                "bad-request",
            ),
            (
                "{\"op\":\"reveal\",\"tenant\":\"t0\",\"a\":0,\"b\":9}",
                "bad-request",
            ),
            (
                "{\"op\":\"reveals\",\"tenant\":\"t0\",\"events\":[[0]]}",
                "bad-request",
            ),
            (
                "{\"op\":\"migrate\",\"tenant\":\"t0\",\"shard\":7}",
                "unknown-op",
            ),
            ("{\"op\":\"restore\",\"bytes\":\"zz\"}", "bad-request"),
            ("{\"op\":\"restore\",\"bytes\":\"00ff\"}", "checkpoint"),
            (checkpoint_to_path.as_str(), "bad-request"),
            (restore_from_path.as_str(), "bad-request"),
        ];
        for (text, want) in cases {
            let response = continue_response(server.handle(&request(text)));
            assert_eq!(code(&response), want, "{text} -> {response:?}");
        }
        let refused = continue_response(server.handle(&request(&checkpoint_to_path)));
        let message = refused.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains("--checkpoint"), "{message}");
        let mut tmp = named.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!named.exists(), "a client named a file and it was written");
        assert!(
            !Path::new(&tmp).exists(),
            "a client named a file and it was written"
        );
        // A merge of two nodes already in one component is a graph error.
        let merged = continue_response(server.handle(&request(
            "{\"op\":\"reveal\",\"tenant\":\"t0\",\"a\":0,\"b\":1}",
        )));
        assert!(ok(&merged), "{merged:?}");
        let again = continue_response(server.handle(&request(
            "{\"op\":\"reveal\",\"tenant\":\"t0\",\"a\":0,\"b\":1}",
        )));
        assert_eq!(code(&again), "graph");
    }

    #[test]
    fn server_checkpoint_roundtrips_every_tenant() {
        let mut server = Server::new(3, 1);
        for (index, name) in ["alpha", "beta", "gamma"].iter().enumerate() {
            let opened = open_tenant(&mut server, name, 8 + index);
            assert!(ok(&opened), "{opened:?}");
        }
        let served = continue_response(server.handle(&request(
            "{\"op\":\"reveals\",\"tenant\":\"beta\",\"events\":[[0,1],[2,3]]}",
        )));
        assert!(ok(&served), "{served:?}");

        let bytes = server.checkpoint_bytes();
        let mut restored = Server::new(3, 1);
        assert_eq!(restored.restore_bytes(&bytes).unwrap(), 3);
        let before = continue_response(server.handle(&request("{\"op\":\"tenants\"}")));
        let after = continue_response(restored.handle(&request("{\"op\":\"tenants\"}")));
        assert_eq!(before, after);

        // Replay after restore matches replay without the roundtrip.
        let frame = "{\"op\":\"reveals\",\"tenant\":\"beta\",\"events\":[[4,5],[0,2]]}";
        let direct = continue_response(server.handle(&request(frame)));
        let resumed = continue_response(restored.handle(&request(frame)));
        assert_eq!(direct, resumed);
    }

    #[test]
    fn corrupt_server_checkpoints_are_structured_errors() {
        let mut server = Server::new(2, 1);
        let opened = open_tenant(&mut server, "t0", 8);
        assert!(ok(&opened), "{opened:?}");
        let good = server.checkpoint_bytes();
        let mut fresh = Server::new(2, 1);
        for cut in 0..good.len() {
            assert!(fresh.restore_bytes(&good[..cut]).is_err(), "cut {cut}");
            assert_eq!(fresh.tenant_count(), 0, "table must stay untouched");
        }
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x10;
        assert!(fresh.restore_bytes(&flipped).is_err());
    }

    #[test]
    fn restore_frame_with_a_crafted_node_count_is_refused() {
        let mut server = Server::new(2, 1);
        let opened = open_tenant(&mut server, "t0", 8);
        assert!(ok(&opened), "{opened:?}");
        let served = continue_response(server.handle(&request(
            "{\"op\":\"reveals\",\"tenant\":\"t0\",\"events\":[[0,1],[2,3]]}",
        )));
        assert!(ok(&served), "{served:?}");
        let before = continue_response(server.handle(&request("{\"op\":\"tenants\"}")));
        // One validly sealed session whose spec and segment arrangement
        // declare `u32::MAX` nodes in zero segments.
        let huge = u32::MAX as usize;
        let mut session = Vec::new();
        SessionSpec::new(
            Topology::Cliques,
            huge,
            PolicyKind::Rand,
            BackendKind::Segment,
            1,
        )
        .encode_into(&mut session);
        put_len(&mut session, huge);
        put_len(&mut session, 0);
        let blob = checkpoint::seal(&session);
        let mut body = Vec::new();
        put_len(&mut body, 1);
        put_len(&mut body, 1);
        body.push(b'x');
        put_len(&mut body, blob.len());
        body.extend_from_slice(&blob);
        let frame = format!(
            "{{\"op\":\"restore\",\"bytes\":\"{}\"}}",
            encode_hex(&checkpoint::seal(&body))
        );
        let refused = continue_response(server.handle(&request(&frame)));
        assert!(!ok(&refused), "{refused:?}");
        assert_eq!(code(&refused), "checkpoint");
        let after = continue_response(server.handle(&request("{\"op\":\"tenants\"}")));
        assert_eq!(before, after, "the tenant table must stay untouched");
        let next = continue_response(server.handle(&request(
            "{\"op\":\"reveal\",\"tenant\":\"t0\",\"a\":0,\"b\":2}",
        )));
        assert!(ok(&next), "{next:?}");
    }

    fn steps(server: &mut Server, name: &str) -> Option<usize> {
        let frame = format!("{{\"op\":\"cost\",\"tenant\":\"{name}\"}}");
        let cost = continue_response(server.handle(&request(&frame)));
        cost.get("steps").and_then(Json::as_usize)
    }

    fn restore(server: &mut Server, bytes: &[u8]) -> Json {
        let frame = format!("{{\"op\":\"restore\",\"bytes\":\"{}\"}}", encode_hex(bytes));
        continue_response(server.handle(&request(&frame)))
    }

    #[test]
    fn restore_replaces_only_the_tenants_it_names() {
        let mut server = Server::new(1, 0);
        assert!(ok(&open_tenant(&mut server, "alice", 8)));
        let reveal = |a: usize, b: usize| {
            request(&format!(
                "{{\"op\":\"reveal\",\"tenant\":\"alice\",\"a\":{a},\"b\":{b}}}"
            ))
        };
        assert!(ok(&continue_response(server.handle(&reveal(0, 1)))));
        let older_alice = server.checkpoint_bytes();
        assert!(ok(&continue_response(server.handle(&reveal(2, 3)))));
        assert_eq!(steps(&mut server, "alice"), Some(2));

        // An empty daemon's checkpoint names no tenant, so nothing changes.
        let empty = restore(&mut server, &Server::new(1, 0).checkpoint_bytes());
        assert!(ok(&empty), "{empty:?}");
        assert_eq!(empty.get("tenants").and_then(Json::as_usize), Some(0));
        assert_eq!(steps(&mut server, "alice"), Some(2));

        // A checkpoint naming another tenant adds it.
        let mut other = Server::new(1, 0);
        assert!(ok(&open_tenant(&mut other, "bob", 6)));
        assert!(ok(&restore(&mut server, &other.checkpoint_bytes())));
        assert_eq!(steps(&mut server, "alice"), Some(2));
        assert_eq!(steps(&mut server, "bob"), Some(0));

        // A checkpoint holding an older alice replaces the live one.
        assert!(ok(&restore(&mut server, &older_alice)));
        assert_eq!(steps(&mut server, "alice"), Some(1));
        assert_eq!(steps(&mut server, "bob"), Some(0));
        assert_eq!(server.tenant_count(), 2);
    }

    #[test]
    fn restore_of_a_session_that_splits_a_component_is_refused() {
        let mut server = Server::new(1, 0);
        assert!(ok(&open_tenant(&mut server, "alice", 8)));
        let served = continue_response(server.handle(&request(
            "{\"op\":\"reveals\",\"tenant\":\"alice\",\"events\":[[0,1],[2,3]]}",
        )));
        assert!(ok(&served), "{served:?}");
        let cost = request("{\"op\":\"cost\",\"tenant\":\"alice\"}");
        let tenants = request("{\"op\":\"tenants\"}");
        let before = [&cost, &tenants].map(|r| continue_response(server.handle(r)));
        // Mallory's session, after reveal (0, 1), re-sealed with four
        // one-node segments: component {0, 1} is split, so its next
        // reveal would panic the daemon.
        let mut mallory = open_session(SessionSpec::new(
            Topology::Cliques,
            4,
            PolicyKind::Rand,
            BackendKind::Segment,
            1,
        ))
        .unwrap();
        mallory
            .apply_events(&[RevealEvent::new(Node::new(0), Node::new(1))])
            .unwrap();
        let sealed = encode_session(mallory.as_ref());
        let (version, body) = checkpoint::open(&sealed).unwrap();
        let mut r = ByteReader::new(body);
        SessionSpec::decode_from(&mut r).unwrap();
        let start = body.len() - r.remaining();
        SegmentArrangement::decode_from(&mut r, version).unwrap();
        let mut crafted = body[..start].to_vec();
        SegmentArrangement::identity(4).encode_into(&mut crafted);
        crafted.extend_from_slice(&body[body.len() - r.remaining()..]);
        let blob = checkpoint::seal(&crafted);
        let mut table = Vec::new();
        put_len(&mut table, 1);
        put_len(&mut table, 7);
        table.extend_from_slice(b"mallory");
        put_len(&mut table, blob.len());
        table.extend_from_slice(&blob);
        let refused = restore(&mut server, &checkpoint::seal(&table));
        assert!(!ok(&refused), "{refused:?}");
        assert_eq!(code(&refused), "checkpoint");
        let after = [&cost, &tenants].map(|r| continue_response(server.handle(r)));
        assert_eq!(
            before, after,
            "alice and the tenant table must stay untouched"
        );
        let next = continue_response(server.handle(&request(
            "{\"op\":\"reveal\",\"tenant\":\"alice\",\"a\":1,\"b\":2}",
        )));
        assert!(ok(&next), "{next:?}");
    }

    #[test]
    fn serve_loop_speaks_the_wire_protocol() {
        let mut server = Server::new(2, 1);
        let mut input = Vec::new();
        for text in [
            "{\"op\":\"open\",\"tenant\":\"t0\",\"topology\":\"lines\",\"n\":6,\
             \"policy\":\"det\"}",
            "{\"op\":\"reveal\",\"tenant\":\"t0\",\"a\":0,\"b\":1}",
            "not json",
            "{\"op\":\"shutdown\"}",
        ] {
            if let Ok(message) = Json::parse(text) {
                write_frame(&mut input, &message).unwrap();
            } else {
                input.extend_from_slice(format!("{}\n{text}\n", text.len()).as_bytes());
            }
        }
        let mut output = Vec::new();
        let shut_down = serve_loop(
            &mut server,
            &mut BufReader::new(input.as_slice()),
            &mut output,
        )
        .unwrap();
        assert!(shut_down);
        let mut r = std::io::Cursor::new(output);
        let mut responses = Vec::new();
        while let Some(response) = read_frame(&mut r).unwrap() {
            responses.push(response);
        }
        assert_eq!(responses.len(), 4);
        assert!(ok(&responses[0]), "{:?}", responses[0]);
        assert!(ok(&responses[1]), "{:?}", responses[1]);
        assert_eq!(code(&responses[2]), "bad-json");
        assert_eq!(
            responses[3].get("shutdown").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn a_failed_reveals_frame_says_what_it_served() {
        let mut server = Server::new(1, 0);
        let opened = continue_response(server.handle(&request(
            "{\"op\":\"open\",\"tenant\":\"a\",\"topology\":\"lines\",\"n\":6,\"policy\":\"det\"}",
        )));
        assert!(ok(&opened), "{opened:?}");
        // The fourth reveal would close the path 0-1-2-3 into a cycle.
        let failed = continue_response(server.handle(&request(
            "{\"op\":\"reveals\",\"tenant\":\"a\",\"events\":[[0,1],[2,3],[1,2],[0,3]]}",
        )));
        assert_eq!(code(&failed), "graph", "{failed:?}");
        assert_eq!(failed.get("applied").and_then(Json::as_usize), Some(3));
        let cost = continue_response(server.handle(&request("{\"op\":\"cost\",\"tenant\":\"a\"}")));
        assert_eq!(cost.get("steps").and_then(Json::as_usize), Some(3));
        for key in ["steps", "moving_cost", "rearranging_cost"] {
            assert!(failed.get(key).is_some(), "{key} missing from {failed:?}");
            assert_eq!(failed.get(key), cost.get(key), "{key}");
        }
        // A frame that fails before serving anything applied nothing.
        let refused = continue_response(server.handle(&request(
            "{\"op\":\"reveals\",\"tenant\":\"a\",\"events\":[[0,3],[4,5]]}",
        )));
        assert_eq!(code(&refused), "graph", "{refused:?}");
        assert_eq!(refused.get("applied").and_then(Json::as_usize), Some(0));
        assert_eq!(refused.get("steps").and_then(Json::as_usize), Some(3));
    }

    /// The serve loop's two ends, shared so that every read of its input
    /// can check what it had sent by then. Output counts as sent once it
    /// is flushed.
    #[derive(Debug, Default)]
    struct Pipe {
        input: Vec<u8>,
        /// End offset of each request frame in `input`.
        frame_ends: Vec<usize>,
        /// Bytes of `input` handed out so far.
        delivered: usize,
        /// Largest read to hand out.
        chunk: usize,
        /// Whether a read also stops at the end of a frame, as the reads
        /// of a client that waits for each response do.
        frame_per_read: bool,
        /// Written output awaiting a flush.
        pending: Vec<u8>,
        /// Flushed output.
        sent: Vec<u8>,
        /// Response frames in `sent`.
        answered: usize,
        flushes: usize,
    }

    struct PipeIn(Rc<RefCell<Pipe>>);

    impl Read for PipeIn {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let mut pipe = self.0.borrow_mut();
            let complete = pipe
                .frame_ends
                .iter()
                .filter(|&&end| end <= pipe.delivered)
                .count();
            assert!(
                pipe.answered >= complete,
                "waiting for input with {complete} frames delivered but {} answered",
                pipe.answered
            );
            let start = pipe.delivered;
            let mut end = pipe.input.len();
            if pipe.frame_per_read {
                end = pipe
                    .frame_ends
                    .iter()
                    .copied()
                    .find(|&e| e > start)
                    .unwrap_or(end);
            }
            let len = buf.len().min(pipe.chunk).min(end - start);
            buf[..len].copy_from_slice(&pipe.input[start..start + len]);
            pipe.delivered += len;
            Ok(len)
        }
    }

    struct PipeOut(Rc<RefCell<Pipe>>);

    impl Write for PipeOut {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().pending.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            let mut pipe = self.0.borrow_mut();
            let pending = std::mem::take(&mut pipe.pending);
            let mut frames = pending.as_slice();
            while read_frame(&mut frames).unwrap().is_some() {
                pipe.answered += 1;
            }
            pipe.sent.extend_from_slice(&pending);
            pipe.flushes += 1;
            Ok(())
        }
    }

    /// Appends `text` as one frame, valid JSON or not.
    fn put_text_frame(input: &mut Vec<u8>, text: &str) {
        input.extend_from_slice(format!("{}\n{text}\n", text.len()).as_bytes());
    }

    #[test]
    fn serve_loop_never_waits_for_input_while_holding_a_response() {
        let mut texts = Vec::new();
        for (name, topology) in [("a", "cliques"), ("b", "lines")] {
            texts.push(format!(
                "{{\"op\":\"open\",\"tenant\":\"{name}\",\"topology\":\"{topology}\",\
                 \"n\":128,\"policy\":\"rand\",\"seed\":3}}"
            ));
        }
        for i in 0..100 {
            for name in ["a", "b"] {
                texts.push(format!(
                    "{{\"op\":\"reveal\",\"tenant\":\"{name}\",\"a\":{i},\"b\":{}}}",
                    i + 1
                ));
            }
            if i == 50 {
                texts.push("{\"op\":\"cost\",\"tenant\":\"b\"}".to_owned());
            }
        }
        texts.push("not json".to_owned());
        texts.push("{\"op\":\"checkpoint\"}".to_owned());
        // The expected bytes: each frame served on its own by a fresh
        // server and written with `write_frame`. The restore frame
        // carries the checkpoint this run answers.
        let mut reference = Server::new(1, 0);
        let mut want = Vec::new();
        let mut input = Vec::new();
        let mut frame_ends = Vec::new();
        let mut index = 0;
        while index < texts.len() {
            let text = &texts[index];
            put_text_frame(&mut input, text);
            frame_ends.push(input.len());
            let response = match Json::parse(text) {
                Ok(message) => match reference.handle(&message) {
                    Reply::Continue(response) | Reply::Shutdown(response) => response,
                },
                Err(err) => err_response("bad-json", err.to_string()),
            };
            if let Some(hex) = response.get("bytes").and_then(Json::as_str) {
                texts.push(format!("{{\"op\":\"restore\",\"bytes\":\"{hex}\"}}"));
                texts.push("{\"op\":\"cost\",\"tenant\":\"a\"}".to_owned());
                texts.push("{\"op\":\"shutdown\"}".to_owned());
            }
            write_frame(&mut want, &response).unwrap();
            index += 1;
        }
        assert_eq!(texts.len(), 208);
        // The restore frame is larger than the reader's buffer.
        assert!(texts[205].len() > 8192, "{}", texts[205].len());

        for chunk in [1, 7, 64, usize::MAX] {
            let pipe = Rc::new(RefCell::new(Pipe {
                input: input.clone(),
                frame_ends: frame_ends.clone(),
                chunk,
                ..Pipe::default()
            }));
            let mut server = Server::new(1, 0);
            let mut reader = BufReader::new(PipeIn(Rc::clone(&pipe)));
            let mut writer = PipeOut(Rc::clone(&pipe));
            assert!(serve_loop(&mut server, &mut reader, &mut writer).unwrap());
            let pipe = pipe.borrow();
            assert!(
                pipe.pending.is_empty(),
                "chunk {chunk}: output left unflushed"
            );
            assert_eq!(pipe.answered, texts.len(), "chunk {chunk}");
            assert!(pipe.sent == want, "chunk {chunk}: the output bytes differ");
            if chunk == usize::MAX {
                assert!(
                    pipe.flushes * 8 < texts.len(),
                    "{} flushes for {} frames",
                    pipe.flushes,
                    texts.len()
                );
            }
        }
    }

    #[test]
    fn compact_reveal_reads_only_the_plain_shape() {
        let want = |tenant, a, b| Some(CompactReveal { tenant, a, b });
        let cases: [(&[u8], Option<CompactReveal<'_>>); 27] = [
            (
                br#"{"op":"reveal","tenant":"t0","a":0,"b":12}"#,
                want("t0", 0, 12),
            ),
            (
                br#"{"b":3,"a":2,"tenant":"t0","op":"reveal"}"#,
                want("t0", 2, 3),
            ),
            (
                "{\"tenant\":\"été\",\"a\":7,\"op\":\"reveal\",\"b\":1}".as_bytes(),
                want("été", 7, 1),
            ),
            (
                br#"{"op":"reveal","tenant":"","a":0,"b":0}"#,
                want("", 0, 0),
            ),
            (
                br#"{"op":"reveal","tenant":"x","a":18446744073709551615,"b":1}"#,
                want("x", usize::MAX, 1),
            ),
            // Whitespace, escapes, other members and other numbers.
            (br#"{"op": "reveal","tenant":"t0","a":0,"b":1}"#, None),
            (br#"{"op":"reveal","tenant":"t0","a":0,"b":1} "#, None),
            (br#" {"op":"reveal","tenant":"t0","a":0,"b":1}"#, None),
            (br#"{"op":"reveal","tenant":"t\u0030","a":0,"b":1}"#, None),
            (br#"{"op":"reveal","tenant":"t\"0","a":0,"b":1}"#, None),
            (
                b"{\"op\":\"reveal\",\"tenant\":\"t\x01\",\"a\":0,\"b\":1}",
                None,
            ),
            (
                b"{\"op\":\"reveal\",\"tenant\":\"\xff\",\"a\":0,\"b\":1}",
                None,
            ),
            (br#"{"\u006fp":"reveal","tenant":"t0","a":0,"b":1}"#, None),
            (br#"{"op":"reveal","tenant":"t0","a":0,"b":1,"c":2}"#, None),
            (br#"{"op":"reveal","tenant":"t0","a":0,"a":2,"b":1}"#, None),
            (
                br#"{"op":"reveal","op":"reveal","tenant":"t0","a":0,"b":1}"#,
                None,
            ),
            (
                br#"{"op":"reveal","tenant":"t0","tenant":"t1","a":0,"b":1}"#,
                None,
            ),
            (br#"{"op":"reveal","tenant":"t0","a":0}"#, None),
            (br#"{"tenant":"t0","a":0,"b":1}"#, None),
            (br#"{"op":"reveals","tenant":"t0","a":0,"b":1}"#, None),
            (br#"{"op":"Reveal","tenant":"t0","a":0,"b":1}"#, None),
            (br#"{"op":"reveal","tenant":"t0","a":01,"b":1}"#, None),
            (br#"{"op":"reveal","tenant":"t0","a":-0,"b":1}"#, None),
            (br#"{"op":"reveal","tenant":"t0","a":1.0,"b":1}"#, None),
            (br#"{"op":"reveal","tenant":"t0","a":1e2,"b":1}"#, None),
            (
                br#"{"op":"reveal","tenant":"t0","a":18446744073709551616,"b":1}"#,
                None,
            ),
            (br#"{"op":"reveal","tenant":"t0","a":"0","b":1}"#, None),
        ];
        for (payload, want) in cases {
            assert_eq!(
                compact_reveal(payload),
                want,
                "{}",
                String::from_utf8_lossy(payload)
            );
        }
    }

    /// The tenants of the decoder test: name, topology, n.
    const DECODER_TENANTS: [(&str, &str, usize); 3] = [
        ("t0", "cliques", 40),
        ("t1", "lines", 40),
        ("été", "cliques", 16),
    ];

    /// Numbers that are not plain decimal digits, or do not fit `usize`.
    const ODD_NUMBERS: [&str; 12] = [
        "01",
        "00",
        "-0",
        "-1",
        "1.0",
        "0.5",
        "1e2",
        "1E0",
        "18446744073709551616",
        "18446744073709551615",
        "\"3\"",
        "null",
    ];

    /// The 24 orders of the four members of a `reveal` request.
    fn member_orders() -> Vec<[usize; 4]> {
        (0..256)
            .map(|code| [code % 4, code / 4 % 4, code / 16 % 4, code / 64])
            .filter(|order| (0..4).all(|member| order.contains(&member)))
            .collect()
    }

    /// The value of member `key`.
    fn member<'m>(members: &'m mut [(String, String)], key: &str) -> &'m mut String {
        &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    /// A `reveal` payload drawn at random: the four members in the given
    /// order (an index into [`member_orders`]) or a random one, then at
    /// most one change that takes it off the compact shape or probes its
    /// edges.
    fn reveal_payload(rng: &mut SmallRng, order: Option<usize>) -> Vec<u8> {
        let &(name, _, n) = DECODER_TENANTS.choose(rng).unwrap();
        // Now and then one past the end, to draw the bounds check.
        let number = |rng: &mut SmallRng| rng.gen_range(0..n + 1).to_string();
        let members: Vec<(String, String)> = vec![
            ("op".into(), "\"reveal\"".into()),
            ("tenant".into(), format!("\"{name}\"")),
            ("a".into(), number(rng)),
            ("b".into(), number(rng)),
        ];
        let orders = member_orders();
        let order = orders[order.unwrap_or_else(|| rng.gen_range(0..orders.len()))];
        let mut members: Vec<_> = order.iter().map(|&i| members[i].clone()).collect();
        let pick = rng.gen_range(0..members.len());
        let mut raw_tenant: Option<&[u8]> = None;
        match rng.gen_range(0..20) {
            // A duplicated member, mostly with another value.
            0 | 1 => {
                let (key, value) = members[pick].clone();
                let other = match key.as_str() {
                    "op" => ["\"reveal\"", "\"cost\""].choose(rng).unwrap().to_string(),
                    "tenant" => ["\"t0\"", "\"t1\"", "\"ghost\""]
                        .choose(rng)
                        .unwrap()
                        .to_string(),
                    _ if rng.gen_bool(0.2) => value,
                    _ => number(rng),
                };
                members.insert(rng.gen_range(0..=members.len()), (key, other));
            }
            2 => {
                members.remove(pick);
            }
            3 => {
                let (key, value) = [
                    ("seq", "7"),
                    ("x", "null"),
                    ("events", "[[0,1]]"),
                    ("A", "1"),
                ]
                .choose(rng)
                .unwrap();
                members.insert(
                    rng.gen_range(0..=members.len()),
                    (key.to_string(), value.to_string()),
                );
            }
            4 | 5 => {
                let key = ["a", "b"].choose(rng).unwrap();
                *member(&mut members, key) = ODD_NUMBERS.choose(rng).unwrap().to_string();
            }
            6 => {
                *member(&mut members, "tenant") = match name {
                    "été" => "\"\\u00e9t\\u00e9\"",
                    "t0" => "\"\\u00740\"",
                    _ => "\"t\\u0031\"",
                }
                .into();
            }
            7 => {
                let other = ["\"ghost\"", "\"\"", "\"t\\\"0\"", "\"gh\u{200b}ost\""];
                *member(&mut members, "tenant") = other.choose(rng).unwrap().to_string();
            }
            8 => {
                let op = [
                    "\"reveals\"",
                    "\"Reveal\"",
                    "\"reveal \"",
                    "\"\\u0072eveal\"",
                ];
                *member(&mut members, "op") = op.choose(rng).unwrap().to_string();
            }
            // A key spelled with an escape.
            9 => {
                let key = &mut members[pick].0;
                *key = format!("\\u{:04x}{}", key.as_bytes()[0], &key[1..]);
            }
            // Bytes that are not UTF-8, or a raw control byte, in the name.
            10 => {
                let bytes: [&[u8]; 4] = [b"\xff", b"t\xc3", b"\xed\xa0\x80", b"t\x01"];
                raw_tenant = Some(bytes.choose(rng).unwrap());
            }
            _ => {}
        }
        let mut payload = b"{".to_vec();
        for (index, (key, value)) in members.iter().enumerate() {
            if index > 0 {
                payload.push(b',');
            }
            payload.extend_from_slice(format!("\"{key}\":").as_bytes());
            match raw_tenant {
                Some(raw) if key == "tenant" => {
                    payload.push(b'"');
                    payload.extend_from_slice(raw);
                    payload.push(b'"');
                }
                _ => payload.extend_from_slice(value.as_bytes()),
            }
        }
        payload.push(b'}');
        if rng.gen_range(0..20) == 0 {
            // Whitespace at a random place between tokens.
            let places: Vec<usize> = payload
                .iter()
                .enumerate()
                .filter(|(_, &byte)| matches!(byte, b'{' | b',' | b':'))
                .map(|(at, _)| at + 1)
                .chain([0, payload.len() - 1, payload.len()])
                .collect();
            let at = *places.choose(rng).unwrap();
            payload.insert(at, *[b' ', b'\n', b'\t', b'\r'].choose(rng).unwrap());
        }
        payload
    }

    /// A request of another op, or a frame that is not a request.
    fn other_payload(rng: &mut SmallRng) -> Vec<u8> {
        let &(name, _, n) = DECODER_TENANTS.choose(rng).unwrap();
        let text = match rng.gen_range(0..8) {
            0 => format!("{{\"op\":\"cost\",\"tenant\":\"{name}\"}}"),
            1 => format!(
                "{{\"op\":\"position\",\"tenant\":\"{name}\",\"node\":{}}}",
                rng.gen_range(0..n)
            ),
            2 => format!("{{\"op\":\"outcome\",\"tenant\":\"{name}\"}}"),
            3 => "{\"op\":\"tenants\"}".to_owned(),
            4 | 5 => format!(
                "{{\"op\":\"reveals\",\"tenant\":\"{name}\",\"events\":[[{},{}],[{},{}]]}}",
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..n)
            ),
            6 => "{\"op\":\"reveal\"".to_owned(),
            _ => "not json".to_owned(),
        };
        text.into_bytes()
    }

    #[test]
    fn compact_and_json_decoders_agree_byte_for_byte() {
        for seed in 0..4 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut payloads: Vec<Vec<u8>> = DECODER_TENANTS
                .iter()
                .map(|(name, topology, n)| {
                    format!(
                        "{{\"op\":\"open\",\"tenant\":\"{name}\",\"topology\":\"{topology}\",\
                         \"n\":{n},\"policy\":\"rand\",\"seed\":{seed}}}"
                    )
                    .into_bytes()
                })
                .collect();
            for index in 0..400 {
                payloads.push(if index < 24 {
                    reveal_payload(&mut rng, Some(index))
                } else if rng.gen_range(0..4) == 0 {
                    other_payload(&mut rng)
                } else {
                    reveal_payload(&mut rng, None)
                });
            }
            payloads.push(b"{\"op\":\"shutdown\"}".to_vec());
            let compact = payloads
                .iter()
                .filter(|p| compact_reveal(p).is_some())
                .count();
            assert!(compact > 100, "seed {seed}: only {compact} compact reveals");

            // The reference: each frame read, handled and written on its
            // own, by a twin server.
            let mut twin = Server::new(1, 0);
            let (mut input, mut frame_ends, mut want) = (Vec::new(), Vec::new(), Vec::new());
            let mut codes = std::collections::BTreeSet::new();
            for payload in &payloads {
                let start = input.len();
                input.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
                input.extend_from_slice(payload);
                input.push(b'\n');
                frame_ends.push(input.len());
                let response = match read_frame(&mut &input[start..]) {
                    Ok(Some(request)) => match twin.handle(&request) {
                        Reply::Continue(response) | Reply::Shutdown(response) => response,
                    },
                    Err(WireError::Json(err)) => err_response("bad-json", err.to_string()),
                    other => panic!("{other:?}"),
                };
                codes.insert(code(&response).to_owned());
                write_frame(&mut want, &response).unwrap();
            }
            for drawn in [
                "bad-json",
                "bad-request",
                "unknown-op",
                "unknown-tenant",
                "graph",
            ] {
                assert!(codes.contains(drawn), "seed {seed} drew no {drawn:?} error");
            }

            for (chunk, frame_per_read) in [
                (1, false),
                (7, false),
                (usize::MAX, false),
                (usize::MAX, true),
            ] {
                let pipe = Rc::new(RefCell::new(Pipe {
                    input: input.clone(),
                    frame_ends: frame_ends.clone(),
                    chunk,
                    frame_per_read,
                    ..Pipe::default()
                }));
                let mut server = Server::new(1, 0);
                let mut reader = BufReader::new(PipeIn(Rc::clone(&pipe)));
                let mut writer = PipeOut(Rc::clone(&pipe));
                assert!(serve_loop(&mut server, &mut reader, &mut writer).unwrap());
                let pipe = pipe.borrow();
                let what = format!("seed {seed}, chunk {chunk}, frame per read {frame_per_read}");
                assert_eq!(pipe.answered, payloads.len(), "{what}");
                if pipe.sent != want {
                    let mut got = pipe.sent.as_slice();
                    let mut expected = want.as_slice();
                    for payload in &payloads {
                        let (got, expected) = (read_frame(&mut got), read_frame(&mut expected));
                        assert_eq!(
                            format!("{got:?}"),
                            format!("{expected:?}"),
                            "{what}: the answers to {} differ",
                            String::from_utf8_lossy(payload)
                        );
                    }
                    panic!("{what}: the output bytes differ");
                }
                for (name, _, _) in DECODER_TENANTS {
                    let outcome = request(&format!("{{\"op\":\"outcome\",\"tenant\":\"{name}\"}}"));
                    let got = continue_response(server.handle(&outcome));
                    assert!(ok(&got), "{what}: {got:?}");
                    assert_eq!(
                        got,
                        continue_response(twin.handle(&outcome)),
                        "{what}: {name}"
                    );
                }
            }
        }
    }
}
