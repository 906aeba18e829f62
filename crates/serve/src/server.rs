//! The daemon loop: read a request line, answer a batch, repeat until
//! EOF or a shutdown sentinel.
//!
//! The transport is newline-delimited JSON, trivially driven from a
//! shell or any client. The loop is hardened for production:
//!
//! * **Admission limits** ([`ServeLimits`]) — an unbounded request line
//!   or a too-large batch is answered with a structured error code
//!   ([`crate::wire::code`]) and the reader resyncs at the next line;
//!   hostile input can cost one bounded buffer, never the daemon.
//! * **Panic isolation** — every prediction runs under `catch_unwind`;
//!   a genuine panic is answered as a [`code::PANIC`] error carrying the
//!   panic's message, and the loop keeps serving.
//! * **Deterministic chaos** — the [`FaultPlane`] sites `serve.decode`,
//!   `serve.predict` and `serve.write` inject reproducible faults keyed
//!   by `(request sequence, attempt)`. Injected faults are retried
//!   in-daemon with a bounded budget; predictions are pure, so a chaos
//!   run answers every well-formed request byte-identically to a clean
//!   run unless the budget is exhausted (then: a retryable
//!   [`code::FAULT`] error).
//! * **Control plane** — `{"control": "ping" | "stats" | "shutdown"}`
//!   answer liveness, counters and a graceful drain; the drain flushes
//!   a validated [`SERVE_STATS_SCHEMA`] document.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};

use loopml_rt::fault::site;
use loopml_rt::{fault_key, FaultPlane, InjectedFault, Json};

use crate::model::ServeModel;
use crate::wire::{code, read_line_bounded, Line, Request, Response, ServeLimits};

/// Schema tag of the drain/stats document the daemon emits.
pub const SERVE_STATS_SCHEMA: &str = "loopml/serve-stats/v1";

/// Default in-daemon retry budget for injected transient faults,
/// mirroring the labeling retry contract.
pub const DEFAULT_SERVE_RETRIES: u32 = 3;

/// Environment variable overriding the in-daemon retry budget.
pub const SERVE_RETRIES_ENV: &str = "LOOPML_SERVE_RETRIES";

/// Runtime configuration of one serving session: admission limits, the
/// fault plane, and the transient-fault retry budget.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Admission limits (line and batch caps).
    pub limits: ServeLimits,
    /// Deterministic fault plane (disabled outside chaos runs).
    pub faults: FaultPlane,
    /// Retries per request before answering a [`code::FAULT`] error.
    pub retry_budget: u32,
}

impl ServeOptions {
    /// Reads the full serving configuration from the environment:
    /// limits from `LOOPML_SERVE_MAX_*`, the fault plane from
    /// `LOOPML_FAULTS`, the retry budget from [`SERVE_RETRIES_ENV`].
    pub fn from_env() -> Self {
        let retry_budget = std::env::var(SERVE_RETRIES_ENV)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_SERVE_RETRIES);
        ServeOptions {
            limits: ServeLimits::from_env(),
            faults: FaultPlane::env_or_disabled(),
            retry_budget,
        }
    }

    /// Options with a disabled fault plane and default limits, plus the
    /// default retry budget.
    pub fn quiet() -> Self {
        ServeOptions {
            retry_budget: DEFAULT_SERVE_RETRIES,
            ..ServeOptions::default()
        }
    }
}

/// What a daemon run served: volumes and the robustness counters the
/// `stats` control request and the drain document report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Requests answered (including error answers, excluding control
    /// requests).
    pub batches: usize,
    /// Total predictions returned across all batches.
    pub predictions: usize,
    /// Requests answered with an error document.
    pub errors: usize,
    /// In-daemon retry attempts consumed by injected faults.
    pub retries: usize,
    /// Control requests answered (`ping`/`stats`/`shutdown`).
    pub controls: usize,
    /// Injected faults observed, per site.
    pub faults: BTreeMap<String, usize>,
    /// Whether the run ended on a shutdown sentinel (graceful drain)
    /// rather than transport EOF.
    pub drained: bool,
}

impl ServeStats {
    fn record(&mut self, response: &Response) {
        self.batches += 1;
        match response {
            Response::Factors { factors, .. } => self.predictions += factors.len(),
            Response::Error { .. } => self.errors += 1,
        }
    }

    fn record_fault(&mut self, at: &str) {
        *self.faults.entry(at.to_string()).or_insert(0) += 1;
    }
}

/// One reply from [`ServeSession::answer_line`] /
/// [`ServeSession::answer_doc`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionReply {
    /// A prediction or error response to write back.
    Answer(Response),
    /// A control-plane reply document to write back.
    Control(Json),
    /// The drain reply: write it back, then stop reading. Carries the
    /// final [`SERVE_STATS_SCHEMA`] document.
    Shutdown(Json),
}

impl SessionReply {
    /// The reply as a wire document.
    pub fn to_json(&self) -> Json {
        match self {
            SessionReply::Answer(r) => r.to_json(),
            SessionReply::Control(doc) | SessionReply::Shutdown(doc) => doc.clone(),
        }
    }
}

/// One serving session: the model, the options, and the counters. The
/// daemon loop and the serve-bench replay both drive this state
/// machine, so retry/fault/limit behavior cannot drift between them.
#[derive(Debug)]
pub struct ServeSession<'m> {
    model: &'m ServeModel,
    opts: ServeOptions,
    stats: ServeStats,
    seq: u64,
}

impl<'m> ServeSession<'m> {
    /// Starts a session over `model` with `opts`.
    pub fn new(model: &'m ServeModel, opts: ServeOptions) -> Self {
        ServeSession {
            model,
            opts,
            stats: ServeStats::default(),
            seq: 0,
        }
    }

    /// The session's options.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// Counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Consumes the session, returning its counters.
    pub fn into_stats(self) -> ServeStats {
        self.stats
    }

    /// The current [`SERVE_STATS_SCHEMA`] document.
    pub fn stats_doc(&self) -> Json {
        serve_stats_to_json(self.model, &self.stats)
    }

    /// Answers one request line. Blank lines are skipped (`None`); an
    /// unparseable line is answered with a [`code::DECODE`] error.
    pub fn answer_line(&mut self, line: &str) -> Option<SessionReply> {
        if line.trim().is_empty() {
            return None;
        }
        match Json::parse(line) {
            Ok(doc) => Some(self.answer_doc(&doc)),
            Err(e) => {
                let r = Response::error(
                    Json::Null,
                    code::DECODE,
                    format!("request is not valid JSON: {e}"),
                );
                self.seq += 1;
                self.stats.record(&r);
                Some(SessionReply::Answer(r))
            }
        }
    }

    /// Answers one parsed request document (control or prediction).
    pub fn answer_doc(&mut self, doc: &Json) -> SessionReply {
        if let Some(what) = doc.get("control").and_then(Json::as_str) {
            return self.answer_control(what);
        }
        let response = self.answer_request(doc);
        self.seq += 1;
        self.stats.record(&response);
        SessionReply::Answer(response)
    }

    /// Answers a defective transport read (an overlong line) as a
    /// structured error response.
    pub fn answer_defect(&mut self, defect_code: &'static str, message: String) -> SessionReply {
        let r = Response::error(Json::Null, defect_code, message);
        self.seq += 1;
        self.stats.record(&r);
        SessionReply::Answer(r)
    }

    fn answer_control(&mut self, what: &str) -> SessionReply {
        self.stats.controls += 1;
        match what {
            "ping" => SessionReply::Control(Json::obj([
                ("control", Json::Str("pong".into())),
                ("model", Json::Str(self.model.name().into())),
                ("kind", Json::Str(self.model.artifact().kind().into())),
                ("fingerprint", Json::Str(self.model.fingerprint_hex())),
            ])),
            "stats" => SessionReply::Control(self.stats_doc()),
            "shutdown" => {
                self.stats.drained = true;
                SessionReply::Shutdown(self.stats_doc())
            }
            other => SessionReply::Answer(Response::error(
                Json::Null,
                code::DECODE,
                format!("unknown control request {other:?}"),
            )),
        }
    }

    /// The hardened per-request path: bounded retries over the three
    /// serve fault sites, `catch_unwind` around the prediction, and the
    /// batch admission limit. Predictions are pure, so a retried
    /// request answers bit-identically to an unfaulted one.
    fn answer_request(&mut self, doc: &Json) -> Response {
        let id = || doc.get("id").cloned().unwrap_or(Json::Null);
        let seq = self.seq;
        for attempt in 0..=self.opts.retry_budget {
            if attempt > 0 {
                self.stats.retries += 1;
            }
            let key = fault_key(&[seq, u64::from(attempt)]);
            if let Err(f) = self.opts.faults.check(site::SERVE_DECODE, key) {
                self.stats.record_fault(f.site);
                continue;
            }
            let request = match Request::from_json(doc) {
                Ok(r) => r,
                Err(message) => return Response::error(id(), code::DECODE, message),
            };
            let rows = match &request {
                Request::Features { rows, .. } => rows.len(),
                Request::Loops { loops, .. } => loops.len(),
            };
            if rows > self.opts.limits.max_batch {
                return Response::error(
                    id(),
                    code::LIMIT_BATCH,
                    format!(
                        "batch carries {rows} rows, over the {}-row cap",
                        self.opts.limits.max_batch
                    ),
                );
            }
            let model = self.model;
            let faults = self.opts.faults.clone();
            let predicted = catch_unwind(AssertUnwindSafe(move || {
                faults.trip(site::SERVE_PREDICT, key);
                match request {
                    Request::Features { id, rows } => {
                        model.predict_rows(&rows).map(|factors| (id, factors))
                    }
                    Request::Loops { id, loops } => Ok((id, model.choose_loops(&loops))),
                }
            }));
            match predicted {
                Ok(Ok((id, factors))) => {
                    if let Err(f) = self.opts.faults.check(site::SERVE_WRITE, key) {
                        self.stats.record_fault(f.site);
                        continue;
                    }
                    return Response::Factors { id, factors };
                }
                Ok(Err(message)) => return Response::error(id(), code::PREDICT, message),
                Err(payload) => {
                    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
                        self.stats.record_fault(f.site);
                        continue;
                    }
                    return Response::error(
                        id(),
                        code::PANIC,
                        format!(
                            "prediction panicked: {}",
                            loopml_rt::par::panic_message(&*payload)
                        ),
                    );
                }
            }
        }
        Response::error(
            id(),
            code::FAULT,
            format!(
                "request {seq} exhausted {} attempt(s) under injected faults; retryable",
                self.opts.retry_budget + 1
            ),
        )
    }
}

/// Renders the [`SERVE_STATS_SCHEMA`] document: model identity (name,
/// kind, artifact fingerprint) plus every robustness counter.
pub fn serve_stats_to_json(model: &ServeModel, stats: &ServeStats) -> Json {
    Json::obj([
        ("schema", Json::Str(SERVE_STATS_SCHEMA.into())),
        ("model", Json::Str(model.name().into())),
        ("kind", Json::Str(model.artifact().kind().into())),
        ("fingerprint", Json::Str(model.fingerprint_hex())),
        ("served", Json::Num(stats.batches as f64)),
        ("predictions", Json::Num(stats.predictions as f64)),
        ("errors", Json::Num(stats.errors as f64)),
        ("retries", Json::Num(stats.retries as f64)),
        ("controls", Json::Num(stats.controls as f64)),
        (
            "faults",
            Json::Obj(
                stats
                    .faults
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                    .collect(),
            ),
        ),
        ("drained", Json::Bool(stats.drained)),
    ])
}

/// Validates a [`SERVE_STATS_SCHEMA`] document: schema tag, model
/// identity fields, and every counter a whole non-negative number.
pub fn validate_serve_stats(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SERVE_STATS_SCHEMA) {
        return Err(format!("not a {SERVE_STATS_SCHEMA} document"));
    }
    for key in ["model", "kind"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            return Err(format!("missing string field {key:?}"));
        }
    }
    match doc.get("fingerprint").and_then(Json::as_str) {
        Some(f) if f.starts_with("0x") && f.len() == 18 => {}
        other => return Err(format!("bad fingerprint field {other:?}")),
    }
    for key in ["served", "predictions", "errors", "retries", "controls"] {
        if doc.get(key).and_then(Json::as_usize).is_none() {
            return Err(format!("counter {key:?} is not a whole number"));
        }
    }
    let Some(Json::Obj(faults)) = doc.get("faults") else {
        return Err("faults is not an object".into());
    };
    for (site, v) in faults {
        if v.as_usize().is_none() {
            return Err(format!("fault counter {site:?} is not a whole number"));
        }
    }
    match doc.get("drained") {
        Some(Json::Bool(_)) => Ok(()),
        _ => Err("missing bool field \"drained\"".into()),
    }
}

/// Serves newline-delimited JSON requests under `opts` until EOF or a
/// shutdown sentinel. Blank lines are skipped; unparseable or overlong
/// lines are answered with structured error documents and the loop
/// keeps serving. Only a genuinely unreadable/unwritable pipe is a
/// transport error.
pub fn serve_lines_with<R: BufRead, W: Write>(
    model: &ServeModel,
    opts: &ServeOptions,
    mut reader: R,
    mut writer: W,
) -> Result<ServeStats, String> {
    let mut session = ServeSession::new(model, opts.clone());
    let write_reply = |reply: &SessionReply, w: &mut W| -> Result<(), String> {
        writeln!(w, "{}", reply.to_json()).map_err(|e| format!("response write failed: {e}"))?;
        w.flush().map_err(|e| format!("response flush failed: {e}"))
    };
    while let Some(line) = read_line_bounded(&mut reader, &opts.limits)? {
        let reply = match line {
            Line::Text(text) => match session.answer_line(&text) {
                Some(r) => r,
                None => continue,
            },
            Line::Overlong { length } => session.answer_defect(
                code::LIMIT_LINE,
                format!(
                    "request line of {length} bytes exceeds the {}-byte cap",
                    opts.limits.max_line
                ),
            ),
        };
        write_reply(&reply, &mut writer)?;
        if matches!(reply, SessionReply::Shutdown(_)) {
            break;
        }
    }
    Ok(session.into_stats())
}
