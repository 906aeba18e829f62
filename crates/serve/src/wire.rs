//! The serving wire protocol: request/response documents, a full JSON
//! codec for [`Loop`] bodies, and the bounded line reader of the
//! newline-delimited transport.
//!
//! A request is one JSON object carrying an `id` (echoed back verbatim)
//! and either a batch of raw feature vectors or a batch of whole loops:
//!
//! ```json
//! {"id": 7, "features": [[4.0, 1024.0, ...], ...]}
//! {"id": 8, "loops": [{"name": "...", "trip": {...}, "body": [...]}, ...]}
//! ```
//!
//! The response echoes the id and answers one unroll factor in `1..=8`
//! per input, in order: `{"id": 7, "factors": [4, 1, 8]}`. A request
//! the server cannot honor yields `{"id": ..., "error": "..."}` and the
//! daemon keeps serving — one bad batch never takes the service down.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::sync::Once;

use loopml_ir::{ArrayId, Inst, Loop, MemRef, Opcode, Reg, RegClass, SourceLang, TripCount};
use loopml_rt::Json;

/// Default cap on one newline-delimited request line (1 MiB).
pub const MAX_LINE: usize = 1 << 20;

/// Default cap on rows (feature vectors or loops) in one batch.
pub const MAX_BATCH: usize = 4096;

/// Structured error codes carried by [`Response::Error`], so clients
/// can tell a malformed request from an admission-limit rejection from
/// an internal failure without parsing prose.
pub mod code {
    /// The request could not be decoded (bad JSON, bad shape). Not
    /// retryable as sent.
    pub const DECODE: &str = "decode";
    /// A request line exceeded the configured cap; the rest of the line
    /// was discarded.
    pub const LIMIT_LINE: &str = "limit.line";
    /// The batch carried more rows than the configured cap.
    pub const LIMIT_BATCH: &str = "limit.batch";
    /// The model rejected the batch (e.g. wrong feature dimensions).
    pub const PREDICT: &str = "predict";
    /// A genuine panic escaped the prediction path and was isolated.
    pub const PANIC: &str = "panic";
    /// The request exhausted its retry budget under injected faults.
    /// Retryable: resending the request draws fresh fault coins.
    pub const FAULT: &str = "fault";
}

/// Admission limits for the serving daemon, configurable per deployment
/// through `LOOPML_SERVE_MAX_LINE` and `LOOPML_SERVE_MAX_BATCH`. Every
/// limit violation is answered with a structured error response; none
/// of them kills the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeLimits {
    /// Largest accepted request line in bytes (excluding the newline).
    pub max_line: usize,
    /// Largest accepted batch (rows or loops per request).
    pub max_batch: usize,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits {
            max_line: MAX_LINE,
            max_batch: MAX_BATCH,
        }
    }
}

impl ServeLimits {
    /// Reads overrides from the environment. A malformed or zero value
    /// warns once to stderr and keeps the default — a tuning knob must
    /// never be able to take the daemon down.
    pub fn from_env() -> Self {
        fn env_limit(var: &str, default: u64) -> u64 {
            let Ok(v) = std::env::var(var) else {
                return default;
            };
            match v.trim().parse::<u64>() {
                Ok(n) if n > 0 => n,
                _ => {
                    static WARNED: Once = Once::new();
                    WARNED.call_once(|| {
                        eprintln!("[loopml-serve] ignoring malformed {var}={v:?} (want a positive integer)");
                    });
                    default
                }
            }
        }
        ServeLimits {
            max_line: env_limit("LOOPML_SERVE_MAX_LINE", MAX_LINE as u64) as usize,
            max_batch: env_limit("LOOPML_SERVE_MAX_BATCH", MAX_BATCH as u64) as usize,
        }
    }
}

/// The opcode whose wire name is `s`. The parse side compares against
/// [`Opcode::name`] and the emit side is `Display`, which writes that
/// same static name, so the two cannot drift and decoding allocates
/// nothing per candidate.
fn opcode_from_str(s: &str) -> Result<Opcode, String> {
    Opcode::ALL
        .into_iter()
        .find(|op| op.name() == s)
        .ok_or_else(|| format!("unknown opcode {s:?}"))
}

fn reg_to_json(r: Reg) -> Json {
    Json::Str(r.to_string())
}

fn reg_from_str(s: &str) -> Result<Reg, String> {
    let class = match s.chars().next() {
        Some('r') => RegClass::Int,
        Some('f') => RegClass::Fp,
        Some('p') => RegClass::Pred,
        _ => return Err(format!("register {s:?} has no class prefix")),
    };
    let index: u32 = s[1..]
        .parse()
        .map_err(|_| format!("register {s:?} has no numeric index"))?;
    Ok(Reg::new(class, index))
}

fn regs_from_json(v: &Json, what: &str) -> Result<Vec<Reg>, String> {
    v.as_arr()
        .ok_or_else(|| format!("instruction {what} is not an array"))?
        .iter()
        .map(|r| {
            r.as_str()
                .ok_or_else(|| format!("instruction {what} entry is not a string"))
                .and_then(reg_from_str)
        })
        .collect()
}

fn int_field(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_num)
        .filter(|v| v.fract() == 0.0)
        .ok_or_else(|| format!("field {key:?} is not a whole number"))
}

fn mem_to_json(m: &MemRef) -> Json {
    Json::obj([
        ("base", Json::Num(f64::from(m.base.0))),
        ("stride", Json::Num(m.stride as f64)),
        ("offset", Json::Num(m.offset as f64)),
        ("width", Json::Num(f64::from(m.width))),
        ("indirect", Json::Bool(m.indirect)),
        ("ambiguous", Json::Bool(m.ambiguous)),
    ])
}

fn mem_from_json(doc: &Json) -> Result<MemRef, String> {
    let flag = |key: &str| match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("memref field {key:?} is not a bool")),
    };
    Ok(MemRef {
        base: ArrayId(int_field(doc, "base")? as u32),
        stride: int_field(doc, "stride")? as i64,
        offset: int_field(doc, "offset")? as i64,
        width: int_field(doc, "width")? as u8,
        indirect: flag("indirect")?,
        ambiguous: flag("ambiguous")?,
    })
}

fn inst_to_json(i: &Inst) -> Json {
    let mut m = BTreeMap::new();
    m.insert("op".into(), Json::Str(i.opcode.to_string()));
    m.insert(
        "defs".into(),
        Json::Arr(i.defs.iter().map(|&r| reg_to_json(r)).collect()),
    );
    m.insert(
        "uses".into(),
        Json::Arr(i.uses.iter().map(|&r| reg_to_json(r)).collect()),
    );
    if let Some(mem) = &i.mem {
        m.insert("mem".into(), mem_to_json(mem));
    }
    if let Some(p) = i.predicate {
        m.insert("pred".into(), reg_to_json(p));
    }
    if i.induction {
        m.insert("induction".into(), Json::Bool(true));
    }
    Json::Obj(m)
}

fn inst_from_json(doc: &Json) -> Result<Inst, String> {
    let opcode = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "instruction has no \"op\"".to_string())
        .and_then(opcode_from_str)?;
    let mem = match doc.get("mem") {
        Some(m) => Some(mem_from_json(m)?),
        None => None,
    };
    // The IR invariant: a descriptor iff the opcode accesses memory.
    if opcode.is_mem() != mem.is_some() {
        return Err(format!(
            "opcode {opcode} {} a \"mem\" descriptor",
            if opcode.is_mem() {
                "requires"
            } else {
                "forbids"
            }
        ));
    }
    let mut inst = Inst {
        opcode,
        defs: regs_from_json(doc.get("defs").unwrap_or(&Json::Arr(Vec::new())), "defs")?,
        uses: regs_from_json(doc.get("uses").unwrap_or(&Json::Arr(Vec::new())), "uses")?,
        mem,
        predicate: None,
        induction: false,
    };
    if let Some(p) = doc.get("pred") {
        inst.predicate = Some(
            p.as_str()
                .ok_or_else(|| "instruction \"pred\" is not a string".to_string())
                .and_then(reg_from_str)?,
        );
    }
    if let Some(Json::Bool(true)) = doc.get("induction") {
        inst.induction = true;
    }
    Ok(inst)
}

/// Serializes a whole loop — body, trip count, nesting, language — into
/// the wire form [`loop_from_json`] parses back exactly.
pub fn loop_to_json(l: &Loop) -> Json {
    let trip = match l.trip_count {
        TripCount::Known(n) => Json::obj([("known", Json::Num(n as f64))]),
        TripCount::Unknown { estimate } => Json::obj([("estimate", Json::Num(estimate as f64))]),
    };
    Json::obj([
        ("name", Json::Str(l.name.clone())),
        ("trip", trip),
        ("nest", Json::Num(f64::from(l.nest_level))),
        ("lang", Json::Str(l.lang.to_string())),
        ("body", Json::Arr(l.body.iter().map(inst_to_json).collect())),
    ])
}

/// Parses a loop document written by [`loop_to_json`].
pub fn loop_from_json(doc: &Json) -> Result<Loop, String> {
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("loop has no name")?
        .to_string();
    let trip_doc = doc.get("trip").ok_or("loop has no trip count")?;
    let trip_count = if let Some(n) = trip_doc.get("known").and_then(Json::as_num) {
        TripCount::Known(n as u64)
    } else if let Some(n) = trip_doc.get("estimate").and_then(Json::as_num) {
        TripCount::Unknown { estimate: n as u64 }
    } else {
        return Err("loop trip count has neither \"known\" nor \"estimate\"".into());
    };
    let lang = match doc.get("lang").and_then(Json::as_str) {
        Some("C") => SourceLang::C,
        Some("Fortran") => SourceLang::Fortran,
        Some("Fortran90") => SourceLang::Fortran90,
        Some(other) => return Err(format!("unknown source language {other:?}")),
        None => return Err("loop has no language".into()),
    };
    let body = doc
        .get("body")
        .and_then(Json::as_arr)
        .ok_or("loop has no body array")?
        .iter()
        .map(inst_from_json)
        .collect::<Result<Vec<Inst>, String>>()?;
    Ok(Loop {
        name,
        body,
        trip_count,
        nest_level: int_field(doc, "nest")? as u32,
        lang,
    })
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A batch of raw feature vectors; each may be the full 38-feature
    /// vector or already projected to the model's subset.
    Features {
        /// Echoed back in the response.
        id: Json,
        /// The feature rows, one prediction each.
        rows: Vec<Vec<f64>>,
    },
    /// A batch of whole loops (the server extracts features itself).
    Loops {
        /// Echoed back in the response.
        id: Json,
        /// The loops, one unroll factor each.
        loops: Vec<Loop>,
    },
}

impl Request {
    /// Serializes the request document.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Features { id, rows } => Json::obj([
                ("id", id.clone()),
                (
                    "features",
                    Json::Arr(rows.iter().map(|r| Json::from_f64s(r)).collect()),
                ),
            ]),
            Request::Loops { id, loops } => Json::obj([
                ("id", id.clone()),
                ("loops", Json::Arr(loops.iter().map(loop_to_json).collect())),
            ]),
        }
    }

    /// Parses a request document: exactly one of `"features"` or
    /// `"loops"` must be present.
    pub fn from_json(doc: &Json) -> Result<Request, String> {
        let id = doc.get("id").cloned().unwrap_or(Json::Null);
        match (doc.get("features"), doc.get("loops")) {
            (Some(f), None) => {
                let rows = f
                    .as_arr()
                    .ok_or("\"features\" is not an array of rows")?
                    .iter()
                    .map(Json::as_f64s)
                    .collect::<Option<Vec<Vec<f64>>>>()
                    .ok_or("\"features\" contains a non-numeric row")?;
                Ok(Request::Features { id, rows })
            }
            (None, Some(l)) => {
                let loops = l
                    .as_arr()
                    .ok_or("\"loops\" is not an array")?
                    .iter()
                    .map(loop_from_json)
                    .collect::<Result<Vec<Loop>, String>>()?;
                Ok(Request::Loops { id, loops })
            }
            (Some(_), Some(_)) => Err("request has both \"features\" and \"loops\"".into()),
            (None, None) => Err("request has neither \"features\" nor \"loops\"".into()),
        }
    }

    /// The request id (echoed in responses).
    pub fn id(&self) -> &Json {
        match self {
            Request::Features { id, .. } | Request::Loops { id, .. } => id,
        }
    }
}

/// One server response: predicted factors, or an error.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Per-input unroll factors in `1..=8`, in request order.
    Factors {
        /// The request's id, echoed.
        id: Json,
        /// One factor per input row/loop.
        factors: Vec<u32>,
    },
    /// The request could not be honored; the daemon keeps serving.
    Error {
        /// The request's id, echoed (`null` if unparseable).
        id: Json,
        /// Structured error code (see [`code`]); `None` only for
        /// responses written by pre-v1.1 servers.
        code: Option<String>,
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// Builds an error response with a structured [`code`].
    pub fn error(id: Json, code: &str, message: impl Into<String>) -> Response {
        Response::Error {
            id,
            code: Some(code.to_string()),
            message: message.into(),
        }
    }

    /// The structured error code, if this is an error response.
    pub fn error_code(&self) -> Option<&str> {
        match self {
            Response::Error { code, .. } => code.as_deref(),
            Response::Factors { .. } => None,
        }
    }

    /// Serializes the response document.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Factors { id, factors } => Json::obj([
                ("id", id.clone()),
                (
                    "factors",
                    Json::Arr(factors.iter().map(|&f| Json::Num(f64::from(f))).collect()),
                ),
            ]),
            Response::Error { id, code, message } => {
                let mut m = BTreeMap::new();
                m.insert("id".into(), id.clone());
                if let Some(c) = code {
                    m.insert("code".into(), Json::Str(c.clone()));
                }
                m.insert("error".into(), Json::Str(message.clone()));
                Json::Obj(m)
            }
        }
    }

    /// Parses a response document.
    pub fn from_json(doc: &Json) -> Result<Response, String> {
        let id = doc.get("id").cloned().unwrap_or(Json::Null);
        if let Some(msg) = doc.get("error").and_then(Json::as_str) {
            return Ok(Response::Error {
                id,
                code: doc.get("code").and_then(Json::as_str).map(str::to_string),
                message: msg.to_string(),
            });
        }
        let factors = doc
            .get("factors")
            .and_then(Json::as_usizes)
            .ok_or("response has neither \"factors\" nor \"error\"")?
            .into_iter()
            .map(|f| f as u32)
            .collect();
        Ok(Response::Factors { id, factors })
    }
}

/// One bounded read from the line transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// One complete request line (without its newline).
    Text(String),
    /// A line that exceeded the cap; the rest of it (through the next
    /// newline or EOF) was discarded, so the reader is positioned at
    /// the next line.
    Overlong {
        /// Total bytes the line carried, cap included.
        length: usize,
    },
}

/// Reads one newline-delimited line, holding at most `limits.max_line`
/// bytes in memory: a hostile unbounded line is discarded to its
/// newline and reported as [`Line::Overlong`] instead of growing the
/// buffer without bound. `Ok(None)` is EOF.
pub fn read_line_bounded<R: BufRead>(
    r: &mut R,
    limits: &ServeLimits,
) -> Result<Option<Line>, String> {
    let mut buf: Vec<u8> = Vec::new();
    let mut dropped = 0usize;
    loop {
        let chunk = match r.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("request read failed: {e}")),
        };
        if chunk.is_empty() {
            // EOF: flush what we have (a final unterminated line).
            return Ok(match (buf.is_empty(), dropped) {
                (true, 0) => None,
                (_, 0) => Some(Line::Text(String::from_utf8_lossy(&buf).into_owned())),
                (_, _) => Some(Line::Overlong {
                    length: buf.len() + dropped,
                }),
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i);
        if dropped > 0 {
            dropped += take;
        } else if buf.len() + take > limits.max_line {
            dropped = buf.len() + take - limits.max_line;
            buf.truncate(0); // the content no longer matters
            dropped += limits.max_line;
        } else {
            buf.extend_from_slice(&chunk[..take]);
        }
        let consumed = newline.map_or(take, |i| i + 1);
        let complete = newline.is_some();
        r.consume(consumed);
        if complete {
            return Ok(Some(if dropped > 0 {
                Line::Overlong { length: dropped }
            } else {
                Line::Text(String::from_utf8_lossy(&buf).into_owned())
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_loop() -> Loop {
        let i0 = Inst::mem(
            Opcode::Load,
            vec![Reg::fp(1)],
            vec![Reg::int(2)],
            MemRef::affine(ArrayId(3), 8, 16, 8).as_ambiguous(),
        );
        let i1 = Inst::new(Opcode::Fma, vec![Reg::fp(2)], vec![Reg::fp(1), Reg::fp(3)])
            .predicated(Reg::pred(0));
        let i2 = Inst::new(Opcode::Add, vec![Reg::int(2)], vec![Reg::int(2)]).as_induction();
        let i3 = Inst::mem(
            Opcode::Store,
            vec![],
            vec![Reg::fp(2), Reg::int(2)],
            MemRef::indirect(ArrayId(4), 8, 8),
        );
        let i4 = Inst::new(Opcode::Br, vec![], vec![Reg::pred(1)]);
        Loop {
            name: "wire/sample".into(),
            body: vec![i0, i1, i2, i3, i4],
            trip_count: TripCount::Unknown { estimate: 100 },
            nest_level: 2,
            lang: SourceLang::Fortran90,
        }
    }

    #[test]
    fn every_opcode_round_trips() {
        for op in Opcode::ALL {
            assert_eq!(opcode_from_str(&op.to_string()), Ok(op));
            // The wire name is still the lowercased variant name earlier
            // versions formatted, so their request streams decode.
            assert_eq!(opcode_from_str(&format!("{op:?}").to_lowercase()), Ok(op));
        }
        assert!(opcode_from_str("teleport").is_err());
    }

    #[test]
    fn registers_round_trip() {
        for r in [Reg::int(0), Reg::fp(31), Reg::pred(7)] {
            assert_eq!(reg_from_str(&r.to_string()), Ok(r));
        }
        assert!(reg_from_str("x3").is_err());
        assert!(reg_from_str("r").is_err());
    }

    #[test]
    fn loops_round_trip_through_text() {
        for l in [
            sample_loop(),
            Loop {
                trip_count: TripCount::Known(1024),
                ..sample_loop()
            },
        ] {
            let text = loop_to_json(&l).to_string();
            let back = loop_from_json(&Json::parse(&text).unwrap()).expect("parse");
            assert_eq!(back, l);
        }
    }

    #[test]
    fn requests_and_responses_round_trip() {
        let reqs = [
            Request::Features {
                id: Json::Num(7.0),
                rows: vec![vec![1.0, -2.5], vec![0.0, 3.25]],
            },
            Request::Loops {
                id: Json::Str("batch-1".into()),
                loops: vec![sample_loop()],
            },
        ];
        for r in reqs {
            let text = r.to_json().to_string();
            assert_eq!(Request::from_json(&Json::parse(&text).unwrap()), Ok(r));
        }
        let resps = [
            Response::Factors {
                id: Json::Num(7.0),
                factors: vec![4, 1, 8],
            },
            Response::Error {
                id: Json::Null,
                code: None,
                message: "no".into(),
            },
            Response::error(Json::Num(3.0), code::LIMIT_BATCH, "too many rows"),
        ];
        for r in resps {
            let text = r.to_json().to_string();
            assert_eq!(Response::from_json(&Json::parse(&text).unwrap()), Ok(r));
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(Request::from_json(&Json::obj([("id", Json::Num(1.0))])).is_err());
        let both = Json::obj([
            ("features", Json::Arr(vec![])),
            ("loops", Json::Arr(vec![])),
        ]);
        assert!(Request::from_json(&both).is_err());
    }

    #[test]
    fn bounded_lines_discard_overlong_input_and_resync() {
        let limits = ServeLimits {
            max_line: 8,
            ..ServeLimits::default()
        };
        let input = format!("{}\nshort\n{}", "y".repeat(40), "z".repeat(20));
        let mut r = input.as_bytes();
        assert_eq!(
            read_line_bounded(&mut r, &limits).unwrap(),
            Some(Line::Overlong { length: 40 })
        );
        assert_eq!(
            read_line_bounded(&mut r, &limits).unwrap(),
            Some(Line::Text("short".into()))
        );
        // A final unterminated overlong line still reports and EOFs.
        assert_eq!(
            read_line_bounded(&mut r, &limits).unwrap(),
            Some(Line::Overlong { length: 20 })
        );
        assert_eq!(read_line_bounded(&mut r, &limits).unwrap(), None);

        // At or under the cap, lines pass through byte-exactly.
        let mut r = "12345678\n".as_bytes();
        assert_eq!(
            read_line_bounded(&mut r, &limits).unwrap(),
            Some(Line::Text("12345678".into()))
        );
    }
}
