//! The protocol: typed [`Request`]/[`Response`] enums over the NDJSON wire
//! shapes, plus the field-extraction and response-rendering helpers they are
//! built from.
//!
//! The wire schema itself is documented in the crate-level docs ([`crate`]).
//! The typed layer round-trips to `serde_json::Value` via
//! [`Request::from_value`] / [`Request::to_value`] and
//! [`Response::into_body`], keeping every error string and field order
//! byte-identical to the hand-rolled dispatch it replaced.
//!
//! The server reads a request line with [`Request::decode`]: one pass of
//! the `serde_json` tokenizer validates the line, the `updates` and `edges`
//! lists decode straight into triples, and only the small fields become
//! trees, checked by the same code as `from_value`.  `from_value` is its
//! oracle (`tests/protocol_decode.rs` holds the two to the same answer on
//! every line), the path the benchmark's replay times, and the way to read
//! a request that is already a tree.

use dcs_core::{ContrastAlert, ContrastReport, DensityMeasure, SolveStats};
use dcs_graph::{VertexId, Weight};
use serde_json::{json, Event, JsonNumber, Map, Tokenizer, Value};

use crate::error::ServerError;

/// The protocol version this build speaks.  Every response carries it as
/// `"proto"`; requests may declare theirs and are rejected with
/// [`ServerError::UnsupportedProto`] when it differs.
pub const PROTO_VERSION: u64 = 1;

/// Parses a `measure` string (`"affinity"` / `"degree"` plus the aliases the
/// CLI accepts, see [`DensityMeasure`]'s `FromStr`); `None` input falls back
/// to the session's configured measure.
pub fn parse_measure(raw: Option<&str>) -> Result<Option<DensityMeasure>, ServerError> {
    raw.map(|text| {
        text.parse().map_err(|_| {
            ServerError::BadRequest(format!(
                "unknown measure {:?} (expected \"affinity\" or \"degree\")",
                text.to_ascii_lowercase()
            ))
        })
    })
    .transpose()
}

/// Renders a [`ContrastReport`] as the protocol's report shape.
pub fn report_to_json(report: &ContrastReport) -> Value {
    json!({
        "subset": report.subset,
        "size": report.size,
        "average_degree_difference": report.average_degree_difference,
        "affinity_difference": report.affinity_difference,
        "edge_density_difference": report.edge_density_difference,
        "total_degree_difference": report.total_degree_difference,
        "is_positive_clique": report.is_positive_clique,
        "is_connected": report.is_connected,
    })
}

/// Renders a [`ContrastAlert`] as the protocol's alert shape.
pub fn alert_to_json(alert: &ContrastAlert) -> Value {
    let mut value = report_to_json(&alert.report);
    value["triggered"] = json!(alert.triggered);
    value["density_difference"] = json!(alert.density_difference);
    value["observations"] = json!(alert.observations);
    value["stats"] = stats_to_json(&alert.stats);
    value
}

/// Renders [`SolveStats`] as the protocol's stats shape.
pub fn stats_to_json(stats: &SolveStats) -> Value {
    json!({
        "iterations": stats.iterations,
        "candidates": stats.candidates,
        "prunes": stats.prunes,
        "wall_ms": stats.wall.as_secs_f64() * 1e3,
        "termination": stats.termination.as_str(),
    })
}

/// Extracts the required string field `name` from a request object.
pub fn required_str<'a>(request: &'a Value, name: &str) -> Result<&'a str, ServerError> {
    request[name]
        .as_str()
        .ok_or_else(|| ServerError::BadRequest(format!("missing string field {name:?}")))
}

/// Extracts the required non-negative integer field `name`.
pub fn required_u64(request: &Value, name: &str) -> Result<u64, ServerError> {
    request[name]
        .as_u64()
        .ok_or_else(|| ServerError::BadRequest(format!("missing integer field {name:?}")))
}

/// Extracts an optional `f64` field, substituting `default` when absent.
pub fn optional_f64(request: &Value, name: &str, default: f64) -> Result<f64, ServerError> {
    match &request[name] {
        Value::Null => Ok(default),
        value => value
            .as_f64()
            .ok_or_else(|| ServerError::BadRequest(format!("field {name:?} must be a number"))),
    }
}

/// Extracts an optional non-negative integer field.
pub fn optional_u64(request: &Value, name: &str, default: u64) -> Result<u64, ServerError> {
    match &request[name] {
        Value::Null => Ok(default),
        value => value.as_u64().ok_or_else(|| {
            ServerError::BadRequest(format!("field {name:?} must be a non-negative integer"))
        }),
    }
}

/// Extracts an optional non-negative integer field with no default (`None` = absent).
pub fn optional_u64_opt(request: &Value, name: &str) -> Result<Option<u64>, ServerError> {
    match &request[name] {
        Value::Null => Ok(None),
        value => value.as_u64().map(Some).ok_or_else(|| {
            ServerError::BadRequest(format!("field {name:?} must be a non-negative integer"))
        }),
    }
}

/// One `(u, v, weight)` entry of an `edges` or `updates` list.
type Triple = (VertexId, VertexId, Weight);

/// The fields that hold triple lists.
const TRIPLE_LISTS: [&str; 2] = ["edges", "updates"];

/// Parses an `[[u, v, w], …]` triple list (edges or weight updates).  A weight must be
/// a finite number: JSON has no NaN or infinity, but an overflowing literal such as
/// `1e999` parses to infinity and is refused here.
pub fn parse_triples(request: &Value, name: &str) -> Result<Vec<Triple>, ServerError> {
    let raw = request[name]
        .as_array()
        .ok_or_else(|| ServerError::BadRequest(format!("missing array field {name:?}")))?;
    let mut triples = Vec::with_capacity(raw.len());
    for (index, entry) in raw.iter().enumerate() {
        let items = entry.as_array().map_or(&[][..], Vec::as_slice);
        triples.push(check_triple(
            name,
            index,
            items.len(),
            [items.first(), items.get(1)].map(|item| item.and_then(Value::as_u64)),
            items.get(2).and_then(Value::as_f64),
        )?);
    }
    Ok(triples)
}

/// The checks of entry `index` of a triple list, in order: its length
/// (`len` items; 0 for an entry that is not an array), its weight, then
/// each endpoint.  `ids` are the first two items as non-negative integers
/// and `weight` the third as a number, `None` where they are not.
#[inline]
fn check_triple(
    name: &str,
    index: usize,
    len: usize,
    ids: [Option<u64>; 2],
    weight: Option<f64>,
) -> Result<Triple, ServerError> {
    let checked = match len {
        2 => Some(1.0),
        3 => weight.filter(|w| w.is_finite()),
        _ => None,
    };
    match (checked, vertex_id(ids[0]), vertex_id(ids[1])) {
        (Some(weight), Some(u), Some(v)) => Ok((u, v, weight)),
        _ => Err(triple_error(name, index, len, ids, weight)),
    }
}

fn vertex_id(id: Option<u64>) -> Option<VertexId> {
    id.and_then(|id| VertexId::try_from(id).ok())
}

/// The first check [`check_triple`] fails, given that one does.
#[cold]
#[inline(never)]
fn triple_error(
    name: &str,
    index: usize,
    len: usize,
    ids: [Option<u64>; 2],
    weight: Option<f64>,
) -> ServerError {
    ServerError::BadRequest(if len != 2 && len != 3 {
        format!("{name}[{index}] must be a [u, v] or [u, v, weight] array")
    } else if len == 3 && !weight.is_some_and(f64::is_finite) {
        format!("{name}[{index}][2] must be a finite number")
    } else {
        let slot = usize::from(vertex_id(ids[0]).is_some());
        format!("{name}[{index}][{slot}] must be a vertex id")
    })
}

/// Decodes a triple list straight from `tokens`, its `[` already read,
/// checking each entry as [`parse_triples`] does.  The outer error is the
/// line's JSON error; the inner one is the first entry's check that fails,
/// after which the rest of the list is only validated.
#[inline(never)]
fn triples_from_tokens(
    tokens: &mut Tokenizer<'_>,
    name: &str,
) -> Result<Result<Vec<Triple>, ServerError>, serde_json::Error> {
    let mut triples = Vec::new();
    let mut failed = None;
    let mut index = 0;
    loop {
        match pending(tokens)? {
            Event::EndArray => break,
            Event::StartArray if failed.is_none() => {
                let mut entry = Entry::default();
                let stop = tokens.array_numbers(|number| entry.record(number))?;
                if stop != Event::EndArray {
                    entry = entry.finish(tokens, stop)?;
                }
                match check_triple(name, index, entry.len, entry.ids, entry.weight) {
                    Ok(triple) => triples.push(triple),
                    Err(error) => failed = Some(error),
                }
            }
            entry => {
                if failed.is_none() {
                    failed = Some(triple_error(name, index, 0, [None; 2], None));
                }
                tokens.skip_from(entry)?;
            }
        }
        index += 1;
    }
    Ok(failed.map_or(Ok(triples), Err))
}

/// What [`check_triple`] reads of one array entry of a triple list.
#[derive(Default)]
struct Entry {
    len: usize,
    ids: [Option<u64>; 2],
    weight: Option<f64>,
}

impl Entry {
    #[inline]
    fn record(&mut self, number: JsonNumber<'_>) {
        match self.len {
            0 | 1 => self.ids[self.len] = number.as_u64(),
            2 => self.weight = Some(number.as_f64()),
            _ => {}
        }
        self.len += 1;
    }

    /// Reads the rest of an entry from `item`, the first item that is not
    /// a number, to its `]`.
    #[cold]
    #[inline(never)]
    fn finish<'a>(
        mut self,
        tokens: &mut Tokenizer<'a>,
        mut item: Event<'a>,
    ) -> Result<Entry, serde_json::Error> {
        loop {
            match item {
                Event::EndArray => return Ok(self),
                Event::Number(number) => self.record(number),
                other => {
                    tokens.skip_from(other)?;
                    self.len += 1;
                }
            }
            item = pending(tokens)?;
        }
    }
}

/// The next event inside a value that is not complete yet.
#[inline(always)]
fn pending<'a>(tokens: &mut Tokenizer<'a>) -> Result<Event<'a>, serde_json::Error> {
    Ok(tokens
        .next_event()?
        .expect("a value in progress ends with a token"))
}

/// Parses an optional `alphas` array.
pub fn parse_alphas(request: &Value) -> Result<Option<Vec<f64>>, ServerError> {
    match &request["alphas"] {
        Value::Null => Ok(None),
        value => {
            let raw = value.as_array().ok_or_else(|| {
                ServerError::BadRequest("field \"alphas\" must be an array".into())
            })?;
            let mut alphas = Vec::with_capacity(raw.len());
            for (index, entry) in raw.iter().enumerate() {
                alphas.push(entry.as_f64().ok_or_else(|| {
                    ServerError::BadRequest(format!("alphas[{index}] must be a number"))
                })?);
            }
            Ok(Some(alphas))
        }
    }
}

/// Builds a success response, echoing the request's `id` unless it is
/// `null` (a request without one reads as `null`).  Every response declares
/// the server's protocol version as `"proto"`.
pub fn ok_response(id: &Value, mut body: Value) -> Value {
    body["ok"] = json!(true);
    body["proto"] = json!(PROTO_VERSION);
    echo_id(id, &mut body);
    body
}

/// Builds a failure response from an error, echoing the request's `id`.
///
/// Load-shed errors ([`ServerError::Overloaded`]) additionally carry a
/// `retry_after_ms` backoff hint so well-behaved clients can pace retries.
pub fn error_response(id: &Value, error: &ServerError) -> Value {
    let mut body = json!({ "ok": false, "error": error.to_string() });
    if let ServerError::Overloaded { retry_after_ms } = error {
        body["retry_after_ms"] = json!(retry_after_ms);
    }
    body["proto"] = json!(PROTO_VERSION);
    echo_id(id, &mut body);
    body
}

fn echo_id(id: &Value, body: &mut Value) {
    if !id.is_null() {
        body["id"] = id.clone();
    }
}

/// Per-job bound fields accepted by every mining command (`mine`, `topk`,
/// `sweep`): a wall-clock deadline measured from request receipt, a
/// solver-specific work budget, and a client-chosen job id the `cancel`
/// command can target.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobBounds {
    /// `deadline_ms`: wall-clock deadline in milliseconds (queue time counts).
    pub deadline_ms: Option<u64>,
    /// `budget`: solver-specific work budget.
    pub budget: Option<u64>,
    /// `job`: id under which the job's cancellation token is registered.
    pub job: Option<String>,
}

impl JobBounds {
    fn from_value(request: &Value) -> Result<JobBounds, ServerError> {
        Ok(JobBounds {
            deadline_ms: optional_u64_opt(request, "deadline_ms")?,
            budget: optional_u64_opt(request, "budget")?,
            job: request["job"].as_str().map(str::to_string),
        })
    }

    fn encode_into(&self, body: &mut Value) {
        if let Some(ms) = self.deadline_ms {
            body["deadline_ms"] = json!(ms);
        }
        if let Some(units) = self.budget {
            body["budget"] = json!(units);
        }
        if let Some(job) = &self.job {
            body["job"] = json!(job);
        }
    }
}

/// A typed `create_session` request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CreateSessionRequest {
    /// The session name.
    pub session: String,
    /// `remine_every`: re-mine after this many applied observations
    /// (0 = on-demand mining only).
    pub remine_every: u64,
    /// `alert_threshold`: density-difference level that marks an alert
    /// triggered.
    pub alert_threshold: f64,
    /// `measure`: the configured density measure (`None` = the default,
    /// graph affinity).
    pub measure: Option<DensityMeasure>,
    /// `pack`: a graph-pack path on the server's filesystem to open as the
    /// baseline.
    pub pack: Option<String>,
    /// `vertices`: the vertex count — required without `pack`, an optional
    /// cross-check against the pack header with it.
    pub vertices: Option<u64>,
    /// `durable`: give the session a write-ahead log and checkpoints
    /// (requires a server data directory).
    pub durable: bool,
}

/// A typed protocol request — one variant per `cmd`.
///
/// [`Request::from_value`] parses the wire object with the same field order
/// and error strings as the historical hand-rolled dispatch;
/// [`Request::to_value`] renders the canonical wire shape the [`crate::Client`]
/// sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `ping`
    Ping,
    /// `create_session`
    CreateSession(CreateSessionRequest),
    /// `load_baseline`
    LoadBaseline {
        /// The session name.
        session: String,
        /// Replacement baseline edges.
        edges: Vec<(VertexId, VertexId, Weight)>,
    },
    /// `observe`
    Observe {
        /// The session name.
        session: String,
        /// Batched weight updates to the observed graph.
        updates: Vec<(VertexId, VertexId, Weight)>,
    },
    /// `mine`
    Mine {
        /// The session name.
        session: String,
        /// Measure override (`None` = the session's configured measure).
        measure: Option<DensityMeasure>,
        /// Per-job bounds.
        bounds: JobBounds,
    },
    /// `topk`
    TopK {
        /// The session name.
        session: String,
        /// Number of vertex-disjoint subgraphs requested.
        k: usize,
        /// Measure override.
        measure: Option<DensityMeasure>,
        /// Per-job bounds.
        bounds: JobBounds,
    },
    /// `sweep`
    Sweep {
        /// The session name.
        session: String,
        /// α grid (`None` = the default grid).
        alphas: Option<Vec<f64>>,
        /// Measure override.
        measure: Option<DensityMeasure>,
        /// Per-job bounds.
        bounds: JobBounds,
    },
    /// `cancel`
    Cancel {
        /// The job id to cancel.
        job: String,
    },
    /// `stats`
    Stats {
        /// `Some(name)` for per-session counters, `None` for the server-wide
        /// payload.
        session: Option<String>,
    },
    /// `list_sessions`
    ListSessions,
    /// `drop_session`
    DropSession {
        /// The session name.
        session: String,
    },
    /// `server_stats`
    ServerStats,
    /// `shutdown`
    Shutdown,
}

/// A request line as [`Request::decode`] reads it.
#[derive(Debug)]
pub struct Decoded {
    /// The `id` a response echoes: the line's top-level `id`, or
    /// `Value::Null` (echoed as nothing) when it has none.
    pub id: Value,
    /// The typed request, or the error [`Request::from_value`] returns for
    /// the line's tree.
    pub request: Result<Request, ServerError>,
}

impl Request {
    /// Decodes one request line the way the server does: one tokenizer pass
    /// validates the whole line and reads its top-level fields, and the
    /// `updates` and `edges` lists decode straight into triples, with no
    /// tree.  The other fields are small trees, checked by the same code as
    /// [`Request::from_value`], in its order.
    ///
    /// The result always equals `from_value` on `serde_json::from_str(line)`:
    /// the same JSON error, or the same request (weights bit for bit) or
    /// error string, and the same `id`.  A repeated key counts its last
    /// value, as a parsed object does.
    pub fn decode(line: &str) -> Result<Decoded, serde_json::Error> {
        let mut tokens = Tokenizer::new(line);
        let first = pending(&mut tokens)?;
        if first != Event::StartObject {
            // Not an object: every field reads as null.
            tokens.skip_from(first)?;
            let end = tokens.next_event()?;
            debug_assert!(end.is_none());
            return Ok(Decoded {
                id: Value::Null,
                request: Request::from_value(&Value::Null),
            });
        }
        let mut fields = Map::new();
        let mut lists: [Option<Result<Vec<Triple>, ServerError>>; 2] = [None, None];
        while let Event::Key(key) = pending(&mut tokens)? {
            let name = key.decode();
            let value = pending(&mut tokens)?;
            match TRIPLE_LISTS.iter().position(|list| *list == name) {
                Some(list) if value == Event::StartArray => {
                    lists[list] = Some(triples_from_tokens(&mut tokens, &name)?);
                    fields.remove(&name);
                }
                list => {
                    if let Some(list) = list {
                        lists[list] = None;
                    }
                    let value = tokens.value_from(value)?;
                    fields.insert(name.into_owned(), value);
                }
            }
        }
        let end = tokens.next_event()?;
        debug_assert!(end.is_none());
        let fields = Value::Object(fields);
        let request = Request::from_fields(&fields, |name| {
            let list = TRIPLE_LISTS.iter().position(|list| *list == name);
            match list.and_then(|list| lists[list].take()) {
                Some(decoded) => decoded,
                None => parse_triples(&fields, name),
            }
        });
        Ok(Decoded {
            id: fields["id"].clone(),
            request,
        })
    }

    /// Parses a wire request from its tree.  Field order and error strings
    /// match the historical dispatch exactly: `cmd` first, then (new,
    /// additive) the optional `proto` declaration, then the per-command
    /// fields in their legacy order.  The server decodes with
    /// [`Request::decode`]; this is its oracle.
    pub fn from_value(request: &Value) -> Result<Request, ServerError> {
        Request::from_fields(request, |name| parse_triples(request, name))
    }

    /// The checks of [`Request::from_value`], with the `edges` and
    /// `updates` lists taken from `triples`.
    fn from_fields(
        request: &Value,
        mut triples: impl FnMut(&str) -> Result<Vec<Triple>, ServerError>,
    ) -> Result<Request, ServerError> {
        let cmd = required_str(request, "cmd")?;
        match &request["proto"] {
            Value::Null => {}
            value => {
                let requested = value.as_u64().ok_or_else(|| {
                    ServerError::BadRequest("field \"proto\" must be a non-negative integer".into())
                })?;
                if requested != PROTO_VERSION {
                    return Err(ServerError::UnsupportedProto { requested });
                }
            }
        }
        match cmd {
            "ping" => Ok(Request::Ping),
            "create_session" => {
                let session = required_str(request, "session")?.to_string();
                let measure = parse_measure(request["measure"].as_str())?;
                let remine_every = optional_u64(request, "remine_every", 0)?;
                let alert_threshold = optional_f64(request, "alert_threshold", 0.0)?;
                let pack = request["pack"].as_str().map(str::to_string);
                let vertices = if pack.is_some() {
                    optional_u64_opt(request, "vertices")?
                } else {
                    Some(required_u64(request, "vertices")?)
                };
                let durable = match &request["durable"] {
                    Value::Null => false,
                    Value::Bool(flag) => *flag,
                    _ => {
                        return Err(ServerError::BadRequest(
                            "field \"durable\" must be a boolean".into(),
                        ))
                    }
                };
                Ok(Request::CreateSession(CreateSessionRequest {
                    session,
                    remine_every,
                    alert_threshold,
                    measure,
                    pack,
                    vertices,
                    durable,
                }))
            }
            "load_baseline" => Ok(Request::LoadBaseline {
                session: required_str(request, "session")?.to_string(),
                edges: triples("edges")?,
            }),
            "observe" => Ok(Request::Observe {
                session: required_str(request, "session")?.to_string(),
                updates: triples("updates")?,
            }),
            "mine" => {
                let measure = parse_measure(request["measure"].as_str())?;
                Ok(Request::Mine {
                    session: required_str(request, "session")?.to_string(),
                    measure,
                    bounds: JobBounds::from_value(request)?,
                })
            }
            "topk" => {
                let measure = parse_measure(request["measure"].as_str())?;
                let k = required_u64(request, "k")? as usize;
                Ok(Request::TopK {
                    session: required_str(request, "session")?.to_string(),
                    k,
                    measure,
                    bounds: JobBounds::from_value(request)?,
                })
            }
            "sweep" => {
                let measure = parse_measure(request["measure"].as_str())?;
                let alphas = parse_alphas(request)?;
                Ok(Request::Sweep {
                    session: required_str(request, "session")?.to_string(),
                    alphas,
                    measure,
                    bounds: JobBounds::from_value(request)?,
                })
            }
            "cancel" => Ok(Request::Cancel {
                job: required_str(request, "job")?.to_string(),
            }),
            "stats" => Ok(Request::Stats {
                session: request["session"].as_str().map(str::to_string),
            }),
            "list_sessions" => Ok(Request::ListSessions),
            "drop_session" => Ok(Request::DropSession {
                session: required_str(request, "session")?.to_string(),
            }),
            "server_stats" => Ok(Request::ServerStats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServerError::BadRequest(format!("unknown cmd {other:?}"))),
        }
    }

    /// Renders the canonical wire shape of this request (what [`crate::Client`]
    /// sends): `cmd` first, then the command's fields; absent optionals and
    /// zero-valued defaults are omitted.
    pub fn to_value(&self) -> Value {
        fn triples(list: &[(VertexId, VertexId, Weight)]) -> Value {
            Value::Array(list.iter().map(|&(u, v, w)| json!([u, v, w])).collect())
        }
        match self {
            Request::Ping => json!({ "cmd": "ping" }),
            Request::CreateSession(create) => {
                let mut body = json!({ "cmd": "create_session", "session": create.session });
                if let Some(pack) = &create.pack {
                    body["pack"] = json!(pack);
                }
                if let Some(vertices) = create.vertices {
                    body["vertices"] = json!(vertices);
                }
                if create.remine_every > 0 {
                    body["remine_every"] = json!(create.remine_every);
                }
                if create.alert_threshold != 0.0 {
                    body["alert_threshold"] = json!(create.alert_threshold);
                }
                if let Some(measure) = create.measure {
                    body["measure"] = json!(measure.token());
                }
                if create.durable {
                    body["durable"] = json!(true);
                }
                body
            }
            Request::LoadBaseline { session, edges } => {
                json!({ "cmd": "load_baseline", "session": session, "edges": triples(edges) })
            }
            Request::Observe { session, updates } => {
                json!({ "cmd": "observe", "session": session, "updates": triples(updates) })
            }
            Request::Mine {
                session,
                measure,
                bounds,
            } => {
                let mut body = json!({ "cmd": "mine", "session": session });
                if let Some(measure) = measure {
                    body["measure"] = json!(measure.token());
                }
                bounds.encode_into(&mut body);
                body
            }
            Request::TopK {
                session,
                k,
                measure,
                bounds,
            } => {
                let mut body = json!({ "cmd": "topk", "session": session, "k": k });
                if let Some(measure) = measure {
                    body["measure"] = json!(measure.token());
                }
                bounds.encode_into(&mut body);
                body
            }
            Request::Sweep {
                session,
                alphas,
                measure,
                bounds,
            } => {
                let mut body = json!({ "cmd": "sweep", "session": session });
                if let Some(alphas) = alphas {
                    body["alphas"] = json!(alphas.clone());
                }
                if let Some(measure) = measure {
                    body["measure"] = json!(measure.token());
                }
                bounds.encode_into(&mut body);
                body
            }
            Request::Cancel { job } => json!({ "cmd": "cancel", "job": job }),
            Request::Stats { session } => match session {
                Some(name) => json!({ "cmd": "stats", "session": name }),
                None => json!({ "cmd": "stats" }),
            },
            Request::ListSessions => json!({ "cmd": "list_sessions" }),
            Request::DropSession { session } => {
                json!({ "cmd": "drop_session", "session": session })
            }
            Request::ServerStats => json!({ "cmd": "server_stats" }),
            Request::Shutdown => json!({ "cmd": "shutdown" }),
        }
    }
}

/// A typed success response — one variant per fixed-shape reply, plus
/// [`Response::Body`] for payloads that are already protocol-shaped JSON
/// (mining results, stats surfaces).
///
/// [`Response::into_body`] renders the exact legacy field order; the wire
/// framing (`ok`, `proto`, `id`) is added by the crate-private `ok_response`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `ping` → `{"pong": true}`
    Pong,
    /// `create_session` → `{"session", "vertices", "backing"}` (+ `durable`,
    /// `recovered` for durable creates)
    SessionCreated {
        /// The session name.
        session: String,
        /// The vertex count (from the request or the pack header).
        vertices: usize,
        /// `"memory"` or `"pack"`.
        backing: &'static str,
        /// `Some(recovered)` for durable creates: whether an existing session
        /// directory was recovered (vs a fresh one initialised).
        durable: Option<bool>,
    },
    /// `load_baseline` → `{"baseline_edges", "version"}`
    BaselineLoaded {
        /// Edges accepted into the new baseline.
        baseline_edges: usize,
        /// The session version after the reload.
        version: u64,
    },
    /// `observe` → `{"applied", "ignored", "version", "alerts"}`
    Observed {
        /// Updates that changed the observed graph.
        applied: usize,
        /// No-op updates.
        ignored: usize,
        /// The session version after the batch.
        version: u64,
        /// Alerts raised by cadence mining, already rendered
        /// ([`alert_to_json`]).
        alerts: Vec<Value>,
    },
    /// `cancel` → `{"cancelled"}`
    Cancelled {
        /// Whether the job id was found and its token cancelled.
        cancelled: bool,
    },
    /// `list_sessions` → `{"sessions"}`
    SessionList {
        /// The session names, sorted.
        sessions: Vec<String>,
    },
    /// `drop_session` → `{"dropped": true}`
    SessionDropped,
    /// `shutdown` → `{"shutting_down": true}`
    ShuttingDown,
    /// A payload already in wire shape (mining results, stats).
    Body(Value),
}

impl Response {
    /// Renders the response body (without the `ok`/`proto`/`id` framing) in
    /// the exact legacy field order.
    pub fn into_body(self) -> Value {
        match self {
            Response::Pong => json!({ "pong": true }),
            Response::SessionCreated {
                session,
                vertices,
                backing,
                durable,
            } => {
                let mut body =
                    json!({ "session": session, "vertices": vertices, "backing": backing });
                if let Some(recovered) = durable {
                    body["durable"] = json!(true);
                    body["recovered"] = json!(recovered);
                }
                body
            }
            Response::BaselineLoaded {
                baseline_edges,
                version,
            } => json!({ "baseline_edges": baseline_edges, "version": version }),
            Response::Observed {
                applied,
                ignored,
                version,
                alerts,
            } => json!({
                "applied": applied,
                "ignored": ignored,
                "version": version,
                "alerts": alerts,
            }),
            Response::Cancelled { cancelled } => json!({ "cancelled": cancelled }),
            Response::SessionList { sessions } => json!({ "sessions": sessions }),
            Response::SessionDropped => json!({ "dropped": true }),
            Response::ShuttingDown => json!({ "shutting_down": true }),
            Response::Body(value) => value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_parse_with_aliases() {
        assert_eq!(parse_measure(None).unwrap(), None);
        assert_eq!(
            parse_measure(Some("GA")).unwrap(),
            Some(DensityMeasure::GraphAffinity)
        );
        assert_eq!(
            parse_measure(Some("average-degree")).unwrap(),
            Some(DensityMeasure::AverageDegree)
        );
        match parse_measure(Some("Entropy")) {
            Err(ServerError::BadRequest(message)) => assert_eq!(
                message,
                "unknown measure \"entropy\" (expected \"affinity\" or \"degree\")"
            ),
            other => panic!("expected a bad request, got {other:?}"),
        }
    }

    #[test]
    fn triples_accept_pairs_and_triples() {
        let request = json!({ "edges": [[0, 1], [2, 3, -1.5]] });
        let triples = parse_triples(&request, "edges").unwrap();
        assert_eq!(triples, vec![(0, 1, 1.0), (2, 3, -1.5)]);
        assert!(parse_triples(&json!({}), "edges").is_err());
        assert!(parse_triples(&json!({"edges": [[0]]}), "edges").is_err());
        assert!(parse_triples(&json!({"edges": [[0, "x"]]}), "edges").is_err());
    }

    #[test]
    fn field_extractors_validate() {
        let request = json!({"session": "s", "k": 3, "threshold": 1.5});
        assert_eq!(required_str(&request, "session").unwrap(), "s");
        assert!(required_str(&request, "missing").is_err());
        assert_eq!(required_u64(&request, "k").unwrap(), 3);
        assert_eq!(optional_u64(&request, "k", 9).unwrap(), 3);
        assert_eq!(optional_u64(&request, "absent", 9).unwrap(), 9);
        assert_eq!(optional_f64(&request, "threshold", 0.0).unwrap(), 1.5);
        assert_eq!(optional_f64(&request, "absent", 2.5).unwrap(), 2.5);
        assert!(optional_f64(&request, "session", 0.0).is_err());
    }

    #[test]
    fn alphas_are_optional() {
        assert_eq!(parse_alphas(&json!({})).unwrap(), None);
        assert_eq!(
            parse_alphas(&json!({"alphas": [0.0, 1.5]})).unwrap(),
            Some(vec![0.0, 1.5])
        );
        assert!(parse_alphas(&json!({"alphas": "x"})).is_err());
    }

    #[test]
    fn responses_echo_the_request_id() {
        let request = json!({"cmd": "ping", "id": 42});
        let ok = ok_response(&request["id"], json!({"pong": true}));
        assert_eq!(ok["ok"], true);
        assert_eq!(ok["id"], 42);
        let err = error_response(&request["id"], &ServerError::Busy);
        assert_eq!(err["ok"], false);
        assert_eq!(err["id"], 42);
        assert!(err["error"].as_str().unwrap().contains("busy"));
        // Without an id nothing is echoed.
        let quiet = ok_response(&json!({"cmd": "ping"})["id"], json!({}));
        assert!(quiet["id"].is_null());
    }

    #[test]
    fn typed_requests_roundtrip_through_the_wire_shape() {
        let requests = vec![
            Request::Ping,
            Request::CreateSession(CreateSessionRequest {
                session: "s".into(),
                remine_every: 3,
                alert_threshold: 1.5,
                measure: Some(DensityMeasure::AverageDegree),
                pack: None,
                vertices: Some(10),
                durable: true,
            }),
            Request::LoadBaseline {
                session: "s".into(),
                edges: vec![(0, 1, 1.0)],
            },
            Request::Observe {
                session: "s".into(),
                updates: vec![(0, 1, 2.0), (2, 3, -1.0)],
            },
            Request::Mine {
                session: "s".into(),
                measure: None,
                bounds: JobBounds {
                    deadline_ms: Some(250),
                    budget: None,
                    job: Some("j1".into()),
                },
            },
            Request::TopK {
                session: "s".into(),
                k: 4,
                measure: Some(DensityMeasure::GraphAffinity),
                bounds: JobBounds::default(),
            },
            Request::Sweep {
                session: "s".into(),
                alphas: Some(vec![0.0, 0.5]),
                measure: None,
                bounds: JobBounds::default(),
            },
            Request::Cancel { job: "j1".into() },
            Request::Stats { session: None },
            Request::Stats {
                session: Some("s".into()),
            },
            Request::ListSessions,
            Request::DropSession {
                session: "s".into(),
            },
            Request::ServerStats,
            Request::Shutdown,
        ];
        for request in requests {
            let wire = request.to_value();
            let back = Request::from_value(&wire).unwrap();
            assert_eq!(back, request, "roundtrip of {wire}");
        }
    }

    #[test]
    fn typed_parse_keeps_legacy_error_strings() {
        let missing_cmd = Request::from_value(&json!({})).unwrap_err();
        assert_eq!(
            missing_cmd.to_string(),
            "bad request: missing string field \"cmd\""
        );
        let unknown = Request::from_value(&json!({"cmd": "frobnicate"})).unwrap_err();
        assert_eq!(
            unknown.to_string(),
            "bad request: unknown cmd \"frobnicate\""
        );
        let missing_vertices =
            Request::from_value(&json!({"cmd": "create_session", "session": "s"})).unwrap_err();
        assert_eq!(
            missing_vertices.to_string(),
            "bad request: missing integer field \"vertices\""
        );
        let missing_k = Request::from_value(&json!({"cmd": "topk", "session": "s"})).unwrap_err();
        assert_eq!(
            missing_k.to_string(),
            "bad request: missing integer field \"k\""
        );
        let bad_durable = Request::from_value(
            &json!({"cmd": "create_session", "session": "s", "vertices": 4, "durable": "yes"}),
        )
        .unwrap_err();
        assert_eq!(
            bad_durable.to_string(),
            "bad request: field \"durable\" must be a boolean"
        );
    }

    #[test]
    fn proto_declarations_are_checked() {
        // Undeclared and correctly declared protos parse.
        assert!(Request::from_value(&json!({"cmd": "ping"})).is_ok());
        assert!(Request::from_value(&json!({"cmd": "ping", "proto": 1})).is_ok());
        // Unknown versions are rejected with the structured error.
        let future = Request::from_value(&json!({"cmd": "ping", "proto": 2})).unwrap_err();
        assert!(matches!(
            future,
            ServerError::UnsupportedProto { requested: 2 }
        ));
        assert_eq!(
            future.to_string(),
            "unsupported proto 2 (server speaks proto 1)"
        );
        // Malformed declarations are bad requests.
        let garbage = Request::from_value(&json!({"cmd": "ping", "proto": "x"})).unwrap_err();
        assert_eq!(
            garbage.to_string(),
            "bad request: field \"proto\" must be a non-negative integer"
        );
    }

    #[test]
    fn responses_carry_the_proto_version() {
        let ok = ok_response(&json!({"cmd": "ping"})["id"], Response::Pong.into_body());
        assert_eq!(ok["proto"], 1);
        let err = error_response(&json!({"cmd": "ping"})["id"], &ServerError::Busy);
        assert_eq!(err["proto"], 1);
    }

    #[test]
    fn response_bodies_render_the_legacy_shapes() {
        assert_eq!(
            serde_json::to_string(&Response::Pong.into_body()).unwrap(),
            "{\"pong\":true}"
        );
        let created = Response::SessionCreated {
            session: "s".into(),
            vertices: 7,
            backing: "memory",
            durable: None,
        }
        .into_body();
        assert_eq!(
            serde_json::to_string(&created).unwrap(),
            "{\"session\":\"s\",\"vertices\":7,\"backing\":\"memory\"}"
        );
        let recovered = Response::SessionCreated {
            session: "s".into(),
            vertices: 7,
            backing: "memory",
            durable: Some(true),
        }
        .into_body();
        assert_eq!(recovered["durable"], true);
        assert_eq!(recovered["recovered"], true);
        let observed = Response::Observed {
            applied: 2,
            ignored: 1,
            version: 9,
            alerts: vec![],
        }
        .into_body();
        assert_eq!(
            serde_json::to_string(&observed).unwrap(),
            "{\"applied\":2,\"ignored\":1,\"version\":9,\"alerts\":[]}"
        );
    }

    #[test]
    fn overloaded_responses_carry_a_retry_hint() {
        let request = json!({"cmd": "observe", "id": "req-9"});
        let shed = error_response(
            &request["id"],
            &ServerError::Overloaded { retry_after_ms: 75 },
        );
        assert_eq!(shed["ok"], false);
        assert_eq!(shed["error"], "overloaded");
        assert_eq!(shed["retry_after_ms"], 75);
        assert_eq!(shed["id"], "req-9");
        // Only load-shed errors carry the hint.
        let busy = error_response(&request["id"], &ServerError::Busy);
        assert!(busy["retry_after_ms"].is_null());
    }
}
