//! A blocking NDJSON client for the mining server.
//!
//! The surface is typed: [`Client::create`] opens a session from a
//! [`CreateSessionRequest`], [`Client::session`] scopes the per-session
//! commands to one name through a [`SessionHandle`], and [`Client::send`]
//! takes any typed [`crate::Request`].  [`Client::request`] sends a raw
//! `Value`, for wire shapes the typed layer cannot express.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use dcs_graph::{VertexId, Weight};
use serde_json::Value;

use crate::error::ServerError;
use crate::protocol::{CreateSessionRequest, JobBounds, Request};

/// A blocking client speaking the server's NDJSON protocol over one TCP
/// connection.  All helpers return the full response object after checking
/// `ok`; protocol failures surface as [`ServerError::Remote`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ServerError> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request object and waits for its response line.
    ///
    /// This is the raw escape hatch; prefer [`Client::send`] with a typed
    /// [`Request`] where one exists.
    pub fn request(&mut self, request: Value) -> Result<Value, ServerError> {
        let mut text = serde_json::to_string(&request)
            .map_err(|e| ServerError::BadRequest(format!("unserializable request: {e}")))?;
        text.push('\n');
        self.writer.write_all(text.as_bytes())?;
        let mut line = String::new();
        let read = self.reader.read_line(&mut line)?;
        if read == 0 {
            return Err(ServerError::ConnectionClosed);
        }
        let response: Value = serde_json::from_str(line.trim_end())
            .map_err(|e| ServerError::Remote(format!("unparseable response: {e}")))?;
        if response["ok"] == true {
            Ok(response)
        } else {
            Err(ServerError::Remote(
                response["error"]
                    .as_str()
                    .unwrap_or("unknown error")
                    .to_string(),
            ))
        }
    }

    /// Sends a typed request and waits for its response object.
    pub fn send(&mut self, request: &Request) -> Result<Value, ServerError> {
        self.request(request.to_value())
    }

    /// A handle that scopes protocol commands to one named session:
    /// `client.session("s").observe(&updates)` instead of hand-building the
    /// wire object.  The handle borrows the client (one in-flight request per
    /// connection) and is free to construct — no round trip happens until a
    /// method is called.
    pub fn session<'a>(&'a mut self, name: &str) -> SessionHandle<'a> {
        SessionHandle {
            client: self,
            name: name.to_string(),
        }
    }

    /// `ping` round trip.
    pub fn ping(&mut self) -> Result<Value, ServerError> {
        self.send(&Request::Ping)
    }

    /// Creates a session from a typed [`CreateSessionRequest`].
    pub fn create(&mut self, create: CreateSessionRequest) -> Result<Value, ServerError> {
        self.send(&Request::CreateSession(create))
    }

    /// Cancels an in-flight job submitted with a `"job"` id (from any
    /// connection).  The response's `cancelled` field reports whether the id
    /// was found.
    pub fn cancel(&mut self, job_id: &str) -> Result<Value, ServerError> {
        self.send(&Request::Cancel {
            job: job_id.to_string(),
        })
    }

    /// Names of live sessions.
    pub fn list_sessions(&mut self) -> Result<Value, ServerError> {
        self.send(&Request::ListSessions)
    }

    /// Server-wide counters.
    pub fn server_stats(&mut self) -> Result<Value, ServerError> {
        self.send(&Request::ServerStats)
    }

    /// Asks the server to shut down.
    pub fn shutdown(&mut self) -> Result<Value, ServerError> {
        self.send(&Request::Shutdown)
    }
}

/// Protocol commands scoped to one named session, from [`Client::session`].
///
/// Each method is one round trip on the underlying client connection and
/// returns the full response object.
pub struct SessionHandle<'a> {
    client: &'a mut Client,
    name: String,
}

impl SessionHandle<'_> {
    /// The session name this handle addresses.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the session's baseline graph.
    pub fn load_baseline(
        &mut self,
        edges: &[(VertexId, VertexId, Weight)],
    ) -> Result<Value, ServerError> {
        self.client.send(&Request::LoadBaseline {
            session: self.name.clone(),
            edges: edges.to_vec(),
        })
    }

    /// Streams a batch of weight updates into the observed graph.
    pub fn observe(
        &mut self,
        updates: &[(VertexId, VertexId, Weight)],
    ) -> Result<Value, ServerError> {
        self.client.send(&Request::Observe {
            session: self.name.clone(),
            updates: updates.to_vec(),
        })
    }

    /// Mines the current DCS under the session's configured measure.
    pub fn mine(&mut self) -> Result<Value, ServerError> {
        self.mine_bounded(JobBounds::default())
    }

    /// Mines under per-job bounds (deadline, budget, cancellable job id).
    pub fn mine_bounded(&mut self, bounds: JobBounds) -> Result<Value, ServerError> {
        self.client.send(&Request::Mine {
            session: self.name.clone(),
            measure: None,
            bounds,
        })
    }

    /// Mines under an explicit measure override.
    pub fn mine_with(
        &mut self,
        measure: dcs_core::DensityMeasure,
        bounds: JobBounds,
    ) -> Result<Value, ServerError> {
        self.client.send(&Request::Mine {
            session: self.name.clone(),
            measure: Some(measure),
            bounds,
        })
    }

    /// Mines up to `k` vertex-disjoint contrast subgraphs.
    pub fn topk(&mut self, k: usize) -> Result<Value, ServerError> {
        self.client.send(&Request::TopK {
            session: self.name.clone(),
            k,
            measure: None,
            bounds: JobBounds::default(),
        })
    }

    /// Runs an α-sweep; `alphas = None` uses the server's default grid.
    pub fn sweep(&mut self, alphas: Option<&[f64]>) -> Result<Value, ServerError> {
        self.client.send(&Request::Sweep {
            session: self.name.clone(),
            alphas: alphas.map(<[f64]>::to_vec),
            bounds: JobBounds::default(),
            measure: None,
        })
    }

    /// Session counters.
    pub fn stats(&mut self) -> Result<Value, ServerError> {
        self.client.send(&Request::Stats {
            session: Some(self.name.clone()),
        })
    }

    /// Drops the session on the server (the handle stays usable only for
    /// creating it again).
    pub fn drop_session(&mut self) -> Result<Value, ServerError> {
        self.client.send(&Request::DropSession {
            session: self.name.clone(),
        })
    }
}
