//! A small blocking client for the wire protocol — what the load
//! generator, the smoke tests and embedding code use to talk to a server.

use crate::protocol::{Line, LineReader, Request, MAX_LINE_BYTES};
use serde_json::Value;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One parsed response line.
#[derive(Debug)]
pub struct Response {
    /// The exact line as received (no newline) — byte-identity checks
    /// compare these.
    pub raw: String,
    /// The parsed JSON.
    pub value: Value,
}

impl Response {
    /// The `ok` flag (false for unparseable responses, which do not occur
    /// with a well-behaved server).
    pub fn ok(&self) -> bool {
        self.value
            .get("ok")
            .and_then(Value::as_bool)
            .unwrap_or(false)
    }

    /// `error.kind` when this is an error response.
    pub fn error_kind(&self) -> Option<&str> {
        self.value.get("error")?.get("kind")?.as_str()
    }

    /// The `result` payload when this is a success response.
    pub fn result(&self) -> Option<&Value> {
        self.value.get("result")
    }
}

/// A blocking connection to a `nestwx-serve` instance.
pub struct Client {
    reader: LineReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: LineReader::new(stream, MAX_LINE_BYTES),
            writer,
        })
    }

    /// Sends a typed request and waits for its response line.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        self.send_line(&req.to_json_line())
    }

    /// Sends one raw line (the malformed-input escape hatch for tests) and
    /// waits for the response.
    pub fn send_line(&mut self, line: &str) -> io::Result<Response> {
        let mut payload = String::with_capacity(line.len() + 1);
        payload.push_str(line);
        payload.push('\n');
        self.writer.write_all(payload.as_bytes())?;
        self.read_response()
    }

    /// Sends a whole batch of raw lines in one write, then reads one
    /// response per line. Responses come back in request order (the
    /// server fills pipelined slots in-order), so `raws[i]` answers
    /// `lines[i]` — this is the high-throughput path the benchmark uses.
    pub fn call_pipelined(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        let total: usize = lines.iter().map(|l| l.len() + 1).sum();
        let mut payload = String::with_capacity(total);
        for line in lines {
            payload.push_str(line);
            payload.push('\n');
        }
        self.writer.write_all(payload.as_bytes())?;
        let mut raws = Vec::with_capacity(lines.len());
        for _ in lines {
            raws.push(self.read_raw_response()?);
        }
        Ok(raws)
    }

    /// Reads the next response line verbatim, skipping JSON parsing — the
    /// byte-identity fast path for [`Client::call_pipelined`].
    pub(crate) fn read_raw_response(&mut self) -> io::Result<String> {
        loop {
            match self.reader.next_line()? {
                Line::Data(raw) => return Ok(raw),
                Line::Oversized { .. } => continue,
                Line::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
            }
        }
    }

    /// Reads the next response line without sending anything (for
    /// pipelined requests).
    pub(crate) fn read_response(&mut self) -> io::Result<Response> {
        loop {
            match self.reader.next_line()? {
                Line::Data(raw) => {
                    let value = serde_json::from_str(&raw).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unparseable response: {e}"),
                        )
                    })?;
                    return Ok(Response { raw, value });
                }
                Line::Oversized { .. } => continue,
                Line::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
            }
        }
    }
}
