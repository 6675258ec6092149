//! A blocking client for the `ramp-serve/1` protocol, used by the
//! `ramp client` CLI subcommand, the parity tests, and the load bench.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sim_common::SimError;

use crate::protocol::{write_line, Reply, PROTOCOL_VERSION};

/// A connected client. One request/response exchange per
/// [`Client::request`]; the connection persists across requests.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The connection's one line buffer: each request line is framed in
    /// it and each response line is read into it.
    line: Vec<u8>,
}

impl Client {
    /// Connects to `addr` and verifies the server greeting.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the connection fails or
    /// the peer does not greet with [`PROTOCOL_VERSION`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, SimError> {
        Client::connect_timeout(addr, Duration::from_secs(30))
    }

    /// Like [`Client::connect`] with an explicit request timeout.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the connection fails or
    /// the peer does not greet with [`PROTOCOL_VERSION`].
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, SimError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| SimError::invalid_config(format!("cannot connect: {e}")))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| SimError::invalid_config(format!("cannot set read timeout: {e}")))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| SimError::invalid_config(format!("cannot set write timeout: {e}")))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| SimError::invalid_config(format!("cannot clone stream: {e}")))?,
        );
        let mut client = Client {
            reader,
            writer: stream,
            line: Vec::new(),
        };
        let greeting = client.read_line()?;
        let expected = format!("ok {PROTOCOL_VERSION}");
        if greeting != expected {
            return Err(SimError::invalid_config(format!(
                "protocol mismatch: server greeted `{greeting}`, expected `{expected}`"
            )));
        }
        Ok(client)
    }

    /// Reads the next response line into the line buffer and returns it
    /// without its line ending.
    fn read_line(&mut self) -> Result<&str, SimError> {
        self.line.clear();
        let n = self
            .reader
            .read_until(b'\n', &mut self.line)
            .map_err(|e| SimError::invalid_config(format!("read failed: {e}")))?;
        if n == 0 {
            return Err(SimError::invalid_config("server closed the connection"));
        }
        let line = std::str::from_utf8(&self.line).map_err(|_| {
            SimError::invalid_config("read failed: stream did not contain valid UTF-8")
        })?;
        Ok(line.trim_end_matches(['\r', '\n']))
    }

    /// Sends one raw request line and returns the raw response line.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on transport failure. A
    /// protocol-level `err` response is *not* a transport failure — it
    /// comes back as the response line.
    pub fn request_raw(&mut self, line: &str) -> Result<String, SimError> {
        self.send_line(line)?;
        self.read_line().map(str::to_owned)
    }

    /// Sends one request line and parses the response.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on transport failure or an
    /// unparsable response line.
    pub fn request(&mut self, line: &str) -> Result<Reply, SimError> {
        self.send_line(line)?;
        Reply::parse(self.read_line()?)
    }

    /// Sends one request line *without* waiting for a response — the
    /// entry point for streaming verbs (`watch`), whose responses arrive
    /// as multiple lines read via [`Client::next_reply`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on transport failure.
    pub fn send_line(&mut self, line: &str) -> Result<(), SimError> {
        write_line(&mut self.writer, &mut self.line, line)
            .map_err(|e| SimError::invalid_config(format!("write failed: {e}")))
    }

    /// Reads and parses the next response line (streaming verbs deliver
    /// several per request).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on transport failure (which
    /// includes the read timeout elapsing) or an unparsable line.
    pub fn next_reply(&mut self) -> Result<Reply, SimError> {
        Reply::parse(self.read_line()?)
    }

    /// Uploads a scenario text under `name` (the `scenario <name> <n>`
    /// header followed by the payload lines).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on transport failure.
    pub fn upload_scenario(&mut self, name: &str, text: &str) -> Result<Reply, SimError> {
        let lines: Vec<&str> = text.lines().collect();
        let mut payload = format!("scenario {name} {}\n", lines.len());
        for line in &lines {
            payload.push_str(line);
            payload.push('\n');
        }
        self.writer
            .write_all(payload.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| SimError::invalid_config(format!("write failed: {e}")))?;
        Reply::parse(self.read_line()?)
    }

    /// `ping` — liveness check.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] on transport failure or a
    /// non-`ok` response.
    pub fn ping(&mut self) -> Result<(), SimError> {
        let reply = self.request("ping")?;
        if reply.is_ok() && reply.kind == "pong" {
            Ok(())
        } else {
            Err(SimError::invalid_config(format!(
                "unexpected ping response: {}",
                reply.raw
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::TcpListener;

    use super::*;

    /// A request line reaches the peer as one send: each first `read` on
    /// the accepting side returns the whole `ping\n`, never `ping` and
    /// then its newline. It takes many round trips because on loopback a
    /// line written in two pieces arrives split only about half the time.
    #[test]
    fn a_request_line_arrives_in_one_read() {
        const PINGS: usize = 100;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.write_all(b"ok ramp-serve/1\n").expect("greet");
            let mut reads = Vec::with_capacity(PINGS);
            for _ in 0..PINGS {
                let mut buf = [0u8; 64];
                let n = stream.read(&mut buf).expect("read");
                reads.push(buf[..n].to_vec());
                stream.write_all(b"ok pong\n").expect("reply");
            }
            reads
        });
        let mut client = Client::connect(addr).expect("connect");
        for _ in 0..PINGS {
            client.ping().expect("ping");
        }
        for read in peer.join().expect("peer thread") {
            assert_eq!(String::from_utf8_lossy(&read), "ping\n");
        }
    }
}
