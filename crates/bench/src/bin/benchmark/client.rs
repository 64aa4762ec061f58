//! The benchmark's protocol client: one blocking TCP connection with
//! `TCP_NODELAY`, one request line out, one count-framed reply back.
//!
//! Multi-line replies are framed by the header's `<label>=<n>` count —
//! exactly `n` payload lines, then `END` — never by scanning for `END`,
//! because a constant named `END` is a legal answer.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// Header labels that announce a counted multi-line reply.
const FRAMED_LABELS: [&str; 6] = [
    "answers",
    "diagnostics",
    "explain",
    "profile",
    "metrics",
    "slow",
];

/// The first line of a reply, classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Header {
    /// `OK <label>=<n> …`: `n` payload lines and an `END` line follow.
    Framed {
        /// The whole header line.
        line: String,
        /// The announced payload line count.
        count: usize,
    },
    /// Any other `OK …` line: the reply is this one line.
    Ok(String),
    /// `ERR …`: the reply is this one line. Shed (`ERR overloaded`),
    /// draining and handler errors all land here and count as failed
    /// operations — the client never retries.
    Err(String),
}

impl Header {
    /// The header line as received (without the line terminator).
    pub fn line(&self) -> &str {
        match self {
            Header::Framed { line, .. } | Header::Ok(line) | Header::Err(line) => line,
        }
    }
}

fn protocol_error(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Reads one `\n`-terminated line into `buffer` (cleared first) and strips
/// the terminator. End of stream is an error: replies are never cut short.
fn read_line<R: BufRead>(reader: &mut R, buffer: &mut String) -> io::Result<()> {
    buffer.clear();
    if reader.read_line(buffer)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-reply",
        ));
    }
    while buffer.ends_with('\n') || buffer.ends_with('\r') {
        buffer.pop();
    }
    Ok(())
}

/// Classifies a header line. A framed header is `OK`, then a first token
/// `<label>=<n>` with a known label and a decimal count.
fn classify(line: &str) -> io::Result<Header> {
    if line == "ERR" || line.starts_with("ERR ") {
        return Ok(Header::Err(line.to_string()));
    }
    let Some(rest) = line.strip_prefix("OK") else {
        return Err(protocol_error(format!(
            "reply starts with neither OK nor ERR: {line:?}"
        )));
    };
    let first = rest.split_whitespace().next().unwrap_or("");
    if let Some((label, count)) = first.split_once('=') {
        if FRAMED_LABELS.contains(&label) {
            let count = count
                .parse()
                .map_err(|_| protocol_error(format!("bad frame count in header {line:?}")))?;
            return Ok(Header::Framed {
                line: line.to_string(),
                count,
            });
        }
    }
    Ok(Header::Ok(line.to_string()))
}

/// Reads one whole reply, handing each payload line of a framed reply to
/// `on_line`. `scratch` is the line buffer, reused across calls so the hot
/// loop allocates only the header.
pub fn read_reply<R: BufRead>(
    reader: &mut R,
    scratch: &mut String,
    mut on_line: impl FnMut(&str),
) -> io::Result<Header> {
    read_line(reader, scratch)?;
    let header = classify(scratch)?;
    if let Header::Framed { count, .. } = header {
        for _ in 0..count {
            read_line(reader, scratch)?;
            on_line(scratch);
        }
        read_line(reader, scratch)?;
        if scratch != "END" {
            return Err(protocol_error(format!(
                "expected END after {count} payload lines, got {scratch:?}"
            )));
        }
    }
    Ok(header)
}

/// One blocking connection to the server under test.
pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    scratch: String,
}

impl Connection {
    /// Connects with `TCP_NODELAY`, so a one-line request is not held back
    /// waiting for more bytes to coalesce.
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Connection {
            writer,
            reader,
            scratch: String::new(),
        })
    }

    /// Sends one request line (terminator added here, one write so that
    /// `TCP_NODELAY` sends one segment) and reads its reply.
    pub fn request(&mut self, line: &str, on_line: impl FnMut(&str)) -> io::Result<Header> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        read_reply(&mut self.reader, &mut self.scratch, on_line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_all(wire: &str) -> Vec<(Header, Vec<String>)> {
        let mut reader = Cursor::new(wire.as_bytes().to_vec());
        let mut scratch = String::new();
        let mut replies = Vec::new();
        while (reader.position() as usize) < wire.len() {
            let mut lines = Vec::new();
            let header = read_reply(&mut reader, &mut scratch, |line| {
                lines.push(line.to_string());
            })
            .expect("well-formed reply");
            replies.push((header, lines));
        }
        replies
    }

    #[test]
    fn framed_replies_are_read_by_count_not_by_scanning_for_end() {
        // The second answer *is* the constant `END`; only the count says the
        // frame continues past it.
        let replies = read_all("OK answers=3 epoch=7\na b\nEND\nc d\nEND\nOK bye\n");
        assert_eq!(replies.len(), 2);
        assert_eq!(
            replies[0].0,
            Header::Framed {
                line: "OK answers=3 epoch=7".into(),
                count: 3
            }
        );
        assert_eq!(replies[0].1, ["a b", "END", "c d"]);
        assert_eq!(replies[1], (Header::Ok("OK bye".into()), vec![]));
    }

    #[test]
    fn empty_frames_boolean_answers_and_other_labels() {
        let replies = read_all(
            "OK answers=0 epoch=1\nEND\nOK answers=1 epoch=1\n\nEND\nOK metrics=2\nx 1\ny 2\nEND\n",
        );
        assert_eq!(replies[0].1, Vec::<String>::new());
        // A true Boolean query answers one empty tuple.
        assert_eq!(replies[1].1, [""]);
        assert_eq!(replies[2].1, ["x 1", "y 2"]);
    }

    #[test]
    fn single_line_replies_are_not_mistaken_for_frames() {
        let replies = read_all(
            "OK inserted=4 duplicate=0 derived=61 strata_skipped=0 rounds=3 epoch=9\n\
             OK {\"schema_version\":1}\nOK\nERR overloaded retry_ms=100\nERR\n",
        );
        assert!(matches!(&replies[0].0, Header::Ok(line) if line.starts_with("OK inserted=4")));
        assert!(matches!(&replies[1].0, Header::Ok(_)));
        assert_eq!(replies[2].0, Header::Ok("OK".into()));
        assert_eq!(
            replies[3].0,
            Header::Err("ERR overloaded retry_ms=100".into())
        );
        assert_eq!(replies[4].0, Header::Err("ERR".into()));
        assert_eq!(replies[3].0.line(), "ERR overloaded retry_ms=100");
    }

    #[test]
    fn malformed_streams_are_errors_not_hangs() {
        let mut scratch = String::new();
        let mut check = |wire: &str| {
            read_reply(
                &mut Cursor::new(wire.as_bytes().to_vec()),
                &mut scratch,
                |_| (),
            )
        };
        // Cut short inside the frame, and before any header at all.
        assert_eq!(
            check("OK answers=2 epoch=1\na\n").unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(check("").unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        // Count says two lines, the wire has three before END.
        assert_eq!(
            check("OK answers=2 epoch=1\na\nb\nc\nEND\n")
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            check("OK answers=many\nEND\n").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(
            check("HELLO\n").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
