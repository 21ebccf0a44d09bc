//! The closed-loop client: one connection keeps one pipelined batch of
//! fixed depth in flight, as an mcrouter-style client does, and checks
//! every response before it sends the next batch.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use spotcache_router::HashRing;

use crate::gen::{push_set, ConnStream, Keys, Values};
use crate::spans::Spans;

/// What one connection saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Requests answered.
    pub ops: u64,
    /// GETs answered.
    pub gets: u64,
    /// GETs that hit.
    pub hits: u64,
    /// Failed, refused or wrong responses, and misrouted keys.
    pub failed: u64,
}

impl Tally {
    /// Adds `o` to this tally.
    pub fn add(&mut self, o: &Tally) {
        self.ops += o.ops;
        self.gets += o.gets;
        self.hits += o.hits;
        self.failed += o.failed;
    }
}

/// What the client expects back for one request of a batch.
#[derive(Debug, Clone, Copy)]
struct Expect {
    /// GET (true) or SET (false).
    read: bool,
    /// Key id and value size of the request.
    id: u32,
    size: u32,
    /// Where the key sits in the batch's request bytes.
    key_at: u32,
    key_len: u8,
}

impl Expect {
    fn key<'r>(&self, req: &'r [u8]) -> &'r [u8] {
        &req[self.key_at as usize..self.key_at as usize + self.key_len as usize]
    }
}

/// One parsed response.
#[derive(Debug, PartialEq, Eq)]
enum Parsed {
    /// More bytes are needed.
    Incomplete,
    /// `END`: a GET miss.
    Miss,
    /// `VALUE ... END`; the data is at `at..at + len` of the buffer.
    Hit { at: usize, len: usize },
    /// `STORED`.
    Stored,
    /// An error line (`SERVER_ERROR ...` and kin): framed, but refused.
    Refused,
}

/// Shared inputs of every connection in a round.
pub struct RoundCtx<'a> {
    /// Key naming and the pool.
    pub keys: &'a Keys,
    /// Value patterns.
    pub values: &'a Values,
    /// The key → connection ring.
    pub ring: &'a HashRing,
    /// Requests per batch.
    pub depth: usize,
    /// SET every key a GET missed (look-aside caching).
    pub look_aside: bool,
}

/// One round of one connection.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Batch round trips, µs.
    pub rtts_us: Vec<f64>,
    /// What the connection saw this round.
    pub tally: Tally,
}

/// A client connection and its state across rounds.
pub struct Conn {
    stream: TcpStream,
    node: u64,
    req: Vec<u8>,
    resp: Vec<u8>,
    chunk: Vec<u8>,
    key: Vec<u8>,
    expect: Vec<Expect>,
    /// Look-aside SETs owed by the last batch's misses: `(id, size)`.
    pending: Vec<(u32, u32)>,
    /// Hot key id → when the server last acknowledged a SET of it, and
    /// that value's length.
    pub acked: HashMap<u32, (Instant, u32)>,
    /// Request bytes of each batch, while capturing.
    pub captured: Vec<Vec<u8>>,
    capture_left: usize,
}

/// Parses the response to `expect` at the front of `buf`.
fn parse(buf: &[u8], expect: &Expect, req: &[u8]) -> Result<(Parsed, usize), String> {
    let Some(eol) = buf.windows(2).position(|w| w == b"\r\n") else {
        if buf.len() > 1024 {
            return Err("response line longer than 1 KiB".into());
        }
        return Ok((Parsed::Incomplete, 0));
    };
    let line = &buf[..eol];
    if line.starts_with(b"SERVER_ERROR") || line.starts_with(b"CLIENT_ERROR") || line == b"ERROR" {
        return Ok((Parsed::Refused, eol + 2));
    }
    if !expect.read {
        return match line {
            b"STORED" => Ok((Parsed::Stored, eol + 2)),
            _ => Err(format!("SET answered {:?}", String::from_utf8_lossy(line))),
        };
    }
    if line == b"END" {
        return Ok((Parsed::Miss, eol + 2));
    }
    let key = expect.key(req);
    let mut parts = line.split(|&b| b == b' ');
    let ok =
        parts.next() == Some(b"VALUE") && parts.next() == Some(key) && parts.next() == Some(b"0");
    let len = parts
        .next()
        .and_then(|n| std::str::from_utf8(n).ok())
        .and_then(|n| n.parse::<usize>().ok());
    let (true, Some(len), None) = (ok, len, parts.next()) else {
        return Err(format!(
            "GET {:?} answered {:?}",
            String::from_utf8_lossy(key),
            String::from_utf8_lossy(line)
        ));
    };
    let at = eol + 2;
    let total = at + len + b"\r\nEND\r\n".len();
    if buf.len() < total {
        return Ok((Parsed::Incomplete, 0));
    }
    if &buf[at + len..total] != b"\r\nEND\r\n" {
        return Err("value not followed by END".into());
    }
    Ok((Parsed::Hit { at, len }, total))
}

impl Conn {
    /// Connects to the server as ring node `node`.
    pub fn connect(addr: SocketAddr, node: u64) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            node,
            req: Vec::with_capacity(64 * 1024),
            resp: Vec::with_capacity(64 * 1024),
            chunk: vec![0; 256 * 1024],
            key: Vec::with_capacity(48),
            expect: Vec::new(),
            pending: Vec::new(),
            acked: HashMap::new(),
            captured: Vec::new(),
            capture_left: 0,
        })
    }

    /// Keeps a copy of every batch sent until `bytes` have been kept.
    pub fn capture(&mut self, bytes: usize) {
        self.capture_left = bytes;
    }

    /// Sends all of `stream` in batches of `ctx.depth`, closed loop.
    /// With `spans`, records the routing, the round trip and the checks
    /// of every batch.
    pub fn round(
        &mut self,
        ctx: &RoundCtx<'_>,
        stream: &ConnStream,
        mut spans: Option<&mut Spans>,
    ) -> Result<RoundOut, String> {
        let mut out = RoundOut {
            rtts_us: Vec::with_capacity(stream.ops.len() / ctx.depth + 1),
            ..RoundOut::default()
        };
        let spec = *ctx.keys.spec();
        let mut next = 0usize;
        while next < stream.ops.len() {
            let batch_start = Instant::now();
            let root = spans.as_deref_mut().map_or(0, Spans::open);

            // Owed look-aside SETs first, then stream requests to fill the
            // batch to its depth.
            self.req.clear();
            self.expect.clear();
            for (id, size) in self.pending.drain(..) {
                self.key.clear();
                ctx.keys.push(id, &mut self.key);
                self.expect.push(Expect {
                    read: false,
                    id,
                    size,
                    key_at: self.req.len() as u32 + 4,
                    key_len: self.key.len() as u8,
                });
                push_set(
                    &mut self.req,
                    &self.key,
                    ctx.values.pattern(&self.key, size as usize),
                );
            }
            let take = ctx.depth.saturating_sub(self.expect.len()).max(1);
            let end = (next + take).min(stream.ops.len());
            let base = self.req.len() as u32;
            let from = stream.ops[next].start;
            self.req
                .extend_from_slice(&stream.bytes[from as usize..stream.ops[end - 1].end as usize]);
            for r in &stream.ops[next..end] {
                self.expect.push(Expect {
                    read: r.op.read,
                    id: r.op.id,
                    size: r.op.size,
                    key_at: base + r.start - from + 4,
                    key_len: r.key_len,
                });
            }
            next = end;

            // Route every key through the ring, as a production client
            // does; a key the ring sends elsewhere is a failure.
            let t = Instant::now();
            let mut misrouted = 0u64;
            for e in &self.expect {
                misrouted += u64::from(ctx.ring.lookup(e.key(&self.req)) != Some(self.node));
            }
            out.tally.failed += misrouted;
            if let Some(s) = spans.as_deref_mut() {
                s.leaf("router.lookup", root, t, self.expect.len() as u64);
            }

            if self.capture_left > 0 {
                self.capture_left = self.capture_left.saturating_sub(self.req.len());
                self.captured.push(self.req.clone());
            }

            let t = Instant::now();
            self.stream
                .write_all(&self.req)
                .map_err(|e| format!("write: {e}"))?;
            self.resp.clear();
            let mut pos = 0usize;
            let mut done = 0usize;
            let mut hits = Vec::new();
            let mut stored_hot = Vec::new();
            while done < self.expect.len() {
                let (parsed, used) = parse(&self.resp[pos..], &self.expect[done], &self.req)?;
                match parsed {
                    Parsed::Incomplete => {
                        let n = self
                            .stream
                            .read(&mut self.chunk)
                            .map_err(|e| format!("read: {e}"))?;
                        if n == 0 {
                            return Err("server closed the connection mid-batch".into());
                        }
                        self.resp.extend_from_slice(&self.chunk[..n]);
                        continue;
                    }
                    Parsed::Miss => {
                        out.tally.gets += 1;
                        if ctx.look_aside {
                            let e = self.expect[done];
                            self.pending.push((e.id, e.size));
                        }
                    }
                    Parsed::Hit { at, len } => {
                        out.tally.gets += 1;
                        out.tally.hits += 1;
                        hits.push((done, pos + at, len));
                    }
                    Parsed::Stored => {
                        let e = self.expect[done];
                        if ctx.keys.is_hot(e.id) {
                            stored_hot.push((e.id, e.size));
                        }
                    }
                    Parsed::Refused => out.tally.failed += 1,
                }
                pos += used;
                done += 1;
            }
            let acked_at = Instant::now();
            let rtt_us = acked_at.duration_since(t).as_secs_f64() * 1e6;
            for (id, size) in stored_hot {
                self.acked.insert(id, (acked_at, size));
            }
            out.rtts_us.push(rtt_us);
            if let Some(s) = spans.as_deref_mut() {
                s.leaf("cache.server.round_trip", root, t, self.expect.len() as u64);
            }

            // Every hit must carry a value some client wrote for its key.
            let t = Instant::now();
            for (i, at, len) in hits {
                let key = self.expect[i].key(&self.req);
                if !ctx.values.check(&spec, key, &self.resp[at..at + len]) {
                    out.tally.failed += 1;
                }
            }
            out.tally.ops += self.expect.len() as u64;
            if let Some(s) = spans.as_deref_mut() {
                s.leaf("client.check", root, t, self.expect.len() as u64);
                s.close(
                    root,
                    "client.batch",
                    0,
                    batch_start,
                    self.expect.len() as u64,
                );
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect(read: bool, req: &[u8]) -> Expect {
        Expect {
            read,
            id: 0,
            size: 2,
            key_at: 4,
            key_len: (req.len() - 6) as u8,
        }
    }

    #[test]
    fn parses_hits_misses_and_partial_responses() {
        let req = b"get k01\r\n";
        let e = expect(true, req);
        assert_eq!(parse(b"END\r\n", &e, req).unwrap(), (Parsed::Miss, 5));
        let hit = b"VALUE k01 0 2\r\nab\r\nEND\r\n";
        assert_eq!(
            parse(hit, &e, req).unwrap(),
            (Parsed::Hit { at: 15, len: 2 }, hit.len())
        );
        for cut in 0..hit.len() {
            assert_eq!(
                parse(&hit[..cut], &e, req).unwrap().0,
                Parsed::Incomplete,
                "cut {cut}"
            );
        }
        assert!(parse(b"VALUE k02 0 2\r\nab\r\nEND\r\n", &e, req).is_err());
        assert!(parse(b"VALUE k01 0 2\r\nabc\r\nEND\r\n", &e, req).is_err());
        let set = expect(false, req);
        assert_eq!(
            parse(b"STORED\r\n", &set, req).unwrap(),
            (Parsed::Stored, 8)
        );
        assert_eq!(
            parse(b"SERVER_ERROR object too large for cache\r\n", &set, req)
                .unwrap()
                .0,
            Parsed::Refused
        );
    }
}
