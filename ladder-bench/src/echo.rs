//! The loopback floor: a bare TCP echo with the connection count,
//! frame sizes and open-loop schedule of the served workloads. Its
//! latency is what the network stack alone costs a `Get`.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::hist::Hist;
use crate::kv::CONNS;

/// A `Get` request frame: length, id, opcode, key.
const REQ: usize = 4 + 8 + 1 + 8;
/// A `Get` reply frame carrying a value: length, id, status, opcode,
/// present flag, value.
const RESP: usize = 4 + 8 + 1 + 1 + 1 + 8;

fn serve_one(mut s: TcpStream) -> io::Result<()> {
    let mut req = [0u8; REQ];
    let mut resp = [0u8; RESP];
    resp[..4].copy_from_slice(&((RESP - 4) as u32).to_le_bytes());
    loop {
        match s.read_exact(&mut req) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        }
        resp[4..12].copy_from_slice(&req[4..12]);
        s.write_all(&resp)?;
    }
}

/// Offer `rate` requests per second for `secs` over `CONNS` pipelined
/// connections from one thread; latency from each request's due time.
pub fn floor(rate: f64, secs: f64) -> io::Result<Hist> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let mut conns = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..CONNS {
            let c = TcpStream::connect(addr)?;
            let (srv, _) = listener.accept()?;
            srv.set_nodelay(true)?;
            servers.push(s.spawn(move || serve_one(srv)));
            c.set_nodelay(true)?;
            c.set_nonblocking(true)?;
            conns.push(c);
        }
        let res = drive(&mut conns, rate, secs);
        drop(conns);
        for t in servers {
            t.join().expect("echo thread panicked")?;
        }
        res
    })
}

fn drive(conns: &mut [TcpStream], rate: f64, secs: f64) -> io::Result<Hist> {
    let mut hist = Hist::new();
    let epoch = Instant::now();
    let total = (rate * secs).round() as u64;
    let period = 1e9 / rate;
    let mut due: Vec<std::collections::VecDeque<u64>> =
        conns.iter().map(|_| Default::default()).collect();
    let mut partial = vec![0usize; conns.len()];
    let mut out: Vec<Vec<u8>> = conns.iter().map(|_| Vec::new()).collect();
    let mut buf = [0u8; 64 << 10];
    let mut sent = 0u64;
    let mut done = 0u64;
    let until = Instant::now() + Duration::from_secs_f64(secs + 10.0);
    while done < total {
        if Instant::now() > until {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "echo replies missing"));
        }
        let now = epoch.elapsed().as_nanos() as u64;
        let mut progressed = false;
        while sent < total && (sent as f64 * period) as u64 <= now {
            let c = (sent % CONNS) as usize;
            let mut frame = [0u8; REQ];
            frame[..4].copy_from_slice(&((REQ - 4) as u32).to_le_bytes());
            frame[4..12].copy_from_slice(&sent.to_le_bytes());
            out[c].extend_from_slice(&frame);
            due[c].push_back((sent as f64 * period) as u64);
            sent += 1;
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            while !out[c].is_empty() {
                match conn.write(&out[c]) {
                    Ok(n) => {
                        out[c].drain(..n);
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            match conn.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    progressed = true;
                    let frames = (partial[c] + n) / RESP;
                    partial[c] = (partial[c] + n) % RESP;
                    let t = epoch.elapsed().as_nanos() as u64;
                    for _ in 0..frames {
                        let d = due[c].pop_front().expect("a reply answers a sent request");
                        hist.record(t.saturating_sub(d));
                        done += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    Ok(hist)
}
