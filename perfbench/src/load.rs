//! The closed-loop TCP client: one thread per connection, each sending
//! its next request line only after the previous response line arrived.

use crate::proc::Result;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One request of a connection's op sequence.
#[derive(Clone, Debug)]
pub struct Op {
    /// The request line, newline included.
    pub line: String,
    pub expect: Expect,
}

/// What a correct response to an [`Op`] looks like.
#[derive(Clone, Debug)]
pub enum Expect {
    /// `geo-distance` answered between these snapped nodes.
    Geo { from: usize, to: usize },
    /// `batch` answered with one finite value per pair.
    Batch { pairs: Vec<(usize, usize)> },
    /// `update-weights` over these `(edge, weight)` pairs accepted.
    Update { pairs: Vec<(usize, f64)> },
}

impl Op {
    pub fn is_update(&self) -> bool {
        matches!(self.expect, Expect::Update { .. })
    }
}

/// How one op ended: its latency and response line, or `None` when it
/// failed on the wire or was never sent before the deadline.
pub struct Outcome {
    pub latency: Duration,
    pub response: Option<String>,
}

impl Outcome {
    /// The response, unless the op failed or was answered with an error.
    pub fn answer(&self) -> Option<&str> {
        self.response.as_deref().and_then(answer)
    }
}

/// A response line, unless it reports an error.
pub fn answer(response: &str) -> Option<&str> {
    (!response.starts_with("error ")).then_some(response)
}

/// One closed-loop phase: outcomes per connection in op order.
pub struct Phase {
    pub outcomes: Vec<Vec<Outcome>>,
    pub wall: Duration,
}

/// Connects to `addr` with Nagle off (every request is one small line).
pub fn connect(addr: &str) -> Result<TcpStream> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// One request/response round trip on a fresh connection.
pub fn round_trip(addr: &str, line: &str) -> Result<String> {
    let stream = connect(addr)?;
    let mut conn = Conn::new(stream)?;
    conn.call(line)
}

/// A line-framed connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn new(stream: TcpStream) -> Result<Conn> {
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Sends `line` (which must end in a newline) and returns the
    /// response line without its newline.
    pub fn call(&mut self, line: &str) -> Result<String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        self.read_line()
    }

    fn read_line(&mut self) -> Result<String> {
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => {
                response.pop();
                Ok(response)
            }
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Route requests pipelined on each already-open connection while the
/// next one connects: a route is a full search the server does not
/// cache, so it keeps those connections' workers busy without changing
/// what the workload later reads.
const PLACEMENT_ROUTES: usize = 16;
const PLACEMENT_TRIES: usize = 10;

/// Opens `n` connections, each placed while the earlier ones are busy,
/// so a server that pins connections to a worker pool spreads them
/// over distinct workers the way independent callers would find them.
/// A connection whose first round trip had to wait for the busy ones
/// shares their worker, and is reopened. Returns the connections and
/// whether every one ended up served in parallel.
pub fn open_spread(addr: &str, n: usize, route: &str, probe: &str) -> Result<(Vec<Conn>, bool)> {
    let mut conns = vec![Conn::new(connect(addr)?)?];
    let mut spread = true;
    while conns.len() < n {
        let mut placed = None;
        for _ in 0..PLACEMENT_TRIES {
            let start = Instant::now();
            let burst = route.repeat(PLACEMENT_ROUTES);
            for c in &mut conns {
                c.writer
                    .write_all(burst.as_bytes())
                    .map_err(|e| e.to_string())?;
            }
            let mut next = Conn::new(connect(addr)?)?;
            next.call(probe)?;
            let probed = start.elapsed();
            for c in &mut conns {
                for _ in 0..PLACEMENT_ROUTES {
                    c.read_line()?;
                }
            }
            if probed < start.elapsed() / 2 {
                placed = Some(next);
                break;
            }
        }
        spread &= placed.is_some();
        conns.push(match placed {
            Some(c) => c,
            None => Conn::new(connect(addr)?)?,
        });
    }
    Ok((conns, spread))
}

/// Runs every connection's op sequence concurrently, one connection
/// per entry of `plans`, all released by one barrier. Ops not sent by
/// `deadline` fail, so a badly slowed program still ends its run.
pub fn run_closed_loop(conns: Vec<Conn>, plans: &[Vec<Op>], deadline: Instant) -> Result<Phase> {
    let barrier = Barrier::new(plans.len() + 1);
    let (outcomes, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(plans)
            .map(|(mut conn, plan)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(plan.len());
                    let mut alive = true;
                    barrier.wait();
                    for op in plan {
                        if !alive || Instant::now() > deadline {
                            out.push(Outcome {
                                latency: Duration::ZERO,
                                response: None,
                            });
                            continue;
                        }
                        let start = Instant::now();
                        let response = conn.call(&op.line);
                        let latency = start.elapsed();
                        alive = response.is_ok();
                        out.push(Outcome {
                            latency,
                            response: response.ok(),
                        });
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let outcomes: Vec<Vec<Outcome>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outcomes, start.elapsed())
    });
    Ok(Phase { outcomes, wall })
}
