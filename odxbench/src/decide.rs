//! The odr-decide workload: the §6.1 ODR service live on loopback, driven
//! by a closed loop of clients that each wait for their verdict.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use odx::backend::Scenario;
use odx::odr::{OdrEngine, OdrRequest};
use odx::proto::api::DecideRequest;
use odx::proto::cookie::{percent_encode, CONTEXT_COOKIE};
use odx::proto::http::{HttpError, Method, Request, Response};
use odx::proto::{Json, OdrService, Server};
use odx::trace::PopularityClass;

use crate::digest::Digest;
use crate::spans::Spans;
use crate::stats::{median, percentile, sorted, supports};
use crate::week::{self, Setup};

/// Closed-loop clients, one per core of the reference 2-core host.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Distinct requests drawn from the §6.2 evaluation sample; the clients
/// cycle through them.
pub const REQUESTS: usize = 10_000;
/// Header carrying a request id to the server in traced phases.
const ID_HEADER: &str = "x-bench-id";

/// One request with the answer the in-process service gives it.
pub struct Prepared {
    /// The HTTP request as a client sends it.
    pub request: Request,
    /// The body `OdrService::handle` answers in process.
    pub expected: Vec<u8>,
    /// The engine-level request, for timing `OdrEngine::decide` alone.
    pub odr: OdrRequest,
}

/// The service with its directory loaded and the request set built.
pub struct DecideSetup {
    /// Study generation and its timings.
    pub setup: Setup,
    /// The loaded service.
    pub service: Arc<OdrService>,
    /// Requests with their expected answers.
    pub requests: Vec<Prepared>,
    /// `OdrService::load_catalog` wall (s).
    pub load_s: f64,
    /// Request build and in-process answer wall (s).
    pub build_s: f64,
    /// Digest over every request's expected answer.
    pub answers: String,
}

impl DecideSetup {
    /// Set-up wall (s): generation, directory load and request build.
    pub fn total_s(&self) -> f64 {
        self.setup.total_s() + self.load_s + self.build_s
    }
}

/// Generate the study, load the directory (cached ⇔ not Unpopular), and
/// build [`REQUESTS`] requests from `Study::eval_sample`: half carry the
/// user's context in the body, half in the §6.1 cookie. APs are assigned
/// round-robin over the scenario's fleet, as the §6.2 replay does.
pub fn setup(
    scenario: &Scenario,
    scale: f64,
    seed: u64,
    mut spans: Option<&mut Spans>,
) -> DecideSetup {
    let setup = week::generate(scenario, scale, seed, spans.as_deref_mut().map(|s| (s, 0)));
    let study = &setup.study;
    let t0 = Instant::now();
    let service = OdrService::new(OdrEngine::default());
    service.load_catalog(&study.catalog, |i| {
        study.catalog.file(i).class() != PopularityClass::Unpopular
    });
    let t1 = Instant::now();
    let mut answers = Digest::new();
    let requests: Vec<Prepared> = study
        .eval_sample(REQUESTS)
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let file = study.catalog.file(s.file_index);
            let decide = DecideRequest {
                link: file.source_link(),
                isp: s.isp,
                access_kbps: s.access_kbps,
                ap: Some(scenario.ap_fleet[i % scenario.ap_fleet.len()]),
            };
            let class = file.class();
            let odr =
                decide.resolve(class, class != PopularityClass::Unpopular).expect("valid link");
            let request = http_request(&decide, i % 2 == 1);
            let answer = service.handle(request.clone());
            answers.section(&answer.body);
            Prepared { request, expected: answer.body.to_vec(), odr }
        })
        .collect();
    let t2 = Instant::now();
    if let Some(spans) = spans {
        spans.record("odr.load_catalog", 0, 0, t0, t1);
        spans.record("odr.build_requests", 0, 0, t1, t2);
    }
    DecideSetup {
        setup,
        service,
        requests,
        load_s: (t1 - t0).as_secs_f64(),
        build_s: (t2 - t1).as_secs_f64(),
        answers: answers.hex(),
    }
}

/// A `POST /decide` as a client sends it. With `cookie`, the body holds
/// only the link and the context rides in the `odr_ctx` cookie.
fn http_request(decide: &DecideRequest, cookie: bool) -> Request {
    let mut headers = vec![
        ("host".to_owned(), "127.0.0.1".to_owned()),
        ("content-type".to_owned(), "application/json".to_owned()),
    ];
    let body = if cookie {
        let mut ctx = decide.to_json();
        if let Json::Obj(map) = &mut ctx {
            map.remove("link");
        }
        let value = percent_encode(&ctx.to_string_compact());
        headers.push(("cookie".to_owned(), format!("{CONTEXT_COOKIE}={value}")));
        Json::obj([("link", Json::Str(decide.link.clone()))]).to_string_compact()
    } else {
        decide.to_json().to_string_compact()
    };
    Request { method: Method::Post, target: "/decide".to_owned(), headers, body: body.into() }
}

/// Timings of one closed-loop phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Round trip per request, connect included (ns); a failed request
    /// reads `u32::MAX`.
    pub rtt_ns: Vec<u32>,
    /// Connect time per correct request (ns).
    pub connect_ns: Vec<u32>,
    /// Server-side `OdrService::handle` time per request (ns); traced
    /// phases only.
    pub handle_ns: Vec<u32>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose answer was not a 200 byte-equal to the in-process one.
    pub failed: u64,
    /// Phase wall (s).
    pub wall_s: f64,
}

impl Phase {
    /// Completed correct decisions per second over the whole phase.
    pub fn rps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }
}

/// Percentiles of the round trip taken per window: p50, p90 and p99.
pub const WINDOW_PERCENTILES: [f64; 3] = [50.0, 90.0, 99.0];

/// What a run keeps of one closed-loop window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowFigures {
    /// Round trip (ms) at each of [`WINDOW_PERCENTILES`], with whether the
    /// window's sample supports it with ten samples beyond.
    pub rtt_ms: [(f64, bool); 3],
    /// Correct decisions per second.
    pub rps: f64,
}

impl Phase {
    /// The window's figures; the phase must hold at least one request.
    pub fn figures(&self) -> WindowFigures {
        let ms = sorted(&self.rtt_ns.iter().map(|&ns| f64::from(ns) * 1e-6).collect::<Vec<_>>());
        WindowFigures {
            rtt_ms: WINDOW_PERCENTILES.map(|p| (percentile(&ms, p), supports(ms.len(), p))),
            rps: self.rps(),
        }
    }
}

/// Closed-loop figures over a run's windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowMedians {
    /// Median over the windows of each window's p50 round trip (ms).
    pub p50_ms: f64,
    /// The same for the p90.
    pub p90_ms: f64,
    /// The same for the p99.
    pub p99_ms: f64,
    /// Median over the windows of each window's correct decisions per
    /// second.
    pub rps: f64,
}

/// The median over `windows` of each window's round-trip percentiles
/// and decision rate, after multiplying the window's times by its entry
/// of `factors` and dividing its rate by it. A percentile's median is
/// taken over the windows that support it, or over all of them when
/// none does.
pub fn window_medians(windows: &[WindowFigures], factors: &[f64]) -> WindowMedians {
    assert_eq!(windows.len(), factors.len(), "one factor per window");
    let at = |i: usize| {
        let scaled = |supported_only: bool| -> Vec<f64> {
            windows
                .iter()
                .zip(factors)
                .filter(|(w, _)| w.rtt_ms[i].1 || !supported_only)
                .map(|(w, f)| w.rtt_ms[i].0 * f)
                .collect()
        };
        let supported = scaled(true);
        if supported.is_empty() {
            median(&scaled(false))
        } else {
            median(&supported)
        }
    };
    let rates: Vec<f64> = windows.iter().zip(factors).map(|(w, f)| w.rps / f).collect();
    WindowMedians { p50_ms: at(0), p90_ms: at(1), p99_ms: at(2), rps: median(&rates) }
}

/// Serve the requests for `duration` with [`CLIENTS`] closed-loop
/// clients. Plain phases run the service exactly as `OdrService::serve`
/// binds it; traced phases wrap `OdrService::handle` to time it and record
/// one span group per request (`next_id` numbers them).
pub fn run_phase(
    setup: &DecideSetup,
    duration: Duration,
    spans: Option<(&mut Spans, &mut u64)>,
) -> Phase {
    let handled: Arc<Mutex<Vec<(u64, Instant, Instant)>>> = Arc::default();
    let server = match &spans {
        None => setup.service.serve("127.0.0.1:0", WORKERS),
        Some(_) => {
            let service = Arc::clone(&setup.service);
            let handled = Arc::clone(&handled);
            Server::bind("127.0.0.1:0", WORKERS, move |req: Request| {
                let id = req.header(ID_HEADER).and_then(|v| v.parse().ok()).unwrap_or(0);
                let t0 = Instant::now();
                let resp = service.handle(req);
                let t1 = Instant::now();
                handled.lock().expect("handle log lock").push((id, t0, t1));
                resp
            })
        }
    }
    .expect("bind a loopback port");
    let addr = server.addr();
    let traced = spans.is_some();
    let first_id = spans.as_ref().map_or(0, |(_, next)| **next);
    let requests = &setup.requests;
    let start = Instant::now();
    let deadline = start + duration;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || client_loop(addr, requests, client, deadline, traced, first_id))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    server.shutdown();

    let mut phase = Phase { wall_s, ..Phase::default() };
    let mut timings = Vec::new();
    for log in logs {
        phase.attempted += log.attempted;
        phase.failed += log.failed;
        phase.rtt_ns.extend(log.rtt_ns);
        phase.connect_ns.extend(log.connect_ns);
        timings.extend(log.instants);
    }
    let handled = std::mem::take(&mut *handled.lock().expect("handle log lock"));
    phase.handle_ns = handled.iter().map(|(_, a, b)| ns32(*b - *a)).collect();
    if let Some((spans, next_id)) = spans {
        *next_id += phase.attempted + CLIENTS as u64;
        let mut roots = std::collections::HashMap::with_capacity(timings.len());
        for &(id, t0, t1, t2) in &timings {
            let root = spans.record("decide.request", 0, id, t0, t2);
            spans.record("proto.connect", root, id, t0, t1);
            roots.insert(id, root);
        }
        for (id, a, b) in handled {
            if let Some(&root) = roots.get(&id) {
                spans.record("proto.handle", root, id, a, b);
            }
        }
    }
    phase
}

/// What one client measured. Timings are kept as 32-bit nanoseconds so
/// that their memory stays small next to the study's, whatever the rate.
struct ClientLog {
    rtt_ns: Vec<u32>,
    connect_ns: Vec<u32>,
    /// (id, start, connected, answered) per completed request; traced only.
    instants: Vec<(u64, Instant, Instant, Instant)>,
    attempted: u64,
    failed: u64,
}

fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// One client: send, wait, check, repeat until `deadline`. Checks run
/// after the request's timing.
fn client_loop(
    addr: SocketAddr,
    requests: &[Prepared],
    client: usize,
    deadline: Instant,
    traced: bool,
    first_id: u64,
) -> ClientLog {
    let mut log = ClientLog {
        rtt_ns: Vec::new(),
        connect_ns: Vec::new(),
        instants: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut i = client;
    while Instant::now() < deadline {
        let prepared = &requests[i % requests.len()];
        let id = first_id + (i as u64) + 1;
        i += CLIENTS;
        let tagged;
        let request = if traced {
            let mut r = prepared.request.clone();
            r.headers.push((ID_HEADER.to_owned(), id.to_string()));
            tagged = r;
            &tagged
        } else {
            &prepared.request
        };
        log.attempted += 1;
        let t0 = Instant::now();
        let result = exchange(addr, request);
        let t2 = Instant::now();
        match result {
            Ok((t1, resp)) if resp.status == 200 && resp.body[..] == prepared.expected[..] => {
                log.rtt_ns.push(ns32(t2 - t0));
                log.connect_ns.push(ns32(t1 - t0));
                if traced {
                    log.instants.push((id, t0, t1, t2));
                }
            }
            // A failed request misses every latency limit: it enters the
            // latency sample at the largest value the log can hold.
            _ => {
                log.failed += 1;
                log.rtt_ns.push(u32::MAX);
            }
        }
    }
    log
}

/// Connect, send and read the answer, as `odx::proto::client` does;
/// returns the instant the connection was up and the response.
fn exchange(addr: SocketAddr, request: &Request) -> io::Result<(Instant, Response)> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    request.write_to(&stream)?;
    let resp = Response::read_from(&stream).map_err(|e| match e {
        HttpError::Io(io) => io,
        HttpError::Bad(m) => io::Error::new(io::ErrorKind::InvalidData, m),
    })?;
    Ok((connected, resp))
}

/// Mean wall of one in-process `OdrEngine::decide` over the request set
/// (µs), repeated until at least `min` has passed.
pub fn engine_decide_us(setup: &DecideSetup, min: Duration) -> f64 {
    let engine = OdrEngine::default();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < min {
        for p in &setup.requests {
            std::hint::black_box(engine.decide(std::hint::black_box(&p.odr)));
        }
        calls += setup.requests.len() as u64;
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}
