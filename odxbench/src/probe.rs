//! Fixed probes of the host's current speed, by which timings are scaled
//! to a reference host.
//!
//! The reference host is a shared VM whose per-core speed moves by tens of
//! percent for minutes at a time, so two sets of runs of the same code can
//! differ by more than any bound. The probe does, on one thread, the two
//! kinds of work a week spends its time on: formatting numbers into a
//! byte buffer, as the TSV export does, and popping and pushing timed
//! events on a binary heap while updating a hash map, as the replay does.
//! A second probe, for the odr-decide closed loop, makes loopback TCP
//! exchanges. Both are the benchmark's own code, run while the program is
//! idle, so a change to the program cannot move them.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::Write as _;
use std::time::Instant;

/// [`host_probe_s`] on the reference host in a quiet phase. A week's
/// times are multiplied by `REFERENCE_PROBE_S / probe` to read as on that
/// host. The constant fixes the units of the week metrics: results taken
/// with another value, or another probe, are not comparable.
pub const REFERENCE_PROBE_S: f64 = 0.05;

/// Lines the formatting half writes.
const LINES: u64 = 120_000;
/// Events the heap half handles.
const EVENTS: u64 = 200_000;

/// Seconds one fixed pass takes now.
pub fn host_probe_s() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut out = Vec::with_capacity(1 << 22);
    for _ in 0..LINES {
        let a = next();
        let _ = writeln!(
            out,
            "{}\t{}\t{:?}\t{}",
            a % 100_000,
            a >> 40,
            (a % 1_000_000) as f64 / 7.0,
            a & 0xffff
        );
    }
    let mut heap: BinaryHeap<Reverse<u64>> =
        (0..20_000).map(|_| Reverse(next() % 1_000_000)).collect();
    let mut state: HashMap<u32, u64> = HashMap::new();
    let mut now = 0;
    for _ in 0..EVENTS {
        let Reverse(at) = heap.pop().expect("the heap never empties");
        now = now.max(at);
        let r = next();
        *state.entry((r % 60_000) as u32).or_insert(0) += at;
        heap.push(Reverse(now + r % 100_000));
    }
    std::hint::black_box((&out, &state, &heap));
    start.elapsed().as_secs_f64()
}

/// [`loopback_probe_s`] on the reference host in a quiet phase. Like
/// [`REFERENCE_PROBE_S`], it fixes the units of the odr-decide loop
/// metrics.
pub const REFERENCE_LOOPBACK_S: f64 = 0.04;

/// Round trips the loopback probe makes.
const ROUND_TRIPS: u32 = 600;

/// Seconds a fixed number of loopback TCP exchanges take now, each on a
/// fresh connection as an ODR client makes them: one thread connects,
/// writes 200 bytes and reads the answer to its end; another accepts,
/// reads the 200 bytes, writes 200 back and shuts the connection down.
/// This is the kernel work the odr-decide closed loop spends most of its
/// time on, without any of the program's code.
pub fn loopback_probe_s() -> f64 {
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound address");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut buf = [0u8; 200];
            for _ in 0..ROUND_TRIPS {
                let (mut c, _) = listener.accept().expect("accept");
                c.read_exact(&mut buf).expect("read");
                c.write_all(&buf).expect("write");
                let _ = c.shutdown(Shutdown::Both);
            }
        });
        let start = Instant::now();
        let mut answer = Vec::with_capacity(256);
        for _ in 0..ROUND_TRIPS {
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(&[7u8; 200]).expect("write");
            answer.clear();
            c.read_to_end(&mut answer).expect("read");
            assert_eq!(answer.len(), 200, "the whole answer");
        }
        start.elapsed().as_secs_f64()
    })
}
