//! Seeded mutation test over the HTTP decoders of `greencloud_api::http`:
//! the request-head, status-line/response-head and chunk-size parsers,
//! plus the chunked-body walk the router relays through.
//!
//! Inputs are valid seeds mutated by a SplitMix64 stream (bit flips, byte
//! edits, token insertions, range deletions and duplications, truncation),
//! capped at the decoders' own input limits. Every input must end in `Ok`
//! or a typed `HttpError` — a panic (including an arithmetic overflow
//! under debug assertions) fails the test — and a counting allocator shows
//! that no single allocation grows past a small multiple of the input cap,
//! whatever size a hostile input declares.
//!
//! The binary holds this one test so the allocation peak it reads is its
//! own.

use greencloud_api::http::{
    parse_chunk_size, parse_request_head, parse_response_head, parse_status_line, Body, Framing,
    Reader, MAX_CHUNK_BYTES, MAX_HEADERS, MAX_HEAD_BYTES,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request.
struct PeakAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's own arguments;
// the only addition is an atomic maximum, which allocates nothing.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// SplitMix64: a seeded, dependency-free stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Fragments that steer mutations toward the decoders' edge cases.
const TOKENS: &[&[u8]] = &[
    b"\r\n",
    b"\r\n\r\n",
    b":",
    b" ",
    b";",
    b"\t",
    b"HTTP/1.1",
    b"HTTP/1.",
    b"ffffffffffffffff",
    b"10000000000000000",
    b"40000001",
    b"0",
    b"-1",
    b"chunked",
    b"content-length: 99999999999999999999",
    b"transfer-encoding: chunked",
    b"\xff\xfe",
    b"\xc3",
    b"\0",
    b"a: b\r\n",
];

fn mutate(rng: &mut SplitMix, seed: &[u8], cap: usize) -> Vec<u8> {
    let mut v = seed.to_vec();
    for _ in 0..1 + rng.below(8) {
        let at = rng.below(v.len() + 1);
        match rng.below(7) {
            0 if !v.is_empty() => {
                let i = rng.below(v.len());
                v[i] ^= 1 << rng.below(8);
            }
            1 if !v.is_empty() => {
                let i = rng.below(v.len());
                v[i] = rng.next() as u8;
            }
            2 => {
                let t = TOKENS[rng.below(TOKENS.len())];
                v.splice(at..at, t.iter().copied());
            }
            3 => {
                let end = (at + rng.below(16)).min(v.len());
                v.drain(at..end);
            }
            4 => {
                let end = (at + rng.below(64)).min(v.len());
                let piece = v[at..end].to_vec();
                v.splice(at..at, piece);
            }
            5 => v.truncate(at),
            _ => {
                // Many repeats of one token: header floods, long lines.
                let t = TOKENS[rng.below(TOKENS.len())];
                for _ in 0..rng.below(300) {
                    v.splice(at..at, t.iter().copied());
                }
            }
        }
        v.truncate(cap);
    }
    v
}

/// Tallies of how inputs ended, so a mutator stuck on one outcome shows.
#[derive(Default)]
struct Outcomes {
    ok: usize,
    err: usize,
}

impl Outcomes {
    fn record<T, E>(&mut self, r: &Result<T, E>) {
        if r.is_ok() {
            self.ok += 1;
        } else {
            self.err += 1;
        }
    }

    fn assert_mixed(&self, what: &str) {
        assert!(
            self.ok > 0 && self.err > 0,
            "{what}: {} ok / {} err — mutations never reach one side",
            self.ok,
            self.err
        );
    }
}

#[test]
fn http_decoders_end_in_ok_or_a_typed_error_within_their_caps() {
    const ROUNDS: usize = 20_000;
    let mut rng = SplitMix(0x5EED_2014_0701);
    LARGEST.store(0, Ordering::Relaxed);

    let request_seeds: [&[u8]; 2] = [
        b"POST /v1/experiments HTTP/1.1\r\nHost: t\r\nContent-Length: 12\r\nX-Progress: stream",
        b"GET /v1/readyz HTTP/1.1\r\nConnection: close",
    ];
    let mut outcomes = Outcomes::default();
    for _ in 0..ROUNDS {
        let seed = request_seeds[rng.below(request_seeds.len())];
        let input = mutate(&mut rng, seed, MAX_HEAD_BYTES + 64);
        let parsed = parse_request_head(&input);
        outcomes.record(&parsed);
        if let Ok(req) = parsed {
            assert!(!req.method.is_empty() && !req.path.is_empty());
            assert!(req.headers.len() <= MAX_HEADERS);
            assert!(req
                .headers
                .iter()
                .all(|(k, _)| *k == k.to_ascii_lowercase()));
            assert!(req.body.is_empty());
        }
    }
    outcomes.assert_mixed("parse_request_head");

    let response_seeds: [&[u8]; 2] = [
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nX-Cache: miss",
        b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\nContent-Length: 10",
    ];
    let mut outcomes = Outcomes::default();
    for _ in 0..ROUNDS {
        let seed = response_seeds[rng.below(response_seeds.len())];
        let input = mutate(&mut rng, seed, MAX_HEAD_BYTES + 64);
        let line = input.split(|&b| b == b'\r').next().unwrap_or_default();
        let _ = parse_status_line(line);
        let parsed = parse_response_head(&input);
        outcomes.record(&parsed);
        if let Ok(head) = parsed {
            assert!(head.headers.len() <= MAX_HEADERS);
            let _ = head.framing();
        }
    }
    outcomes.assert_mixed("parse_response_head");

    let chunk_seeds: [&[u8]; 3] = [b"1a", b"0;ext=1", b"FFFF"];
    let mut outcomes = Outcomes::default();
    for _ in 0..ROUNDS {
        let seed = chunk_seeds[rng.below(chunk_seeds.len())];
        let input = mutate(&mut rng, seed, 256);
        let parsed = parse_chunk_size(&input);
        outcomes.record(&parsed);
        if let Ok(size) = parsed {
            assert!(size <= MAX_CHUNK_BYTES);
        }
    }
    outcomes.assert_mixed("parse_chunk_size");

    // The relay's walk: whatever it forwards is a verbatim prefix of what
    // the backend sent.
    let body_seed: &[u8] = b"5\r\nhello\r\n3;x=y\r\nabc\r\n0\r\n\r\n";
    let mut outcomes = Outcomes::default();
    for _ in 0..ROUNDS {
        let input = mutate(&mut rng, body_seed, MAX_HEAD_BYTES);
        let mut forwarded = Vec::with_capacity(input.len());
        let walked = Reader::new(input.as_slice()).read_body(Framing::Chunked, |piece| {
            if let Body::Framing(b) | Body::Data(b) = piece {
                forwarded.extend_from_slice(b);
            }
            Ok(())
        });
        outcomes.record(&walked);
        assert_eq!(forwarded.as_slice(), &input[..forwarded.len()]);
    }
    outcomes.assert_mixed("chunked body walk");

    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= 4 * MAX_HEAD_BYTES,
        "an allocation of {largest} bytes exceeds 4x the {MAX_HEAD_BYTES}-byte input cap"
    );
}
