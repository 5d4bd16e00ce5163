//! Property tests for the wire layer: the query language's canonical
//! print form must re-parse to an equal statement for *arbitrary*
//! statements (exact f64 round-tripping included), the frame codec must
//! reassemble arbitrary pipelines under arbitrary chunking, and arbitrary
//! garbage bytes must decode and parse into typed errors, never a panic.

use proptest::collection::vec;
use proptest::prelude::*;
use segidx_server::frame::{encode_request, encode_response, FrameDecoder, FrameError, Mode};
use segidx_server::parser::{parse, Statement};

/// Finite, non-NaN coordinates across the full exponent range so the
/// shortest-round-trip printing (`{:?}`) is genuinely exercised.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e9..1e9f64,
        -1.0..1.0f64,
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE),
        any::<i32>().prop_map(|v| v as f64 * 1e-6),
    ]
}

/// Any statement of the language, over 1–4 dimensional points (the
/// grammar is dimension-agnostic; arity is checked at execution). Two
/// coordinate pools are drawn at maximum width and truncated to the
/// drawn dimensionality, which sidesteps the need for a dependent
/// (`flat_map`) strategy.
fn statement() -> impl Strategy<Value = Statement> {
    (
        0usize..12,         // which statement form
        1usize..5,          // dimensionality of the points
        vec(coord(), 4..5), // low corner / point pool
        vec(coord(), 4..5), // high corner pool
        any::<u64>(),       // record id / temporal key
        0usize..1000,       // NEAREST's K
    )
        .prop_map(|(form, dims, a, b, id, k)| {
            let lo: Vec<f64> = a[..dims].to_vec();
            let hi: Vec<f64> = b[..dims].to_vec();
            match form {
                0 => Statement::Insert { lo, hi, id },
                1 => Statement::Delete { id, lo, hi },
                2 => Statement::Search { lo, hi },
                3 => Statement::Stab { point: lo },
                4 => Statement::Nearest { point: lo, k },
                5 => Statement::Record {
                    key: id,
                    value: a[0],
                    at: b[0],
                },
                6 => Statement::AsOf { t: a[0] },
                7 => Statement::Within {
                    t1: a[0],
                    t2: a[1],
                    lo: b[0],
                    hi: b[1],
                },
                8 => Statement::Flush,
                9 => Statement::Ping,
                10 => Statement::Stats,
                _ => Statement::Metrics,
            }
        })
}

/// Printable-ASCII payload text (frames carry arbitrary statement text;
/// the codec never inspects it beyond the line terminator).
fn text(max_len: usize) -> impl Strategy<Value = String> {
    vec(0x20u8..0x7f, 1..max_len).prop_map(|bytes| String::from_utf8(bytes).unwrap())
}

/// Fragments of the query language, so garbage also reaches the parser's
/// deeper states instead of failing on the first byte.
const TOKENS: &[&str] = &[
    "INSERT", "DELETE", "SEARCH", "STAB", "NEAREST", "RECORD", "AS", "OF", "WITHIN", "RECT",
    "WINDOW", "POINT", "ID", "K", "VALUE", "AT", "DURATION", "FLUSH", "PING", "STATS", "METRICS",
    "(", ")", ",", ";", " ", "-", "+", ".", "e", "0", "-0.0", "1e308", "1e999", "-1e999", "NaN",
    "inf", "\t", "\r", "\r\n", "é", "\u{fffd}",
];

/// One slice of a garbage stream: raw bytes, printable noise, a language
/// fragment, an integer (some past `u64::MAX`), a line break, or a binary
/// length prefix (small enough to be satisfiable by the bytes that follow).
fn garbage_piece() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        4 => vec(any::<u8>(), 1..24),
        3 => vec(0x20u8..0x7f, 1..24),
        4 => (0usize..TOKENS.len()).prop_map(|i| TOKENS[i].as_bytes().to_vec()),
        1 => (any::<u64>(), 0u8..10)
            .prop_map(|(n, digit)| format!("{n}{digit}").into_bytes()),
        1 => Just(b"\n".to_vec()),
        1 => (0u32..128).prop_map(|n| n.to_be_bytes().to_vec()),
    ]
}

/// Decodes `wire` fed `chunk` bytes at a time, as the server's reader
/// would: every frame up to the first error, then the error's kind (the
/// server answers it and drops the connection). Each frame's text goes
/// through the parser, which must return, not panic.
fn decode_garbage(wire: &[u8], chunk: usize, max_frame: usize) -> Vec<Result<Decoded, String>> {
    let mut dec = FrameDecoder::with_max_frame(max_frame);
    let mut out = Vec::new();
    for piece in wire.chunks(chunk) {
        dec.feed(piece);
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => {
                    let parsed = parse(&frame.text).map_err(|e| e.to_string());
                    if let Err(msg) = &parsed {
                        assert!(!msg.is_empty(), "parse errors carry a message");
                    }
                    out.push(Ok((frame.mode, frame.text, parsed.is_ok())));
                }
                Ok(None) => break,
                Err(e) => {
                    let kind = match e {
                        FrameError::TooLarge { .. } => "too-large",
                        FrameError::Empty => "empty",
                        FrameError::InvalidUtf8 => "invalid-utf8",
                    };
                    out.push(Err(kind.to_string()));
                    return out;
                }
            }
        }
    }
    out
}

/// A decoded frame as the garbage check compares it: mode, text, and
/// whether it parsed.
type Decoded = (Mode, String, bool);

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// Arbitrary bytes, in arbitrary chunkings, through the decoder and
    /// the parser: every outcome is a frame or a typed error, and the
    /// outcome does not depend on how the transport split the bytes.
    #[test]
    fn garbage_bytes_get_typed_errors_in_any_chunking(
        pieces in vec(garbage_piece(), 1..32),
        chunk in 1usize..33,
        max_frame in 1usize..96,
    ) {
        let wire = pieces.concat();
        let whole = decode_garbage(&wire, wire.len(), max_frame);
        let chunked = decode_garbage(&wire, chunk, max_frame);
        prop_assert_eq!(chunked, whole);
        // Garbage straight into the parser, bypassing the frame layer.
        let _ = parse(&String::from_utf8_lossy(&wire));
    }
}

proptest! {
    /// Display prints a canonical form that parses back to an equal
    /// statement — including every f64 bit pattern the strategy produces
    /// (`{:?}` prints the shortest exactly-round-tripping decimal).
    #[test]
    fn print_then_parse_round_trips(stmt in statement()) {
        let printed = stmt.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("`{printed}` failed to re-parse: {e}"));
        prop_assert_eq!(reparsed, stmt, "via `{}`", printed);
    }

    /// A pipeline of binary frames survives any chunking of the byte
    /// stream: the decoder yields exactly the texts encoded, in order,
    /// regardless of where the transport split the bytes.
    #[test]
    fn frame_pipeline_survives_arbitrary_chunking(
        texts in vec(text(65), 1..20),
        chunk in 1usize..17,
    ) {
        let mut wire = Vec::new();
        for t in &texts {
            encode_request(t, &mut wire);
        }
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            dec.feed(piece);
            while let Some(f) = dec.next_frame().unwrap() {
                prop_assert_eq!(f.mode, Mode::Binary);
                decoded.push(f.text);
            }
        }
        prop_assert_eq!(decoded, texts);
    }

    /// Response encoding in a frame's own mode decodes back to the
    /// payload (modulo line mode's documented newline flattening).
    #[test]
    fn response_encoding_round_trips(payload in text(129)) {
        for mode in [Mode::Binary, Mode::Line] {
            let mut wire = Vec::new();
            encode_response(mode, &payload, &mut wire);
            let mut dec = FrameDecoder::new();
            dec.feed(&wire);
            let f = dec.next_frame().unwrap().unwrap();
            prop_assert_eq!(&f.text, &payload);
        }
    }
}
