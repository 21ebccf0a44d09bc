//! `parse_request` over arbitrary bytes at arbitrary split points — the
//! shape a streaming reader feeds it. It must never panic, never consume
//! more than it was given, and answer `Incomplete` only while the request
//! at the front has not fully arrived: every prefix of the input parses
//! either as `Incomplete` or exactly as the whole input does, so a reader
//! that retries on `Incomplete` sees the same requests however its reads
//! were split.

use proptest::prelude::*;
use spotcache_cache::protocol::{parse_request, Command, ParseError};

/// Protocol fragments and whole lines the generator splices together, so
/// inputs reach deep into every verb's arm instead of failing on the
/// first byte. The out-of-range numbers probe the byte-count, flag and
/// delta arithmetic.
const TOKENS: &[&[u8]] = &[
    b"set k 0 0 3\r\n",
    b"set k 1 0 18446744073709551615\r\n",
    b"add k 0 0 18446744073709551614\r\n",
    b"replace k 0 0 99999999999999999999\r\n",
    b"set k 4294967296 0 1 noreply\r\n",
    b"get k key1\r\n",
    b"incr k 18446744073709551616\r\n",
    b"delete k noreply\r\n",
    b"get ",
    b"gets ",
    b"set ",
    b"add ",
    b"replace ",
    b"delete ",
    b"incr ",
    b"decr ",
    b"trace ",
    b"stats",
    b"version",
    b"flush_all",
    b"k",
    b"key1 ",
    b"0 ",
    b"3 ",
    b"12",
    b"18446744073709551615",
    b"18446744073709551616",
    b"4294967296 ",
    b" noreply",
    b" ",
    b"\r\n",
    b"\r\n",
    b"\r",
    b"\n",
    b"abc",
];

fn build(parts: &[(u8, u8)]) -> Vec<u8> {
    let mut input = Vec::new();
    for &(sel, byte) in parts {
        match TOKENS.get(sel as usize) {
            Some(t) => input.extend_from_slice(t),
            None => input.push(byte),
        }
    }
    input
}

fn crlf(input: &[u8]) -> Option<usize> {
    input.windows(2).position(|w| w == b"\r\n")
}

/// One parse, owned so results from different buffers compare.
fn owned(input: &[u8]) -> Result<(Command, usize), ParseError> {
    parse_request(input).map(|(req, n)| (req.to_command(), n))
}

/// Splits `input` into the requests a one-shot reader would parse,
/// resynchronizing past bad lines the way the serving loop does.
fn one_shot(input: &[u8]) -> Vec<Result<Command, ParseError>> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < input.len() {
        match owned(&input[at..]) {
            Ok((cmd, n)) => {
                out.push(Ok(cmd));
                at += n;
            }
            Err(ParseError::Incomplete) => break,
            Err(e) => {
                out.push(Err(e));
                at += crlf(&input[at..]).expect("only a complete line can be malformed") + 2;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_prefix_is_incomplete_or_the_whole_parse(
        parts in proptest::collection::vec((0u8..48, any::<u8>()), 0..60),
    ) {
        let input = build(&parts);
        let mut at = 0;
        while at < input.len() {
            let rest = &input[at..];
            let whole = owned(rest);
            match &whole {
                Ok((_, n)) => prop_assert!(*n > 0 && *n <= rest.len(), "consumed {n} of {}", rest.len()),
                Err(ParseError::Incomplete) => {}
                Err(_) => prop_assert!(crlf(rest).is_some(), "an error needs a complete line"),
            }
            for cut in 0..rest.len() {
                let part = owned(&rest[..cut]);
                prop_assert!(
                    part == Err(ParseError::Incomplete) || part == whole,
                    "prefix {cut} of {:?} parsed as {part:?}, whole as {whole:?}",
                    String::from_utf8_lossy(rest)
                );
            }
            match whole {
                Ok((_, n)) => at += n,
                Err(ParseError::Incomplete) => {
                    // Nothing complete remains: either no line ends, or the
                    // line announces a data block that has not fully arrived.
                    if let Some(end) = crlf(rest) {
                        let mut words = rest[..end].split(|&b| b == b' ').filter(|w| !w.is_empty());
                        let verb = words.next();
                        prop_assert!(
                            matches!(verb, Some(b"set" | b"add" | b"replace")),
                            "complete {:?} line reported incomplete",
                            String::from_utf8_lossy(&rest[..end])
                        );
                    }
                    break;
                }
                Err(_) => at += crlf(rest).unwrap() + 2,
            }
        }
    }

    #[test]
    fn streaming_reads_parse_like_one_shot(
        parts in proptest::collection::vec((0u8..48, any::<u8>()), 0..60),
        cuts in proptest::collection::vec(0u32..1000, 0..8),
    ) {
        let input = build(&parts);
        let mut cuts: Vec<usize> = cuts
            .iter()
            .map(|&c| c as usize * input.len() / 1000)
            .chain([input.len()])
            .collect();
        cuts.sort_unstable();
        // A streaming reader: append each read to a buffer, parse what it
        // can, keep the unparsed tail for the next read.
        let mut buf: Vec<u8> = Vec::new();
        let mut seen = Vec::new();
        let mut prev = 0;
        for cut in cuts {
            buf.extend_from_slice(&input[prev..cut]);
            prev = cut;
            let mut at = 0;
            while at < buf.len() {
                match owned(&buf[at..]) {
                    Ok((cmd, n)) => {
                        prop_assert!(at + n <= buf.len());
                        seen.push(Ok(cmd));
                        at += n;
                    }
                    Err(ParseError::Incomplete) => break,
                    Err(e) => {
                        seen.push(Err(e));
                        at += crlf(&buf[at..]).unwrap() + 2;
                    }
                }
            }
            buf.drain(..at);
        }
        prop_assert_eq!(seen, one_shot(&input));
    }
}
