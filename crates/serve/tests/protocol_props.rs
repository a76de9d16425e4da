//! Property tests for the `locapd` wire protocol: **no byte sequence
//! panics the parser**. Arbitrary byte soup, adversarial near-JSON, and
//! randomly truncated valid requests must all come back as either a
//! parsed request or a *typed* protocol error — and the framing layer
//! must never panic or lose data around them.

use locap_core::request::PIPELINES;
use locap_obs::json::Json;
use locap_serve::protocol::{
    err_response, ok_response, parse_request, splice_result, Frame, FrameError, FrameReader,
    ProtocolError, Request,
};
use proptest::prelude::*;

/// Every error kind the parser may produce, per the protocol doc.
const TYPED_KINDS: &[&str] = &[
    "protocol/bad_json",
    "protocol/not_an_object",
    "protocol/missing_id",
    "protocol/bad_id",
    "protocol/missing_pipeline",
    "protocol/unknown_op",
    "protocol/bad_budget",
    "request/unknown_pipeline",
    "request/missing_param",
    "request/bad_param",
];

fn assert_typed(e: &ProtocolError) -> Result<(), TestCaseError> {
    let kind = e.kind();
    prop_assert!(TYPED_KINDS.contains(&kind.as_str()), "undocumented error kind {kind:?} for {e}");
    // The error must render and build a well-formed single-line response.
    let resp = err_response(&Json::Null, &kind, &e.to_string());
    let line = resp.to_string();
    prop_assert!(!line.contains('\n'), "response must stay one line: {line}");
    let echoed = Json::parse(&line).map_err(|err| {
        TestCaseError::fail(format!("response does not re-parse ({err}): {line}"))
    })?;
    prop_assert_eq!(
        echoed.get("error").and_then(|er| er.get("kind")).and_then(Json::as_str),
        Some(kind.as_str())
    );
    Ok(())
}

/// Tokens that assemble into *almost*-valid requests: every structural
/// character, the real field names, and values of the wrong type.
const NEAR_JSON: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "null",
    "true",
    "7",
    "-0.5",
    "1e309",
    "\"id\"",
    "\"pipeline\"",
    "\"params\"",
    "\"budget\"",
    "\"op\"",
    "\"census\"",
    "\"eds-lower\"",
    "\"deadline_ms\"",
    "\"n\"",
    "\"ping\"",
    "\u{1}",
    "é",
    "𝛿",
];

/// Characters of generated ids, keys and strings: every escape the
/// encoder writes, a control character and multi-byte code points.
const STRING_POOL: &[char] = &['a', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', '/', 'µ', '𝛿'];

fn random_string(rng: &mut TestRng) -> String {
    let n = rng.next_u64() % 8;
    (0..n)
        .map(|_| STRING_POOL[rng.next_u64() as usize % STRING_POOL.len()])
        .collect()
}

/// Any finite `f64`: integers, fractions and extremes alike.
fn random_number(rng: &mut TestRng) -> f64 {
    match rng.next_u64() % 3 {
        0 => (rng.next_u64() >> 11) as f64,
        1 => (rng.next_u64() % 1000) as f64 / 7.0 - 50.0,
        _ => Some(f64::from_bits(rng.next_u64())).filter(|x| x.is_finite()).unwrap_or(0.5),
    }
}

fn random_scalar(rng: &mut TestRng) -> Json {
    match rng.next_u64() % 4 {
        0 => Json::Num(random_number(rng)),
        1 => Json::Str(random_string(rng)),
        2 => Json::Bool(rng.next_u64() % 2 == 0),
        _ => Json::Null,
    }
}

fn random_json(rng: &mut TestRng, depth: usize) -> Json {
    match (depth, rng.next_u64() % 3) {
        (0, _) | (_, 0) => random_scalar(rng),
        (_, 1) => Json::Arr((0..rng.next_u64() % 4).map(|_| random_json(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.next_u64() % 4)
                .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    /// A result spliced into an `ok` line as its encoded text gives the
    /// bytes of the line `ok_response` encodes with the document itself,
    /// also when fields follow the result.
    #[test]
    fn spliced_ok_lines_match_the_encoded_response(
        params in (any::<u64>(), 0usize..4, any::<u64>(), 0usize..PIPELINES.len()),
    ) {
        let (seed, depth, elapsed_ms, pipeline) = params;
        let mut rng = TestRng::from_name(&format!("splice-{seed}-{depth}"));
        let id = random_scalar(&mut rng);
        let result = random_json(&mut rng, depth);
        let pipeline = PIPELINES[pipeline];

        let mut spliced = ok_response(&id, pipeline, elapsed_ms, Json::Null);
        let mut encoded = ok_response(&id, pipeline, elapsed_ms, result.clone());
        prop_assert_eq!(splice_result(&spliced, &result.to_string()), format!("{encoded}\n"));

        let trailer = ("artifact_error".to_string(), Json::Str(random_string(&mut rng)));
        for doc in [&mut spliced, &mut encoded] {
            if let Json::Obj(fields) = doc {
                fields.push(trailer.clone());
            }
        }
        prop_assert_eq!(splice_result(&spliced, &result.to_string()), format!("{encoded}\n"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_soup_never_panics_the_parser(bytes in prop::collection::vec(any::<u8>(), 0usize..256)) {
        match parse_request(&bytes) {
            Ok(_) => {}
            Err(e) => assert_typed(&e)?,
        }
    }

    #[test]
    fn near_json_never_panics_the_parser(
        picks in prop::collection::vec(0usize..NEAR_JSON.len(), 0usize..24),
    ) {
        let frame: String = picks.iter().map(|&i| NEAR_JSON[i]).collect();
        match parse_request(frame.as_bytes()) {
            Ok(_) => {}
            Err(e) => assert_typed(&e)?,
        }
    }

    /// Any prefix of a valid request is still answered in kind: either
    /// it happens to parse, or it yields a typed error.
    #[test]
    fn truncated_valid_requests_stay_typed(cut in 0usize..98) {
        let valid =
            r#"{"id":7,"pipeline":"census","params":{"family":"directed-cycle","n":12},"budget":{"max_rounds":3}}"#;
        let cut = cut.min(valid.len());
        match parse_request(&valid.as_bytes()[..cut]) {
            Ok(_) => prop_assert_eq!(cut, valid.len(), "only the full frame may parse"),
            Err(e) => assert_typed(&e)?,
        }
    }

    /// The framing layer never panics, terminates on every input, and
    /// partitions the stream: every returned line is newline-free and
    /// within the cap.
    #[test]
    fn framing_terminates_and_respects_the_cap(
        bytes in prop::collection::vec(any::<u8>(), 0usize..512),
        cap in 1usize..64,
    ) {
        let mut reader = FrameReader::new(std::io::Cursor::new(bytes.clone()), cap);
        let mut yielded = 0usize;
        loop {
            match reader.next_frame() {
                Ok(Frame::Line(line)) => {
                    prop_assert!(line.len() <= cap, "line of {} bytes beat the {cap} cap", line.len());
                    prop_assert!(!line.contains(&b'\n'));
                    yielded += line.len() + 1;
                }
                Ok(Frame::Eof) => break,
                Err(FrameError::TooLarge { limit }) => prop_assert_eq!(limit, cap),
                Err(FrameError::Unterminated) => break,
                Err(FrameError::Idle) => {
                    return Err(TestCaseError::fail("cursor reads cannot time out"));
                }
                Err(FrameError::Io(e)) => {
                    return Err(TestCaseError::fail(format!("cursor reads cannot fail: {e}")));
                }
            }
            prop_assert!(yielded <= bytes.len() + 1, "framing yielded more bytes than it read");
        }
    }

    /// A full valid request surrounded by garbage frames still parses
    /// once framing has resynchronised.
    #[test]
    fn valid_frame_after_garbage_still_parses(
        garbage in prop::collection::vec(any::<u8>(), 0usize..128),
    ) {
        let valid = br#"{"op":"ping","id":1}"#;
        let mut stream: Vec<u8> = garbage.iter().copied().filter(|&b| b != b'\n').collect();
        stream.push(b'\n');
        stream.extend_from_slice(valid);
        stream.push(b'\n');
        let mut reader = FrameReader::new(std::io::Cursor::new(stream), 4096);
        // first frame: the garbage line (possibly empty) — any typed outcome
        match reader.next_frame() {
            Ok(Frame::Line(_)) | Err(FrameError::TooLarge { .. }) => {}
            other => return Err(TestCaseError::fail(format!("unexpected framing outcome: {other:?}"))),
        }
        let frame = match reader.next_frame() {
            Ok(Frame::Line(line)) => line,
            other => return Err(TestCaseError::fail(format!("lost the valid frame: {other:?}"))),
        };
        match parse_request(&frame) {
            Ok(Request::Ping { id }) => prop_assert_eq!(id, Json::Num(1.0)),
            other => return Err(TestCaseError::fail(format!("ping did not survive: {other:?}"))),
        }
    }
}
