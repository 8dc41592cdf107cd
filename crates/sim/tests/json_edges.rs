//! Edge cases of the hand-rolled JSON machinery that the `hmp-server`
//! wire protocol exercises: escape handling, nesting depth, number
//! formats, and strict whole-document consumption. The canonical
//! serialize → parse → re-serialize fixed point for run *specs* lives in
//! `hmp_workloads::codec`; here we pin the parser the codec builds on.

use hmp_sim::export::{json_escape, parse_json, validate_json, JsonValue};

#[test]
fn escaped_strings_roundtrip() {
    let cases = [
        ("plain", "plain"),
        ("tab\there", "tab\\there"),
        ("new\nline", "new\\nline"),
        ("quote\"backslash\\", "quote\\\"backslash\\\\"),
        ("ctrl\u{1}char", "ctrl\\u0001char"),
        ("naïve-日本語", "naïve-日本語"),
    ];
    for (raw, escaped) in cases {
        assert_eq!(json_escape(raw), escaped, "escape of {raw:?}");
        let doc = format!("\"{escaped}\"");
        match parse_json(&doc).unwrap_or_else(|e| panic!("{doc}: {e}")) {
            JsonValue::Str(s) => assert_eq!(s, raw, "roundtrip of {raw:?}"),
            other => panic!("{doc} parsed to {other:?}"),
        }
    }
}

#[test]
fn unicode_escapes_decode() {
    let doc = r#""Aé☃ \/ \b\f\r""#;
    match parse_json(doc).unwrap() {
        JsonValue::Str(s) => assert_eq!(s, "Aé☃ / \u{8}\u{c}\r"),
        other => panic!("parsed to {other:?}"),
    }
    // Lone surrogates are tolerated as the replacement character, not a
    // parse failure (the workspace never emits them).
    match parse_json(r#""\ud800""#).unwrap() {
        JsonValue::Str(s) => assert_eq!(s, "\u{fffd}"),
        other => panic!("parsed to {other:?}"),
    }
}

#[test]
fn bad_escapes_are_rejected() {
    for doc in [
        r#""\q""#,
        r#""\u12""#,
        r#""\u12zz""#,
        r#""unterminated"#,
        "\"\\",
    ] {
        assert!(parse_json(doc).is_err(), "{doc} should not parse");
        assert!(validate_json(doc).is_err(), "{doc} should not validate");
    }
}

#[test]
fn nesting_is_accepted_to_the_cap_and_rejected_past_it() {
    // Depth 256 is the documented cap: [[[...]]] with 256 brackets parses.
    let ok = format!("{}{}", "[".repeat(256), "]".repeat(256));
    assert!(parse_json(&ok).is_ok(), "depth 256 must parse");
    assert!(validate_json(&ok).is_ok(), "depth 256 must validate");

    let too_deep = format!("{}{}", "[".repeat(257), "]".repeat(257));
    let err = parse_json(&too_deep).expect_err("depth 257 must fail");
    assert!(err.contains("nesting too deep"), "{err}");
    assert!(validate_json(&too_deep).is_err());

    // Mixed object/array nesting counts the same way; the innermost
    // scalar occupies a value frame of its own (127·2 + 1 = 255 ≤ 256).
    let mixed_ok = format!(r#"{}1{}"#, r#"{"k":["#.repeat(127), "]}".repeat(127));
    assert!(parse_json(&mixed_ok).is_ok(), "mixed depth 255 must parse");
}

#[test]
fn exponent_and_negative_numbers_parse() {
    let doc = r#"[0, -0, -13, 3.5, -2.25, 1e3, 1E3, 2.5e-2, -1.5E+2, 1e0]"#;
    let JsonValue::Arr(items) = parse_json(doc).unwrap() else {
        panic!("not an array");
    };
    let want = [
        0.0, -0.0, -13.0, 3.5, -2.25, 1000.0, 1000.0, 0.025, -150.0, 1.0,
    ];
    assert_eq!(items.len(), want.len());
    for (item, want) in items.iter().zip(want) {
        assert_eq!(item.as_f64(), Some(want));
    }
}

#[test]
fn malformed_numbers_are_rejected() {
    for doc in ["-", "1e", "--1", "1.2.3", "+1", "0x10"] {
        assert!(parse_json(doc).is_err(), "{doc} should not parse");
        assert!(validate_json(doc).is_err(), "{doc} should not validate");
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    for doc in [
        "{} extra",
        "[1,2] [3]",
        "1 2",
        "true false",
        r#""a" "b""#,
        "{\"a\":1}x",
        "nullnull",
    ] {
        let err = parse_json(doc).expect_err(doc);
        assert!(err.contains("trailing garbage"), "{doc}: {err}");
        assert!(validate_json(doc).is_err(), "{doc} should not validate");
    }
    // ...but trailing whitespace (including the newline that delimits
    // wire-protocol frames) is fine.
    for doc in ["{} \n", "[1]\t", "42\n"] {
        assert!(parse_json(doc).is_ok(), "{doc} should parse");
    }
}

#[test]
fn structural_errors_are_rejected() {
    for doc in [
        "",
        "   ",
        "{",
        "}",
        "[1,",
        "[1,]2",
        r#"{"a"}"#,
        r#"{"a":}"#,
        r#"{"a":1,}"#,
        r#"{a:1}"#,
        "[,]",
        "tru",
    ] {
        assert!(parse_json(doc).is_err(), "{doc:?} should not parse");
    }
}

#[test]
fn reserialized_values_reparse_identically() {
    // parse → render → parse is a fixed point at the value level: the
    // property the server relies on when it canonicalizes client specs.
    let doc = r#"{"b":[1,2.5,-3e2],"a":{"nested":"va\"l\\ue","t":true,"n":null},"s":"☃"}"#;
    let once = parse_json(doc).unwrap();
    let rendered = render(&once);
    let twice = parse_json(&rendered).unwrap();
    assert_eq!(render(&twice), rendered, "render must be a fixed point");
}

/// A minimal canonical renderer (object key order preserved) used to pin
/// the parse → render fixed point.
fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        JsonValue::Str(s) => format!("\"{}\"", json_escape(s)),
        JsonValue::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", inner.join(","))
        }
        JsonValue::Obj(members) => {
            let inner: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", json_escape(k), render(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}
