//! The `mbssl serve` line protocol (DESIGN.md §15).
//!
//! One request per line, whitespace-separated tokens:
//!
//! ```text
//! rec USER [N]               top-N request (N defaults to the server's --top)
//! event USER ITEM BEHAVIOR   append one event to USER's session
//! swap CKPT                  hot-swap the serving engine from a checkpoint
//! mark                       open the steady-state window
//! stats                      print server counters
//! metrics [json|prom] [PATH] write a metrics snapshot to PATH, or print it
//! quit                       drain and shut down
//! ```
//!
//! Blank lines and `#` comments carry no request. [`read_lines`] splits
//! the input into lines of at most [`MAX_LINE_BYTES`], so a line without
//! a newline is never buffered whole. [`parse_line`] is pure:
//! it turns one line into a [`Request`] or a typed [`ProtocolError`]
//! whose `Display` is the message the server reports as
//! `error: line N: …`, and never panics, whatever the input. Executing a
//! request (and batching consecutive `rec` lines into one concurrent
//! wave, [`Server::submit_all`](super::Server::submit_all)) is the
//! caller's job. [`write_recs`] prints a reply's ranked lines, shared by
//! `mbssl serve` and `mbssl recommend` so the two stay byte-identical.

use std::io::{BufRead, Read, Write};

use mbssl_data::{Behavior, ItemId, UserId};

use crate::recommender::Recommendation;

/// One parsed protocol line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// `rec USER [N]`: rank the top `n` (at least 1) for `user`.
    Rec {
        /// Requesting user.
        user: UserId,
        /// Reply length, clamped to at least 1.
        n: usize,
    },
    /// `event USER ITEM BEHAVIOR`: grow `user`'s session by one event.
    Event {
        /// Acting user.
        user: UserId,
        /// Item interacted with.
        item: ItemId,
        /// Behavior type of the event.
        behavior: Behavior,
    },
    /// `swap CKPT`: serve from the checkpoint at this path.
    Swap(String),
    /// `mark`: start of the steady-state window.
    Mark,
    /// `stats`: print the server counters.
    Stats,
    /// `metrics [json|prom] [PATH]`: snapshot the metrics.
    Metrics {
        /// Exposition format (`json` when omitted).
        format: MetricsFormat,
        /// Destination file; `None` prints the snapshot instead.
        path: Option<String>,
    },
    /// `quit`: stop reading and shut down.
    Quit,
}

/// Exposition format of a `metrics` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// The `mbssl.serve.metrics/1` JSON snapshot (DESIGN.md §17).
    Json,
    /// Prometheus text exposition.
    Prom,
}

impl MetricsFormat {
    /// The token that selects this format.
    pub fn token(self) -> &'static str {
        match self {
            MetricsFormat::Json => "json",
            MetricsFormat::Prom => "prom",
        }
    }
}

/// Why a line is not a valid request. `Display` gives the message the
/// server reports after `line N: `.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// `rec` without a parseable user id.
    MissingUser,
    /// `rec USER N` where `N` is not a non-negative integer.
    BadTopCount(String),
    /// `event` without exactly three arguments.
    EventArity,
    /// An `event` user that is not an id.
    BadUser(String),
    /// An `event` item that is not an id.
    BadItem(String),
    /// An `event` behavior outside the schema's tokens.
    UnknownBehavior(String),
    /// `swap` without a checkpoint path.
    MissingCheckpoint,
    /// `metrics` with a format other than `json` or `prom`.
    UnknownMetricsFormat(String),
    /// A first token that names no command.
    UnknownCommand(String),
    /// A line longer than [`MAX_LINE_BYTES`].
    LineTooLong,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::MissingUser => write!(f, "rec needs a user id"),
            ProtocolError::BadTopCount(t) => write!(f, "bad top count {t:?}"),
            ProtocolError::EventArity => write!(f, "event needs USER ITEM BEHAVIOR"),
            ProtocolError::BadUser(u) => write!(f, "bad user {u:?}"),
            ProtocolError::BadItem(i) => write!(f, "bad item {i:?}"),
            ProtocolError::UnknownBehavior(b) => write!(f, "unknown behavior {b:?}"),
            ProtocolError::MissingCheckpoint => write!(f, "swap needs a checkpoint"),
            ProtocolError::UnknownMetricsFormat(m) => {
                write!(f, "unknown metrics format {m:?} (want json|prom)")
            }
            ProtocolError::UnknownCommand(c) => write!(f, "unknown serve command {c:?}"),
            ProtocolError::LineTooLong => write!(f, "line longer than {MAX_LINE_BYTES} bytes"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The longest protocol line in bytes, its `\n` excluded (a `\r` before
/// it counts): twice `PATH_MAX`, so a `swap PATH` line always fits.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// The lines of `input`, without their `\n` or `\r\n`, reading at most
/// [`MAX_LINE_BYTES`] + 1 bytes per line. A longer line yields
/// [`ProtocolError::LineTooLong`] and ends the iteration, its rest
/// unread. A line that is not UTF-8 is an `InvalidData` I/O error, as
/// with [`BufRead::lines`].
pub fn read_lines(
    mut input: impl BufRead,
) -> impl Iterator<Item = std::io::Result<Result<String, ProtocolError>>> {
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let mut line = Vec::new();
        let cap = MAX_LINE_BYTES as u64 + 1;
        match input.by_ref().take(cap).read_until(b'\n', &mut line) {
            Err(e) => Some(Err(e)),
            Ok(0) => None,
            Ok(_) if line.last() == Some(&b'\n') || line.len() <= MAX_LINE_BYTES => {
                if line.last() == Some(&b'\n') {
                    line.pop();
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                }
                let line = String::from_utf8(line)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                Some(line.map(Ok))
            }
            Ok(_) => {
                done = true;
                Some(Ok(Err(ProtocolError::LineTooLong)))
            }
        }
    })
}

/// Parses one protocol line. `Ok(None)` exactly for a blank line or a
/// `#` comment (after trimming); `top_default` is the `N` of a `rec`
/// line that gives none. Tokens past the ones a command reads are
/// ignored, except for `event`, which takes exactly three.
pub fn parse_line(line: &str, top_default: usize) -> Result<Option<Request>, ProtocolError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut tokens = line.split_whitespace();
    let command = tokens.next().unwrap_or_default();
    let request = match command {
        "rec" => {
            let user = tokens
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or(ProtocolError::MissingUser)?;
            let n: usize = match tokens.next() {
                Some(t) => t
                    .parse()
                    .map_err(|_| ProtocolError::BadTopCount(t.into()))?,
                None => top_default,
            };
            Request::Rec { user, n: n.max(1) }
        }
        "event" => {
            let args: Vec<&str> = tokens.collect();
            let [u, i, b] = args[..] else {
                return Err(ProtocolError::EventArity);
            };
            Request::Event {
                user: u.parse().map_err(|_| ProtocolError::BadUser(u.into()))?,
                item: i.parse().map_err(|_| ProtocolError::BadItem(i.into()))?,
                behavior: Behavior::from_token(b)
                    .ok_or_else(|| ProtocolError::UnknownBehavior(b.into()))?,
            }
        }
        "swap" => Request::Swap(
            tokens
                .next()
                .ok_or(ProtocolError::MissingCheckpoint)?
                .into(),
        ),
        "mark" => Request::Mark,
        "stats" => Request::Stats,
        "metrics" => {
            let format = match tokens.next().unwrap_or("json") {
                "json" => MetricsFormat::Json,
                "prom" => MetricsFormat::Prom,
                other => return Err(ProtocolError::UnknownMetricsFormat(other.into())),
            };
            Request::Metrics {
                format,
                path: tokens.next().map(String::from),
            }
        }
        "quit" => Request::Quit,
        other => return Err(ProtocolError::UnknownCommand(other.into())),
    };
    Ok(Some(request))
}

/// Writes one ranked reply, a `  NN. item      I  score S` line per
/// recommendation in rank order: the body of every `rec` reply and of
/// `mbssl recommend`'s output.
pub fn write_recs(out: &mut impl Write, recs: &[Recommendation]) -> std::io::Result<()> {
    for (rank, rec) in recs.iter().enumerate() {
        writeln!(
            out,
            "  {:>2}. item {:>6}  score {:.4}",
            rank + 1,
            rec.item,
            rec.score
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(line: &str) -> Result<Option<Request>, ProtocolError> {
        parse_line(line, 10)
    }

    #[test]
    fn well_formed_lines_parse() {
        assert_eq!(parse("rec 3 5"), Ok(Some(Request::Rec { user: 3, n: 5 })));
        assert_eq!(
            parse("  rec\t3  "),
            Ok(Some(Request::Rec { user: 3, n: 10 }))
        );
        assert_eq!(parse("rec 3 0"), Ok(Some(Request::Rec { user: 3, n: 1 })));
        assert_eq!(
            parse("rec 3 5 extra"),
            Ok(Some(Request::Rec { user: 3, n: 5 }))
        );
        assert_eq!(
            parse("event 3 17 fav"),
            Ok(Some(Request::Event {
                user: 3,
                item: 17,
                behavior: Behavior::Favorite
            }))
        );
        assert_eq!(
            parse("swap next.ckpt"),
            Ok(Some(Request::Swap("next.ckpt".into())))
        );
        assert_eq!(parse("mark"), Ok(Some(Request::Mark)));
        assert_eq!(parse("stats"), Ok(Some(Request::Stats)));
        assert_eq!(parse("quit now"), Ok(Some(Request::Quit)));
        assert_eq!(
            parse("metrics"),
            Ok(Some(Request::Metrics {
                format: MetricsFormat::Json,
                path: None
            }))
        );
        assert_eq!(
            parse("metrics prom out.prom"),
            Ok(Some(Request::Metrics {
                format: MetricsFormat::Prom,
                path: Some("out.prom".into())
            }))
        );
        // A huge top count is a valid request; the server caps it.
        assert_eq!(
            parse("rec 3 4611686018427387904"),
            Ok(Some(Request::Rec {
                user: 3,
                n: 1 << 62
            }))
        );
    }

    #[test]
    fn blank_and_comment_lines_carry_no_request() {
        for line in ["", "   ", "\t\r", "# rec 3 5", "  #", "\u{3000}"] {
            assert_eq!(parse(line), Ok(None), "{line:?}");
        }
    }

    #[test]
    fn malformed_lines_map_to_their_error_and_message() {
        let cases = [
            ("rec", ProtocolError::MissingUser, "rec needs a user id"),
            (
                "rec -1 3",
                ProtocolError::MissingUser,
                "rec needs a user id",
            ),
            (
                "rec 4294967296",
                ProtocolError::MissingUser,
                "rec needs a user id",
            ),
            (
                "rec 3 lots",
                ProtocolError::BadTopCount("lots".into()),
                "bad top count \"lots\"",
            ),
            (
                "rec 3 -2",
                ProtocolError::BadTopCount("-2".into()),
                "bad top count \"-2\"",
            ),
            (
                "event 3 4",
                ProtocolError::EventArity,
                "event needs USER ITEM BEHAVIOR",
            ),
            (
                "event 3 4 click now",
                ProtocolError::EventArity,
                "event needs USER ITEM BEHAVIOR",
            ),
            (
                "event u 4 click",
                ProtocolError::BadUser("u".into()),
                "bad user \"u\"",
            ),
            (
                "event 3 x click",
                ProtocolError::BadItem("x".into()),
                "bad item \"x\"",
            ),
            (
                "event 3 4 dance",
                ProtocolError::UnknownBehavior("dance".into()),
                "unknown behavior \"dance\"",
            ),
            (
                "swap",
                ProtocolError::MissingCheckpoint,
                "swap needs a checkpoint",
            ),
            (
                "metrics xml",
                ProtocolError::UnknownMetricsFormat("xml".into()),
                "unknown metrics format \"xml\" (want json|prom)",
            ),
            (
                "frobnicate 1",
                ProtocolError::UnknownCommand("frobnicate".into()),
                "unknown serve command \"frobnicate\"",
            ),
            (
                "REC 3",
                ProtocolError::UnknownCommand("REC".into()),
                "unknown serve command \"REC\"",
            ),
        ];
        for (line, want, message) in cases {
            let got = parse(line).expect_err(line);
            assert_eq!(got, want, "{line:?}");
            assert_eq!(got.to_string(), message, "{line:?}");
        }
    }

    #[test]
    fn write_recs_prints_ranked_lines() {
        let recs = [
            Recommendation {
                item: 376,
                score: 0.16204,
            },
            Recommendation {
                item: 51,
                score: -0.5,
            },
        ];
        let mut out = Vec::new();
        write_recs(&mut out, &recs).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "   1. item    376  score 0.1620\n   2. item     51  score -0.5000\n"
        );
    }

    fn lines_of(input: &[u8]) -> Vec<Result<String, ProtocolError>> {
        read_lines(input).map(Result::unwrap).collect()
    }

    #[test]
    fn read_lines_splits_like_buf_read_lines() {
        assert_eq!(
            lines_of(b"rec 3\r\n\nquit\nstats"),
            vec![
                Ok("rec 3".into()),
                Ok("".into()),
                Ok("quit".into()),
                Ok("stats".into())
            ]
        );
        assert!(lines_of(b"").is_empty());
        let bad: Vec<_> = read_lines(&b"rec \xff\n"[..]).collect();
        assert_eq!(
            bad[0].as_ref().unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn read_lines_stops_at_the_first_overlong_line() {
        let longest = "x".repeat(MAX_LINE_BYTES);
        let input = format!("{longest}\n{longest}x\nrec 3\n");
        assert_eq!(
            lines_of(input.as_bytes()),
            vec![Ok(longest), Err(ProtocolError::LineTooLong)]
        );
        // Without a newline the line is cut at the cap, not buffered whole.
        let endless = std::io::repeat(b'x');
        let first = read_lines(std::io::BufReader::new(endless)).next();
        assert_eq!(first.unwrap().unwrap(), Err(ProtocolError::LineTooLong));
    }

    /// Fragments that hit every branch: commands, ids at and past the
    /// integer bounds, behaviors, formats, separators and comment marks.
    const FRAGMENTS: [&str; 24] = [
        "rec",
        "event",
        "swap",
        "mark",
        "stats",
        "metrics",
        "quit",
        "json",
        "prom",
        "click",
        "purchase",
        "3",
        "0",
        "-1",
        "4294967296",
        "18446744073709551616",
        " ",
        "\t",
        "  ",
        "#",
        "\u{3000}",
        "é",
        "\u{0}",
        "x",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn arbitrary_lines_never_panic(
            fragments in prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..10),
            codepoints in prop::collection::vec(0u32..0x11_0000, 0..12),
            top_default in 0usize..4,
        ) {
            let random: String = codepoints.iter().filter_map(|&c| char::from_u32(c)).collect();
            for line in [fragments.concat(), fragments.join(" "), random] {
                let trimmed = line.trim();
                let no_request = trimmed.is_empty() || trimmed.starts_with('#');
                let parsed = parse_line(&line, top_default);
                prop_assert_eq!(matches!(parsed, Ok(None)), no_request, "{:?}", line);
                if let Ok(Some(Request::Rec { n, .. })) = parsed {
                    prop_assert!(n >= 1);
                }
            }
        }
    }
}
