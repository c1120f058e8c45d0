//! The few fields of a response line the hot path needs, found by byte
//! search instead of by building a JSON tree: at tens of thousands of
//! responses a second a full parse would make the generator, not the
//! server, the thing being measured.

/// What [`split`] found in one response line.
#[derive(Debug, PartialEq, Eq)]
pub struct Parts<'a> {
    pub id: u64,
    pub cached: bool,
    /// The server's `micros` stamp: its own service time for the request.
    pub micros: u64,
    /// The encoded `result` value, byte for byte.
    pub result: &'a [u8],
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The unsigned integer that follows `key` in `line`.
fn number_after(line: &[u8], key: &[u8]) -> Option<u64> {
    let digits = &line[find(line, key)? + key.len()..];
    let end = digits.iter().position(|b| !b.is_ascii_digit())?;
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

/// Splits a response line (without its newline) of the envelope the server
/// writes today. `None` means the line has some other shape and the caller
/// must fall back to a full parse.
pub fn split(line: &[u8]) -> Option<Parts<'_>> {
    // The envelope's own keys all precede `result`, and a cell result
    // holds no strings, so the first match of each key is the envelope's.
    let result_at = find(line, b",\"result\":")?;
    let envelope = &line[..result_at];
    let cached_at = find(envelope, b"\"cached\":")? + b"\"cached\":".len();
    let cached = match envelope.get(cached_at)? {
        b't' => true,
        b'f' => false,
        _ => return None,
    };
    let result = line.get(result_at + b",\"result\":".len()..line.len().checked_sub(1)?)?;
    (line.last() == Some(&b'}')).then_some(Parts {
        id: number_after(envelope, b"\"id\":")?,
        cached,
        micros: number_after(envelope, b"\"micros\":")?,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ktudc_core::harness::CellOutcome;
    use ktudc_serve::{Response, ResponseKind};

    #[test]
    fn splits_what_the_server_encodes() {
        let mut response = Response::new(
            41,
            true,
            17,
            ResponseKind::Cell(CellOutcome {
                satisfied: 3,
                violated_permanent: 0,
                unsatisfied_pending: 1,
                mean_messages: 12.5,
            }),
        );
        for shard in [None, Some(2)] {
            response.shard = shard;
            let line = serde_json::to_string(&response).unwrap();
            let parts = split(line.as_bytes()).expect("today's envelope splits");
            assert_eq!((parts.id, parts.cached, parts.micros), (41, true, 17));
            assert_eq!(
                parts.result,
                serde_json::to_string(&response.result).unwrap().as_bytes()
            );
        }
    }

    #[test]
    fn refuses_other_shapes() {
        assert_eq!(split(b""), None);
        assert_eq!(split(b"{\"id\":1}"), None);
        assert_eq!(
            split(b"{\"id\":1,\"cached\":null,\"micros\":2,\"result\":3}"),
            None
        );
        assert_eq!(
            split(b"{\"id\":1,\"cached\":true,\"micros\":2,\"result\":3"),
            None
        );
    }
}
