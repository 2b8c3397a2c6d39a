//! Minimal TSV serialization for trace records.
//!
//! Hand-rolled (no external codec crates): records are single lines of
//! tab-separated fields with a fixed header, the standard interchange shape
//! for measurement traces.
//!
//! **Export path.** [`write_tsv`] fills one bounded block buffer
//! ([`BLOCK_BYTES`]) and hands it to the writer with one `write_all` each
//! time it fills, so a trace costs one write per block however many rows it
//! has, and no whole trace is ever staged in memory. Each record appends
//! its own row to the block through [`ToTsv::write_row`]: integers go
//! through [`push_u64`], floats through [`push_f64`], and enums and flags
//! as `&'static str` — no per-row `String` and no `core::fmt` on the way.
//!
//! **Float contract.** [`push_f64`] writes exactly the bytes of
//! `format!("{}", x)`: the shortest digits that round-trip, closest to the
//! value, in `Display`'s plain positional layout. Exports therefore stay
//! byte-identical to the `format!`-built rows they replace (the digests
//! that pin them do not move), and reading a trace back with [`read_tsv`]
//! restores every float bit for bit.

use std::fmt;
use std::io::{self, BufRead, Write};

use crate::decimal::{push_f64, push_u64};

/// Size of the block [`write_tsv`] fills before each write.
pub const BLOCK_BYTES: usize = 64 * 1024;

/// Room kept free in the block for the next row. The longest float field
/// is 327 bytes (a negative subnormal), so a row of the trace schemas
/// fits unless a workload source link is kilobytes long; such a row still
/// works, but grows the block once.
const ROW_ROOM: usize = 4 * 1024;

/// A record that can be written as a TSV row.
pub trait ToTsv {
    /// Header line (without trailing newline).
    const HEADER: &'static str;

    /// Append one row to `out` (no trailing newline, no embedded tabs
    /// except as separators).
    fn write_row(&self, out: &mut Vec<u8>);
}

/// One field of a TSV row, appended as text.
pub(crate) trait TsvField {
    /// Append this field's text to `out`.
    fn push_field(&self, out: &mut Vec<u8>);
}

impl TsvField for u32 {
    fn push_field(&self, out: &mut Vec<u8>) {
        push_u64(out, u64::from(*self));
    }
}

impl TsvField for u64 {
    fn push_field(&self, out: &mut Vec<u8>) {
        push_u64(out, *self);
    }
}

impl TsvField for f64 {
    fn push_field(&self, out: &mut Vec<u8>) {
        push_f64(out, *self);
    }
}

/// `-` stands for a missing value.
impl TsvField for Option<f64> {
    fn push_field(&self, out: &mut Vec<u8>) {
        match self {
            Some(x) => push_f64(out, *x),
            None => out.push(b'-'),
        }
    }
}

impl TsvField for bool {
    fn push_field(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }
}

impl TsvField for &str {
    fn push_field(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

/// Append the given [`TsvField`]s to a `Vec<u8>` as one tab-separated row:
/// `tsv_row!(out; a, b, c)`.
macro_rules! tsv_row {
    ($out:expr; $first:expr $(, $rest:expr)* $(,)?) => {{
        let out: &mut ::std::vec::Vec<u8> = $out;
        $crate::io::TsvField::push_field(&$first, out);
        $(
            out.push(b'\t');
            $crate::io::TsvField::push_field(&$rest, out);
        )*
    }};
}
pub(crate) use tsv_row;

/// A record that can be parsed from a TSV row.
pub trait FromTsv: Sized {
    /// Parse one row.
    fn from_row(row: &str) -> Result<Self, ParseError>;
}

/// TSV parsing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    /// A field failed to parse.
    pub fn bad_field(name: &str, value: &str) -> Self {
        ParseError { message: format!("bad {name}: {value:?}") }
    }

    /// Wrong number of fields in the row.
    pub fn wrong_arity(expected: usize, got: usize) -> Self {
        ParseError { message: format!("expected {expected} fields, got {got}") }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

/// Write a header plus all records to `w`, one block of at most
/// [`BLOCK_BYTES`] per `write_all`.
pub fn write_tsv<R: ToTsv>(w: &mut impl Write, records: &[R]) -> io::Result<()> {
    let mut block = Vec::with_capacity(BLOCK_BYTES);
    block.extend_from_slice(R::HEADER.as_bytes());
    block.push(b'\n');
    for r in records {
        if block.len() > BLOCK_BYTES - ROW_ROOM {
            w.write_all(&block)?;
            block.clear();
        }
        r.write_row(&mut block);
        block.push(b'\n');
    }
    w.write_all(&block)
}

/// Read records from `r`, expecting (and skipping) the header line.
pub fn read_tsv<R: ToTsv + FromTsv>(r: &mut impl BufRead) -> io::Result<Vec<R>> {
    let mut lines = r.lines();
    match lines.next() {
        Some(header) => {
            let header = header?;
            if header != R::HEADER {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected header: {header:?}"),
                ));
            }
        }
        None => return Ok(Vec::new()),
    }
    let mut out = Vec::new();
    for line in lines {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        out.push(
            R::from_row(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pair(u32, f64);

    impl ToTsv for Pair {
        const HEADER: &'static str = "a\tb";
        fn write_row(&self, out: &mut Vec<u8>) {
            tsv_row!(out; self.0, self.1);
        }
    }

    impl FromTsv for Pair {
        fn from_row(row: &str) -> Result<Self, ParseError> {
            let f: Vec<&str> = row.split('\t').collect();
            if f.len() != 2 {
                return Err(ParseError::wrong_arity(2, f.len()));
            }
            Ok(Pair(
                f[0].parse().map_err(|_| ParseError::bad_field("a", f[0]))?,
                f[1].parse().map_err(|_| ParseError::bad_field("b", f[1]))?,
            ))
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let records = vec![Pair(1, 2.5), Pair(3, 4.0)];
        let mut buf = Vec::new();
        write_tsv(&mut buf, &records).unwrap();
        let parsed: Vec<Pair> = read_tsv(&mut buf.as_slice()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn empty_input_is_empty_vec() {
        let parsed: Vec<Pair> = read_tsv(&mut "".as_bytes()).unwrap();
        assert!(parsed.is_empty());
    }

    #[test]
    fn wrong_header_is_an_error() {
        let err = read_tsv::<Pair>(&mut "x\ty\n1\t2".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let parsed: Vec<Pair> = read_tsv(&mut "a\tb\n1\t2\n\n3\t4\n".as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn bad_row_is_an_error() {
        assert!(read_tsv::<Pair>(&mut "a\tb\noops".as_bytes()).is_err());
    }
}
