//! Zero-copy incremental RESP parsing and reply serialization.
//!
//! The parser consumes raw TCP stream chunks (`DemiBuffer` RX views) and
//! yields complete commands whose arguments are **sub-views of those same
//! chunks** — no payload byte is copied on the happy path. An argument
//! that happens to straddle a segment boundary is reassembled with an
//! honestly counted copy ([`ByteStream::take`]), and the parser's stats
//! expose exactly how often that happened so experiments can assert it
//! didn't.
//!
//! Wire shape (the RESP2 command subset Redis clients speak):
//!
//! ```text
//! *<nargs>\r\n  then nargs ×  $<len>\r\n<len bytes>\r\n
//! ```
//!
//! Replies use simple strings (`+OK\r\n`), errors (`-ERR ...\r\n`),
//! integers (`:n\r\n`), bulk strings (`$len\r\n...\r\n`), and nulls
//! (`$-1\r\n`).
//!
//! [`ReplyWriter`] is the TX half: GET replies try to [`DemiBuffer::prepend`]
//! the bulk header into the stored value's own headroom (possible when the
//! value is the lowest live view of its storage); when another live view
//! forbids that, the header joins the contiguous *control-byte run* — small
//! protocol bytes written once into a pooled buffer, never a payload copy
//! either way. How many frames the burst costs is TCP's call, not the
//! writer's: pushed as one SGA, small buffers share segments.

use std::io::Write;

use demi_memory::{ByteStream, DemiBuffer, MemoryManager};

/// Longest accepted header line (`*<n>\r\n` / `$<len>\r\n`, CRLF
/// included), generous: a header line whose first `MAX_LINE` bytes hold
/// no `\n` is an error, however the stream was chunked.
const MAX_LINE: usize = 32;
/// Most arguments a single command may carry.
pub(crate) const MAX_ARGS: u64 = 64;
/// Largest accepted bulk argument (keys and values).
pub(crate) const MAX_BULK: u64 = 8 * 1024 * 1024;

/// A malformed byte stream. The connection should be closed: RESP has no
/// way to resynchronize after a framing error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RespError(pub &'static str);

impl std::fmt::Display for RespError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RESP protocol error: {}", self.0)
    }
}

/// One parsed command: `args[0]` is the verb, the rest its operands.
/// Every argument is a buffer view — into the RX chunk it arrived in
/// (zero-copy) or into a reassembly buffer (counted, cross-chunk case).
#[derive(Debug, Clone, Default)]
pub struct RespCommand {
    /// The command's arguments, verb first.
    pub args: Vec<DemiBuffer>,
}

impl RespCommand {
    /// Argument `i` as a byte slice.
    pub(crate) fn arg(&self, i: usize) -> &[u8] {
        self.args[i].as_slice()
    }
}

/// Parser observability: the zero-copy claim is asserted, not assumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RespStats {
    /// Complete commands yielded.
    pub commands: u64,
    /// Arguments extracted as pure sub-views of a single RX chunk.
    pub zero_copy_args: u64,
    /// Arguments that straddled a chunk boundary and were reassembled
    /// with a counted payload copy.
    pub reassembled_args: u64,
}

#[derive(Default)]
enum ParseState {
    /// Expecting `*<nargs>\r\n`.
    #[default]
    ArrayHeader,
    /// Expecting `$<len>\r\n` for the next of `remaining` arguments.
    BulkHeader { remaining: u64 },
    /// Expecting `len` payload bytes plus the trailing CRLF.
    BulkPayload { remaining: u64, len: usize },
}

/// The incremental parser. Push stream chunks in arrival order; pull
/// complete commands out. Partial state (half a header line, half an
/// argument) persists across pushes — exactly the paper's "atomic data
/// units over a byte stream" discipline (§3.2), generalized from the
/// fixed framing layer to a real protocol.
#[derive(Default)]
pub struct RespParser {
    /// Unconsumed stream, in order. Exhausted chunks are dropped as they
    /// are consumed (releasing their storage for value-headroom prepends).
    stream: ByteStream,
    state: ParseState,
    /// The arguments of the command being parsed, and the last complete
    /// command. The two vectors trade places per command and are cleared,
    /// never dropped, so parsing allocates no argument list.
    args: Vec<DemiBuffer>,
    command: RespCommand,
    stats: RespStats,
}

impl RespParser {
    /// An empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one stream chunk (zero-copy: the handle is kept, not the
    /// bytes). Empty chunks are ignored.
    pub fn push_chunk(&mut self, chunk: DemiBuffer) {
        self.stream.push(chunk);
    }

    /// Parser counters.
    pub(crate) fn stats(&self) -> RespStats {
        self.stats
    }

    /// Extracts the next complete command, or `None` if more bytes are
    /// needed. Call in a loop to drain a pipelined burst; each call
    /// releases the previous command's argument views.
    pub fn next_command(&mut self) -> Result<Option<&RespCommand>, RespError> {
        self.command.args.clear();
        loop {
            match self.state {
                ParseState::ArrayHeader => {
                    let Some(nargs) = self.header(b'*', "expected array header")? else {
                        return Ok(None);
                    };
                    if nargs == 0 || nargs > MAX_ARGS {
                        return Err(RespError("argument count out of range"));
                    }
                    self.args.clear();
                    self.state = ParseState::BulkHeader { remaining: nargs };
                }
                ParseState::BulkHeader { remaining } => {
                    let Some(len) = self.header(b'$', "expected bulk header")? else {
                        return Ok(None);
                    };
                    if len > MAX_BULK {
                        return Err(RespError("bulk argument too large"));
                    }
                    self.state = ParseState::BulkPayload {
                        remaining,
                        len: len as usize,
                    };
                }
                ParseState::BulkPayload { remaining, len } => {
                    // Payload plus its CRLF terminator must be buffered in
                    // full before anything is consumed, so a partial
                    // argument never tears.
                    let taken = if self.stream.len() >= len + 2 {
                        self.stream.take(len)
                    } else {
                        None
                    };
                    let Some((arg, gathered)) = taken else {
                        return Ok(None);
                    };
                    let mut crlf = [0u8; 2];
                    self.stream.peek(&mut crlf);
                    self.stream.advance(2);
                    if crlf != *b"\r\n" {
                        return Err(RespError("bulk argument missing CRLF"));
                    }
                    if gathered {
                        self.stats.reassembled_args += 1;
                    } else if !arg.is_empty() {
                        self.stats.zero_copy_args += 1;
                    }
                    self.args.push(arg);
                    if remaining == 1 {
                        self.state = ParseState::ArrayHeader;
                        self.stats.commands += 1;
                        std::mem::swap(&mut self.args, &mut self.command.args);
                        return Ok(Some(&self.command));
                    }
                    self.state = ParseState::BulkHeader {
                        remaining: remaining - 1,
                    };
                }
            }
        }
    }

    /// Consumes one `<kind><decimal>\r\n` header line and returns its
    /// decimal, or `None` while the line's `\n` has not arrived. Header
    /// lines are protocol metadata, not payload: at most [`MAX_LINE`]
    /// bytes are peeked onto the stack.
    fn header(&mut self, kind: u8, unexpected: &'static str) -> Result<Option<u64>, RespError> {
        let mut peeked = [0u8; MAX_LINE];
        let have = self.stream.peek(&mut peeked);
        let Some(nl) = peeked[..have].iter().position(|&b| b == b'\n') else {
            if have == MAX_LINE {
                return Err(RespError("header line too long"));
            }
            return Ok(None);
        };
        let Some((b'\r', line)) = peeked[..nl].split_last() else {
            return Err(RespError("header line missing CR"));
        };
        if line.first() != Some(&kind) {
            return Err(RespError(unexpected));
        }
        let value = parse_decimal(&line[1..])?;
        self.stream.advance(nl + 1);
        Ok(Some(value))
    }
}

/// Parses a non-empty run of ASCII digits.
fn parse_decimal(digits: &[u8]) -> Result<u64, RespError> {
    if digits.is_empty() || !digits.iter().all(u8::is_ascii_digit) {
        return Err(RespError("malformed decimal"));
    }
    digits
        .iter()
        .try_fold(0u64, |v, &b| {
            v.checked_mul(10)?.checked_add((b - b'0').into())
        })
        .ok_or(RespError("decimal overflow"))
}

// ---------------------------------------------------------------------
// Command encoding (clients, tests, and the load generator).
// ---------------------------------------------------------------------

/// Appends the RESP encoding of a command to `out`.
pub fn encode_command(out: &mut Vec<u8>, args: &[&[u8]]) {
    let _ = write!(out, "*{}\r\n", args.len());
    for a in args {
        let _ = write!(out, "${}\r\n", a.len());
        out.extend_from_slice(a);
        out.extend_from_slice(b"\r\n");
    }
}

// ---------------------------------------------------------------------
// Reply serialization.
// ---------------------------------------------------------------------

/// Reply-path counters: how GET bulk headers were placed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplyStats {
    /// Bulk headers written in place into the value's own headroom
    /// (`prepend` succeeded — reply shares the value's segment).
    pub prepend_hits: u64,
    /// Bulk headers routed to the control run because another live view
    /// of the value's storage made `prepend` illegal.
    pub prepend_fallbacks: u64,
    /// Control-run segments emitted (pooled, protocol bytes only).
    pub ctrl_segments: u64,
}

/// Builds one connection's coalesced reply burst. Control bytes (status
/// lines, integers, bulk headers that could not prepend, CRLF trailers)
/// accumulate into contiguous runs flushed as pooled segments; values
/// ride as shared handles. Payload bytes are never copied.
pub struct ReplyWriter {
    memory: MemoryManager,
    ctrl: Vec<u8>,
    segs: Vec<DemiBuffer>,
    /// Segments of the last non-empty burst handed over: the next burst's
    /// vector is reserved to it at its first push, so a burst no longer
    /// than the one before costs one allocation at any depth.
    last_burst: usize,
    stats: ReplyStats,
}

impl ReplyWriter {
    /// A writer drawing control segments from `memory`'s pool.
    pub fn new(memory: MemoryManager) -> Self {
        ReplyWriter {
            memory,
            ctrl: Vec::new(),
            segs: Vec::new(),
            last_burst: 0,
            stats: ReplyStats::default(),
        }
    }

    /// Cumulative reply-path counters.
    pub(crate) fn stats(&self) -> ReplyStats {
        self.stats
    }

    /// `+OK\r\n`-style simple string (pass without the `+`).
    pub(crate) fn simple(&mut self, text: &[u8]) {
        self.ctrl.push(b'+');
        self.ctrl.extend_from_slice(text);
        self.ctrl.extend_from_slice(b"\r\n");
    }

    /// `-ERR ...\r\n` error reply (pass the full message).
    pub(crate) fn error(&mut self, text: &[u8]) {
        self.ctrl.push(b'-');
        self.ctrl.extend_from_slice(text);
        self.ctrl.extend_from_slice(b"\r\n");
    }

    /// `:<n>\r\n` integer reply.
    pub(crate) fn integer(&mut self, v: i64) {
        let _ = write!(self.ctrl, ":{v}\r\n");
    }

    /// `$-1\r\n` null bulk (missing key).
    pub(crate) fn null(&mut self) {
        self.ctrl.extend_from_slice(b"$-1\r\n");
    }

    /// `$<len>\r\n<value>\r\n` bulk reply carrying `value` zero-copy.
    ///
    /// Fast path: the header is prepended into the value buffer's own
    /// headroom, so header and payload are **one** buffer. That is
    /// legal only while no other live view of the storage starts below
    /// the value's offset; otherwise the header joins the control run and
    /// the value rides as its own buffer — still zero payload copies here.
    pub fn bulk(&mut self, value: &DemiBuffer) {
        let mut header = [0u8; MAX_LINE];
        let header_len = {
            // Formatted on the stack: at most 20 digits, so it always fits.
            let mut rest = &mut header[..];
            let _ = write!(rest, "${}\r\n", value.len());
            MAX_LINE - rest.len()
        };
        let mut v = value.clone();
        match v.prepend(header_len) {
            Ok(dst) => {
                dst.copy_from_slice(&header[..header_len]);
                self.stats.prepend_hits += 1;
                self.flush_ctrl();
                self.push(v);
            }
            Err(_) => {
                self.stats.prepend_fallbacks += 1;
                self.ctrl.extend_from_slice(&header[..header_len]);
                self.flush_ctrl();
                self.push(value.clone());
            }
        }
        self.ctrl.extend_from_slice(b"\r\n");
    }

    /// Flushes pending control bytes and returns the reply burst in
    /// order. The writer is ready for the next burst afterward; an empty
    /// burst allocates nothing.
    pub fn take(&mut self) -> Vec<DemiBuffer> {
        self.flush_ctrl();
        if !self.segs.is_empty() {
            self.last_burst = self.segs.len();
        }
        std::mem::take(&mut self.segs)
    }

    fn push(&mut self, seg: DemiBuffer) {
        if self.segs.capacity() == 0 {
            self.segs.reserve(self.last_burst);
        }
        self.segs.push(seg);
    }

    fn flush_ctrl(&mut self) {
        if self.ctrl.is_empty() {
            return;
        }
        // Protocol bytes are generated, not copied: the datapath copy
        // counters agree.
        let ctrl = &self.ctrl;
        let seg = pooled(&self.memory, ctrl.len(), |dst| dst.copy_from_slice(ctrl));
        self.push(seg);
        self.stats.ctrl_segments += 1;
        self.ctrl.clear();
    }
}

/// A `len`-byte buffer from `memory`'s pool, written once by `fill` while
/// exclusively owned (generated bytes: no counted copy).
pub(crate) fn pooled(
    memory: &MemoryManager,
    len: usize,
    fill: impl FnOnce(&mut [u8]),
) -> DemiBuffer {
    let mut buf = memory.alloc(len);
    fill(buf.try_mut().expect("fresh pool buffer is exclusive"));
    buf
}

/// The naive, copying RESP parser the differential tests compare the
/// real one against — deliberately written the "obvious" way.
#[cfg(test)]
pub(crate) mod reference {
    use super::{RespError, MAX_ARGS, MAX_BULK, MAX_LINE};

    /// Owned commands as the reference parser produces them: each command is
    /// a list of argument byte strings.
    pub(crate) type RefCommands = Vec<Vec<Vec<u8>>>;

    /// Parses every complete command in `bytes` the simple way (all copies),
    /// returning the commands and how many bytes they consumed. The real
    /// parser must agree with this on every stream and every re-chunking.
    pub(crate) fn reference_parse(bytes: &[u8]) -> Result<(RefCommands, usize), RespError> {
        let (commands, end) = reference_prefix(bytes);
        end.map(|consumed| (commands, consumed))
    }

    /// The commands before the first error, and that error — or, on a
    /// stream without one, how many bytes the commands consumed.
    pub(crate) fn reference_prefix(bytes: &[u8]) -> (RefCommands, Result<usize, RespError>) {
        let mut commands = Vec::new();
        let end = parse_into(bytes, &mut commands);
        (commands, end)
    }

    fn parse_into(bytes: &[u8], commands: &mut RefCommands) -> Result<usize, RespError> {
        let mut pos = 0usize;
        loop {
            let start = pos;
            let Some((text, next)) = ref_line(bytes, pos)? else {
                return Ok(start);
            };
            if text.first() != Some(&b'*') {
                return Err(RespError("expected array header"));
            }
            let nargs = ref_decimal(&text[1..])?;
            if nargs == 0 || nargs > MAX_ARGS {
                return Err(RespError("argument count out of range"));
            }
            pos = next;
            let mut args = Vec::with_capacity(nargs as usize);
            for _ in 0..nargs {
                let Some((text, next)) = ref_line(bytes, pos)? else {
                    return Ok(start);
                };
                if text.first() != Some(&b'$') {
                    return Err(RespError("expected bulk header"));
                }
                let len = ref_decimal(&text[1..])? as usize;
                if len as u64 > MAX_BULK {
                    return Err(RespError("bulk argument too large"));
                }
                if bytes.len() < next + len + 2 {
                    return Ok(start);
                }
                if &bytes[next + len..next + len + 2] != b"\r\n" {
                    return Err(RespError("bulk argument missing CRLF"));
                }
                args.push(bytes[next..next + len].to_vec());
                pos = next + len + 2;
            }
            commands.push(args);
        }
    }

    /// The `\r\n`-terminated line at `pos`, CRLF stripped, and where the
    /// next one starts. A `\n` without its `\r` is an error, and so is a
    /// line that has not ended within its first `MAX_LINE` bytes.
    fn ref_line(bytes: &[u8], pos: usize) -> Result<Option<(&[u8], usize)>, RespError> {
        let rest = &bytes[pos.min(bytes.len())..];
        let Some(nl) = rest.iter().take(MAX_LINE).position(|&b| b == b'\n') else {
            if rest.len() >= MAX_LINE {
                return Err(RespError("header line too long"));
            }
            return Ok(None);
        };
        if nl == 0 || rest[nl - 1] != b'\r' {
            return Err(RespError("header line missing CR"));
        }
        Ok(Some((&rest[..nl - 1], pos + nl + 1)))
    }

    fn ref_decimal(text: &[u8]) -> Result<u64, RespError> {
        if text.is_empty() || !text.iter().all(|b| b.is_ascii_digit()) {
            return Err(RespError("malformed decimal"));
        }
        let mut v: u64 = 0;
        for &b in text {
            v = v
                .checked_mul(10)
                .and_then(|x| x.checked_add((b - b'0') as u64))
                .ok_or(RespError("decimal overflow"))?;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RespParser {
        /// Unconsumed bytes currently held.
        pub(crate) fn buffered_bytes(&self) -> usize {
            self.stream.len()
        }

        /// Whether a partially parsed command is pending (mid-header or
        /// mid-argument state survives across `push_chunk` calls).
        pub(crate) fn mid_command(&self) -> bool {
            !matches!(self.state, ParseState::ArrayHeader) || !self.args.is_empty()
        }
    }

    fn cmds(parser: &mut RespParser) -> Vec<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        while let Some(cmd) = parser.next_command().expect("valid stream") {
            out.push(cmd.args.iter().map(|a| a.to_vec()).collect());
        }
        out
    }

    #[test]
    fn single_chunk_pipeline_is_zero_copy() {
        let mut bytes = Vec::new();
        encode_command(&mut bytes, &[b"SET", b"k1", b"value-1"]);
        encode_command(&mut bytes, &[b"GET", b"k1"]);
        encode_command(&mut bytes, &[b"DEL", b"k1"]);
        let mut p = RespParser::new();
        p.push_chunk(DemiBuffer::from(bytes));
        let got = cmds(&mut p);
        assert_eq!(got.len(), 3);
        assert_eq!(
            got[0],
            vec![b"SET".to_vec(), b"k1".to_vec(), b"value-1".to_vec()]
        );
        assert_eq!(got[1], vec![b"GET".to_vec(), b"k1".to_vec()]);
        let s = p.stats();
        assert_eq!(s.commands, 3);
        assert_eq!(s.reassembled_args, 0, "no boundary, no copies");
        assert_eq!(s.zero_copy_args, 7);
        assert_eq!(p.buffered_bytes(), 0);
    }

    #[test]
    fn one_byte_chunks_still_parse() {
        let mut bytes = Vec::new();
        encode_command(&mut bytes, &[b"SET", b"key", b"splayed-value"]);
        let mut p = RespParser::new();
        for b in bytes {
            p.push_chunk(DemiBuffer::from(vec![b]));
        }
        let got = cmds(&mut p);
        assert_eq!(
            got,
            vec![vec![
                b"SET".to_vec(),
                b"key".to_vec(),
                b"splayed-value".to_vec()
            ]]
        );
        // Multi-byte args all straddled chunk boundaries.
        assert!(p.stats().reassembled_args > 0);
    }

    #[test]
    fn args_are_views_into_the_rx_chunk() {
        let mut bytes = Vec::new();
        encode_command(&mut bytes, &[b"GET", b"shared"]);
        let chunk = DemiBuffer::from(bytes);
        let mut p = RespParser::new();
        p.push_chunk(chunk.clone());
        let cmd = p.next_command().unwrap().unwrap();
        assert!(
            cmd.args[1].same_storage(&chunk),
            "arg is a sub-view, not a copy"
        );
    }

    #[test]
    fn partial_then_completion_across_pushes() {
        let mut bytes = Vec::new();
        encode_command(&mut bytes, &[b"SET", b"k", b"0123456789"]);
        let cut = bytes.len() - 4; // Mid-value split.
        let mut p = RespParser::new();
        p.push_chunk(DemiBuffer::from(bytes[..cut].to_vec()));
        assert!(p.next_command().unwrap().is_none());
        assert!(p.mid_command());
        p.push_chunk(DemiBuffer::from(bytes[cut..].to_vec()));
        let cmd = p.next_command().unwrap().unwrap();
        assert_eq!(cmd.arg(2), b"0123456789");
        assert!(!p.mid_command());
    }

    #[test]
    fn protocol_errors_are_detected() {
        let mut p = RespParser::new();
        p.push_chunk(DemiBuffer::from(b"+PING\r\n".to_vec()));
        assert!(p.next_command().is_err(), "inline/simple input rejected");

        let mut p = RespParser::new();
        p.push_chunk(DemiBuffer::from(b"*1\r\n$3\r\nabcXX".to_vec()));
        assert!(p.next_command().is_err(), "bad CRLF detected");
    }

    /// A header line ends at its CRLF, not at a NUL: `*1\0junk` and
    /// `$4\0x` are malformed decimals, as the reference says, however the
    /// bytes arrive.
    #[test]
    fn a_nul_in_a_header_line_is_a_malformed_decimal() {
        for stream in [
            &b"*1\0junk\r\n$4\r\nPING\r\n"[..],
            b"*1\r\n$4\0x\r\nPING\r\n",
        ] {
            let malformed = Some(RespError("malformed decimal"));
            assert_eq!(reference::reference_parse(stream).err(), malformed);
            for split in 1..=stream.len() {
                let mut p = RespParser::new();
                p.push_chunk(DemiBuffer::from(stream[..split].to_vec()));
                p.push_chunk(DemiBuffer::from(stream[split..].to_vec()));
                assert_eq!(p.next_command().err(), malformed, "split at {split}");
            }
        }
    }

    #[test]
    fn reference_parser_agrees_on_a_simple_stream() {
        let mut bytes = Vec::new();
        encode_command(&mut bytes, &[b"SET", b"a", b"1"]);
        encode_command(&mut bytes, &[b"GET", b"a"]);
        let (cmds, consumed) = reference::reference_parse(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[1], vec![b"GET".to_vec(), b"a".to_vec()]);
    }

    #[test]
    fn reply_writer_coalesces_and_prepends() {
        let memory = MemoryManager::warmed();
        let mut w = ReplyWriter::new(memory.clone());
        // A pooled value with headroom and no other low view: prepend hits.
        let value = memory.alloc_from(b"payload-bytes");
        w.simple(b"OK");
        w.bulk(&value);
        w.integer(1);
        let segs = w.take();
        let flat: Vec<u8> = segs.iter().flat_map(|s| s.as_slice().to_vec()).collect();
        assert_eq!(flat, b"+OK\r\n$13\r\npayload-bytes\r\n:1\r\n");
        assert_eq!(w.stats().prepend_hits, 1);
        assert_eq!(w.stats().prepend_fallbacks, 0);
        // Header and payload traveled as one segment: [+OK ctrl][hdr+value][crlf+int ctrl].
        assert_eq!(segs.len(), 3);
    }

    #[test]
    fn reply_writer_falls_back_when_prepend_is_illegal() {
        let memory = MemoryManager::warmed();
        let mut w = ReplyWriter::new(memory.clone());
        let value = memory.alloc_from(b"vv");
        // A live view strictly below the value's offset forbids prepend.
        let mut lower = value.clone();
        let guard = lower.prepend(1).map(|d| d[0] = b'!');
        assert!(guard.is_ok());
        w.bulk(&value);
        let segs = w.take();
        let flat: Vec<u8> = segs.iter().flat_map(|s| s.as_slice().to_vec()).collect();
        assert_eq!(flat, b"$2\r\nvv\r\n");
        assert_eq!(w.stats().prepend_fallbacks, 1);
    }
}
