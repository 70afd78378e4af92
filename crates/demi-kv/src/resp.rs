//! Zero-copy incremental RESP parsing and reply serialization.
//!
//! The parser consumes raw TCP stream chunks (`DemiBuffer` RX views) and
//! yields complete commands whose arguments are **sub-views of those same
//! chunks** — no payload byte is copied on the happy path. A command that
//! happens to straddle a segment boundary is reassembled with an honestly
//! counted copy ([`demi_memory::counters`]), and the parser's stats expose
//! exactly how often that happened so experiments can assert it didn't.
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

use std::collections::VecDeque;

use demi_memory::{counters, DemiBuffer, MemoryManager};

/// Longest accepted header line (`*<n>\r\n` / `$<len>\r\n`), generous.
const MAX_LINE: usize = 32;
/// Most arguments a single command may carry.
pub const MAX_ARGS: u64 = 64;
/// Largest accepted bulk argument (keys and values).
pub const MAX_BULK: u64 = 8 * 1024 * 1024;

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
#[derive(Debug, Clone)]
pub struct RespCommand {
    /// The command's arguments, verb first.
    pub args: Vec<DemiBuffer>,
}

impl RespCommand {
    /// Argument `i` as a byte slice.
    pub fn arg(&self, i: usize) -> &[u8] {
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

enum ParseState {
    /// Expecting `*<nargs>\r\n`.
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
pub struct RespParser {
    /// Unconsumed stream, in order. The front chunk's view is advanced
    /// in place as bytes are consumed; exhausted chunks are dropped
    /// (releasing their storage for value-headroom prepends).
    chunks: VecDeque<DemiBuffer>,
    buffered: usize,
    state: ParseState,
    args: Vec<DemiBuffer>,
    stats: RespStats,
}

impl Default for RespParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RespParser {
    /// An empty parser.
    pub fn new() -> Self {
        RespParser {
            chunks: VecDeque::new(),
            buffered: 0,
            state: ParseState::ArrayHeader,
            args: Vec::new(),
            stats: RespStats::default(),
        }
    }

    /// Appends one stream chunk (zero-copy: the handle is kept, not the
    /// bytes). Empty chunks are ignored.
    pub fn push_chunk(&mut self, chunk: DemiBuffer) {
        if chunk.is_empty() {
            return;
        }
        self.buffered += chunk.len();
        self.chunks.push_back(chunk);
    }

    /// Unconsumed bytes currently held.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered
    }

    /// Whether a partially parsed command is pending (mid-header or
    /// mid-argument state survives across `push_chunk` calls).
    pub fn mid_command(&self) -> bool {
        !matches!(self.state, ParseState::ArrayHeader) || !self.args.is_empty()
    }

    /// Parser counters.
    pub fn stats(&self) -> RespStats {
        self.stats
    }

    /// Extracts the next complete command, or `None` if more bytes are
    /// needed. Call in a loop to drain a pipelined burst.
    pub fn next_command(&mut self) -> Result<Option<RespCommand>, RespError> {
        loop {
            match self.state {
                ParseState::ArrayHeader => {
                    let Some((line, line_len)) = self.peek_line()? else {
                        return Ok(None);
                    };
                    if line.first() != Some(&b'*') {
                        return Err(RespError("expected array header"));
                    }
                    let nargs = parse_decimal(&line[1..])?;
                    if nargs == 0 || nargs > MAX_ARGS {
                        return Err(RespError("argument count out of range"));
                    }
                    self.consume(line_len);
                    self.args = Vec::with_capacity(nargs as usize);
                    self.state = ParseState::BulkHeader { remaining: nargs };
                }
                ParseState::BulkHeader { remaining } => {
                    let Some((line, line_len)) = self.peek_line()? else {
                        return Ok(None);
                    };
                    if line.first() != Some(&b'$') {
                        return Err(RespError("expected bulk header"));
                    }
                    let len = parse_decimal(&line[1..])?;
                    if len > MAX_BULK {
                        return Err(RespError("bulk argument too large"));
                    }
                    self.consume(line_len);
                    self.state = ParseState::BulkPayload {
                        remaining,
                        len: len as usize,
                    };
                }
                ParseState::BulkPayload { remaining, len } => {
                    // Payload plus its CRLF terminator must be buffered in
                    // full before anything is consumed, so a partial
                    // argument never tears.
                    if self.buffered < len + 2 {
                        return Ok(None);
                    }
                    let arg = self.extract_payload(len);
                    let mut crlf = [0u8; 2];
                    self.copy_out(&mut crlf);
                    self.consume(2);
                    if crlf != *b"\r\n" {
                        return Err(RespError("bulk argument missing CRLF"));
                    }
                    self.args.push(arg);
                    if remaining == 1 {
                        self.state = ParseState::ArrayHeader;
                        self.stats.commands += 1;
                        return Ok(Some(RespCommand {
                            args: std::mem::take(&mut self.args),
                        }));
                    }
                    self.state = ParseState::BulkHeader {
                        remaining: remaining - 1,
                    };
                }
            }
        }
    }

    /// Takes `len` payload bytes off the front of the stream. Entirely
    /// within the front chunk → a zero-copy sub-view. Straddling chunks →
    /// one honestly counted gather copy.
    fn extract_payload(&mut self, len: usize) -> DemiBuffer {
        if len == 0 {
            return DemiBuffer::empty();
        }
        let front_len = self.chunks.front().map_or(0, |c| c.len());
        if front_len >= len {
            let arg = self.chunks.front().expect("front exists").slice(0, len);
            self.consume(len);
            self.stats.zero_copy_args += 1;
            return arg;
        }
        // Cross-chunk reassembly: the one counted copy in this module.
        let mut bytes = Vec::with_capacity(len);
        let mut need = len;
        for chunk in &self.chunks {
            let take = chunk.len().min(need);
            bytes.extend_from_slice(&chunk.as_slice()[..take]);
            need -= take;
            if need == 0 {
                break;
            }
        }
        debug_assert_eq!(need, 0, "availability checked by caller");
        counters::note_copy(len);
        self.consume(len);
        self.stats.reassembled_args += 1;
        DemiBuffer::from(bytes)
    }

    /// Finds one `\r\n`-terminated line at the front of the stream
    /// without consuming it. Returns the line bytes (CRLF stripped) and
    /// the total length including CRLF. Header lines are protocol
    /// metadata, not payload: the few bytes pass through a stack buffer.
    fn peek_line(&self) -> Result<Option<([u8; MAX_LINE], usize)>, RespError> {
        let mut line = [0u8; MAX_LINE];
        let mut n = 0usize;
        for chunk in &self.chunks {
            for &b in chunk.as_slice() {
                if b == b'\n' {
                    if n == 0 || line[n - 1] != b'\r' {
                        return Err(RespError("header line missing CR"));
                    }
                    let mut out = [0u8; MAX_LINE];
                    out[..n - 1].copy_from_slice(&line[..n - 1]);
                    // Ugly but allocation-free: return the CRLF-stripped
                    // prefix length via a sentinel in the caller's parse.
                    return Ok(Some((trim_to(out, n - 1), n + 1)));
                }
                if n == MAX_LINE {
                    return Err(RespError("header line too long"));
                }
                line[n] = b;
                n += 1;
            }
        }
        if n == MAX_LINE {
            return Err(RespError("header line too long"));
        }
        Ok(None)
    }

    /// Copies the next `out.len()` buffered bytes into `out` without
    /// consuming (CRLF verification).
    fn copy_out(&self, out: &mut [u8]) {
        let mut n = 0;
        for chunk in &self.chunks {
            for &b in chunk.as_slice() {
                out[n] = b;
                n += 1;
                if n == out.len() {
                    return;
                }
            }
        }
    }

    /// Drops `n` bytes off the front of the stream, advancing chunk views
    /// in place and releasing exhausted chunk handles.
    fn consume(&mut self, mut n: usize) {
        self.buffered -= n;
        while n > 0 {
            let front = self.chunks.front_mut().expect("consume within buffered");
            let take = front.len().min(n);
            front.advance(take);
            n -= take;
            if front.is_empty() {
                self.chunks.pop_front();
            }
        }
    }
}

/// Fixed-size line helper: keeps only the first `n` meaningful bytes.
fn trim_to(mut line: [u8; MAX_LINE], n: usize) -> [u8; MAX_LINE] {
    // Zero the tail and stash the length in a parallel convention: callers
    // re-scan for the terminating zero. Simpler: pad with a sentinel that
    // `parse_decimal` rejects — zeros work because lines never contain NUL.
    for b in line.iter_mut().skip(n) {
        *b = 0;
    }
    line
}

/// Parses the ASCII decimal in `line` (NUL-padded, from [`trim_to`]).
fn parse_decimal(line: &[u8]) -> Result<u64, RespError> {
    let mut value: u64 = 0;
    let mut digits = 0;
    for &b in line {
        if b == 0 {
            break;
        }
        if !b.is_ascii_digit() {
            return Err(RespError("malformed decimal"));
        }
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add((b - b'0') as u64))
            .ok_or(RespError("decimal overflow"))?;
        digits += 1;
    }
    if digits == 0 {
        return Err(RespError("empty decimal"));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// Reference parser — the naive, copying implementation the differential
// proptest compares against. Deliberately written the "obvious" way.
// ---------------------------------------------------------------------

/// Owned commands as the reference parser produces them: each command is
/// a list of argument byte strings.
pub type RefCommands = Vec<Vec<Vec<u8>>>;

/// Parses every complete command in `bytes` the simple way (all copies),
/// returning the commands and how many bytes they consumed. The real
/// parser must agree with this on every stream and every re-chunking.
pub fn reference_parse(bytes: &[u8]) -> Result<(RefCommands, usize), RespError> {
    let mut commands = Vec::new();
    let mut pos = 0usize;
    loop {
        let start = pos;
        let Some(line) = ref_line(bytes, pos) else {
            return Ok((commands, start));
        };
        let (text, next) = line;
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
            let Some((text, next)) = ref_line(bytes, pos) else {
                return Ok((commands, start));
            };
            if text.first() != Some(&b'$') {
                return Err(RespError("expected bulk header"));
            }
            let len = ref_decimal(&text[1..])? as usize;
            if len as u64 > MAX_BULK {
                return Err(RespError("bulk argument too large"));
            }
            if bytes.len() < next + len + 2 {
                return Ok((commands, start));
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

fn ref_line(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let rest = &bytes[pos.min(bytes.len())..];
    let nl = rest.iter().position(|&b| b == b'\n')?;
    if nl == 0 || rest[nl - 1] != b'\r' {
        return None; // Malformed; surfaces as a header error upstream.
    }
    Some((&rest[..nl - 1], pos + nl + 1))
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

// ---------------------------------------------------------------------
// Command encoding (clients, tests, and the load generator).
// ---------------------------------------------------------------------

/// Appends the RESP encoding of a command to `out`.
pub fn encode_command(out: &mut Vec<u8>, args: &[&[u8]]) {
    out.push(b'*');
    out.extend_from_slice(itoa(args.len() as u64).as_bytes());
    out.extend_from_slice(b"\r\n");
    for a in args {
        out.push(b'$');
        out.extend_from_slice(itoa(a.len() as u64).as_bytes());
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(a);
        out.extend_from_slice(b"\r\n");
    }
}

fn itoa(v: u64) -> String {
    v.to_string()
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
    stats: ReplyStats,
}

impl ReplyWriter {
    /// A writer drawing control segments from `memory`'s pool.
    pub fn new(memory: MemoryManager) -> Self {
        ReplyWriter {
            memory,
            ctrl: Vec::new(),
            segs: Vec::new(),
            stats: ReplyStats::default(),
        }
    }

    /// Cumulative reply-path counters.
    pub fn stats(&self) -> ReplyStats {
        self.stats
    }

    /// `+OK\r\n`-style simple string (pass without the `+`).
    pub fn simple(&mut self, text: &[u8]) {
        self.ctrl.push(b'+');
        self.ctrl.extend_from_slice(text);
        self.ctrl.extend_from_slice(b"\r\n");
    }

    /// `-ERR ...\r\n` error reply (pass the full message).
    pub fn error(&mut self, text: &[u8]) {
        self.ctrl.push(b'-');
        self.ctrl.extend_from_slice(text);
        self.ctrl.extend_from_slice(b"\r\n");
    }

    /// `:<n>\r\n` integer reply.
    pub fn integer(&mut self, v: i64) {
        self.ctrl.push(b':');
        self.ctrl.extend_from_slice(v.to_string().as_bytes());
        self.ctrl.extend_from_slice(b"\r\n");
    }

    /// `$-1\r\n` null bulk (missing key).
    pub fn null(&mut self) {
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
            let digits = value.len().to_string();
            header[0] = b'$';
            header[1..1 + digits.len()].copy_from_slice(digits.as_bytes());
            header[1 + digits.len()] = b'\r';
            header[2 + digits.len()] = b'\n';
            3 + digits.len()
        };
        let mut v = value.clone();
        match v.prepend(header_len) {
            Ok(dst) => {
                dst.copy_from_slice(&header[..header_len]);
                self.stats.prepend_hits += 1;
                self.flush_ctrl();
                self.segs.push(v);
            }
            Err(_) => {
                self.stats.prepend_fallbacks += 1;
                self.ctrl.extend_from_slice(&header[..header_len]);
                self.flush_ctrl();
                self.segs.push(value.clone());
            }
        }
        self.ctrl.extend_from_slice(b"\r\n");
    }

    /// Flushes pending control bytes and returns the reply burst in
    /// order. The writer is ready for the next burst afterward.
    pub fn take(&mut self) -> Vec<DemiBuffer> {
        self.flush_ctrl();
        std::mem::take(&mut self.segs)
    }

    fn flush_ctrl(&mut self) {
        if self.ctrl.is_empty() {
            return;
        }
        // Pooled, written once while exclusively owned: protocol bytes
        // are generated, not copied — the datapath copy counters agree.
        let mut seg = self.memory.alloc(self.ctrl.len());
        seg.try_mut()
            .expect("fresh pool buffer is exclusive")
            .copy_from_slice(&self.ctrl);
        self.segs.push(seg);
        self.stats.ctrl_segments += 1;
        self.ctrl.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn reference_parser_agrees_on_a_simple_stream() {
        let mut bytes = Vec::new();
        encode_command(&mut bytes, &[b"SET", b"a", b"1"]);
        encode_command(&mut bytes, &[b"GET", b"a"]);
        let (cmds, consumed) = reference_parse(&bytes).unwrap();
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
