//! The serving engine: pipelined command execution with coalesced
//! replies and group-committed durability.
//!
//! Transport-independent by design — the engine consumes RX chunks and
//! produces reply segments, so the same code runs over catnip queues
//! (`examples/kv_server.rs`), a directly-driven `TcpPeer` (E19), or raw
//! byte slices (tests). The contract per RX pass:
//!
//! 1. Feed every arrived chunk into the connection ([`KvConn::feed`]).
//! 2. [`KvEngine::drain`] parses and executes **every** complete command
//!    buffered — the pipelining discipline: an N-deep burst is served in
//!    one pass, its replies coalesced into one TX burst.
//! 3. Transmit `immediate` replies now, as one push (the stream gathers
//!    them into full segments). If `batch` is present, make it durable
//!    with **one** storage submission (catfs `push` of the encoded
//!    record), then transmit `deferred`.
//!
//! Group-commit ordering rules: replies produced *before* the first
//! logged mutation of a pass release immediately; the logged mutation's
//! reply and everything after it wait for the batch — so a client never
//! observes an acknowledgment the log could lose, and per-connection
//! reply order is preserved. Reads are never gated: a GET pipelined
//! behind a SET sees the store's new value (execution order), but its
//! reply travels in the deferred section (reply order).

use demi_memory::{DemiBuffer, MemoryManager};
use sim_fabric::SimTime;

use crate::log::{encode_pooled, PendingOp};
use crate::resp::{ReplyStats, ReplyWriter, RespCommand, RespParser, RespStats};
use crate::store::{KvStore, SetError, Ttl};

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct KvEngineConfig {
    /// Store byte budget (keys + values) before LRU eviction.
    pub byte_budget: usize,
    /// Whether mutations are group-committed to a log. When false,
    /// `drain` never defers replies and never emits batches.
    pub durable: bool,
}

impl Default for KvEngineConfig {
    fn default() -> Self {
        KvEngineConfig {
            byte_budget: 64 * 1024 * 1024,
            durable: false,
        }
    }
}

/// Per-connection state: the incremental parser (partial commands
/// survive across RX passes) and a poison flag after protocol errors.
#[derive(Default)]
pub struct KvConn {
    parser: RespParser,
    dead: bool,
}

impl KvConn {
    /// Fresh connection state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one RX chunk (zero-copy; the handle is retained).
    pub fn feed(&mut self, chunk: DemiBuffer) {
        self.parser.push_chunk(chunk);
    }

    /// Parser counters for this connection.
    pub fn parser_stats(&self) -> RespStats {
        self.parser.stats()
    }
}

/// What one drain pass produced.
#[derive(Default)]
pub struct DrainResult {
    /// Reply segments releasable immediately, in order.
    pub immediate: Vec<DemiBuffer>,
    /// Reply segments gated on `batch` durability, in order after
    /// `immediate`.
    pub deferred: Vec<DemiBuffer>,
    /// Encoded group-commit record, a buffer from the engine's pool:
    /// append with ONE storage submission, then release `deferred`. `None`
    /// when the pass mutated nothing.
    pub batch: Option<DemiBuffer>,
    /// Commands executed this pass (the burst depth).
    pub depth: usize,
    /// The stream is unparseable; close the connection after sending
    /// the replies (the last of which is the error).
    pub disconnect: bool,
}

/// Engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Commands executed.
    pub commands: u64,
    /// Drain passes that executed at least one command.
    pub bursts: u64,
    /// Deepest single-pass burst observed.
    pub max_burst: u64,
    /// Group-commit batches emitted.
    pub batches: u64,
    /// Mutations logged across all batches.
    pub logged_ops: u64,
    /// SETs refused because key+value exceed the byte budget.
    pub too_large: u64,
    /// Connections poisoned by protocol errors.
    pub protocol_errors: u64,
}

/// The engine: one store, one reply writer, shared by every connection
/// of a (single-threaded) serving loop.
pub struct KvEngine {
    store: KvStore,
    /// The pool records and reply control segments come from.
    memory: MemoryManager,
    writer: ReplyWriter,
    durable: bool,
    /// The pass's logged mutations; cleared once encoded, never dropped,
    /// so a durable pass allocates no op list.
    pending: Vec<PendingOp>,
    stats: EngineStats,
}

impl KvEngine {
    /// An engine whose store wheel starts at `start`, drawing log records
    /// and reply control segments from `memory`'s pool.
    pub fn new(config: KvEngineConfig, memory: MemoryManager, start: SimTime) -> Self {
        KvEngine {
            store: KvStore::new(config.byte_budget, start),
            writer: ReplyWriter::new(memory.clone()),
            memory,
            durable: config.durable,
            pending: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Mutable store access (mirror attachment, replay).
    pub fn store_mut(&mut self) -> &mut KvStore {
        &mut self.store
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Reply-path counters (prepend hits vs control-run fallbacks).
    pub fn reply_stats(&self) -> ReplyStats {
        self.writer.stats()
    }

    /// Executes every complete buffered command on `conn` — the whole
    /// pipelined burst — and coalesces the replies. See the module doc
    /// for the release protocol.
    pub fn drain(&mut self, conn: &mut KvConn, now: SimTime) -> DrainResult {
        self.store.advance(now);
        let mut result = DrainResult::default();
        if conn.dead {
            result.disconnect = true;
            return result;
        }
        loop {
            match conn.parser.next_command() {
                Ok(Some(cmd)) => {
                    result.depth += 1;
                    self.execute(cmd, &mut result.immediate, now);
                }
                Ok(None) => break,
                Err(err) => {
                    self.stats.protocol_errors += 1;
                    self.writer.error(format!("ERR {}", err.0).as_bytes());
                    conn.dead = true;
                    result.disconnect = true;
                    break;
                }
            }
        }
        self.stats.commands += result.depth as u64;
        if result.depth > 0 {
            self.stats.bursts += 1;
            self.stats.max_burst = self.stats.max_burst.max(result.depth as u64);
        }
        if self.pending.is_empty() {
            // Nothing to commit: everything releases now, the writer's
            // own burst handed over whole.
            result.immediate = self.writer.take();
        } else {
            self.stats.batches += 1;
            self.stats.logged_ops += self.pending.len() as u64;
            result.batch = Some(encode_pooled(&self.pending, &self.memory));
            result.deferred = self.writer.take();
            self.pending.clear();
        }
        result
    }

    /// Executes one command, writing its reply. When the command is the
    /// pass's **first** logged mutation, all previously written replies
    /// are flushed to `immediate` first — they precede the durability
    /// barrier and need not wait for it.
    fn execute(&mut self, cmd: &RespCommand, immediate: &mut Vec<DemiBuffer>, now: SimTime) {
        let verb = cmd.arg(0);
        if verb.eq_ignore_ascii_case(b"GET") {
            if cmd.args.len() != 2 {
                return self.writer.error(b"ERR wrong number of arguments for GET");
            }
            match self.store.get(cmd.arg(1), now) {
                Some(value) => {
                    // Insert-after-miss for a device replica: a GET that
                    // reached the host was (by definition) not served by
                    // the NIC cache; publish so the next one is.
                    self.store.publish_to_mirror(cmd.arg(1));
                    self.writer.bulk(&value);
                }
                None => self.writer.null(),
            }
        } else if verb.eq_ignore_ascii_case(b"SET") {
            let expire_at = match cmd.args.len() {
                3 => None,
                5 if cmd.arg(3).eq_ignore_ascii_case(b"PX") => match parse_ascii_u64(cmd.arg(4)) {
                    Some(ms) => Some(now.saturating_add(SimTime::from_millis(ms))),
                    None => return self.writer.error(b"ERR invalid PX value"),
                },
                _ => return self.writer.error(b"ERR syntax error in SET"),
            };
            let key = cmd.args[1].clone();
            let value = cmd.args[2].clone();
            match self
                .store
                .set(key.as_slice(), value.clone(), expire_at, now)
            {
                Ok(()) => {
                    if self.durable {
                        self.log_barrier(immediate);
                        self.pending.push(PendingOp::Set {
                            key,
                            value,
                            expire_at,
                        });
                    }
                    self.writer.simple(b"OK");
                }
                Err(SetError::TooLarge) => {
                    self.stats.too_large += 1;
                    self.writer.error(b"ERR entry exceeds store byte budget");
                }
            }
        } else if verb.eq_ignore_ascii_case(b"DEL") {
            if cmd.args.len() != 2 {
                return self.writer.error(b"ERR wrong number of arguments for DEL");
            }
            let removed = self.store.del(cmd.arg(1), now);
            if removed && self.durable {
                self.log_barrier(immediate);
                self.pending.push(PendingOp::Del {
                    key: cmd.args[1].clone(),
                });
            }
            self.writer.integer(removed as i64);
        } else if verb.eq_ignore_ascii_case(b"PEXPIRE") {
            if cmd.args.len() != 3 {
                return self
                    .writer
                    .error(b"ERR wrong number of arguments for PEXPIRE");
            }
            let Some(ms) = parse_ascii_u64(cmd.arg(2)) else {
                return self.writer.error(b"ERR invalid PEXPIRE value");
            };
            let at = now.saturating_add(SimTime::from_millis(ms));
            let applied = self.store.expire(cmd.arg(1), at, now);
            if applied && self.durable {
                self.log_barrier(immediate);
                self.pending.push(PendingOp::Expire {
                    key: cmd.args[1].clone(),
                    at,
                });
            }
            self.writer.integer(applied as i64);
        } else if verb.eq_ignore_ascii_case(b"PTTL") {
            if cmd.args.len() != 2 {
                return self.writer.error(b"ERR wrong number of arguments for PTTL");
            }
            match self.store.ttl(cmd.arg(1), now) {
                Ttl::Missing => self.writer.integer(-2),
                Ttl::NoExpiry => self.writer.integer(-1),
                // Redis PTTL speaks milliseconds; round up so a live key
                // never reports 0.
                Ttl::RemainingNs(ns) => self.writer.integer(ns.div_ceil(1_000_000) as i64),
            }
        } else if verb.eq_ignore_ascii_case(b"PING") {
            self.writer.simple(b"PONG");
        } else {
            self.writer.error(b"ERR unknown command");
        }
    }

    /// On the pass's first logged mutation, everything already written
    /// precedes the durability barrier: release it immediately. (Nothing
    /// was released before the first barrier, so `immediate` is empty.)
    fn log_barrier(&mut self, immediate: &mut Vec<DemiBuffer>) {
        if self.pending.is_empty() {
            *immediate = self.writer.take();
        }
    }
}

fn parse_ascii_u64(text: &[u8]) -> Option<u64> {
    if text.is_empty() || !text.iter().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let mut v: u64 = 0;
    for &b in text {
        v = v.checked_mul(10)?.checked_add((b - b'0') as u64)?;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::encode_command;

    fn engine(durable: bool) -> KvEngine {
        KvEngine::new(
            KvEngineConfig {
                byte_budget: 1 << 20,
                durable,
            },
            MemoryManager::warmed(),
            SimTime::ZERO,
        )
    }

    fn feed(conn: &mut KvConn, cmds: &[&[&[u8]]]) {
        let mut bytes = Vec::new();
        for c in cmds {
            encode_command(&mut bytes, c);
        }
        conn.feed(DemiBuffer::from(bytes));
    }

    fn flat(segs: &[DemiBuffer]) -> Vec<u8> {
        segs.iter().flat_map(|s| s.as_slice().to_vec()).collect()
    }

    #[test]
    fn pipelined_burst_executes_in_one_pass() {
        let mut e = engine(false);
        let mut conn = KvConn::new();
        feed(
            &mut conn,
            &[
                &[b"PING"],
                &[b"SET", b"k", b"v1"],
                &[b"GET", b"k"],
                &[b"DEL", b"k"],
                &[b"GET", b"k"],
            ],
        );
        let r = e.drain(&mut conn, SimTime::from_nanos(10));
        assert_eq!(r.depth, 5);
        assert!(r.batch.is_none());
        assert!(r.deferred.is_empty());
        assert_eq!(
            flat(&r.immediate),
            b"+PONG\r\n+OK\r\n$2\r\nv1\r\n:1\r\n$-1\r\n"
        );
        assert_eq!(e.stats().bursts, 1);
        assert_eq!(e.stats().max_burst, 5);
    }

    #[test]
    fn durable_pass_defers_from_first_logged_mutation() {
        let mut e = engine(true);
        let mut conn = KvConn::new();
        feed(
            &mut conn,
            &[
                &[b"PING"],            // before the barrier
                &[b"GET", b"nope"],    // before the barrier
                &[b"SET", b"k", b"v"], // the barrier
                &[b"GET", b"k"],       // after (reply order preserved)
            ],
        );
        let r = e.drain(&mut conn, SimTime::from_nanos(10));
        assert_eq!(flat(&r.immediate), b"+PONG\r\n$-1\r\n");
        assert_eq!(flat(&r.deferred), b"+OK\r\n$1\r\nv\r\n");
        let batch = r.batch.expect("one mutation -> one batch");
        let entries = crate::log::decode_batch(&batch).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(e.stats().batches, 1);
        assert_eq!(e.stats().logged_ops, 1);
    }

    #[test]
    fn read_only_durable_pass_commits_nothing() {
        let mut e = engine(true);
        let mut conn = KvConn::new();
        feed(&mut conn, &[&[b"GET", b"x"], &[b"PING"]]);
        let r = e.drain(&mut conn, SimTime::from_nanos(10));
        assert!(r.batch.is_none());
        assert_eq!(flat(&r.immediate), b"$-1\r\n+PONG\r\n");
    }

    #[test]
    fn del_of_missing_key_is_not_logged() {
        let mut e = engine(true);
        let mut conn = KvConn::new();
        feed(&mut conn, &[&[b"DEL", b"ghost"]]);
        let r = e.drain(&mut conn, SimTime::from_nanos(10));
        assert!(r.batch.is_none(), "a no-op DEL must not force a commit");
        assert_eq!(flat(&r.immediate), b":0\r\n");
    }

    #[test]
    fn ttl_commands_round_trip() {
        let mut e = engine(false);
        let mut conn = KvConn::new();
        feed(
            &mut conn,
            &[
                &[b"SET", b"k", b"v", b"PX", b"5"],
                &[b"PTTL", b"k"],
                &[b"PTTL", b"ghost"],
            ],
        );
        let r = e.drain(&mut conn, SimTime::from_millis(1));
        assert_eq!(flat(&r.immediate), b"+OK\r\n:5\r\n:-2\r\n");
        // Ride past the deadline: the wheel removes the key.
        let mut conn2 = KvConn::new();
        feed(&mut conn2, &[&[b"GET", b"k"]]);
        let r = e.drain(&mut conn2, SimTime::from_millis(10));
        assert_eq!(flat(&r.immediate), b"$-1\r\n");
        assert_eq!(e.store_mut().stats().expirations, 1);
    }

    #[test]
    fn protocol_error_poisons_the_connection() {
        let mut e = engine(false);
        let mut conn = KvConn::new();
        conn.feed(DemiBuffer::from(b"*1\r\n$3\r\nabcXY".to_vec()));
        let r = e.drain(&mut conn, SimTime::from_nanos(1));
        assert!(r.disconnect);
        assert!(flat(&r.immediate).starts_with(b"-ERR"));
        assert!(conn.dead);
        let r2 = e.drain(&mut conn, SimTime::from_nanos(2));
        assert!(r2.disconnect, "a poisoned connection stays poisoned");
    }

    #[test]
    fn partial_command_waits_for_completion() {
        let mut e = engine(false);
        let mut conn = KvConn::new();
        let mut bytes = Vec::new();
        encode_command(&mut bytes, &[b"SET", b"key", b"split-value"]);
        let cut = bytes.len() - 6;
        conn.feed(DemiBuffer::from(bytes[..cut].to_vec()));
        let r = e.drain(&mut conn, SimTime::from_nanos(1));
        assert_eq!(r.depth, 0);
        assert!(flat(&r.immediate).is_empty());
        conn.feed(DemiBuffer::from(bytes[cut..].to_vec()));
        let r = e.drain(&mut conn, SimTime::from_nanos(2));
        assert_eq!(r.depth, 1);
        assert_eq!(flat(&r.immediate), b"+OK\r\n");
    }
}
