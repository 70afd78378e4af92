//! Test hooks: the reference sides of two differential tests. Nothing on
//! a datapath calls them.

use crate::stack::NetworkStack;
use crate::tcp::TcpPeer;

/// [`NetworkStack::poll`] with every guard overridden — each stage of the
/// pass runs whether or not it has work. The reference side of the
/// guarded-vs-unguarded differential in `tests/sharding.rs`.
pub fn poll_every_stage(stack: &NetworkStack) -> usize {
    stack.poll_with(true)
}

/// Keeps `TIME_WAIT` control blocks resident until 2·MSL instead of
/// demoting them: the reference `tests/timewait.rs` proves the compact
/// record wire-identical to.
pub fn keep_full_timewait_blocks(peer: &mut TcpPeer) {
    peer.keep_timewait_blocks = true;
}
