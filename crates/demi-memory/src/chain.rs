//! A packet as a bounded chain of buffer views — the chained `rte_mbuf`.
//!
//! A NIC gathers a frame from several descriptors, so a packet need not be
//! one contiguous buffer: its headers may sit in one link and its payload
//! in the application's own buffers behind it. [`BufChain`] is that list,
//! bounded at [`MAX_LINKS`] like a device's `nb_seg_max`. A chain never
//! holds an empty link.
//!
//! Most packets are one link, and a packet moves through every queue of
//! the datapath, so the head link is held inline and the others in a
//! *tail* array that only a chained packet has: tails come from a bounded
//! per-thread spare list and go back to it, so a warm datapath allocates
//! nothing for them, and a chain is 24 bytes, a buffer handle's size.

use std::cell::RefCell;
use std::fmt;

use demi_tenant::TenantId;

use crate::buffer::{DemiBuffer, HeadroomError};

/// The most links one chain holds: a header link plus four payload links,
/// which packs a depth-16 GET reply of 1 KiB values as tightly as copying
/// would (a piece of at least MSS/2 and the gathered runs around it, or
/// the rest of a split one). A device constant, like a NIC's
/// `nb_seg_max`, not a knob.
pub const MAX_LINKS: usize = 5;

/// Spare tails a thread keeps; one more is freed.
const MAX_SPARE_TAILS: usize = 1024;

/// Links 2 to [`MAX_LINKS`] of a chained packet, a prefix of the array.
type Links = [Option<DemiBuffer>; MAX_LINKS];
type Tail = Box<[Option<DemiBuffer>; MAX_LINKS - 1]>;

thread_local! {
    /// Emptied tails, for the next chained packet on the thread.
    static SPARE_TAILS: RefCell<Vec<Tail>> = const { RefCell::new(Vec::new()) };
}

/// A packet's bytes as up to [`MAX_LINKS`] views, in order.
#[derive(Default)]
pub struct BufChain {
    head: Option<DemiBuffer>,
    /// The rest of the links; `None` for a chain of at most one.
    tail: Option<Tail>,
}

/// An empty tail: a spare one if the thread keeps one.
fn spare_tail() -> Tail {
    let spare = SPARE_TAILS.try_with(|spare| spare.borrow_mut().pop());
    spare.ok().flatten().unwrap_or_default()
}

impl BufChain {
    /// An empty chain.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of links (`nb_segs`).
    #[inline]
    pub fn nb_links(&self) -> usize {
        match &self.tail {
            None => usize::from(self.head.is_some()),
            Some(tail) => 1 + tail.iter().take_while(|l| l.is_some()).count(),
        }
    }

    /// Total bytes over every link (`pkt_len`).
    #[inline]
    pub fn len(&self) -> usize {
        let head = self.head.as_ref().map_or(0, DemiBuffer::len);
        match &self.tail {
            None => head,
            Some(tail) => head + tail.iter().flatten().map(DemiBuffer::len).sum::<usize>(),
        }
    }

    /// Whether the chain holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    /// The links, in order.
    #[inline]
    pub fn links(&self) -> impl Iterator<Item = &DemiBuffer> {
        let tail = self
            .tail
            .iter()
            .flat_map(|t| t.iter().map_while(Option::as_ref));
        self.head.iter().chain(tail)
    }

    /// The tenant whose bytes the chain carries: its first non-host
    /// link's stamp (a libOS-made header link leads a tenant's payload),
    /// `TenantId::HOST` if every link is the host's.
    #[inline]
    pub fn tenant(&self) -> TenantId {
        let mut stamps = self.links().map(DemiBuffer::tenant);
        stamps.find(|t| !t.is_host()).unwrap_or(TenantId::HOST)
    }

    /// The first link: where a packet's headers live.
    #[inline]
    pub fn head(&self) -> Option<&DemiBuffer> {
        self.head.as_ref()
    }

    /// The first link, mutably.
    #[inline]
    pub fn head_mut(&mut self) -> Option<&mut DemiBuffer> {
        self.head.as_mut()
    }

    /// Appends `link` (an empty one is dropped); hands it back if the
    /// chain is full.
    #[inline]
    pub fn push(&mut self, link: DemiBuffer) -> Result<(), DemiBuffer> {
        if link.is_empty() {
            return Ok(());
        }
        if self.head.is_none() {
            self.head = Some(link);
            return Ok(());
        }
        let tail = self.tail.get_or_insert_with(spare_tail);
        match tail.iter_mut().find(|l| l.is_none()) {
            Some(free) => {
                *free = Some(link);
                Ok(())
            }
            None => Err(link),
        }
    }

    /// Moves every link out, in order, leaving the chain empty (its tail
    /// back on the spare list).
    fn take_links(&mut self) -> Links {
        let mut links = Links::default();
        links[0] = self.head.take();
        if let Some(mut tail) = self.tail.take() {
            for (to, from) in links[1..].iter_mut().zip(tail.iter_mut()) {
                *to = from.take();
            }
            recycle(tail);
        }
        links
    }

    /// Puts `links` (a prefix of `Some`s) back as the chain's links.
    fn put_links(&mut self, links: Links) {
        let mut links = links.into_iter().flatten();
        self.head = links.next();
        for link in links {
            let _ = self.push(link);
        }
    }

    /// Drops the first `n` bytes (fewer, if the chain holds fewer),
    /// releasing every link they empty.
    pub fn advance(&mut self, mut n: usize) {
        if self.tail.is_none() {
            match &mut self.head {
                Some(head) if head.len() > n => head.advance(n),
                _ => self.head = None,
            }
            return;
        }
        let mut links = self.take_links();
        let mut gone = 0;
        for link in links.iter_mut().map_while(Option::as_mut) {
            if n == 0 {
                break;
            }
            let take = n.min(link.len());
            if take == link.len() {
                gone += 1;
            } else {
                link.advance(take);
            }
            n -= take;
        }
        links[..gone].fill(None);
        links.rotate_left(gone);
        self.put_links(links);
    }

    /// Keeps only the first `len` bytes, releasing the links past them.
    pub fn truncate(&mut self, len: usize) {
        if self.tail.is_none() {
            match &mut self.head {
                Some(head) if len > 0 => head.truncate(len.min(head.len())),
                _ => self.head = None,
            }
            return;
        }
        let mut links = self.take_links();
        let mut left = len;
        for link in links.iter_mut() {
            match link {
                Some(l) if left > 0 => {
                    l.truncate(left.min(l.len()));
                    left -= l.len();
                }
                _ => *link = None,
            }
        }
        self.put_links(links);
    }

    /// The header step of a chained TX path: `write` prepends a header of
    /// at most `room` bytes onto the head link if it
    /// [`can_prepend`](DemiBuffer::can_prepend) `room`, else onto a
    /// header-only link from the copy pool put in front of the others, so
    /// no payload byte is copied. A full chain has no place for that link
    /// and is gathered into one counted copy behind `room` bytes instead.
    ///
    /// # Panics
    ///
    /// Panics if `write` takes more than `room` bytes, or on a foreign
    /// tenant's buffer.
    pub fn prepend_with(
        &mut self,
        room: usize,
        write: impl FnOnce(&mut DemiBuffer) -> Result<(), HeadroomError>,
    ) {
        let (mut head, behind) = match self.head.take() {
            Some(head) if head.can_prepend(room) => (head, None),
            head => {
                self.head = head;
                let links = self.take_links();
                if links[MAX_LINKS - 1].is_some() {
                    let len = links.iter().flatten().map(DemiBuffer::len).sum();
                    (DemiBuffer::gather(room, len, links.iter().flatten()), None)
                } else {
                    (DemiBuffer::gather(room, 0, []), Some(links))
                }
            }
        };
        // Proof: `head` can prepend `room` bytes (checked, or a fresh
        // copy-pool link with exactly that headroom), and `write` takes at
        // most `room`.
        write(&mut head).expect("room for the header was ensured above");
        self.head = Some(head);
        // A header link's payload goes behind it (there is room: the
        // chain was not full).
        for link in behind.into_iter().flatten().flatten() {
            let _ = self.push(link);
        }
    }

    /// Every byte, copied into a fresh vector (counted).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for link in self.links() {
            out.extend_from_slice(link);
        }
        crate::counters::note_copy(out.len());
        out
    }

    /// The one link's bytes, when the chain is flat (`&[]` when empty);
    /// `None` for a multi-link chain.
    #[inline]
    pub fn as_flat(&self) -> Option<&[u8]> {
        match (&self.head, &self.tail) {
            (None, _) => Some(&[]),
            (Some(head), None) => Some(head),
            _ => None,
        }
    }
}

/// Returns an emptied tail to the spare list (or frees it).
fn recycle(tail: Tail) {
    debug_assert!(tail.iter().all(Option::is_none));
    let _ = SPARE_TAILS.try_with(|spare| {
        let mut spare = spare.borrow_mut();
        if spare.len() < MAX_SPARE_TAILS {
            spare.push(tail);
        }
    });
}

impl Drop for BufChain {
    #[inline]
    fn drop(&mut self) {
        if let Some(mut tail) = self.tail.take() {
            tail.iter_mut().for_each(|link| drop(link.take()));
            recycle(tail);
        }
    }
}

impl Clone for BufChain {
    /// Clones the handles, not the bytes (a tail from the spare list).
    #[inline]
    fn clone(&self) -> Self {
        let mut chain = BufChain {
            head: self.head.clone(),
            tail: None,
        };
        for link in self.links().skip(1) {
            let _ = chain.push(link.clone());
        }
        chain
    }
}

impl From<DemiBuffer> for BufChain {
    /// A one-link chain (no link for an empty buffer).
    #[inline]
    fn from(link: DemiBuffer) -> Self {
        let head = (!link.is_empty()).then_some(link);
        BufChain { head, tail: None }
    }
}

impl From<Vec<u8>> for BufChain {
    /// A one-link chain over the vector's storage (no byte copy).
    fn from(bytes: Vec<u8>) -> Self {
        Self::from(DemiBuffer::from(bytes))
    }
}

impl IntoIterator for BufChain {
    type Item = DemiBuffer;
    type IntoIter = IntoLinks;

    #[inline]
    fn into_iter(mut self) -> IntoLinks {
        IntoLinks {
            head: self.head.take(),
            tail: self.tail.take(),
            next: 0,
        }
    }
}

/// A chain's links by value, in order; a chained packet's tail goes back
/// to the spare list when the iterator drops.
pub struct IntoLinks {
    head: Option<DemiBuffer>,
    tail: Option<Tail>,
    next: usize,
}

impl Iterator for IntoLinks {
    type Item = DemiBuffer;

    #[inline]
    fn next(&mut self) -> Option<DemiBuffer> {
        if let Some(head) = self.head.take() {
            return Some(head);
        }
        let link = self.tail.as_mut()?.get_mut(self.next)?.take();
        self.next += 1;
        link
    }
}

impl Drop for IntoLinks {
    #[inline]
    fn drop(&mut self) {
        if let Some(mut tail) = self.tail.take() {
            tail.iter_mut().for_each(|link| drop(link.take()));
            recycle(tail);
        }
    }
}

impl PartialEq for BufChain {
    /// Byte equality, however the bytes are split into links.
    fn eq(&self, other: &Self) -> bool {
        let mine = self.links().flat_map(|l| l.as_slice());
        self.len() == other.len() && mine.eq(other.links().flat_map(|l| l.as_slice()))
    }
}
impl Eq for BufChain {}

impl PartialEq<[u8]> for BufChain {
    fn eq(&self, mut other: &[u8]) -> bool {
        for link in self.links() {
            let Some((here, rest)) = other.split_at_checked(link.len()) else {
                return false;
            };
            if link.as_slice() != here {
                return false;
            }
            other = rest;
        }
        other.is_empty()
    }
}

impl PartialEq<Vec<u8>> for BufChain {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self == other[..]
    }
}

impl fmt::Debug for BufChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.links()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(parts: &[&[u8]]) -> BufChain {
        let mut chain = BufChain::new();
        for part in parts {
            chain.push(DemiBuffer::from_slice(part)).unwrap();
        }
        chain
    }

    #[test]
    fn empty_links_are_never_held_and_the_bound_holds() {
        let mut c = chain(&[b"ab", b"", b"cd"]);
        assert_eq!((c.nb_links(), c.len()), (2, 4));
        for _ in 2..MAX_LINKS {
            c.push(DemiBuffer::from_slice(b"x")).unwrap();
        }
        assert_eq!(c.nb_links(), MAX_LINKS);
        assert!(c.push(DemiBuffer::from_slice(b"y")).is_err());
        assert!(
            c.push(DemiBuffer::empty()).is_ok(),
            "an empty link is no link"
        );
    }

    #[test]
    fn advance_and_truncate_cross_link_boundaries() {
        let mut c = chain(&[b"abc", b"defg", b"hi"]);
        c.advance(4);
        assert_eq!(c, b"efghi".to_vec());
        assert_eq!(c.nb_links(), 2);
        c.truncate(2);
        assert_eq!(c, b"ef".to_vec());
        assert_eq!(c.nb_links(), 1);
        c.advance(9);
        assert!(c.is_empty());
        assert_eq!(c.as_flat(), Some(&[][..]));
    }

    #[test]
    fn a_header_goes_in_place_or_on_its_own_link_never_on_a_payload_copy() {
        let write = |b: &mut DemiBuffer| b.prepend(2).map(|h| h.copy_from_slice(b"HH"));
        // In place: the head has the headroom and no view below.
        let mut head = DemiBuffer::zeroed_with_headroom(8, 3);
        head.try_mut().unwrap().copy_from_slice(b"abc");
        let mut c = BufChain::from(head);
        c.push(DemiBuffer::from_slice(b"de")).unwrap();
        c.prepend_with(8, write);
        assert_eq!((c.nb_links(), c.to_vec()), (2, b"HHabcde".to_vec()));
        // A slice with no headroom gets a header link; nothing is copied.
        let big = DemiBuffer::from_slice(b"0123456789");
        let mut c = BufChain::from(big.slice(4, 10));
        let before = crate::counters::snapshot();
        c.prepend_with(8, write);
        let copied = crate::counters::snapshot().delta(&before).bytes_copied;
        assert_eq!((c.nb_links(), copied), (2, 0));
        assert!(c.links().nth(1).unwrap().same_storage(&big));
        assert_eq!(c, b"HH456789".to_vec());
        // An empty chain is one header-only link.
        let mut c = BufChain::new();
        c.prepend_with(8, write);
        assert_eq!((c.nb_links(), c.to_vec()), (1, b"HH".to_vec()));
    }

    #[test]
    fn a_full_chain_is_gathered_behind_its_header() {
        let mut c = BufChain::new();
        for i in 0..MAX_LINKS as u8 {
            c.push(DemiBuffer::from_slice(&[b'0' + i])).unwrap();
        }
        c.prepend_with(4, |b| b.prepend(1).map(|h| h[0] = b'H'));
        let want: Vec<u8> = std::iter::once(b'H')
            .chain((0..MAX_LINKS as u8).map(|i| b'0' + i))
            .collect();
        assert_eq!((c.nb_links(), c.to_vec()), (1, want));
    }
}
