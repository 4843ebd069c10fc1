//! Native (lower-half) blocking collectives, implemented over the internal
//! tag space of the fabric.
//!
//! Semantics follow MPI-3.1 §5: collectives are *synchronizing but not
//! necessarily blocking barriers*. In particular the binomial-tree
//! `bcast` lets the root deposit its tree messages and return before any
//! receiver arrives — the exact behaviour whose loss (when the original
//! MANA prepended a barrier) causes both the slowdown of paper §III-D and
//! the deadlock of §III-E.

use crate::comm::Comm;
use crate::datatype::Datatype;
use crate::envelope::{MsgClass, INTERNAL_TAG_BIT};
use crate::error::{MpiError, Result};
use crate::group::Group;
use crate::op::{reduce_bytes, ReduceOp};
use crate::proc_::Proc;
use crate::stats::CollKind;

/// Internal-tag encoding: bit 30 = internal, bits 24..29 = kind,
/// bits 0..23 = collective sequence number on the communicator.
fn itag(kind: CollKind, seq: u64) -> i32 {
    INTERNAL_TAG_BIT | ((kind as i32) << 24) | ((seq as i32) & 0x00FF_FFFF)
}

/// Frame a list of chunks into one buffer: `[count][len_0..len_{k-1}][bytes…]`,
/// all lengths little-endian u64.
pub fn frame_chunks(chunks: &[Vec<u8>]) -> Vec<u8> {
    frame(chunks.iter().map(Vec::as_slice))
}

/// [`frame_chunks`] over borrowed chunks, so a frame can be built from
/// slices of other frames without copying each chunk out first.
fn frame<'a>(chunks: impl Iterator<Item = &'a [u8]> + Clone) -> Vec<u8> {
    let (count, total) = chunks
        .clone()
        .fold((0usize, 0usize), |(k, t), c| (k + 1, t + c.len()));
    let mut out = Vec::with_capacity(8 * (1 + count) + total);
    out.extend_from_slice(&(count as u64).to_le_bytes());
    for c in chunks.clone() {
        out.extend_from_slice(&(c.len() as u64).to_le_bytes());
    }
    for c in chunks {
        out.extend_from_slice(c);
    }
    out
}

/// Inverse of [`frame_chunks`].
pub fn unframe_chunks(buf: &[u8]) -> Result<Vec<Vec<u8>>> {
    Ok(unframe(buf)?.into_iter().map(<[u8]>::to_vec).collect())
}

/// [`unframe_chunks`] as slices of `buf`. The count and every length come
/// from the buffer itself, so each is checked against the bytes present
/// before it is used: every chunk needs its 8-byte length word, which
/// bounds the count by `(len − 8) / 8` before anything is reserved.
fn unframe(buf: &[u8]) -> Result<Vec<&[u8]>> {
    let fail = || MpiError::LengthMismatch {
        expected: 8,
        got: buf.len(),
    };
    let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
    if buf.len() < 8 {
        return Err(fail());
    }
    let count = usize::try_from(word(0))
        .ok()
        .filter(|&c| c <= (buf.len() - 8) / 8)
        .ok_or_else(fail)?;
    let mut out = Vec::with_capacity(count);
    let mut off = 8 + 8 * count;
    for i in 0..count {
        let end = usize::try_from(word(8 + 8 * i))
            .ok()
            .and_then(|l| off.checked_add(l))
            .filter(|&end| end <= buf.len())
            .ok_or_else(fail)?;
        out.push(&buf[off..end]);
        off = end;
    }
    Ok(out)
}

impl Proc {
    /// Resolve `comm` to (group, my local rank, size).
    fn coll_ctx(&self, comm: Comm) -> Result<(Group, usize, usize)> {
        let g = self.group_of(comm)?;
        let me = g.local_rank(self.rank()).ok_or(MpiError::InvalidRank {
            rank: self.rank(),
            size: g.size(),
        })?;
        let n = g.size();
        Ok((g, me, n))
    }

    fn coll_send(
        &self,
        comm: Comm,
        group: &Group,
        dst_local: usize,
        tag: i32,
        data: &[u8],
    ) -> Result<()> {
        debug_assert!(group.world_rank(dst_local).is_ok());
        let r = self.isend_class(comm, dst_local, tag, data, MsgClass::Internal)?;
        self.wait(r)?;
        Ok(())
    }

    fn coll_recv(&self, comm: Comm, group: &Group, src_local: usize, tag: i32) -> Result<Vec<u8>> {
        let src_world = group.world_rank(src_local)?;
        let req = self.irecv_internal(comm.ctx(), Some(src_world), tag);
        Ok(self.wait(req)?.data)
    }

    /// `MPI_Barrier`: dissemination algorithm, ⌈log₂ n⌉ rounds.
    pub fn barrier(&self, comm: Comm) -> Result<()> {
        let (group, me, n) = self.coll_ctx(comm)?;
        self.record(CollKind::Barrier);
        let seq = self.next_coll_seq(comm.ctx());
        if n == 1 {
            return Ok(());
        }
        let tag = itag(CollKind::Barrier, seq);
        let mut k = 1usize;
        while k < n {
            let dst = (me + k) % n;
            let src = (me + n - k) % n;
            self.coll_send(comm, &group, dst, tag, &[])?;
            self.coll_recv(comm, &group, src, tag)?;
            k <<= 1;
        }
        Ok(())
    }

    /// `MPI_Bcast`: binomial tree. On the root, `data` is the message; on
    /// other ranks it is replaced by the received payload. The root returns
    /// as soon as its sends are deposited (it does **not** wait for
    /// receivers).
    pub fn bcast(&self, comm: Comm, root: usize, data: &mut Vec<u8>) -> Result<()> {
        self.record(CollKind::Bcast);
        self.bcast_impl(comm, root, data, CollKind::Bcast)
    }

    pub(crate) fn bcast_impl(
        &self,
        comm: Comm,
        root: usize,
        data: &mut Vec<u8>,
        kind: CollKind,
    ) -> Result<()> {
        let (group, me, n) = self.coll_ctx(comm)?;
        if root >= n {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: n,
            });
        }
        let seq = self.next_coll_seq(comm.ctx());
        if n == 1 {
            return Ok(());
        }
        let tag = itag(kind, seq);
        let relative = (me + n - root) % n;
        // Receive from parent (non-roots).
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let parent = ((relative - mask) + root) % n;
                *data = self.coll_recv(comm, &group, parent, tag)?;
                break;
            }
            mask <<= 1;
        }
        // Relay to children: all bits below the receive position. (For every
        // node the loop above exits at its lowest set bit, so lower bits of
        // `relative` are zero and each `relative + mask` is a real child.)
        mask >>= 1;
        while mask > 0 {
            if relative + mask < n {
                let child = (relative + mask + root) % n;
                self.coll_send(comm, &group, child, tag, data)?;
            }
            mask >>= 1;
        }
        Ok(())
    }

    /// `MPI_Reduce`: binomial tree to `root`; returns `Some(result)` on the
    /// root, `None` elsewhere.
    pub fn reduce(
        &self,
        comm: Comm,
        root: usize,
        dt: Datatype,
        op: ReduceOp,
        contrib: &[u8],
    ) -> Result<Option<Vec<u8>>> {
        self.record(CollKind::Reduce);
        self.reduce_impl(comm, root, dt, op, contrib, CollKind::Reduce)
    }

    pub(crate) fn reduce_impl(
        &self,
        comm: Comm,
        root: usize,
        dt: Datatype,
        op: ReduceOp,
        contrib: &[u8],
        kind: CollKind,
    ) -> Result<Option<Vec<u8>>> {
        let (group, me, n) = self.coll_ctx(comm)?;
        if root >= n {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: n,
            });
        }
        dt.check_len(contrib.len())?;
        let seq = self.next_coll_seq(comm.ctx());
        let mut acc = contrib.to_vec();
        if n == 1 {
            return Ok(Some(acc));
        }
        let tag = itag(kind, seq);
        let relative = (me + n - root) % n;
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let parent = ((relative - mask) + root) % n;
                self.coll_send(comm, &group, parent, tag, &acc)?;
                return Ok(None);
            } else {
                let child = relative + mask;
                if child < n {
                    let child_rank = (child + root) % n;
                    let part = self.coll_recv(comm, &group, child_rank, tag)?;
                    reduce_bytes(dt, op, &mut acc, &part)?;
                }
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    /// `MPI_Allreduce`: reduce to local rank 0, then broadcast.
    pub fn allreduce(
        &self,
        comm: Comm,
        dt: Datatype,
        op: ReduceOp,
        contrib: &[u8],
    ) -> Result<Vec<u8>> {
        self.record(CollKind::Allreduce);
        let part = self.reduce_impl(comm, 0, dt, op, contrib, CollKind::Allreduce)?;
        let mut data = part.unwrap_or_default();
        self.bcast_impl(comm, 0, &mut data, CollKind::Allreduce)?;
        Ok(data)
    }

    /// `MPI_Alltoall` with per-destination byte chunks (`chunks[i]` goes to
    /// local rank `i`; the result's `out[j]` came from local rank `j`).
    /// This is the call MANA-2.0's drain uses to exchange per-pair send
    /// counts at checkpoint time (§III-B).
    ///
    /// Gather/scatter through local rank 0: every other rank sends its
    /// framed row once and waits once for its framed column, and rank 0
    /// takes the rows in arrival order and frames each column from slices
    /// of them: 2(n − 1) messages, and one park per non-root rank.
    pub fn alltoall(&self, comm: Comm, chunks: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let (group, me, n) = self.coll_ctx(comm)?;
        self.record(CollKind::Alltoall);
        let seq = self.next_coll_seq(comm.ctx());
        let sized = |got: usize| {
            if got == n {
                Ok(())
            } else {
                Err(MpiError::LengthMismatch { expected: n, got })
            }
        };
        sized(chunks.len())?;
        let tag = itag(CollKind::Alltoall, seq);
        if me != 0 {
            self.coll_send(comm, &group, 0, tag, &frame_chunks(chunks))?;
            let out = unframe_chunks(&self.coll_recv(comm, &group, 0, tag)?)?;
            sized(out.len())?;
            return Ok(out);
        }
        // Any source, but only this call's tag: internal tags never match
        // a user wildcard receive, and the sequence number in the tag keeps
        // a later alltoall's rows on this communicator apart.
        let mut framed = vec![Vec::new(); n];
        for _ in 1..n {
            let req = self.irecv_internal(comm.ctx(), None, tag);
            let got = self.wait(req)?;
            framed[got.status.source] = got.data;
        }
        let mut rows = Vec::with_capacity(n);
        rows.push(chunks.iter().map(Vec::as_slice).collect::<Vec<_>>());
        for buf in &framed[1..] {
            let row = unframe(buf)?;
            sized(row.len())?;
            rows.push(row);
        }
        for dst in 1..n {
            let column = frame(rows.iter().map(|row| row[dst]));
            self.coll_send(comm, &group, dst, tag, &column)?;
        }
        Ok(rows.iter().map(|row| row[0].to_vec()).collect())
    }

    /// `MPI_Gather`: returns `Some(vec of per-rank chunks)` on the root.
    pub fn gather(&self, comm: Comm, root: usize, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        self.record(CollKind::Gather);
        self.gather_impl(comm, root, data, CollKind::Gather)
    }

    pub(crate) fn gather_impl(
        &self,
        comm: Comm,
        root: usize,
        data: &[u8],
        kind: CollKind,
    ) -> Result<Option<Vec<Vec<u8>>>> {
        let (group, me, n) = self.coll_ctx(comm)?;
        if root >= n {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: n,
            });
        }
        let seq = self.next_coll_seq(comm.ctx());
        let tag = itag(kind, seq);
        if me == root {
            let mut out = vec![Vec::new(); n];
            out[me] = data.to_vec();
            for (r, slot) in out.iter_mut().enumerate() {
                if r != root {
                    *slot = self.coll_recv(comm, &group, r, tag)?;
                }
            }
            Ok(Some(out))
        } else {
            self.coll_send(comm, &group, root, tag, data)?;
            Ok(None)
        }
    }

    /// `MPI_Scatter`: the root supplies one chunk per rank; every rank
    /// returns its own chunk.
    pub fn scatter(&self, comm: Comm, root: usize, chunks: Option<&[Vec<u8>]>) -> Result<Vec<u8>> {
        self.record(CollKind::Scatter);
        self.scatter_impl(comm, root, chunks, CollKind::Scatter)
    }

    pub(crate) fn scatter_impl(
        &self,
        comm: Comm,
        root: usize,
        chunks: Option<&[Vec<u8>]>,
        kind: CollKind,
    ) -> Result<Vec<u8>> {
        let (group, me, n) = self.coll_ctx(comm)?;
        if root >= n {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: n,
            });
        }
        let seq = self.next_coll_seq(comm.ctx());
        let tag = itag(kind, seq);
        if me == root {
            let chunks = chunks.ok_or(MpiError::LengthMismatch {
                expected: n,
                got: 0,
            })?;
            if chunks.len() != n {
                return Err(MpiError::LengthMismatch {
                    expected: n,
                    got: chunks.len(),
                });
            }
            for (r, chunk) in chunks.iter().enumerate() {
                if r != root {
                    self.coll_send(comm, &group, r, tag, chunk)?;
                }
            }
            Ok(chunks[me].clone())
        } else {
            self.coll_recv(comm, &group, root, tag)
        }
    }

    /// `MPI_Allgather`: every rank receives every rank's chunk, in rank
    /// order. Implemented as gather-to-0 plus a framed bcast.
    pub fn allgather(&self, comm: Comm, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        self.record(CollKind::Allgather);
        let gathered = self.gather_impl(comm, 0, data, CollKind::Allgather)?;
        let mut framed = gathered.map(|c| frame_chunks(&c)).unwrap_or_default();
        self.bcast_impl(comm, 0, &mut framed, CollKind::Allgather)?;
        unframe_chunks(&framed)
    }

    /// `MPI_Scan` (inclusive): linear chain.
    pub fn scan(&self, comm: Comm, dt: Datatype, op: ReduceOp, contrib: &[u8]) -> Result<Vec<u8>> {
        let (group, me, n) = self.coll_ctx(comm)?;
        self.record(CollKind::Scan);
        dt.check_len(contrib.len())?;
        let seq = self.next_coll_seq(comm.ctx());
        let tag = itag(CollKind::Scan, seq);
        let mut acc = contrib.to_vec();
        if me > 0 {
            let prev = self.coll_recv(comm, &group, me - 1, tag)?;
            reduce_bytes(dt, op, &mut acc, &prev)?;
        }
        if me + 1 < n {
            self.coll_send(comm, &group, me + 1, tag, &acc)?;
        }
        Ok(acc)
    }

    /// `MPI_Comm_split`: gather (color,key) at local rank 0 of the parent,
    /// partition, scatter member lists back, then rendezvous-create each
    /// sub-communicator. `color < 0` acts as `MPI_UNDEFINED` → `None`.
    pub fn comm_split(&self, comm: Comm, color: i32, key: i32) -> Result<Option<Comm>> {
        // Membership is validated by coll_ctx; only the size is needed here.
        let (_group, _me, n) = self.coll_ctx(comm)?;
        let split_seq = self.next_coll_seq(comm.ctx());
        // Encode (color, key, world_rank) as 3 little-endian i64.
        let mut payload = Vec::with_capacity(24);
        payload.extend_from_slice(&(color as i64).to_le_bytes());
        payload.extend_from_slice(&(key as i64).to_le_bytes());
        payload.extend_from_slice(&(self.rank() as i64).to_le_bytes());
        let gathered = self.gather_impl(comm, 0, &payload, CollKind::Gather)?;
        let lists: Option<Vec<Vec<u8>>> = match gathered {
            None => None,
            Some(entries) => {
                // (color, key, parent_local, world)
                let mut rows: Vec<(i64, i64, usize, usize)> = Vec::with_capacity(n);
                for (local, e) in entries.iter().enumerate() {
                    let c = i64::from_le_bytes(e[0..8].try_into().unwrap());
                    let k = i64::from_le_bytes(e[8..16].try_into().unwrap());
                    let w = i64::from_le_bytes(e[16..24].try_into().unwrap()) as usize;
                    rows.push((c, k, local, w));
                }
                // Stable partition: per color, order by (key, parent local rank).
                let mut lists = vec![Vec::new(); n];
                let mut colors: Vec<i64> = rows.iter().map(|r| r.0).filter(|&c| c >= 0).collect();
                colors.sort_unstable();
                colors.dedup();
                for c in colors {
                    let mut members: Vec<&(i64, i64, usize, usize)> =
                        rows.iter().filter(|r| r.0 == c).collect();
                    members.sort_by_key(|r| (r.1, r.2));
                    let world_ranks: Vec<usize> = members.iter().map(|r| r.3).collect();
                    let mut encoded = Vec::with_capacity(8 * (1 + world_ranks.len()));
                    encoded.extend_from_slice(&(world_ranks.len() as u64).to_le_bytes());
                    for w in &world_ranks {
                        encoded.extend_from_slice(&(*w as u64).to_le_bytes());
                    }
                    for m in members {
                        lists[m.2] = encoded.clone();
                    }
                }
                Some(lists)
            }
        };
        let mine = self.scatter_impl(comm, 0, lists.as_deref(), CollKind::Scatter)?;
        if mine.is_empty() {
            return Ok(None); // MPI_UNDEFINED
        }
        let count = u64::from_le_bytes(mine[0..8].try_into().unwrap()) as usize;
        let mut world_ranks = Vec::with_capacity(count);
        for i in 0..count {
            let off = 8 + i * 8;
            world_ranks.push(u64::from_le_bytes(mine[off..off + 8].try_into().unwrap()) as usize);
        }
        let new_group = Group::new(world_ranks)?;
        let tag =
            crate::group::fnv1a_usizes(&[0x5B117_usize, comm.ctx() as usize, split_seq as usize]);
        Ok(Some(self.comm_create_from_group(&new_group, tag)?))
    }

    fn record(&self, kind: CollKind) {
        self.record_collective_public(kind);
    }

    /// Record a collective entry in the world statistics. Public so MANA's
    /// p2p *emulated* collectives (which never reach the native
    /// implementations) still show up in Fig. 4-style collective-rate
    /// counts.
    pub fn record_collective_public(&self, kind: CollKind) {
        self.stats_handle().record_collective(kind);
    }
}

impl Proc {
    /// `MPI_Scatterv`: root supplies variable-size chunks.
    pub fn scatterv(&self, comm: Comm, root: usize, chunks: Option<&[Vec<u8>]>) -> Result<Vec<u8>> {
        // Identical wire protocol to scatter (chunks already carry sizes).
        self.record(CollKind::Scatter);
        self.scatter_impl(comm, root, chunks, CollKind::Scatter)
    }

    /// `MPI_Gatherv`: like gather with variable-size contributions (our
    /// gather is already size-agnostic; this is the MPI-named alias that
    /// validates per-rank size variation in tests).
    pub fn gatherv(&self, comm: Comm, root: usize, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        self.record(CollKind::Gather);
        self.gather_impl(comm, root, data, CollKind::Gather)
    }

    /// `MPI_Reduce_scatter_block`: element-wise reduce of equal-sized
    /// blocks, then scatter block *i* to local rank *i*. `contrib` must be
    /// `n` blocks of `block_len` bytes each.
    pub fn reduce_scatter_block(
        &self,
        comm: Comm,
        dt: Datatype,
        op: ReduceOp,
        contrib: &[u8],
        block_len: usize,
    ) -> Result<Vec<u8>> {
        let n = self.comm_size(comm)?;
        if contrib.len() != n * block_len {
            return Err(MpiError::LengthMismatch {
                expected: n * block_len,
                got: contrib.len(),
            });
        }
        dt.check_len(block_len)?;
        let total = self.reduce_impl(comm, 0, dt, op, contrib, CollKind::Reduce)?;
        let chunks: Option<Vec<Vec<u8>>> = total.map(|t| {
            (0..n)
                .map(|i| t[i * block_len..(i + 1) * block_len].to_vec())
                .collect()
        });
        self.scatter_impl(comm, 0, chunks.as_deref(), CollKind::Scatter)
    }

    /// `MPI_Exscan` (exclusive prefix): rank 0 receives an empty buffer;
    /// rank *k* receives the reduction of ranks `0..k`.
    pub fn exscan(
        &self,
        comm: Comm,
        dt: Datatype,
        op: ReduceOp,
        contrib: &[u8],
    ) -> Result<Vec<u8>> {
        let (group, me, n) = self.coll_ctx(comm)?;
        self.record(CollKind::Scan);
        dt.check_len(contrib.len())?;
        let seq = self.next_coll_seq(comm.ctx());
        let tag = itag(CollKind::Scan, seq);
        // Linear chain carrying the inclusive prefix; each rank hands the
        // prefix *before* adding its own contribution downstream.
        let before = if me > 0 {
            self.coll_recv(comm, &group, me - 1, tag)?
        } else {
            Vec::new()
        };
        if me + 1 < n {
            let mut next = if before.is_empty() {
                contrib.to_vec()
            } else {
                let mut acc = before.clone();
                reduce_bytes(dt, op, &mut acc, contrib)?;
                acc
            };
            self.coll_send(comm, &group, me + 1, tag, &next)?;
            next.clear();
        }
        Ok(before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let chunks = vec![vec![1u8, 2], vec![], vec![9u8; 5]];
        let framed = frame_chunks(&chunks);
        assert_eq!(unframe_chunks(&framed).unwrap(), chunks);
    }

    #[test]
    fn frame_rejects_garbage() {
        assert!(unframe_chunks(&[1, 2, 3]).is_err());
        // count says 1 chunk of absurd length
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u64.to_le_bytes());
        bad.extend_from_slice(&1000u64.to_le_bytes());
        assert!(unframe_chunks(&bad).is_err());
        // A count the buffer cannot hold the length words of is refused
        // before anything is reserved.
        assert!(unframe_chunks(&u64::MAX.to_le_bytes()).is_err());
        let mut many = 3u64.to_le_bytes().to_vec();
        many.extend_from_slice(&0u64.to_le_bytes());
        many.extend_from_slice(&0u64.to_le_bytes());
        assert!(unframe_chunks(&many).is_err());
        many.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(unframe_chunks(&many).unwrap(), vec![Vec::<u8>::new(); 3]);
        // A length that overflows the offset is refused, not wrapped.
        let mut wrap = 2u64.to_le_bytes().to_vec();
        wrap.extend_from_slice(&1u64.to_le_bytes());
        wrap.extend_from_slice(&u64::MAX.to_le_bytes());
        wrap.push(7);
        assert!(unframe_chunks(&wrap).is_err());
    }

    #[test]
    fn itag_is_internal_and_distinct() {
        let a = itag(CollKind::Barrier, 0);
        let b = itag(CollKind::Barrier, 1);
        let c = itag(CollKind::Bcast, 0);
        assert!(a >= INTERNAL_TAG_BIT);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
