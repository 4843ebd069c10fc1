//! One-sided communication under MANA: virtualized `MPI_Win` objects.
//!
//! The paper lists the `MPI_Win_` family as unsupported ("on the roadmap
//! of MANA", §II-B) — VASP 6 had to disable it at compile time (§IV-B).
//! This module implements that roadmap item, following the same
//! virtualization discipline as communicators and requests (§II-C):
//!
//! * the application holds a stable [`VWin`] id; MANA maps it to the real
//!   lower-half window;
//! * window *contents* are application state: the checkpoint captures each
//!   rank's own exposed region, and restart recreates the window over the
//!   rebuilt communicator and restores the bytes;
//! * `win_fence` is routed through MANA's interruptible barrier, so a rank
//!   waiting at a fence is in checkpointable state like any other
//!   collective (and the active-target rule — no RMA in flight outside an
//!   epoch — makes the captured contents consistent).

use crate::error::{ManaError, Result};
use crate::ids::VComm;
use crate::mana::{Mana, SafePoint};
use crate::vtable::{VirtualTable, VtBackend};
use mpisim::{Datatype, ReduceOp, Win};

/// Virtual window handle stored in application memory (restart-stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VWin(pub u64);

splitproc::wire!(VWin { 0 });

/// What MANA remembers about one window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WinRecord {
    /// Virtual id.
    pub vid: u64,
    /// Communicator the window was created over (virtual — stable).
    pub vcomm: VComm,
    /// This rank's exposed-region size.
    pub local_size: usize,
    /// Freed?
    pub freed: bool,
}

splitproc::wire!(WinRecord {
    vid,
    vcomm,
    local_size,
    freed
});

/// Serializable window state: records plus this rank's region contents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WinMeta {
    /// Live records in vid order.
    pub records: Vec<WinRecord>,
    /// (vid, contents) for each live window.
    pub contents: Vec<(u64, Vec<u8>)>,
}

splitproc::wire!(WinMeta { records, contents });

/// Per-rank window manager.
pub struct WinManager {
    table: VirtualTable<Win>,
    records: std::collections::HashMap<u64, WinRecord>,
}

impl WinManager {
    /// Empty manager (vids start at 1; 0 = `MPI_WIN_NULL`).
    pub fn new(backend: VtBackend) -> Self {
        WinManager {
            table: VirtualTable::new(backend, 1),
            records: std::collections::HashMap::new(),
        }
    }

    /// Register a freshly-created real window.
    pub fn register(&mut self, vcomm: VComm, local_size: usize, real: Win) -> VWin {
        let vid = self.table.insert(real);
        self.records.insert(
            vid,
            WinRecord {
                vid,
                vcomm,
                local_size,
                freed: false,
            },
        );
        VWin(vid)
    }

    /// Virtual→real translation.
    pub fn real(&self, vw: VWin) -> Option<Win> {
        self.table.lookup(vw.0).copied()
    }

    /// Record lookup.
    pub fn record(&self, vw: VWin) -> Option<&WinRecord> {
        self.records.get(&vw.0)
    }

    /// Mark freed and drop the real binding.
    pub fn free(&mut self, vw: VWin) -> Option<Win> {
        if let Some(rec) = self.records.get_mut(&vw.0) {
            rec.freed = true;
        }
        self.table.remove(vw.0)
    }

    /// Live (not freed) records, vid order.
    pub fn live_records(&self) -> Vec<&WinRecord> {
        let mut v: Vec<&WinRecord> = self.records.values().filter(|r| !r.freed).collect();
        v.sort_by_key(|r| r.vid);
        v
    }

    /// Live binding count.
    pub fn live(&self) -> usize {
        self.table.len()
    }

    /// Rebuild from metadata (real side empty; restart rebinds).
    pub fn from_meta(meta: &WinMeta, backend: VtBackend) -> Self {
        let mut m = WinManager {
            table: VirtualTable::new(backend, 1),
            records: meta.records.iter().map(|r| (r.vid, r.clone())).collect(),
        };
        if let Some(max) = meta.records.iter().map(|r| r.vid).max() {
            m.table.reserve_through(max);
        }
        m
    }

    /// Rebind a saved vid to a fresh real window (restart).
    pub fn rebind(&mut self, vid: u64, real: Win) {
        self.table.bind(vid, real);
    }
}

impl Mana<'_> {
    fn real_win(&self, vw: VWin) -> Result<Win> {
        self.wins.real(vw).ok_or(ManaError::InvalidVComm(vw.0))
    }

    /// `MPI_Win_create`: collective over `vc`; exposes `local_size` bytes.
    pub fn win_create(&mut self, vc: VComm, local_size: usize) -> Result<VWin> {
        self.wrapper(SafePoint::Here, |m| {
            let real_comm = m.real_comm(vc)?;
            let real = m.lh.call(|p| p.win_create(real_comm, local_size))?;
            Ok(m.wins.register(vc, local_size, real))
        })
    }

    /// `MPI_Put`.
    pub fn win_put(&mut self, vw: VWin, target: usize, offset: usize, data: &[u8]) -> Result<()> {
        self.wrapper(SafePoint::No, |m| {
            let real = m.real_win(vw)?;
            Ok(m.lh.call(|p| p.win_put(real, target, offset, data))?)
        })
    }

    /// `MPI_Get`.
    pub fn win_get(
        &mut self,
        vw: VWin,
        target: usize,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>> {
        self.wrapper(SafePoint::No, |m| {
            let real = m.real_win(vw)?;
            Ok(m.lh.call(|p| p.win_get(real, target, offset, len))?)
        })
    }

    /// `MPI_Accumulate`.
    pub fn win_accumulate(
        &mut self,
        vw: VWin,
        target: usize,
        offset: usize,
        dt: Datatype,
        op: ReduceOp,
        data: &[u8],
    ) -> Result<()> {
        self.wrapper(SafePoint::No, |m| {
            let real = m.real_win(vw)?;
            Ok(m.lh.call(|p| p.win_accumulate(real, target, offset, dt, op, data))?)
        })
    }

    /// `MPI_Win_fence`: epoch boundary, via MANA's interruptible barrier
    /// (so a rank parked at a fence is checkpointable, and the
    /// active-target discipline guarantees consistent window contents at
    /// any checkpoint).
    pub fn win_fence(&mut self, vw: VWin) -> Result<()> {
        let vcomm = self
            .wins
            .record(vw)
            .ok_or(ManaError::InvalidVComm(vw.0))?
            .vcomm;
        self.barrier(vcomm)
    }

    /// `MPI_Win_free`.
    pub fn win_free(&mut self, vw: VWin) -> Result<()> {
        self.wrapper(SafePoint::No, |m| {
            let real = m.wins.free(vw).ok_or(ManaError::InvalidVComm(vw.0))?;
            Ok(m.lh.call(|p| p.win_free(real))?)
        })
    }

    /// Live window bindings (leak metric).
    pub fn live_wins(&self) -> usize {
        self.wins.live()
    }

    /// Capture window state for the checkpoint image.
    pub(crate) fn wins_to_meta(&self) -> Result<WinMeta> {
        let mut records = Vec::new();
        let mut contents = Vec::new();
        for rec in self.wins.live_records() {
            records.push(rec.clone());
            let real = self.wins.real(VWin(rec.vid)).expect("live record bound");
            let bytes = self.lh.call(|p| p.win_read_local(real))?;
            contents.push((rec.vid, bytes));
        }
        Ok(WinMeta { records, contents })
    }

    /// Rebuild windows at restart: recreate over the (already rebuilt)
    /// communicator, rebind the vid, restore this rank's region.
    pub(crate) fn restore_wins(&mut self, meta: &WinMeta) -> Result<()> {
        // Manager was already built from meta; recreate real windows in
        // vid order (creation order — consistent across members).
        for rec in meta.records.iter().filter(|r| !r.freed) {
            let real_comm = self.real_comm(rec.vcomm)?;
            let size = rec.local_size;
            let real = self.lh.call(|p| p.win_create(real_comm, size))?;
            self.wins.rebind(rec.vid, real);
            if let Some((_, bytes)) = meta.contents.iter().find(|(v, _)| *v == rec.vid) {
                let b = bytes.clone();
                self.lh.call(|p| p.win_write_local(real, b))?;
            }
            self.stats.restored_comms += 1; // counted with restored resources
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitproc::{Decode, Encode};

    #[test]
    fn manager_lifecycle() {
        let mut m = WinManager::new(VtBackend::FxHash);
        let vw = m.register(VComm(1), 64, Win::from_id(9));
        assert_eq!(m.real(vw), Some(Win::from_id(9)));
        assert_eq!(m.record(vw).unwrap().local_size, 64);
        assert_eq!(m.live_records().len(), 1);
        assert_eq!(m.free(vw), Some(Win::from_id(9)));
        assert!(m.real(vw).is_none());
        assert!(m.record(vw).unwrap().freed);
        assert!(m.live_records().is_empty());
    }

    #[test]
    fn meta_roundtrip_and_rebind() {
        let mut m = WinManager::new(VtBackend::BTree);
        let vw = m.register(VComm(3), 16, Win::from_id(2));
        let meta = WinMeta {
            records: m.live_records().into_iter().cloned().collect(),
            contents: vec![(vw.0, vec![1, 2, 3])],
        };
        let bytes = meta.to_bytes();
        let back = WinMeta::from_bytes(&bytes).unwrap();
        assert_eq!(back, meta);

        let mut restored = WinManager::from_meta(&back, VtBackend::FxHash);
        assert!(restored.real(vw).is_none());
        restored.rebind(vw.0, Win::from_id(42));
        assert_eq!(restored.real(vw), Some(Win::from_id(42)));
        // Fresh registrations allocate past restored vids.
        let fresh = restored.register(VComm(1), 8, Win::from_id(50));
        assert!(fresh.0 > vw.0);
    }
}
