//! Role-keyed arena of reusable scratch buffers.

use xct_fp16::F16;

/// What a scratch buffer is used for. Roles keep concurrent users of the
/// same scalar type from trampling each other: taking a role removes the
/// buffer from the pool until it is put back, and two simultaneous takes
/// of one role simply yield two buffers (the pool is a multiset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BufferRole {
    /// Quantized kernel input (precision staging).
    QuantIn,
    /// Quantized kernel output (precision staging).
    QuantOut,
    /// Kernel input staged once per launch (widened to compute
    /// precision, fusing-contiguous `xt[c*fusing + f]`).
    KernelInput,
    /// Kernel accumulators (per-block `acc[thread][FFACTOR]`).
    KernelAcc,
    /// Kernel shared-memory staging (per-block gather buffer; element
    /// type and layout are the block body's).
    KernelShared,
    /// Kernel per-block output staging (pre-scatter).
    KernelOut,
    /// CG residual `r`.
    CgResidual,
    /// CG normal-equations gradient `s = Aᵀr`.
    CgNormal,
    /// CG search direction `p`.
    CgDirection,
    /// CG projected direction `q = Ap`.
    CgProjected,
    /// CG projected gradient `t = As`.
    CgProjectedNormal,
    /// Row-scaling vector (SIRT `R⁻¹`).
    RowScale,
    /// Column-scaling vector (SIRT `C⁻¹`).
    ColScale,
    /// Matrix-free probe vector (ones, power-iteration state).
    Probe,
    /// Forward projection of the current iterate (`A·x`).
    Forward,
    /// Per-iteration update/backprojection buffer.
    Update,
    /// Distributed partial-footprint values.
    Footprint,
}

/// Buffers of one scalar type, keyed by role. Linear scan — pools hold a
/// handful of entries, and the entry vector itself retains capacity so
/// steady-state take/put cycles never allocate.
#[derive(Debug, Default)]
pub struct RolePool<T> {
    entries: Vec<(BufferRole, Vec<T>)>,
}

impl<T> RolePool<T> {
    fn take_role(&mut self, role: BufferRole) -> Option<Vec<T>> {
        let at = self.entries.iter().position(|(r, _)| *r == role)?;
        Some(self.entries.swap_remove(at).1)
    }

    fn put_role(&mut self, role: BufferRole, buf: Vec<T>) {
        self.entries.push((role, buf));
    }

    fn resident_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(_, b)| b.capacity() * std::mem::size_of::<T>())
            .sum()
    }
}

/// Scalar types the workspace pools. The trait routes a generic
/// `take::<T>` to the right typed pool.
pub trait WorkspaceScalar: Clone + Send + 'static {
    /// The all-zeros fill value buffers are reset to on take.
    fn zero_value() -> Self;
    /// The pool for this scalar inside `ws`.
    fn pool(ws: &mut Workspace) -> &mut RolePool<Self>;
    /// Read-only pool access (for accounting).
    fn pool_ref(ws: &Workspace) -> &RolePool<Self>;
}

macro_rules! workspace_scalar {
    ($($t:ty => $field:ident, $zero:expr;)*) => {$(
        impl WorkspaceScalar for $t {
            fn zero_value() -> Self {
                $zero
            }
            fn pool(ws: &mut Workspace) -> &mut RolePool<Self> {
                &mut ws.$field
            }
            fn pool_ref(ws: &Workspace) -> &RolePool<Self> {
                &ws.$field
            }
        }
    )*};
}

workspace_scalar! {
    f32 => pool_f32, 0.0;
    f64 => pool_f64, 0.0;
    F16 => pool_f16, F16::ZERO;
    u8 => pool_u8, 0;
    u32 => pool_u32, 0;
}

/// Arena of reusable scratch buffers.
///
/// `take` hands out a zero-filled buffer of the requested length,
/// recycling capacity from earlier iterations; `put` returns it for the
/// next round. After warm-up (the first iteration through a loop), a
/// stable take/put pattern performs no heap allocation — the property the
/// root `alloc_free` integration test pins down.
#[derive(Debug, Default)]
pub struct Workspace {
    pool_f32: RolePool<f32>,
    pool_f64: RolePool<f64>,
    pool_f16: RolePool<F16>,
    pool_u8: RolePool<u8>,
    pool_u32: RolePool<u32>,
    alloc_events: u64,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the buffer registered under `role` (or a fresh one), reset
    /// to `len` zeros. Grows — and counts an allocation event — only when
    /// the recycled capacity is insufficient.
    pub fn take<T: WorkspaceScalar>(&mut self, role: BufferRole, len: usize) -> Vec<T> {
        let mut buf = T::pool(self).take_role(role).unwrap_or_default();
        if buf.capacity() < len {
            self.alloc_events += 1;
        }
        buf.clear();
        buf.resize(len, T::zero_value());
        buf
    }

    /// Like [`take`](Self::take) but leaves the contents untouched beyond
    /// resizing (for buffers the caller fully overwrites anyway — skips
    /// the O(len) zero fill).
    pub fn take_uninit<T: WorkspaceScalar>(&mut self, role: BufferRole, len: usize) -> Vec<T> {
        let mut buf = T::pool(self).take_role(role).unwrap_or_default();
        if buf.capacity() < len {
            self.alloc_events += 1;
        }
        buf.resize(len, T::zero_value());
        buf.truncate(len);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put<T: WorkspaceScalar>(&mut self, role: BufferRole, buf: Vec<T>) {
        T::pool(self).put_role(role, buf);
    }

    /// Number of times `take` had to allocate or grow a buffer. Constant
    /// across iterations once the workspace is warm.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Total heap bytes currently parked in the pools.
    pub fn resident_bytes(&self) -> usize {
        self.pool_f32.resident_bytes()
            + self.pool_f64.resident_bytes()
            + self.pool_f16.resident_bytes()
            + self.pool_u8.resident_bytes()
            + self.pool_u32.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffer_of_requested_len() {
        let mut ws = Workspace::new();
        let mut buf: Vec<f32> = ws.take(BufferRole::CgResidual, 8);
        assert_eq!(buf, vec![0.0f32; 8]);
        buf.iter_mut().for_each(|v| *v = 7.0);
        ws.put(BufferRole::CgResidual, buf);
        let again: Vec<f32> = ws.take(BufferRole::CgResidual, 8);
        assert_eq!(again, vec![0.0f32; 8], "recycled buffer must be re-zeroed");
    }

    #[test]
    fn capacity_is_recycled_without_new_alloc_events() {
        let mut ws = Workspace::new();
        let buf: Vec<f64> = ws.take(BufferRole::QuantIn, 100);
        assert_eq!(ws.alloc_events(), 1);
        ws.put(BufferRole::QuantIn, buf);
        // Smaller and equal requests reuse capacity.
        let buf: Vec<f64> = ws.take(BufferRole::QuantIn, 50);
        ws.put(BufferRole::QuantIn, buf);
        let buf: Vec<f64> = ws.take(BufferRole::QuantIn, 100);
        ws.put(BufferRole::QuantIn, buf);
        assert_eq!(ws.alloc_events(), 1);
        // A larger request grows once.
        let buf: Vec<f64> = ws.take(BufferRole::QuantIn, 200);
        ws.put(BufferRole::QuantIn, buf);
        assert_eq!(ws.alloc_events(), 2);
    }

    #[test]
    fn roles_and_types_do_not_collide() {
        let mut ws = Workspace::new();
        let a: Vec<f32> = ws.take(BufferRole::CgResidual, 4);
        let b: Vec<f32> = ws.take(BufferRole::CgNormal, 4);
        let c: Vec<F16> = ws.take(BufferRole::CgResidual, 4);
        ws.put(BufferRole::CgResidual, a);
        ws.put(BufferRole::CgNormal, b);
        ws.put(BufferRole::CgResidual, c);
        assert_eq!(ws.alloc_events(), 3);
    }

    #[test]
    fn double_take_of_one_role_yields_two_buffers() {
        let mut ws = Workspace::new();
        let a: Vec<u8> = ws.take(BufferRole::Footprint, 16);
        let b: Vec<u8> = ws.take(BufferRole::Footprint, 16);
        assert_eq!(ws.alloc_events(), 2);
        ws.put(BufferRole::Footprint, a);
        ws.put(BufferRole::Footprint, b);
        // Steady state: both recycled.
        let a: Vec<u8> = ws.take(BufferRole::Footprint, 16);
        let b: Vec<u8> = ws.take(BufferRole::Footprint, 16);
        assert_eq!(ws.alloc_events(), 2);
        ws.put(BufferRole::Footprint, a);
        ws.put(BufferRole::Footprint, b);
    }

    #[test]
    fn resident_bytes_reflects_capacity() {
        let mut ws = Workspace::new();
        let buf: Vec<f64> = ws.take(BufferRole::Probe, 64);
        ws.put(BufferRole::Probe, buf);
        assert!(ws.resident_bytes() >= 64 * 8);
    }
}
