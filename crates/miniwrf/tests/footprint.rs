//! Heap footprint of the solver state, counted by a global allocator.
//!
//! Each `ShallowWater` holds one copy of each prognostic field `h/hu/hv`
//! and steps it in place; a step may allocate per-band row buffers but no
//! field. These tests count live heap bytes so a second field set (a
//! next-state copy, or a field-sized temporary per step) cannot come back
//! unnoticed. The counting allocator needs `unsafe`, so it lives in this
//! test binary; the library stays `forbid(unsafe_code)`.

use nestwx_miniwrf::nest::NestGeometry;
use nestwx_miniwrf::runtime::step_parallel;
use nestwx_miniwrf::solver::{Boundary, ShallowWater};
use nestwx_miniwrf::NestedModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;

/// Forwards to `System`, keeping the live byte count and its peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), SeqCst) + layout.size();
            PEAK.fetch_max(live, SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Tests run on parallel threads and share the counters: one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Bytes of one stored field (interior plus the one-cell halo ring).
fn field_bytes(nx: usize, ny: usize) -> usize {
    (nx + 2) * (ny + 2) * std::mem::size_of::<f64>()
}

#[test]
fn model_holds_three_fields_per_solver() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The benchmark's `miniwrf_solve` shape: a 286×307 parent at 24 km
    // with 240×240 and 180×210 refine-3 nests.
    let geo = |offset, nx, ny| NestGeometry {
        ratio: 3,
        offset,
        nx,
        ny,
    };
    let geos = [geo((20, 30), 240, 240), geo((150, 160), 180, 210)];
    let before = LIVE.load(SeqCst);
    let mut model = NestedModel::new(286, 307, 24_000.0, 100.0, &geos);
    model.add_depression(60.0, 70.0, -4.0, 2.5);
    model.add_depression(180.0, 195.0, -5.0, 3.0);
    let live = LIVE.load(SeqCst) - before;
    let fields = 3 * (field_bytes(286, 307) + field_bytes(240, 240) + field_bytes(180, 210));
    assert!(
        live as f64 <= 1.05 * fields as f64,
        "model holds {live} B on the heap, more than 3 fields per solver ({fields} B) + 5 %"
    );
}

#[test]
fn a_parallel_step_allocates_no_field() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut sw = ShallowWater::quiescent(240, 240, 1000.0, 100.0, Boundary::ZeroGradient);
    sw.add_gaussian(120.0, 120.0, -5.0, 8.0);
    let before = LIVE.load(SeqCst);
    PEAK.store(before, SeqCst);
    step_parallel(&mut sw, 2);
    let raised = PEAK.load(SeqCst) - before;
    let field = field_bytes(240, 240);
    assert!(
        raised < field,
        "a two-band step raised live heap by {raised} B, one field is {field} B"
    );
    assert_eq!(sw.steps, 1);
}
