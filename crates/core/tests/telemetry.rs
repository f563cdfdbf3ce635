//! Every manager reports its coalesces and splinters to the trace: the
//! migrating coalescer's promotion emits `coalesce` and its drained
//! regions emit `splinter` on deallocation, like GPU-MMU's and Mosaic's.
//! Lives outside `src/` because tracing sessions belong to the
//! experiments layer, never to cycle-level code.

use mosaic_core::{MemoryManager, MgmtEvent, MigratingConfig, MigratingManager};
use mosaic_telemetry::{Event, TraceSession};
use mosaic_vm::{AppId, LargePageNum, VirtPageNum, LARGE_PAGE_SIZE};

#[test]
fn migrating_promotion_and_dealloc_emit_coalesce_and_splinter() {
    let mut m = MigratingManager::new(16 * LARGE_PAGE_SIZE, 6, MigratingConfig::default());
    m.register_app(AppId(0));
    m.reserve(AppId(0), VirtPageNum(0), 512);

    let session = TraceSession::start();
    let mut promoted = false;
    for i in 0..512 {
        let out = m.touch(AppId(0), VirtPageNum(i)).unwrap();
        promoted |= out.events.iter().any(|e| matches!(e, MgmtEvent::TlbShootdown { .. }));
    }
    let dealloc = m.deallocate(AppId(0), VirtPageNum(0), 512);
    let events = session.finish();

    assert!(promoted, "the region promoted");
    assert!(dealloc.iter().any(|e| matches!(e, MgmtEvent::Splintered { .. })));
    let region = LargePageNum(0).raw();
    let coalesce = events.iter().position(|e| *e == Event::Coalesce { asid: 0, lpn: region });
    let splinter = events.iter().position(|e| *e == Event::Splinter { asid: 0, lpn: region });
    assert!(coalesce.is_some(), "promotion traced a coalesce: {events:?}");
    assert!(splinter.is_some(), "deallocation traced a splinter: {events:?}");
    assert!(coalesce < splinter, "coalesce precedes splinter: {events:?}");
}
