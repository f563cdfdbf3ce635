//! The In-Place Coalescer, Section 4.3.
//!
//! Because CoCoA already placed every base page of a fully-allocated
//! large page frame contiguously and aligned, coalescing requires *no
//! data migration, no page-utilization monitoring, and no TLB flush* —
//! the page-size selection policy degenerates to: *coalesce a large page
//! frame as soon as it is fully populated* (and splinter only through
//! CAC). The hardware operation is two page-table updates: atomically set
//! the L3 large-page bit, then set the 512 L4 disabled bits.
//!
//! The policy lives in the runtime (and is therefore replaceable, as the
//! paper notes); this type implements the default fully-populated policy
//! and returns the events the simulator charges — which, per Figure 6b,
//! amount to a handful of PTE writes. It keeps no state of its own.

use crate::MgmtEvent;
use mosaic_vm::page_table::CoalesceError;
#[cfg(test)]
use mosaic_vm::AppId;
use mosaic_vm::{LargePageNum, PageTable};

/// The In-Place Coalescer.
///
/// # Examples
///
/// ```
/// use mosaic_core::InPlaceCoalescer;
/// use mosaic_vm::{PageTable, AppId, LargePageNum, LargeFrameNum};
///
/// let mut pt = PageTable::new(AppId(0));
/// let (lpn, lf) = (LargePageNum(3), LargeFrameNum(5));
/// for i in 0..512 {
///     pt.map_base(lpn.base_page(i), lf.base_frame(i)).unwrap();
/// }
/// let events = InPlaceCoalescer::try_coalesce(&mut pt, lpn);
/// assert_eq!(events.len(), 1);
/// assert!(pt.is_coalesced(lpn));
/// ```
#[derive(Debug)]
pub struct InPlaceCoalescer;

impl InPlaceCoalescer {
    /// Applies the default policy to `lpn`: coalesce if (and only if) the
    /// frame is fully populated with contiguous, aligned base pages of
    /// this one address space. Returns the events to charge (empty when
    /// the conditions do not hold — not an error; the page simply stays
    /// uncoalesced, e.g. until its remaining base pages arrive).
    pub fn try_coalesce(table: &mut PageTable, lpn: LargePageNum) -> Vec<MgmtEvent> {
        match table.coalesce(lpn) {
            Ok(_lf) => {
                mosaic_telemetry::emit(|| mosaic_telemetry::Event::Coalesce {
                    asid: table.asid().0,
                    lpn: lpn.raw(),
                });
                vec![MgmtEvent::Coalesced { asid: table.asid(), lpn }]
            }
            Err(
                CoalesceError::NotFullyPopulated
                | CoalesceError::NotContiguous
                | CoalesceError::AlreadyCoalesced,
            ) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_vm::LargeFrameNum;

    fn full(pt: &mut PageTable, lpn: LargePageNum, lf: LargeFrameNum) {
        for i in 0..512 {
            pt.map_base(lpn.base_page(i), lf.base_frame(i)).unwrap();
        }
    }

    #[test]
    fn coalesces_fully_populated_contiguous_frame() {
        let mut pt = PageTable::new(AppId(2));
        let lpn = LargePageNum(1);
        full(&mut pt, lpn, LargeFrameNum(4));
        let events = InPlaceCoalescer::try_coalesce(&mut pt, lpn);
        assert_eq!(events, vec![MgmtEvent::Coalesced { asid: AppId(2), lpn }]);
        assert_eq!(events[0].asid(), Some(AppId(2)));
    }

    #[test]
    fn partial_frame_is_left_alone() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(1);
        pt.map_base(lpn.base_page(0), LargeFrameNum(4).base_frame(0)).unwrap();
        assert!(InPlaceCoalescer::try_coalesce(&mut pt, lpn).is_empty());
        assert!(!pt.is_coalesced(lpn));
    }

    #[test]
    fn recoalescing_is_idempotent() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(1);
        full(&mut pt, lpn, LargeFrameNum(4));
        assert_eq!(InPlaceCoalescer::try_coalesce(&mut pt, lpn).len(), 1);
        assert!(InPlaceCoalescer::try_coalesce(&mut pt, lpn).is_empty(), "second call is a no-op");
    }

    #[test]
    fn non_contiguous_frame_is_rejected() {
        let mut pt = PageTable::new(AppId(0));
        let lpn = LargePageNum(1);
        // Fill from two different large frames.
        for i in 0..512 {
            let lf = if i < 256 { LargeFrameNum(4) } else { LargeFrameNum(5) };
            pt.map_base(lpn.base_page(i), lf.base_frame(i)).unwrap();
        }
        assert!(InPlaceCoalescer::try_coalesce(&mut pt, lpn).is_empty());
    }
}
