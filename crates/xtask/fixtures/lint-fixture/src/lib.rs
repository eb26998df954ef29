//! Lint fixture: one function per `cargo xtask lint` rule, violating and
//! conforming variants side by side. `xtask`'s `fixture_trips_every_rule`
//! test pins the expected findings; keep the marker comments intact.

use std::sync::Mutex; // trips no-std-sync

pub struct H;
impl H {
    pub fn flush(&self, _p: u64, _o: usize, _l: usize) {}
    pub fn fence(&self) {}
}

pub fn spawn_untracked() {
    let _guard = Mutex::new(0u32);
    let t = std::thread::spawn(|| {}); // trips no-std-sync
    let _ = t.join();
}

pub fn paired_flush_is_clean(h: &H) {
    h.flush(1, 0, 64);
    h.fence(); // pairs the flush above: no finding
}

pub fn annotated_flush_is_clean(h: &H) {
    // lint: allow(flush-fence) suppressed: caller fences the batch
    h.flush(2, 0, 64);
}

pub fn bare_allow_is_reported(h: &H) {
    // lint: allow(flush-fence)
    h.flush(3, 0, 64); // reported: allow without a reason
}

// SAFETY: fixture demonstrates a documented unsafe block — no finding.
pub unsafe fn documented(p: *mut u8) {
    *p = 1;
}

pub unsafe fn missing_safety_comment(p: *mut u8) {
    // trips safety-comment
    *p = 0;
}

pub fn chained_paired_flush_is_clean(h: &H) {
    // Multi-line chain shapes with a fence in range: no finding.
    h.
        flush(7, 0, 64);
    h.flush
        (8, 0, 64);
    h.fence();
}

// Kept last and >12 lines from any fence so the pairing scan cannot see one.
pub fn unpaired_flush(h: &H) {
    h.flush(4, 0, 64); // trips flush-fence
}

pub fn chained_unpaired_flush(h: &H) {
    // The receiver dot ends the previous line — the lexical blind spot the
    // multi-line fix closes. Must trip.
    h.
        flush(5, 0, 64); // trips flush-fence (chained shape)
}

pub fn split_unpaired_flush(h: &H) {
    // Name at end of line, arguments on the next. Must trip.
    h.flush
        (6, 0, 64); // trips flush-fence (split shape)
}
