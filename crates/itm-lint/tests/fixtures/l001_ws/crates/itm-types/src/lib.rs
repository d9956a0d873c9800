//! Lowest layer referencing upward — the L001 violation.

pub fn bad() -> u32 { // itm-lint: allow(U001): the fixture's one entry point, named by no other file
    itm_core::answer()
}
