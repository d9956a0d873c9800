//! Harness code: exempt from U001, and its identifiers count as uses.

pub fn harness_helper() {}

#[test]
fn drives_core() {
    assert_eq!(itm_core::entry(), 3);
}
