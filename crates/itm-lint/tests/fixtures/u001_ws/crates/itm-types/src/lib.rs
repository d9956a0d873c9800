//! U001 fixture: which bare-`pub` library items count as used.

pub use inner::reexported;

mod inner {
    pub fn reexported() {}
}

pub fn unused() {}

pub fn test_only() -> u32 {
    1
}

pub const USED_HERE: u32 = 3;

pub fn used_elsewhere() -> u32 {
    USED_HERE
}

pub(crate) fn crate_only() {}

pub fn deliberate() {} // itm-lint: allow(U001): deliberate API for downstream users

pub fn no_reason() {} // itm-lint: allow(U001)

// itm-lint: allow(U001): suppresses nothing, itm-core names the struct
pub struct Named;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_test_only() {
        assert_eq!(test_only(), 1);
    }
}
