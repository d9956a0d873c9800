//! Names `used_elsewhere` and `Named`: uses from another file.

pub fn entry() -> u32 {
    let _ = itm_types::Named;
    itm_types::used_elsewhere()
}
