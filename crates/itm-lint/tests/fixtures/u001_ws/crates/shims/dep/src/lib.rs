//! A dependency shim: emulated external API, exempt from U001.

pub fn shim_api() {}
