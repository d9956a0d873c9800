//! The `--faults` and `--epoch-plan` arguments: a named profile or a JSON
//! plan file, resolved and validated before any expensive work.
//!
//! Both flags go through [`load`]: profile name → file → JSON →
//! `validate()`. A plan file is one JSON object whose fields all default
//! to zero, so `{}` is the off plan and a partial file like
//! `{"loss": 0.1, "max_retries": 2}` works as expected.

use itm_types::{EpochPlan, FaultPlan};
use serde_json::{Error, Map, Value};

/// A plan a CLI flag can name.
pub trait Plan: Sized {
    /// What the plan is called in JSON error messages.
    const WHAT: &'static str;
    /// The named profile (`off`, `light`, `heavy`), if `name` is one.
    fn profile(name: &str) -> Option<Self>;
    /// The plan an object's fields describe.
    fn from_fields(f: &Fields) -> Result<Self, Error>;
    /// Range checks on every field.
    fn validate(&self) -> itm_types::Result<()>;
}

/// Resolve a plan flag's argument: a named profile, else a readable,
/// parseable and valid plan file. The error is the message to show.
pub fn load<P: Plan>(flag: &str, raw: &str) -> Result<P, String> {
    if raw.is_empty() {
        return Err(format!("{flag} expects off|light|heavy|FILE"));
    }
    if let Some(plan) = P::profile(raw) {
        return Ok(plan);
    }
    // Bare words meant as profile names fall through to the file read
    // and fail it with a message that names both readings.
    let text = std::fs::read_to_string(raw).map_err(|e| {
        format!(
            "{flag}: {raw:?} is neither a profile (off|light|heavy) nor a readable plan file: {e}"
        )
    })?;
    let plan =
        from_json::<P>(&text).map_err(|e| format!("{flag}: cannot parse plan file {raw}: {e}"))?;
    plan.validate()
        .map_err(|e| format!("{flag}: invalid plan in {raw}: {e}"))?;
    Ok(plan)
}

/// Parse a plan from the text of a JSON object (not yet validated).
pub fn from_json<P: Plan>(text: &str) -> Result<P, Error> {
    match serde_json::from_str::<Value>(text)? {
        Value::Object(obj) => P::from_fields(&Fields { obj, what: P::WHAT }),
        _ => Err(Error::new(format!("{}: expected a JSON object", P::WHAT))),
    }
}

/// The fields of a plan object, each defaulting to zero when absent.
pub struct Fields {
    obj: Map,
    what: &'static str,
}

impl Fields {
    /// A number field (a rate or an hour count); absent is `0.0`.
    pub fn rate(&self, name: &str) -> Result<f64, Error> {
        self.field(name, 0.0, Value::as_f64, "a number")
    }

    /// A non-negative integer field; absent is `0`.
    pub fn count(&self, name: &str) -> Result<u64, Error> {
        self.field(name, 0, Value::as_u64, "a non-negative integer")
    }

    /// A [`count`](Self::count) saturated to `u32::MAX`.
    pub fn count_u32(&self, name: &str) -> Result<u32, Error> {
        Ok(self.count(name)?.min(u64::from(u32::MAX)) as u32)
    }

    fn field<T>(
        &self,
        name: &str,
        absent: T,
        read: fn(&Value) -> Option<T>,
        kind: &str,
    ) -> Result<T, Error> {
        match self.obj.get(name) {
            None => Ok(absent),
            Some(v) => {
                read(v).ok_or_else(|| Error::new(format!("{}: {name} must be {kind}", self.what)))
            }
        }
    }
}

impl Plan for FaultPlan {
    const WHAT: &'static str = "fault plan";

    fn profile(name: &str) -> Option<Self> {
        FaultPlan::profile(name)
    }

    fn from_fields(f: &Fields) -> Result<Self, Error> {
        Ok(FaultPlan {
            loss: f.rate("loss")?,
            timeout: f.rate("timeout")?,
            refusal: f.rate("refusal")?,
            churn: f.rate("churn")?,
            max_retries: f.count_u32("max_retries")?,
            backoff_base_secs: f.count("backoff_base_secs")?,
            backoff_cap_secs: f.count("backoff_cap_secs")?,
        })
    }

    fn validate(&self) -> itm_types::Result<()> {
        FaultPlan::validate(self)
    }
}

impl Plan for EpochPlan {
    const WHAT: &'static str = "epoch plan";

    fn profile(name: &str) -> Option<Self> {
        EpochPlan::profile(name)
    }

    fn from_fields(f: &Fields) -> Result<Self, Error> {
        Ok(EpochPlan {
            resolver_churn: f.rate("resolver_churn")?,
            link_flaps: f.count_u32("link_flaps")?,
            vm_churn: f.rate("vm_churn")?,
            rehome_services: f.count_u32("rehome_services")?,
            diurnal_shift_hours: f.rate("diurnal_shift_hours")?,
        })
    }

    fn validate(&self) -> itm_types::Result<()> {
        EpochPlan::validate(self)
    }
}
