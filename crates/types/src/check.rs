//! Field checks shared by every configuration's `validate`: each returns
//! a typed [`Error::InvalidValue`] naming the offending field.

use crate::{Error, Result};

/// `v` is finite.
pub fn finite(what: &'static str, v: f64) -> Result<()> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(Error::invalid(what, format!("{v} is not finite")))
    }
}

/// `v` is finite and strictly positive.
pub fn positive(what: &'static str, v: f64) -> Result<()> {
    finite(what, v)?;
    if v > 0.0 {
        Ok(())
    } else {
        Err(Error::invalid(what, format!("{v} must be positive")))
    }
}

/// `v` is a fraction within [0, 1), such as a tolerated slowdown.
pub fn fraction(what: &'static str, v: f64) -> Result<()> {
    finite(what, v)?;
    if (0.0..1.0).contains(&v) {
        Ok(())
    } else {
        Err(Error::invalid(what, format!("{v} must be within [0, 1)")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(r: Result<()>) -> Option<&'static str> {
        match r {
            Err(Error::InvalidValue { what, .. }) => Some(what),
            _ => None,
        }
    }

    #[test]
    fn checks_name_the_field_they_reject() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(field(finite("a", v)), Some("a"));
            assert_eq!(field(positive("b", v)), Some("b"));
            assert_eq!(field(fraction("c", v)), Some("c"));
        }
        for v in [0.0, -1.0] {
            assert_eq!(field(positive("b", v)), Some("b"));
        }
        for v in [1.0, -0.1, 2.0] {
            assert_eq!(field(fraction("c", v)), Some("c"));
        }
        assert!(finite("a", -3.0).is_ok());
        assert!(positive("b", 1e-9).is_ok());
        assert!(fraction("c", 0.0).is_ok() && fraction("c", 0.999).is_ok());
    }
}
