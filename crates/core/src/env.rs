//! Environment-variable knobs shared across the workspace binaries.
//!
//! The experiment harness (`NESTWX_JOBS`), the serve
//! daemon (`NESTWX_SERVE_WORKERS`, queue depth, cache capacity) and the CLI
//! all read tuning knobs the same way: a typed parse with a validity check,
//! a warning on stderr for an invalid value, and a silent fall-back to the
//! built-in default when the variable is unset.

/// Environment variable `name` as a positive `usize`, else `default`
/// (warns on an invalid value). Shared by every binary so the knobs
/// (`NESTWX_JOBS`, `NESTWX_SERVE_WORKERS`, ...) parse identically.
pub fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("warning: ignoring invalid {name}={v:?}");
                default
            }
        },
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process-global environment: each test uses its own variable name so
    // parallel test threads cannot interfere.

    #[test]
    fn unset_returns_default() {
        assert_eq!(env_usize("NESTWX_TEST_ENV_UNSET", 7), 7);
    }

    #[test]
    fn set_value_parses() {
        std::env::set_var("NESTWX_TEST_ENV_SET", "42");
        assert_eq!(env_usize("NESTWX_TEST_ENV_SET", 7), 42);
        std::env::set_var("NESTWX_TEST_ENV_PADDED", " 12 ");
        assert_eq!(env_usize("NESTWX_TEST_ENV_PADDED", 7), 12);
    }

    #[test]
    fn invalid_value_falls_back() {
        std::env::set_var("NESTWX_TEST_ENV_BAD", "zero");
        assert_eq!(env_usize("NESTWX_TEST_ENV_BAD", 7), 7);
        std::env::set_var("NESTWX_TEST_ENV_ZERO", "0");
        assert_eq!(env_usize("NESTWX_TEST_ENV_ZERO", 9), 9);
        std::env::set_var("NESTWX_TEST_ENV_NEG", "-1");
        assert_eq!(env_usize("NESTWX_TEST_ENV_NEG", 2), 2);
    }
}
