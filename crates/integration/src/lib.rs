//! Integration-test host crate; see the repository-root `tests/` directory.

#![forbid(unsafe_code)]
