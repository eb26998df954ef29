//! Harness code the integration tests share (`mod common;`).

pub mod campaign;
