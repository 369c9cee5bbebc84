//! Test support shared by the integration tests that drive a [`Backend`]
//! directly: the conformance testkit, the command-chaos decorator and the
//! conformance kernel. It lives with the tests, outside the library.
//!
//! [`Backend`]: slate_core::backend::Backend

// Each test binary uses a different part of it.
#![allow(dead_code)]

pub mod chaos;
pub mod churn;
pub mod testkit;
