//! Umbrella package carrying the workspace examples and integration tests.
